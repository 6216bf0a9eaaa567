"""The benchmark's own checks, checked.

    python3 -m pytest perfbench/test_perfbench.py -q

Each output check must reject a deliberately wrong expected value, the
metric catalogue must match ``BENCHMARK.json``, and the runner must
refuse to run where there is no program to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import END_TO_END, PER_LAYER  # noqa: E402


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "reproduce_cold", "reanalyze_warm", "serve_mix", "lint_synth"]


def test_reproduce_check_rejects_a_wrong_digest(tmp_path):
    from pipeline_wl import (SEED_POOL, check_reproduce, load_expected,
                             reproduce_digests, reproduce_once)

    seed = SEED_POOL[0]
    scenario, _, outputs = reproduce_once(tmp_path / "cache", seed)
    got = reproduce_digests(scenario, *outputs)
    expected = load_expected()
    assert check_reproduce(seed, got, expected) == []
    wrong = json.loads(json.dumps(expected))
    wrong[str(seed)]["toposcope"] = "0" * 64
    errors = check_reproduce(seed, got, wrong)
    assert len(errors) == 1 and "toposcope" in errors[0]


def test_reanalysis_digest_tells_outputs_apart(tmp_path):
    from common import digest, mid_config
    from pipeline_wl import reanalysis_outputs

    from repro import build_scenario

    scenario = build_scenario(mid_config(5000), cache=tmp_path / "cache")
    outputs = reanalysis_outputs(scenario)
    warm = build_scenario(mid_config(5000), cache=tmp_path / "cache")
    assert warm.corpus_from_cache
    assert digest(reanalysis_outputs(warm)) == digest(outputs)
    outputs["casestudy"]["focus"] = -1
    assert digest(outputs) != digest(reanalysis_outputs(warm))


def test_lint_check_rejects_a_wrong_planted_set(tmp_path):
    from lint_wl import check_findings, lint_config
    from lintgen import PACKAGE, generate

    from repro.devtools import run_lint
    from repro.devtools.analysis import SummaryCache

    planted = generate(tmp_path / "src", seed=3)
    result = run_lint([tmp_path / "src" / PACKAGE], lint_config(),
                      whole_program=True,
                      summary_cache=SummaryCache(tmp_path / "summaries"))
    assert check_findings(result, planted, warm=False) == []
    wrong = Counter(planted)
    wrong["FLOW102"] += 1
    assert check_findings(result, wrong, warm=False)


def test_serve_check_rejects_a_wrong_body():
    from serve_wl import body_errors

    class FakeOracle:
        sid = "s1"

        def rel_body(self, algo, a, b):
            return {"as1": a, "as2": b, "algorithm": algo}

    answers = [("s1", ("rel_body", ("asrank", 1, 2)))]
    good = json.dumps({"as1": 1, "as2": 2, "algorithm": "asrank"}).encode()
    bad = json.dumps({"as1": 1, "as2": 2, "algorithm": "gao"}).encode()
    oracles = {"s1": FakeOracle()}
    assert body_errors({0: {b"g": [5, good]}}, answers, oracles) == ([], 0)
    # every wrong response counts, not every wrong request
    errors, wrong = body_errors({0: {b"b": [7, bad]}}, answers, oracles)
    assert len(errors) == 1 and wrong == 7
    # one request answered two different ways: the rarer answer is wrong
    # even though it parses equal to the right one
    errors, wrong = body_errors(
        {0: {b"g": [5, good], b"x": [2, good + b" "]}}, answers, oracles)
    assert len(errors) == 1 and wrong == 2


def test_segments_cut_long_work_by_the_clock_not_the_program():
    import time

    from common import HostClock, Segments
    from spans import Tracer

    tracer = Tracer()
    tracer.begin_op(True)
    segments = Segments(HostClock(), tracer)
    segments.begin()
    span = tracer.open("work")
    deadline = time.perf_counter() + 1.0
    while time.perf_counter() < deadline:
        pass
    tracer.close(span)
    raw, corrected = segments.end()
    assert segments.marks >= 3  # timer cuts, plus the closing mark
    assert corrected > 0
    # the readings taken inside the busy second are left out of the
    # measured time (the closing one comes after it; a cut just before
    # the deadline may overrun it by one reading)...
    inside = [end - start for start, end in tracer.pauses[:-1]]
    paused = sum(inside)
    assert paused > 0
    assert 1.0 <= raw + paused < 1.0 + max(inside) + 0.01
    # ...and out of the span they interrupted
    layers = tracer.end_op(raw)
    assert abs(layers["work"] - (span.end - span.start - paused)) < 1e-9


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
