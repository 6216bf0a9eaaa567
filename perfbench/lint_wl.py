"""The ``lint_synth`` workload: whole-program lint of a generated package.

Set-up generates the seeded package (see :mod:`lintgen`) and runs two
warm-up cold lints.  One operation is a pair: a whole-program
``run_lint`` with an empty summary cache (cold), then the same lint with
the cache that run filled (warm).  Both must report exactly the planted
findings, by rule id, and the warm one must miss the cache nowhere.
"""

from __future__ import annotations

import shutil
from collections import Counter
from typing import Dict, List, Tuple

from common import Context, Outcome, median
from lintgen import PACKAGE, generate, source_lines
from pipeline_wl import measure, scaled, summarize
from spans import Tracer

import repro.devtools.analysis.project as project_mod
import repro.devtools.engine as engine
from repro.devtools import LintConfig
from repro.devtools.analysis import SummaryCache

WARMUP_LINTS = 2


def lint_config() -> LintConfig:
    return LintConfig(first_party=(PACKAGE,),
                      perf_entry_modules=(f"{PACKAGE}.engine",))


def check_findings(result, planted: Counter, warm: bool) -> List[str]:
    got = Counter(f.rule_id for f in result.findings)
    errors = []
    if got != planted:
        errors.append(f"findings {dict(sorted(got.items()))} != planted "
                      f"{dict(sorted(planted.items()))}")
    if warm and result.analysis["misses"]:
        errors.append(f"warm lint missed the summary cache "
                      f"{result.analysis['misses']} times")
    return errors


def install_devtools_spans(tracer: Tracer) -> None:
    tracer.wrap(engine, "run_lint", "devtools.rules_s")
    tracer.wrap(project_mod, "summarize_module", "devtools.summarize_s")
    tracer.wrap(project_mod, "ProjectGraph", "devtools.graph_s")


def run_lint_synth(ctx: Context) -> Outcome:
    tracer = Tracer() if ctx.trace else None
    src_root = ctx.workdir / "lintsrc"
    planted = generate(src_root, ctx.seed)
    target = [src_root / PACKAGE]
    config = lint_config()
    setup_errors: List[str] = []
    for k in range(WARMUP_LINTS):
        with ctx.setup_unit():
            result = engine.run_lint(
                target, config, whole_program=True,
                summary_cache=SummaryCache(ctx.workdir / f"warmup{k}"))
        setup_errors += check_findings(result, planted, warm=False)
    if tracer is not None:
        install_devtools_spans(tracer)
    ctx.end_setup()
    times: List[Tuple[bool, float, float]] = []

    segments = ctx.segments
    segments.tracer = tracer

    def one(cache_dir, traced: bool):
        if tracer is not None:
            tracer.begin_op(traced)
        segments.begin()
        result = engine.run_lint(target, config, whole_program=True,
                                 summary_cache=SummaryCache(cache_dir))
        raw, corrected = segments.end()
        layers = tracer.end_op(raw) if tracer is not None else {}
        return raw, corrected, result, scaled(layers, corrected / raw)

    def op(index: int, traced: bool):
        cache_dir = ctx.workdir / f"summaries{index}"
        cold_raw, cold_s, cold, cold_layers = one(cache_dir, traced)
        warm_raw, warm_s, warm, warm_layers = one(cache_dir, traced)
        shutil.rmtree(cache_dir, ignore_errors=True)
        errors = (check_findings(cold, planted, warm=False)
                  + check_findings(warm, planted, warm=True))
        times.append((traced, cold_s, warm_s))
        layers: Dict[str, float] = {}
        if traced:
            for name in set(cold_layers) | set(warm_layers):
                layers[name] = (cold_layers.get(name, 0.0)
                                + warm_layers.get(name, 0.0))
            layers.update({
                "devtools.modules": float(cold.analysis["modules"]),
                "devtools.edges": float(cold.analysis["call_edges"]),
                "devtools.findings": float(len(cold.findings)),
                "devtools.cache_hits": float(cold.analysis["hits"]
                                             + warm.analysis["hits"]),
                "devtools.cache_misses": float(cold.analysis["misses"]
                                               + warm.analysis["misses"]),
            })
        return cold_raw + warm_raw, cold_s + warm_s, layers, errors

    results = measure(ctx, op, tracer)
    if tracer is not None:
        tracer.unwrap_all()

    outcome = summarize(ctx, results, "lint_synth", "lint_pair_s")
    outcome.per_layer.pop("lint_pair_s")
    outcome.per_layer["lint_cold_s"] = median([c for t, c, _ in times if not t])
    outcome.per_layer["lint_warm_s"] = median([w for t, _, w in times if not t])
    outcome.errors = setup_errors + outcome.errors
    outcome.record.update({
        "planted": dict(sorted(planted.items())),
        "package_lines": source_lines(src_root),
        "lint_cold_s": [c for t, c, _ in times if not t],
        "lint_warm_s": [w for t, _, w in times if not t],
    })
    return outcome
