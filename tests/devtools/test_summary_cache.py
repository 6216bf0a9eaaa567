"""The summary cache contract: invalidation, staleness, byte stability.

The cache is content-addressed, so correctness is three properties:
an edit changes the key (old entry never read), a version bump rejects
entries even under the same key (belt-and-braces field check), and a
given summary always serialises to the same bytes.
"""

import json
from pathlib import Path

import pytest

from repro.devtools import LintConfig, run_lint
from repro.devtools.analysis import (
    SummaryCache,
    build_project,
    module_config_digest,
    summary_key,
)
from repro.devtools.analysis import summaries as summaries_mod
from repro.devtools.reporters import render_json

FIXTURES = Path(__file__).parent / "fixtures"


def cache_files(root: Path):
    return sorted(p for p in Path(root).rglob("*.json"))


def build_once(cache, config=None):
    config = config or LintConfig()
    items = [(str(path), path.read_text(encoding="utf-8"), None)
             for path in sorted((FIXTURES / "flowpkg").glob("*.py"))]
    return build_project(items, config, cache)


def test_cold_then_warm_hit_counts(tmp_path):
    cache = SummaryCache(tmp_path / "c")
    _, cold = build_once(cache)
    assert cold["misses"] == 4 and cold["hits"] == 0
    assert cold["stores"] == 4
    cache2 = SummaryCache(tmp_path / "c")
    _, warm = build_once(cache2)
    assert warm["hits"] == 4 and warm["misses"] == 0
    assert warm["stores"] == 0


def test_edit_changes_the_key_and_invalidates(tmp_path):
    digest = module_config_digest(LintConfig())
    before = summary_key("m.py", "def f():\n    return 1\n", digest)
    after = summary_key("m.py", "def f():\n    return 2\n", digest)
    assert before != after

    # End to end: lint a file, edit it, re-lint — the edited file is a
    # miss, the untouched key is never consulted again.
    target = tmp_path / "m.py"
    target.write_text("def f():\n    return 1\n", encoding="utf-8")
    cache = SummaryCache(tmp_path / "c")
    build_project([(str(target),
                    target.read_text(encoding="utf-8"), None)],
                  LintConfig(), cache)
    target.write_text("def f():\n    return 2\n", encoding="utf-8")
    cache2 = SummaryCache(tmp_path / "c")
    _, stats = build_project([(str(target),
                               target.read_text(encoding="utf-8"), None)],
                             LintConfig(), cache2)
    assert stats["hits"] == 0 and stats["misses"] == 1


def test_extraction_config_changes_the_key():
    source = "def f():\n    return 1\n"
    a = summary_key("m.py", source,
                    module_config_digest(LintConfig()))
    b = summary_key(
        "m.py", source,
        module_config_digest(
            LintConfig(perf_hot_names=("corpus",))))
    assert a != b


def test_version_bump_rejects_stale_summaries(tmp_path, monkeypatch):
    cache = SummaryCache(tmp_path / "c")
    _, cold = build_once(cache)
    assert cold["stores"] == 4

    # Same key, same files — but a newer analysis version must refuse
    # to trust the stored entries (the inner field check), not just
    # miss on a different hash.
    monkeypatch.setattr(summaries_mod, "ANALYSIS_VERSION",
                        summaries_mod.ANALYSIS_VERSION + 1)
    stale = SummaryCache(tmp_path / "c")
    digest = module_config_digest(LintConfig())
    for path in sorted((FIXTURES / "flowpkg").glob("*.py")):
        key = summary_key(str(path),
                          path.read_text(encoding="utf-8"), digest)
        assert stale.get(key) is None
    assert stale.hits == 0 and stale.misses == 4

    # And tampering the version field of a stored file is also caught.
    monkeypatch.undo()
    entry = cache_files(tmp_path / "c")[0]
    document = json.loads(entry.read_text(encoding="utf-8"))
    document["analysis_version"] = 999
    entry.write_text(json.dumps(document), encoding="utf-8")
    key = entry.stem
    fresh = SummaryCache(tmp_path / "c")
    assert fresh.get(key) is None


def test_cache_files_are_byte_stable_across_runs(tmp_path):
    cache_a = SummaryCache(tmp_path / "a")
    cache_b = SummaryCache(tmp_path / "b")
    build_once(cache_a)
    build_once(cache_b)
    files_a = cache_files(tmp_path / "a")
    files_b = cache_files(tmp_path / "b")
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for left, right in zip(files_a, files_b):
        assert left.read_bytes() == right.read_bytes()


def test_warm_run_findings_are_byte_identical(tmp_path):
    config = LintConfig(select=["FLOW101", "FLOW102", "FLOW103"])
    cold = run_lint([FIXTURES / "flowpkg"], config, whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    warm = run_lint([FIXTURES / "flowpkg"], config, whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    assert warm.analysis["hits"] > 0 and warm.analysis["misses"] == 0
    assert cold.findings == warm.findings
    cold_doc = json.loads(render_json(cold))
    warm_doc = json.loads(render_json(warm))
    assert cold_doc["findings"] == warm_doc["findings"]


def test_unwritable_cache_degrades_silently(tmp_path):
    # Point the cache at a path that cannot be a directory.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    cache = SummaryCache(blocker / "sub")
    graph, stats = build_once(cache)
    assert stats["stores"] == 0
    assert len(graph.modules) == 4


def test_program_pass_reuses_trees_without_a_cache():
    config = LintConfig(select=["FLOW101"])
    result = run_lint([FIXTURES / "flowpkg"], config,
                      whole_program=True, summary_cache=None)
    assert result.analysis is not None
    assert result.analysis["hits"] == 0
    assert [f.rule_id for f in result.findings] == ["FLOW101"]


def test_syntax_error_files_are_skipped_by_the_program_pass(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("def f():\n    return 1\n", encoding="utf-8")
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    result = run_lint([tmp_path], LintConfig(), whole_program=True)
    assert [f.rule_id for f in result.findings] == ["SYN001"]
    assert result.analysis["modules"] == 1
