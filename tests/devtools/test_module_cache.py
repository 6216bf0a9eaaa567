"""The module cache: a warm run is the cold run, without the per-file work.

One entry per module holds its summary, the selected module rules' raw
findings and its noqa markers.  These tests pin the three properties
that make serving them sound:

* a warm ``LintResult`` equals the cold one and the cache-less one on
  every fixture and on ``src/repro`` (findings, baselined, suppressed,
  stale baseline entries and SUP001), under several configurations;
* a warm run parses and tokenizes nothing;
* everything an entry depends on is in its key, and a malformed entry
  is a miss, never a crash.
"""

import ast
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.devtools import Baseline, LintConfig, run_lint
from repro.devtools.analysis import (
    SummaryCache,
    module_config_digest,
    summary_key,
)
from repro.devtools.analysis import cache as cache_mod
from repro.devtools.cli import main as lint_main
from repro.devtools.suppressions import SuppressionIndex

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

TARGETS = sorted(
    [path for path in FIXTURES.glob("*.py")]
    + [path for path in FIXTURES.iterdir() if path.is_dir()]
) + [SRC_REPRO]

CONFIGS = {
    "default": LintConfig(),
    "subset": LintConfig(
        select=["DET001", "DET002", "DEP001", "PICKLE001", "ASYNC001",
                "FLOW101", "FLOW103", "PERF001", "CONC001"],
        ignore=["ASYNC001", "FLOW103"],
    ),
}

#: Fields read only by program rules, or resolved into the selected
#: module-rule ids: none of them is part of an entry's config digest.
NON_ENTRY_FIELDS = {"select", "ignore", "flow_sink_contexts",
                    "perf_entry_modules"}


def _target_id(path: Path) -> str:
    return "src/repro" if path == SRC_REPRO else path.name


def _outcome(result):
    return (result.findings, result.baselined, result.suppressed,
            result.stale_baseline, result.files_checked)


def _baseline_from(findings) -> Baseline:
    """Grandfathers every other finding, plus one entry nothing matches."""
    baseline = Baseline.from_findings(findings[::2])
    baseline.counts[("DET001", "gone.py", "no longer there")] += 1
    return baseline


@pytest.mark.parametrize("with_baseline", [False, True],
                         ids=["no-baseline", "baseline"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("target", TARGETS, ids=_target_id)
def test_warm_result_equals_cold_and_uncached(tmp_path, target,
                                              config_name, with_baseline):
    config = CONFIGS[config_name]
    uncached = run_lint([target], config, whole_program=True)
    baseline = (_baseline_from(uncached.findings) if with_baseline
                else Baseline())
    if with_baseline:
        uncached = run_lint([target], config, baseline=baseline,
                            whole_program=True)
        assert uncached.stale_baseline
    cold = run_lint([target], config, baseline=baseline,
                    whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    warm = run_lint([target], config, baseline=baseline,
                    whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    files = cold.files_checked
    assert cold.analysis["misses"] == files
    assert cold.analysis["stores"] == files
    assert warm.analysis["hits"] == files
    assert warm.analysis["misses"] == 0
    assert _outcome(cold) == _outcome(uncached)
    assert _outcome(warm) == _outcome(cold)


def test_fixture_runs_exercise_suppression_and_sup001(tmp_path):
    # The equivalence matrix above is only as strong as its inputs:
    # make sure it covers a used marker and a stale one.
    target = FIXTURES / "suppression_mixed.py"
    for _ in range(2):
        result = run_lint([target], LintConfig(), whole_program=True,
                          summary_cache=SummaryCache(tmp_path / "c"))
        assert result.suppressed == 1
        assert [f.rule_id for f in result.findings] == ["SUP001"]
    assert result.analysis["hits"] == 1


def test_warm_run_parses_and_tokenizes_nothing(tmp_path, monkeypatch):
    calls = {"parse": 0, "from_source": 0}
    real_parse = ast.parse
    real_from_source = SuppressionIndex.from_source.__func__

    def counting_parse(*args, **kwargs):
        calls["parse"] += 1
        return real_parse(*args, **kwargs)

    def counting_from_source(cls, source):
        calls["from_source"] += 1
        return real_from_source(cls, source)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(SuppressionIndex, "from_source",
                        classmethod(counting_from_source))
    targets = [FIXTURES / "flowpkg", FIXTURES / "suppression_mixed.py"]

    cold = run_lint(targets, LintConfig(), whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    assert calls == {"parse": 5, "from_source": 5}
    calls.update(parse=0, from_source=0)
    warm = run_lint(targets, LintConfig(), whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    assert calls == {"parse": 0, "from_source": 0}
    assert _outcome(warm) == _outcome(cold)


def test_call_graph_entries_serve_the_lint(tmp_path, capsys):
    # --call-graph and the lint share one entry layout and key.
    package = FIXTURES / "flowpkg"
    assert lint_main(["--call-graph=", str(package),
                      "--analysis-cache", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().out
    result = run_lint([package], LintConfig(), whole_program=True,
                      summary_cache=SummaryCache(tmp_path / "c"))
    assert result.analysis["hits"] == 4
    assert result.analysis["misses"] == 0


@pytest.mark.parametrize("init_before", [False, True],
                         ids=["init-added", "init-removed"])
def test_parent_init_change_renames_cached_modules(tmp_path, capsys,
                                                   init_before):
    # A module's dotted name depends on which parent directories hold
    # __init__.py, not on its bytes: adding or removing one between a
    # cold and a warm run must not serve the old names.
    outer = tmp_path / "outer"
    shutil.copytree(FIXTURES / "flowpkg", outer / "flowpkg")
    marker = outer / "__init__.py"
    if init_before:
        marker.write_text("", encoding="utf-8")
    root = tmp_path / "c"
    cold = run_lint([outer], LintConfig(), whole_program=True,
                    summary_cache=SummaryCache(root))
    assert lint_main(["--call-graph=", str(outer),
                      "--analysis-cache", str(root)]) == 0
    cold_edges = capsys.readouterr().out
    if init_before:
        marker.unlink()
    else:
        marker.write_text("", encoding="utf-8")

    uncached = run_lint([outer], LintConfig(), whole_program=True)
    warm = run_lint([outer], LintConfig(), whole_program=True,
                    summary_cache=SummaryCache(root))
    assert _outcome(warm) == _outcome(uncached)
    assert uncached.findings != cold.findings  # the rename shows
    assert lint_main(["--call-graph=", str(outer),
                      "--no-analysis-cache"]) == 0
    uncached_edges = capsys.readouterr().out
    assert lint_main(["--call-graph=", str(outer),
                      "--analysis-cache", str(root)]) == 0
    assert capsys.readouterr().out == uncached_edges
    assert uncached_edges != cold_edges


def test_syntax_error_files_stay_uncached(tmp_path):
    (tmp_path / "good.py").write_text("def f():\n    return 1\n",
                                      encoding="utf-8")
    (tmp_path / "bad.py").write_text("def broken(:\n", encoding="utf-8")
    cold = run_lint([tmp_path], LintConfig(), whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    warm = run_lint([tmp_path], LintConfig(), whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    assert [f.rule_id for f in warm.findings] == ["SYN001"]
    assert _outcome(warm) == _outcome(cold)
    assert (cold.analysis["misses"], cold.analysis["stores"]) == (2, 1)
    assert (warm.analysis["hits"], warm.analysis["misses"]) == (1, 1)


def test_per_file_runs_use_no_cache(tmp_path):
    result = run_lint([FIXTURES / "flowpkg"], LintConfig(),
                      summary_cache=SummaryCache(tmp_path / "c"))
    assert result.analysis is None
    assert not (tmp_path / "c").exists()


# -- the key ---------------------------------------------------------------

def test_entry_config_fields_cover_every_lint_config_field():
    names = {field.name for field in dataclasses.fields(LintConfig)}
    assert names == set(cache_mod.ENTRY_CONFIG_FIELDS) | NON_ENTRY_FIELDS


@pytest.mark.parametrize("name", cache_mod.ENTRY_CONFIG_FIELDS)
def test_each_entry_knob_changes_the_key(name):
    default = LintConfig()
    changed = dataclasses.replace(
        default, **{name: tuple(getattr(default, name)) + ("zzz",)})
    assert module_config_digest(changed) != module_config_digest(default)


@pytest.mark.parametrize("config", [
    LintConfig(select=["DET001"]),
    LintConfig(ignore=["DEP001"]),
    LintConfig(select=["DET001", "DET002"], ignore=["DET002"]),
], ids=["select", "ignore", "select-ignore"])
def test_module_rule_selection_changes_the_key(config):
    assert module_config_digest(config) != module_config_digest(
        LintConfig())


def test_program_only_knobs_and_program_rule_selection_keep_the_key():
    default = module_config_digest(LintConfig())
    assert module_config_digest(LintConfig(
        flow_sink_contexts=("other",),
        perf_entry_modules=("other",))) == default
    assert module_config_digest(
        LintConfig(ignore=["FLOW101", "PERF002"])) == default


def test_code_digest_changes_the_key(monkeypatch):
    digest = module_config_digest(LintConfig())
    before = summary_key("m.py", "x = 1\n", digest)
    monkeypatch.setattr(cache_mod, "code_digest", lambda: "edited")
    assert summary_key("m.py", "x = 1\n", digest) != before


def test_code_digest_follows_the_devtools_sources(tmp_path, monkeypatch):
    copy = tmp_path / "devtools"
    shutil.copytree(cache_mod._DEVTOOLS_ROOT, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cache_mod, "_DEVTOOLS_ROOT", copy)
    compute = cache_mod.code_digest.__wrapped__
    assert compute() == cache_mod.code_digest()
    rule = copy / "rules" / "determinism.py"
    rule.write_text(rule.read_text(encoding="utf-8") + "# edited\n",
                    encoding="utf-8")
    assert compute() != cache_mod.code_digest()


def test_code_digest_follows_the_interpreter(monkeypatch):
    # DEP001's stdlib list and the ast shapes differ between
    # interpreter versions, and the default cache root is shared.
    compute = cache_mod.code_digest.__wrapped__
    monkeypatch.setattr(sys.implementation, "cache_tag", "other-999")
    assert compute() != cache_mod.code_digest()


# -- malformed entries -----------------------------------------------------

def _tamper_all(root: Path, edit) -> None:
    for path in sorted(root.rglob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        edit(document)
        path.write_text(json.dumps(document), encoding="utf-8")


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("findings"),
    lambda d: d.pop("markers"),
    lambda d: d.pop("summary"),
    lambda d: d.update(findings=[["1", 1, "DET001", "x"]]),
    lambda d: d.update(markers=[[1, 1, ["DET001"]]]),
    lambda d: d.update(findings={}),
    lambda d: d.update(analysis_version=999),
    lambda d: d.update(d.pop("summary"), findings=None, markers=None),
], ids=["no-findings", "no-markers", "no-summary", "bad-finding-row",
        "bad-marker-row", "findings-not-a-list", "tampered-version",
        "summary-only-layout"])
def test_malformed_entry_is_a_miss_not_a_crash(tmp_path, edit):
    target = FIXTURES / "suppression_mixed.py"
    config = LintConfig()
    cold = run_lint([target], config, whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    _tamper_all(tmp_path / "c", edit)
    again = run_lint([target], config, whole_program=True,
                     summary_cache=SummaryCache(tmp_path / "c"))
    assert (again.analysis["hits"], again.analysis["misses"]) == (0, 1)
    assert again.analysis["stores"] == 1
    assert _outcome(again) == _outcome(cold)



def test_one_walk_per_miss_and_none_per_hit(tmp_path, monkeypatch):
    # A miss lists its nodes once for the module rules and the
    # summariser together; a hit lists nothing, and nothing in
    # repro.devtools falls back to ast.walk.
    from repro.devtools import registry

    real_walk_module = registry.walk_module
    real_ast_walk = ast.walk
    calls = {"walk_module": 0, "devtools_ast_walk": 0}

    def counting_walk_module(tree):
        calls["walk_module"] += 1
        return real_walk_module(tree)

    def counting_ast_walk(node):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("repro.devtools"):
            calls["devtools_ast_walk"] += 1
        return real_ast_walk(node)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.devtools")
                and getattr(module, "walk_module", None)
                is real_walk_module):
            monkeypatch.setattr(module, "walk_module", counting_walk_module)
    monkeypatch.setattr(ast, "walk", counting_ast_walk)
    package = FIXTURES / "flowpkg"

    cold = run_lint([package], LintConfig(), whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    assert cold.analysis["misses"] == cold.files_checked == 4
    assert calls == {"walk_module": 4, "devtools_ast_walk": 0}
    calls.update(walk_module=0)
    warm = run_lint([package], LintConfig(), whole_program=True,
                    summary_cache=SummaryCache(tmp_path / "c"))
    assert warm.analysis["hits"] == 4
    assert calls == {"walk_module": 0, "devtools_ast_walk": 0}
    assert _outcome(warm) == _outcome(cold)
