"""Fixture-driven positive/negative coverage for every rule."""

import pytest

from repro.devtools import LintConfig, run_lint
from repro.devtools.registry import all_rules

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (bad fixture, expected finding count, ok fixture)
CASES = {
    "DET001": ("det001_bad.py", 4, "det001_ok.py"),
    "DET002": ("det002_bad.py", 3, "det002_ok.py"),
    "DET003": ("det003_bad.py", 3, "det003_ok.py"),
    "ASYNC001": ("async001_bad.py", 3, "async001_ok.py"),
    "ASYNC002": ("async002_bad.py", 1, "async002_ok.py"),
    "PICKLE001": ("pickle001_bad.py", 3, "pickle001_ok.py"),
    "DEP001": ("dep001_bad.py", 2, "dep001_ok.py"),
    "API001": ("api001_bad.py", 2, "api001_ok.py"),
}


def lint_one(filename, rule_id):
    config = LintConfig(select=[rule_id])
    result = run_lint([FIXTURES / filename], config)
    return result.findings


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_triggers_rule(rule_id):
    bad, expected_count, _ = CASES[rule_id]
    findings = lint_one(bad, rule_id)
    assert [f.rule_id for f in findings] == [rule_id] * expected_count
    # Locations must be real: inside the file, 1-based.
    for finding in findings:
        assert finding.line >= 1 and finding.col >= 1
        assert finding.path.endswith(bad)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_ok_fixture_is_clean(rule_id):
    _, _, ok = CASES[rule_id]
    assert lint_one(ok, rule_id) == []


def test_every_registered_rule_has_a_fixture_case():
    # Program-scope rules (FLOW/PERF/CONC) are covered by the package
    # fixtures in test_program_rules.py — this table holds the
    # single-file, module-scope rules.
    module_scope = [rule_id for rule_id, rule_cls in all_rules().items()
                    if rule_cls.scope == "module"]
    assert sorted(module_scope) == sorted(CASES)


def test_fixture_tree_trips_every_rule_at_once():
    """The acceptance scenario: one lint run over the whole fixture
    tree must exit non-zero with every rule represented."""
    result = run_lint([FIXTURES], LintConfig())
    assert not result.ok
    seen = {finding.rule_id for finding in result.findings}
    assert set(CASES) <= seen


def test_findings_are_sorted_and_deterministic():
    first = run_lint([FIXTURES], LintConfig())
    second = run_lint([FIXTURES], LintConfig())
    assert first.findings == second.findings
    assert first.findings == sorted(first.findings)


def test_det001_exemption_path_is_configurable(tmp_path):
    source = "import random\n"
    exempt = tmp_path / "rng.py"
    exempt.write_text(source, encoding="utf-8")
    strict = run_lint([exempt], LintConfig(select=["DET001"]))
    assert len(strict.findings) == 1
    lax = run_lint(
        [exempt],
        LintConfig(select=["DET001"], det001_exempt=("rng.py",)),
    )
    assert lax.findings == []


def test_dep001_extra_allowed_imports(tmp_path):
    target = tmp_path / "uses_requests.py"
    target.write_text("import requests\n", encoding="utf-8")
    strict = run_lint([target], LintConfig(select=["DEP001"]))
    assert len(strict.findings) == 1
    lax = run_lint(
        [target],
        LintConfig(select=["DEP001"], extra_allowed_imports=("requests",)),
    )
    assert lax.findings == []


def test_dep001_dotted_allowlist_entries(tmp_path):
    """A dotted entry admits exactly one subtree, not its siblings."""
    target = tmp_path / "uses_submodule.py"
    target.write_text(
        "from scipy.sparse import csr_matrix\n"
        "from scipy.stats import norm\n"
        "import scipy.sparse.linalg\n",
        encoding="utf-8",
    )
    strict = run_lint([target], LintConfig(select=["DEP001"]))
    assert len(strict.findings) == 3
    lax = run_lint(
        [target],
        LintConfig(
            select=["DEP001"], extra_allowed_imports=("scipy.sparse",)
        ),
    )
    # scipy.sparse and anything below it pass; scipy.stats still fails.
    assert [f.rule_id for f in lax.findings] == ["DEP001"]
    assert "scipy.stats" in lax.findings[0].message


def test_dep001_numpy_lib_format_declared(tmp_path):
    """The default config admits numpy.lib.format (cache artifacts)."""
    target = tmp_path / "uses_npy_format.py"
    target.write_text(
        "from numpy.lib.format import open_memmap\n", encoding="utf-8"
    )
    assert run_lint([target], LintConfig(select=["DEP001"])).findings == []


def test_syntax_error_reported_as_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    result = run_lint([broken], LintConfig())
    assert [f.rule_id for f in result.findings] == ["SYN001"]


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="unknown rule id"):
        run_lint([FIXTURES], LintConfig(select=["NOPE001"]))
