"""noqa parsing, suppression accounting, unused-marker detection."""

from pathlib import Path

from repro.devtools import LintConfig, run_lint
from repro.devtools import suppressions
from repro.devtools.suppressions import (
    UNUSED_SUPPRESSION_ID,
    SuppressionIndex,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_bare_noqa_suppresses_everything():
    index = SuppressionIndex.from_source("x = 1  # repro: noqa\n")
    assert index.suppresses(1, "DET001")
    assert index.suppresses(1, "ASYNC002")
    assert index.unused() == []


def test_scoped_noqa_suppresses_only_named_rules():
    index = SuppressionIndex.from_source(
        "x = 1  # repro: noqa[DET001,ASYNC001]\n"
    )
    assert index.suppresses(1, "DET001")
    assert index.suppresses(1, "ASYNC001")
    assert not index.suppresses(1, "DET002")
    assert not index.suppresses(2, "DET001")


def test_sup001_is_never_suppressable():
    index = SuppressionIndex.from_source("x = 1  # repro: noqa\n")
    assert not index.suppresses(1, UNUSED_SUPPRESSION_ID)


def test_marker_inside_string_is_not_a_suppression():
    index = SuppressionIndex.from_source(
        's = "text with # repro: noqa inside"\n'
    )
    assert not index.suppresses(1, "DET001")


def test_mixed_fixture_used_and_unused_markers():
    result = run_lint(
        [FIXTURES / "suppression_mixed.py"],
        LintConfig(select=["DET002"]),
    )
    # The DET002 finding is absorbed; the stale marker surfaces.
    assert [f.rule_id for f in result.findings] == [UNUSED_SUPPRESSION_ID]
    assert result.suppressed == 1
    assert "matches no finding" in result.findings[0].message


def test_unused_marker_reports_line_of_the_comment(tmp_path):
    target = tmp_path / "stale.py"
    target.write_text(
        "VALUE = 1\n"
        "OTHER = 2  # repro: noqa[DET001]\n",
        encoding="utf-8",
    )
    result = run_lint([target], LintConfig())
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding.rule_id == UNUSED_SUPPRESSION_ID
    assert finding.line == 2


def test_case_insensitive_rule_ids_in_marker(tmp_path):
    target = tmp_path / "lower.py"
    target.write_text(
        "import json\n"
        "def emit(v):\n"
        "    return json.dumps(set(v))  # repro: noqa[det002]\n",
        encoding="utf-8",
    )
    result = run_lint([target], LintConfig(select=["DET002"]))
    assert result.findings == []
    assert result.suppressed == 1


def test_sources_without_a_marker_give_no_markers(monkeypatch):
    # The only "noqa" sits in a string literal: tokenized, no marker.
    in_string = SuppressionIndex.from_source(
        's = "# repro: noqa[DET001]"  # a plain comment\n')
    assert in_string.markers() == []
    assert in_string.unused() == []

    # No "noqa" anywhere: answered without tokenizing.
    def no_tokenize(*args, **kwargs):
        raise AssertionError("tokenized a source with no noqa")

    monkeypatch.setattr(suppressions.tokenize, "generate_tokens",
                        no_tokenize)
    none = SuppressionIndex.from_source("x = 1  # a plain comment\n")
    assert none.markers() == []
    assert none.unused() == []


def test_markers_round_trip():
    index = SuppressionIndex.from_source(
        "a = 1  # repro: noqa\n"
        "b = 2  # repro: noqa[det002, DET001]\n"
        "c = 3  # repro: noqa[]\n"
    )
    rows = index.markers()
    assert rows == [[1, 8, None], [2, 8, "DET001,DET002"], [3, 8, ""]]
    rebuilt = SuppressionIndex.from_markers(rows)
    assert rebuilt.markers() == rows
    assert rebuilt.suppresses(2, "DET002")
    assert not rebuilt.suppresses(3, "DET002")
    assert [marker.line for marker in rebuilt.unused()] == [1, 3]
