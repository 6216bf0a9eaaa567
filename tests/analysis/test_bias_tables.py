"""Tests for the bias profiles (Fig 1-2) and validation tables (Tab 1-3)."""

import numpy as np
import pytest

from repro.analysis.bias import bias_profile
from repro.analysis.metrics import CODE_P2C, CODE_P2P
from repro.analysis.tables import CellColour, tabulate


class TestCellColour:
    def test_thresholds_match_paper(self):
        assert CellColour.grade(0.99, 0.98) is CellColour.GREEN
        assert CellColour.grade(0.98, 0.98) is CellColour.NEUTRAL
        assert CellColour.grade(0.969, 0.98) is CellColour.YELLOW
        assert CellColour.grade(0.92, 0.98) is CellColour.ORANGE
        assert CellColour.grade(0.85, 0.98) is CellColour.RED

    def test_marks_distinct(self):
        marks = {colour.mark() for colour in CellColour}
        assert len(marks) == len(CellColour)


class TestBiasProfile:
    def test_shares_sum_to_one(self, scenario):
        profile = scenario.regional_bias()
        assert sum(c.share for c in profile.classes) == pytest.approx(1.0)

    def test_sorted_by_share(self, scenario):
        profile = scenario.regional_bias()
        shares = [c.share for c in profile.classes]
        assert shares == sorted(shares, reverse=True)

    def test_coverage_bounds(self, scenario):
        for profile in (scenario.regional_bias(), scenario.topological_bias()):
            for c in profile.classes:
                assert 0.0 <= c.coverage <= 1.0
                assert c.n_validated <= c.n_links

    def test_by_name(self, scenario):
        profile = scenario.topological_bias()
        by_name = profile.by_name()
        assert "S-TR" in by_name
        assert by_name["S-TR"].n_links == max(c.n_links for c in profile.classes)

    def test_coverage_spread_positive(self, scenario):
        """The paper's point: coverage is wildly uneven across classes."""
        assert scenario.regional_bias().coverage_spread() > 0.2
        assert scenario.topological_bias().coverage_spread() > 0.2

    def test_classifier_none_links_dropped(self, scenario):
        profile = bias_profile(
            scenario.inferred_links(),
            lambda key: None,
            scenario.validation,
        )
        assert profile.classes == []

    def test_mismatch_classes_detects_lacnic(self, scenario):
        """L° holds a real share of links but (almost) no validation."""
        mismatches = scenario.regional_bias().mismatch_classes(
            min_share=0.03, max_coverage=0.02
        )
        assert any(c.class_name == "L°" for c in mismatches)


class TestValidationTable:
    @pytest.fixture(scope="class")
    def table(self, scenario):
        return scenario.validation_table("asrank")

    def test_total_row(self, table):
        assert table.total.class_name == "Total°"
        assert table.total.n_validated > 100

    def test_rows_have_colours(self, table):
        assert table.rows
        for row in table.rows:
            assert isinstance(row.colour_mcc, CellColour)

    def test_min_class_links_respected(self, scenario):
        table = scenario.validation_table("asrank", min_class_links=10**9)
        assert table.rows == []

    def test_row_lookup(self, table):
        name = table.rows[0].metrics.class_name
        assert table.row(name) is table.rows[0]
        assert table.row("NOPE") is None
        assert table.metrics("Total°") is table.total

    def test_worst_p2p_classes(self, table):
        worst = table.worst_p2p_classes(3)
        assert len(worst) <= 3
        values = [m.ppv_p2p for m in worst]
        assert values == sorted(values)

    def test_lc_counts_stable_across_algorithms(self, scenario):
        """Tables 1-3 share the same validated link counts per class
        because the classes come from one (ASRank-based) topology view."""
        t_asrank = scenario.validation_table("asrank")
        t_gao = scenario.validation_table("gao")
        for row in t_asrank.rows:
            other = t_gao.row(row.metrics.class_name)
            if other is None:
                continue
            assert other.metrics.n_validated == row.metrics.n_validated


class TestTabulate:
    """Tables from hand-made link codes: the min-class cut, the colour
    grades against Total° and the paper's row order."""

    CLASS_NAMES = ["T1-TR", "AP°", "R°", "ZZ", "L°"]
    P, C = CODE_P2P, CODE_P2C
    # (class code, truth, predicted) per link; -1 is in no class.
    LINKS = (
        [(2, C, C)] * 2 + [(2, P, P)] * 2      # R°: all correct
        + [(1, P, P)] * 2 + [(1, C, P)] * 2    # AP°: two false P2P
        + [(0, P, P)]                          # T1-TR: one link
        + [(3, P, P)] + [(3, C, C)] * 2        # ZZ: outside the paper order
        + [(-1, C, C)]                         # counted in Total° only
    )

    def _table(self, min_class_links):
        group, truth, predicted = (
            np.array(column, dtype=np.int8) for column in zip(*self.LINKS)
        )
        return tabulate(
            "x",
            self.CLASS_NAMES,
            [group.astype(np.int64)],
            truth,
            predicted,
            min_class_links=min_class_links,
        )

    def test_total_counts_every_link(self):
        total = self._table(2).total
        assert total.class_name == "Total°"
        assert (total.n_p2p, total.n_p2c) == (6, 7)
        assert total.ppv_p2p == pytest.approx(0.75)

    def test_min_class_cut(self):
        names = [row.metrics.class_name for row in self._table(2).rows]
        assert "T1-TR" not in names
        assert "T1-TR" in [r.metrics.class_name for r in self._table(0).rows]

    def test_paper_row_order_then_unknown_classes(self):
        names = [row.metrics.class_name for row in self._table(0).rows]
        # L° has no links, so it has no row even without a cut.
        assert names == ["AP°", "R°", "T1-TR", "ZZ"]

    def test_colours_relative_to_total(self):
        table = self._table(2)
        assert table.row("R°").colour_ppv_p2p is CellColour.GREEN
        assert table.row("AP°").colour_ppv_p2p is CellColour.RED
        assert table.row("AP°").colour_tpr_p2p is CellColour.NEUTRAL
