"""Tests for the §7 evolution/re-sampling simulator, the bgpdump
format, and the command-line interface."""

import pytest

from repro import ScenarioConfig
from repro.cli import main, make_parser
from repro.datasets import bgpdump
from repro.datasets.bgpdump import write_path_corpus
from repro.evolution import (
    EvolutionConfig,
    EvolutionSimulator,
    MonthlySample,
    TemporalValidation,
)
from repro.topology.graph import RelType
from tests.corpus_views import routes_with_communities
from tests.reference_route_loops import read_path_corpus


def _evo_config() -> ScenarioConfig:
    config = ScenarioConfig.small(seed=31)
    config.measurement.n_churn_rounds = 1
    return config


class TestTemporalValidation:
    def test_first_sample_counts(self):
        tv = TemporalValidation()
        tv.add_month(0, {(1, 2): RelType.P2P})
        assert tv.unique_samples() == 1

    def test_gap_rule(self):
        tv = TemporalValidation()
        for month in range(6):
            tv.add_month(month, {(1, 2): RelType.P2P})
        # months 0, 3 count with gap 3; six identical monthly samples
        # collapse to two unique ones.
        assert tv.unique_samples(min_gap_months=3) == 2
        assert tv.unique_samples(min_gap_months=1) == 6

    def test_label_change_counts_immediately(self):
        tv = TemporalValidation()
        tv.add_month(0, {(1, 2): RelType.P2P})
        tv.add_month(1, {(1, 2): RelType.P2C})
        assert tv.unique_samples(min_gap_months=12) == 2
        assert tv.changed_links() == [(1, 2)]

    def test_single_snapshot_count(self):
        tv = TemporalValidation()
        tv.add_month(0, {(1, 2): RelType.P2P, (3, 4): RelType.P2C})
        tv.add_month(1, {(1, 2): RelType.P2P})
        assert tv.single_snapshot_count(0) == 2
        assert tv.single_snapshot_count(1) == 1


class TestEvolutionSimulator:
    @pytest.fixture(scope="class")
    def result(self):
        simulator = EvolutionSimulator(
            _evo_config(), EvolutionConfig(months=3)
        )
        return simulator.run()

    def test_monthly_series_lengths(self, result):
        assert len(result.monthly_label_counts) == 3
        assert len(result.monthly_visible_links) == 3

    def test_topology_actually_changes(self, result):
        """Some validated relationships must differ across months."""
        assert result.temporal.unique_samples(min_gap_months=99) >= max(
            result.monthly_label_counts
        )

    def test_oversampling_gain_above_one(self, result):
        """The §7 claim: re-sampling yields more unique data points
        than any single snapshot."""
        gain = result.oversampling_gain(min_gap_months=2)
        assert gain > 1.0

    def test_deterministic(self):
        a = EvolutionSimulator(_evo_config(), EvolutionConfig(months=2)).run()
        b = EvolutionSimulator(_evo_config(), EvolutionConfig(months=2)).run()
        assert a.monthly_label_counts == b.monthly_label_counts


class TestBgpdumpFormat:
    def test_round_trip(self, scenario, tmp_path):
        path = tmp_path / "paths.txt"
        n_written = write_path_corpus(scenario.corpus, path)
        assert n_written == len(scenario.corpus)
        loaded = read_path_corpus(path)
        assert loaded.stats() == scenario.corpus.stats()
        assert sorted(loaded.visible_links()) == sorted(
            scenario.corpus.visible_links()
        )

    def test_communities_preserved(self, scenario, tmp_path):
        path = tmp_path / "paths.txt"
        write_path_corpus(scenario.corpus, path)
        loaded = read_path_corpus(path)
        original = {
            (r.vp, r.origin, r.path): r.communities
            for r in routes_with_communities(scenario.corpus)
        }
        reloaded = {
            (r.vp, r.origin, r.path): r.communities
            for r in routes_with_communities(loaded)
        }
        assert original == reloaded

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")  # no separator
        with pytest.raises(ValueError):
            read_path_corpus(bad)

    @pytest.mark.parametrize("block_routes", [7, 1 << 14])
    def test_read_then_write_is_byte_equal(
        self, scenario, tmp_path, monkeypatch, block_routes
    ):
        """Reading in blocks (7 routes: many boundaries) and writing
        back gives the file's bytes, with repeated routes that straddle
        block boundaries stored once."""
        monkeypatch.setattr(bgpdump, "_BLOCK_ROUTES", block_routes)
        original = tmp_path / "paths.txt"
        write_path_corpus(scenario.corpus, original)
        again = tmp_path / "again.txt"
        write_path_corpus(read_path_corpus(original), again)
        assert again.read_bytes() == original.read_bytes()
        lines = original.read_text().splitlines(keepends=True)
        doubled = tmp_path / "doubled.txt"
        doubled.write_text("".join(lines + lines[1:12] + ["\n"]))
        write_path_corpus(read_path_corpus(doubled), again)
        assert again.read_bytes() == original.read_bytes()

    def test_bad_line_after_several_blocks(
        self, scenario, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(bgpdump, "_BLOCK_ROUTES", 7)
        path = tmp_path / "paths.txt"
        write_path_corpus(scenario.corpus, path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(40, "64500 64501\n")
        path.write_text("".join(lines))
        with pytest.raises(
            ValueError, match=r":41: missing '\|' separator: '64500 64501'$"
        ):
            read_path_corpus(path)


class TestCli:
    def test_parser_covers_commands(self):
        parser = make_parser()
        for command in ("figures", "table", "casestudy", "build", "evolve"):
            args = parser.parse_args(
                [command, "asrank"] if command == "table" else [command]
            )
            assert args.command == command

    def test_table_command(self, capsys):
        code = main([
            "table", "asrank", "--ases", "320", "--vps", "40",
            "--seed", "7", "--churn-rounds", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Total°" in out and "PPV_P" in out

    def test_build_command(self, tmp_path, capsys):
        code = main([
            "build", "--out", str(tmp_path / "artifacts"),
            "--ases", "320", "--vps", "40", "--seed", "7",
            "--churn-rounds", "0",
        ])
        assert code == 0
        out_dir = tmp_path / "artifacts"
        for name in ("as-rel.txt", "as2org.txt", "as-numbers.csv", "paths.txt"):
            assert (out_dir / name).exists()
        assert (out_dir / "delegations").is_dir()

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["table", "magic"])
