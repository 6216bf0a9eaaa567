"""CLI wiring for the service: ``python -m repro``, ``repro serve``,
``repro cache list --json``, and the shared worker-count helper."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.datasets.asrel import RelationshipSet
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.parallel import MAX_WORKERS, resolve_workers

REPO_ROOT = Path(__file__).resolve().parents[2]


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


# ---------------------------------------------------------------------------
# python -m repro
# ---------------------------------------------------------------------------

def test_python_dash_m_repro_works():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "serve" in result.stdout
    assert "cache" in result.stdout


# ---------------------------------------------------------------------------
# repro cache list --json
# ---------------------------------------------------------------------------

def test_cache_list_json_empty(tmp_path, capsys):
    rc = cli.main(["cache", "list", "--json", "--cache-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "root": str(tmp_path),
        "total_size_bytes": 0,
        "entries": [],
    }


def test_cache_list_json_enumerates_entries(tmp_path, capsys):
    from repro.config import ScenarioConfig

    cache = ArtifactCache(root=tmp_path)
    config = ScenarioConfig.small(seed=7)
    rels = RelationshipSet()
    rels.set_p2c(10, 20)
    rels.set_p2p(10, 30)
    key = cache.scenario_key(config)
    cache.store_rels(key, "asrank", rels, config)

    rc = cli.main(["cache", "list", "--json", "--cache-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["root"] == str(tmp_path)
    assert payload["total_size_bytes"] > 0
    (entry,) = payload["entries"]
    assert entry["key"] == key
    assert entry["seed"] == 7
    assert entry["n_ases"] == 320
    assert "rels-asrank.asrel" in entry["files"]


def test_cache_list_surfaces_locks_and_stragglers(tmp_path, capsys):
    from repro.config import ScenarioConfig

    cache = ArtifactCache(root=tmp_path)
    config = ScenarioConfig.small(seed=7)
    rels = RelationshipSet()
    rels.set_p2c(10, 20)
    key = cache.scenario_key(config)
    cache.store_rels(key, "asrank", rels, config)
    (tmp_path / key / "corpus.npc.4242.0.tmp").write_text("torn write")

    with cache.entry_lock(key):
        rc = cli.main(
            ["cache", "list", "--json", "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert entry["locked"] is True
        assert entry["stragglers"] == 1

        rc = cli.main(["cache", "list", "--cache-dir", str(tmp_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[locked]" in text
        assert "tmp straggler" in text

    rc = cli.main(["cache", "list", "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "[locked]" not in capsys.readouterr().out


def test_cache_path_json(tmp_path, capsys):
    rc = cli.main(["cache", "path", "--json", "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"root": str(tmp_path)}


# ---------------------------------------------------------------------------
# shared worker-count normalisation
# ---------------------------------------------------------------------------

def test_resolve_workers_contract(monkeypatch):
    assert resolve_workers(0) == 0            # serial
    assert resolve_workers(3) == 3            # literal
    assert resolve_workers(-1) >= 1           # CPU count
    assert resolve_workers(None) == resolve_workers(-1)
    assert resolve_workers(MAX_WORKERS) == MAX_WORKERS == 256
    for absurd in (MAX_WORKERS + 1, 100000):
        with pytest.raises(ValueError, match="absurd"):
            resolve_workers(absurd)
    # Auto-sizing counts the cores this process may run on, not the
    # host's.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers(-1) == resolve_workers(None) == 2
    # Platforms without an affinity API fall back to the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_workers(-1) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers(-1) == 1


@pytest.mark.parametrize("command", [
    ["figures", "--ases", "200", "--vps", "20"],
    ["serve", "--port", "0"],
])
def test_absurd_workers_rejected_before_building(command, capsys):
    rc = cli.main(command + ["--workers", "100000"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --workers 100000 is absurd (maximum 256)\n"
    )


def test_serve_parser_defaults():
    parser = cli.make_parser()
    args = parser.parse_args(["serve", "--port", "0", "--workers", "-1"])
    assert args.func is cli.cmd_serve
    assert args.host == "127.0.0.1"
    assert args.pool_size == 4
    assert args.workers == -1
    # cmd_serve hands the raw value to the one shared helper.
    assert resolve_workers(args.workers) >= 1


# ---------------------------------------------------------------------------
# repro serve subprocess smoke (mirrors the CI step)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_serve_subprocess_smoke():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--pool-size", "1"],
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        match = re.search(r"listening on http://[^:]+:(\d+)$", line)
        assert match, f"unexpected banner: {line!r}"
        port = int(match.group(1))

        from repro.service.client import ServiceClient

        with ServiceClient(port=port, timeout=120) as client:
            assert client.healthz()["status"] == "ok"
            built = client.build_scenario(preset="small", seed=7)
            as1, as2 = built["sample_links"][0]
            record = client.rel("asrank", as1, as2)
            assert record["relationship"] in {"p2p", "p2c", "s2s", None}
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0


# ---------------------------------------------------------------------------
# repro loadgen
# ---------------------------------------------------------------------------

def test_loadgen_cli_prints_json_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    from repro.service import ReproService, serve_in_thread

    monkeypatch.chdir(tmp_path)
    with serve_in_thread(ReproService(pool_size=1)) as live:
        rc = cli.main([
            "loadgen", "--port", str(live.port),
            "--duration", "0.5", "--concurrency", "2",
        ])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["total_requests"] > 0
    assert result["errors"] == 0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# repro corpus stats
# ---------------------------------------------------------------------------

def test_corpus_stats_json(capsys):
    rc = cli.main([
        "corpus", "stats", "--json", "--ases", "150", "--vps", "15",
        "--seed", "7", "--churn-rounds", "0",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload["stats"]
    assert stats["n_routes"] > 0
    assert 0 < stats["n_vps"] <= 15
    # Intern-table sizes agree with the corpus counters.
    intern = payload["intern_tables"]
    assert intern["n_links"] == stats["n_visible_links"]
    assert intern["n_ases"] == stats["n_visible_ases"]
    assert intern["n_triplets"] == stats["n_triplets"]
    assert intern["n_link_vp_pairs"] >= intern["n_links"]
    memory = payload["memory"]
    assert memory["layout"] == "columnar"
    assert memory["total_bytes"] > 0
    assert memory["total_bytes"] == (
        sum(memory["columns_bytes"].values())
        + sum(memory["index_bytes"].values())
    )


def test_corpus_stats_text(capsys):
    rc = cli.main([
        "corpus", "stats", "--ases", "150", "--vps", "15",
        "--seed", "7", "--churn-rounds", "0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "visible links" in out
    assert "layout: columnar" in out
    assert "columnar memory" in out
