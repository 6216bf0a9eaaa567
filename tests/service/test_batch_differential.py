"""The ``:batch`` resolver vs the per-key reference, byte for byte.

``ScenarioView.batch_payloads`` (one lookup per pair in the records
prebuilt at index time) must be indistinguishable on the wire from
``batch_payloads_perkey`` (the per-key walk that builds every record
afresh, kept in :mod:`tests.service.reference_batch`): same records,
same order, same ``n_unknown``, same serialised bytes — across seeds,
shuffled/reversed pairs, unknown links, negative and oversized ASNs,
and the self-loop error contract.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.config import ScenarioConfig
from repro.scenario import build_scenario
from repro.service.http import json_response
from repro.service.query import ScenarioView
from tests.service.reference_batch import batch_payloads_perkey

pytestmark = pytest.mark.differential

SEEDS = (3, 5, 11)


@pytest.fixture(scope="module", params=SEEDS)
def view(request):
    built = ScenarioView(
        build_scenario(ScenarioConfig.small(seed=request.param))
    )
    built.build_rel_index("asrank")
    return built


def _mixed_pairs(view: ScenarioView, seed: int) -> list:
    rng = random.Random(seed)
    visible = view.scenario.corpus.visible_links()
    known = [list(key) for key in rng.sample(visible, min(64, len(visible)))]
    reversed_known = [[b, a] for a, b in known[:16]]
    unknown = [
        [999_999, 1],
        [1, 2_000_000],
        [0, 4_294_967_295],
        [-3, 7],
        [-1, -2],
        [2**40, 2],
        [4_294_967_296, 12],
    ]
    pairs = known + reversed_known + unknown
    rng.shuffle(pairs)
    return pairs


def test_batch_matches_perkey_bytes(view):
    pairs = _mixed_pairs(view, seed=0)
    resolved, resolved_unknown = view.batch_payloads("asrank", pairs)
    oracle, oracle_unknown = batch_payloads_perkey(view, "asrank", pairs)
    assert resolved_unknown == oracle_unknown
    # Full response envelopes, serialised exactly as the server does.
    envelope = {
        "scenario": "deadbeef0000",
        "algorithm": "asrank",
        "count": len(pairs),
        "n_unknown": resolved_unknown,
        "results": resolved,
    }
    oracle_envelope = dict(envelope, n_unknown=oracle_unknown,
                           results=oracle)
    assert json_response(200, envelope) == json_response(
        200, oracle_envelope
    )


def test_batch_unknown_only(view):
    pairs = [[987_654, 321], [5, 999_888_777]]
    resolved, n_unknown = view.batch_payloads("asrank", pairs)
    oracle, oracle_unknown = batch_payloads_perkey(view, "asrank", pairs)
    assert n_unknown == oracle_unknown == 2
    assert json.dumps(resolved, sort_keys=True) == json.dumps(
        oracle, sort_keys=True
    )
    assert all(not record["visible"] for record in resolved)


def test_batch_empty(view):
    assert view.batch_payloads("asrank", []) == ([], 0)
    assert batch_payloads_perkey(view, "asrank", []) == ([], 0)


def test_batch_huge_int(view):
    # ASNs beyond int64 are plain unknown links, as on the per-key walk.
    pairs = [[2**70, 3], list(view.scenario.corpus.visible_links()[0])]
    resolved, n_unknown = view.batch_payloads("asrank", pairs)
    oracle, oracle_unknown = batch_payloads_perkey(view, "asrank", pairs)
    assert n_unknown == oracle_unknown == 1
    assert json.dumps(resolved, sort_keys=True) == json.dumps(
        oracle, sort_keys=True
    )


def test_batch_self_loop_raises_like_perkey(view):
    with pytest.raises(ValueError, match="self-loop link at AS5"):
        view.batch_payloads("asrank", [[5, 5]])
    with pytest.raises(ValueError, match="self-loop link at AS5"):
        batch_payloads_perkey(view, "asrank", [[5, 5]])


def test_batch_ragged_pair_raises_like_perkey(view):
    # The HTTP handler rejects these first; in process both walks fail
    # on unpacking the same way.
    with pytest.raises(ValueError, match="too many values"):
        view.batch_payloads("asrank", [[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError, match="too many values"):
        batch_payloads_perkey(view, "asrank", [[1, 2], [1, 2, 3]])
