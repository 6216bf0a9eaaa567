"""The served link records vs a reference built from the public API.

``ScenarioView.batch_payloads`` (one lookup per pair in the records
built with the index) must be indistinguishable on the wire from
:class:`~tests.service.reference_batch.ReferenceRecords`, which reads
``Scenario``'s public API only: same records, same order, same
``n_unknown``, same serialised bytes — across seeds, shuffled/reversed
pairs, unknown links, negative and oversized ASNs, and the self-loop
error contract.  ``ScenarioView.point_payload`` must give every visible
link's reference record without ``visible``, in either orientation,
and ``None`` for the rest.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.config import ScenarioConfig
from repro.scenario import build_scenario
from repro.service.http import json_response
from repro.service.query import ScenarioView
from tests.service.reference_batch import ReferenceRecords

pytestmark = pytest.mark.differential

SEEDS = (3, 5, 11)


@pytest.fixture(scope="module", params=SEEDS)
def view(request):
    built = ScenarioView(
        build_scenario(ScenarioConfig.small(seed=request.param))
    )
    built.build_rel_index("asrank")
    return built


@pytest.fixture(scope="module")
def reference(view):
    return ReferenceRecords(view.scenario, "asrank")


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


def test_batch_matches_perkey_bytes(view, reference):
    pairs = _mixed_pairs(view, seed=0)
    resolved, resolved_unknown = view.batch_payloads("asrank", pairs)
    oracle, oracle_unknown = reference.batch(pairs)
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


def test_batch_unknown_only(view, reference):
    pairs = [[987_654, 321], [5, 999_888_777]]
    resolved, n_unknown = view.batch_payloads("asrank", pairs)
    oracle, oracle_unknown = reference.batch(pairs)
    assert n_unknown == oracle_unknown == 2
    assert json.dumps(resolved, sort_keys=True) == json.dumps(
        oracle, sort_keys=True
    )
    assert all(not record["visible"] for record in resolved)


def test_batch_empty(view, reference):
    assert view.batch_payloads("asrank", []) == ([], 0)
    assert reference.batch([]) == ([], 0)


def test_batch_huge_int(view, reference):
    # ASNs beyond int64 are plain unknown links, as on the per-key walk.
    pairs = [[2**70, 3], list(view.scenario.corpus.visible_links()[0])]
    resolved, n_unknown = view.batch_payloads("asrank", pairs)
    oracle, oracle_unknown = reference.batch(pairs)
    assert n_unknown == oracle_unknown == 1
    assert json.dumps(resolved, sort_keys=True) == json.dumps(
        oracle, sort_keys=True
    )


def test_batch_self_loop_raises_like_perkey(view, reference):
    with pytest.raises(ValueError, match="self-loop link at AS5"):
        view.batch_payloads("asrank", [[5, 5]])
    with pytest.raises(ValueError, match="self-loop link at AS5"):
        reference.batch([[5, 5]])


def test_batch_ragged_pair_raises_like_perkey(view, reference):
    # The HTTP handler rejects these first; in process both walks fail
    # on unpacking the same way.
    with pytest.raises(ValueError, match="too many values"):
        view.batch_payloads("asrank", [[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError, match="too many values"):
        reference.batch([[1, 2], [1, 2, 3]])


def test_point_records_match_reference(view, reference):
    scenario_id = "deadbeef0000"
    for a, b in view.scenario.corpus.visible_links():
        want = dict(reference.record(a, b), scenario=scenario_id)
        del want["visible"]
        for pair in ((a, b), (b, a)):
            got = view.point_payload("asrank", *pair, scenario_id)
            assert json_response(200, got) == json_response(200, want)
    visible = set(view.scenario.corpus.visible_links())
    absent = [
        pair for pair in _mixed_pairs(view, seed=0) + [[2**70, 3]]
        if (min(pair), max(pair)) not in visible
    ]
    assert len(absent) == 8
    for a, b in absent:
        assert view.point_payload("asrank", a, b, scenario_id) is None
    # The point copies left the shared records as :batch serves them.
    pairs = [list(key) for key in visible]
    assert view.batch_payloads("asrank", pairs) == reference.batch(pairs)
