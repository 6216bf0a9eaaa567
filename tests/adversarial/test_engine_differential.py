"""Polluted-corpus pins and joint-route differential, plus the
no-attack byte regression.

* across 8 seeds × {hijack, leak, RPKI-partial, ASPA-partial}, the
  polluted corpus artifacts match sha256 digests pinned from the tree
  where the dict engine still shipped and both engines gave these
  bytes;
* on the same matrix, every planned event's joint two-source routes
  equal the test-only reference engine's AS-for-AS, provenance
  included;
* with no ``AttackConfig``, the clean seed-7 small-scenario artifacts
  (fingerprint, cache key, corpus.npc bytes, per-algorithm as-rel
  bytes) are unchanged from the pre-adversarial tree.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ScenarioConfig, small_scenario
from repro.adversarial.attacks import event_blocked_set, plan_events
from repro.adversarial.policies import resolve_deployments
from repro.bgp.collectors import collect_rounds, measurement_setup
from repro.bgp.propagation import PropagationPlane, compute_attack_routes
from repro.config import AdversarialConfig
from repro.pipeline.cache import ArtifactCache
from repro.topology.generator import generate_topology
from tests.bgp import reference_engine
from tests.bgp.reference_adjacency import AdjacencyIndex
from tests.bgp.reference_engine import as_tree

SEEDS = (3, 5, 7, 11, 13, 17, 19, 23)

#: One adversarial layer per matrix column.
VARIANTS = {
    "hijack": {
        "attack": {"n_origin_hijacks": 2, "n_forged_origin_hijacks": 2},
    },
    "leak": {
        "attack": {"n_route_leaks": 3},
        "deployments": [
            {"policy": "leak_prone", "strategy": "random", "fraction": 0.5},
        ],
    },
    "rpki_partial": {
        "attack": {"n_origin_hijacks": 3},
        "deployments": [
            {"policy": "rpki", "strategy": "top_cone", "top_n": 20},
        ],
    },
    "aspa_partial": {
        "attack": {"n_forged_origin_hijacks": 2, "n_route_leaks": 2},
        "deployments": [
            {"policy": "aspa", "strategy": "random", "fraction": 0.4},
        ],
    },
}

# sha256 of each polluted corpus.npc, per seed and variant.
POLLUTED_SHA256 = {
    3: {
        "aspa_partial": "34fcb35498fa8852501e2461d27912f34da2018cba57ea538fadc8b4971050db",
        "hijack": "7264e3cebadeaddd864ea6f36202537cfbab2f7c662a963f0b4cf4895c6716f1",
        "leak": "34fcb35498fa8852501e2461d27912f34da2018cba57ea538fadc8b4971050db",
        "rpki_partial": "34fcb35498fa8852501e2461d27912f34da2018cba57ea538fadc8b4971050db",
    },
    5: {
        "aspa_partial": "4d13ce7f11ae3ff229b655ec31c85357140aa8ce1cbaa91842a47b4ad3d531c6",
        "hijack": "abbfa8f635a67749823139652f678579e88936e700bf52f08e28ade887980d83",
        "leak": "8d3a17cfc93ac0c8a2655082c404c63f656588345c3c1ff56d1d9ea1d40fc52c",
        "rpki_partial": "5cf3420b863c695b458dbcf09496f5fec4453edfa9f81532e84a5219eb9ed67a",
    },
    7: {
        "aspa_partial": "f9a8bfd28211409cafccdfef570c2928cad8d3fd5c5209b039ad62cbb82f765c",
        "hijack": "f8e3899ae150d13caa27e9fb85d02fbef9fb9b444322b75b97f8194dc7a53a65",
        "leak": "991c08fc2ec7ab2efa136233ff907b661d6de112e40df0bdda8f3ce2ce6ef52b",
        "rpki_partial": "dd69bfa53138cbf43c3fb63f6c0c354cff6be623b3292d8462558959a2ea692e",
    },
    11: {
        "aspa_partial": "755a8952973a77331ab76f621c267760158eebb262cae837490181b2c2516be5",
        "hijack": "3ba525162fc431a57c1e54e86cc29b665bb5d0493aed3b6811bcc39fcd5475d1",
        "leak": "514b71c6fd56b4152a248d9e3ab66e84fe3506ad1e5923b0889af9d63b8b7091",
        "rpki_partial": "4ef8e676a97c376f6203c774c7b991c133fcc128247a9a40bc27d074bd06e184",
    },
    13: {
        "aspa_partial": "2ecaad4fdfb5e2651de5e6c4f32f82eeb66c2ccf60763435f4cd75390fe97bd0",
        "hijack": "0b76b697f54aecd66a757a9569f8a0768678062392c4715a1990c757b308701e",
        "leak": "fcb72af262b6aeb3d5a70004393987dd8119d53fa8bc9da22e49fcf3b028e907",
        "rpki_partial": "9b7bf6aadc12436e68150b394ab480053b3826032642e99560aa5cc9f295920f",
    },
    17: {
        "aspa_partial": "4fb8464d2224ed6565ed2065cf51a5a395540236d4a5db8792ec3b05537bc290",
        "hijack": "e2c2a88e1f6f0338e3eaa51cba744cc6cfead1bd602d022858e470eb870f7920",
        "leak": "d9086e85e387d28a3c5e80c0e5742f088882e52bdb479aa6c482946618deffcf",
        "rpki_partial": "34151f058b4b1464c01baf451ad10dc858a214fb546bb3bf4b783dedf495fca1",
    },
    19: {
        "aspa_partial": "158a1e50c7a6b1af3de7de4684a69ee5f1f0081b048ac1145d1cb14dfd973a73",
        "hijack": "dc3a84794ffdada5ba3ee05be895bcf4ed7e41a0d2e72ee32c43a65199bc4058",
        "leak": "cf30f82f44f4e94e811aaf6ef84f3b88ec32649efb32ee106cc1f6917910d5e9",
        "rpki_partial": "edcdc8d3ec1c9f72feb193257a35c9dbeba0061f456f390d483ae9d2ef9e9f41",
    },
    23: {
        "aspa_partial": "70ab28f39c000a803d16346a6d0f2996d3a1b1a316287fd0f060b71b9265b40f",
        "hijack": "95824bfa53b87ad3fa20ee649a170f46b0b22e4b5a6eec00a343183f2940ba15",
        "leak": "a5fe8323d036621717c64d43938699ddca2ca385653148f7c0a8698758348c33",
        "rpki_partial": "80ce31d178e95785f62117c26d2757e5f6143ea1c3c35b4b36381cfc0398a51c",
    },
}

# Clean seed-7 small-scenario artifact digests captured before the
# adversarial subsystem landed (PR 6 tree).  The no-attack regression
# below recomputes them from scratch; any drift means honest scenarios
# are no longer byte-stable.
CLEAN_FINGERPRINT = (
    "4612308419b8c9ca425897c7be9c3c388ff81d13e8794eeca764c8f89a0e7046"
)
CLEAN_CACHE_KEY = "14ee6390dead69251d94"
CLEAN_SHA256 = {
    "corpus": "92603a8e8de9c49c12657354de7e22902bfe711cc79c8eb8519d9cfb65d7edf7",
    "asrank": "7c657d28c9e8900a3572caa8f5cc433a6b3c3b021d99b3a81b91b052b0a8a1e3",
    "problink": "1af749ccab5ece9775db63283fef90b8130235e09db6135593b0dc2a385f3997",
    "toposcope": "4dad136af29ab8c322c704ce9130f1bbd7e0dfec1c1658063b92a1b40006c690",
}


def _base_config(seed: int) -> ScenarioConfig:
    """A fast differential scenario: ~140 ASes, no churn."""
    config = ScenarioConfig.small(seed=seed)
    config.topology.n_ases = 140
    config.measurement.n_vantage_points = 25
    config.measurement.n_churn_rounds = 0
    return config


def _corpus_digest(topology, config, setup, cache_root) -> str:
    vps, communities, strippers = setup
    corpus = collect_rounds(
        topology, config, vps, communities, strippers
    )
    cache = ArtifactCache(cache_root)
    path = cache.store_corpus(cache.scenario_key(config), corpus, config)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_polluted_corpora_match_pinned_digests(seed, tmp_path):
    clean_config = _base_config(seed)
    topology = generate_topology(clean_config)
    setup = measurement_setup(topology, clean_config)
    digests = {}
    for variant in sorted(VARIANTS):
        config = clean_config.replace(
            adversarial=AdversarialConfig.from_dict(VARIANTS[variant])
        )
        # The matrix is vacuous unless the plan actually fires events.
        assert plan_events(topology, config), (seed, variant)
        digests[variant] = _corpus_digest(
            topology, config, setup, tmp_path / variant
        )
    assert digests == POLLUTED_SHA256[seed], f"seed={seed}"
    clean_digest = _corpus_digest(
        topology, clean_config, setup, tmp_path / "clean"
    )
    assert set(digests.values()) - {clean_digest}, (
        f"no variant changed the corpus at seed={seed} — pollution "
        "never reached a collector"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_joint_routes_match_reference_engine(seed):
    """Every planned event's joint routes equal the reference's."""
    clean_config = _base_config(seed)
    topology = generate_topology(clean_config)
    plane = PropagationPlane(topology.graph)
    adjacency = AdjacencyIndex(topology.graph)
    for variant in sorted(VARIANTS):
        config = clean_config.replace(
            adversarial=AdversarialConfig.from_dict(VARIANTS[variant])
        )
        deployments = resolve_deployments(
            config.adversarial, topology, config.seed
        )
        for event in plan_events(topology, config, plane):
            blocked = event_blocked_set(event, deployments)
            args = (event.victim, event.attacker, event.claim_dist)
            vec = as_tree(compute_attack_routes(plane, *args, blocked))
            ref = reference_engine.compute_attack_tree(
                adjacency, *args, blocked
            )
            assert (vec.pref, vec.dist, vec.parent, vec.restricted,
                    vec.src) == (ref.pref, ref.dist, ref.parent,
                                 ref.restricted, ref.src), (
                seed, variant, event,
            )


def test_clean_seed7_artifacts_unchanged_from_pr6(tmp_path):
    """Honest scenarios are byte-identical to the pre-adversarial tree."""
    scenario = small_scenario(seed=7)
    config = scenario.config
    assert config.adversarial is None
    assert config.fingerprint() == CLEAN_FINGERPRINT
    cache = ArtifactCache(tmp_path)
    key = cache.scenario_key(config)
    assert key == CLEAN_CACHE_KEY
    path = cache.store_corpus(key, scenario.corpus, config)
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == CLEAN_SHA256["corpus"]
    )
    for algorithm in ("asrank", "problink", "toposcope"):
        rels_path = cache.store_rels(
            key, algorithm, scenario.infer(algorithm), config
        )
        assert (
            hashlib.sha256(rels_path.read_bytes()).hexdigest()
            == CLEAN_SHA256[algorithm]
        ), f"{algorithm} as-rel bytes drifted from the PR 6 baseline"


def test_adversarial_layer_changes_fingerprint_and_cache_key(tmp_path):
    clean = _base_config(3)
    polluted = clean.replace(
        adversarial=AdversarialConfig.from_dict(VARIANTS["hijack"])
    )
    assert clean.fingerprint() != polluted.fingerprint()
    cache = ArtifactCache(tmp_path)
    assert cache.scenario_key(clean) != cache.scenario_key(polluted)
    # Two structurally equal adversarial layers fingerprint identically.
    again = clean.replace(
        adversarial=AdversarialConfig.from_dict(VARIANTS["hijack"])
    )
    assert again.fingerprint() == polluted.fingerprint()
