"""Scenario corpora shared by the inference differential tests."""

from __future__ import annotations

import pytest

from repro.bgp.collectors import collect_rounds, measurement_setup
from repro.config import ScenarioConfig
from repro.topology.generator import generate_topology


@pytest.fixture(scope="session", params=[3, 5, 11])
def measured(request):
    """(topology, corpus) of the small scenario at seeds 3, 5 and 11."""
    config = ScenarioConfig.small(seed=request.param)
    topology = generate_topology(config)
    vps, communities, strippers = measurement_setup(topology, config)
    corpus = collect_rounds(topology, config, vps, communities, strippers)
    return topology, corpus
