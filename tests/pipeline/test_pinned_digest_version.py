"""The pinned artifact digests are tied to the pipeline cache version.

The artifact cache keys its entries by ``PIPELINE_CACHE_VERSION``.  A
change that moves corpus or as-rel bytes without bumping it lets a warm
build serve the old bytes while a cold build makes the new ones.  This
test hashes every pinned digest table of the differential suite and
compares the hash with the one recorded for the current cache version,
so re-recording a pinned digest fails here until the change either
bumps the version or records why the old cache entries stay valid.
"""

import hashlib
import json

from repro.pipeline.cache import PIPELINE_CACHE_VERSION
from tests.adversarial.test_engine_differential import (
    CLEAN_CACHE_KEY,
    CLEAN_SHA256,
    POLLUTED_SHA256,
)
from tests.bgp.test_propagation_differential import SCENARIO_SHA256
from tests.pipeline.test_columnar_equivalence import PINNED_SHA256

#: sha256 of the pinned digest tables, per ``PIPELINE_CACHE_VERSION``
#: they were recorded under.
PINNED_TABLES_SHA256 = {
    "2": "c8aecb623cc98e57fa1c15e016fcd99217c814630f48f90b386ceca6314a8c87",
}


def pinned_tables_sha256() -> str:
    tables = {
        "PINNED_SHA256": PINNED_SHA256,
        "SCENARIO_SHA256": SCENARIO_SHA256,
        "CLEAN_SHA256": CLEAN_SHA256,
        "POLLUTED_SHA256": POLLUTED_SHA256,
        "CLEAN_CACHE_KEY": CLEAN_CACHE_KEY,
    }
    payload = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_pinned_digests_match_the_cache_version():
    got = pinned_tables_sha256()
    assert PINNED_TABLES_SHA256.get(PIPELINE_CACHE_VERSION) == got, (
        f"the pinned digest tables hash to {got}, which is not the hash "
        f"recorded for PIPELINE_CACHE_VERSION={PIPELINE_CACHE_VERSION!r}. "
        "Artifact bytes moved: bump PIPELINE_CACHE_VERSION in "
        "repro/pipeline/cache.py so warm caches miss, and record "
        "{new_version: hash} in PINNED_TABLES_SHA256."
    )
