"""Differential proof for the as-rel reader.

``read_asrel`` fills a :class:`RelationshipSet`'s table in place and
``RelType.from_code`` is a table lookup; ``read_asrel_reference`` below
is the reader as it was (one ``set_p2c``/``set_p2p``/``set_s2s`` call
per line), kept verbatim, and ``from_code_reference`` the loop over the
enum.  Both readers must give equal ``items()`` on the artifact-cache
as-rel files of scenario seeds 3/5/11 and on hand files (comments,
blank lines, padding, siblings, a link given twice), and raise the same
error, message included, on a bad code, a two-field line, a self-loop
and a non-numeric field.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import pytest

from repro import ScenarioConfig, build_scenario
from repro.datasets.asrel import RelationshipSet, read_asrel
from repro.pipeline.cache import ArtifactCache
from repro.topology.graph import RelType

pytestmark = pytest.mark.differential

SCENARIO_SEEDS = (3, 5, 11)
ALGORITHMS = ("asrank", "problink", "toposcope", "gao")


def read_asrel_reference(path: Union[str, Path]) -> RelationshipSet:
    """Parse a serial-1 as-rel file."""
    rels = RelationshipSet()
    for line_no, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_no}: malformed as-rel line: {raw!r}")
        a, b, code = int(parts[0]), int(parts[1]), int(parts[2])
        rel = RelType.from_code(code)
        if rel is RelType.P2C:
            rels.set_p2c(provider=a, customer=b)
        elif rel is RelType.P2P:
            rels.set_p2p(a, b)
        else:
            rels.set_s2s(a, b)
    return rels


def from_code_reference(code: int) -> RelType:
    for rel in RelType:
        if rel.value == code:
            return rel
    raise ValueError(f"unknown relationship code: {code}")


def outcome(reader, path):
    try:
        return "ok", list(reader(path).items())
    except ValueError as error:
        return "error", str(error)


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_cached_artifacts(seed, tmp_path):
    config = ScenarioConfig.small(seed=seed)
    config.topology.n_ases = 180
    config.measurement.n_vantage_points = 25
    config.measurement.n_churn_rounds = 1
    cache = ArtifactCache(root=tmp_path)
    scenario = build_scenario(config, cache=cache)
    for algorithm in ALGORITHMS:
        scenario.infer(algorithm)
    paths = sorted(tmp_path.glob("*/rels-*.asrel"))
    assert [p.name for p in paths] == sorted(
        f"rels-{algorithm}.asrel" for algorithm in ALGORITHMS
    )
    for path in paths:
        got = list(read_asrel(path).items())
        assert got == list(read_asrel_reference(path).items())
        assert len(got) > 100


HAND_FILES = {
    "comments_and_blanks": (
        "# inferred by hand\n\n#another comment\n"
        "174|2098|-1\n  3356|1299|0  \n\n2098|3|-1\n# trailing\n"
    ),
    "siblings_and_repeats": (
        "60|61|1\n61|60|1\n7018|701|0\n701|7018|-1\n5|4|-1\n4|5|-1\n"
    ),
    "no_trailing_newline": "1|2|0\n3|2|-1",
    "empty": "",
    "bad_code": "174|2098|-1\n1|2|7\n",
    "two_fields": "174|2098|-1\n1|2\n",
    "four_fields": "1|2|0|x\n",
    "self_loop": "5|5|0\n",
    "not_a_number": "1|x|0\n",
    "bad_code_and_self_loop": "9|9|4\n",
}


@pytest.mark.parametrize("name", sorted(HAND_FILES))
def test_hand_files(name, tmp_path):
    path = tmp_path / f"{name}.asrel"
    path.write_text(HAND_FILES[name], encoding="ascii")
    assert outcome(read_asrel, path) == outcome(read_asrel_reference, path)


@pytest.mark.parametrize("code", [-1, 0, 1, True, 1.0, -2, 2, 7, "0", None])
def test_from_code(code):
    try:
        want = ("ok", from_code_reference(code))
    except ValueError as error:
        want = ("error", str(error))
    try:
        got = ("ok", RelType.from_code(code))
    except ValueError as error:
        got = ("error", str(error))
    assert got == want
