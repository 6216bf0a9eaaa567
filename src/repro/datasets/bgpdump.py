"""Text serialisation of collected routes ("bgpdump-style").

Real pipelines exchange RIB snapshots as line-oriented text (bgpdump
``-m`` output, CAIDA's AS-path files).  This module defines an
equivalent, lossless format for :class:`~repro.datasets.paths.PathCorpus`
so corpora can be written to disk, shipped, and re-read without keeping
the simulator around::

    # repro path corpus v1
    1299 2098 64500|1299:200 2098:100
    174 3356|

Each line is the AS path (vantage point first, origin last), a ``|``,
and the surviving communities as space-separated ``asn:value`` pairs.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple, Union

from repro.bgp.communities import Community
from repro.datasets.paths import CollectedRoute, PathCorpus

_HEADER = "# repro path corpus v1"


def write_path_corpus(corpus: PathCorpus, path: Union[str, Path]) -> int:
    """Serialise every route; returns the number of lines written."""
    lines: List[str] = [_HEADER]
    for route in corpus.routes():
        path_part = " ".join(str(asn) for asn in route.path)
        community_part = " ".join(
            f"{asn}:{value}" for asn, value in route.communities
        )
        lines.append(f"{path_part}|{community_part}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    return len(lines) - 1


def read_path_corpus(path: Union[str, Path]) -> PathCorpus:
    """Parse a corpus file back into a fully-indexed :class:`PathCorpus`."""
    routes: List[CollectedRoute] = []
    for line_no, raw in enumerate(
        Path(path).read_text(encoding="ascii").splitlines(), 1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "|" not in line:
            raise ValueError(f"{path}:{line_no}: missing '|' separator: {raw!r}")
        path_part, community_part = line.split("|", 1)
        as_path = tuple(int(token) for token in path_part.split())
        if not as_path:
            raise ValueError(f"{path}:{line_no}: empty AS path")
        communities: List[Community] = []
        for token in community_part.split():
            owner_s, value_s = token.split(":", 1)
            communities.append((int(owner_s), int(value_s)))
        routes.append(
            CollectedRoute(
                vp=as_path[0],
                origin=as_path[-1],
                path=as_path,
                communities=tuple(communities),
            )
        )
    corpus = PathCorpus()
    corpus.add_routes(routes)
    return corpus
