"""Text serialisation of collected routes ("bgpdump-style").

Real pipelines exchange RIB snapshots as line-oriented text (bgpdump
``-m`` output, CAIDA's AS-path files).  This module writes an
equivalent, lossless format for :class:`~repro.datasets.paths.PathCorpus`
so corpora can be written to disk and shipped without keeping the
simulator around (the reader that proves the round trip is a test
helper, ``tests/reference_route_loops.py``)::

    # repro path corpus v1
    1299 2098 64500|1299:200 2098:100
    174 3356|

Each line is the AS path (vantage point first, origin last), a ``|``,
and the surviving communities as space-separated ``asn:value`` pairs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.datasets.paths import PathCorpus

_HEADER = "# repro path corpus v1"
_BLOCK_ROUTES = 1 << 14


def write_path_corpus(corpus: PathCorpus, path: Union[str, Path]) -> int:
    """Serialise every route, one line at a time; returns the number of
    lines written."""
    cols = corpus.columns()
    n_routes = cols.n_routes
    # The community rows are sorted by route: route r's rows are
    # tag_bounds[r]:tag_bounds[r + 1].
    tag_bounds = np.searchsorted(cols.comm_route, np.arange(n_routes + 1))
    with open(path, "w", encoding="ascii") as handle:
        handle.write(_HEADER + "\n")
        # Python lists for one block of routes at a time, so the
        # memory held stays flat in the corpus size.
        for first in range(0, n_routes, _BLOCK_ROUTES):
            block = slice(first, min(first + _BLOCK_ROUTES, n_routes) + 1)
            offsets = cols.offsets[block]
            bounds = tag_bounds[block]
            hops = cols.hops[offsets[0] : offsets[-1]].tolist()
            tags = [
                f"{owner}:{value}"
                for owner, value in zip(
                    cols.comm_owner[bounds[0] : bounds[-1]].tolist(),
                    cols.comm_value[bounds[0] : bounds[-1]].tolist(),
                )
            ]
            offsets = (offsets - offsets[0]).tolist()
            bounds = (bounds - bounds[0]).tolist()
            for route in range(len(offsets) - 1):
                handle.write(
                    " ".join(map(str, hops[offsets[route] : offsets[route + 1]]))
                    + "|"
                    + " ".join(tags[bounds[route] : bounds[route + 1]])
                    + "\n"
                )
    return n_routes

