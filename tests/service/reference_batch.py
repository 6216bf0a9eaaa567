"""The per-key batch walk: the reference the ``:batch`` resolver must match.

``ScenarioView.batch_payloads`` reuses records prebuilt at index time;
this builds each record afresh with ``link_payload``.  The differential
tests and the batch performance gate compare against it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.service.query import ScenarioView


def batch_payloads_perkey(
    view: ScenarioView, algorithm: str, pairs: Sequence[Sequence[int]]
) -> Tuple[List[Dict[str, Any]], int]:
    """The original per-key dict walk over ``view``."""
    results: List[Dict[str, Any]] = []
    n_unknown = 0
    for a, b in pairs:
        record = view.link_payload(algorithm, a, b)
        if record is None:
            n_unknown += 1
            record = view.unknown_record(algorithm, a, b)
        else:
            record["visible"] = True
        results.append(record)
    return results, n_unknown
