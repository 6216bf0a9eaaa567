"""Field-by-field comparison of two topologies, iteration orders included.

:func:`first_difference` walks both objects in parallel: plain objects
through ``vars()``, dicts through their items in order, sets, frozensets,
lists and tuples through ``list()``.  Two topologies compare equal only
when every attribute, every container's order and every scalar's type
agree, so a read-back topology that any consumer could tell from a
generated one is reported, with the path to the first difference.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

_SCALARS = (bool, int, float, str, type(None))


def first_difference(got: Any, want: Any, path: str = "topology") -> Optional[str]:
    """The path and values of the first difference, or ``None``."""
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(got, (enum.Enum,) + _SCALARS):
        return None if got == want else f"{path}: {got!r} != {want!r}"
    if isinstance(got, dict):
        if list(got) != list(want):
            return f"{path}: keys {list(got)[:12]}... != {list(want)[:12]}..."
        for key in got:
            found = first_difference(got[key], want[key], f"{path}[{key!r}]")
            if found:
                return found
        return None
    if isinstance(got, (set, frozenset, list, tuple)):
        got_items, want_items = list(got), list(want)
        if len(got_items) != len(want_items):
            return f"{path}: {len(got_items)} items != {len(want_items)}"
        for i, (a, b) in enumerate(zip(got_items, want_items)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if hasattr(got, "__dict__"):
        got_vars, want_vars = vars(got), vars(want)
        if list(got_vars) != list(want_vars):
            return f"{path}: attributes {list(got_vars)} != {list(want_vars)}"
        for name in got_vars:
            found = first_difference(
                got_vars[name], want_vars[name], f"{path}.{name}"
            )
            if found:
                return found
        return None
    raise TypeError(f"{path}: cannot compare {type(got).__name__}")
