"""``# repro: noqa[RULE-ID]`` inline suppressions.

Comments are found with :mod:`tokenize` (never by string-scanning
source lines), so a suppression marker inside a string literal is not a
suppression.  Three forms are recognised on the line of a finding::

    x = build()            # repro: noqa            suppress every rule
    x = build()            # repro: noqa[DET001]    suppress one rule
    x = build()            # repro: noqa[DET001,ASYNC001]

Every suppression must earn its keep: the engine reports markers that
suppressed nothing as ``SUP001`` findings, so stale noqa comments
cannot accumulate.  ``SUP001`` itself is deliberately unsuppressable.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

#: Rule id reported for a suppression that suppressed nothing.
UNUSED_SUPPRESSION_ID = "SUP001"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<ids>[A-Za-z0-9_,\s-]*)\])?",
)


@dataclass
class Suppression:
    """One noqa marker: its line, column, and the rule ids it names."""

    line: int
    col: int
    #: ``None`` means the bare form — suppress every rule on the line.
    rule_ids: Optional[FrozenSet[str]]
    used: bool = field(default=False, compare=False)

    def covers(self, rule_id: str) -> bool:
        if rule_id == UNUSED_SUPPRESSION_ID:
            return False
        return self.rule_ids is None or rule_id in self.rule_ids

    def describe(self) -> str:
        if self.rule_ids is None:
            return "# repro: noqa"
        return f"# repro: noqa[{','.join(sorted(self.rule_ids))}]"


class SuppressionIndex:
    """Per-file map of line number -> suppressions on that line."""

    def __init__(self, by_line: Dict[int, List[Suppression]]):
        self._by_line = by_line

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        by_line: Dict[int, List[Suppression]] = {}
        if "noqa" not in source:
            # Exact, not a heuristic: every marker contains the literal.
            return cls(by_line)
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _NOQA_RE.search(token.string)
                if match is None:
                    continue
                ids = match.group("ids")
                rule_ids: Optional[FrozenSet[str]]
                if ids is None:
                    rule_ids = None
                else:
                    rule_ids = frozenset(
                        part.strip().upper()
                        for part in ids.split(",")
                        if part.strip()
                    )
                line = token.start[0]
                by_line.setdefault(line, []).append(
                    Suppression(line=line, col=token.start[1] + 1,
                                rule_ids=rule_ids)
                )
        except tokenize.TokenError:
            # The AST parse of the same source will report the real
            # syntax problem; an unfinishable token stream just means
            # no suppressions.
            pass
        return cls(by_line)

    @classmethod
    def from_markers(cls, rows: List[list]) -> "SuppressionIndex":
        """The index :meth:`markers` serialised (every marker unused)."""
        by_line: Dict[int, List[Suppression]] = {}
        for line, col, ids in rows:
            rule_ids = (None if ids is None
                        else frozenset(filter(None, ids.split(","))))
            by_line.setdefault(line, []).append(
                Suppression(line=line, col=col, rule_ids=rule_ids))
        return cls(by_line)

    def markers(self) -> List[list]:
        """Every marker as a JSON row ``[line, col, ids]``, in order.

        ``ids`` is the comma-joined sorted rule ids, or ``None`` for
        the bare form.
        """
        return [
            [marker.line, marker.col,
             None if marker.rule_ids is None
             else ",".join(sorted(marker.rule_ids))]
            for line in sorted(self._by_line)
            for marker in self._by_line[line]
        ]

    def suppresses(self, line: int, rule_id: str) -> bool:
        """True (and marks the marker used) if the finding is covered."""
        covered = False
        for suppression in self._by_line.get(line, ()):
            if suppression.covers(rule_id):
                suppression.used = True
                covered = True
        return covered

    def unused(self, active_rule_ids=None) -> List[Suppression]:
        """Markers that suppressed nothing, in line order.

        A scoped marker is only *reportably* unused when every rule it
        names actually ran (``active_rule_ids``): suppressing a rule
        the current invocation did not select is not evidence the
        marker is stale.
        """
        out: List[Suppression] = []
        for line in sorted(self._by_line):
            for marker in self._by_line[line]:
                if marker.used:
                    continue
                if (active_rule_ids is not None
                        and marker.rule_ids is not None
                        and not marker.rule_ids <= set(active_rule_ids)):
                    continue
                out.append(marker)
        return out
