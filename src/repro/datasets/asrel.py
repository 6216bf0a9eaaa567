"""CAIDA serial-1 ``as-rel`` file format.

The inference algorithms' outputs (and CAIDA's published inferences the
paper consumes) use a line-oriented format::

    # comment lines start with '#'
    <provider-asn>|<customer-asn>|-1
    <peer-asn>|<peer-asn>|0

A sibling extension (``|1``) is accepted on read for completeness.  The
module converts between files and :class:`RelationshipSet`, the in-memory
mapping used everywhere downstream.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.topology.graph import LinkKey, RelType, link_key


class RelationshipSet:
    """A set of inferred or published AS relationships.

    Internally a dict from the canonical link key to ``(rel, provider)``
    where ``provider`` is meaningful only for P2C entries.  The class
    preserves P2C direction while exposing undirected lookups, which is
    what the evaluation layer needs.
    """

    def __init__(self) -> None:
        self._rels: Dict[LinkKey, Tuple[RelType, int]] = {}

    def __len__(self) -> int:
        return len(self._rels)

    def __contains__(self, key: LinkKey) -> bool:
        return key in self._rels

    def set_p2c(self, provider: int, customer: int) -> None:
        """Record a provider-to-customer relationship."""
        self._rels[link_key(provider, customer)] = (RelType.P2C, provider)

    def set_p2p(self, a: int, b: int) -> None:
        """Record a settlement-free peering relationship."""
        self._rels[link_key(a, b)] = (RelType.P2P, min(a, b))

    def set_s2s(self, a: int, b: int) -> None:
        """Record a sibling relationship."""
        self._rels[link_key(a, b)] = (RelType.S2S, min(a, b))

    def remove(self, a: int, b: int) -> None:
        del self._rels[link_key(a, b)]

    def rel_of(self, a: int, b: int) -> Optional[RelType]:
        entry = self._rels.get(link_key(a, b))
        return entry[0] if entry else None

    def by_key(self) -> Mapping[LinkKey, Tuple[RelType, int]]:
        """The ``canonical key -> (rel, provider)`` table itself, for
        callers whose keys are already canonical (read-only)."""
        return self._rels

    def provider_of(self, a: int, b: int) -> Optional[int]:
        """For a P2C link, the provider side; ``None`` otherwise."""
        entry = self._rels.get(link_key(a, b))
        if entry and entry[0] is RelType.P2C:
            return entry[1]
        return None

    def links(self) -> Iterator[LinkKey]:
        """Link keys in sorted order.

        Iteration is deliberately *not* insertion-ordered: a set read
        back from disk or assembled by a different (but equivalent)
        code path must drive every consumer identically, so the
        canonical key order is the only one ever exposed.
        """
        return iter(sorted(self._rels))

    def items(self) -> Iterator[Tuple[LinkKey, RelType, int]]:
        """Yield (link key, relationship, provider-or-smaller-asn) in
        sorted key order (see :meth:`links`)."""
        for key in sorted(self._rels):
            rel, provider = self._rels[key]
            yield key, rel, provider

    def counts(self) -> Dict[RelType, int]:
        out = {rel: 0 for rel in RelType}
        for rel, _ in self._rels.values():
            out[rel] += 1
        return out

    def customers_map(self) -> Dict[int, List[int]]:
        """provider -> customers, derived from the P2C entries.

        Built over the sorted key order, so the customer lists come out
        identical no matter how (or from where) the set was populated.
        """
        result: Dict[int, List[int]] = {}
        for key, rel, provider in self.items():
            if rel is not RelType.P2C:
                continue
            customer = key[0] if key[1] == provider else key[1]
            result.setdefault(provider, []).append(customer)
        return result

    def copy(self) -> "RelationshipSet":
        clone = RelationshipSet()
        clone._rels = dict(self._rels)
        return clone


def write_asrel(
    rels: RelationshipSet,
    path: Union[str, Path],
    header_lines: Iterable[str] = (),
) -> None:
    """Write a serial-1 as-rel file (siblings included with code 1)."""
    lines: List[str] = [f"# {line}" for line in header_lines]
    for key, rel, provider in sorted(rels.items()):
        if rel is RelType.P2C:
            customer = key[0] if key[1] == provider else key[1]
            lines.append(f"{provider}|{customer}|{rel.code}")
        else:
            lines.append(f"{key[0]}|{key[1]}|{rel.code}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_asrel(path: Union[str, Path]) -> RelationshipSet:
    """Parse a serial-1 as-rel file."""
    rels = RelationshipSet()
    # Filled in place: one canonical key and one entry per line, as
    # ``set_p2c``/``set_p2p``/``set_s2s`` would store them.
    table = rels._rels
    p2c = RelType.P2C
    for line_no, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_no}: malformed as-rel line: {raw!r}")
        a, b, code = int(parts[0]), int(parts[1]), int(parts[2])
        rel = RelType.from_code(code)
        if a < b:
            key, low = (a, b), a
        elif b < a:
            key, low = (b, a), b
        else:
            raise ValueError(f"self-loop link at AS{a}")
        table[key] = (rel, a if rel is p2c else low)
    return rels
