"""Autonomous System Number (ASN) model.

Implements the parts of the IANA AS-number registry that the paper's
cleaning step (§4.2) depends on:

* **AS_TRANS** (23456) — the placeholder ASN used to represent 32-bit
  ASNs towards devices that only speak 16-bit BGP.  It never identifies
  a real network, so any "relationship" with it is spurious.
* **Reserved ASNs** — ranges reserved for documentation, private use,
  and future use (RFC 1930, RFC 5398, RFC 6996, RFC 7300, plus IANA
  reserved blocks).  These should never appear in public routing nor in
  validation data.

The ranges below follow the IANA "Autonomous System (AS) Numbers"
registry as of the paper's snapshot.
"""

from __future__ import annotations

from typing import Tuple

AS_TRANS = 23456
"""The 16-bit placeholder for 32-bit ASNs (RFC 6793)."""

MAX_ASN_16BIT = 65535
MAX_ASN_32BIT = 4294967295

#: Inclusive (low, high) reserved ASN ranges, excluding AS_TRANS which is
#: tracked separately because the paper treats it as its own category.
RESERVED_RANGES: Tuple[Tuple[int, int], ...] = (
    (0, 0),  # reserved, RFC 7607
    (64198, 64495),  # IANA reserved
    (64496, 64511),  # documentation, RFC 5398
    (64512, 65534),  # private use, RFC 6996
    (65535, 65535),  # last 16-bit, RFC 7300
    (65536, 65551),  # documentation, RFC 5398
    (65552, 131071),  # IANA reserved
    (4200000000, 4294967294),  # private use, RFC 6996
    (4294967295, 4294967295),  # last 32-bit, RFC 7300
)


def is_as_trans(asn: int) -> bool:
    """True iff ``asn`` is AS_TRANS (23456)."""
    return asn == AS_TRANS


def is_reserved(asn: int) -> bool:
    """True iff ``asn`` falls in an IANA reserved/private/documentation
    range (AS_TRANS is *not* counted as reserved here)."""
    for low, high in RESERVED_RANGES:
        if low <= asn <= high:
            return True
    return False


def is_routable(asn: int) -> bool:
    """True iff ``asn`` may legitimately appear in the public DFZ."""
    if asn < 0 or asn > MAX_ASN_32BIT:
        return False
    return not is_reserved(asn) and not is_as_trans(asn)


def validate_asn(asn: int) -> int:
    """Return ``asn`` unchanged if it is a syntactically valid ASN.

    Raises
    ------
    ValueError
        If ``asn`` is negative or exceeds the 32-bit space.
    """
    if not isinstance(asn, int) or isinstance(asn, bool):
        raise ValueError(f"ASN must be an int, got {type(asn).__name__}")
    if asn < 0 or asn > MAX_ASN_32BIT:
        raise ValueError(f"ASN out of range: {asn}")
    return asn


def asdot(asn: int) -> str:
    """Format an ASN in ASDOT notation (RFC 5396), e.g. ``196608`` ->
    ``"3.0"``.  16-bit ASNs render as plain integers."""
    validate_asn(asn)
    if asn <= MAX_ASN_16BIT:
        return str(asn)
    return f"{asn >> 16}.{asn & 0xFFFF}"


def parse_asdot(text: str) -> int:
    """Parse plain or ASDOT notation into an integer ASN."""
    text = text.strip()
    if "." in text:
        high_s, low_s = text.split(".", 1)
        high, low = int(high_s), int(low_s)
        if not 0 <= high <= MAX_ASN_16BIT or not 0 <= low <= MAX_ASN_16BIT:
            raise ValueError(f"invalid ASDOT notation: {text!r}")
        return validate_asn((high << 16) | low)
    return validate_asn(int(text))
