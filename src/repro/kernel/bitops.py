"""Bit-manipulation primitives for the compact graph kernel.

Python ``int`` objects are arbitrary-precision bit vectors with C-speed
bitwise AND/OR/XOR and an O(words) population count (``int.bit_count``),
which makes them an excellent representation for vertex *sets* of an
integer-reindexed graph: set intersection is ``&``, cardinality is
``bit_count()``, and "the candidates ranked after position p" is a single
shift-mask.  Every helper here works on such masks.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

# Bit extraction via ``mask & -mask`` re-touches every word of the big int
# per extracted bit, so a k-bit mask over an n-vertex universe costs
# O(k * n/64) — ruinous for sparse masks over wide universes (a 3-bit mask
# on a 200k-vertex graph walks ~3000 words three times).  Above this cutoff
# we instead serialise the mask once (O(words)) and scan for nonzero bytes
# at C speed, paying O(words + k) total.  Below it, the classic loop wins
# on allocation overhead.
_WIDE_MASK_BITS = 2048

_NONZERO_RUN = re.compile(rb"[^\x00]+")

# _BYTE_BITS[b] lists the set-bit positions of byte value b in ascending
# order, so the wide-mask scan stays in table lookups.
_BYTE_BITS = tuple(
    tuple(position for position in range(8) if (value >> position) & 1)
    for value in range(256)
)


def bit(position: int) -> int:
    """Return the mask with only ``position`` set."""
    return 1 << position


def mask_from_indices(indices: Iterable[int]) -> int:
    """Build a mask with one bit per index in ``indices``."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def mask_from_indices_wide(indices: Iterable[int], num_bits: int) -> int:
    """Build a mask over a ``num_bits``-wide universe in O(k + words).

    The classic :func:`mask_from_indices` ORs one shifted big int per index,
    copying the whole accumulated mask each time — O(k · words).  Here we
    set single bytes in a scratch buffer and convert once.  Indices must lie
    in ``[0, num_bits)``.
    """
    scratch = bytearray((num_bits + 7) >> 3)
    for index in indices:
        scratch[index >> 3] |= 1 << (index & 7)
    return int.from_bytes(scratch, "little")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order."""
    if mask.bit_length() <= _WIDE_MASK_BITS:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    buffer = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    byte_bits = _BYTE_BITS
    for match in _NONZERO_RUN.finditer(buffer):
        for index in range(match.start(), match.end()):
            base = index << 3
            for position in byte_bits[buffer[index]]:
                yield base + position


def bits_list(mask: int) -> list[int]:
    """Return the set-bit positions of ``mask`` as an ascending list."""
    if mask.bit_length() <= _WIDE_MASK_BITS:
        positions: list[int] = []
        while mask:
            low = mask & -mask
            positions.append(low.bit_length() - 1)
            mask ^= low
        return positions
    buffer = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    byte_bits = _BYTE_BITS
    positions: list[int] = []
    append = positions.append
    for match in _NONZERO_RUN.finditer(buffer):
        for index in range(match.start(), match.end()):
            base = index << 3
            for position in byte_bits[buffer[index]]:
                append(base + position)
    return positions


def lowest_bit(mask: int) -> int:
    """Position of the lowest set bit (-1 for the empty mask)."""
    if not mask:
        return -1
    return (mask & -mask).bit_length() - 1


def highest_bit(mask: int) -> int:
    """Position of the highest set bit (-1 for the empty mask)."""
    return mask.bit_length() - 1


def mask_above(position: int) -> int:
    """Mask selecting every bit strictly greater than ``position``.

    The two's-complement ``-1 << (position + 1)`` has infinitely many high
    bits set, which is exactly right as the left operand of ``&`` against a
    finite non-negative mask.
    """
    return -1 << (position + 1)


def popcount(mask: int) -> int:
    """Population count (alias of ``int.bit_count`` for call-site clarity)."""
    return mask.bit_count()
