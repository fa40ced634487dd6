"""Binary vectors of fixed length with support-set semantics.

Coordinates are labeled 1..n externally; internally a vector is a single
bitmask with coordinate i stored at bit i-1.  The textual literal form is a
string of '0'/'1' characters whose leftmost character is coordinate 1.
Values are immutable and hashable, so they can serve as set members and
dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Set

MAX_LENGTH = 64
ENUM_LIMIT = 20  # full-space enumeration is oracle machinery, keep it desk-scale


@dataclass(frozen=True, order=True)
class BitVector:
    """An element of binary n-space, identified with its support."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"vector length must be in 1..{MAX_LENGTH}, got {self.length}")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError(f"bit mask {self.bits:#x} out of range for length {self.length}")

    @classmethod
    def zero(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        mask = 0
        for i in support:
            if not 1 <= i <= length:
                raise ValueError(f"coordinate {i} out of range 1..{length}")
            mask |= 1 << (i - 1)
        return cls(length, mask)

    @classmethod
    def from_literal(cls, text: str) -> "BitVector":
        """Parse a '0'/'1' string, leftmost character = coordinate 1."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a vector literal: {text!r}")
        mask = 0
        for pos, char in enumerate(text):
            if char == "1":
                mask |= 1 << pos
        return cls(len(text), mask)

    def to_literal(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.length))

    def __str__(self) -> str:
        return self.to_literal()


def support(v: BitVector) -> Set[int]:
    """The set of non-zero coordinate positions of v (1-based)."""
    return {i + 1 for i in range(v.length) if v.bits >> i & 1}


def hamming_weight(v: BitVector) -> int:
    """Number of non-zero coordinate positions."""
    return v.bits.bit_count()


def add(u: BitVector, v: BitVector) -> BitVector:
    """Coordinatewise sum mod 2 (symmetric difference of supports)."""
    if u.length != v.length:
        raise ValueError(f"length mismatch: {u.length} != {v.length}")
    return BitVector(u.length, u.bits ^ v.bits)


def enumerate_space(n: int) -> Iterator[BitVector]:
    """Yield all 2**n vectors of length n once, in ascending mask order."""
    if n > ENUM_LIMIT:
        raise ValueError(f"n={n} exceeds enumeration guard {ENUM_LIMIT}")
    for mask in range(1 << n):
        yield BitVector(n, mask)
