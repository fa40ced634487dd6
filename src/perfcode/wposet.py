"""Weighted posets and their metric on binary space.

The weight of a vector is the sum of element weights over the order-ideal
closure of its support.  Sphere sizes can be computed two ways: a census of
order ideals by (maximal-element count, weight, size) folded through the
counting formula, and a brute-force count over the whole space.  The two are
cross-checked in the test suite; the census route is the fast path used by
the classification engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .bitvec import BitVector, add
from .poset import Poset

ORACLE_LIMIT = 16


@dataclass(frozen=True)
class WeightedPoset:
    """A poset together with a positive integer weight per element."""

    poset: Poset
    pi: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.pi) != self.poset.size:
            raise ValueError(f"{len(self.pi)} weights for {self.poset.size} elements")
        for i, w in enumerate(self.pi):
            if w < 1:
                raise ValueError(f"weight of element {i + 1} must be >= 1, got {w}")

    @property
    def size(self) -> int:
        return self.poset.size

    @property
    def total_weight(self) -> int:
        return sum(self.pi)

    @classmethod
    def uniform(cls, poset: Poset) -> "WeightedPoset":
        """The plain poset metric: every element has weight 1."""
        return cls(poset, (1,) * poset.size)

    def pi_sum(self, mask: int) -> int:
        total = 0
        while mask:
            total += self.pi[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
        return total

    def weight_of_mask(self, mask: int) -> int:
        return self.pi_sum(self.poset.close_mask(mask))


@dataclass(frozen=True)
class OmegaCensus:
    """Ideal counts indexed by (maximal-element count j, weight w, size i)."""

    counts: Tuple[Tuple[Tuple[int, int, int], int], ...]
    max_weight: int

    def get(self, j: int, w: int, i: int) -> int:
        return dict(self.counts).get((j, w, i), 0)

    def as_dict(self) -> Dict[Tuple[int, int, int], int]:
        return dict(self.counts)

    def structure_vector(self) -> Tuple[int, int, int]:
        """The triple of small-ideal counts that drives the classification."""
        return (self.get(1, 1, 1), self.get(1, 2, 1), self.get(1, 2, 2))


def wp_weight(wp: WeightedPoset, x: BitVector) -> int:
    """Sum of element weights over the ideal closure of the support of x."""
    if x.length != wp.size:
        raise ValueError(f"vector length {x.length} != poset size {wp.size}")
    return wp.weight_of_mask(x.bits)


def wp_distance(wp: WeightedPoset, x: BitVector, y: BitVector) -> int:
    """Weight of x + y; a metric on binary space of dimension size."""
    return wp_weight(wp, add(x, y))


def omega_census(wp: WeightedPoset, max_weight: int) -> OmegaCensus:
    """Count every order ideal of weight <= max_weight by (j, weight, size).

    Ideals are grown one element at a time (an ideal stays an ideal when a
    new element brings its whole strict down-set along), so the cost scales
    with the number of small ideals, not with 2**size.  Weight bounds size
    since every element weighs at least 1.
    """
    counts: Dict[Tuple[int, int, int], int] = {}
    p = wp.poset
    strict_down = [p.down[i] & ~(1 << i) for i in range(p.size)]
    seen = {0}
    frontier = [0]
    while frontier:
        mask = frontier.pop()
        if mask:
            key = (p.maximal_mask(mask).bit_count(), wp.pi_sum(mask), mask.bit_count())
            counts[key] = counts.get(key, 0) + 1
        for i in range(p.size):
            if mask >> i & 1 or (strict_down[i] & ~mask):
                continue
            grown = mask | (1 << i)
            if grown not in seen and wp.pi_sum(grown) <= max_weight:
                seen.add(grown)
                frontier.append(grown)
    return OmegaCensus(tuple(sorted(counts.items())), max_weight)


@lru_cache(maxsize=None)
def sphere_size_formula(wp: WeightedPoset, r: int) -> int:
    """Sphere cardinality at radius r, folded from the ideal census.

    Independent of the sphere's center by translation invariance of the
    metric.  Each ideal of size i with j maximal elements is the closure of
    exactly 2**(i-j) supports, hence the fold.
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    census = omega_census(wp, r)
    total = 1
    for w in range(1, r + 1):
        for i in range(1, w + 1):
            for j in range(1, i + 1):
                total += (1 << (i - j)) * census.get(j, w, i)
    return total


def closure_weight_table(generators: Sequence[int], pi: Sequence[int]) -> np.ndarray:
    """Weight of the closure of every mask over len(generators) coordinates.

    generators[i] is the closure of coordinate i alone, so a mask's closure
    is the union of its members' generators.  Closures and the sums of pi
    over every mask are both built by doubling: the masks holding coordinate
    i are the masks below 2**i with i added.
    """
    m = len(generators)
    closures = np.zeros(1 << m, dtype=np.int64)
    sums = np.zeros(1 << m, dtype=np.int32)
    for i, (g, w) in enumerate(zip(generators, pi)):
        closures[1 << i:2 << i] = closures[:1 << i] | g
        sums[1 << i:2 << i] = sums[:1 << i] + w
    return sums[closures]


def weight_table(wp: WeightedPoset) -> np.ndarray:
    """Weights of all 2**size masks, indexed by mask; the exhaustive checks' table."""
    if wp.size > ORACLE_LIMIT:
        raise ValueError(f"poset size {wp.size} exceeds oracle guard {ORACLE_LIMIT}")
    return closure_weight_table(wp.poset.down, wp.pi)


def sphere_size_oracle(wp: WeightedPoset, x: BitVector, r: int) -> int:
    """Brute-force sphere cardinality: count every vector within distance r of x."""
    if x.length != wp.size:
        raise ValueError(f"vector length {x.length} != poset size {wp.size}")
    wt = weight_table(wp)
    return int(np.count_nonzero(wt[np.arange(1 << wp.size) ^ x.bits] <= r))
