"""Weighted posets, and the closure metric they share with digraphs.

A closure metric is given by `generators`, the closure of each coordinate,
and `pi`, the coordinate weights: a vector weighs the sum of pi over the
union of its support's generators.  A weighted poset has the down-sets as
generators, a digraph its reach-sets and unit weights.  The functions below
take any object carrying both: a WeightedPoset, a Digraph or a MetricContext.

Sphere sizes come two ways, cross-checked in the test suite: a fold that
visits each closed set of weight at most r once, as an antichain of
components, and a brute-force count over the weight table of all 2**n
vectors.  The fold also yields the census of order ideals, whose
small-ideal counts are the structure vector the classification solves for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from .bitvec import BitVector, add
from .poset import Poset, closure_mask, components

ORACLE_LIMIT = 16

Planes = Tuple[Tuple[int, int], ...]


def weight_planes(pi: Sequence[int]) -> Planes:
    """(b, mask of the coordinates whose pi - 1 has bit b set) for each b, so
    a pi-sum is a popcount plus shifted popcounts; just one for unit weights."""
    return tuple((b, sum(1 << i for i, w in enumerate(pi) if (w - 1) >> b & 1))
                 for b in range((max(pi) - 1).bit_length()))


def pi_sum(planes: Planes, mask: int) -> int:
    """Sum of pi over mask, pi given as weight_planes."""
    weight = mask.bit_count()
    for b, plane in planes:
        weight += (mask & plane).bit_count() << b
    return weight


def closure_weight(generators: Sequence[int], planes: Planes, mask: int) -> int:
    """Sum of pi over the closure of mask, pi given as weight_planes."""
    return pi_sum(planes, closure_mask(generators, mask))


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
    def generators(self) -> Tuple[int, ...]:
        return self.poset.down

    @property
    def total_weight(self) -> int:
        return sum(self.pi)

    @classmethod
    def uniform(cls, poset: Poset) -> "WeightedPoset":
        """The plain poset metric: every element has weight 1."""
        return cls(poset, (1,) * poset.size)

    def weight_of_mask(self, mask: int) -> int:
        return closure_weight(self.generators, weight_planes(self.pi), mask)


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
        """The small-ideal counts (s, a, b) of classify.StructureVector."""
        return (self.get(1, 1, 1), self.get(1, 2, 1), self.get(1, 2, 2))


def wp_weight(wp: WeightedPoset, x: BitVector) -> int:
    """Sum of element weights over the ideal closure of the support of x."""
    if x.length != wp.size:
        raise ValueError(f"vector length {x.length} != poset size {wp.size}")
    return wp.weight_of_mask(x.bits)


def wp_distance(wp: WeightedPoset, x: BitVector, y: BitVector) -> int:
    """Weight of x + y; a metric on binary space of dimension size."""
    return wp_weight(wp, add(x, y))


def closed_sets(s, max_weight: int) -> Iterator[Tuple[int, int, int, int]]:
    """(S, weight, maximal coordinates of S, supports) for every non-empty
    closed set S of weight at most max_weight, each once.

    S is the union of the generators of its maximal components (coordinates
    with one generator), and every antichain of components gives one, so
    antichains grow in component order: a component joins when none of its
    members is in S (else it lies below S) and its generator meets no chosen
    top (else it lies above one), within the weight bound.  The supports with
    closure S lie in S and meet each top component C: 2**(|S| - sum |C|)
    times the product of (2**|C| - 1).
    """
    planes = weight_planes(s.pi)
    parts = [(members, g, (1 << members.bit_count()) - 1)
             for g, members in components(s.generators).items()]
    stack = [(0, 0, 0, 1, 0)]
    while stack:
        closed, weight, tops, product, start = stack.pop()
        for i in range(start, len(parts)):
            members, g, nonempty = parts[i]
            if members & closed or g & tops:
                continue
            grown_weight = weight + pi_sum(planes, g & ~closed)
            if grown_weight > max_weight:
                continue
            grown, grown_tops, grown_product = closed | g, tops | members, product * nonempty
            stack.append((grown, grown_weight, grown_tops, grown_product, i + 1))
            yield (grown, grown_weight, grown_tops,
                   grown_product << (grown.bit_count() - grown_tops.bit_count()))


def omega_census(wp: WeightedPoset, max_weight: int) -> OmegaCensus:
    """Count every order ideal (closed set) of weight <= max_weight by
    (j, weight, size); the cost follows the number of small ideals."""
    counts: Dict[Tuple[int, int, int], int] = {}
    for ideal, weight, tops, _ in closed_sets(wp, max_weight):
        key = (tops.bit_count(), weight, ideal.bit_count())
        counts[key] = counts.get(key, 0) + 1
    return OmegaCensus(tuple(sorted(counts.items())), max_weight)


def sphere_size_formula(s, r: int) -> int:
    """Sphere cardinality at radius r (any center): the empty support plus
    the supports of every closed set of weight at most r."""
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return 1 + sum(supports for *_, supports in closed_sets(s, r))


def weight_table(s) -> np.ndarray:
    """Weights of all 2**n masks, indexed by mask; the exhaustive checks' table.

    Closures and the sums of pi over every mask are both built by doubling:
    the masks holding coordinate i are the masks below 2**i with i added.
    """
    n = len(s.generators)
    if n > ORACLE_LIMIT:
        raise ValueError(f"length {n} exceeds oracle guard {ORACLE_LIMIT}")
    closures = np.zeros(1 << n, dtype=np.int64)
    sums = np.zeros(1 << n, dtype=np.int32)
    for i, (g, w) in enumerate(zip(s.generators, s.pi)):
        closures[1 << i:2 << i] = closures[:1 << i] | g
        sums[1 << i:2 << i] = sums[:1 << i] + w
    return sums[closures]


def sphere_size_oracle(s, x: BitVector, r: int) -> int:
    """Brute-force sphere cardinality: count every vector within distance r of x."""
    n = len(s.generators)
    if x.length != n:
        raise ValueError(f"vector length {x.length} != structure length {n}")
    wt = weight_table(s)
    return int(np.count_nonzero(wt[np.arange(1 << n) ^ x.bits] <= r))
