"""Binary linear codes, the extended Hamming family, and radius machinery.

A MetricContext is the closure metric of a weighted poset or a digraph;
its weights, table and sphere sizes come from wposet whatever the kind.

Perfectness is decided two independent ways, which the tests cross-check:

- Exhaustion (is_r_perfect, packing_radius, covering_radius), for lengths
  up to 16.  The weight table over all 2**n masks gives the ball B_r of
  masks of weight at most r, and the sphere of radius r around c is
  c ^ B_r.  Scattering every translate into a per-vector count costs
  |C|*|B_r| + 2**n rather than |C|*2**n.  No linearity is assumed, so any
  codeword collection is accepted, such as the images of map_code_collapse.
- The condition pair (check_perfect_conditions), for linear codes: the
  radius-r sphere holds exactly 2**(n-k) vectors (the closed-set fold), and
  no non-zero codeword splits into two disjoint parts of weight at most r.
  The ball is grown from 0 one coordinate at a time, and a bad split exists
  exactly when two ball masks lie in one coset (share a syndrome), so the
  cost follows the sphere size at any length.

The routes share nothing beyond the structure: one reads a table built by
doubling, the other the closed-set fold and single-mask weights.  A third
route at radius 2 restricts the partition check to weight-4 codewords and
their even splits (check_weight4_partitions); past length 16, where
exhaustion stops, it is the only independent check of the condition pair.
Those codewords, and whether the minimum distance is 4, come from a
syndrome search costing O(n^3) at any dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import pairwise
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .bitvec import BitVector
from .digraph import Digraph
from .wposet import (
    Planes,
    WeightedPoset,
    closed_sets,
    closure_weight,
    sphere_size_formula,
    weight_planes,
    weight_table,
)

EXHAUSTIVE_LIMIT = 16
DIMENSION_LIMIT = 16
HAMMING_K_LIMIT = 5
BALL_LIMIT = 1 << 20  # masks in the condition route's ball, a few hundred bytes each


def _rref(rows: List[int], width: int) -> Tuple[List[int], List[int]]:
    rows = [r for r in rows]
    pivots: List[int] = []
    rank = 0
    for col in range(width):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i] >> col & 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> col & 1:
                rows[i] ^= rows[rank]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _nullspace(rows: List[int], width: int) -> List[int]:
    reduced, pivots = _rref(rows, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, p in zip(reduced, pivots):
            if row >> free & 1:
                v |= 1 << p
        basis.append(v)
    return basis


@dataclass(frozen=True)
class BinaryLinearCode:
    """A linear subspace of binary n-space given by an independent basis."""

    length: int
    basis: Tuple[int, ...]
    parity_check: Tuple[int, ...]

    def __post_init__(self) -> None:
        reduced, _ = _rref(list(self.basis), self.length)
        if len(reduced) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")
        for row in self.parity_check:
            for b in self.basis:
                if (row & b).bit_count() & 1:
                    raise ValueError("parity check does not annihilate the basis")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @classmethod
    def from_basis(cls, length: int, basis_masks: Iterable[int]) -> "BinaryLinearCode":
        masks = list(basis_masks)
        parity = _nullspace(masks, length) if masks else [1 << i for i in range(length)]
        return cls(length, tuple(masks), tuple(parity))

    @classmethod
    def from_parity_check(cls, length: int, rows: Iterable[int]) -> "BinaryLinearCode":
        rows = list(rows)
        return cls(length, tuple(_nullspace(rows, length)), tuple(rows))


@lru_cache(maxsize=4)
def codeword_masks(code: BinaryLinearCode) -> Tuple[int, ...]:
    """All codeword masks, zero first, ascending by message mask."""
    if code.dimension > DIMENSION_LIMIT:
        raise ValueError(f"dimension {code.dimension} exceeds guard {DIMENSION_LIMIT}")
    out = [0] * (1 << code.dimension)
    for msg in range(1, 1 << code.dimension):
        low = msg & -msg
        out[msg] = out[msg ^ low] ^ code.basis[low.bit_length() - 1]
    return tuple(out)


def codewords(code: BinaryLinearCode) -> Iterator[BitVector]:
    for mask in codeword_masks(code):
        yield BitVector(code.length, mask)


def min_hamming_distance(code: BinaryLinearCode) -> int:
    """Minimum Hamming weight over non-zero codewords (= distance, linearity)."""
    masks = codeword_masks(code)
    if len(masks) == 1:
        return 0
    return min(m.bit_count() for m in masks if m)


def _syndromes(code: BinaryLinearCode) -> List[int]:
    """Per-coordinate parity-check column, packed as an integer."""
    return [
        sum(((row >> i) & 1) << r for r, row in enumerate(code.parity_check))
        for i in range(code.length)
    ]


@lru_cache(maxsize=4)
def weight4_codeword_masks(code: BinaryLinearCode) -> Tuple[int, ...]:
    """All Hamming-weight-4 codewords, without enumerating the whole code.

    Quadruples with vanishing column sum are found by completing coordinate
    triples through a syndrome table, so the cost is O(n^3) regardless of
    the code's dimension.
    """
    sy = _syndromes(code)
    by_syndrome: dict = {}
    for i, s in enumerate(sy):
        by_syndrome.setdefault(s, []).append(i)
    out = set()
    n = code.length
    for a in range(n):
        for b in range(a + 1, n):
            sab = sy[a] ^ sy[b]
            for c in range(b + 1, n):
                for d in by_syndrome.get(sab ^ sy[c], ()):
                    if d > c:
                        out.add((1 << a) | (1 << b) | (1 << c) | (1 << d))
    return tuple(sorted(out))


def _min_distance_capped(code: BinaryLinearCode) -> Optional[int]:
    """Minimum distance when it is at most 4, else None; dimension-agnostic."""
    sy = _syndromes(code)
    if 0 in sy:
        return 1
    if len(set(sy)) < len(sy):
        return 2
    by_syndrome: dict = {}
    for i, s in enumerate(sy):
        by_syndrome.setdefault(s, []).append(i)
    for a in range(code.length):
        for b in range(a + 1, code.length):
            for c in by_syndrome.get(sy[a] ^ sy[b], ()):
                if c not in (a, b):
                    return 3
    if weight4_codeword_masks(code):
        return 4
    return None


def extended_hamming(k: int) -> BinaryLinearCode:
    """The extended Hamming code of length 2**k and dimension 2**k - 1 - k.

    Parity check: an all-ones row on top, then k rows whose column i reads
    the binary representation of i-1, least significant bit in the last row.
    """
    if not 2 <= k <= HAMMING_K_LIMIT:
        raise ValueError(f"k must be in 2..{HAMMING_K_LIMIT}, got {k}")
    n = 1 << k
    rows = [(1 << n) - 1]
    for j in range(k):
        bit = k - 1 - j
        rows.append(sum(1 << (i - 1) for i in range(1, n + 1) if (i - 1) >> bit & 1))
    return BinaryLinearCode.from_parity_check(n, iter(rows))


@dataclass(frozen=True)
class MetricContext:
    """A closure metric: generators[i] is the closure of coordinate i alone
    (a poset down-set or a digraph reach-set), pi[i] its weight."""

    generators: Tuple[int, ...]
    pi: Tuple[int, ...]
    planes: Planes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "planes", weight_planes(self.pi))

    @classmethod
    def of(cls, structure: Union[WeightedPoset, Digraph]) -> "MetricContext":
        return cls(structure.generators, structure.pi)

    # Kind-named spellings of `of`, for callers that name the kind.
    for_wposet = of
    for_digraph = of

    @property
    def length(self) -> int:
        return len(self.generators)

    @property
    def total_weight(self) -> int:
        return sum(self.pi)

    def weight_of_mask(self, mask: int) -> int:
        return closure_weight(self.generators, self.planes, mask)

    def weights(self) -> np.ndarray:
        return weight_table(self)

    def sphere_size(self, r: int) -> int:
        """Sphere cardinality at radius r (center-independent)."""
        return sphere_size_formula(self, r)


@dataclass(frozen=True)
class PerfectReport:
    """Outcome of the condition-pair perfectness check."""

    sphere_size: int
    expected_sphere_size: int
    sphere_condition: bool
    partition_condition: bool
    witness: Optional[Tuple[BitVector, Tuple[BitVector, BitVector]]]

    @property
    def perfect(self) -> bool:
        return self.sphere_condition and self.partition_condition


CodeLike = Union[BinaryLinearCode, Iterable[BitVector]]

# Translates c ^ x scattered per numpy call: chunks of about 2 MB of int64.
SCATTER_CHUNK = 1 << 18


def _code_masks(code: CodeLike, length: int) -> np.ndarray:
    """Codeword masks of a linear code or of a plain vector collection."""
    if isinstance(code, BinaryLinearCode):
        if code.length != length:
            raise ValueError(f"code length {code.length} != structure dimension {length}")
        return np.asarray(codeword_masks(code), dtype=np.int64)
    masks = []
    for v in code:
        if v.length != length:
            raise ValueError(f"codeword length {v.length} != structure dimension {length}")
        masks.append(v.bits)
    if not masks:
        raise ValueError("empty code")
    return np.asarray(masks, dtype=np.int64)


def _translates(masks: np.ndarray, ball: np.ndarray) -> Iterator[np.ndarray]:
    """Every c ^ x for c in masks and x in ball, in chunks of whole codewords."""
    step = max(1, SCATTER_CHUNK // max(1, len(ball)))
    for i in range(0, len(masks), step):
        yield (masks[i:i + step, None] ^ ball[None, :]).ravel()


def _sphere_counts(masks: np.ndarray, ball: np.ndarray, length: int) -> np.ndarray:
    """How many of the spheres c ^ ball contain each vector."""
    counts = np.zeros(1 << length, dtype=np.int64)
    for chunk in _translates(masks, ball):
        counts += np.bincount(chunk, minlength=1 << length)
    return counts


def _guard_exhaustive(ctx: MetricContext) -> None:
    if ctx.length > EXHAUSTIVE_LIMIT:
        raise ValueError(f"length {ctx.length} exceeds exhaustive guard {EXHAUSTIVE_LIMIT}")


def is_r_perfect(code: CodeLike, ctx: MetricContext, r: int) -> bool:
    """Exhaustive ground truth: every vector in exactly one codeword sphere.

    The counts sum to |C| times the sphere size, so they can all be 1 only
    when that product is 2**n.
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    _guard_exhaustive(ctx)
    masks = _code_masks(code, ctx.length)
    ball = np.flatnonzero(ctx.weights() <= r)
    if len(masks) * len(ball) != 1 << ctx.length:
        return False
    return bool((_sphere_counts(masks, ball, ctx.length) == 1).all())


def packing_radius(code: CodeLike, ctx: MetricContext) -> int:
    """Largest r with pairwise disjoint codeword spheres, by exhaustion.

    Spheres grow shell by shell (the vectors of weight exactly r).  Once
    |C| times the sphere size exceeds 2**n some vector lies in two spheres,
    so the count is skipped.  For a code with fewer than two codewords every
    radius packs; the total structure weight is returned as a cap then.
    """
    _guard_exhaustive(ctx)
    masks = _code_masks(code, ctx.length)
    cap = ctx.total_weight
    if len(masks) < 2:
        return cap
    wt = ctx.weights()
    counts = np.zeros(1 << ctx.length, dtype=np.int64)
    size = 0
    for r in range(cap + 1):
        shell = np.flatnonzero(wt == r)
        size += len(shell)
        if r and len(masks) * size > 1 << ctx.length:
            return r - 1
        counts += _sphere_counts(masks, shell, ctx.length)
        if r and counts.max() > 1:
            return r - 1
    return cap


def covering_radius(code: CodeLike, ctx: MetricContext) -> int:
    """Smallest r with every vector within r of some codeword, by exhaustion.

    Translates of the shells of weight 0, 1, ... are marked until they
    cover the space.
    """
    _guard_exhaustive(ctx)
    masks = _code_masks(code, ctx.length)
    wt = ctx.weights()
    covered = np.zeros(1 << ctx.length, dtype=bool)
    r = -1
    while not covered.all():
        r += 1
        for chunk in _translates(masks, np.flatnonzero(wt == r)):
            covered[chunk] = True
    return r


def _ball(ctx: MetricContext, r: int) -> List[int]:
    """Every mask of weight at most r, without a table over all masks.

    Weight never drops when the support grows, so each mask of the ball is
    reached from the mask without its highest coordinate, which is in the
    ball as well; that makes each mask appear exactly once.
    """
    ball = [0] if r >= 0 else []
    for x in ball:
        for i in range(x.bit_length(), ctx.length):
            y = x | (1 << i)
            if ctx.weight_of_mask(y) <= r:
                ball.append(y)
    return ball


def _split_witness(code: BinaryLinearCode, ball: List[int]) -> Optional[Tuple[int, int]]:
    """The earliest codeword, in codeword_masks order, that splits into two
    parts of the ball, with the largest of its splits' smaller parts.

    Two distinct ball masks in one coset differ by a non-zero codeword c,
    and dropping their common coordinates leaves a split of c inside the
    (downward closed) ball; every split of c is such a pair.  Reducing x by
    the basis in reduced echelon form, each row tagged with its message bits
    above the code length, yields x's coset leader with no pivot coordinate
    and the message of x minus that leader.  In one coset the codewords
    x ^ y have messages m(x) ^ m(y), and the least XOR of two numbers in a
    set is that of two neighbours in sorted order.
    """
    n = code.length
    rows, pivots = _rref([b | 1 << (n + j) for j, b in enumerate(code.basis)], n)
    cosets: dict = {}
    for x in ball:
        v = x
        for row, p in zip(rows, pivots):
            if v >> p & 1:
                v ^= row
        cosets.setdefault(v & ((1 << n) - 1), []).append(v >> n)
    gaps = [a ^ b for msgs in cosets.values() for a, b in pairwise(sorted(msgs))]
    if not gaps:
        return None
    best = min(gaps)
    c = 0
    for j, b in enumerate(code.basis):
        if best >> j & 1:
            c ^= b
    inside = set(ball)
    return c, max(x for x in ball if x & c == x and x < c ^ x and c ^ x in inside)


def check_perfect_conditions(code: BinaryLinearCode, ctx: MetricContext, r: int) -> PerfectReport:
    """Condition-pair perfectness check.

    Sphere condition: the radius-r sphere has exactly 2**(n - k) elements.
    Partition condition: every split {x, y} of every non-zero codeword has
    max(w(x), w(y)) >= r + 1.  Together these are equivalent to the code
    being r-perfect.  The partition condition is decided on the radius-r
    ball alone; the earliest failing codeword and its split with the
    largest smaller part are reported as witness.  A ball past BALL_LIMIT
    masks raises instead of being built, as soon as the fold's running count
    passes the limit, so a refusal costs about BALL_LIMIT closed sets.
    """
    if code.length != ctx.length:
        raise ValueError(f"code length {code.length} != structure dimension {ctx.length}")
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    size = 1  # the empty support, then the supports of each closed set
    for *_, supports in closed_sets(ctx, r):
        size += supports
        if size > BALL_LIMIT:
            raise ValueError(f"radius-{r} ball of {size} masks exceeds ball limit {BALL_LIMIT}")
    expected = 1 << (code.length - code.dimension)
    found = _split_witness(code, _ball(ctx, r))
    witness = None
    if found is not None:
        c, x = found
        witness = (
            BitVector(code.length, c),
            (BitVector(code.length, x), BitVector(code.length, c ^ x)),
        )
    return PerfectReport(size, expected, size == expected, found is None, witness)


def check_weight4_partitions(code: BinaryLinearCode, ctx: MetricContext) -> bool:
    """The radius-2 partition check restricted to weight-4 codewords.

    Only codewords of structure weight exactly 4 can fail a 2/2 split, since
    structure weight dominates Hamming weight and is subadditive over splits.
    Requires minimum Hamming distance 4 (the extended Hamming family).
    """
    if code.length != ctx.length:
        raise ValueError(f"code length {code.length} != structure dimension {ctx.length}")
    if _min_distance_capped(code) != 4:
        raise ValueError("restricted partition check requires minimum Hamming distance 4")
    for c in weight4_codeword_masks(code):
        if ctx.weight_of_mask(c) != 4:
            continue
        bits = []
        m = c
        while m:
            bits.append(m & -m)
            m &= m - 1
        a, b, cc, d = bits
        for x in (a | b, a | cc, a | d):
            y = c ^ x
            if ctx.weight_of_mask(x) <= 2 and ctx.weight_of_mask(y) <= 2:
                return False
    return True


def max_singleton_weight(ctx: MetricContext) -> int:
    """Largest structure weight of a single-coordinate vector."""
    return max(ctx.weight_of_mask(1 << i) for i in range(ctx.length))
