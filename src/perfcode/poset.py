"""Finite posets with order-ideal machinery.

The strict order is stored transitively closed as one down-set bitmask per
element, so closing a subset under the order is a union of member masks.
Input may be given as cover relations; the closure is computed once at
construction, by the transitive closure that digraphs share, and the
instance is immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

IDEAL_ENUM_LIMIT = 20


def closure_mask(generators: Sequence[int], mask: int) -> int:
    """Union of generators[i] over the coordinates i of the mask."""
    out = 0
    while mask:
        out |= generators[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return out


def transitive_closure(n: int, arcs: Sequence[Tuple[int, int]]) -> List[int]:
    """reach[u-1]: u and every vertex reachable from u along the arcs (u, v)
    on 1..n, as a mask; a fixpoint of reach[u-1] |= reach[v-1] over the arcs."""
    reach = [1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for u, v in arcs:
            merged = reach[u - 1] | reach[v - 1]
            if merged != reach[u - 1]:
                reach[u - 1] = merged
                changed = True
    return reach


def components(generators: Sequence[int]) -> Dict[int, int]:
    """{generator: mask of the coordinates having it}, in order of each
    group's least coordinate.  Coordinates share a generator exactly when
    each lies in the other's closure: these are the strong components."""
    out: Dict[int, int] = {}
    for u, g in enumerate(generators):
        out[g] = out.get(g, 0) | 1 << u
    return out


def bits(mask: int) -> Iterator[int]:
    """The 0-based coordinates of the mask, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


@dataclass(frozen=True)
class Poset:
    """Poset on elements 1..size; down[i-1] is the mask of ⟨i⟩ including i."""

    size: int
    down: Tuple[int, ...]

    @classmethod
    def from_relations(cls, size: int, relations: Iterable[Tuple[int, int]]) -> "Poset":
        """Build from strict relations (j, i) meaning j is strictly below i.

        Relations may be covers or any subset of the strict order; the
        transitive closure is taken.  Cycles violate antisymmetry and raise.
        """
        if size < 1:
            raise ValueError(f"poset size must be positive, got {size}")
        if size > 64:
            raise ValueError(f"poset size {size} exceeds 64")
        arcs = []
        for j, i in relations:
            if not (1 <= j <= size and 1 <= i <= size):
                raise ValueError(f"relation {j} < {i} out of range 1..{size}")
            if j == i:
                raise ValueError(f"reflexive relation {j} < {i}")
            arcs.append((i, j))
        down = transitive_closure(size, arcs)
        for i in range(size):
            for j in range(i + 1, size):
                if down[i] >> j & 1 and down[j] >> i & 1:
                    raise ValueError(f"elements {j + 1} and {i + 1} lie on a cycle")
        return cls(size, tuple(down))

    @classmethod
    def antichain(cls, size: int) -> "Poset":
        return cls.from_relations(size, [])

    @classmethod
    def chain(cls, size: int) -> "Poset":
        return cls.from_relations(size, [(i, i + 1) for i in range(1, size)])

    def strictly_below(self, j: int, i: int) -> bool:
        """True iff j ≺ i."""
        return j != i and bool(self.down[i - 1] >> (j - 1) & 1)

    def close_mask(self, mask: int) -> int:
        """Smallest order ideal containing the mask, as a mask."""
        return closure_mask(self.down, mask)

    def maximal_mask(self, mask: int) -> int:
        """Members of the mask strictly below no other member."""
        below = 0
        for j in bits(mask):
            below |= self.down[j] & ~(1 << j)
        return mask & ~below

    def cover_relations(self) -> Iterator[Tuple[int, int]]:
        """Yield the covers (j, i), j covered by i, in ascending order: the
        j are the maximal elements of the strict down-set of i."""
        for i in range(self.size):
            for j in bits(self.maximal_mask(self.down[i] & ~(1 << i))):
                yield (j + 1, i + 1)


def _mask_of(size: int, elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        if not 1 <= e <= size:
            raise ValueError(f"element {e} out of range 1..{size}")
        mask |= 1 << (e - 1)
    return mask


def _set_of(mask: int) -> Set[int]:
    return {i + 1 for i in bits(mask)}


def ideal_closure(p: Poset, elements: Iterable[int]) -> Set[int]:
    """The smallest order ideal of p containing the given elements."""
    return _set_of(p.close_mask(_mask_of(p.size, elements)))


def is_order_ideal(p: Poset, elements: Iterable[int]) -> bool:
    """True iff the set is down-closed."""
    mask = _mask_of(p.size, elements)
    return p.close_mask(mask) == mask


def maximal_elements(p: Poset, ideal: Iterable[int]) -> Set[int]:
    """Maximal elements of an order ideal; raises if the set is not an ideal."""
    mask = _mask_of(p.size, ideal)
    if p.close_mask(mask) != mask:
        raise ValueError(f"{sorted(_set_of(mask))} is not an order ideal")
    return _set_of(p.maximal_mask(mask))


def enumerate_order_ideals(p: Poset) -> Iterator[Set[int]]:
    """Yield every order ideal of p exactly once."""
    if p.size > IDEAL_ENUM_LIMIT:
        raise ValueError(f"poset size {p.size} exceeds ideal-enumeration guard {IDEAL_ENUM_LIMIT}")
    for mask in range(1 << p.size):
        if p.close_mask(mask) == mask:
            yield _set_of(mask)
