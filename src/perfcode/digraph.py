"""Simple directed graphs, the domination metric, and the two constructions
tying digraphs to weighted posets.

The domination metric is the closure metric of the reach-sets with unit
weights, so the g_* functions name wposet's one implementation for digraphs.
The reach-sets come from poset.transitive_closure, which also closes a
poset's relations.

A digraph induces a weighted poset by collapsing strongly connected
components, the vertices with one reach-set, whose sizes become the
element weights; the reach-sets already give the quotient order.  A
weighted poset induces a digraph by blowing each element up into a
directed cycle of its weight.  Condensing an expansion recovers the
weighted poset; expanding a condensation generally loses edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set, Tuple

import numpy as np

from .bitvec import BitVector, add
from .poset import Poset, bits, closure_mask, components, transitive_closure
from .wposet import (WeightedPoset, closure_weight, sphere_size_formula, sphere_size_oracle,
                     weight_planes, weight_table)


@dataclass(frozen=True)
class Digraph:
    """Digraph on vertices 1..n without loops or duplicate edges.

    reach[v-1] holds v plus everything reachable from v, as a mask.
    """

    n: int
    edges: Tuple[Tuple[int, int], ...]
    reach: Tuple[int, ...] = field(compare=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Digraph":
        if n < 1 or n > 64:
            raise ValueError(f"vertex count must be in 1..64, got {n}")
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {u} -> {v} out of range 1..{n}")
            if u == v:
                raise ValueError(f"loop {u} -> {v} not allowed")
            seen.add((u, v))
        ordered = tuple(sorted(seen))
        return cls(n, ordered, tuple(transitive_closure(n, ordered)))

    @property
    def generators(self) -> Tuple[int, ...]:
        return self.reach

    @property
    def pi(self) -> Tuple[int, ...]:
        return (1,) * self.n

    def weight_of_mask(self, mask: int) -> int:
        return closure_weight(self.reach, weight_planes(self.pi), mask)


@dataclass(frozen=True)
class BlockMap:
    """A partition of n vertex coordinates into m ordered blocks.

    Block order is the quotient coordinate order; within a block the first
    member is the representative.  Produced by condense (blocks sorted by
    their maximum vertex label) and by expand (blocks are consecutive runs).
    """

    n: int
    m: int
    blocks: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.m != len(self.blocks):
            raise ValueError(f"{len(self.blocks)} blocks for m={self.m}")
        seen: Set[int] = set()
        total = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            seen.update(block)
            total += len(block)
        if total != self.n or seen != set(range(1, self.n + 1)):
            raise ValueError(f"blocks do not partition 1..{self.n}")

    def block_masks(self) -> Tuple[int, ...]:
        return tuple(sum(1 << (v - 1) for v in block) for block in self.blocks)

    def representatives(self) -> Tuple[int, ...]:
        return tuple(block[0] for block in self.blocks)

    def quotient_labels(self) -> Tuple[str, ...]:
        """One label per quotient coordinate: the block's maximum vertex label."""
        return tuple(str(max(block)) for block in self.blocks)

    def vertex_labels(self) -> Tuple[str, ...]:
        """One label per vertex coordinate: element label, primed for fresh copies."""
        labels = [""] * self.n
        for q, block in enumerate(self.blocks, start=1):
            for copy, v in enumerate(block):
                labels[v - 1] = str(q) + "′" * copy
        return tuple(labels)


def dominated_closure(g: Digraph, vertices: Iterable[int]) -> Set[int]:
    """The given vertices plus everything they dominate."""
    mask = 0
    for v in vertices:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
        mask |= 1 << (v - 1)
    out = closure_mask(g.reach, mask)
    return {i + 1 for i in range(g.n) if out >> i & 1}


def g_weight(g: Digraph, x: BitVector) -> int:
    """Size of the domination closure of the support of x."""
    if x.length != g.n:
        raise ValueError(f"vector length {x.length} != vertex count {g.n}")
    return g.weight_of_mask(x.bits)


def g_distance(g: Digraph, x: BitVector, y: BitVector) -> int:
    return g_weight(g, add(x, y))


def condense(g: Digraph) -> Tuple[WeightedPoset, BlockMap]:
    """Collapse strongly connected components into a weighted poset.

    Two vertices are identified when they have one reach-set, that is when
    each reaches the other; the down-set of a component is the set of
    components its reach-set meets, already transitive.  Element weights are
    component sizes.  Quotient coordinates are ordered by the maximum vertex
    label of each component.
    """
    comps = sorted(components(g.reach).items(), key=lambda item: item[1].bit_length())
    blocks = tuple(tuple(v + 1 for v in bits(members)) for _, members in comps)
    down = tuple(sum(1 << b for b, (_, members) in enumerate(comps) if members & reach)
                 for reach, _ in comps)
    pi = tuple(members.bit_count() for _, members in comps)
    return WeightedPoset(Poset(len(comps), down), pi), BlockMap(g.n, len(comps), blocks)


def expand(wp: WeightedPoset) -> Tuple[Digraph, BlockMap]:
    """Blow each element up into a directed cycle of length its weight.

    Element a becomes vertices a0..a_{pi(a)-1} arranged in a cycle (a single
    vertex when pi(a) = 1); representatives inherit the order relation as
    edges a0 -> b0 for every strict pair b below a, transitive pairs
    included.  Fresh vertices follow their representative consecutively,
    elements processed in ascending label order.
    """
    blocks: List[Tuple[int, ...]] = []
    next_label = 1
    for a in range(1, wp.size + 1):
        w = wp.pi[a - 1]
        blocks.append(tuple(range(next_label, next_label + w)))
        next_label += w
    n = next_label - 1
    edges: List[Tuple[int, int]] = []
    for a in range(1, wp.size + 1):
        block = blocks[a - 1]
        if len(block) > 1:
            for idx, v in enumerate(block):
                edges.append((v, block[(idx + 1) % len(block)]))
        for b in bits(wp.poset.down[a - 1] & ~(1 << (a - 1))):
            edges.append((block[0], blocks[b][0]))
    bm = BlockMap(n, wp.size, tuple(blocks))
    return Digraph.from_edges(n, edges), bm


def g_weight_table(g: Digraph) -> np.ndarray:
    """Domination weights of all 2**n masks, indexed by mask."""
    return weight_table(g)


def g_sphere_size_oracle(g: Digraph, x: BitVector, r: int) -> int:
    """Brute-force count of vectors within distance r of x."""
    return sphere_size_oracle(g, x, r)


def g_sphere_size_formula(g: Digraph, r: int) -> int:
    """Sphere cardinality at radius r from the closed-set fold, at every radius."""
    return sphere_size_formula(g, r)
