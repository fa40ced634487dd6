"""Exhaustive classification of structures admitting a 2-perfect extended
Hamming code, plus the general-k family constructors.

Pipeline: solve the structure-vector equations, enumerate one representative
per isomorphism class of structures realizing each vector, then decide every
coordinate labeling of each representative in one numpy sweep and keep the
least admitting one as the witness.  The sweep reads a labeling table and
codeword landing masks built once per code.  Negative answers report the
number of labelings up to structure automorphism, n!/|Aut|, so the
exhaustion is auditable.

The family constructors put their eight special coordinates at the closed
form `GREEK_COORDINATES` and check every structure they build by the
condition pair of `check_perfect_conditions`.

Canonical forms and automorphism group orders come from one
individualization-refinement search, `_canonical_search`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .codes import (
    BinaryLinearCode,
    MetricContext,
    check_perfect_conditions,
    codeword_masks,
    extended_hamming,
)
from .digraph import Digraph
from .poset import Poset, bits
from .wposet import WeightedPoset

Structure = Union[WeightedPoset, Digraph]

CANONICAL_SIZE_LIMIT = 12
EXHAUSTIVE_SEARCH_LIMIT = 8
FAMILY_K_LIMIT = 5


@dataclass(frozen=True)
class StructureVector:
    """Counts of weight-1 elements, heavy singletons, and two-element ideals."""

    s: int
    a: int
    b: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.s, self.a, self.b)


def solve_structure_vectors(k: int, kind: str) -> List[StructureVector]:
    """All structure vectors compatible with the sphere and size equations.

    The sphere equation pins a = 1 + s(s-3)/2; the size equation then fixes
    b from the ground-set size (weighted posets) or the vertex count
    (digraphs, where each heavy element accounts for two vertices).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if kind not in ("wposet", "digraph"):
        raise ValueError(f"unknown kind {kind!r}")
    size = 1 << k
    out = []
    for s in range(1, size + 1):
        a = 1 + s * (s - 3) // 2
        used = s + (2 * a if kind == "digraph" else a)
        b = size - used
        if b >= 0:
            out.append(StructureVector(s, a, b))
    return out


def _partitions(total: int, max_parts: int) -> Iterator[Tuple[int, ...]]:
    """Partitions of total into at most max_parts parts, descending, lex-descending."""
    def rec(remaining: int, cap: int, parts_left: int) -> Iterator[Tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, parts_left - 1):
                yield (first,) + rest

    yield from rec(total, total if total else 1, max_parts)


def build_wposet_structure(v: StructureVector, distribution: Sequence[int]) -> WeightedPoset:
    """Representative on positions 1..s+a+b: s bottoms, a heavy singletons,
    then tops grouped under their bottoms per the distribution."""
    s, a, b = v.as_tuple()
    if len(distribution) != s or sum(distribution) != b:
        raise ValueError(f"distribution {distribution} does not realize {v.as_tuple()}")
    relations = []
    top = s + a + 1
    for bottom, count in enumerate(distribution, start=1):
        for _ in range(count):
            relations.append((bottom, top))
            top += 1
    poset = Poset.from_relations(s + a + b, relations)
    pi = [1] * (s + a + b)
    for heavy in range(s + 1, s + a + 1):
        pi[heavy - 1] = 2
    return WeightedPoset(poset, tuple(pi))


def build_digraph_structure(v: StructureVector, distribution: Sequence[int]) -> Digraph:
    """Representative on vertices 1..s+2a+b: s sinks, a two-cycles, then
    weight-2 vertices pointing at their sinks per the distribution."""
    s, a, b = v.as_tuple()
    if len(distribution) != s or sum(distribution) != b:
        raise ValueError(f"distribution {distribution} does not realize {v.as_tuple()}")
    edges = []
    for c in range(a):
        u = s + 2 * c + 1
        edges += [(u, u + 1), (u + 1, u)]
    top = s + 2 * a + 1
    for sink, count in enumerate(distribution, start=1):
        for _ in range(count):
            edges.append((top, sink))
            top += 1
    return Digraph.from_edges(s + 2 * a + b, edges)


def enumerate_structures(v: StructureVector, kind: str) -> Iterator[Structure]:
    """One representative per isomorphism class realizing the vector.

    Shapes are forced: every single coordinate must have structure weight at
    most 2, so the only freedom is how the two-element-ideal tops distribute
    over the weight-1 anchors, i.e. a partition of b into at most s parts.
    """
    return (structure for _, structure in _realizations(v, kind))


def _realizations(v: StructureVector, kind: str) -> Iterator[Tuple[Tuple[int, ...], Structure]]:
    """(distribution, representative) for each class realizing the vector."""
    s, a, b = v.as_tuple()
    total = s + 2 * a + b  # total weight and vertex count coincide across kinds
    if total > 16:
        raise ValueError(f"structure scale {total} exceeds desk-scale guard 16")
    build = build_digraph_structure if kind == "digraph" else build_wposet_structure
    for partition in _partitions(b, s):
        distribution = partition + (0,) * (s - len(partition))
        yield distribution, build(v, distribution)


# --- canonical forms -------------------------------------------------------

def _structure_matrix(structure: Structure) -> Tuple[List[int], List[int], List[int]]:
    """Relation rows (self excluded), their transpose, and per-element colors."""
    if isinstance(structure, WeightedPoset):
        rows = [structure.poset.down[i] & ~(1 << i) for i in range(structure.size)]
        colors = list(structure.pi)
    else:
        rows = [0] * structure.n
        for u, v in structure.edges:
            rows[u - 1] |= 1 << (v - 1)
        colors = [0] * structure.n
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    return rows, cols, colors


def _equitable(rows: List[int], cols: List[int], cells: List[List[int]],
               splitters: List[int]) -> List[List[int]]:
    """Refine an ordered partition until it is equitable.

    Each splitter mask splits every cell by its members' out- and
    in-neighbour counts into the mask; the pieces take the cell's place,
    ordered by those counts, and become splitters in turn.  So the result
    depends on the structure and the input, not on the labels.  The caller
    passes every cell the partition may not yet be equitable against: all
    of them at the root, the individualized element below it.
    """
    queue = list(splitters)
    for splitter in queue:  # also visits the pieces appended below
        refined: List[List[int]] = []
        for cell in cells:
            groups: Dict[Tuple[int, int], List[int]] = {}
            if len(cell) > 1:
                for v in cell:
                    key = ((rows[v] & splitter).bit_count(), (cols[v] & splitter).bit_count())
                    groups.setdefault(key, []).append(v)
            if len(groups) > 1:
                pieces = [groups[key] for key in sorted(groups)]
                refined += pieces
                queue += [_mask(piece) for piece in pieces]
            else:
                refined.append(cell)
        cells = refined
    return cells


def _mask(members: List[int]) -> int:
    return sum(1 << v for v in members)


def _root_cells(rows: List[int], cols: List[int],
                colors: List[int]) -> Tuple[List[List[int]], List[int]]:
    """Equitable refinement of the color partition, and for each element the
    mask of its twins: the elements whose transposition with it is an
    automorphism of the relation.

    Colors are left out of the twin masks, which are read only inside a cell.
    Twinhood is transitive, since (p r) = (p q)(q r)(p q), so a cell is a set
    of pairwise twins exactly when its first member's mask covers it.
    """
    by_color: Dict[int, List[int]] = {}
    for i, c in enumerate(colors):
        by_color.setdefault(c, []).append(i)
    cells = [by_color[c] for c in sorted(by_color)]
    twins = []
    for p in range(len(rows)):
        twins.append(_mask([q for q in range(len(rows)) if _are_twins(rows, cols, p, q)]))
    return _equitable(rows, cols, cells, [_mask(cell) for cell in cells]), twins


def _are_twins(rows: List[int], cols: List[int], p: int, q: int) -> bool:
    """(p q) keeps every arc: p and q have the same arcs to and from the
    other elements, and the arc p -> q exactly when q -> p."""
    others = ~(1 << p | 1 << q)
    return (not (rows[p] ^ rows[q]) & others and not (cols[p] ^ cols[q]) & others
            and rows[p] >> q & 1 == rows[q] >> p & 1)


def _is_twin_cell(cell: List[int], twins: List[int]) -> bool:
    return all(twins[cell[0]] >> v & 1 for v in cell)


def _encode(rows: List[int], colors: List[int], order: Tuple[int, ...]) -> Tuple:
    position = {old: new for new, old in enumerate(order)}
    new_rows = []
    for old in order:
        row = 0
        for j in bits(rows[old]):
            row |= 1 << position[j]
        new_rows.append(row)
    return (tuple(colors[old] for old in order), tuple(new_rows))


def _canonical_search(structure: Structure) -> Tuple[Tuple, int]:
    """Least leaf certificate and |Aut| by individualization-refinement.

    Each node individualizes a member of the first non-singleton cell of an
    equitable partition and refines again (McKay and Piperno, "Practical
    graph isomorphism II", J. Symb. Comput. 60, 2014).  A cell of pairwise
    twins is entered through its first member only, with the leaf weight
    multiplied by its size: a transposition inside it fixes the path so far
    and maps each sibling's subtree onto the first one's, certificates
    included.  The leaves whose certificate equals the first leaf's form
    one orbit of Aut, which acts on them freely, so their weighted count
    is |Aut|.
    """
    rows, cols, colors = _structure_matrix(structure)
    cells, twins = _root_cells(rows, cols, colors)
    leaves: List[Tuple[Tuple, int]] = []  # (certificate, weight) in search order

    def visit(cells: List[List[int]], weight: int) -> None:
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            leaves.append((_encode(rows, colors, tuple(cell[0] for cell in cells)), weight))
            return
        cell = cells[target]
        if _is_twin_cell(cell, twins):
            branches, weight = cell[:1], weight * len(cell)
        else:
            branches = cell
        for v in branches:
            split = cells[:target] + [[v], [u for u in cell if u != v]] + cells[target + 1:]
            visit(_equitable(rows, cols, split, [1 << v]), weight)

    visit(cells, 1)
    first = leaves[0][0]
    return min(cert for cert, _ in leaves), sum(w for cert, w in leaves if cert == first)


def canonical_form(structure: Structure) -> bytes:
    """Least leaf certificate of the refinement search; equal iff isomorphic."""
    n = len(structure.generators)
    if n > CANONICAL_SIZE_LIMIT:
        raise ValueError(f"size {n} exceeds canonical-form guard {CANONICAL_SIZE_LIMIT}")
    kind = "W" if isinstance(structure, WeightedPoset) else "G"
    return repr((kind, n, _canonical_search(structure)[0])).encode()


def automorphism_count(structure: Structure) -> int:
    """Order of the automorphism group (weight/edge preserving relabelings)."""
    return _canonical_search(structure)[1]


# --- labelings -------------------------------------------------------------

@dataclass(frozen=True)
class LabeledStructure:
    """A structure plus a bijection from its positions to code coordinates."""

    structure: Structure
    labeling: Tuple[int, ...]

    def __post_init__(self) -> None:
        _bijection(self.labeling, len(self.structure.generators))

    def relabeled(self) -> Structure:
        return relabel(self.structure, self.labeling)

    def context(self) -> MetricContext:
        return MetricContext.of(self.relabeled())


def _bijection(labeling: Sequence[int], n: int) -> Tuple[int, ...]:
    lab = tuple(labeling)
    if sorted(lab) != list(range(1, n + 1)):
        raise ValueError(f"labeling {lab} is not a bijection on 1..{n}")
    return lab


def relabel(structure: Structure, labeling: Sequence[int]) -> Structure:
    """Move position p to coordinate labeling[p-1], a bijection on 1..n."""
    lab = _bijection(labeling, len(structure.generators))
    if isinstance(structure, WeightedPoset):
        down = [0] * structure.size
        pi = [0] * structure.size
        for i, (d, w) in enumerate(zip(structure.poset.down, structure.pi)):
            down[lab[i] - 1] = sum(1 << (lab[j] - 1) for j in bits(d))
            pi[lab[i] - 1] = w
        return WeightedPoset(Poset(structure.size, tuple(down)), tuple(pi))
    return Digraph.from_edges(structure.n, [(lab[u - 1], lab[v - 1]) for u, v in structure.edges])


def _lex_permutations(n: int) -> np.ndarray:
    """Every permutation of range(n) as a uint8 row, in lexicographic order.

    The permutations of range(m) starting with f are f followed by those of
    range(m - 1) with the values at or above f shifted up by one, a monotone
    map, so each block stays in order.
    """
    table = np.zeros((1, 0), dtype=np.uint8)
    for m in range(1, n + 1):
        first = np.repeat(np.arange(m, dtype=np.uint8), len(table))[:, None]
        rest = np.tile(table, (m, 1))
        rest += rest >= first
        table = np.hstack([first, rest])
    return table


@lru_cache(maxsize=4)
def _labeling_landings(code: BinaryLinearCode) -> Tuple[np.ndarray, np.ndarray]:
    """The lexicographic labeling table of the code's length, and for each
    non-zero codeword c and labeling row the mask of the positions that carry
    a coordinate of c, both read-only.

    The landing masks depend on the codewords, so the cache is keyed by code;
    `search_labelings` guards the length at 8, so masks fit in uint8.
    """
    labelings = _lex_permutations(code.length)
    position_bits = (1 << np.arange(code.length)).astype(np.uint8)
    words = codeword_masks(code)[1:]
    landing = np.empty((len(words), len(labelings)), dtype=np.uint8)
    for i, cw in enumerate(words):
        landing[i] = ((np.uint8(cw) >> labelings) & 1) @ position_bits
    labelings.flags.writeable = False
    landing.flags.writeable = False
    return labelings, landing


def search_labelings(structure: Structure, code: BinaryLinearCode, r: int = 2) -> Optional[LabeledStructure]:
    """Least labeling, in lexicographic order, that makes the code r-perfect
    on the structure, or None when no labeling does.

    All n! labelings are decided at once.  Once the sphere size is
    2**(n - dim), the code is r-perfect exactly when the codeword spheres are
    disjoint, that is when no non-zero codeword is x ^ y with x and y in the
    ball B_r; this holds for every code and every radius.  Row i of the
    labeling table holds the coordinate of each position, so under it a
    codeword lands on the mask of the positions carrying its coordinates,
    which is looked up in the table of B_r ^ B_r.  The table and the landing
    masks depend only on the code, so they are built once per code and each
    structure costs one lookup.

    The least admitting labeling puts ascending coordinates on each cell of
    pairwise twins: swapping two twin positions composes the labeling with an
    automorphism, which keeps it admitting, and sorting a cell never makes
    the labeling larger.  So it is also the first admitting labeling among
    those with ascending twin cells.
    """
    ctx = MetricContext.of(structure)
    n = ctx.length
    if n != code.length:
        raise ValueError(f"structure size {n} != code length {code.length}")
    if n > EXHAUSTIVE_SEARCH_LIMIT:
        raise ValueError(f"size {n} exceeds labeling-search guard {EXHAUSTIVE_SEARCH_LIMIT}")
    if ctx.sphere_size(r) != 1 << (n - code.dimension):
        return None
    ball = np.flatnonzero(ctx.weights() <= r)
    meets = np.zeros(1 << n, dtype=bool)
    meets[ball[:, None] ^ ball[None, :]] = True
    labelings, landing = _labeling_landings(code)
    admits = ~meets[landing].any(axis=0)
    first = int(admits.argmax())
    if not admits[first]:
        return None
    return LabeledStructure(structure, tuple(c + 1 for c in labelings[first].tolist()))


# --- the classification ----------------------------------------------------

@dataclass(frozen=True)
class ClassEntry:
    vector: StructureVector
    distribution: Tuple[int, ...]
    structure: Structure
    admits: bool
    witness: Optional[LabeledStructure]
    labelings_covered: int


@dataclass(frozen=True)
class ClassificationReport:
    k: int
    kind: str
    entries: Tuple[ClassEntry, ...]

    def admitting(self) -> List[ClassEntry]:
        return [e for e in self.entries if e.admits]

    def rejected(self) -> List[ClassEntry]:
        return [e for e in self.entries if not e.admits]


def _classify_entry(code: BinaryLinearCode, v: StructureVector,
                    distribution: Tuple[int, ...], structure: Structure) -> ClassEntry:
    witness = search_labelings(structure, code, 2)
    return ClassEntry(
        vector=v,
        distribution=distribution,
        structure=structure,
        admits=witness is not None,
        witness=witness,
        labelings_covered=math.factorial(code.length) // automorphism_count(structure),
    )


def classify(k: int, kind: str) -> ClassificationReport:
    """Full sweep at k=3: structure vectors, iso-classes, labeling search."""
    if k != 3:
        raise ValueError(f"exhaustive classification is desk-scale only at k=3, got k={k}")
    code = extended_hamming(k)
    entries = tuple(
        _classify_entry(code, v, distribution, structure)
        for v in solve_structure_vectors(k, kind)
        for distribution, structure in _realizations(v, kind)
    )
    return ClassificationReport(k, kind, entries)


# --- general-k families ----------------------------------------------------

# Coordinate i carries the point i-1 of F_2^k in extended_hamming(k)'s parity
# check, and the all-ones row asks only for an even count.  The point sets
# {0,1,2,3}, {0,1,4,5}, {0,2,4,6} and {0,3,4,7} each XOR to 0, so with
# (a, b, c, d, a', b', c', d') = (1, ..., 8) the sets {a,b,c,d}, {a,b,a',b'},
# {a,c,a',c'} and {a,d,a',d'} are codewords at every k >= 3.
GREEK_COORDINATES = (1, 2, 3, 4, 5, 6, 7, 8)


def _verify_family(code: BinaryLinearCode, ctx: MetricContext) -> None:
    report = check_perfect_conditions(code, ctx, 2)
    if not report.sphere_condition:
        raise RuntimeError("family construction violates the sphere condition")
    if not report.partition_condition:
        raise RuntimeError("family construction violates the partition condition")


def build_family_wposet(k: int, variant: int) -> LabeledStructure:
    """The two weighted-poset families, on code coordinates directly.

    Variant 1 realizes (3, 1, 2**k - 4): three bare weight-1 anchors, one
    heavy singleton, everything else above the first anchor.  Variant 2
    realizes (4, 3, 2**k - 7): four weight-1 anchors, three heavy
    singletons, the rest above the first anchor.
    """
    if not 3 <= k <= FAMILY_K_LIMIT:
        raise ValueError(f"k must be in 3..{FAMILY_K_LIMIT}, got {k}")
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    code = extended_hamming(k)
    n = code.length
    a, b, c, d, ap, bp, cp, dp = GREEK_COORDINATES
    pi = [1] * n
    if variant == 1:
        anchored = set(range(1, n + 1)) - {a, b, c, d}
        pi[d - 1] = 2
    else:
        anchored = set(range(1, n + 1)) - {a, b, c, d, bp, cp, dp}
        for heavy in (bp, cp, d):
            pi[heavy - 1] = 2
    relations = [(a, t) for t in sorted(anchored)]
    wp = WeightedPoset(Poset.from_relations(n, relations), tuple(pi))
    _verify_family(code, MetricContext.of(wp))
    return LabeledStructure(wp, tuple(range(1, n + 1)))


def build_family_digraph(k: int) -> LabeledStructure:
    """The digraph family realizing (3, 1, 2**k - 5), on code coordinates.

    One two-cycle, three sinks, and weight-2 vertices wired so the four
    codeword constraints hold: c' points at b, d' points at c, and every
    other vertex (including b') points at d.
    """
    if not 3 <= k <= FAMILY_K_LIMIT:
        raise ValueError(f"k must be in 3..{FAMILY_K_LIMIT}, got {k}")
    code = extended_hamming(k)
    n = code.length
    a, b, c, d, ap, bp, cp, dp = GREEK_COORDINATES
    rest = set(range(1, n + 1)) - {a, ap, b, c, d, cp, dp}
    edges = [(a, ap), (ap, a), (cp, b), (dp, c)] + [(t, d) for t in sorted(rest)]
    g = Digraph.from_edges(n, edges)
    _verify_family(code, MetricContext.of(g))
    return LabeledStructure(g, tuple(range(1, n + 1)))
