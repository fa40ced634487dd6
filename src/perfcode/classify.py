"""Exhaustive classification of structures admitting a 2-perfect extended
Hamming code, plus the general-k family constructors.

Pipeline: solve the structure-vector equations, enumerate one representative
per isomorphism class of structures realizing each vector, then search all
coordinate labelings modulo structure automorphisms with early rejection of
partial assignments that already violate an even split of a weight-4
codeword.  Negative answers report the exact number of labelings covered, so
the exhaustion is auditable.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .codes import (
    BinaryLinearCode,
    MetricContext,
    check_perfect_conditions,
    extended_hamming,
    weight4_codeword_masks,
)
from .digraph import Digraph
from .poset import Poset
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

def _structure_matrix(structure: Structure) -> Tuple[List[int], List[int]]:
    """Relation rows (self excluded) and per-element color seeds."""
    if isinstance(structure, WeightedPoset):
        rows = [structure.poset.down[i] & ~(1 << i) for i in range(structure.size)]
        colors = list(structure.pi)
    else:
        rows = [0] * structure.n
        for u, v in structure.edges:
            rows[u - 1] |= 1 << (v - 1)
        colors = [0] * structure.n
    return rows, colors


def _refine_classes(rows: List[int], colors: List[int]) -> List[int]:
    """Stable 1-dimensional refinement; returns label-invariant color ints."""
    m = len(rows)
    cols = [0] * m
    for i in range(m):
        r = rows[i]
        while r:
            j = (r & -r).bit_length() - 1
            cols[j] |= 1 << i
            r &= r - 1
    cur = list(colors)
    while True:
        sigs = []
        for i in range(m):
            out_sig = tuple(sorted(cur[j] for j in _bits(rows[i])))
            in_sig = tuple(sorted(cur[j] for j in _bits(cols[i])))
            sigs.append((cur[i], out_sig, in_sig))
        order = {sig: rank for rank, sig in enumerate(sorted(set(sigs)))}
        nxt = [order[sig] for sig in sigs]
        if nxt == cur:
            return cur
        cur = nxt


def _bits(mask: int) -> Iterator[int]:
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _swap_bits(mask: int, p: int, q: int) -> int:
    bp = mask >> p & 1
    bq = mask >> q & 1
    if bp != bq:
        mask ^= (1 << p) | (1 << q)
    return mask


def _transposition_is_automorphism(rows: List[int], p: int, q: int) -> bool:
    if _swap_bits(rows[q], p, q) != rows[p] or _swap_bits(rows[p], p, q) != rows[q]:
        return False
    for i, row in enumerate(rows):
        if i in (p, q):
            continue
        if _swap_bits(row, p, q) != row:
            return False
    return True


def _classes_and_modules(rows: List[int], colors: List[int]) -> Tuple[List[List[int]], List[bool]]:
    refined = _refine_classes(rows, colors)
    by_color: Dict[int, List[int]] = {}
    for i, c in enumerate(refined):
        by_color.setdefault(c, []).append(i)
    classes = [by_color[c] for c in sorted(by_color)]
    modules = []
    for members in classes:
        ok = all(
            _transposition_is_automorphism(rows, members[i], members[j])
            for i in range(len(members))
            for j in range(i + 1, len(members))
        )
        modules.append(ok)
    return classes, modules


def _class_orders(classes: List[List[int]], modules: List[bool]) -> Iterator[Tuple[int, ...]]:
    """Candidate element orders: canonical class order, modules pinned ascending."""
    def rec(idx: int) -> Iterator[Tuple[int, ...]]:
        if idx == len(classes):
            yield ()
            return
        members = classes[idx]
        pool = [tuple(members)] if modules[idx] else permutations(members)
        for head in pool:
            for tail in rec(idx + 1):
                yield head + tail

    yield from rec(0)


def _encode(rows: List[int], colors: List[int], order: Tuple[int, ...]) -> Tuple:
    position = {old: new for new, old in enumerate(order)}
    new_rows = []
    for old in order:
        row = 0
        for j in _bits(rows[old]):
            row |= 1 << position[j]
        new_rows.append(row)
    return (tuple(colors[old] for old in order), tuple(new_rows))


def canonical_form(structure: Structure) -> bytes:
    """Minimum relabeling-invariant encoding; equal iff isomorphic."""
    rows, colors = _structure_matrix(structure)
    if len(rows) > CANONICAL_SIZE_LIMIT:
        raise ValueError(f"size {len(rows)} exceeds canonical-form guard {CANONICAL_SIZE_LIMIT}")
    classes, modules = _classes_and_modules(rows, colors)
    kind = "W" if isinstance(structure, WeightedPoset) else "G"
    best = min(_encode(rows, colors, order) for order in _class_orders(classes, modules))
    return repr((kind, len(rows), best)).encode()


def automorphism_count(structure: Structure) -> int:
    """Order of the automorphism group (weight/edge preserving relabelings)."""
    rows, colors = _structure_matrix(structure)
    classes, modules = _classes_and_modules(rows, colors)
    factor = 1
    for members, is_module in zip(classes, modules):
        if is_module:
            factor *= math.factorial(len(members))
    identity = tuple(i for members in classes for i in members)
    base = _encode(rows, colors, identity)
    if all(modules):
        return factor

    def rec(idx: int, prefix: Tuple[int, ...]) -> int:
        if idx == len(classes):
            return 1 if _encode(rows, colors, prefix) == base else 0
        members = classes[idx]
        if modules[idx]:
            return rec(idx + 1, prefix + tuple(members))
        total = 0
        for perm in permutations(members):
            total += rec(idx + 1, prefix + perm)
        return total

    count = rec(0, ())
    return factor * count


# --- labelings -------------------------------------------------------------

@dataclass(frozen=True)
class LabeledStructure:
    """A structure plus a bijection from its positions to code coordinates."""

    structure: Structure
    labeling: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.structure.generators)
        if sorted(self.labeling) != list(range(1, n + 1)):
            raise ValueError(f"labeling {self.labeling} is not a bijection on 1..{n}")

    def relabeled(self) -> Structure:
        return relabel(self.structure, self.labeling)

    def context(self) -> MetricContext:
        return MetricContext.of(self.relabeled())


def relabel(structure: Structure, labeling: Sequence[int]) -> Structure:
    """Move position p to coordinate labeling[p-1]."""
    lab = tuple(labeling)
    if isinstance(structure, WeightedPoset):
        m = structure.size
        relations = []
        for i in range(1, m + 1):
            for j in _bits(structure.poset.down[i - 1] & ~(1 << (i - 1))):
                relations.append((lab[j], lab[i - 1]))
        pi = [0] * m
        for i in range(m):
            pi[lab[i] - 1] = structure.pi[i]
        return WeightedPoset(Poset.from_relations(m, relations), tuple(pi))
    edges = [(lab[u - 1], lab[v - 1]) for u, v in structure.edges]
    return Digraph.from_edges(structure.n, edges)


@dataclass(frozen=True)
class CheckedLabeling:
    """A fully evaluated labeling and its condition-pair verdict."""

    labeling: Tuple[int, ...]
    conditions_perfect: bool


@dataclass(frozen=True)
class SearchOutcome:
    witness: Optional[LabeledStructure]
    labelings_covered: int
    finals_checked: int


def _search_labelings(structure: Structure, code: BinaryLinearCode, r: int = 2) -> SearchOutcome:
    """Depth-first labeling search with automorphism and split pruning.

    Assignments are built position by position in natural order, coordinates
    ascending, with positions of each fully interchangeable class forced to
    carry ascending coordinates (one representative per orbit of that
    symmetry).  A partial assignment dies as soon as the four coordinates of
    some weight-4 codeword are placed on positions of structure weight 4
    admitting an even split into two halves of weight at most 2.
    """
    ctx = MetricContext.of(structure)
    n = ctx.length
    if n != code.length:
        raise ValueError(f"structure size {n} != code length {code.length}")
    if n > EXHAUSTIVE_SEARCH_LIMIT:
        raise ValueError(f"size {n} exceeds labeling-search guard {EXHAUSTIVE_SEARCH_LIMIT}")
    total = math.factorial(n) // automorphism_count(structure)
    if ctx.sphere_size(r) != 1 << (code.length - code.dimension):
        return SearchOutcome(None, total, 0)

    rows, colors = _structure_matrix(structure)
    classes, modules = _classes_and_modules(rows, colors)
    class_of = [0] * n
    for ci, members in enumerate(classes):
        for p in members:
            class_of[p] = ci
    module_class = [modules[class_of[p]] for p in range(n)]

    wt = ctx.weights().tolist()  # list indexing is faster than numpy scalars here
    w4 = weight4_codeword_masks(code)
    cw_of_coord: List[List[int]] = [[] for _ in range(n)]
    for t, cw in enumerate(w4):
        for c in _bits(cw):
            cw_of_coord[c].append(t)
    remaining = [4] * len(w4)

    assignment = [0] * n      # position index -> coordinate index (0-based)
    pos_of_coord = [-1] * n
    last_in_class = [-1] * len(classes)
    finals = 0
    witness: Optional[LabeledStructure] = None

    def split_violated(t: int) -> bool:
        coords = list(_bits(w4[t]))
        pos = [pos_of_coord[c] for c in coords]
        pmask = 0
        for p in pos:
            pmask |= 1 << p
        if wt[pmask] != 4:
            return False
        p0, p1, p2, p3 = pos
        for x, y in (
            ((1 << p0) | (1 << p1), (1 << p2) | (1 << p3)),
            ((1 << p0) | (1 << p2), (1 << p1) | (1 << p3)),
            ((1 << p0) | (1 << p3), (1 << p1) | (1 << p2)),
        ):
            if wt[x] <= 2 and wt[y] <= 2:
                return True
        return False

    def dfs(p: int) -> bool:
        nonlocal finals, witness
        if p == n:
            finals += 1
            candidate = LabeledStructure(structure, tuple(c + 1 for c in assignment))
            report = check_perfect_conditions(code, candidate.context(), r)
            if report.perfect:
                witness = candidate
                return True
            return False
        ci = class_of[p]
        lower = last_in_class[ci] if module_class[p] else -1
        for c in range(lower + 1, n):
            if pos_of_coord[c] != -1:
                continue
            assignment[p] = c
            pos_of_coord[c] = p
            saved_last = last_in_class[ci]
            last_in_class[ci] = c
            ok = True
            touched = []
            for t in cw_of_coord[c]:
                remaining[t] -= 1
                touched.append(t)
                if remaining[t] == 0 and split_violated(t):
                    ok = False
            if ok and dfs(p + 1):
                return True
            for t in touched:
                remaining[t] += 1
            last_in_class[ci] = saved_last
            pos_of_coord[c] = -1
        return False

    dfs(0)
    return SearchOutcome(witness, total, finals)


def search_labelings(structure: Structure, code: BinaryLinearCode, r: int = 2) -> Optional[LabeledStructure]:
    """First labeling (ascending, one per automorphism orbit) making the code
    r-perfect on the structure, or None once the whole orbit space is ruled out."""
    return _search_labelings(structure, code, r).witness


# --- the classification ----------------------------------------------------

@dataclass(frozen=True)
class ClassEntry:
    vector: StructureVector
    distribution: Tuple[int, ...]
    structure: Structure
    canonical: bytes
    admits: bool
    witness: Optional[LabeledStructure]
    labelings_covered: int
    checked: Tuple[CheckedLabeling, ...]


@dataclass(frozen=True)
class ClassificationReport:
    k: int
    kind: str
    entries: Tuple[ClassEntry, ...]

    def admitting(self) -> List[ClassEntry]:
        return [e for e in self.entries if e.admits]

    def rejected(self) -> List[ClassEntry]:
        return [e for e in self.entries if not e.admits]


def _sample_labelings(structure: Structure, canonical: bytes, n: int,
                      witness: Optional[LabeledStructure]) -> List[Tuple[int, ...]]:
    seed = int.from_bytes(hashlib.sha256(canonical).digest()[:8], "big")
    rng = random.Random(seed)
    sample = [tuple(range(1, n + 1))]
    if witness is not None:
        sample.append(witness.labeling)
    for _ in range(3):
        lab = list(range(1, n + 1))
        rng.shuffle(lab)
        sample.append(tuple(lab))
    return sample


def _classify_entry(code: BinaryLinearCode, v: StructureVector,
                    distribution: Tuple[int, ...], structure: Structure) -> ClassEntry:
    outcome = _search_labelings(structure, code, 2)
    canonical = canonical_form(structure)
    n = code.length
    checked = []
    for lab in _sample_labelings(structure, canonical, n, outcome.witness):
        ls = LabeledStructure(structure, lab)
        report = check_perfect_conditions(code, ls.context(), 2)
        checked.append(CheckedLabeling(lab, report.perfect))
    return ClassEntry(
        vector=v,
        distribution=distribution,
        structure=structure,
        canonical=canonical,
        admits=outcome.witness is not None,
        witness=outcome.witness,
        labelings_covered=outcome.labelings_covered,
        checked=tuple(checked),
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

def _greek_coordinates(code: BinaryLinearCode) -> Tuple[int, ...]:
    """Eight distinct coordinates (a, b, c, d, a', b', c', d') such that
    {a,b,c,d}, {a,b,a',b'}, {a,c,a',c'} and {a,d,a',d'} are codewords.

    Search is depth-first over the free choices (a, b, c, a') in ascending
    coordinate order; the remaining four coordinates are forced, since a
    minimum-distance-4 code completes any three coordinates to at most one
    weight-4 codeword.
    """
    n = code.length
    complete: Dict[int, int] = {}
    for cw in weight4_codeword_masks(code):
        for c in _bits(cw):
            complete[cw ^ (1 << c)] = c + 1

    def done(*coords: int) -> Optional[int]:
        mask = 0
        for x in coords:
            mask |= 1 << (x - 1)
        return complete.get(mask)

    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if b == a:
                continue
            for c in range(1, n + 1):
                if c in (a, b):
                    continue
                d = done(a, b, c)
                if d is None or d in (a, b, c):
                    continue
                for ap in range(1, n + 1):
                    if ap in (a, b, c, d):
                        continue
                    bp = done(a, b, ap)
                    cp = done(a, c, ap)
                    dp = done(a, d, ap)
                    named = [a, b, c, d, ap, bp, cp, dp]
                    if None in named or len(set(named)) != 8:
                        continue
                    return tuple(named)
    raise RuntimeError("no coordinate assignment satisfies the codeword constraints")


def _verify_family(code: BinaryLinearCode, ctx: MetricContext) -> None:
    from .codes import check_weight4_partitions

    expected = 1 << (code.length - code.dimension)
    if ctx.sphere_size(2) != expected:
        raise RuntimeError("family construction violates the sphere condition")
    if not check_weight4_partitions(code, ctx):
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
    a, b, c, d, ap, bp, cp, dp = _greek_coordinates(code)
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
    a, b, c, d, ap, bp, cp, dp = _greek_coordinates(code)
    rest = set(range(1, n + 1)) - {a, ap, b, c, d, cp, dp}
    edges = [(a, ap), (ap, a), (cp, b), (dp, c)] + [(t, d) for t in sorted(rest)]
    g = Digraph.from_edges(n, edges)
    _verify_family(code, MetricContext.of(g))
    return LabeledStructure(g, tuple(range(1, n + 1)))
