"""Seeded inputs, operations and known answers of the benchmark workloads.

Inputs are plain tuples made from the seed alone, plus, where a workload
relabels structures the library builds, those structures' plain data, so
two commits given one seed run identical inputs and the input digest shows
it.  An operation turns its input into perfcode objects and asks for
verdicts; `check` applies the workload's known-answer rule to the result.
Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from plan import CLI_MAIN

clf = importlib.import_module("perfcode.classify")
codes = importlib.import_module("perfcode.codes")
dg = importlib.import_module("perfcode.digraph")
pos = importlib.import_module("perfcode.poset")
tr = importlib.import_module("perfcode.transfer")
wpo = importlib.import_module("perfcode.wposet")

BENCH_DIR = Path(__file__).resolve().parent

# --- plain-data generators ---------------------------------------------------


def independent(vectors: Sequence[int]) -> bool:
    """Whether the masks are linearly independent over GF(2)."""
    span = {0}
    for v in vectors:
        if v in span:
            return False
        span |= {s ^ v for s in span}
    return True


def affine_labeling(rng: random.Random, k: int) -> Tuple[int, ...]:
    """Labeling i -> A(i-1) + b + 1 with A invertible over GF(2)^k.

    Such a map permutes the codewords of extended_hamming(k): it keeps every
    codeword's size even and maps its column sum to A times that sum.
    """
    n = 1 << k
    while True:
        cols = [rng.randrange(1, n) for _ in range(k)]
        if independent(cols):
            break
    b = rng.randrange(n)
    out = []
    for x in range(n):
        y = b
        for j in range(k):
            if x >> j & 1:
                y ^= cols[j]
        out.append(y + 1)
    return tuple(out)


def random_permutation(rng: random.Random, n: int) -> Tuple[int, ...]:
    lab = list(range(1, n + 1))
    rng.shuffle(lab)
    return tuple(lab)


def random_basis(rng: random.Random, n: int, dim: int) -> Tuple[int, ...]:
    while True:
        basis = [rng.randrange(1, 1 << n) for _ in range(dim)]
        if independent(basis):
            return tuple(basis)


def structure_data(s) -> Tuple:
    """Kind, size, weights and strict relations (low, high) or edges (u, v)."""
    if isinstance(s, wpo.WeightedPoset):
        rels = tuple(
            (j + 1, i + 1)
            for i in range(s.size)
            for j in range(s.size)
            if j != i and s.poset.down[i] >> j & 1
        )
        return ("W", s.size, tuple(s.pi), rels)
    return ("G", s.n, (1,) * s.n, tuple(s.edges))


def relabeled_key(data: Tuple, lab: Sequence[int]) -> Tuple:
    """Identity of the structure that position p takes to coordinate lab[p-1]."""
    kind, n, pi, rels = data
    new_pi = [0] * n
    for i, w in enumerate(pi):
        new_pi[lab[i] - 1] = w
    return (kind, tuple(new_pi), frozenset((lab[u - 1], lab[v - 1]) for u, v in rels))


def shape_automorphisms(kind: str, vector: Tuple[int, int, int], dist: Sequence[int]) -> int:
    """|Aut| of a split star from its parameters.

    Heavy singletons (two-cycles for digraphs, each with its own swap) permute
    freely; anchors with equal top counts permute together with their tops;
    tops over one anchor permute freely.
    """
    _, a, _ = vector
    total = math.factorial(a) * (2 ** a if kind == "digraph" else 1)
    for tops, anchors in Counter(dist).items():
        total *= math.factorial(anchors) * math.factorial(tops) ** anchors
    return total


def _context(s):
    if isinstance(s, wpo.WeightedPoset):
        return codes.MetricContext.for_wposet(s)
    return codes.MetricContext.for_digraph(s)


def _family(k: int, kind: int):
    if kind == 2:
        return clf.build_family_digraph(k)
    return clf.build_family_wposet(k, kind + 1)


def _distinct_stream(rng, bases, draw, seen) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """(kind, labeling) cycling through the bases; every structure is new to `seen`."""
    i = 0
    while True:
        kind = i % len(bases)
        while True:
            lab = draw(rng)
            key = relabeled_key(bases[kind], lab)
            if key not in seen:
                seen.add(key)
                break
        yield kind, lab
        i += 1


# --- workloads ---------------------------------------------------------------


class Workload:
    """prepare() builds shared objects untimed; run() is one timed operation."""

    name = ""

    def prepare(self) -> Dict[str, Any]:
        return {}

    def inputs(self, seed: int, shared: Dict[str, Any]) -> Iterator[Any]:
        raise NotImplementedError

    def run(self, inp: Any, shared: Dict[str, Any], op: int) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, result: Any, shared: Dict[str, Any]) -> bool:
        raise NotImplementedError

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")


WITNESS_LINE = re.compile(
    r"vector=\((\d+),(\d+),(\d+)\) distribution=\(([\d,]*)\) admits=true witness=([\d,]+)$"
)


class ClassifyK3(Workload):
    """`perfcode classify --k 3` for both kinds, each in a fresh interpreter."""

    name = "classify-k3"
    EXPECTED = {"wposet": (10, 6), "digraph": (8, 4)}

    def prepare(self):
        return {"code": codes.extended_hamming(3)}

    def inputs(self, seed, shared):
        while True:
            yield ("wposet", "digraph")

    def run(self, inp, shared, op):
        outs = []
        for kind in inp:
            argv = ["classify", "--k", "3", "--kind", kind]
            if shared.get("serial"):
                # Passes over the fixed input set, traced or not, run serially,
                # so spans of one entry never overlap another's.
                argv += ["--threads", "1"]
            if shared.get("trace_dir") is None:
                cmd = [sys.executable, "-c", CLI_MAIN] + argv
            else:
                out = Path(shared["trace_dir"]) / f"cli-{op}-{kind}.json"
                cmd = [sys.executable, str(BENCH_DIR / "cli_trace.py"), str(out), str(op)] + argv
            # Users run the CLI unpinned, so it gets every CPU back (a process
            # pool in classify must be able to show its gain).
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                  preexec_fn=lambda: os.sched_setaffinity(0, shared["cpus"]))
            if proc.returncode != 0:
                raise RuntimeError(f"classify --kind {kind} exited {proc.returncode}: {proc.stderr.strip()}")
            outs.append(proc.stdout)
        return tuple(outs)

    def check(self, inp, result, shared):
        for kind, text in zip(inp, result):
            classes, admitting = self.EXPECTED[kind]
            lines = text.splitlines()
            if lines[0] != f"kind={kind} k=3 classes={classes} admitting={admitting}":
                return False
            witnesses = [WITNESS_LINE.match(line) for line in lines[1:] if "admits=true" in line]
            if len(lines) != 1 + classes or len(witnesses) != admitting:
                return False
            for m in witnesses:
                if m is None or not self._witness_holds(kind, m, shared["code"]):
                    return False
        return True

    @staticmethod
    def _witness_holds(kind, m, code) -> bool:
        vector = tuple(int(m.group(i)) for i in (1, 2, 3))
        dist = tuple(int(d) for d in m.group(4).split(",") if d)
        labeling = tuple(int(c) for c in m.group(5).split(","))
        structure = clf.relabel(build_shape(kind, vector, dist), labeling)
        return codes.is_r_perfect(code, _context(structure), 2)


class VerifyH4(Workload):
    """One op: an h4-automorphic relabeling of a k=4 family structure (yes) and a
    random permutation of the same structure, each decided by both routes."""

    name = "verify-h4"

    def prepare(self):
        bases = [_family(4, kind).structure for kind in range(3)]
        return {"code": codes.extended_hamming(4), "bases": bases,
                "data": [structure_data(s) for s in bases]}

    def inputs(self, seed, shared):
        rng = self.rng(seed)
        seen = set()
        yes = _distinct_stream(rng, shared["data"], lambda r: affine_labeling(r, 4), seen)
        no = _distinct_stream(rng, shared["data"], lambda r: random_permutation(r, 16), seen)
        for (kind, y), (_, n) in zip(yes, no):
            yield (kind, y, n)

    def run(self, inp, shared, op):
        kind, yes, no = inp
        out = []
        for lab in (yes, no):
            ctx = _context(clf.relabel(shared["bases"][kind], lab))
            out.append(codes.check_perfect_conditions(shared["code"], ctx, 2).perfect)
            out.append(codes.is_r_perfect(shared["code"], ctx, 2))
        return tuple(out)

    def check(self, inp, result, shared):
        yes_cond, yes_exh, no_cond, no_exh = result
        return yes_cond is True and yes_exh is True and no_cond == no_exh


class RadiiTransfer(Workload):
    """One op: collapse a random cyclic digraph and compare covering radii, then
    expand a random weighted poset and compare packing radii."""

    name = "radii-transfer"

    def inputs(self, seed, shared):
        rng = self.rng(seed)
        while True:
            yield (self._collapse_input(rng), self._expand_input(rng))

    @staticmethod
    def _collapse_input(rng):
        n = rng.randint(10, 14)
        order = random_permutation(rng, n)
        edges = set()
        start = 0
        for _ in range(rng.randint(1, 3)):
            cycle = order[start:start + rng.randint(2, 4)]
            start += len(cycle)
            if len(cycle) < 2:
                break
            for i, u in enumerate(cycle):
                edges.add((u, cycle[(i + 1) % len(cycle)]))
        for _ in range(rng.randint(n // 2, n)):
            u, v = rng.sample(range(1, n + 1), 2)
            edges.add((u, v))
        return (n, tuple(sorted(edges)), random_basis(rng, n, rng.randint(2, 5)))

    @staticmethod
    def _expand_input(rng):
        m = rng.randint(6, 10)
        pi = [1] * m
        for _ in range(rng.randint(0, 15 - m)):
            pi[rng.randrange(m)] += 1
        rels = tuple((j, i) for i in range(2, m + 1) for j in range(1, i) if rng.random() < 0.2)
        return (m, tuple(pi), rels, random_basis(rng, m, rng.randint(1, 4)))

    def run(self, inp, shared, op):
        (n, edges, basis), (m, pi, rels, basis2) = inp
        g = dg.Digraph.from_edges(n, edges)
        wp, bm = dg.condense(g)
        code = codes.BinaryLinearCode.from_basis(n, basis)
        words = list(codes.codewords(code))
        image = tr.map_code_collapse(bm, words)
        cov_code = codes.covering_radius(code, codes.MetricContext.for_digraph(g))
        cov_image = codes.covering_radius(image, codes.MetricContext.for_wposet(wp))

        wp2 = wpo.WeightedPoset(pos.Poset.from_relations(m, rels), pi)
        g2, bm2 = dg.expand(wp2)
        code2 = codes.BinaryLinearCode.from_basis(m, basis2)
        image2 = tr.map_code_expand(bm2, list(codes.codewords(code2)))
        pack_code = codes.packing_radius(code2, codes.MetricContext.for_wposet(wp2))
        pack_image = codes.packing_radius(image2, codes.MetricContext.for_digraph(g2))
        return (cov_code, cov_image, len(words), len(image), pack_code, pack_image)

    def check(self, inp, result, shared):
        cov_code, cov_image, words, image, pack_code, pack_image = result
        return cov_image <= cov_code and 1 <= image <= words and pack_image >= pack_code


def clear_cache(fn) -> None:
    """Empty the lru_cache behind fn, looking through wrappers such as the tracer's."""
    while fn is not None:
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
            return
        fn = getattr(fn, "__wrapped__", None)


class FamilyH5(Workload):
    """One op: build a k=5 family structure, relabel it by an h5 automorphism,
    and decide r=2 through the sphere size and the weight-4 partition check.

    Every extended_hamming(5) hashes equal, so the cache of the O(n^3)
    weight-4 codeword search would answer every op after the first one from
    memory.  Each op empties it first and pays the search once, as a cold
    `perfcode check --code h5` would.
    """

    name = "family-h5"

    def prepare(self):
        return {"code": codes.extended_hamming(5),
                "data": [structure_data(_family(5, kind).structure) for kind in range(3)]}

    def inputs(self, seed, shared):
        yield from _distinct_stream(self.rng(seed), shared["data"], lambda r: affine_labeling(r, 5), set())

    def run(self, inp, shared, op):
        kind, lab = inp
        clear_cache(codes.weight4_codeword_masks)
        ctx = _context(clf.relabel(_family(5, kind).structure, lab))
        return (ctx.sphere_size(2), codes.check_weight4_partitions(shared["code"], ctx))

    def check(self, inp, result, shared):
        size, partitions_ok = result
        return size == 64 and partitions_ok is True


# Shapes whose canonical forms are taken: every k=3 class representative, and
# two larger split stars.  The (4,4) star leaves 2!*8! orders to the brute
# force, which is what makes an op take about a second at the seed commit.
CANON_SHAPES: Tuple[Tuple[str, Tuple[int, int, int], Tuple[int, ...]], ...] = (
    ("wposet", (1, 0, 7), (7,)),
    ("wposet", (2, 0, 6), (6, 0)),
    ("wposet", (2, 0, 6), (5, 1)),
    ("wposet", (2, 0, 6), (4, 2)),
    ("wposet", (2, 0, 6), (3, 3)),
    ("wposet", (3, 1, 4), (4, 0, 0)),
    ("wposet", (3, 1, 4), (3, 1, 0)),
    ("wposet", (3, 1, 4), (2, 2, 0)),
    ("wposet", (3, 1, 4), (2, 1, 1)),
    ("wposet", (4, 3, 1), (1, 0, 0, 0)),
    ("digraph", (1, 0, 7), (7,)),
    ("digraph", (2, 0, 6), (6, 0)),
    ("digraph", (2, 0, 6), (5, 1)),
    ("digraph", (2, 0, 6), (4, 2)),
    ("digraph", (2, 0, 6), (3, 3)),
    ("digraph", (3, 1, 3), (3, 0, 0)),
    ("digraph", (3, 1, 3), (2, 1, 0)),
    ("digraph", (3, 1, 3), (1, 1, 1)),
    ("wposet", (2, 0, 8), (4, 4)),
    ("digraph", (2, 1, 6), (3, 3)),
)


def build_shape(kind: str, vector: Tuple[int, int, int], dist: Sequence[int]):
    build = clf.build_digraph_structure if kind == "digraph" else clf.build_wposet_structure
    return build(clf.StructureVector(*vector), dist)


def form_digest(form: bytes) -> str:
    return hashlib.sha256(form).hexdigest()[:16]


class CanonIso(Workload):
    """One op: canonical form and |Aut| of a random relabeling of every shape."""

    name = "canon-iso"

    def prepare(self):
        bases = [build_shape(*shape) for shape in CANON_SHAPES]
        forms = [form_digest(clf.canonical_form(s)) for s in bases]
        return {
            "bases": bases,
            "data": [structure_data(s) for s in bases],
            "forms": forms if len(set(forms)) == len(forms) else None,
            "auts": [shape_automorphisms(*shape) for shape in CANON_SHAPES],
        }

    def inputs(self, seed, shared):
        rng = self.rng(seed)
        while True:
            yield tuple(random_permutation(rng, data[1]) for data in shared["data"])

    def run(self, inp, shared, op):
        out = []
        for base, lab in zip(shared["bases"], inp):
            s = clf.relabel(base, lab)
            out.append((form_digest(clf.canonical_form(s)), clf.automorphism_count(s)))
        return tuple(out)

    def check(self, inp, result, shared):
        if shared["forms"] is None:
            return False
        return [f for f, _ in result] == shared["forms"] and [a for _, a in result] == shared["auts"]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    ClassifyK3(), VerifyH4(), RadiiTransfer(), FamilyH5(), CanonIso()
)}


def digest(items: List[Any]) -> str:
    """sha256 of the JSON form of a list of plain inputs or results."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def input_digest(workload: Workload, seed: int, shared: Dict[str, Any], count: int) -> str:
    """Digest of the first `count` inputs and of the library-built structures
    they relabel, which are part of the input set too."""
    return digest([shared.get("data"), list(islice(workload.inputs(seed, shared), count))])
