"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with -s to see them on success).

Criteria 3 and 4 pin the admitting classes of the k=3 classification at 6
(weighted posets) and 4 (digraphs).  Both sets include the split star with
top groups of sizes 4 and 2 over two anchors (the acyclic counterpart for
digraphs), which counts of 5 and 3 attributed to the published
classification leave out.  The mathematics settles it: each test re-checks
the engine's witness for that class by a 256-vector exhaustion written here,
from the README definitions of the two weights and the literal codewords of
the extended Hamming code, without any perfcode weight table or checker.
"""

import math
import random
import time
from pathlib import Path

import numpy as np

from perfcode import cli
from perfcode.bitvec import BitVector, add
from perfcode.classify import (
    automorphism_count,
    build_family_digraph,
    build_family_wposet,
    classify,
    relabel,
    solve_structure_vectors,
)
from perfcode.codes import (
    MetricContext,
    check_perfect_conditions,
    codewords,
    covering_radius,
    extended_hamming,
    is_r_perfect,
    min_hamming_distance,
    packing_radius,
)
from perfcode.digraph import (
    Digraph,
    condense,
    expand,
    g_sphere_size_formula,
    g_weight_table,
)
from perfcode.poset import Poset
from perfcode.transfer import map_code_collapse, map_code_expand
from perfcode.wposet import WeightedPoset, sphere_size_formula, sphere_size_oracle, weight_table

from conftest import random_digraph, random_wposet, wposet_from

K3_CODEWORDS = {
    "00000000", "00001111", "10010110", "10011001",
    "01011010", "01010101", "11001100", "11000011",
    "00111100", "00110011", "10101010", "10100101",
    "01100110", "01101001", "11110000", "11111111",
}

GOLDEN = Path(__file__).parent / "golden"


def _closure(mask, below):
    """Smallest superset of mask holding below[i] for each coordinate i + 1 in it."""
    closed = mask
    while True:
        grown = closed
        for i, b in enumerate(below):
            if closed >> i & 1:
                grown |= b
        if grown == closed:
            return closed
        closed = grown


def _two_perfect_by_exhaustion(below, pi):
    """True iff the extended Hamming code of length 8 is 2-perfect under the
    weight sum(pi over the closure of the support), checked over all 256
    vectors: the radius-2 ball holds 16 of them and every vector lies in
    exactly one codeword ball.  Bit i of a mask is coordinate i + 1."""
    words = [int(lit[::-1], 2) for lit in K3_CODEWORDS]
    weights = [
        sum(p for i, p in enumerate(pi) if _closure(x, below) >> i & 1)
        for x in range(256)
    ]
    ball = sum(w <= 2 for w in weights)
    return ball == 16 and all(
        sum(weights[x ^ c] <= 2 for c in words) == 1 for x in range(256)
    )


def _below_and_pi(structure):
    """Strictly-below masks (out-neighbours for a digraph) and weights."""
    if isinstance(structure, WeightedPoset):
        return [d & ~(1 << i) for i, d in enumerate(structure.poset.down)], structure.pi
    below = [0] * structure.n
    for u, v in structure.edges:
        below[u - 1] |= 1 << (v - 1)
    return below, (1,) * structure.n


def _split_star_evidence(below, pi):
    """Checks on a labeled split star 4+2, given strictly-below masks:
    (it has that shape with unit weights, it makes the code 2-perfect, moving
    one top of the pair under the other anchor makes it not 2-perfect)."""
    anchors = {i for i, b in enumerate(below) if b == 0}
    groups = {a: [t for t, b in enumerate(below) if b == 1 << a] for a in anchors}
    sizes = sorted((len(tops) for tops in groups.values()), reverse=True)
    shape = (
        sizes == [4, 2]
        and len(anchors) + sum(sizes) == len(below) == 8
        and set(pi) == {1}
    )
    if not shape:
        return False, False, False
    big, small = sorted(anchors, key=lambda a: -len(groups[a]))
    corrupted = list(below)
    corrupted[groups[small][0]] = 1 << big
    return (
        True,
        _two_perfect_by_exhaustion(below, pi),
        not _two_perfect_by_exhaustion(corrupted, pi),
    )


def _entry_for(rep, key):
    return next(e for e in rep.entries if (e.vector.as_tuple(), e.distribution) == key)


def report(num, ok, detail=""):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_extended_hamming_construction():
    t0 = time.perf_counter()
    h3 = extended_hamming(3)
    words = {v.to_literal() for v in codewords(h3)}
    elapsed = time.perf_counter() - t0
    ok = (
        h3.length == 8
        and h3.dimension == 4
        and len(words) == 16
        and min_hamming_distance(h3) == 4
        and words == K3_CODEWORDS
        and elapsed < 1.0
    )
    report(1, ok, f"[8,{h3.dimension},{min_hamming_distance(h3)}] in {elapsed:.3f}s")


def test_criterion_02_sphere_formula_vs_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20_2024)
    mismatches = 0
    for _ in range(200):
        wp = random_wposet(rng, rng.randint(1, 8), max_pi=3)
        m = wp.size
        wt = np.asarray(weight_table(wp), dtype=np.int32)
        xs = np.arange(1 << m, dtype=np.int64)
        distances = wt[xs[:, None] ^ xs[None, :]]
        for r in range(wp.total_weight + 1):
            counts = (distances <= r).sum(axis=1)
            if not (counts == sphere_size_formula(wp, r)).all():
                mismatches += 1
        x = BitVector(m, rng.randrange(1 << m))
        r = rng.randint(0, wp.total_weight)
        if sphere_size_oracle(wp, x, r) != sphere_size_formula(wp, r):
            mismatches += 1
    anchor_star = wposet_from(8, [(1, 5), (1, 6), (1, 7), (1, 8)], heavy={4})
    two_anchor = wposet_from(8, [(1, 5), (1, 6), (2, 7), (2, 8)], heavy={4})
    heavy_anchor = wposet_from(8, [(1, 5)], heavy={4, 6, 7})
    paired_sinks = Digraph.from_edges(8, [(1, 5), (5, 1), (8, 2), (6, 3), (7, 4)])
    sixteens = (
        sphere_size_formula(anchor_star, 2) == 16
        and sphere_size_formula(two_anchor, 2) == 16
        and sphere_size_formula(heavy_anchor, 2) == 16
        and g_sphere_size_formula(paired_sinks, 2) == 16
    )
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and sixteens and elapsed < 10.0
    report(2, ok, f"200 posets, every center and radius, in {elapsed:.2f}s")


def test_criterion_03_wposet_classification():
    t0 = time.perf_counter()
    rep = classify(3, "wposet")
    elapsed = time.perf_counter() - t0
    admitting = {(e.vector.as_tuple(), e.distribution) for e in rep.admitting()}
    named = {
        ((4, 3, 1), (1, 0, 0, 0)),
        ((3, 1, 4), (4, 0, 0)),
        ((3, 1, 4), (2, 2, 0)),
        ((1, 0, 7), (7,)),
        ((2, 0, 6), (6, 0)),
        ((2, 0, 6), (4, 2)),
    }
    named_admit = named <= admitting
    rejected = {
        (e.vector.as_tuple(), e.distribution): e for e in rep.entries if not e.admits
    }
    exhausted = all(
        key in rejected
        and rejected[key].labelings_covered
        == math.factorial(8) // automorphism_count(rejected[key].structure)
        for key in (
            ((3, 1, 4), (3, 1, 0)),
            ((3, 1, 4), (2, 1, 1)),
            ((2, 0, 6), (5, 1)),
            ((2, 0, 6), (3, 3)),
        )
    )
    exactly_six = admitting == named
    witness = _entry_for(rep, ((2, 0, 6), (4, 2))).witness.relabeled()
    evidence = _split_star_evidence(*_below_and_pi(witness))
    ok = named_admit and exhausted and exactly_six and all(evidence) and elapsed < 60.0
    extras = sorted(admitting - named)
    report(
        3,
        ok,
        f"admitting={len(admitting)} expected=6 extras={extras}"
        f" split-star shape/perfect/corruption-rejected={evidence} in {elapsed:.1f}s",
    )


def test_criterion_04_digraph_classification():
    t0 = time.perf_counter()
    rep = classify(3, "digraph")
    elapsed = time.perf_counter() - t0
    admitting = {(e.vector.as_tuple(), e.distribution) for e in rep.admitting()}
    named = {
        ((3, 1, 3), (1, 1, 1)),
        ((1, 0, 7), (7,)),
        ((2, 0, 6), (6, 0)),
        ((2, 0, 6), (4, 2)),
    }
    named_admit = named <= admitting
    rejected = {
        (e.vector.as_tuple(), e.distribution): e for e in rep.entries if not e.admits
    }
    exhausted = all(
        key in rejected
        and rejected[key].labelings_covered
        == math.factorial(8) // automorphism_count(rejected[key].structure)
        for key in (
            ((3, 1, 3), (3, 0, 0)),
            ((3, 1, 3), (2, 1, 0)),
            ((2, 0, 6), (5, 1)),
            ((2, 0, 6), (3, 3)),
        )
    )
    exactly_four = admitting == named
    witness = _entry_for(rep, ((2, 0, 6), (4, 2))).witness.relabeled()
    evidence = _split_star_evidence(*_below_and_pi(witness))
    ok = named_admit and exhausted and exactly_four and all(evidence) and elapsed < 60.0
    extras = sorted(admitting - named)
    report(
        4,
        ok,
        f"admitting={len(admitting)} expected=4 extras={extras}"
        f" split-star shape/perfect/corruption-rejected={evidence} in {elapsed:.1f}s",
    )


def test_criterion_05_checker_equivalence():
    """Three verdicts on a seeded sample of labelings of every k=3 class: the
    ball-scatter exhaustion, the condition pair, and the 256-vector
    exhaustion of this file, which uses no perfcode weight or checker."""
    code = extended_hamming(3)
    rng = random.Random(5)
    disagreements = 0
    pairs = 0
    perfect = 0
    for kind in ("wposet", "digraph"):
        for entry in classify(3, kind).entries:
            sample = [tuple(range(1, 9))]
            if entry.witness is not None:
                sample.append(entry.witness.labeling)
            sample += [tuple(rng.sample(range(1, 9), 8)) for _ in range(3)]
            for labeling in sample:
                structure = relabel(entry.structure, labeling)
                ctx = MetricContext.of(structure)
                verdicts = {
                    is_r_perfect(code, ctx, 2),
                    check_perfect_conditions(code, ctx, 2).perfect,
                    _two_perfect_by_exhaustion(*_below_and_pi(structure)),
                }
                pairs += 1
                perfect += verdicts == {True}
                disagreements += len(verdicts) > 1
    ok = disagreements == 0 and pairs >= 80 and 0 < perfect < pairs
    report(5, ok, f"{pairs} pairs, {disagreements} disagreements, {perfect} perfect")


def test_criterion_06_golden_tables(capsys):
    assert cli.main(["tables", "--which", "2"]) == 0
    out2 = capsys.readouterr().out
    assert cli.main(["tables", "--which", "4"]) == 0
    out4 = capsys.readouterr().out
    expanded = (GOLDEN / "tables_2.txt").read_text(encoding="utf-8")
    collapsed = (GOLDEN / "tables_4.txt").read_text(encoding="utf-8")
    ok = out2 == expanded and out4 == collapsed
    report(6, ok, "expanded and collapsed listings byte-exact")


def test_criterion_07_families_at_scale():
    timings = []
    ok = True
    for k in (3, 4):
        code = extended_hamming(k)
        for variant in (1, 2):
            t0 = time.perf_counter()
            fam = build_family_wposet(k, variant)
            ok = ok and is_r_perfect(code, fam.context(), 2)
            timings.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fam = build_family_digraph(k)
        ok = ok and is_r_perfect(code, fam.context(), 2)
        timings.append(time.perf_counter() - t0)
    ok = ok and max(timings) < 60.0
    report(7, ok, f"six family cases, slowest {max(timings):.2f}s")


def test_criterion_08_transfer_theorems():
    code = extended_hamming(3)
    words = list(codewords(code))
    ok = True
    details = []
    for entry in classify(3, "wposet").admitting():
        wp = entry.witness.relabeled()
        g, bm = expand(wp)
        image = map_code_expand(bm, words)
        pr = packing_radius(image, MetricContext.for_digraph(g))
        details.append(pr)
        ok = ok and pr == 2
    for entry in classify(3, "digraph").admitting():
        g = entry.witness.relabeled()
        wp, bm = condense(g)
        image = map_code_collapse(bm, words)
        cr = covering_radius(image, MetricContext.for_wposet(wp))
        details.append(cr)
        ok = ok and cr == 2
    report(8, ok, f"packing/covering radii {details}")


def _random_budget_wposet(rng):
    while True:
        size = rng.randint(1, 6)
        pi = [rng.randint(1, 3) for _ in range(size)]
        if sum(pi) <= 10:
            break
    relations = [
        (j, i)
        for j in range(1, size + 1)
        for i in range(j + 1, size + 1)
        if rng.random() < 0.3
    ]
    return WeightedPoset(Poset.from_relations(size, relations), tuple(pi))


def test_criterion_09_transfer_map_properties():
    rng = random.Random(909)
    samples = 10_000
    violations = 0
    for _ in range(50):
        g = random_digraph(rng, rng.randint(1, 10))
        wp, bm = condense(g)
        wtg = np.asarray(g_weight_table(g), dtype=np.int32)
        wtp = np.asarray(weight_table(wp), dtype=np.int32)
        masks = np.asarray(bm.block_masks(), dtype=np.int64)
        shifts = np.arange(bm.m, dtype=np.int64)
        xs = np.asarray([rng.randrange(1 << g.n) for _ in range(samples)], dtype=np.int64)
        ys = np.asarray([rng.randrange(1 << g.n) for _ in range(samples)], dtype=np.int64)

        def coll(arr):
            hits = (arr[:, None] & masks[None, :]) != 0
            return (hits.astype(np.int64) << shifts[None, :]).sum(axis=1)

        violations += int((wtg[xs] != wtp[coll(xs)]).sum())
        violations += int((wtp[coll(xs) ^ coll(ys)] > wtp[coll(xs ^ ys)]).sum())
    for _ in range(50):
        wp = _random_budget_wposet(rng)
        g, bm = expand(wp)
        wtp = np.asarray(weight_table(wp), dtype=np.int32)
        wtg = np.asarray(g_weight_table(g), dtype=np.int32)
        reps = np.asarray([1 << (r - 1) for r in bm.representatives()], dtype=np.int64)
        blocks = np.asarray(bm.block_masks(), dtype=np.int64)
        shifts = np.arange(bm.m, dtype=np.int64)
        us = np.asarray([rng.randrange(1 << wp.size) for _ in range(samples)], dtype=np.int64)
        vs = np.asarray([rng.randrange(1 << wp.size) for _ in range(samples)], dtype=np.int64)

        def expand_arr(arr):
            bits = (arr[:, None] >> shifts[None, :]) & 1
            return (bits * reps[None, :]).sum(axis=1)

        def coll_arr(arr):
            hits = (arr[:, None] & blocks[None, :]) != 0
            return (hits.astype(np.int64) << shifts[None, :]).sum(axis=1)

        violations += int((wtp[us] != wtg[expand_arr(us)]).sum())
        violations += int((expand_arr(us) ^ expand_arr(vs) != expand_arr(us ^ vs)).sum())
        violations += int((coll_arr(expand_arr(us)) != us).sum())
    report(9, violations == 0, f"100 structures x {samples} vectors, {violations} violations")


def test_criterion_10_metric_reductions():
    rng = random.Random(1010)
    ok = True
    for _ in range(40):
        n = rng.randint(1, 8)
        edgeless = Digraph.from_edges(n, [])
        x = BitVector(n, rng.randrange(1 << n))
        y = BitVector(n, rng.randrange(1 << n))
        from perfcode.bitvec import hamming_weight
        from perfcode.digraph import g_distance
        from perfcode.wposet import wp_distance

        ok = ok and g_distance(edgeless, x, y) == hamming_weight(add(x, y))
    for _ in range(40):
        n = rng.randint(2, 8)
        relations = [
            (j, i)
            for j in range(1, n + 1)
            for i in range(j + 1, n + 1)
            if rng.random() < 0.35
        ]
        acyclic = Digraph.from_edges(n, [(i, j) for j, i in relations])
        reach_poset = WeightedPoset.uniform(Poset.from_relations(n, relations))
        from perfcode.digraph import g_distance
        from perfcode.wposet import wp_distance

        x = BitVector(n, rng.randrange(1 << n))
        y = BitVector(n, rng.randrange(1 << n))
        ok = ok and g_distance(acyclic, x, y) == wp_distance(reach_poset, x, y)
        # the uniform-weight metric is the plain order-ideal size
        ok = ok and wp_distance(reach_poset, x, y) == bin(
            reach_poset.poset.close_mask(x.bits ^ y.bits)
        ).count("1")
    chorded = Digraph.from_edges(4, [(2, 1), (2, 3), (3, 4), (1, 4), (4, 2)])
    wp1, _ = condense(chorded)
    rebuilt, _ = expand(wp1)
    wp2, _ = condense(rebuilt)
    regression = (
        set(rebuilt.edges) != set(chorded.edges)
        and wp1.pi == wp2.pi == (4,)
        and wp1.poset.down == wp2.poset.down
    )
    ok = ok and regression
    report(10, ok, "edgeless=Hamming, acyclic=poset, uniform=ideal size, cycle pair kept")


def test_criterion_11_structure_vector_solver():
    wposet3 = [v.as_tuple() for v in solve_structure_vectors(3, "wposet")]
    digraph3 = [v.as_tuple() for v in solve_structure_vectors(3, "digraph")]
    lists = (
        wposet3 == [(1, 0, 7), (2, 0, 6), (3, 1, 4), (4, 3, 1)]
        and digraph3 == [(1, 0, 7), (2, 0, 6), (3, 1, 3)]
    )
    identity = True
    for k in (3, 4, 5):
        for kind in ("wposet", "digraph"):
            for v in solve_structure_vectors(k, kind):
                identity = identity and v.a == 1 + v.s * (v.s - 3) // 2 and v.s >= 1
    bounds = (
        max(v.s for v in solve_structure_vectors(3, "wposet")) == 4
        and max(v.s for v in solve_structure_vectors(3, "digraph")) == 3
    )
    report(11, lists and identity and bounds, f"wposet={wposet3} digraph={digraph3}")
