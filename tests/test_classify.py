import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from perfcode.classify import (
    GREEK_COORDINATES,
    LabeledStructure,
    StructureVector,
    _labeling_landings,
    _lex_permutations,
    _verify_family,
    automorphism_count,
    build_digraph_structure,
    build_family_digraph,
    build_family_wposet,
    build_wposet_structure,
    canonical_form,
    classify,
    enumerate_structures,
    relabel,
    search_labelings,
    solve_structure_vectors,
)
from perfcode.codes import (
    BinaryLinearCode,
    MetricContext,
    check_perfect_conditions,
    codeword_masks,
    extended_hamming,
    is_r_perfect,
)
from perfcode.digraph import Digraph
from perfcode.wposet import omega_census

from conftest import random_digraph, random_wposet, wposet_from


def vectors(k, kind):
    return [v.as_tuple() for v in solve_structure_vectors(k, kind)]


def test_solver_k3_lists():
    assert vectors(3, "wposet") == [(1, 0, 7), (2, 0, 6), (3, 1, 4), (4, 3, 1)]
    assert vectors(3, "digraph") == [(1, 0, 7), (2, 0, 6), (3, 1, 3)]


def test_solver_k4_contains_family_vectors():
    assert (3, 1, 12) in vectors(4, "wposet")
    assert (4, 3, 9) in vectors(4, "wposet")
    assert (3, 1, 11) in vectors(4, "digraph")


def test_solver_identity_and_bounds():
    for k in (3, 4, 5):
        for kind in ("wposet", "digraph"):
            for v in solve_structure_vectors(k, kind):
                assert v.a == 1 + v.s * (v.s - 3) // 2
                assert v.s >= 1 and v.b >= 0
                doubled = 2 * v.a if kind == "digraph" else v.a
                assert v.s + doubled + v.b == 1 << k
    assert max(v.s for v in solve_structure_vectors(3, "wposet")) == 4
    assert max(v.s for v in solve_structure_vectors(3, "digraph")) == 3


@pytest.mark.parametrize(
    "vec,kind,count",
    [
        ((1, 0, 7), "wposet", 1),
        ((2, 0, 6), "wposet", 4),
        ((3, 1, 4), "wposet", 4),
        ((4, 3, 1), "wposet", 1),
        ((1, 0, 7), "digraph", 1),
        ((2, 0, 6), "digraph", 4),
        ((3, 1, 3), "digraph", 3),
    ],
)
def test_enumerate_structure_counts(vec, kind, count):
    reps = list(enumerate_structures(StructureVector(*vec), kind))
    assert len(reps) == count
    forms = {canonical_form(s) for s in reps}
    assert len(forms) == count


def test_enumerated_structures_realize_their_vector():
    for kind in ("wposet", "digraph"):
        for v in solve_structure_vectors(3, kind):
            for s in enumerate_structures(v, kind):
                if kind == "wposet":
                    census = omega_census(s, 2)
                else:
                    from perfcode.digraph import condense

                    census = omega_census(condense(s)[0], 2)
                assert census.structure_vector() == v.as_tuple()


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(404)
    for kind in ("wposet", "digraph"):
        for v in solve_structure_vectors(3, kind):
            for s in enumerate_structures(v, kind):
                base = canonical_form(s)
                n = s.size if hasattr(s, "size") else s.n
                for _ in range(1000):
                    lab = list(range(1, n + 1))
                    rng.shuffle(lab)
                    assert canonical_form(relabel(s, lab)) == base


def _colors_and_arcs(s):
    """Element colors and directed arcs read off the structure: weights and the
    strict order (j below i) of a weighted poset, or the edges of a digraph."""
    if isinstance(s, Digraph):
        return (0,) * s.n, {(u - 1, v - 1) for u, v in s.edges}
    n = s.size
    return s.pi, {(j, i) for i in range(n) for j in range(n) if j != i and s.poset.down[i] >> j & 1}


def _brute_force(s):
    """|Aut| and the least image over all n! relabelings of the structure."""
    colors, arcs = _colors_and_arcs(s)
    n = len(colors)
    own = (tuple(colors), tuple(sorted(arcs)))
    count, least = 0, None
    for p in permutations(range(n)):
        moved = [0] * n
        for i in range(n):
            moved[p[i]] = colors[i]
        image = (tuple(moved), tuple(sorted((p[u], p[v]) for u, v in arcs)))
        count += image == own
        least = image if least is None or image < least else least
    return count, least


def _random_structure(rng, kind, n):
    if kind == "wposet":
        return random_wposet(rng, n, max_pi=rng.choice((1, 2, 3)))
    return random_digraph(rng, n, density=rng.choice((0.15, 0.3, 0.5)))


def _cycles(*lengths, both_ways=False):
    """Disjoint directed cycles of the given lengths (each edge both ways if asked)."""
    edges, start = [], 1
    for length in lengths:
        for i in range(length):
            u, v = start + i, start + (i + 1) % length
            edges += [(u, v), (v, u)] if both_ways else [(u, v)]
        start += length
    return Digraph.from_edges(start - 1, edges)


def _shuffled(rng, n):
    lab = list(range(1, n + 1))
    rng.shuffle(lab)
    return lab


def test_canonical_search_matches_brute_force():
    # regular digraphs on which refinement alone leaves non-isomorphic leaves:
    # the first leaf is not always the least, nor every leaf an automorphism
    regular = [_cycles(3, 4), _cycles(3, 4, both_ways=True), _cycles(6, both_ways=True),
               _cycles(3, 3, both_ways=True), _cycles(7), _cycles(2, 2, 3)]
    rng = random.Random(505)
    forms_of = {}
    randoms = [_random_structure(rng, ("wposet", "digraph")[t % 2], rng.randint(1, 7))
               for t in range(120)]
    for s in regular + randoms:
        aut, least = _brute_force(s)
        form = canonical_form(s)
        assert automorphism_count(s) == aut
        n = len(s.generators)
        for _ in range(3):
            moved = relabel(s, _shuffled(rng, n))
            assert canonical_form(moved) == form
            assert automorphism_count(moved) == aut
        forms_of.setdefault((type(s), least), set()).add(form)
    # forms are equal exactly when the brute force finds the structures isomorphic
    assert all(len(forms) == 1 for forms in forms_of.values())
    assert len(set().union(*forms_of.values())) == len(forms_of)


def test_canonical_form_agrees_with_networkx():
    nx = pytest.importorskip("networkx")

    def graph(s):
        colors, arcs = _colors_and_arcs(s)
        g = nx.DiGraph()
        g.add_nodes_from((i, {"pi": c}) for i, c in enumerate(colors))
        g.add_edges_from(arcs)
        return g

    rng = random.Random(606)
    isomorphic = 0
    trials = 400
    for t in range(trials):
        kind, n = ("wposet", "digraph")[t % 2], rng.randint(1, 6)
        a = _random_structure(rng, kind, n)
        if rng.random() < 0.25:
            b = relabel(a, _shuffled(rng, n))
        else:
            b = _random_structure(rng, kind, n)
        iso = nx.is_isomorphic(graph(a), graph(b), node_match=lambda x, y: x["pi"] == y["pi"])
        assert (canonical_form(a) == canonical_form(b)) == iso
        isomorphic += iso
    assert 0 < isomorphic < trials


def test_canonical_search_beyond_brute_force():
    # the (4,4) split star: 2 * 4! * 4!; four disjoint directed 3-cycles
    # (n = 12, no twins): 4! * 3**4; three disjoint directed 4-cycles: 3! * 4**3;
    # a 2-cycle and a 3-cycle, each vertex with its own sink: 2 * 3 (the sinks
    # share one equitable cell but are not twins)
    star = build_wposet_structure(StructureVector(2, 0, 8), (4, 4))
    cycles = _cycles(3, 3, 3, 3)
    squares = _cycles(4, 4, 4)
    pendants = Digraph.from_edges(10, _cycles(2, 3).edges + tuple((i, i + 5) for i in range(1, 6)))
    rng = random.Random(707)
    for s, aut, trials in ((star, 1152, 200), (cycles, 1944, 5), (squares, 384, 5),
                           (pendants, 6, 20)):
        base = canonical_form(s)
        assert automorphism_count(s) == aut
        for _ in range(trials):
            moved = relabel(s, _shuffled(rng, len(s.generators)))
            assert canonical_form(moved) == base
            assert automorphism_count(moved) == aut
    assert canonical_form(cycles) != canonical_form(squares)


def test_canonical_form_separates_shapes():
    v = StructureVector(3, 1, 4)
    forms = [canonical_form(s) for s in enumerate_structures(v, "wposet")]
    assert len(set(forms)) == 4
    vg = StructureVector(3, 1, 3)
    forms_g = [canonical_form(s) for s in enumerate_structures(vg, "digraph")]
    assert len(set(forms_g)) == 3


def test_canonical_form_size_guard():
    from perfcode.poset import Poset
    from perfcode.wposet import WeightedPoset

    with pytest.raises(ValueError):
        canonical_form(WeightedPoset.uniform(Poset.antichain(13)))


def test_automorphism_counts():
    # single anchor with four tops, two bare anchors, one heavy: 4! * 2! = 48
    s = build_wposet_structure(StructureVector(3, 1, 4), (4, 0, 0))
    assert automorphism_count(s) == 48
    # the one-top shape: 3 bare anchors and 3 heavies interchangeable
    s = build_wposet_structure(StructureVector(4, 3, 1), (1, 0, 0, 0))
    assert automorphism_count(s) == 36
    # matched sinks and pointers rotate together; the two-cycle can flip
    g = build_digraph_structure(StructureVector(3, 1, 3), (1, 1, 1))
    assert automorphism_count(g) == 12


def test_relabel_transports_weights():
    s = build_wposet_structure(StructureVector(3, 1, 4), (2, 2, 0))
    lab = (8, 1, 2, 3, 4, 5, 6, 7)
    moved = relabel(s, lab)
    for p in range(1, 9):
        assert moved.pi[lab[p - 1] - 1] == s.pi[p - 1]
    assert canonical_form(moved) == canonical_form(s)


@pytest.mark.parametrize("structure, labeling", [
    (Digraph.from_edges(4, [(1, 2), (1, 3), (4, 2)]), (1, 3, 3, 4)),
    (Digraph.from_edges(4, [(1, 2), (1, 3), (4, 2)]), (1, 2, 3, 4, 5)),
    (Digraph.from_edges(4, [(1, 2), (1, 3), (4, 2)]), (1, 2, 3)),
    (wposet_from(3, [(1, 2), (2, 3)]), (1, 1, 3)),
    (wposet_from(3, [(1, 2), (2, 3)]), (0, 1, 2)),
])
def test_relabel_rejects_labelings_that_are_not_bijections(structure, labeling):
    n = len(structure.generators)
    with pytest.raises(ValueError) as exc:
        relabel(structure, labeling)
    assert str(exc.value) == f"labeling {labeling} is not a bijection on 1..{n}"


def test_search_finds_documented_witness(anchor_star_wposet):
    code = extended_hamming(3)
    rep = build_wposet_structure(StructureVector(3, 1, 4), (4, 0, 0))
    found = search_labelings(rep, code)
    assert found is not None
    assert is_r_perfect(code, found.context(), 2)


def test_search_rejects_unbalanced_shapes():
    code = extended_hamming(3)
    for dist in ((3, 1, 0), (2, 1, 1)):
        rep = build_wposet_structure(StructureVector(3, 1, 4), dist)
        assert search_labelings(rep, code) is None
    for dist in ((3, 0, 0), (2, 1, 0)):
        rep = build_digraph_structure(StructureVector(3, 1, 3), dist)
        assert search_labelings(rep, code) is None


def test_documented_labelings_pass_conditions(heavy_anchor_wposet, two_anchor_wposet,
                                              paired_sinks_digraph):
    code = extended_hamming(3)
    from perfcode.codes import MetricContext

    for s in (heavy_anchor_wposet, two_anchor_wposet):
        assert check_perfect_conditions(code, MetricContext.for_wposet(s), 2).perfect
    assert check_perfect_conditions(
        code, MetricContext.for_digraph(paired_sinks_digraph), 2
    ).perfect


def test_classify_wposet_k3():
    report = classify(3, "wposet")
    assert len(report.entries) == 10
    admitting = {(e.vector.as_tuple(), e.distribution) for e in report.admitting()}
    assert ((1, 0, 7), (7,)) in admitting
    assert ((2, 0, 6), (6, 0)) in admitting
    assert ((3, 1, 4), (4, 0, 0)) in admitting
    assert ((3, 1, 4), (2, 2, 0)) in admitting
    assert ((4, 3, 1), (1, 0, 0, 0)) in admitting
    rejected = {(e.vector.as_tuple(), e.distribution) for e in report.rejected()}
    assert ((3, 1, 4), (3, 1, 0)) in rejected
    assert ((3, 1, 4), (2, 1, 1)) in rejected
    assert ((2, 0, 6), (5, 1)) in rejected
    assert ((2, 0, 6), (3, 3)) in rejected
    # the split star with even top groups also admits; test_acceptance's criterion 3
    # re-checks its witness by a 256-vector exhaustion independent of perfcode
    assert ((2, 0, 6), (4, 2)) in admitting
    assert len(report.admitting()) == 6


def test_classify_digraph_k3():
    report = classify(3, "digraph")
    assert len(report.entries) == 8
    admitting = {(e.vector.as_tuple(), e.distribution) for e in report.admitting()}
    assert ((1, 0, 7), (7,)) in admitting
    assert ((2, 0, 6), (6, 0)) in admitting
    assert ((2, 0, 6), (4, 2)) in admitting
    assert ((3, 1, 3), (1, 1, 1)) in admitting
    rejected = {(e.vector.as_tuple(), e.distribution) for e in report.rejected()}
    assert ((3, 1, 3), (3, 0, 0)) in rejected
    assert ((3, 1, 3), (2, 1, 0)) in rejected
    assert len(report.admitting()) == 4


def test_classify_witnesses_are_exhaustively_perfect():
    code = extended_hamming(3)
    for kind in ("wposet", "digraph"):
        report = classify(3, kind)
        for entry in report.admitting():
            assert is_r_perfect(code, entry.witness.context(), 2)
        for entry in report.rejected():
            assert entry.witness is None
            assert entry.labelings_covered >= 1


def test_classify_rejects_other_k():
    with pytest.raises(ValueError):
        classify(4, "wposet")


@pytest.mark.parametrize("k", [3, 4, 5])
def test_greek_quadruples_are_codewords(k):
    a, b, c, d, ap, bp, cp, dp = GREEK_COORDINATES
    rows = extended_hamming(k).parity_check
    assert len(rows) == k + 1 and sorted(GREEK_COORDINATES) == list(range(1, 9))
    for quad in ((a, b, c, d), (a, b, ap, bp), (a, c, ap, cp), (a, d, ap, dp)):
        mask = sum(1 << (x - 1) for x in quad)
        assert all((row & mask).bit_count() % 2 == 0 for row in rows), quad


def test_verify_family_names_the_failed_condition(two_anchor_wposet):
    code = extended_hamming(3)
    _verify_family(code, MetricContext.of(two_anchor_wposet))
    with pytest.raises(RuntimeError, match="violates the sphere condition"):
        _verify_family(code, MetricContext.of(wposet_from(8, [])))
    # the anchor star with the heavy singleton moved from 4 to 5
    star = wposet_from(8, [(1, 4), (1, 6), (1, 7), (1, 8)], heavy={5})
    with pytest.raises(RuntimeError, match="violates the partition condition"):
        _verify_family(code, MetricContext.of(star))


def test_family_wposet_k3_variant1_layout(anchor_star_wposet):
    fam = build_family_wposet(3, 1)
    assert fam.labeling == tuple(range(1, 9))
    assert canonical_form(fam.structure) == canonical_form(anchor_star_wposet)
    assert fam.structure.pi == anchor_star_wposet.pi
    assert fam.structure.poset.down == anchor_star_wposet.poset.down


def test_family_wposet_k3_variant2_layout(heavy_anchor_wposet):
    fam = build_family_wposet(3, 2)
    assert fam.structure.pi == heavy_anchor_wposet.pi
    assert fam.structure.poset.down == heavy_anchor_wposet.poset.down


def test_family_digraph_k3_layout():
    fam = build_family_digraph(3)
    assert isinstance(fam.structure, Digraph)
    assert set(fam.structure.edges) == {(1, 5), (5, 1), (7, 2), (8, 3), (6, 4)}


def test_family_structure_vectors_at_k4():
    from perfcode.digraph import condense

    assert omega_census(build_family_wposet(4, 1).structure, 2).structure_vector() == (3, 1, 12)
    assert omega_census(build_family_wposet(4, 2).structure, 2).structure_vector() == (4, 3, 9)
    g = build_family_digraph(4).structure
    assert omega_census(condense(g)[0], 2).structure_vector() == (3, 1, 11)


def test_families_are_perfect_by_exhaustion():
    for k in (3, 4):
        code = extended_hamming(k)
        for variant in (1, 2):
            fam = build_family_wposet(k, variant)
            assert is_r_perfect(code, fam.context(), 2)
        fam = build_family_digraph(k)
        assert is_r_perfect(code, fam.context(), 2)


def test_families_build_at_k5():
    assert omega_census(build_family_wposet(5, 1).structure, 2).structure_vector() == (3, 1, 28)
    assert omega_census(build_family_wposet(5, 2).structure, 2).structure_vector() == (4, 3, 25)


def test_family_range_checks():
    with pytest.raises(ValueError):
        build_family_wposet(2, 1)
    with pytest.raises(ValueError):
        build_family_wposet(3, 3)
    with pytest.raises(ValueError):
        build_family_digraph(6)


def test_search_size_guard():
    big = build_wposet_structure(StructureVector(3, 1, 12), (12, 0, 0))
    with pytest.raises(ValueError):
        search_labelings(big, extended_hamming(4))


@pytest.mark.parametrize("n", range(1, 9))
def test_lex_permutations_match_itertools(n):
    table = _lex_permutations(n)
    assert table.dtype == np.uint8
    assert np.array_equal(table, np.fromiter(permutations(range(n)), dtype=(np.uint8, n)))


def test_labeling_table_is_not_built_at_import():
    src = str(Path(sys.modules["perfcode"].__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import perfcode.cli; from perfcode.classify import _labeling_landings; "
             "print(_labeling_landings.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_labeling_tables_are_read_only():
    labelings, landing = _labeling_landings(extended_hamming(3))
    assert landing.shape == (15, 40320) and landing.dtype == np.uint8
    for table in (labelings, landing):
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_labeled_structure_validates_bijection():
    s = build_wposet_structure(StructureVector(3, 1, 4), (4, 0, 0))
    with pytest.raises(ValueError):
        LabeledStructure(s, (1, 1, 2, 3, 4, 5, 6, 7))


# --- an unpruned audit of the k=3 classification ---------------------------
#
# A second route to every k=3 verdict, written apart from the engine: the
# weight-4 codewords of H3, given as literals, are placed by each of the 8!
# labelings and looked up in a table of bad quads, with no ball sumset, no
# automorphism pruning and no refinement search.

# Extended Hamming [8,4,4], literal character i is coordinate i + 1.
H3_LITERALS = (
    "00000000", "00001111", "10010110", "10011001",
    "01011010", "01010101", "11001100", "11000011",
    "00111100", "00110011", "10101010", "10100101",
    "01100110", "01101001", "11110000", "11111111",
)
H3_WORDS = tuple(int(lit[::-1], 2) for lit in H3_LITERALS)
AGL_3_2 = 1344  # |AGL(3,2)|, the automorphism group of H3

# Row i is the i-th labeling in lexicographic order: LABELINGS[i, p] is the
# coordinate (0-based) of position p, and WHERE[i, c] the position of c.
LABELINGS = np.array(list(permutations(range(8))), dtype=np.int64)
WHERE = np.argsort(LABELINGS, axis=1)


def _structure_weights(structure):
    """Structure weight of every position mask: pi summed over its closure."""
    out = []
    for mask in range(256):
        closure = 0
        for p in range(8):
            if mask >> p & 1:
                closure |= structure.generators[p]
        out.append(sum(w for p, w in enumerate(structure.pi) if closure >> p & 1))
    return out


def _bad_quads(weights):
    """256-entry table of position sets of structure weight 4 that split 2+2
    into halves of weight at most 2."""
    bad = np.zeros(256, dtype=bool)
    for quad in range(256):
        if quad.bit_count() == 4 and weights[quad] == 4:
            low = quad & -quad
            for other in (1 << p for p in range(8) if quad >> p & 1 and 1 << p != low):
                half = low | other
                bad[quad] |= weights[half] <= 2 and weights[quad ^ half] <= 2
    return bad


def _audit(structure, words=H3_WORDS):
    """Which of the 8! labelings make the code 2-perfect, by the bad-quad rule
    (exact at r = 2 for a minimum-distance-4 code of the right sphere size)."""
    weights = _structure_weights(structure)
    if sum(w <= 2 for w in weights) != 16:
        return np.zeros(len(LABELINGS), dtype=bool)
    bad = _bad_quads(weights)
    admits = np.ones(len(LABELINGS), dtype=bool)
    for cw in words:
        if cw.bit_count() == 4:
            coords = [c for c in range(8) if cw >> c & 1]
            admits &= ~bad[(1 << WHERE[:, coords]).sum(axis=1)]
    return admits


def _orbit_count(structure):
    """Distinct relabeled (colors, arcs) over all 8! labelings."""
    arcs = np.zeros((8, 8), dtype=bool)
    if isinstance(structure, Digraph):
        for u, v in structure.edges:
            arcs[u - 1, v - 1] = True
    else:
        for i, down in enumerate(structure.poset.down):
            arcs[i] = [down >> j & 1 and j != i for j in range(8)]
    moved = arcs[WHERE[:, :, None], WHERE[:, None, :]].reshape(len(LABELINGS), 64)
    colors = np.asarray(structure.pi, dtype=np.uint8)[WHERE]
    rows = np.hstack([colors, np.packbits(moved, axis=1)])
    return len(np.unique(rows.view(f"V{rows.shape[1]}")))  # one opaque value per row


@pytest.fixture(scope="module")
def k3_reports():
    return {kind: classify(3, kind) for kind in ("wposet", "digraph")}


def _entries(reports):
    return [(kind, e) for kind, report in reports.items() for e in report.entries]


def test_audit_agrees_with_classify(k3_reports):
    entries = _entries(k3_reports)
    assert len(entries) == 18
    for kind, entry in entries:
        admits = _audit(entry.structure)
        assert entry.admits == admits.any(), (kind, entry.distribution)
        if entry.admits:
            first = LABELINGS[admits.argmax()]
            assert entry.witness.labeling == tuple(int(c) + 1 for c in first)
        assert entry.labelings_covered == _orbit_count(entry.structure)


def test_audit_counts(k3_reports):
    counts = {}
    for kind, entry in _entries(k3_reports):
        count = int(_audit(entry.structure).sum())
        assert count % AGL_3_2 == 0 and count % automorphism_count(entry.structure) == 0
        counts[kind, entry.vector.as_tuple(), entry.distribution] = count
    for kind in ("wposet", "digraph"):
        assert counts[kind, (2, 0, 6), (4, 2)] == 8064
        assert counts[kind, (2, 0, 6), (5, 1)] == 0
        assert counts[kind, (2, 0, 6), (3, 3)] == 0


def test_witness_is_least_admitting_labeling(k3_reports):
    code = extended_hamming(3)
    for kind, entry in _entries(k3_reports):
        if not entry.admits:
            continue
        below = []
        for lab in permutations(range(1, 9)):
            if lab == entry.witness.labeling:
                break
            below.append(lab)
        assert len(below) <= 24
        for lab in below:
            assert not is_r_perfect(code, LabeledStructure(entry.structure, lab).context(), 2)
        assert is_r_perfect(code, entry.witness.context(), 2)


def test_search_on_permuted_h3(k3_reports):
    h3 = extended_hamming(3)
    rng = random.Random(2024)
    for _ in range(3):
        perm = list(range(8))
        rng.shuffle(perm)

        def move(mask):
            return sum((mask >> c & 1) << perm[c] for c in range(8))

        code = BinaryLinearCode.from_basis(8, [move(b) for b in h3.basis])
        words = tuple(move(w) for w in H3_WORDS)
        assert set(codeword_masks(code)) == set(words)
        for kind, entry in _entries(k3_reports):
            found = search_labelings(entry.structure, code)
            admits = _audit(entry.structure, words)
            assert (found is not None) == admits.any() == entry.admits
            if found is not None:
                assert is_r_perfect(code, found.context(), 2)
                assert found.labeling == tuple(int(c) + 1 for c in LABELINGS[admits.argmax()])


def test_labeling_cache_is_keyed_by_code():
    """h3, a permuted h3 of the same length, then h3 again, in one process:
    each search must use the landing masks of its own code."""
    h3 = extended_hamming(3)
    perm = [3, 6, 0, 7, 2, 5, 1, 4]

    def move(mask):
        return sum((mask >> c & 1) << perm[c] for c in range(8))

    moved = BinaryLinearCode.from_basis(8, [move(b) for b in h3.basis])
    assert set(codeword_masks(moved)) != set(H3_WORDS)  # not an automorphism of h3
    structures = [s for kind in ("wposet", "digraph") for v in solve_structure_vectors(3, kind)
                  for s in enumerate_structures(v, kind)]
    assert len(structures) == 18
    audits = {h3: [_audit(s) for s in structures],
              moved: [_audit(s, tuple(move(w) for w in H3_WORDS)) for s in structures]}
    _labeling_landings.cache_clear()
    for code in (h3, moved, h3):
        for structure, admits in zip(structures, audits[code]):
            found = search_labelings(structure, code)
            assert (found is not None) == admits.any()
            if found is not None:
                assert found.labeling == tuple(int(c) + 1 for c in LABELINGS[admits.argmax()])
    assert _labeling_landings.cache_info().currsize == 2
