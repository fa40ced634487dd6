import random

import pytest

from perfcode.classify import (
    LabeledStructure,
    StructureVector,
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
    check_perfect_conditions,
    extended_hamming,
    is_r_perfect,
)
from perfcode.digraph import Digraph
from perfcode.wposet import omega_census



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


def test_labeled_structure_validates_bijection():
    s = build_wposet_structure(StructureVector(3, 1, 4), (4, 0, 0))
    with pytest.raises(ValueError):
        LabeledStructure(s, (1, 1, 2, 3, 4, 5, 6, 7))
