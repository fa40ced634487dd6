import random

import pytest

from perfcode.bitvec import BitVector, hamming_weight
from perfcode.digraph import (
    BlockMap,
    Digraph,
    condense,
    dominated_closure,
    expand,
    g_distance,
    g_sphere_size_formula,
    g_sphere_size_oracle,
    g_weight,
)
from perfcode.poset import Poset
from perfcode.wposet import WeightedPoset, wp_distance, wp_weight

from conftest import random_digraph, random_wposet


def e(length, *coords):
    return BitVector.from_support(length, coords)


def test_construction_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        Digraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph.from_edges(3, [(1, 4)])
    g = Digraph.from_edges(3, [(1, 2), (1, 2)])
    assert g.edges == ((1, 2),)


def test_dominated_closure(cycle_tail_digraph):
    assert dominated_closure(cycle_tail_digraph, set()) == set()
    assert dominated_closure(cycle_tail_digraph, {1}) == {1, 2, 3, 4}
    assert dominated_closure(cycle_tail_digraph, {3}) == {2, 3, 4}
    edgeless = Digraph.from_edges(5, [])
    assert dominated_closure(edgeless, {2, 5}) == {2, 5}


def test_g_weight(cycle_tail_digraph):
    assert g_weight(cycle_tail_digraph, BitVector.zero(4)) == 0
    assert g_weight(cycle_tail_digraph, e(4, 1)) == 4
    edgeless = Digraph.from_edges(6, [])
    rng = random.Random(3)
    for _ in range(40):
        x = BitVector(6, rng.randrange(64))
        assert g_weight(edgeless, x) == hamming_weight(x)


def test_g_distance(paired_sinks_digraph):
    x = e(8, 1)
    y = e(8, 5)
    assert g_distance(paired_sinks_digraph, x, x) == 0
    assert g_distance(paired_sinks_digraph, x, y) == 2
    assert g_distance(paired_sinks_digraph, x, BitVector.zero(8)) == g_weight(
        paired_sinks_digraph, x
    )


def test_condense_cycle_with_tail(cycle_tail_digraph):
    wp, bm = condense(cycle_tail_digraph)
    assert wp.size == 2
    assert bm.blocks == ((1,), (2, 3, 4))
    assert wp.pi == (1, 3)
    # the cycle class lies below the tail vertex class
    assert wp.poset.strictly_below(2, 1)


def test_condense_mixed_components(mixed_component_digraph):
    wp, bm = condense(mixed_component_digraph)
    assert bm.blocks == ((1,), (2, 3, 4, 5), (6, 7), (8,))
    assert wp.pi == (1, 4, 2, 1)
    assert wp.poset.strictly_below(2, 1)
    assert wp.poset.strictly_below(3, 2)
    assert wp.poset.strictly_below(3, 1)
    assert wp.poset.strictly_below(3, 4)
    assert not wp.poset.strictly_below(4, 1)
    assert wp_weight(wp, e(4, 1)) == 7


def test_condense_acyclic_keeps_singletons():
    rng = random.Random(17)
    for _ in range(20):
        size = rng.randint(2, 7)
        relations = [(j, i) for j in range(1, size + 1) for i in range(j + 1, size + 1) if rng.random() < 0.3]
        g = Digraph.from_edges(size, [(i, j) for j, i in relations])
        wp, bm = condense(g)
        assert wp.size == size
        assert wp.pi == (1,) * size


def test_expand_single_heavy_element_is_directed_cycle():
    wp = WeightedPoset(Poset.antichain(1), (4,))
    g, bm = expand(wp)
    assert g.n == 4
    assert set(g.edges) == {(1, 2), (2, 3), (3, 4), (4, 1)}
    assert bm.blocks == ((1, 2, 3, 4),)


def test_expand_uniform_poset_is_order_digraph():
    p = Poset.from_relations(4, [(1, 2), (2, 3)])
    g, bm = expand(WeightedPoset.uniform(p))
    assert g.n == 4
    assert set(g.edges) == {(2, 1), (3, 2), (3, 1)}
    assert bm.blocks == ((1,), (2,), (3,), (4,))


def test_expand_anchor_star(anchor_star_wposet):
    g, bm = expand(anchor_star_wposet)
    assert g.n == 9
    assert bm.blocks == ((1,), (2,), (3,), (4, 5), (6,), (7,), (8,), (9,))
    assert set(g.edges) == {(4, 5), (5, 4), (6, 1), (7, 1), (8, 1), (9, 1)}


def test_condense_of_expand_recovers_weighted_poset():
    rng = random.Random(23)
    for _ in range(25):
        wp = random_wposet(rng, rng.randint(1, 6), max_pi=4)
        g, bm = expand(wp)
        back, _ = condense(g)
        # expansion blocks are consecutive runs, so condensation (ordered by
        # maximum vertex label) restores the original element order
        assert back.pi == wp.pi
        assert back.poset.down == wp.poset.down


def test_expand_of_condense_can_differ():
    chorded = Digraph.from_edges(4, [(2, 1), (2, 3), (3, 4), (1, 4), (4, 2)])
    wp, _ = condense(chorded)
    assert wp.size == 1 and wp.pi == (4,)
    rebuilt, _ = expand(wp)
    assert rebuilt.n == 4
    assert set(rebuilt.edges) != set(chorded.edges)
    again, _ = condense(rebuilt)
    assert again.pi == wp.pi and again.poset.down == wp.poset.down


def test_acyclic_digraph_metric_is_reachability_poset_metric():
    rng = random.Random(29)
    for _ in range(20):
        size = rng.randint(2, 7)
        relations = [
            (j, i)
            for j in range(1, size + 1)
            for i in range(j + 1, size + 1)
            if rng.random() < 0.35
        ]
        g = Digraph.from_edges(size, [(i, j) for j, i in relations])
        wp = WeightedPoset.uniform(Poset.from_relations(size, relations))
        for _ in range(30):
            x = BitVector(size, rng.randrange(1 << size))
            y = BitVector(size, rng.randrange(1 << size))
            assert g_distance(g, x, y) == wp_distance(wp, x, y)


def test_sphere_formula_edgeless():
    for n in (4, 6, 8):
        g = Digraph.from_edges(n, [])
        assert g_sphere_size_formula(g, 2) == 1 + n + n * (n - 1) // 2
        assert g_sphere_size_oracle(g, BitVector.zero(n), 2) == g_sphere_size_formula(g, 2)


def test_sphere_formula_documented_digraph(paired_sinks_digraph):
    assert g_sphere_size_formula(paired_sinks_digraph, 2) == 16
    assert g_sphere_size_oracle(paired_sinks_digraph, BitVector.zero(8), 2) == 16


def test_sphere_formula_matches_oracle_on_randoms():
    rng = random.Random(41)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(2, 10))
        assert g_sphere_size_formula(g, 2) == g_sphere_size_oracle(
            g, BitVector(g.n, rng.randrange(1 << g.n)), 2
        )


def test_sphere_formula_matches_oracle_at_every_radius():
    rng = random.Random(43)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(1, 10))
        x = BitVector(g.n, rng.randrange(1 << g.n))
        for r in range(g.n + 1):
            assert g_sphere_size_formula(g, r) == g_sphere_size_oracle(g, x, r)
    with pytest.raises(ValueError):
        g_sphere_size_formula(g, -1)


def test_metric_axioms_on_random_digraphs():
    rng = random.Random(59)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(2, 8))
        n = g.n
        for _ in range(30):
            x = BitVector(n, rng.randrange(1 << n))
            y = BitVector(n, rng.randrange(1 << n))
            z = BitVector(n, rng.randrange(1 << n))
            assert g_distance(g, x, y) == g_distance(g, y, x)
            assert (g_distance(g, x, y) == 0) == (x == y)
            assert g_distance(g, x, y) <= g_distance(g, x, z) + g_distance(g, z, y)


def test_g_weight_matches_collapsed_weight_structurally():
    rng = random.Random(61)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(2, 8))
        wp, bm = condense(g)
        for _ in range(25):
            mask = rng.randrange(1 << g.n)
            collapsed = 0
            for q, bmask in enumerate(bm.block_masks()):
                if mask & bmask:
                    collapsed |= 1 << q
            assert g.weight_of_mask(mask) == wp.weight_of_mask(collapsed)


def test_blockmap_validation():
    with pytest.raises(ValueError):
        BlockMap(3, 2, ((1,), (2,)))
    with pytest.raises(ValueError):
        BlockMap(3, 2, ((1, 2), (2, 3)))
