import random

import pytest

from perfcode.bitvec import BitVector, add, hamming_weight
from perfcode.digraph import expand
from perfcode.poset import Poset, closure_mask
from perfcode.wposet import (
    WeightedPoset,
    closed_sets,
    omega_census,
    sphere_size_formula,
    sphere_size_oracle,
    weight_table,
    wp_distance,
    wp_weight,
)

from conftest import random_digraph, random_poset, random_wposet


def e(length, *coords):
    return BitVector.from_support(length, coords)


def test_rejects_non_positive_weights():
    with pytest.raises(ValueError):
        WeightedPoset(Poset.antichain(3), (1, 0, 1))
    with pytest.raises(ValueError):
        WeightedPoset(Poset.antichain(3), (1, 1))


def test_weight_of_zero(induced_diamond_wposet):
    assert wp_weight(induced_diamond_wposet, BitVector.zero(4)) == 0


def test_weight_follows_closure(induced_diamond_wposet):
    # element 1 sits above 2 which sits above 3, weights (1, 4, 2, 1)
    assert wp_weight(induced_diamond_wposet, e(4, 1)) == 7
    assert wp_weight(induced_diamond_wposet, e(4, 4)) == 3
    assert wp_weight(induced_diamond_wposet, e(4, 2)) == 6
    assert wp_weight(induced_diamond_wposet, e(4, 1, 4)) == 8


def test_weight_length_mismatch(induced_diamond_wposet):
    with pytest.raises(ValueError):
        wp_weight(induced_diamond_wposet, BitVector.zero(5))


def test_distance_basics(induced_diamond_wposet):
    wp = induced_diamond_wposet
    x = e(4, 1, 3)
    assert wp_distance(wp, x, x) == 0
    assert wp_distance(wp, x, BitVector.zero(4)) == wp_weight(wp, x)


def test_uniform_antichain_is_hamming_distance():
    wp = WeightedPoset.uniform(Poset.antichain(7))
    rng = random.Random(5)
    for _ in range(200):
        x = BitVector(7, rng.randrange(128))
        y = BitVector(7, rng.randrange(128))
        assert wp_distance(wp, x, y) == hamming_weight(add(x, y))


def test_uniform_weight_is_ideal_size():
    rng = random.Random(6)
    for _ in range(50):
        wp = random_wposet(rng, 7, max_pi=1)
        x = BitVector(7, rng.randrange(128))
        assert wp_weight(wp, x) == len(
            {i for i in range(7) if wp.poset.close_mask(x.bits) >> i & 1}
        )


def test_metric_axioms_on_random_instances():
    rng = random.Random(42)
    for _ in range(25):
        wp = random_wposet(rng, rng.randint(2, 8))
        n = wp.size
        for _ in range(40):
            x = BitVector(n, rng.randrange(1 << n))
            y = BitVector(n, rng.randrange(1 << n))
            z = BitVector(n, rng.randrange(1 << n))
            assert wp_distance(wp, x, y) == wp_distance(wp, y, x)
            assert (wp_distance(wp, x, y) == 0) == (x == y)
            assert wp_distance(wp, x, y) <= wp_distance(wp, x, z) + wp_distance(wp, z, y)
            assert wp_weight(wp, x) >= hamming_weight(x)
            assert wp_weight(wp, add(x, y)) <= wp_weight(wp, x) + wp_weight(wp, y)


def test_census_of_uniform_antichain():
    wp = WeightedPoset.uniform(Poset.antichain(5))
    census = omega_census(wp, 5)
    from math import comb

    for (j, w, i), count in census.as_dict().items():
        assert i == j == w
        assert count == comb(5, i)
    assert census.get(1, 1, 1) == 5
    assert census.get(2, 2, 2) == 10
    assert census.get(1, 2, 2) == 0


def test_census_bounds_hold_on_randoms():
    rng = random.Random(31)
    for _ in range(20):
        wp = random_wposet(rng, rng.randint(2, 8))
        census = omega_census(wp, wp.total_weight)
        for (j, w, i), count in census.as_dict().items():
            assert count >= 0
            assert j <= i <= w


def test_two_element_ideal_weight(heavy_anchor_wposet):
    assert wp_weight(heavy_anchor_wposet, e(8, 5)) == 2
    assert wp_weight(heavy_anchor_wposet, e(8, 4)) == 2
    assert wp_weight(heavy_anchor_wposet, e(8, 1)) == 1


def test_structure_vector_of_documented_structures(heavy_anchor_wposet, anchor_star_wposet, two_anchor_wposet):
    assert omega_census(heavy_anchor_wposet, 2).structure_vector() == (4, 3, 1)
    assert omega_census(anchor_star_wposet, 2).structure_vector() == (3, 1, 4)
    assert omega_census(two_anchor_wposet, 2).structure_vector() == (3, 1, 4)


def test_sphere_size_at_radius_zero(anchor_star_wposet):
    assert sphere_size_formula(anchor_star_wposet, 0) == 1
    assert sphere_size_oracle(anchor_star_wposet, BitVector.zero(8), 0) == 1


def test_sphere_size_sixteen_for_admitting_structures(
    anchor_star_wposet, two_anchor_wposet, heavy_anchor_wposet
):
    for wp in (anchor_star_wposet, two_anchor_wposet, heavy_anchor_wposet):
        assert sphere_size_formula(wp, 2) == 16
        assert sphere_size_oracle(wp, BitVector.zero(8), 2) == 16


def test_sphere_oracle_saturates(induced_diamond_wposet):
    wp = induced_diamond_wposet
    assert sphere_size_oracle(wp, e(4, 2), wp.total_weight) == 16


def test_formula_matches_oracle_on_randoms():
    rng = random.Random(77)
    for _ in range(12):
        wp = random_wposet(rng, rng.randint(2, 8))
        n = wp.size
        for r in range(wp.total_weight + 1):
            expected = sphere_size_formula(wp, r)
            assert sphere_size_oracle(wp, BitVector.zero(n), r) == expected
        for _ in range(15):
            x = BitVector(n, rng.randrange(1 << n))
            r = rng.randint(0, wp.total_weight)
            assert sphere_size_oracle(wp, x, r) == sphere_size_formula(wp, r)


def test_weight_table_agrees_with_weight():
    rng = random.Random(8)
    wp = random_wposet(rng, 6)
    table = weight_table(wp)
    for mask in range(64):
        assert table[mask] == wp_weight(wp, BitVector(6, mask))


def test_negative_radius_rejected(anchor_star_wposet):
    with pytest.raises(ValueError):
        sphere_size_formula(anchor_star_wposet, -1)


def _closed_sets_by_brute_force(s):
    """{S: (weight, maximal coordinates, supports)} over every non-empty
    closed set S, from the closures of all 2**n masks."""
    gens, n = s.generators, len(s.generators)
    supports = {}
    for mask in range(1, 1 << n):
        closed = closure_mask(gens, mask)
        supports[closed] = supports.get(closed, 0) + 1
    out = {}
    for closed, count in supports.items():
        members = [u for u in range(n) if closed >> u & 1]
        weight = sum(s.pi[u] for u in members)
        # u is maximal unless some member's closure holds u but not the reverse
        tops = sum(1 << u for u in members
                   if not any(gens[v] >> u & 1 and not gens[u] >> v & 1 for v in members))
        out[closed] = (weight, tops, count)
    return out


def test_closed_sets_match_brute_force_at_every_radius():
    rng = random.Random(17)
    structures = []
    for n in [1, 2, 3] + [rng.randint(4, 12) for _ in range(12)] + [12]:
        density = rng.choice((0.03, 0.08, 0.15, 0.3))
        pi = tuple(rng.randint(1, 3) for _ in range(n))
        wp = WeightedPoset(random_poset(rng, n, density), pi)
        structures += [wp, random_digraph(rng, n, density)]
        if sum(pi) <= 12:  # strong components of up to three vertices
            structures.append(expand(wp)[0])
    for s in structures:
        expected = _closed_sets_by_brute_force(s)
        for r in range(sum(s.pi) + 1):
            got = [(closed, (weight, tops, count))
                   for closed, weight, tops, count in closed_sets(s, r)]
            assert len(got) == len(dict(got))
            assert dict(got) == {c: v for c, v in expected.items() if v[0] <= r}
