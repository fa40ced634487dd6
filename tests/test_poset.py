import random

import pytest

from perfcode.poset import (
    Poset,
    enumerate_order_ideals,
    ideal_closure,
    is_order_ideal,
    maximal_elements,
)

from conftest import covers_by_definition, maximal_by_definition, random_poset


def test_closure_trivial_cases():
    chain = Poset.chain(3)
    assert ideal_closure(chain, set()) == set()
    assert ideal_closure(chain, {3}) == {1, 2, 3}
    anti = Poset.antichain(5)
    assert ideal_closure(anti, {2, 4}) == {2, 4}


def test_closure_out_of_range():
    with pytest.raises(ValueError):
        ideal_closure(Poset.chain(3), {4})


def test_is_order_ideal():
    chain = Poset.chain(2)
    assert is_order_ideal(chain, set())
    assert is_order_ideal(chain, {1})
    assert not is_order_ideal(chain, {2})


def test_maximal_elements():
    anti = Poset.antichain(4)
    assert maximal_elements(anti, {1, 3}) == {1, 3}
    chain = Poset.chain(3)
    assert maximal_elements(chain, {1, 2}) == {2}
    assert maximal_elements(chain, set()) == set()
    with pytest.raises(ValueError):
        maximal_elements(chain, {2})


def test_transitive_closure_from_covers():
    via_covers = Poset.from_relations(4, [(1, 2), (2, 3), (3, 4)])
    via_full = Poset.from_relations(
        4, [(1, 2), (2, 3), (3, 4), (1, 3), (1, 4), (2, 4)]
    )
    assert via_covers.down == via_full.down
    assert via_covers.strictly_below(1, 4)
    assert not via_covers.strictly_below(4, 1)


def test_cycle_rejected():
    with pytest.raises(ValueError):
        Poset.from_relations(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        Poset.from_relations(2, [(1, 1)])


def test_ideal_counts_for_standard_shapes():
    assert sum(1 for _ in enumerate_order_ideals(Poset.antichain(6))) == 64
    assert sum(1 for _ in enumerate_order_ideals(Poset.chain(6))) == 7


def test_ideal_count_one_minimal_below_all_seven():
    # one element below seven others: ideals are the empty set plus any set
    # of upper elements together with the bottom
    star = Poset.from_relations(8, [(1, i) for i in range(2, 9)])
    ideals = list(enumerate_order_ideals(star))
    assert len(ideals) == 129
    filtered = sum(
        1
        for mask in range(256)
        if is_order_ideal(star, {i + 1 for i in range(8) if mask >> i & 1})
    )
    assert filtered == 129


def test_ideal_count_one_minimal_below_four_of_seven():
    poset = Poset.from_relations(8, [(1, i) for i in (2, 3, 4, 5)])
    ideals = list(enumerate_order_ideals(poset))
    assert len(ideals) == 136
    filtered = sum(
        1
        for mask in range(256)
        if is_order_ideal(poset, {i + 1 for i in range(8) if mask >> i & 1})
    )
    assert filtered == 136


def test_enumeration_matches_subset_filter_on_random_posets():
    rng = random.Random(2024)
    for _ in range(20):
        p = random_poset(rng, rng.randint(2, 9))
        from_enum = {frozenset(ideal) for ideal in enumerate_order_ideals(p)}
        from_filter = {
            frozenset(i + 1 for i in range(p.size) if mask >> i & 1)
            for mask in range(1 << p.size)
            if is_order_ideal(p, {i + 1 for i in range(p.size) if mask >> i & 1})
        }
        assert from_enum == from_filter
        for ideal in from_enum:
            assert is_order_ideal(p, ideal)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_order_ideals(Poset.antichain(21)))


def test_closure_is_idempotent_monotone_union_distributive():
    rng = random.Random(99)
    for _ in range(30):
        p = random_poset(rng, 8)
        a = {i for i in range(1, 9) if rng.random() < 0.4}
        b = {i for i in range(1, 9) if rng.random() < 0.4}
        ca = ideal_closure(p, a)
        assert ideal_closure(p, ca) == ca
        if a <= b:
            assert ca <= ideal_closure(p, b)
        assert ideal_closure(p, a | b) == ca | ideal_closure(p, b)
        assert a <= ca


def test_covers_and_maximal_elements_match_definitions():
    rng = random.Random(14)
    for _ in range(40):
        drawn = random_poset(rng, rng.randint(1, 9), density=rng.choice((0.15, 0.3, 0.6)))
        labels = rng.sample(range(1, drawn.size + 1), drawn.size)  # not only natural labelings
        p = Poset.from_relations(drawn.size, [(labels[j - 1], labels[i - 1])
                                              for j, i in covers_by_definition(drawn)])
        assert list(p.cover_relations()) == covers_by_definition(p)
        for mask in range(1 << p.size):
            assert p.maximal_mask(mask) == maximal_by_definition(p, mask)
