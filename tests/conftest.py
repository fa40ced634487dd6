"""Shared structure builders for the test suite.

These are built directly from relation lists, independent of the library's
own enumeration and family constructors, so they can serve as oracles for
those code paths.
"""

from __future__ import annotations

import random

import pytest

from perfcode.digraph import Digraph
from perfcode.poset import Poset
from perfcode.wposet import WeightedPoset


def wposet_from(size, relations, heavy=()):
    pi = tuple(2 if i in heavy else 1 for i in range(1, size + 1))
    return WeightedPoset(Poset.from_relations(size, relations), pi)


@pytest.fixture
def cycle_tail_digraph():
    """Four vertices: 1 feeds a 3-cycle 2 -> 3 -> 4 -> 2."""
    return Digraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 2)])


@pytest.fixture
def mixed_component_digraph():
    """Eight vertices with components {1}, {2,3,4,5}, {6,7}, {8}."""
    return Digraph.from_edges(
        8,
        [(1, 2), (2, 3), (3, 4), (3, 5), (5, 4), (4, 2), (2, 6), (8, 7), (6, 7), (7, 6)],
    )


@pytest.fixture
def induced_diamond_wposet():
    """The weighted poset induced by mixed_component_digraph: elements
    1,2,3,4 with 2 below 1, 3 below 2, 3 below 4 and weights (1,4,2,1)."""
    return WeightedPoset(Poset.from_relations(4, [(2, 1), (3, 2), (3, 4)]), (1, 4, 2, 1))


@pytest.fixture
def anchor_star_wposet():
    """(3,1,4) representative on documented coordinates: anchors 1,2,3, the
    heavy singleton 4, and 5..8 all above anchor 1."""
    return wposet_from(8, [(1, 5), (1, 6), (1, 7), (1, 8)], heavy={4})


@pytest.fixture
def two_anchor_wposet():
    """(3,1,4) second admitting labeling: 5,6 above 1 and 7,8 above 2."""
    return wposet_from(8, [(1, 5), (1, 6), (2, 7), (2, 8)], heavy={4})


@pytest.fixture
def heavy_anchor_wposet():
    """(4,3,1) on documented coordinates: heavies 4,6,7, and 5 above 1."""
    return wposet_from(8, [(1, 5)], heavy={4, 6, 7})


@pytest.fixture
def paired_sinks_digraph():
    """(3,1,3) admitting digraph on documented coordinates: two-cycle {1,5},
    sinks 2,3,4, arrows 8 -> 2, 6 -> 3, 7 -> 4."""
    return Digraph.from_edges(8, [(1, 5), (5, 1), (8, 2), (6, 3), (7, 4)])


def random_poset(rng: random.Random, size: int, density: float = 0.3) -> Poset:
    relations = []
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if rng.random() < density:
                relations.append((i, j))
    return Poset.from_relations(size, relations)


def covers_by_definition(p):
    """(j, i) with j below i and nothing strictly between, ascending by i then j."""
    elements = range(1, p.size + 1)
    return [(j, i) for i in elements for j in elements
            if p.strictly_below(j, i)
            and not any(p.strictly_below(j, k) and p.strictly_below(k, i) for k in elements)]


def maximal_by_definition(p, mask):
    """The members of the mask strictly below no other member."""
    members = [i for i in range(1, p.size + 1) if mask >> (i - 1) & 1]
    return sum(1 << (i - 1) for i in members
               if not any(p.strictly_below(i, j) for j in members))


def random_wposet(rng: random.Random, size: int, max_pi: int = 3) -> WeightedPoset:
    poset = random_poset(rng, size)
    return WeightedPoset(poset, tuple(rng.randint(1, max_pi) for _ in range(size)))


def random_digraph(rng: random.Random, size: int, density: float = 0.25) -> Digraph:
    edges = []
    for u in range(1, size + 1):
        for v in range(1, size + 1):
            if u != v and rng.random() < density:
                edges.append((u, v))
    return Digraph.from_edges(size, edges)
