"""Property tests on random weighted posets and digraphs: the metric
axioms of the closure metric, agreement of the three sphere counts (the
closed-set fold, the brute-force oracle and the grown ball), the poset's
covers and maximal elements against their definitions, relabeling and
condensation against rebuilds from their definitions, and weight
preservation under collapse and expansion."""

from hypothesis import given, settings
from hypothesis import strategies as st

from perfcode import codes
from perfcode.bitvec import BitVector
from perfcode.classify import relabel
from perfcode.codes import MetricContext
from perfcode.digraph import Digraph, condense, expand, g_weight
from perfcode.poset import Poset
from perfcode.transfer import collapse, expand_vec
from perfcode.wposet import WeightedPoset, sphere_size_oracle, wp_weight

from conftest import covers_by_definition, maximal_by_definition

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def wposets(draw):
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    relations = [p for p in pairs if draw(st.booleans())]
    pi = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return WeightedPoset(Poset.from_relations(n, relations), tuple(pi))


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 8))
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return Digraph.from_edges(n, [a for a in arcs if draw(st.integers(0, 3)) == 0])


def structures():
    return st.one_of(wposets(), digraphs())


@SETTINGS
@given(structures(), st.data())
def test_closure_metric_axioms(structure, data):
    ctx = MetricContext.of(structure)
    n = ctx.length
    x, y, z = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(3))

    def d(a, b):
        return ctx.weight_of_mask(a ^ b)

    assert d(x, y) == d(y, x)
    assert (d(x, y) == 0) == (x == y)
    assert d(x, y) <= d(x, z) + d(z, y)
    assert ctx.weight_of_mask(x) >= x.bit_count()
    assert ctx.weight_of_mask(x) == structure.weight_of_mask(x)


@SETTINGS
@given(structures())
def test_fold_oracle_and_ball_agree(structure):
    ctx = MetricContext.of(structure)
    n = ctx.length
    assert ctx.weights().tolist() == [ctx.weight_of_mask(m) for m in range(1 << n)]
    zero = BitVector.zero(n)
    for r in range(ctx.total_weight + 1):
        size = ctx.sphere_size(r)
        assert size == sphere_size_oracle(structure, zero, r) == len(codes._ball(ctx, r))


@SETTINGS
@given(wposets(), st.data())
def test_covers_and_maximal_elements_match_definitions(wp, data):
    p = wp.poset
    assert list(p.cover_relations()) == covers_by_definition(p)
    for mask in data.draw(st.lists(st.integers(0, (1 << p.size) - 1), max_size=16)):
        assert p.maximal_mask(mask) == maximal_by_definition(p, mask)


@SETTINGS
@given(digraphs(), st.data())
def test_collapse_preserves_weight(g, data):
    wp, bm = condense(g)
    for x in data.draw(st.lists(st.integers(0, (1 << g.n) - 1), min_size=1, max_size=16)):
        v = BitVector(g.n, x)
        assert g_weight(g, v) == wp_weight(wp, collapse(bm, v))


@SETTINGS
@given(wposets(), st.data())
def test_expansion_preserves_weight(wp, data):
    g, bm = expand(wp)
    for u in data.draw(st.lists(st.integers(0, (1 << wp.size) - 1), min_size=1, max_size=16)):
        v = BitVector(wp.size, u)
        assert wp_weight(wp, v) == g_weight(g, expand_vec(bm, v))


@SETTINGS
@given(wposets(), st.data())
def test_relabel_matches_rebuild_from_relations(wp, data):
    n = wp.size
    lab = data.draw(st.permutations(range(1, n + 1)))
    p = wp.poset
    relations = [(lab[j - 1], lab[i - 1]) for i in range(1, n + 1) for j in range(1, n + 1)
                 if p.strictly_below(j, i)]
    pi = [0] * n
    for i in range(n):
        pi[lab[i] - 1] = wp.pi[i]
    assert relabel(wp, lab) == WeightedPoset(Poset.from_relations(n, relations), tuple(pi))


def _reachable(g):
    """Vertices reachable from each vertex, itself included, by search over the edges."""
    out = {v: set() for v in range(1, g.n + 1)}
    for v, seen in out.items():
        todo = [v]
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo += [b for a, b in g.edges if a == u]
    return out


@SETTINGS
@given(digraphs())
def test_condense_blocks_are_mutual_reachability_classes(g):
    reach = _reachable(g)
    classes = {tuple(sorted(u for u in reach[v] if v in reach[u])) for v in reach}
    wp, bm = condense(g)
    assert sorted(bm.blocks) == sorted(classes)
    assert [max(b) for b in bm.blocks] == sorted(max(c) for c in classes)
    assert wp.pi == tuple(len(b) for b in bm.blocks)


@SETTINGS
@given(digraphs())
def test_condense_order_is_reach_between_blocks(g):
    reach = _reachable(g)
    wp, bm = condense(g)
    for a, upper in enumerate(bm.blocks, start=1):
        for b, lower in enumerate(bm.blocks, start=1):
            reaches = any(v in reach[u] for u in upper for v in lower)
            assert wp.poset.strictly_below(b, a) == (a != b and reaches)
