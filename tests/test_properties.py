"""Property tests of the closure metric on random weighted posets and
digraphs: the metric axioms, and agreement of the three sphere counts (the
closed-set fold, the brute-force oracle and the grown ball)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from perfcode import codes
from perfcode.bitvec import BitVector
from perfcode.codes import MetricContext
from perfcode.digraph import Digraph
from perfcode.poset import Poset
from perfcode.wposet import WeightedPoset, sphere_size_oracle

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def structures(draw):
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        relations = [p for p in pairs if draw(st.booleans())]
        pi = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        return WeightedPoset(Poset.from_relations(n, relations), tuple(pi))
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return Digraph.from_edges(n, [a for a in arcs if draw(st.integers(0, 3)) == 0])


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
