import random
from math import comb

import pytest

from perfcode import codes
from perfcode.bitvec import BitVector
from perfcode.classify import build_family_digraph, build_family_wposet, relabel
from perfcode.codes import (
    BinaryLinearCode,
    MetricContext,
    check_perfect_conditions,
    check_weight4_partitions,
    codeword_masks,
    codewords,
    covering_radius,
    extended_hamming,
    is_r_perfect,
    max_singleton_weight,
    min_hamming_distance,
    packing_radius,
    weight4_codeword_masks,
)
from perfcode.poset import Poset
from perfcode.wposet import WeightedPoset

from conftest import random_digraph, random_wposet

# the sixteen codewords of the length-8 extended Hamming code
K3_CODEWORDS = {
    "00000000", "00001111", "10010110", "10011001",
    "01011010", "01010101", "11001100", "11000011",
    "00111100", "00110011", "10101010", "10100101",
    "01100110", "01101001", "11110000", "11111111",
}


def ctx_of(structure):
    if isinstance(structure, WeightedPoset):
        return MetricContext.for_wposet(structure)
    return MetricContext.for_digraph(structure)


def test_extended_hamming_k3_parameters():
    h3 = extended_hamming(3)
    assert h3.length == 8
    assert h3.dimension == 4
    assert min_hamming_distance(h3) == 4
    assert {v.to_literal() for v in codewords(h3)} == K3_CODEWORDS


def test_parity_check_column_convention():
    h3 = extended_hamming(3)
    rows = h3.parity_check
    assert len(rows) == 4
    assert rows[0] == 0xFF
    # column i reads the binary digits of i-1, least significant bit last
    for i in range(1, 9):
        column = tuple(rows[r] >> (i - 1) & 1 for r in range(1, 4))
        value = (column[0] << 2) | (column[1] << 1) | column[2]
        assert value == i - 1


def test_extended_hamming_k4():
    h4 = extended_hamming(4)
    assert h4.length == 16
    assert h4.dimension == 11
    assert len(codeword_masks(h4)) == 2048
    assert min_hamming_distance(h4) == 4


def test_extended_hamming_codewords_even_weight_and_all_ones():
    for k in (2, 3, 4):
        code = extended_hamming(k)
        masks = codeword_masks(code)
        assert all(m.bit_count() % 2 == 0 for m in masks)
        assert (1 << code.length) - 1 in masks


def test_extended_hamming_range():
    with pytest.raises(ValueError):
        extended_hamming(1)
    with pytest.raises(ValueError):
        extended_hamming(6)


def test_codewords_message_order():
    code = extended_hamming(3)
    masks = codeword_masks(code)
    assert masks[0] == 0
    for msg in range(16):
        expected = 0
        for j in range(4):
            if msg >> j & 1:
                expected ^= code.basis[j]
        assert masks[msg] == expected


def test_dimension_zero_code():
    trivial = BinaryLinearCode.from_basis(4, [])
    assert list(codewords(trivial)) == [BitVector.zero(4)]


def test_dependent_basis_rejected():
    with pytest.raises(ValueError):
        BinaryLinearCode.from_basis(4, [0b0011, 0b0101, 0b0110])


def test_weight4_codeword_count_matches_combinatorics():
    # quadruples summing to zero: each of the n(n-1)(n-2)/24 completions
    for k in (3, 4):
        n = 1 << k
        assert len(weight4_codeword_masks(extended_hamming(k))) == n * (n - 1) * (n - 2) // 24


def test_weight4_syndrome_route_agrees_with_enumeration():
    for k in (3, 4):
        code = extended_hamming(k)
        from_enumeration = {m for m in codeword_masks(code) if m.bit_count() == 4}
        assert set(weight4_codeword_masks(code)) == from_enumeration


def test_syndrome_routes_agree_with_enumeration_on_random_codes():
    rng = random.Random(229)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 14)
        dim = rng.randint(1, min(n - 1, 10))
        try:
            code = BinaryLinearCode.from_basis(n, [rng.randrange(1, 1 << n) for _ in range(dim)])
        except ValueError:
            continue
        d = min_hamming_distance(code)
        capped = codes._min_distance_capped(code)
        assert capped == (d if d <= 4 else None)
        seen.add(capped)
        from_enumeration = {m for m in codeword_masks(code) if m.bit_count() == 4}
        assert set(weight4_codeword_masks(code)) == from_enumeration
    assert seen == {1, 2, 3, 4, None}


def test_weight4_syndrome_route_at_k5():
    h5 = extended_hamming(5)
    masks = weight4_codeword_masks(h5)
    assert len(masks) == 32 * 31 * 30 // 24
    rows = h5.parity_check
    for m in random.Random(0).sample(list(masks), 50):
        assert m.bit_count() == 4
        assert all((row & m).bit_count() % 2 == 0 for row in rows)


def test_perfectness_of_documented_structures(heavy_anchor_wposet, anchor_star_wposet,
                                              two_anchor_wposet, paired_sinks_digraph):
    h3 = extended_hamming(3)
    for structure in (heavy_anchor_wposet, anchor_star_wposet, two_anchor_wposet,
                      paired_sinks_digraph):
        ctx = ctx_of(structure)
        assert is_r_perfect(h3, ctx, 2)
        report = check_perfect_conditions(h3, ctx, 2)
        assert report.perfect
        assert report.sphere_size == report.expected_sphere_size == 16
        assert report.witness is None
        assert check_weight4_partitions(h3, ctx)
        assert packing_radius(h3, ctx) == 2
        assert covering_radius(h3, ctx) == 2


def test_not_perfect_in_plain_hamming_metric():
    h3 = extended_hamming(3)
    ctx = MetricContext.for_wposet(WeightedPoset.uniform(Poset.antichain(8)))
    assert not is_r_perfect(h3, ctx, 2)
    report = check_perfect_conditions(h3, ctx, 2)
    assert not report.sphere_condition
    assert not report.partition_condition
    assert report.witness is not None
    c, (x, y) = report.witness
    assert x.bits ^ y.bits == c.bits and x.bits & y.bits == 0
    assert not check_weight4_partitions(h3, ctx)
    assert packing_radius(h3, ctx) == 1
    assert covering_radius(h3, ctx) == 2


def test_whole_space_code_radii():
    whole = BinaryLinearCode.from_basis(4, [1, 2, 4, 8])
    ctx = MetricContext.for_wposet(WeightedPoset.uniform(Poset.antichain(4)))
    assert packing_radius(whole, ctx) == 0
    assert covering_radius(whole, ctx) == 0
    assert is_r_perfect(whole, ctx, 0)


def test_r_zero_not_perfect_for_proper_code(anchor_star_wposet):
    assert not is_r_perfect(extended_hamming(3), ctx_of(anchor_star_wposet), 0)


def test_conditions_agree_with_exhaustion_on_randoms():
    rng = random.Random(101)
    h3 = extended_hamming(3)
    for _ in range(40):
        wp = random_wposet(rng, 8, max_pi=2)
        ctx = MetricContext.for_wposet(wp)
        r = rng.randint(1, 3)
        assert check_perfect_conditions(h3, ctx, r).perfect == is_r_perfect(h3, ctx, r)


def test_restricted_check_matches_full_partition_condition():
    rng = random.Random(103)
    h3 = extended_hamming(3)
    agreements = 0
    for _ in range(60):
        wp = random_wposet(rng, 8, max_pi=2)
        ctx = MetricContext.for_wposet(wp)
        report = check_perfect_conditions(h3, ctx, 2)
        assert check_weight4_partitions(h3, ctx) == report.partition_condition
        agreements += 1
    assert agreements == 60


def test_restricted_check_requires_distance_four():
    repetition = BinaryLinearCode.from_basis(4, [0b1111])
    ctx = MetricContext.for_wposet(WeightedPoset.uniform(Poset.antichain(4)))
    assert min_hamming_distance(repetition) == 4
    assert isinstance(check_weight4_partitions(repetition, ctx), bool)
    parity = BinaryLinearCode.from_basis(3, [0b011, 0b101])
    ctx3 = MetricContext.for_wposet(WeightedPoset.uniform(Poset.antichain(3)))
    with pytest.raises(ValueError):
        check_weight4_partitions(parity, ctx3)


def test_max_singleton_weight(cycle_tail_digraph, paired_sinks_digraph):
    assert max_singleton_weight(MetricContext.for_digraph(cycle_tail_digraph)) == 4
    assert max_singleton_weight(MetricContext.for_digraph(paired_sinks_digraph)) == 2
    anti = MetricContext.for_wposet(WeightedPoset.uniform(Poset.antichain(5)))
    assert max_singleton_weight(anti) == 1


def test_two_perfect_structures_have_small_singleton_weights():
    h3 = extended_hamming(3)
    rng = random.Random(107)
    for _ in range(40):
        wp = random_wposet(rng, 8, max_pi=3)
        ctx = MetricContext.for_wposet(wp)
        if is_r_perfect(h3, ctx, 2):
            assert max_singleton_weight(ctx) <= 2


def test_length_mismatch_rejected(anchor_star_wposet):
    with pytest.raises(ValueError):
        is_r_perfect(extended_hamming(4), ctx_of(anchor_star_wposet), 2)


def test_code_like_inputs(paired_sinks_digraph):
    h3 = extended_hamming(3)
    ctx = ctx_of(paired_sinks_digraph)
    as_vectors = list(codewords(h3))
    assert packing_radius(as_vectors, ctx) == packing_radius(h3, ctx) == 2
    assert covering_radius(as_vectors, ctx) == 2
    assert is_r_perfect(as_vectors, ctx, 2)


def _random_linear_code(rng, n):
    while True:
        basis = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, min(n, 5)))]
        try:
            return BinaryLinearCode.from_basis(n, basis)
        except ValueError:
            continue


def _split_witness_by_loop(code, ctx, r):
    """Reference walk: every codeword in message order, every split of it in
    descending-subset order; the first split with both parts within r."""
    for c in codeword_masks(code):
        if c == 0:
            continue
        sub = c
        while True:
            other = c ^ sub
            if sub <= other and ctx.weight_of_mask(sub) <= r and ctx.weight_of_mask(other) <= r:
                return c, sub, other
            if sub == 0:
                break
            sub = (sub - 1) & c
    return None


@pytest.mark.parametrize("chunk", [None, 7])
def test_exhaustion_and_conditions_agree_with_brute_force(monkeypatch, chunk):
    if chunk is not None:  # scatter a few codewords per call, so counts add up across chunks
        monkeypatch.setattr(codes, "SCATTER_CHUNK", chunk)
    rng = random.Random(211)
    for trial in range(48):
        n = rng.randint(1, 8)
        structure = random_wposet(rng, n) if trial % 2 else random_digraph(rng, n)
        ctx = ctx_of(structure)
        linear = _random_linear_code(rng, n)
        subset = [BitVector(n, m) for m in rng.sample(range(1 << n), rng.randint(1, min(12, 1 << n)))]
        for code in (linear, subset):
            masks = list(codeword_masks(code)) if code is linear else [v.bits for v in code]
            dist = [[ctx.weight_of_mask(y ^ c) for c in masks] for y in range(1 << n)]

            def fits(r, want):
                return all(want(sum(d <= r for d in row)) for row in dist)

            cap = ctx.total_weight
            packing = 0
            if len(masks) < 2:
                packing = cap
            while packing < cap and fits(packing + 1, lambda k: k <= 1):
                packing += 1
            assert packing_radius(code, ctx) == packing
            assert covering_radius(code, ctx) == max(min(row) for row in dist)
            for r in range(5):
                assert is_r_perfect(code, ctx, r) == fits(r, lambda k: k == 1)
        for r in range(5):
            report = check_perfect_conditions(linear, ctx, r)
            expected = _split_witness_by_loop(linear, ctx, r)
            assert report.partition_condition == (expected is None)
            got = None
            if report.witness is not None:
                c, (x, y) = report.witness
                got = (c.bits, x.bits, y.bits)
            assert got == expected
            assert report.sphere_size == sum(ctx.weight_of_mask(x) <= r for x in range(1 << n))


def test_ball_enumeration_matches_census():
    rng = random.Random(223)
    for _ in range(30):
        wp = random_wposet(rng, rng.randint(1, 10))
        ctx = MetricContext.for_wposet(wp)
        for r in range(wp.total_weight + 1):
            ball = codes._ball(ctx, r)
            assert len(ball) == len(set(ball)) == ctx.sphere_size(r)
            assert all(ctx.weight_of_mask(x) <= r for x in ball)
    for _ in range(30):
        ctx = MetricContext.for_digraph(random_digraph(rng, rng.randint(1, 12)))
        for r in range(ctx.total_weight + 1):
            ball = codes._ball(ctx, r)
            assert len(ball) == len(set(ball)) == ctx.sphere_size(r)


def _affine_labeling(rng, k):
    """Labeling i -> A(i-1) + b + 1 with A invertible: an automorphism of h_k."""
    n = 1 << k
    while True:
        cols = [rng.randrange(1, n) for _ in range(k)]
        try:
            BinaryLinearCode.from_basis(k, cols)
            break
        except ValueError:
            continue
    b = rng.randrange(n)
    out = []
    for x in range(n):
        y = b
        for j in range(k):
            if x >> j & 1:
                y ^= cols[j]
        out.append(y + 1)
    return out


def test_conditions_decide_h5_relabelings():
    rng = random.Random(227)
    h5 = extended_hamming(5)
    families = [build_family_wposet(5, 1), build_family_wposet(5, 2), build_family_digraph(5)]
    verdicts = set()
    for trial in range(18):
        family = families[trial % 3]
        if trial % 2:
            lab = list(range(1, 33))
            rng.shuffle(lab)
        else:
            lab = _affine_labeling(rng, 5)
        ctx = ctx_of(relabel(family.relabeled(), lab))
        perfect = check_perfect_conditions(h5, ctx, 2).perfect
        assert perfect == (ctx.sphere_size(2) == 64 and check_weight4_partitions(h5, ctx))
        verdicts.add(perfect)
    assert verdicts == {True, False}


def test_conditions_refuse_a_ball_past_the_limit(monkeypatch):
    code = extended_hamming(3)
    ctx = MetricContext.of(WeightedPoset.uniform(Poset.antichain(8)))
    monkeypatch.setattr(codes, "BALL_LIMIT", 36)
    assert check_perfect_conditions(code, ctx, 1).sphere_size == 9
    with pytest.raises(ValueError, match="radius-2 ball of 37 masks exceeds ball limit 36"):
        check_perfect_conditions(code, ctx, 2)
    monkeypatch.setattr(codes, "BALL_LIMIT", 37)
    assert check_perfect_conditions(code, ctx, 2).sphere_size == 37


def test_conditions_stop_the_fold_at_the_ball_limit(monkeypatch):
    """A refusal costs about BALL_LIMIT closed sets, not the whole sphere: on
    a 30-element antichain the radius-7 sphere has 2804012 masks."""
    code = BinaryLinearCode.from_basis(30, [0b11 << i for i in range(0, 28, 2)])
    ctx = MetricContext.of(WeightedPoset.uniform(Poset.antichain(30)))
    fold = codes.closed_sets
    yielded = 0

    def counted(*args):
        nonlocal yielded
        for item in fold(*args):
            yielded += 1
            yield item

    monkeypatch.setattr(codes, "closed_sets", counted)
    monkeypatch.setattr(codes, "BALL_LIMIT", 1000)
    with pytest.raises(ValueError, match="radius-7 ball of 1001 masks exceeds ball limit 1000"):
        check_perfect_conditions(code, ctx, 7)
    assert yielded == 1000  # each subset of an antichain is one support
