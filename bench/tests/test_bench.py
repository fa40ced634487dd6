"""Tests of the benchmark itself: its generators, known answers, gate and
trace arithmetic.  Run with `python3 -m pytest bench/tests`."""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import islice, permutations
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads as wl
from plan import PLANS
from perfcode.codes import codeword_masks, extended_hamming, weight4_codeword_masks

ROOT = Path(__file__).resolve().parents[2]


def relabel_mask(mask: int, lab) -> int:
    out = 0
    for p, coord in enumerate(lab):
        if mask >> p & 1:
            out |= 1 << (coord - 1)
    return out


# --- generators -----------------------------------------------------------------


def test_affine_labeling_preserves_h4_codewords():
    words = set(codeword_masks(extended_hamming(4)))
    rng = random.Random(0)
    for _ in range(20):
        lab = wl.affine_labeling(rng, 4)
        assert sorted(lab) == list(range(1, 17))
        assert {relabel_mask(c, lab) for c in words} == words


def test_affine_labeling_preserves_h5_checks_and_weight4_codewords():
    code = extended_hamming(5)
    quads = set(weight4_codeword_masks(code))
    rng = random.Random(0)
    for _ in range(20):
        lab = wl.affine_labeling(rng, 5)
        assert sorted(lab) == list(range(1, 33))
        for b in code.basis:
            image = relabel_mask(b, lab)
            assert all((row & image).bit_count() % 2 == 0 for row in code.parity_check)
        assert {relabel_mask(c, lab) for c in quads} == quads


def test_random_permutation_is_not_always_affine():
    words = set(codeword_masks(extended_hamming(4)))
    lab = wl.random_permutation(random.Random(0), 16)
    assert {relabel_mask(c, lab) for c in words} != words


@pytest.mark.parametrize("name", sorted(PLANS))
def test_inputs_depend_on_the_seed_alone(name):
    workload = wl.WORKLOADS[name]
    shared = workload.prepare()
    first = wl.input_digest(workload, 7, shared, 5)
    assert first == wl.input_digest(workload, 7, workload.prepare(), 5)
    if name != "classify-k3":  # its inputs are fixed
        assert first != wl.input_digest(workload, 8, shared, 5)


def test_verify_h4_structures_are_all_distinct():
    workload = wl.WORKLOADS["verify-h4"]
    shared = workload.prepare()
    keys = set()
    for kind, yes, no in islice(workload.inputs(3, shared), 40):
        keys.add(wl.relabeled_key(shared["data"][kind], yes))
        keys.add(wl.relabeled_key(shared["data"][kind], no))
    assert len(keys) == 80


# --- known answers ------------------------------------------------------------


@pytest.mark.parametrize("kind, vector, dist", wl.CANON_SHAPES[:18])
def test_shape_automorphisms_match_brute_force(kind, vector, dist):
    data = wl.structure_data(wl.build_shape(kind, vector, dist))
    n = data[1]
    assert n <= 8
    identity = wl.relabeled_key(data, tuple(range(1, n + 1)))
    count = sum(1 for p in permutations(range(1, n + 1)) if wl.relabeled_key(data, p) == identity)
    assert count == wl.shape_automorphisms(kind, vector, dist)


def test_canon_shapes_start_with_the_k3_classes():
    listed = {wl.structure_data(wl.build_shape(*s)) for s in wl.CANON_SHAPES[:18]}
    library = {
        wl.structure_data(s)
        for kind in ("wposet", "digraph")
        for v in wl.clf.solve_structure_vectors(3, kind)
        for s in wl.clf.enumerate_structures(v, kind)
    }
    assert listed == library


def test_gate_rejects_planted_wrong_answers():
    verify = wl.WORKLOADS["verify-h4"]
    assert verify.check(None, (True, True, False, False), {})
    assert not verify.check(None, (True, False, True, True), {})  # a yes-instance refused
    assert not verify.check(None, (True, True, True, False), {})  # routes disagree

    radii = wl.WORKLOADS["radii-transfer"]
    assert radii.check(None, (3, 2, 8, 5, 1, 1), {})
    assert not radii.check(None, (2, 3, 8, 5, 1, 1), {})
    assert not radii.check(None, (3, 2, 8, 5, 2, 1), {})

    family = wl.WORKLOADS["family-h5"]
    assert family.check(None, (64, True), {})
    assert not family.check(None, (63, True), {})
    assert not family.check(None, (64, False), {})

    canon = wl.WORKLOADS["canon-iso"]
    shared = {"forms": ["f1", "f2"], "auts": [6, 2]}
    assert canon.check(None, (("f1", 6), ("f2", 2)), shared)
    assert not canon.check(None, (("f1", 6), ("f1", 2)), shared)
    assert not canon.check(None, (("f1", 6), ("f2", 4)), shared)
    assert not canon.check(None, (("f1", 6), ("f2", 2)), {"forms": None, "auts": [6, 2]})


def test_gate_rejects_planted_classify_output():
    workload = wl.WORKLOADS["classify-k3"]
    shared = workload.prepare()
    proc = subprocess.run([sys.executable, "-c", wl.CLI_MAIN, "classify", "--k", "3", "--kind", "digraph"],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(ROOT / "src")})
    text = proc.stdout
    assert workload.check(("digraph",), (text,), shared)
    assert not workload.check(("digraph",), (text.replace("admitting=4", "admitting=3", 1),), shared)
    # A witness that does not make the code perfect: a rotation of a real one.
    def rotations():
        for line in text.splitlines():
            if "witness=" in line:
                head, labeling = line.split("witness=")
                coords = labeling.split(",")
                for i in range(1, len(coords)):
                    yield line, head + "witness=" + ",".join(coords[i:] + coords[:i])

    line, planted = next((line, r) for line, r in rotations()
                         if not workload._witness_holds("digraph", wl.WITNESS_LINE.match(r), shared["code"]))
    assert not workload.check(("digraph",), (text.replace(line, planted),), shared)


def test_worker_counts_planted_wrong_answers(monkeypatch):
    monkeypatch.setattr(wl.WORKLOADS["family-h5"], "check", lambda inp, result, shared: False)
    out = io.StringIO()
    with redirect_stdout(out):
        assert worker.main(["--workload", "family-h5", "--seed", "1", "--ops", "2"]) == 0
    report = json.loads(out.getvalue().splitlines()[-1])
    assert (report["attempted"], report["failed"], report["wrong"]) == (2, 0, 2)


def test_run_exits_nonzero_on_a_wrong_answer(monkeypatch, tmp_path):
    planted = {"attempted": 3, "failed": 0, "wrong": 1, "elapsed_s": 1.0, "latencies_s": [0.1, 0.2, 0.3],
               "scaled_latencies_s": [0.1, 0.2, 0.3], "peak_rss_kb": 1024, "peak_rss_ops": 3, "inputs_sha256": "0" * 64, "results_ops": 3,
               "results_sha256": "0" * 64}
    monkeypatch.setattr(run.Runner, "run", lambda self, args, what: "")
    monkeypatch.setattr(run.Runner, "worker", lambda self, *a, **k: dict(planted))
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "family-h5", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["attempted"] == 3
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


# --- tracing ------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        [0, None, 0, "a", 0.0, 10.0],
        [1, 0, 0, "b", 1.0, 3.0],
        [2, 0, 0, "c", 2.0, 5.0],    # overlaps b: together they cover 1..5
        [3, 1, 0, "d", 1.5, 2.5],
        [4, 0, 0, "b", 8.0, 12.0],   # runs past its parent: only 8..10 counts against a
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 4.0, 1: 1.0, 2: 3.0, 3: 1.0, 4: 4.0}
    summary = spans.summarize(tree, {})
    assert summary["calls"] == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert summary["self_s"]["b"] == 5.0
    assert summary["total_s"]["b"] == 6.0


def test_condition_checks_are_counted_under_classify():
    tree = [
        [0, None, 0, "classify.classify", 0.0, 4.0],
        [1, 0, 0, "codes.MetricContext.weights", 0.5, 1.0],
        [2, 1, 0, "codes.check_perfect_conditions", 0.6, 0.9],
        [3, None, 1, "codes.check_perfect_conditions", 5.0, 6.0],
    ]
    counts = spans.summarize(tree, {})["counts"]
    assert counts["classify.classify.check_perfect_conditions.calls"] == 1


def test_family_h5_pays_the_weight4_search_in_every_op():
    workload = wl.WORKLOADS["family-h5"]
    shared = workload.prepare()
    tracer = spans.Tracer()
    tracer.install()
    try:
        infos = []
        for op, inp in enumerate(islice(workload.inputs(1, shared), 2)):
            workload.run(inp, shared, op)
            infos.append(weight4_codeword_masks.cache_info())
    finally:
        tracer.uninstall()
    # Emptied at the start of each op, the cache holds the same tally after either.
    assert infos[0].misses == 1 and infos[0] == infos[1]


def test_overhead_is_resolved_only_when_the_passes_separate():
    def passes(*rates):
        return [{"scaled_latencies_s": [1 / r]} for r in rates]

    untraced, traced, resolved = run.overhead(passes(10, 11), passes(8, 9))
    assert (untraced, traced, resolved) == (pytest.approx(10.5), pytest.approx(8.5), True)
    assert run.overhead(passes(10, 8), passes(9, 11))[2] is False


def test_tracer_wraps_every_binding_and_restores_them():
    import importlib

    import perfcode

    codes = importlib.import_module("perfcode.codes")
    cli = importlib.import_module("perfcode.cli")
    clf = importlib.import_module("perfcode.classify")
    wposet = importlib.import_module("perfcode.wposet")
    original = codes.check_perfect_conditions
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = codes.check_perfect_conditions
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert clf.check_perfect_conditions is wrapped and cli.check_perfect_conditions is wrapped
        assert perfcode.check_perfect_conditions is wrapped
        assert codes.weight_table is wposet.weight_table
        code = extended_hamming(3)
        ctx = codes.MetricContext.for_wposet(wl.build_shape("wposet", (1, 0, 7), (7,)))
        codes.is_r_perfect(code, ctx, 2)
    finally:
        tracer.uninstall()
    assert codes.check_perfect_conditions is original and clf.check_perfect_conditions is original
    summary = tracer.summary()
    assert summary["calls"]["codes.is_r_perfect"] == 1
    assert summary["calls"]["wposet.weight_table"] == 1
    assert summary["counts"]["codes.exhaustive_pairs"] == 256 * 16
    weights = next(s for s in tracer.spans if s[3] == "codes.MetricContext.weights")
    assert tracer.spans[weights[1]][3] == "codes.is_r_perfect"


# --- the contract ---------------------------------------------------------------


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(p.name, p.why) for p in PLANS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == spans.per_layer_spec()


def test_speed_track_scales_by_the_readings_around_each_unit():
    import speed

    track = speed.SpeedTrack()
    track.times = [0.0, 1.0, 3.0]
    track.loops = [speed.REFERENCE_S, 2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S]
    # 0.2..0.8 lies between readings 0 and 1: mean loop 1.5x the reference.
    assert track.scale([(0.2, 0.6)]) == pytest.approx([0.4])
    # 1.5..2.5 lies between readings 1 and 2: mean loop 3x the reference.
    assert track.scale([(1.5, 1.0)]) == pytest.approx([1.0 / 3])
    # Past the last reading, the last one counts on both sides.
    assert track.scale([(3.5, 2.0)]) == pytest.approx([0.5])
