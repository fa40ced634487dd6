"""Run one workload's operations in this fresh interpreter and report them.

usage: python3 worker.py --workload NAME --seed N (--seconds S | --ops N)
                         [--trace-dir DIR]

A closed loop with one caller: the next operation starts when the previous
one has returned.  With --seconds no operation starts after the time is up;
with --ops exactly that many run, so a traced pass is repeatable, and CLI
operations run serially.  Every result goes through the workload's
known-answer check outside the timed region.  The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
from plan import PLANS
from speed import SpeedTrack
from workloads import WORKLOADS, digest, input_digest

MAX_REPORTED_ERRORS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    parser.add_argument("--trace-dir", help="record spans and write them here")
    parser.add_argument("--cli-cpus", default="",
                        help="CPUs for CLI operations, comma-separated (default: this process's)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    plan = PLANS[args.workload]
    fixed_ops = plan.fixed_ops
    shared = workload.prepare()
    inputs_sha256 = input_digest(workload, args.seed, shared, fixed_ops)
    stream = workload.inputs(args.seed, shared)

    tracer = None
    if plan.cli:
        shared["serial"] = args.ops is not None
        shared["cpus"] = {int(c) for c in args.cli_cpus.split(",") if c} or os.sched_getaffinity(0)
    if args.trace_dir:
        if plan.cli:  # the work runs in CLI processes, traced there
            shared["trace_dir"] = args.trace_dir
        else:
            tracer = spans.Tracer()
            tracer.install()

    # The process running the operations: the CLI children, or this one.
    who = resource.RUSAGE_CHILDREN if plan.cli else resource.RUSAGE_SELF
    track = SpeedTrack(cpus=shared["cpus"] if plan.cli else None)
    timings, results = [], []
    attempted = failed = wrong = 0
    rss_kb = rss_ops = None
    started = time.perf_counter()
    while True:
        if args.ops is not None and attempted >= args.ops:
            break
        if args.seconds is not None and time.perf_counter() - started >= args.seconds:
            break
        inp = next(stream)
        track.maybe_take()
        op = attempted
        attempted += 1
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        try:
            result = workload.run(inp, shared, op)
        except Exception:
            failed += 1
            if failed <= MAX_REPORTED_ERRORS:
                traceback.print_exc()
            continue
        timings.append((t0, time.perf_counter() - t0))
        results.append(result)
        try:
            ok = workload.check(inp, result, shared)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            wrong += 1
            if wrong <= MAX_REPORTED_ERRORS:
                print(f"wrong answer at op {op}: {result!r}", file=sys.stderr)
        if attempted == fixed_ops:
            rss_kb, rss_ops = resource.getrusage(who).ru_maxrss, attempted
    elapsed = time.perf_counter() - started
    track.take()
    if tracer is not None:
        tracer.uninstall()

    if rss_kb is None:
        rss_kb, rss_ops = resource.getrusage(who).ru_maxrss, attempted
    report = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "elapsed_s": elapsed,
        "latencies_s": [d for _, d in timings],
        "scaled_latencies_s": track.scale(timings),
        "peak_rss_kb": rss_kb,
        "peak_rss_ops": rss_ops,
        "inputs_sha256": inputs_sha256,
        "results_ops": min(len(results), fixed_ops),
        "results_sha256": digest(results[:fixed_ops]),
    }
    if args.trace_dir:
        report["summary"] = trace_summary(args.trace_dir, tracer)
    print(json.dumps(report))
    return 0


def trace_summary(trace_dir: str, tracer) -> dict:
    """Summary of the pass; its spans are written to trace_dir/spans.jsonl."""
    out = Path(trace_dir)
    if tracer is not None:
        spans.write_spans(out / "spans.jsonl", tracer.spans)
        return tracer.summary()
    parts, all_spans = [], []
    for path in sorted(out.glob("cli-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        parts.append(data["summary"])
        all_spans += [[path.stem] + span for span in data["spans"]]
    spans.write_spans(out / "spans.jsonl", all_spans)
    return spans.merge(parts)


if __name__ == "__main__":
    sys.exit(main())
