"""The perfcode benchmark: run one workload and print its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a perfcode checkout; the library is imported from its
src/ directory.  Every child process gets the same pinned environment:
PYTHONPATH=src, PERFCODE_THREADS unset, bytecode writing allowed.  One
untimed CLI start comes first, so bytecode compilation is never timed.

--trace 0 measures the end-to-end metrics with tracing off: setup_s in fresh
interpreters, then the operations in one fresh worker for S seconds.
--trace 1 runs the fixed input set in untraced and traced passes by turns,
each in a fresh worker, reports the per-layer metrics and the tracing
overhead, and fails if an exact count differs between the traced passes.

Every answer is checked.  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics; the exit code is 1 when any
operation failed or answered wrong, or the exact counts did not repeat,
and 2 when the checkout or the arguments are unusable.  A full report,
with the environment and the input and result digests, is written to
bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import spans
from plan import CLI_MAIN, PLANS, Plan
from speed import SpeedTrack

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 9
OVERHEAD_PAIRS = 4  # untraced and traced passes of a traced run, alternating
DEADLINE_S = 170.0  # every run must end within 180 seconds

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
CLI_WARM_UP = ["-c", CLI_MAIN, "tables", "--which", "2"]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("PERFCODE_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP",
                 "PYTHONHOME"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts children in their own process group, within one deadline."""

    def __init__(self, deadline: float, cli_cpus: List[int]) -> None:
        self.deadline = deadline
        self.env = child_env()
        self.cli_cpus = ",".join(str(c) for c in cli_cpus)

    def run(self, args: List[str], what: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {what}")
        proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{what} did not finish in time") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{what} exited {proc.returncode}")
        return out

    def worker(self, workload: str, seed: int, limit: List[str], trace_dir: Optional[Path] = None) -> dict:
        args = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
                "--cli-cpus", self.cli_cpus] + limit
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            args += ["--trace-dir", str(trace_dir)]
        return json.loads(self.run(args, f"the {workload} worker").splitlines()[-1])

    def setup_seconds(self, plan: Plan) -> Tuple[List[float], List[float]]:
        """Raw and scaled wall times of SETUP_RUNS fresh interpreters."""
        lines = ["import perfcode"]
        if plan.cli:
            lines.append("import perfcode.cli")
        if plan.code_k is not None:
            lines += ["from perfcode.codes import extended_hamming", f"extended_hamming({plan.code_k})"]
        track = SpeedTrack()
        timings = []
        for _ in range(SETUP_RUNS):
            track.take()
            t0 = time.perf_counter()
            self.run(["-c", "; ".join(lines)], "setup")
            timings.append((t0, time.perf_counter() - t0))
        track.take()
        return [d for _, d in timings], track.scale(timings)


def pin_to_one_cpu() -> List[int]:
    """Run this process and its children on one CPU, so that the reference
    loop and the operations it scales share a core; return the CPUs the
    process had before, which CLI operations get back."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


def environment() -> dict:
    """What the figures depend on besides the code under test."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "perfcode").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "perfcode_threads": "unset",
        "platform": platform.platform(),
    }


def tail(latencies_s: List[float], pct: int) -> float:
    if len(latencies_s) < 2:
        return max(latencies_s)
    return statistics.quantiles(latencies_s, n=100, method="inclusive")[pct - 1]


def timed_run(runner: Runner, plan: Plan, seed: int, seconds: float) -> dict:
    setup_raw, setup = runner.setup_seconds(plan)
    w = runner.worker(plan.name, seed, ["--seconds", str(seconds)])
    lat = w["scaled_latencies_s"]
    if not lat:
        raise BenchError("no operation completed")
    attempted = w["attempted"]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": tail(lat, plan.tail_pct) * 1000,
        "peak_rss_mb": w["peak_rss_kb"] / 1024,
    }
    raw = w["latencies_s"]
    return {
        "attempted": attempted,
        "failed": w["failed"],
        "wrong": w["wrong"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
        "detail": {
            "setup_runs_s": setup,
            "ops_completed": len(lat),
            "tail_percentile": plan.tail_pct,
            "samples_beyond_tail": sum(1 for x in lat if x > tail(lat, plan.tail_pct)),
            "peak_rss_after_ops": w["peak_rss_ops"],
            "fail_ratio": w["failed"] / attempted,
            "wrong_ratio": w["wrong"] / attempted,
            "inputs_sha256": w["inputs_sha256"],
            "results_ops": w["results_ops"],
            "results_sha256": w["results_sha256"],
            "unscaled": {
                "setup_s": statistics.median(setup_raw),
                "ops_per_s": len(raw) / w["elapsed_s"],
                "op_p50_ms": statistics.median(raw) * 1000,
                "op_tail_ms": tail(raw, plan.tail_pct) * 1000,
            },
            "setup_runs_unscaled_s": setup_raw,
            "latencies_s": lat,
            "latencies_unscaled_s": raw,
        },
    }


def ops_per_s(worker_report: dict) -> float:
    lat = worker_report["scaled_latencies_s"]
    return len(lat) / sum(lat) if lat else 0.0


def overhead(untraced: List[dict], traced: List[dict]) -> Tuple[float, float, bool]:
    """Mean untraced and traced ops_per_s over the passes, and whether the
    difference is resolved: every pass of one side faster than every pass
    of the other.  Otherwise the passes spread more than tracing costs."""
    u = [ops_per_s(p) for p in untraced]
    t = [ops_per_s(p) for p in traced]
    return statistics.mean(u), statistics.mean(t), min(u) > max(t) or min(t) > max(u)


def traced_run(runner: Runner, plan: Plan, seed: int) -> dict:
    limit = ["--ops", str(plan.fixed_ops)]
    trace_dirs = [OUT / f"trace-{plan.name}-seed{seed}" / f"pass{i}" for i in range(1, OVERHEAD_PAIRS + 1)]
    untraced, traced = [], []
    # Untraced and traced passes alternate, so a drift in host speed weighs
    # on both sides of the overhead alike.
    for trace_dir in trace_dirs:
        untraced.append(runner.worker(plan.name, seed, limit))
        traced.append(runner.worker(plan.name, seed, limit, trace_dir))
    layer = [spans.layer_metrics(p["summary"]) for p in traced]
    exact = spans.exact_names()
    runs = untraced + traced
    mismatched = [name for name in exact if len({v[name] for v in layer}) != 1]
    if len({r["results_sha256"] for r in runs}) != 1:
        mismatched.append("results_sha256")
    if mismatched:
        print(f"passes over one input set differ in: {', '.join(mismatched)}", file=sys.stderr)
    values = {name: layer[0][name] if name in exact else statistics.mean(v[name] for v in layer)
              for name in layer[0]}
    untraced_ops, traced_ops, resolved = overhead(untraced, traced)
    values["trace.ops_per_s_untraced"] = untraced_ops
    values["trace.ops_per_s_traced"] = traced_ops
    values["trace.overhead_ratio"] = untraced_ops / traced_ops
    units = {spec["name"]: spec["unit"] for spec in spans.per_layer_spec()}
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "wrong": sum(r["wrong"] for r in runs),
        "repeat_mismatches": mismatched,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "detail": {
            "inputs_sha256": untraced[0]["inputs_sha256"],
            "results_sha256": [r["results_sha256"] for r in runs],
            "ops_per_s_untraced_passes": [ops_per_s(p) for p in untraced],
            "ops_per_s_traced_passes": [ops_per_s(p) for p in traced],
            "overhead_resolved": resolved,
            "spans": [str(d / "spans.jsonl") for d in trace_dirs],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfcode benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perfcode" / "__init__.py").is_file():
        print(f"error: no perfcode sources at {SRC}; run from a perfcode checkout", file=sys.stderr)
        return 2
    plan = PLANS[args.workload]
    runner = Runner(time.monotonic() + DEADLINE_S, pin_to_one_cpu())
    try:
        runner.run(CLI_WARM_UP, "the CLI warm-up")
        if args.trace:
            report = traced_run(runner, plan, args.seed)
        else:
            report = timed_run(runner, plan, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = report["failed"] == 0 and report["wrong"] == 0 and not report.get("repeat_mismatches")
    report.update(workload=plan.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  correct=correct, environment=dict(environment(), cli_cpus=runner.cli_cpus))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{plan.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print("\n".join(summary_lines(report)))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def summary_lines(report: dict) -> List[str]:
    """Human-readable metrics: one line per run, plus one per reached layer
    metric when traced.  fail_ratio and wrong_ratio appear only here: the
    result line carries them as failed/attempted and correct."""
    detail = report["detail"]
    attempted = report["attempted"]
    parts = [f"workload={report['workload']} seed={report['seed']}"]
    lines = []
    if report["trace"]:
        lines = [f"  {name}={m['value']:.6g} {m['unit']}" for name, m in report["metrics"].items() if m["value"]]
        if not detail["overhead_resolved"]:
            lines.append("  trace overhead unresolved: the passes spread more than tracing costs")
    else:
        parts += [f"{name}={m['value']:.6g} {m['unit']}" for name, m in report["metrics"].items()]
        parts.append(f"(tail=p{detail['tail_percentile']} with {detail['samples_beyond_tail']} beyond,"
                     f" {detail['ops_completed']} ops)")
    parts += [f"fail_ratio={report['failed'] / attempted:.6g} ratio",
              f"wrong_ratio={report['wrong'] / attempted:.6g} ratio",
              f"inputs_sha256={detail['inputs_sha256'][:16]}"]
    return [" ".join(parts)] + lines


if __name__ == "__main__":
    sys.exit(main())
