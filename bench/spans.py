"""Spans around the calls into perfcode's public functions, and the per-layer
metrics derived from them.

The tracer replaces each listed function at every perfcode module that
binds it, so calls the library makes through its own module globals are
seen as well as the benchmark's.  Each call records one span (name, start,
end, parent span, operation id) in memory; self time is a span's duration
minus the part of it that its child spans cover.  Traced runs call the
library from one thread, so a per-thread stack gives every span its parent.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

# Each traced function: its metric prefix (layer.function), and the
# end-to-end metric and workload a change to it should move.  The other
# workloads should show no change.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("classify.classify", "op_p50_ms on classify-k3 (the labeling DFS with split pruning is its self time)"),
    ("classify.canonical_form", "op_p50_ms on canon-iso; at most about 4% of classify-k3"),
    ("classify.automorphism_count", "op_p50_ms on canon-iso; at most about 4% of classify-k3"),
    ("classify.relabel", "op_p50_ms on canon-iso and family-h5"),
    ("classify.build_family_wposet", "op_p50_ms on family-h5"),
    ("classify.build_family_digraph", "op_p50_ms on family-h5"),
    ("codes.check_perfect_conditions", "op_p50_ms on verify-h4"),
    ("codes.is_r_perfect", "op_p50_ms on verify-h4"),
    ("codes.packing_radius", "ops_per_s on radii-transfer"),
    ("codes.covering_radius", "ops_per_s on radii-transfer"),
    ("codes.check_weight4_partitions", "op_p50_ms on family-h5"),
    ("codes.weight4_codeword_masks", "op_p50_ms on family-h5"),
    ("codes.codeword_masks", "op_p50_ms on verify-h4"),
    ("codes.MetricContext.sphere_size", "op_p50_ms on family-h5"),
    ("codes.MetricContext.weights", "peak_rss_mb on verify-h4"),
    ("wposet.weight_table", "peak_rss_mb on verify-h4 (its lru_cache keeps one 2^16 table per structure)"),
    ("wposet.omega_census", "op_p50_ms on family-h5"),
    ("wposet.sphere_size_formula", "op_p50_ms on family-h5"),
    ("digraph.g_weight_table", "peak_rss_mb on verify-h4 (its lru_cache keeps one 2^16 table per structure)"),
    ("digraph.condense", "ops_per_s on radii-transfer"),
    ("digraph.expand", "ops_per_s on radii-transfer"),
    ("digraph.g_sphere_size_formula", "op_p50_ms on family-h5"),
    ("transfer.map_code_collapse", "ops_per_s on radii-transfer"),
    ("transfer.map_code_expand", "ops_per_s on radii-transfer"),
    ("cli.main", "op_p50_ms and setup_s on classify-k3"),
)

# Exact counts besides the per-function call counts, with the same kind of target.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("classify.entries", "higher", "op_p50_ms on classify-k3 (structures classified: 18 per operation)"),
    ("classify.admitting", "higher", "op_p50_ms on classify-k3 (admitting classes: 10 per operation)"),
    ("classify.labelings_covered", "lower", "op_p50_ms on classify-k3 (summed over rejecting entries)"),
    ("classify.classify.check_perfect_conditions.calls", "lower",
     "op_p50_ms on classify-k3 (condition checks made under classify)"),
    ("codes.exhaustive_pairs", "lower",
     "op_p50_ms on verify-h4, ops_per_s on radii-transfer (computed: 2^n x |C| x passes)"),
    ("wposet.omega_census.ideals", "lower", "op_p50_ms on family-h5"),
    ("transfer.collapse_kept_ratio", "higher", "ops_per_s on radii-transfer (image size / codewords in)"),
)

# Timings derived from the spans, besides each function's self time.
RATES: Tuple[Tuple[str, str, str, str], ...] = (
    ("cli.main.total_s", "s", "lower", "op_p50_ms on classify-k3"),
    ("codes.exhaustive_pairs_per_s", "1/s", "higher", "op_p50_ms on verify-h4, ops_per_s on radii-transfer"),
    ("trace.ops_per_s_untraced", "1/s", "higher", "none: the untraced side of the tracing overhead"),
    ("trace.ops_per_s_traced", "1/s", "higher", "none: the traced side of the tracing overhead"),
    ("trace.overhead_ratio", "ratio", "lower", "none: untraced over traced ops_per_s"),
)

EXHAUSTIVE = ("codes.is_r_perfect", "codes.packing_radius", "codes.covering_radius")


def per_layer_spec() -> List[Dict[str, str]]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = []
    for name, _ in TRACED:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, better, _ in COUNTS:
        out.append({"name": name, "unit": "ratio" if name.endswith("ratio") else "count", "better": better})
    for name, unit, better, _ in RATES:
        out.append({"name": name, "unit": unit, "better": better})
    return out


def exact_names() -> List[str]:
    """Per-layer metrics that must repeat exactly across runs of one seed."""
    return [f"{name}.calls" for name, _ in TRACED] + [name for name, _, _ in COUNTS]


# --- recording ----------------------------------------------------------------

Span = List[Any]  # [id, parent id or None, op id, name, start, end]


def _codeword_count(code) -> int:
    dimension = getattr(code, "dimension", None)
    return len(code) if dimension is None else 1 << dimension


def _on_classify(tracer: "Tracer", args, result) -> None:
    tracer.counters["classify.entries"] += len(result.entries)
    tracer.counters["classify.admitting"] += len(result.admitting())
    tracer.counters["classify.labelings_covered"] += sum(e.labelings_covered for e in result.rejected())


def _on_census(tracer: "Tracer", args, result) -> None:
    tracer.counters["wposet.omega_census.ideals"] += sum(count for _, count in result.counts)


def _on_collapse(tracer: "Tracer", args, result) -> None:
    tracer.counters["transfer.collapse_in"] += len(args[1])
    tracer.counters["transfer.collapse_out"] += len(result)


def _on_exhaustive(passes: Callable[[Any, Any, Any], int]):
    def hook(tracer: "Tracer", args, result) -> None:
        code, ctx = args[0], args[1]
        pairs = (1 << ctx.length) * _codeword_count(code) * passes(code, ctx, result)
        tracer.counters["codes.exhaustive_pairs"] += pairs
    return hook


def _packing_passes(code, ctx, radius) -> int:
    """Sphere-count passes packing_radius made: one per radius tried."""
    if _codeword_count(code) < 2:
        return 0
    cap = ctx.total_weight
    return radius if radius >= cap else radius + 1


HOOKS = {
    "classify.classify": _on_classify,
    "wposet.omega_census": _on_census,
    "transfer.map_code_collapse": _on_collapse,
    "codes.is_r_perfect": _on_exhaustive(lambda code, ctx, result: 1),
    "codes.covering_radius": _on_exhaustive(lambda code, ctx, result: 1),
    "codes.packing_radius": _on_exhaustive(_packing_passes),
}


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = len(self.spans)
                span = [sid, stack[-1] if stack else None, self.op, name, 0.0, 0.0]
                self.spans.append(span)
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a perfcode module binds it."""
        # Import every layer first: one imported midway would bind wrappers
        # that uninstall() does not know of.
        for name, _ in TRACED:
            importlib.import_module(f"perfcode.{name.split('.')[0]}")
        modules = [m for key, m in sys.modules.items() if key == "perfcode" or key.startswith("perfcode.")]
        for name, _ in TRACED:
            layer, *path = name.split(".")
            owner = importlib.import_module(f"perfcode.{layer}")
            if len(path) == 2:  # a method: wrapping it on its class covers every caller
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                self._replace(cls, path[1], original, self.wrap(name, original))
                continue
            original = getattr(owner, path[0])
            wrapped = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, original, wrapped)

    def _replace(self, holder: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(holder, attr, wrapped)
        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def summary(self) -> Dict[str, Any]:
        """Per-function calls, self and total time, and the exact counters."""
        return summarize(self.spans, self.counters)


# --- deriving metrics ---------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c_end, end))
        out[sid] = (end - start) - covered
    return out


def summarize(spans: Sequence[Span], counters: Dict[str, int]) -> Dict[str, Any]:
    selfs = self_times(spans)
    by_id = {span[0]: span for span in spans}
    calls: Counter = Counter()
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    under_classify = 0
    for sid, parent, _, name, start, end in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        total_s[name] += end - start
        if name == "codes.check_perfect_conditions":
            p = parent
            while p is not None and by_id[p][3] != "classify.classify":
                p = by_id[p][1]
            under_classify += p is not None
    counts = Counter(counters)
    counts["classify.classify.check_perfect_conditions.calls"] += under_classify
    return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s), "counts": dict(counts)}


def merge(summaries: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum summaries of runs that together make one pass (the CLI processes)."""
    out: Dict[str, Any] = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(), "counts": Counter()}
    for s in summaries:
        for key in out:
            out[key].update(s[key])
    return {key: dict(value) for key, value in out.items()}


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one pass, except the trace.* overhead figures."""
    calls, self_s, total_s, counts = (summary[k] for k in ("calls", "self_s", "total_s", "counts"))
    out: Dict[str, float] = {}
    for name, _ in TRACED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name, _, _ in COUNTS:
        out[name] = counts.get(name, 0)
    collapse_in = counts.get("transfer.collapse_in", 0)
    out["transfer.collapse_kept_ratio"] = counts.get("transfer.collapse_out", 0) / collapse_in if collapse_in else 0.0
    out["cli.main.total_s"] = total_s.get("cli.main", 0.0)
    busy = sum(total_s.get(name, 0.0) for name in EXHAUSTIVE)
    out["codes.exhaustive_pairs_per_s"] = counts.get("codes.exhaustive_pairs", 0) / busy if busy else 0.0
    return out


def write_spans(path, spans: Sequence[Span]) -> None:
    """One JSON array per line: id, parent, op, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
