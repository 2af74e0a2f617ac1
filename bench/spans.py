"""Outside-in span tracing for the benchmark.

The traced run swaps selected functions for timing wrappers at the module
boundaries of the ``racer`` package and swaps the originals back afterwards.
Nothing in ``src/`` is edited. A name is wrapped where it is *looked up*:
``from .x import f`` copies the binding into the importing module, so the
trainer's ``sigmoid`` is ``racer.trainer.sigmoid``, not ``racer.core.sigmoid``.

Every call through a wrapper records one span (name, start, end, parent span,
operation id). An operation is one CLI command or one ``train`` call; spans
without such an ancestor belong to their root span. Spans stay in memory and
are written out by the caller when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

OP_NAMES = ("cli.main", "trainer.train")
LAYERS = ("cli", "evalbench", "trainer", "reweight", "saddle", "core")
CLI_COMMANDS = ("sweep", "train", "eval", "saddle-demo", "gen-synth")


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start_ns: int
    end_ns: int
    meter: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _rows_returned(args, result):
    return {"rows": len(result)}


def _rows_argument(args, result):
    return {"rows": len(args[0])}


def _file_loaded(args, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


def _file_hashed(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path in that module, span name, meter). A meter turns
# the call's arguments and result into counters recorded on the span.
BINDINGS = (
    ("racer.cli", "main", "cli.main", None),
    ("racer.cli", "cmd_train", "cli.train", None),
    ("racer.cli", "cmd_eval", "cli.eval", None),
    ("racer.cli", "cmd_sweep", "cli.sweep", None),
    ("racer.cli", "cmd_saddle_demo", "cli.saddle-demo", None),
    ("racer.cli", "cmd_gen_synth", "cli.gen-synth", None),
    ("racer.cli", "_sha256", "cli.sha256", _file_hashed),
    ("racer.cli", "load_dataset", "core.load_dataset", _file_loaded),
    ("racer.cli", "save_dataset", "core.save_dataset", _rows_argument),
    ("racer.cli", "evaluate_policy", "core.evaluate_policy", None),
    ("racer.cli", "gen_synthetic", "evalbench.gen_synthetic", _rows_returned),
    ("racer.cli", "_run_sweep_cell", "evalbench.sweep_cell", None),
    ("racer.cli", "train", "trainer.train", None),
    ("racer.cli", "save_model", "trainer.save_model", None),
    ("racer.cli", "load_model", "trainer.load_model", None),
    ("racer.cli", "solve_saddle", "saddle.solve_saddle", None),
    ("racer.cli", "primal_dual_iterate", "saddle.primal_dual_iterate", None),
    ("racer.evalbench", "train", "trainer.train", None),
    ("racer.evalbench", "evaluate_policy", "core.evaluate_policy", None),
    ("racer.trainer", "sigmoid", "core.sigmoid", None),
    ("racer.trainer", "evaluate_policy", "core.evaluate_policy", None),
    ("racer.trainer", "tilt_weights", "reweight.tilt_weights", None),
    ("racer.trainer", "uniform_weights", "reweight.uniform_weights", None),
    ("racer.trainer", "dual_update", "saddle.dual_update", None),
    ("racer.core", "sigmoid", "core.sigmoid", None),
    ("racer.core", "Dataset.__init__", "core.Dataset.init", None),
    ("racer.core", "Dataset.subset", "core.Dataset.subset", None),
    ("racer.reweight", "exact_tilt", "reweight.exact_tilt", None),
    ("racer.reweight", "kl_divergence", "reweight.kl_divergence", None),
    ("racer.saddle", "dual_function", "saddle.dual_function", None),
    ("racer.saddle", "dual_update", "saddle.dual_update", None),
)


def _owner(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def installed_wrappers() -> list[str]:
    """Bindings that currently hold a tracing wrapper instead of the original."""
    found = []
    for module_name, path, _, _ in BINDINGS:
        owner, attr = _owner(module_name, path)
        if hasattr(vars(owner)[attr], "__bench_original__"):
            found.append(f"{module_name}.{path}")
    return found


class Tracer:
    """Collects spans and garbage-collector time while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.gc_ns = 0
        self.gc_collections = 0
        self._stack: list[tuple[int, int]] = []
        self._next_id = 0
        self._gc_started: int | None = None

    def wrap(self, fn, name: str, meter=None):
        tracer = self
        starts_op = name in OP_NAMES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent, parent_op = tracer._stack[-1] if tracer._stack else (None, sid)
            op = sid if starts_op else parent_op
            tracer._stack.append((sid, op))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, name, op, start, None)
                raise
            tracer._close(sid, parent, name, op, start,
                          (meter, args, result) if meter else None)
            return result

        traced.__bench_original__ = fn
        return traced

    def _close(self, sid, parent, name, op, start, metering):
        end = time.perf_counter_ns()
        self._stack.pop()
        meter = metering[0](*metering[1:]) if metering else None
        self.spans.append(Span(sid, parent, name, op, start, end, meter))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started is not None:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block, then restore it."""
        saved = []
        gc.callbacks.append(self._on_gc)
        try:
            for module_name, path, name, meter in BINDINGS:
                owner, attr = _owner(module_name, path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, meter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            gc.callbacks.remove(self._on_gc)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the summed durations of its direct children."""
    children = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration_ns
    return {s.id: s.duration_ns - children[s.id] for s in spans}


def time_outside(spans, root: str, excluded) -> int:
    """Time inside spans named ``root`` that no descendant named in
    ``excluded`` covers (the outermost such descendants are subtracted)."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)

    def covered(span_id: int) -> int:
        total = 0
        for child in kids[span_id]:
            total += child.duration_ns if child.name in excluded else covered(child.id)
        return total

    return sum(s.duration_ns - covered(s.id) for s in spans if s.name == root)


# Per-layer metrics: (name, unit, better). Counts and times are per traced
# operation, so they repeat exactly whenever the program does the same work.
PER_LAYER = (
    ("trainer.train.calls", "count", "lower"),
    ("trainer.train.p50_s", "s", "lower"),
    ("trainer.batches", "count", "lower"),
    ("trainer.self_s", "s", "lower"),
    ("trainer.step_us", "us", "lower"),
    ("trainer.save_model.busy_s", "s", "lower"),
    ("trainer.load_model.busy_s", "s", "lower"),
    ("reweight.tilt_weights.calls", "count", "lower"),
    ("reweight.tilt_weights.busy_s", "s", "lower"),
    ("reweight.tilt_weights.us_per_call", "us", "lower"),
    ("reweight.uniform_weights.calls", "count", "lower"),
    ("reweight.uniform_weights.busy_s", "s", "lower"),
    ("reweight.exact_tilt.calls", "count", "lower"),
    ("reweight.exact_tilt.busy_s", "s", "lower"),
    ("reweight.kl_divergence.calls", "count", "lower"),
    ("reweight.self_s", "s", "lower"),
    ("saddle.dual_update.calls", "count", "lower"),
    ("saddle.dual_update.busy_s", "s", "lower"),
    ("saddle.solve_saddle.busy_s", "s", "lower"),
    ("saddle.dual_function.calls", "count", "lower"),
    ("saddle.primal_dual_iterate.busy_s", "s", "lower"),
    ("saddle.self_s", "s", "lower"),
    ("core.sigmoid.calls", "count", "lower"),
    ("core.sigmoid.busy_s", "s", "lower"),
    ("core.evaluate_policy.calls", "count", "lower"),
    ("core.evaluate_policy.busy_s", "s", "lower"),
    ("core.load_dataset.busy_s", "s", "lower"),
    ("core.load_dataset.rows_per_s", "1/s", "higher"),
    ("core.load_dataset.mb_per_s", "MB/s", "higher"),
    ("core.save_dataset.busy_s", "s", "lower"),
    ("core.save_dataset.rows_per_s", "1/s", "higher"),
    ("core.Dataset.init.busy_s", "s", "lower"),
    ("core.Dataset.subset.busy_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("py.gc_s", "s", "lower"),
    ("py.gc_collections", "count", "lower"),
    ("evalbench.gen_synthetic.calls", "count", "lower"),
    ("evalbench.gen_synthetic.busy_s", "s", "lower"),
    ("evalbench.gen_synthetic.rows_per_s", "1/s", "higher"),
    ("evalbench.self_s", "s", "lower"),
    ("sweep.driver_self_s", "s", "lower"),
    *((f"cli.{c}.busy_s", "s", "lower") for c in CLI_COMMANDS),
    ("cli.self_s", "s", "lower"),
    ("cli.sha256_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def _outermost(spans):
    """Drop spans nested inside a span of the same name (no double counting)."""
    by_id = {s.id: s for s in spans}
    kept = []
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            kept.append(s)
    return kept


def layer_metrics(spans, n_ops: int, gc_ns: int = 0, gc_collections: int = 0,
                  overhead_frac: float = 0.0) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of ``n_ops``
    traced operations."""
    if n_ops < 1:
        raise ValueError("n_ops must be positive")
    ns = 1e-9
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(int)
    durations = defaultdict(list)
    meters = defaultdict(lambda: defaultdict(int))
    for s in _outermost(spans):
        busy[s.name] += s.duration_ns
        durations[s.name].append(s.duration_ns)
        for key, value in (s.meter or {}).items():
            meters[s.name][key] += value
    layer_self = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
    by_id = {s.id: s for s in spans}
    batches = sum(1 for s in spans if s.name == "saddle.dual_update"
                  and s.parent is not None and by_id[s.parent].name == "trainer.train")
    train_self = sum(own[s.id] for s in spans if s.name == "trainer.train")

    def per_op(value):
        return value / n_ops

    def rate(name, key, scale=1.0):
        return meters[name][key] / scale / (busy[name] * ns) if busy[name] else 0.0

    out = {
        "trainer.train.calls": per_op(calls["trainer.train"]),
        "trainer.train.p50_s": (statistics.median(durations["trainer.train"]) * ns
                                if durations["trainer.train"] else 0.0),
        "trainer.batches": per_op(batches),
        "trainer.self_s": per_op(train_self * ns),
        "trainer.step_us": train_self * ns * 1e6 / batches if batches else 0.0,
        "reweight.tilt_weights.us_per_call": (
            busy["reweight.tilt_weights"] * ns * 1e6 / calls["reweight.tilt_weights"]
            if calls["reweight.tilt_weights"] else 0.0),
        "core.load_dataset.rows_per_s": rate("core.load_dataset", "rows"),
        "core.load_dataset.mb_per_s": rate("core.load_dataset", "bytes", 1e6),
        "core.save_dataset.rows_per_s": rate("core.save_dataset", "rows"),
        "evalbench.gen_synthetic.rows_per_s": rate("evalbench.gen_synthetic", "rows"),
        "py.gc_s": per_op(gc_ns * ns),
        "py.gc_collections": per_op(gc_collections),
        "sweep.driver_self_s": per_op(time_outside(
            spans, "cli.sweep",
            ("trainer.train", "core.evaluate_policy", "evalbench.gen_synthetic")) * ns),
        "cli.sha256_bytes": per_op(meters["cli.sha256"]["bytes"]),
        "trace.spans": per_op(len(spans)),
        "trace_overhead_frac": overhead_frac,
    }
    for layer in LAYERS:
        if layer != "trainer":
            out[f"{layer}.self_s"] = per_op(layer_self[layer] * ns)
    for name, _, _ in PER_LAYER:
        if name in out:
            continue
        span_name, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = per_op(calls[span_name])
        elif stat == "busy_s":
            out[name] = per_op(busy[span_name] * ns)
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return {name: out[name] for name, _, _ in PER_LAYER}
