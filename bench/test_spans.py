"""Tests for the benchmark's own tracing code and host-speed scaling.

    PYTHONPATH=src python -m pytest -q bench/test_spans.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, installed_wrappers, layer_metrics, self_times, time_outside  # noqa: E402
from workloads import Checked, Ran, Workload, cli  # noqa: E402


def _tree():
    #  root 0..100
    #  +- a 10..40
    #  |  +- c 15..25
    #  +- b 50..90
    #     +- d 60..70
    #     +- e 70..80
    return [
        Span(2, 1, "c", 0, 15, 25),
        Span(1, 0, "a", 0, 10, 40),
        Span(4, 3, "d", 0, 60, 70),
        Span(5, 3, "e", 0, 70, 80),
        Span(3, 0, "b", 0, 50, 90),
        Span(0, None, "root", 0, 0, 100),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == {0: 30, 1: 20, 2: 10, 3: 20, 4: 10, 5: 10}


def test_self_times_add_up_to_root_duration():
    assert sum(self_times(_tree()).values()) == 100


def test_time_outside_subtracts_outermost_excluded_descendants():
    tree = _tree()
    assert time_outside(tree, "root", {"a"}) == 70
    assert time_outside(tree, "root", {"a", "d"}) == 60
    assert time_outside(tree, "root", {"a", "c"}) == 70  # c lies inside a
    assert time_outside(tree, "b", {"d", "e"}) == 20


def test_layer_metrics_on_a_hand_built_training_tree():
    ms = 1_000_000
    tree = [
        Span(1, 0, "core.sigmoid", 0, 1 * ms, 2 * ms),
        Span(2, 0, "saddle.dual_update", 0, 3 * ms, 4 * ms),
        Span(3, 0, "saddle.dual_update", 0, 5 * ms, 6 * ms),
        Span(0, None, "trainer.train", 0, 0, 10 * ms),
        Span(5, None, "core.load_dataset", 5, 20 * ms, 30 * ms, {"rows": 100, "bytes": 2_000_000}),
    ]
    m = layer_metrics(tree, n_ops=2)
    assert m["trainer.train.calls"] == 0.5
    assert m["trainer.batches"] == 1.0
    assert m["trainer.self_s"] == pytest.approx(7e-3 / 2)
    assert m["trainer.step_us"] == pytest.approx(7e3 / 2)
    assert m["saddle.dual_update.busy_s"] == pytest.approx(2e-3 / 2)
    assert m["core.self_s"] == pytest.approx(11e-3 / 2)
    assert m["core.load_dataset.rows_per_s"] == pytest.approx(100 / 10e-3)
    assert m["core.load_dataset.mb_per_s"] == pytest.approx(2 / 10e-3)
    assert m["trace.spans"] == 2.5
    assert list(m) == [name for name, _, _ in spans.PER_LAYER]


def test_nested_spans_of_one_name_are_counted_once_for_busy_time():
    tree = [Span(1, 0, "core.sigmoid", 0, 2, 4), Span(0, None, "core.sigmoid", 0, 0, 10)]
    m = layer_metrics(tree, n_ops=1)
    assert m["core.sigmoid.calls"] == 2
    assert m["core.sigmoid.busy_s"] == pytest.approx(10e-9)


def _bound_objects():
    out = {}
    for module_name, path, _, _ in spans.BINDINGS:
        owner, attr = spans._owner(module_name, path)
        out[(module_name, path)] = vars(owner)[attr]
    return out


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _bound_objects()
    tracer = Tracer()
    with tracer.installed():
        assert len(installed_wrappers()) == len(spans.BINDINGS)
        assert cli(["saddle-demo", "--contexts", 8, "--seed", 1, "--out", tmp_path / "s"])[1] == 0
    after = _bound_objects()
    assert all(after[key] is before[key] for key in before)
    assert installed_wrappers() == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.saddle-demo", "saddle.solve_saddle"} <= names
    assert tracer.spans[-1].name == "cli.main"
    assert {s.op for s in tracer.spans} == {tracer.spans[-1].id}


def test_wrappers_are_removed_when_the_traced_call_raises():
    before = _bound_objects()
    with pytest.raises(RuntimeError), Tracer().installed():
        raise RuntimeError("boom")
    after = _bound_objects()
    assert all(after[key] is before[key] for key in before)


def _probe(seen):
    def probe_run(state, out):
        seen.append(installed_wrappers())
        return Ran(work=1, commands=[cli(["saddle-demo", "--contexts", 8, "--seed", 2,
                                          "--out", out])])

    return Workload("probe", "calls", lambda tmp, seed: {},
                    probe_run, lambda state, out, ran: Checked([], {"accuracy": 1.0}))


def test_untraced_operation_has_no_wrapper_installed(tmp_path):
    seen = []
    tally = run.Tally()
    run.one_op(_probe(seen), {}, tmp_path / "plain", tally)
    run.one_op(_probe(seen), {}, tmp_path / "traced", tally, Tracer())
    assert seen[0] == []
    assert len(seen[1]) == len(spans.BINDINGS)
    assert tally.failures == [] and tally.attempted == 2


def test_one_tracer_across_operations_keeps_span_ids_unique(tmp_path):
    tracer = Tracer()
    tally = run.Tally()
    for name in ("a", "b"):
        run.one_op(_probe([]), {}, tmp_path / name, tally, tracer)
    ids = [s.id for s in tracer.spans]
    assert len(set(ids)) == len(ids)
    assert min(self_times(tracer.spans).values()) >= 0
    assert len({s.op for s in tracer.spans}) == 2


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} <= set(run.THROUGHPUT_NAME)


def test_host_clock_scales_by_the_kernel_times_around_each_interval(monkeypatch):
    kernel_s = iter([9.0, 0.2, 0.1, 0.3, 0.5])  # the first run only warms up

    def fake_measure(self):
        self.kernel_s.append(next(kernel_s))
        return self.kernel_s[-1]

    monkeypatch.setattr(calibrate.HostClock, "measure", fake_measure)
    clock = calibrate.HostClock("saddle-certify")
    nominal = calibrate.NOMINAL_S["saddle-certify"]
    assert clock.factor() == pytest.approx(nominal / 0.15)
    assert clock.factor() == pytest.approx(nominal / 0.2)
    clock.measure()
    assert clock.median_factor() == pytest.approx(nominal / 0.25)


def test_every_workload_has_a_reference_kernel():
    assert set(calibrate.KERNELS) == set(calibrate.NOMINAL_S) == set(run.THROUGHPUT_NAME)
