"""Benchmark entry point for the racer reproduction.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` of the
directory it is started in and exits with code 2, printing no result, when
there is none. It sets up the workload several times, then runs the timed
operation back to back until ``--seconds`` have passed (at least two
operations), checks every operation's outputs, and prints each metric with
its unit. Times are scaled to a nominal host speed measured by a reference
kernel around each set-up and operation (see ``calibrate.py``). The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
and traced operations and reports the per-layer metrics from the spans (see
``spans.py``), including the tracing overhead. Records of every run, with the
environment and, for traced runs, the raw spans, go to ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread and no sweep worker pool, set before numpy is imported:
# with two BLAS threads the feed-forward workload's run time swings widely.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RACER_WORKERS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_PLAIN_OPS = 2

# End-to-end metrics reported by every workload: (name, unit).
END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("accuracy", "fraction"))
# The workload-specific name of work_per_s, as the benchmark doc uses it.
THROUGHPUT_NAME = {"frontier-sweep": "train_samples_per_s", "ff-train": "train_samples_per_s",
                   "data-pipeline": "pipeline_rows_per_s",
                   "saddle-certify": "certify_problems_per_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(THROUGHPUT_NAME))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest(root: Path) -> str:
    """Digest of the program and benchmark sources (keys the quality record)."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "racer").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git(root: Path, *args) -> str | None:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git(root, "rev-parse", "HEAD")
    dirty = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "source_digest": source_digest(root),
    }


class Tally:
    """Operations attempted and failed: CLI commands, sweep units, checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def one_op(workload, state, out: Path, tally: Tally, tracer=None):
    """Run, time and check one operation; returns (raw seconds, what ran, quality)."""
    gc.collect()
    if tracer is None:
        start = time.perf_counter()
        ran = workload.run(state, out)
        wall = time.perf_counter() - start
    else:
        with tracer.installed():
            start = time.perf_counter()
            ran = workload.run(state, out)
            wall = time.perf_counter() - start
    try:
        checked = workload.check(state, out, ran)
    except Exception as exc:  # malformed program output fails the check, not the run
        from workloads import Checked

        checked = Checked([(f"outputs readable ({type(exc).__name__}: {exc})", False)], {})
    shutil.rmtree(out, ignore_errors=True)
    for command, code, text in ran.commands:
        tally.record(f"racer {command} exited {code}: {text[-300:]}", code == 0)
    tally.attempted += checked.units
    tally.failures += ["sweep unit failed"] * checked.failed_units
    for what, ok in checked.checks:
        tally.record(what, ok)
    return wall, ran, checked.quality


def guard_determinism(qualities, record: Path, tally: Tally) -> None:
    """Quality figures must repeat bitwise across operations and runs of a seed."""
    first = json.dumps(qualities[0], sort_keys=True)
    for i, q in enumerate(qualities[1:], start=1):
        tally.record(f"operation {i} quality differs from operation 0",
                     json.dumps(q, sort_keys=True) == first)
    if record.is_file():
        tally.record(f"quality differs from the earlier run recorded in {record.name}",
                     record.read_text() == first)
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        partial = record.with_suffix(".tmp")
        partial.write_text(first)
        partial.replace(record)


def run_workload(workload, seed: int, seconds: float, trace: bool, tmp: Path,
                 out_dir: Path, digest: str) -> dict:
    from calibrate import HostClock
    from spans import Tracer, installed_wrappers, layer_metrics

    clock = HostClock(workload.name)
    setup_raw = []
    for k in range(SETUP_REPEATS):
        where = tmp / f"setup-{k}"
        where.mkdir()
        start = time.perf_counter()
        state = workload.setup(where, seed)
        setup_raw.append(time.perf_counter() - start)
        clock.measure()
    # A set-up can be shorter than one kernel run, so all five share one factor.
    setup_factor = clock.median_factor()
    setup_times = [t * setup_factor for t in setup_raw]

    tally = Tally()
    tracer = Tracer()  # one for the run, so span ids stay unique across operations
    # (raw wall, host-speed factor, what ran) per operation
    plain, traced, qualities = [], [], []
    loop_start = time.perf_counter()
    while True:
        wall, ran, quality = one_op(workload, state, tmp / f"op-{len(qualities)}", tally)
        plain.append((wall, clock.factor(), ran))
        qualities.append(quality)
        if trace:
            wall_t, ran_t, quality = one_op(workload, state, tmp / f"op-{len(qualities)}",
                                            tally, tracer)
            tally.record("tracing wrappers removed after the traced operation",
                         not installed_wrappers())
            traced.append((wall_t, clock.factor(), ran_t))
            qualities.append(quality)
        rounds = len(plain)
        spent = time.perf_counter() - loop_start
        if rounds >= (1 if trace else MIN_PLAIN_OPS) and spent * (rounds + 1) / rounds > seconds:
            break

    digest_file = out_dir / "quality" / f"{workload.name}-seed{seed}-{digest[:16]}.json"
    guard_determinism(qualities, digest_file, tally)
    accuracy = qualities[0].get("accuracy")
    if not isinstance(accuracy, float):
        tally.record("accuracy reported", False)
        accuracy = 0.0

    rates = [ran.work / (wall * factor) for wall, factor, ran in plain]
    raw_rate = statistics.median(ran.work / wall for wall, _, ran in plain)
    phases = {name: statistics.median(ran.phase_rates[name] / factor for _, factor, ran in plain)
              for name in plain[0][2].phase_rates}
    if trace:
        overhead = (statistics.median(w * f for w, f, _ in traced)
                    / statistics.median(w * f for w, f, _ in plain) - 1.0)
        metrics = layer_metrics(tracer.spans, len(traced), tracer.gc_ns,
                                tracer.gc_collections, overhead)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "work_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": accuracy,
        }
    return {
        "metrics": metrics, "quality": qualities[0], "tally": tally,
        "setup_times_s": setup_times, "setup_raw_s": setup_raw,
        "op_walls_s": [w * f for w, f, _ in plain], "op_raw_walls_s": [w for w, _, _ in plain],
        "traced_op_walls_s": [w * f for w, f, _ in traced],
        "reference_kernel_s": clock.kernel_s, "raw_work_per_s": raw_rate,
        "phase_rates": phases, "spans": tracer.spans,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "racer" / "__init__.py").is_file():
        print(f"error: no racer package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import racer  # noqa: F401  (the checkout's package, not an installed one)

    if Path(racer.__file__).resolve().parent != (src / "racer").resolve():
        print(f"error: racer imported from {racer.__file__}, not {src}", file=sys.stderr)
        return 2
    from calibrate import NOMINAL_S
    from spans import PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = root / ".bench_out"
    scratch = root / ".bench_tmp"
    out_dir.mkdir(exist_ok=True)
    scratch.mkdir(exist_ok=True)
    env = environment(root)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), tmp,
                              out_dir, env["source_digest"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tally = result["tally"]
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result["metrics"].items() if name in units}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "quality": result["quality"], "work_unit": workload.work_unit,
              "setup_times_s": result["setup_times_s"], "setup_raw_s": result["setup_raw_s"],
              "op_walls_s": result["op_walls_s"], "op_raw_walls_s": result["op_raw_walls_s"],
              "traced_op_walls_s": result["traced_op_walls_s"],
              "reference_kernel_s": result["reference_kernel_s"],
              "raw_work_per_s": result["raw_work_per_s"],
              "phase_rates": result["phase_rates"],
              "attempted": tally.attempted, "failures": tally.failures}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(out_dir / f"{workload.name}-seed{args.seed}-spans.jsonl", "w") as fh:
            for s in result["spans"]:
                fh.write(json.dumps([s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns,
                                     s.meter]) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# {len(result['op_walls_s'])} plain operations, "
          f"{len(result['traced_op_walls_s'])} traced; work unit: {workload.work_unit}")
    if not args.trace:
        print(f"{THROUGHPUT_NAME[workload.name]} (= work_per_s) "
              f"{result['metrics']['work_per_s']!r} 1/s")
    print(f"# raw work_per_s {result['raw_work_per_s']!r} 1/s (wall clock, not scaled to "
          f"the nominal host speed); reference kernel median "
          f"{statistics.median(result['reference_kernel_s'])!r} s, nominal "
          f"{NOMINAL_S[workload.name]!r} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in result["phase_rates"].items():
        print(f"{name} {value!r} 1/s (median over plain operations, scaled)")
    for name, value in result["quality"].items():
        print(f"quality.{name} {value!r}")
    print(f"failed_frac {len(tally.failures) / max(tally.attempted, 1)!r} "
          f"({len(tally.failures)} of {tally.attempted} operations)")
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
