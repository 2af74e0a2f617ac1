"""The benchmark's workloads: inputs, the timed CLI operation, output checks.

Every workload drives the real command line, ``racer.cli.main(argv)``, in
this process. ``setup`` writes the inputs for one workload seed, ``run`` is
the timed operation and ``check`` verifies its outputs afterwards, untimed.
``check`` also returns the quality figures that must repeat bitwise across
runs of one seed (the determinism guard in ``run.py`` compares them).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import racer.cli
import racer.reweight
from racer.core import Dataset, LinearPolicy, evaluate_policy, load_dataset, save_dataset
from racer.evalbench import PRESET_SCENARIOS, baseline_policy, gen_synthetic
from racer.saddle import policy_matrix, random_problem, solve_saddle
from racer.trainer import load_model, save_model

# The acceptance sweep configuration (criteria 6/7) with 100 epochs instead
# of 300, so that one operation takes about two seconds and a run holds
# several of them; the per-step work is unchanged.
SWEEP_EPOCHS = 100
BENCH_CONFIG = ("--epochs", str(SWEEP_EPOCHS), "--batch-size", "64", "--lr", "2e-3",
                "--dual-lr", "0.05", "--val-fraction", "0.15", "--tau-r", "1")
SWEEP_BUDGETS = (2.0, 3.0, 4.0)
FF_ROWS, FF_EPOCHS, FF_BUDGET = 10_000, 3, 2.0
PIPELINE_ROWS = 50_000
SADDLE_CONTEXTS, SADDLE_BETA, SADDLE_PROBLEMS, TILT_DELTA = 20_000, 0.05, 3, 0.05
VIOLATION_SLACK = 1.05

# Fixed router scored by the data-pipeline workload (4 features, as in the
# magpie-ultra preset).
REFERENCE_POLICY = LinearPolicy(np.array([0.8, -0.5, 0.3, 1.0]), -0.4)


@dataclass
class Ran:
    """What one timed operation did."""

    work: float
    commands: list[tuple[str, int | None, str]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    phase_rates: dict[str, float] = field(default_factory=dict)  # per-command work/s


@dataclass
class Checked:
    """Outcome of the output checks of one operation."""

    checks: list[tuple[str, bool]]
    quality: dict
    units: int = 0          # sweep units attempted inside the command
    failed_units: int = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; the reasons for each are in README.md."""

    name: str
    work_unit: str
    setup: Callable[[Path, int], dict]
    run: Callable[[dict, Path], Ran]
    check: Callable[[dict, Path, Ran], Checked]


def cli(argv) -> tuple[str, int | None, str]:
    """Run one CLI command in-process; (command, exit code or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = racer.cli.main([str(a) for a in argv])
        except Exception as exc:  # a traceback is a failed operation, not a crash
            err.write(f"{type(exc).__name__}: {exc}")
            code = None
    return str(argv[0]), code, out.getvalue() + err.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _paired_random_accuracy(data: Dataset, rate: float) -> float:
    return evaluate_policy(baseline_policy("random", rate), data).accuracy


# ---------------------------------------------------------------------------
# frontier-sweep
# ---------------------------------------------------------------------------

def _sweep_argv(state, out: Path, budgets, extra=()) -> list:
    return ["sweep", "--scenario", state["scenario"],
            "--budgets", ",".join(f"{b:g}" for b in budgets), "--repeats", 1,
            "--base-seed", state["seed"], "--workers", 1,
            "--methods", "racer,random,all-instruct,all-reasoning",
            *BENCH_CONFIG, *extra, "--out", out]


def frontier_setup(tmp: Path, seed: int) -> dict:
    payload = json.loads(Path("scenarios/separable3.json").read_text())
    payload["seed"] = seed
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(payload, indent=1))
    state = {"scenario": scenario, "seed": seed, "n": payload["n"]}
    cli(_sweep_argv(state, tmp / "warmup", SWEEP_BUDGETS[:1], ("--epochs", "2")))
    return state


def frontier_run(state, out: Path) -> Ran:
    cmd = cli(_sweep_argv(state, out, SWEEP_BUDGETS))
    n_train = state["n"] - int(round(0.15 * state["n"]))
    return Ran(work=n_train * SWEEP_EPOCHS * len(SWEEP_BUDGETS), commands=[cmd])


def frontier_check(state, out: Path, ran: Ran) -> Checked:
    checks = []
    cell_files = sorted((out / "cells").glob("*.json")) if (out / "cells").is_dir() else []
    failed_units = sum(1 for f in cell_files if json.loads(f.read_text())["failures"])
    checks.append(("every sweep unit written fresh", len(cell_files) == len(SWEEP_BUDGETS)))
    rows = []
    if (out / "sweep.csv").is_file():
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    cells = {}
    for r in rows:
        key = (r["method"], float(r["budget"]), int(r["seed"]), r["split"])
        cells.setdefault(key, []).append(r)
    units = [(b, state["seed"]) for b in SWEEP_BUDGETS]
    paired = bool(rows)
    for b, s in units:
        for split in ("train", "id_test"):
            racer_cells = cells.get(("racer", b, s, split), [])
            random_cells = cells.get(("random", b, s, split), [])
            paired &= len(racer_cells) == 1 and len(random_cells) == 1 and abs(
                float(racer_cells[0]["reasoning_frac"])
                - float(random_cells[0]["reasoning_frac"])) <= 1e-12
    checks.append(("one racer and one paired random cell per (budget, seed, split)", paired))
    if not paired:
        return Checked(checks, {}, len(units), failed_units)
    acc, gain, violations = [], [], []
    for b, s in units:
        rc = cells[("racer", b, s, "id_test")][0]
        rnd = cells[("random", b, s, "id_test")][0]
        acc.append(float(rc["accuracy"]))
        gain.append(float(rc["accuracy"]) - float(rnd["accuracy"]))
        violations.append(float(rc["cost"]) > VIOLATION_SLACK * b)
    quality = {"accuracy": float(np.mean(acc)), "accuracy_gain": float(np.mean(gain)),
               "budget_violation_frac": float(np.mean(violations))}
    return Checked(checks, quality, len(units), failed_units)


# ---------------------------------------------------------------------------
# ff-train
# ---------------------------------------------------------------------------

def ff_setup(tmp: Path, seed: int) -> dict:
    base = PRESET_SCENARIOS["wildguardmix"]
    data = gen_synthetic(replace(base, n=FF_ROWS, seed=seed))
    save_dataset(data, tmp / "train.jsonl")
    heldout = gen_synthetic(replace(base, n=FF_ROWS, seed=seed + 1_000_003))
    return {"data": tmp / "train.jsonl", "heldout": heldout, "seed": seed}


def ff_run(state, out: Path) -> Ran:
    cmd = cli(["train", "--data", state["data"], "--budget", FF_BUDGET,
               "--policy", "feedforward", "--hidden", "256,128,64",
               "--epochs", FF_EPOCHS, "--seed", state["seed"], "--out", out])
    n_train = FF_ROWS - int(round(0.1 * FF_ROWS))
    return Ran(work=n_train * FF_EPOCHS, commands=[cmd])


def ff_check(state, out: Path, ran: Ran) -> Checked:
    checks = []
    try:
        policy, cost_mean, _ = load_model(out / "model.json")
    except (OSError, ValueError, KeyError) as exc:
        checks.append((f"model reloads ({exc})", False))
        return Checked(checks, {})
    if state.get("heldout_scale") != cost_mean:
        state["heldout_scale"] = cost_mean
        state["test"] = Dataset(state["heldout"].instances, instruct_cost_mean=cost_mean)
    test = state["test"]
    m = evaluate_policy(policy, test)
    checks.append(("model scores the held-out split",
                   all(math.isfinite(v) for v in (m.accuracy, m.realized_cost))))
    quality = {"accuracy": m.accuracy,
               "accuracy_gain": m.accuracy - _paired_random_accuracy(test, m.reasoning_fraction),
               "budget_violation_frac": float(m.realized_cost > VIOLATION_SLACK * FF_BUDGET)}
    return Checked(checks, quality)


# ---------------------------------------------------------------------------
# data-pipeline: gen-synth (writes), then eval of the written file (reads)
# ---------------------------------------------------------------------------

def pipeline_setup(tmp: Path, seed: int) -> dict:
    # The model's stored cost scale is not used by eval today; 1.0 is the
    # preset's instruct-cost median.
    save_model(tmp / "model.json", REFERENCE_POLICY, 1.0)
    state = {"seed": seed, "model": tmp / "model.json"}
    cli(["gen-synth", "--regime", "magpie-ultra", "--n", 2000, "--seed", seed,
         "--out", tmp / "warmup.jsonl"])
    cli(["eval", "--model", state["model"], "--data", tmp / "warmup.jsonl",
         "--out", tmp / "warmup-eval"])
    return state


def pipeline_run(state, out: Path) -> Ran:
    out.mkdir()
    corpus = out / "corpus.jsonl"
    start = time.perf_counter()
    gen = cli(["gen-synth", "--regime", "magpie-ultra", "--n", PIPELINE_ROWS,
               "--seed", state["seed"], "--out", corpus])
    mid = time.perf_counter()
    ev = cli(["eval", "--model", state["model"], "--data", corpus, "--out", out / "eval"])
    end = time.perf_counter()
    return Ran(work=PIPELINE_ROWS, commands=[gen, ev],
               phase_rates={"gen_rows_per_s": PIPELINE_ROWS / (mid - start),
                            "eval_rows_per_s": PIPELINE_ROWS / (end - mid)})


def pipeline_check(state, out: Path, ran: Ran) -> Checked:
    checks = []
    corpus, metrics = out / "corpus.jsonl", out / "eval" / "metrics.json"
    if not (corpus.is_file() and metrics.is_file()):
        return Checked([("corpus and eval metrics written", False)], {})
    if "reference" not in state:
        # Once per run: the written corpus against the in-memory generator.
        # Later operations must write the same bytes (determinism guard).
        ref = gen_synthetic(replace(PRESET_SCENARIOS["magpie-ultra"], n=PIPELINE_ROWS,
                                    seed=state["seed"]))
        got = load_dataset(corpus)
        state["reference"] = {
            "round_trip": (got.ids == ref.ids and got.tags == ref.tags
                           and all(np.array_equal(getattr(got, a), getattr(ref, a))
                                   for a in ("features", "correct", "cost_raw"))),
            "expected": evaluate_policy(REFERENCE_POLICY, ref),
        }
    checks.append(("corpus loads back bitwise equal to gen_synthetic",
                   state["reference"]["round_trip"]))
    got = json.loads(metrics.read_text())
    want = state["reference"]["expected"]
    # Realized cost is not pinned: the cost scale eval uses may change.
    checks.append(("eval accuracy equals in-memory evaluate_policy bitwise",
                   got["accuracy"] == want.accuracy))
    checks.append(("eval reasoning fraction equals in-memory evaluate_policy bitwise",
                   got["reasoning_fraction"] == want.reasoning_fraction))
    quality = {"corpus_sha256": _sha256(corpus),
               **{k: got[k] for k in ("accuracy", "realized_cost", "reasoning_fraction")}}
    return Checked(checks, quality)


# ---------------------------------------------------------------------------
# saddle-certify
# ---------------------------------------------------------------------------

def _binding_problem(seed: int):
    """random_problem with the budget halfway between the all-instruct cost
    and the unconstrained optimum's cost, so that lambda* > 0."""
    loose = random_problem(seed, n_contexts=SADDLE_CONTEXTS, beta=SADDLE_BETA)
    spend = loose.rho * loose.w2
    floor = float(np.sum(spend * loose.cost[:, 0]))
    free = float(np.sum(spend * np.sum(policy_matrix(loose, 0.0) * loose.cost, axis=1)))
    budget = floor + 0.5 * (free - floor)
    return random_problem(seed, n_contexts=SADDLE_CONTEXTS, beta=SADDLE_BETA, budget=budget)


def saddle_setup(tmp: Path, seed: int) -> dict:
    problems = []
    for k in range(SADDLE_PROBLEMS):
        p = _binding_problem(seed * SADDLE_PROBLEMS + k)
        problems.append({
            "seed": seed * SADDLE_PROBLEMS + k, "problem": p,
            "tilts": ((p.w1 * p.reward[:, 1], "worst_low"), (p.w2 * p.cost[:, 1], "worst_high")),
        })
    cli(["saddle-demo", "--contexts", 500, "--seed", seed, "--beta", SADDLE_BETA,
         "--out", tmp / "warmup"])
    return {"problems": problems}


def saddle_run(state, out: Path) -> Ran:
    commands, tilts = [], []
    for item in state["problems"]:
        p = item["problem"]
        commands.append(cli(["saddle-demo", "--contexts", SADDLE_CONTEXTS,
                             "--seed", item["seed"], "--beta", SADDLE_BETA,
                             "--budget", repr(p.budget), "--out", out / f"p{item['seed']}"]))
        tilts.append([racer.reweight.exact_tilt(f, p.rho, TILT_DELTA, direction)
                      for f, direction in item["tilts"]])
    return Ran(work=len(state["problems"]), commands=commands, extra={"tilts": tilts})


def saddle_check(state, out: Path, ran: Ran) -> Checked:
    checks = []
    quality = {"lambda_final": [], "tau_star": []}
    accuracy = []
    for item, (_, _, text), tilts in zip(state["problems"], ran.commands, ran.extra["tilts"]):
        p = item["problem"]
        if "reference" not in item:
            solution = solve_saddle(p, tol=1e-12)
            item["reference"] = (solution.lambda_star, float(
                np.sum(p.rho * np.sum(solution.pi_matrix * p.reward, axis=1))))
        lam, acc = item["reference"]
        printed = text.split("lambda* ", 1)[1].split()[0] if "lambda* " in text else None
        checks.append((f"lambda* > 0 and printed by saddle-demo (seed {item['seed']})",
                       lam > 0 and printed == f"{lam:.4g}"))
        trace_csv = out / f"p{item['seed']}" / "trace.csv"
        if trace_csv.is_file():
            quality["lambda_final"].append(float(trace_csv.read_text().split()[-1].split(",")[1]))
        for tilt in tilts:
            tilted = tilt.weights.weights * p.rho
            kl = racer.reweight.kl_divergence(tilted / tilted.sum(), p.rho)
            checks.append((f"exact_tilt active at KL = delta (seed {item['seed']})",
                           tilt.status == "active" and abs(kl - TILT_DELTA) <= 1e-9))
            quality["tau_star"].append(tilt.tau_star)
        accuracy.append(acc)
    quality["accuracy"] = float(np.mean(accuracy))
    return Checked(checks, quality)


WORKLOADS = {w.name: w for w in (
    Workload("frontier-sweep", "train samples", frontier_setup, frontier_run, frontier_check),
    Workload("ff-train", "train samples", ff_setup, ff_run, ff_check),
    Workload("data-pipeline", "corpus rows (written, then read and scored)",
             pipeline_setup, pipeline_run, pipeline_check),
    Workload("saddle-certify", "problems", saddle_setup, saddle_run, saddle_check),
)}
