"""Command-line driver: training, evaluation, sweeps, the saddle demo, and
synthetic-data utilities.

Exit codes: 0 success, 1 usage, 2 data/config problem, 3 numeric failure.
Every run writes a manifest (resolved config, input digests, output paths)
alongside its outputs so it can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    Metrics,
    ParseError,
    ValidationError,
    atomic_open,
    evaluate_policy,
    load_dataset,
    policy_probs,
    save_dataset,
)
from .evalbench import (
    CONSTANT_METHODS,
    DEFAULT_BUDGETS,
    LEARNABLE_METHODS,
    PRESET_SCENARIOS,
    SweepCell,
    SweepFailure,
    SweepResult,
    _run_sweep_cell,
    baseline_policy,
    gen_synthetic,
    load_scenario,
    split_units,
)
from .reweight import RobustConfig, tilt_weights, uniform_weights
from .saddle import (
    ConvergenceConstants,
    InfeasibleProblemError,
    TabularProblem,
    primal_dual_iterate,
    random_problem,
    solve_saddle,
)
from .trainer import (
    TrainConfig,
    TrainingDivergenceError,
    history_to_csv,
    load_model,
    save_model,
    train,
)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command: str, config: dict, inputs, outputs, seed,
                    started: float) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "duration_s": time.time() - started,
    }
    _write_atomic(path, json.dumps(manifest, indent=1) + "\n")


def _write_atomic(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path}: invalid JSON ({exc.msg})") from None
    if not isinstance(payload, dict):
        raise UsageError("config file must hold a JSON object")
    return payload


_TRAIN_DEFAULTS = {
    "budget": None,
    "tau_r": 1.0,
    "tau_c": math.inf,
    "mode": "racer",
    "beta": 0.005,
    "epochs": 60,
    "batch_size": 64,
    "lr": 1e-4,
    "dual_lr": 1e-3,
    "seed": 0,
    "val_fraction": 0.1,
    "policy": "linear",
    "hidden": "256,128,64",
    "optimizer": "adam",
    "lambda_init": 0.0,
    "init_bias": 0.0,
}


def _resolve(flags: dict, file_cfg: dict, defaults: dict) -> dict:
    resolved = {}
    for key, default in defaults.items():
        if flags.get(key) is not None:
            resolved[key] = flags[key]
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _train_config(resolved: dict) -> TrainConfig:
    if resolved["budget"] is None:
        raise UsageError("--budget is required")
    hidden = resolved["hidden"]
    if isinstance(hidden, str):
        hidden = tuple(int(h) for h in hidden.split(",") if h)
    return TrainConfig(
        budget=float(resolved["budget"]),
        beta=float(resolved["beta"]),
        robust=RobustConfig(
            tau_reward=float(resolved["tau_r"]),
            tau_cost=float(resolved["tau_c"]),
            mode=str(resolved["mode"]),
        ),
        epochs=int(resolved["epochs"]),
        batch_size=int(resolved["batch_size"]),
        primal_lr=float(resolved["lr"]),
        dual_lr=float(resolved["dual_lr"]),
        seed=int(resolved["seed"]),
        val_fraction=float(resolved["val_fraction"]),
        policy_kind=str(resolved["policy"]),
        hidden=tuple(hidden),
        optimizer=str(resolved["optimizer"]),
        lambda_init=float(resolved["lambda_init"]),
        init_bias=float(resolved["init_bias"]),
    )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-r", dest="tau_r", type=float)
    p.add_argument("--tau-c", dest="tau_c", type=float)
    p.add_argument("--mode", choices=("racer", "racer-r", "racer-c", "acer"))
    p.add_argument("--beta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--dual-lr", dest="dual_lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--policy", choices=("linear", "feedforward"))
    p.add_argument("--hidden", help="comma-separated hidden widths")
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--config", help="JSON config file (flags override it)")


def cmd_train(args) -> int:
    started = time.time()
    file_cfg = _load_config_file(args.config)
    resolved = _resolve(
        {k: getattr(args, k, None) for k in _TRAIN_DEFAULTS}, file_cfg, _TRAIN_DEFAULTS
    )
    resolved["budget"] = args.budget if args.budget is not None else resolved["budget"]
    config = _train_config(resolved)
    data = load_dataset(args.data)
    result = train(data, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    history_path = out / "history.csv"
    save_model(model_path, result.best.policy, data.instruct_cost_mean, config)
    history_to_csv(result.history, history_path)
    _write_manifest(out / "manifest.json", "train", config.to_dict(),
                    [args.data], [model_path, history_path], config.seed, started)

    m = result.best.metrics
    print(f"best checkpoint: epoch {result.best.epoch}  "
          f"val_acc {_fmt(m.accuracy)}  val_cost {_fmt(m.realized_cost)}  "
          f"reasoning_frac {_fmt(m.reasoning_fraction)}  lambda {_fmt(result.best.lam)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _parse_baseline(spec: str):
    if spec in ("all-instruct", "all-reasoning"):
        return baseline_policy(spec)
    if spec.startswith("random:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad random baseline {spec!r}") from None
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"random baseline rate must lie in [0, 1], got {p}")
        return baseline_policy("random", p)
    raise UsageError(f"unknown baseline {spec!r} "
                     "(expected all-instruct, all-reasoning, or random:<p>)")


def cmd_eval(args) -> int:
    started = time.time()
    if (args.model is None) == (args.baseline is None):
        raise UsageError("exactly one of --model or --baseline is required")
    data = load_dataset(args.data)
    inputs = [args.data]
    if args.baseline is not None:
        policy = _parse_baseline(args.baseline)
    else:
        policy, cost_mean, _ = load_model(args.model)
        data = data.with_cost_scale(cost_mean)  # the model's training cost scale
        inputs.append(args.model)
    metrics = evaluate_policy(policy, data, mode=args.mode, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.json"
    _write_atomic(metrics_path, json.dumps(metrics.to_dict(), indent=1) + "\n")
    config = {"model": args.model, "baseline": args.baseline, "data": args.data,
              "mode": args.mode, "seed": args.seed}
    _write_manifest(out / "manifest.json", "eval", config, inputs,
                    [metrics_path], args.seed, started)
    print(json.dumps(metrics.to_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v)
    except ValueError:
        raise UsageError(f"bad numeric list {text!r}") from None


def _sweep_splits(args):
    """(train_data, tests dict, input paths) from a scenario or data files."""
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
        train_data = gen_synthetic(scenario)

        def shared_scale(config):
            return gen_synthetic(config).with_cost_scale(train_data.instruct_cost_mean)

        tests = {"id_test": shared_scale(replace(scenario, seed=scenario.seed + 1))}
        if scenario.shift:
            shifted = scenario.with_weights(scenario.shift)
            tests["ood"] = shared_scale(replace(shifted, seed=scenario.seed + 2))
        return train_data, tests, [args.scenario]
    if args.train_data is None:
        raise UsageError("either --scenario or --train-data is required")
    train_data = load_dataset(args.train_data)
    inputs = [args.train_data]
    tests = {}
    for item in args.test_data or []:
        if "=" not in item:
            raise UsageError(f"--test-data expects name=path, got {item!r}")
        name, path = item.split("=", 1)
        # test splits share the training cost scale
        tests[name] = load_dataset(path).with_cost_scale(train_data.instruct_cost_mean)
        inputs.append(path)
    return train_data, tests, inputs


def _read_cell(path: Path, digest: str):
    """(cells, failures) of a finished sweep unit, or None if the file is
    missing, unreadable or belongs to another configuration."""
    try:
        payload = json.loads(path.read_text())
        if payload["digest"] != digest:
            return None
        cells = [SweepCell(c["method"], c["budget"], c["seed"], c["split"],
                           Metrics(c["accuracy"], c["realized_cost"], c["reasoning_fraction"]))
                 for c in payload["cells"]]
        failures = [SweepFailure(f["method"], f["budget"], f["seed"], f["error"])
                    for f in payload["failures"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return cells, failures


def cmd_sweep(args) -> int:
    started = time.time()
    file_cfg = _load_config_file(args.config)
    resolved = _resolve(
        {k: getattr(args, k, None) for k in _TRAIN_DEFAULTS}, file_cfg, _TRAIN_DEFAULTS
    )
    resolved["budget"] = resolved["budget"] or 1.0  # overwritten per cell
    template = _train_config(resolved)
    budgets = _parse_floats(args.budgets) if args.budgets else DEFAULT_BUDGETS
    methods = tuple(m for m in (args.methods or "").split(",") if m) or (
        "racer", "all-instruct", "all-reasoning", "random")
    for method in methods:
        if method not in LEARNABLE_METHODS + CONSTANT_METHODS:
            raise UsageError(f"unknown method {method!r}")

    train_data, tests, inputs = _sweep_splits(args)
    splits = {"train": train_data, **tests}
    out = Path(args.out)
    cells_dir = out / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    input_digests = {str(p): _sha256(p) for p in inputs}
    base_blob = json.dumps(
        {"template": template.to_dict(), "methods": list(methods),
         "inputs": input_digests}, sort_keys=True)

    def unit_digest(budget, seed) -> str:
        return hashlib.sha256(f"{base_blob}|{budget!r}|{seed}".encode()).hexdigest()

    units = [(float(b), args.base_seed + r) for b in budgets for r in range(args.repeats)]
    pending, done = [], []
    for budget, seed in units:
        digest = unit_digest(budget, seed)
        cached = _read_cell(cells_dir / f"{digest}.json", digest) if args.resume else None
        if cached is None:
            pending.append((budget, seed))
        else:
            done.append(cached)

    work = [(train_data, splits, group, methods, template)
            for group in split_units(pending, args.workers)]
    if len(work) > 1:
        with ProcessPoolExecutor(max_workers=len(work)) as pool:
            results = list(pool.map(_run_sweep_cell, work))
    else:
        results = [_run_sweep_cell(w) for w in work]

    for (budget, seed), (got_cells, got_failures) in zip(
            pending, (unit for group in results for unit in group)):
        digest = unit_digest(budget, seed)
        payload = {
            "digest": digest,
            "cells": [
                {"method": c.method, "budget": c.budget, "seed": c.seed,
                 "split": c.split, **c.metrics.to_dict()}
                for c in got_cells
            ],
            "failures": [
                {"method": f.method, "budget": f.budget, "seed": f.seed, "error": f.error}
                for f in got_failures
            ],
        }
        _write_atomic(cells_dir / f"{digest}.json", json.dumps(payload, indent=1) + "\n")
        done.append((got_cells, got_failures))

    all_cells = [c for got_cells, _ in done for c in got_cells]
    all_failures = [f for _, got_failures in done for f in got_failures]
    all_cells.sort(key=lambda c: (c.method, c.budget, c.seed, c.split))
    all_failures.sort(key=lambda f: (f.method, f.budget, f.seed))
    result = SweepResult(tuple(all_cells), tuple(all_failures))
    raw_path = out / "sweep.csv"
    agg_path = out / "sweep_agg.csv"
    result.to_csv(raw_path)
    result.aggregate_csv(agg_path)
    config = {"template": template.to_dict(), "methods": list(methods),
              "budgets": list(budgets), "repeats": args.repeats,
              "base_seed": args.base_seed, "scenario": args.scenario,
              "train_data": args.train_data, "test_data": args.test_data}
    _write_manifest(out / "manifest.json", "sweep", config, inputs,
                    [raw_path, agg_path], args.base_seed, started)

    for failure in result.failures:
        print(f"warning: {failure.method} budget={failure.budget:g} "
              f"seed={failure.seed} failed: {failure.error}", file=sys.stderr)
    print(f"sweep: {len(result.cells)} cells, {len(result.failures)} failures "
          f"-> {raw_path}")
    if result.cells:
        return EXIT_OK
    return EXIT_DATA


# ---------------------------------------------------------------------------
# saddle demo
# ---------------------------------------------------------------------------

_PROBLEM_ARRAYS = ("rho", "reward", "cost", "w1", "w2")


def _load_problem(path) -> TabularProblem:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"problem file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"problem file {path}: expected a JSON object, "
                         f"got {type(payload).__name__}")
    fields = {}
    for key in (*_PROBLEM_ARRAYS, "budget", "beta"):
        if key not in payload:
            raise ParseError(f"problem file {path}: missing field {key!r}")
        try:
            fields[key] = (np.asarray(payload[key], dtype=np.float64)
                           if key in _PROBLEM_ARRAYS else float(payload[key]))
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"problem file {path}: field {key!r} is not numeric") from None
    return TabularProblem(**fields)


def cmd_saddle_demo(args) -> int:
    started = time.time()
    if args.contexts < 1 or args.iters < 1 or args.seed < 0:
        raise UsageError("--contexts and --iters must be >= 1 and --seed >= 0")
    if not 0.0 < args.beta < math.inf:
        raise UsageError(f"--beta must be positive and finite, got {args.beta}")
    if not 0.0 <= args.lambda0 < math.inf:
        raise UsageError(f"--lambda0 must be non-negative and finite, got {args.lambda0}")
    inputs = []
    if args.problem is not None:
        problem = _load_problem(args.problem)
        inputs.append(args.problem)
    else:
        problem = random_problem(args.seed, n_contexts=args.contexts,
                                 beta=args.beta, budget=args.budget)
    constants = ConvergenceConstants.from_problem(problem)
    solution = solve_saddle(problem, tol=1e-12)
    trace = primal_dual_iterate(problem, args.lambda0, args.iters,
                                constants=constants, solution=solution)
    bound = trace.kl_bound()
    ok = bool(np.all(trace.kl_to_star <= bound + 1e-12))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    _write_atomic(trace_path, "t,lambda_t,kl_to_star,bound_t\n" + "".join(
        f"{t},{lam!r},{kl!r},{b!r}\n" for t, (lam, kl, b) in enumerate(
            zip(trace.lambdas.tolist(), trace.kl_to_star.tolist(), bound.tolist()))))
    config = {"contexts": args.contexts, "seed": args.seed, "beta": args.beta,
              "budget": args.budget, "problem": args.problem,
              "lambda0": args.lambda0, "iters": args.iters}
    _write_manifest(out / "manifest.json", "saddle-demo", config, inputs,
                    [trace_path], args.seed, started)

    print(f"lambda* {_fmt(solution.lambda_star)}  kappa {_fmt(constants.kappa)}  "
          f"eta {_fmt(constants.eta)}  M {_fmt(constants.M)}  K {_fmt(constants.K)}")
    print(("PASS" if ok else "FAIL")
          + ": KL(pi_t || pi*) within the linear-convergence bound at every iterate")
    return EXIT_OK if ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# gen-synth / inspect-weights
# ---------------------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    started = time.time()
    if (args.scenario is None) == (args.regime is None):
        raise UsageError("exactly one of --scenario or --regime is required")
    inputs = []
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
        inputs.append(args.scenario)
    else:
        if args.regime not in PRESET_SCENARIOS:
            raise UsageError(f"unknown regime {args.regime!r} "
                             f"(available: {', '.join(sorted(PRESET_SCENARIOS))})")
        scenario = PRESET_SCENARIOS[args.regime]
    if args.n is not None:
        scenario = replace(scenario, n=args.n)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    data = gen_synthetic(scenario, apply_shift=args.apply_shift)
    save_dataset(data, args.out)
    config = {"scenario": args.scenario, "regime": args.regime, "n": scenario.n,
              "seed": scenario.seed, "apply_shift": args.apply_shift}
    _write_manifest(str(args.out) + ".manifest.json", "gen-synth", config, inputs,
                    [args.out], scenario.seed, started)
    print(f"wrote {len(data)} instances -> {args.out}")
    return EXIT_OK


def cmd_inspect_weights(args) -> int:
    started = time.time()
    data = load_dataset(args.data)
    inputs = [args.data]
    if args.model is not None:
        policy, _, _ = load_model(args.model)
        inputs.append(args.model)
    elif args.baseline is not None:
        policy = _parse_baseline(args.baseline)
    else:
        raise UsageError("one of --model or --baseline is required")

    p = policy_probs(policy, data)
    if args.target == "reward":
        f = data.correct[:, 0] + p * (data.correct[:, 1] - data.correct[:, 0])
        direction = "worst_low"
    else:
        f = data.cost[:, 0] + p * (data.cost[:, 1] - data.cost[:, 0])
        direction = "worst_high"
    if math.isinf(args.tau):
        wv = uniform_weights(len(data), float(f.mean()))
    else:
        wv = tilt_weights(f, args.tau, direction)

    with atomic_open(args.out) as fh:
        fh.write(f"# tau={args.tau!r}\n# direction={direction}\n# baseline={wv.baseline!r}\n")
        fh.write("index,f,weight\n")
        for i in range(len(data)):
            fh.write(f"{i},{float(f[i])!r},{float(wv.weights[i])!r}\n")
    config = {"data": args.data, "model": args.model, "baseline": args.baseline,
              "tau": args.tau if not math.isinf(args.tau) else "inf",
              "target": args.target}
    _write_manifest(str(args.out) + ".manifest.json", "inspect-weights", config,
                    inputs, [args.out], 0, started)
    print(f"wrote {len(data)} weights -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="racer", description=__doc__)
    parser.add_argument("--version", action="version", version=f"racer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a routing policy")
    p.add_argument("--data", required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--out", default="run")
    _add_train_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model or baseline on a dataset")
    p.add_argument("--model")
    p.add_argument("--baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("expected", "sampled"), default="expected")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="budget sweep over methods and seeds")
    p.add_argument("--scenario")
    p.add_argument("--train-data", dest="train_data")
    p.add_argument("--test-data", dest="test_data", action="append",
                   help="name=path, repeatable")
    p.add_argument("--budgets", help="comma-separated budget list")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--methods", help="comma-separated method list")
    p.add_argument("--base-seed", dest="base_seed", type=int, default=0)
    p.add_argument("--out", default="sweep")
    p.add_argument("--resume", action="store_true",
                   help="reuse per-cell outputs whose digests match")
    p.add_argument("--workers", type=int,
                   default=int(os.environ.get("RACER_WORKERS", "1")))
    p.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    _add_train_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("saddle-demo", help="verify the linear-convergence bound")
    p.add_argument("--contexts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--budget", type=float)
    p.add_argument("--problem", help="JSON tabular problem file")
    p.add_argument("--lambda0", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--out", default="saddle")
    p.set_defaults(handler=cmd_saddle_demo)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--scenario")
    p.add_argument("--regime", help="preset scenario name")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--apply-shift", dest="apply_shift", action="store_true")
    p.add_argument("--out", default="synthetic.jsonl")
    p.set_defaults(handler=cmd_gen_synth)

    p = sub.add_parser("inspect-weights", help="dump tilt weights for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model")
    p.add_argument("--baseline")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--target", choices=("reward", "cost"), required=True)
    p.add_argument("--out", default="weights.csv")
    p.set_defaults(handler=cmd_inspect_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if "usage:" not in str(exc):
            print("run 'racer <command> --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, InfeasibleProblemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        print(f"error: numeric failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
