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
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ParseError,
    ValidationError,
    decode,
    decode_field,
    evaluate_policy,
    load_dataset,
    policy_probs,
    read_json_object,
    read_record,
    save_dataset,
    write_csv,
    write_json,
)
from .evalbench import (
    DEFAULT_BUDGETS,
    DEFAULT_TEMPLATE,
    PRESET_SCENARIOS,
    SweepCell,
    SweepFailure,
    SweepResult,
    _run_sweep_cell,  # noqa: F401  (bench/spans.py traces this name)
    baseline_policy,
    gen_synthetic,
    load_scenario,
    run_units,
    scenario_splits,
    sweep_units,
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
    write_json(path, manifest)


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _widths(text: str) -> tuple[int, ...]:
    return tuple(int(h) for h in text.split(",") if h)


_ROBUST_FIELDS = typing.get_type_hints(RobustConfig)
_FIELD_TYPES = {**typing.get_type_hints(TrainConfig), **_ROBUST_FIELDS}

# flag and config-file key: the TrainConfig or RobustConfig field it sets
_TRAIN_FIELDS = {
    "budget": "budget", "tau_r": "tau_reward", "tau_c": "tau_cost", "mode": "mode",
    "beta": "beta", "epochs": "epochs", "batch_size": "batch_size", "lr": "primal_lr",
    "dual_lr": "dual_lr", "seed": "seed", "val_fraction": "val_fraction",
    "policy": "policy_kind", "hidden": "hidden", "optimizer": "optimizer",
    "init_bias": "init_bias",
}


def _train_config(args, budget_required: bool = True) -> TrainConfig:
    """DEFAULT_TEMPLATE with the --config file's values over it and the
    flags over those.

    Every config-file value decodes by the type of the field it sets; a
    key that is no flag name is a ParseError. Each value is checked on its own,
    against a valid base config, so a bad one is blamed on where it came
    from: a UsageError for a flag, a ParseError naming the file and the key
    for the config file.
    """
    file_cfg = {} if args.config is None else read_json_object(args.config, "config file")
    where = f"config file {args.config}: "
    for key in file_cfg:
        if key not in _TRAIN_FIELDS:
            raise ParseError(f"{where}unknown key {key!r}")
        file_cfg[key] = decode_field(file_cfg, key, _FIELD_TYPES[_TRAIN_FIELDS[key]], where)
    if budget_required and args.budget is None and "budget" not in file_cfg:
        raise UsageError("--budget is required")
    config = DEFAULT_TEMPLATE
    for key, name in _TRAIN_FIELDS.items():
        value = getattr(args, key, None)
        from_file = value is None and key in file_cfg
        if from_file:
            value = file_cfg[key]
        elif value is None:
            continue
        try:
            if name in _ROBUST_FIELDS:
                config = replace(config, robust=replace(config.robust, **{name: value}))
            else:
                config = replace(config, **{name: value})
        except ValueError as exc:
            if from_file:
                raise ParseError(f"{where}field {key!r}: {exc}") from None
            raise UsageError(f"--{key.replace('_', '-')}: {exc}") from None
    return config


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
    p.add_argument("--hidden", type=_widths, help="comma-separated hidden widths")
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--config", help="JSON config file (flags override it)")


def cmd_train(args) -> int:
    started = time.time()
    config = _train_config(args)
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
            return baseline_policy("random", float(spec.split(":", 1)[1]))
        except ValueError as exc:  # not a number, or outside [0, 1]
            raise UsageError(f"bad random baseline {spec!r} ({exc})") from None
    raise UsageError(f"unknown baseline {spec!r} "
                     "(expected all-instruct, all-reasoning, or random:<p>)")


def _policy_and_data(args):
    """(policy, data, input paths) of exactly one of --model and --baseline
    and of --data: a model scores the data on the cost scale of its
    training split, a baseline on the data's own."""
    if (args.model is None) == (args.baseline is None):
        raise UsageError("exactly one of --model or --baseline is required")
    data = load_dataset(args.data)
    if args.baseline is not None:
        return _parse_baseline(args.baseline), data.require_finite_cost(), [args.data]
    policy, cost_mean, _ = load_model(args.model)
    return policy, data.with_cost_scale(cost_mean).require_finite_cost(), [args.data, args.model]


def cmd_eval(args) -> int:
    started = time.time()
    if not 0 <= args.seed < 2**64:  # the sampler's seeds; outside, they alias
        raise UsageError(f"--seed must lie in [0, 2**64), got {args.seed}")
    policy, data, inputs = _policy_and_data(args)
    metrics = evaluate_policy(policy, data, mode=args.mode, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.json"
    write_json(metrics_path, metrics.to_dict())
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
        return (*scenario_splits(load_scenario(args.scenario)), [args.scenario])
    if args.train_data is None:
        raise UsageError("either --scenario or --train-data is required")
    train_data = load_dataset(args.train_data)
    inputs = [args.train_data]
    tests = {}
    for item in args.test_data or []:
        if "=" not in item:
            raise UsageError(f"--test-data expects name=path, got {item!r}")
        name, path = item.split("=", 1)
        # a budget means the same compute on every split
        tests[name] = load_dataset(path).with_cost_scale(train_data.instruct_cost_mean)
        inputs.append(path)
    return train_data, tests, inputs


def _read_cell(path: Path, digest: str):
    """(cells, failures) of a finished sweep unit, or None if the file is
    missing, does not decode or belongs to another configuration. A cell
    record holds its metrics' fields beside its own."""
    try:
        payload = read_json_object(path, "sweep cell file")
        if payload["digest"] != digest:
            return None
        return ([decode(SweepCell, {**c, "metrics": c}) for c in payload["cells"]],
                [decode(SweepFailure, f) for f in payload["failures"]])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cmd_sweep(args) -> int:
    started = time.time()
    template = _train_config(args, budget_required=False)  # budget set per cell
    budgets = _parse_floats(args.budgets) if args.budgets else DEFAULT_BUDGETS
    methods = tuple(m for m in (args.methods or "").split(",") if m) or (
        "racer", "all-instruct", "all-reasoning", "random")
    try:
        units = sweep_units(budgets, methods, args.repeats, args.base_seed)
    except ValidationError as exc:
        raise UsageError(str(exc)) from None
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")

    train_data, tests, inputs = _sweep_splits(args)
    out = Path(args.out)
    cells_dir = out / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    input_digests = {str(p): _sha256(p) for p in inputs}
    base_blob = json.dumps(
        {"template": template.to_dict(), "methods": list(methods),
         "inputs": input_digests}, sort_keys=True)

    def cell_path(unit) -> tuple[Path, str]:
        budget, seed = unit
        digest = hashlib.sha256(f"{base_blob}|{budget!r}|{seed}".encode()).hexdigest()
        return cells_dir / f"{digest}.json", digest

    cached = [_read_cell(*cell_path(unit)) if args.resume else None for unit in units]
    pending = [unit for unit, got in zip(units, cached) if got is None]
    fresh = run_units(train_data, {"train": train_data, **tests}, pending, methods,
                      template, args.workers)
    for unit, (got_cells, got_failures) in zip(pending, fresh):
        path, digest = cell_path(unit)
        payload = {
            "digest": digest,
            "cells": [
                {"method": c.method, "budget": c.budget, "seed": c.seed,
                 "split": c.split, **c.metrics.to_dict()}
                for c in got_cells
            ],
            "failures": [asdict(f) for f in got_failures],
        }
        write_json(path, payload)

    result = SweepResult.of_units([got for got in cached if got is not None] + fresh)
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
        problem = read_record(TabularProblem, args.problem, "problem file")
        inputs.append(args.problem)
    else:
        problem = random_problem(args.seed, n_contexts=args.contexts,
                                 beta=args.beta, budget=args.budget)
    # an overflow (say, of the envelope) is a FloatingPointError: exit 3
    with np.errstate(over="raise", invalid="raise"):
        constants = ConvergenceConstants.from_problem(problem)
        solution = solve_saddle(problem, tol=1e-12)
        trace = primal_dual_iterate(problem, args.lambda0, args.iters,
                                    constants=constants, solution=solution)
        bound = trace.kl_bound()
    ok = bool(np.all(trace.kl_to_star <= bound + 1e-12))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    write_csv(trace_path, [("t", "lambda_t", "kl_to_star", "bound_t"),
                           *zip(range(bound.shape[0]), trace.lambdas.tolist(),
                                trace.kl_to_star.tolist(), bound.tolist())])
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
    if (args.n is not None and args.n < 1) or (args.seed is not None and args.seed < 0):
        raise UsageError("--n must be >= 1 and --seed >= 0")
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
    if not args.tau > 0:
        raise UsageError(f"--tau must be positive (or inf), got {args.tau}")
    policy, data, inputs = _policy_and_data(args)
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
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            wv = tilt_weights(f, args.tau, direction)
        if not np.all(np.isfinite(wv.weights)):
            raise FloatingPointError(f"the tilt at --tau {args.tau!r} has non-finite weights")

    write_csv(args.out, [[f"# tau={args.tau!r}"], [f"# direction={direction}"],
                         [f"# baseline={wv.baseline!r}"], ("index", "f", "weight"),
                         *zip(range(len(data)), f.tolist(), wv.weights.tolist())])
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
    p.add_argument("--workers", type=int, default=os.environ.get("RACER_WORKERS", "1"))
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
