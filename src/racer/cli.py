"""Command-line driver: training, evaluation, sweeps, the saddle demo, and
synthetic-data utilities.

Exit codes: 0 success, 1 usage, 2 data/config problem, out of memory or a
dead worker process, 3 numeric failure.
Every path a run writes is checked before its work, an input is never
overwritten, and a manifest (resolved config, input digests, output paths),
written last, lists the complete outputs so the run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import sys
import time
import typing
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ParseError,
    ValidationError,
    _temporary_path,
    decode,
    decode_field,
    encode_float,
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
from .reweight import MODES, RobustConfig, _tilt_rows
from .saddle import (
    ConvergenceConstants,
    InfeasibleProblemError,
    TabularProblem,
    primal_dual_iterate,
    random_problem,
    solve_saddle,
)
from .trainer import (
    OPTIMIZERS,
    POLICY_KINDS,
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
    def __init__(self, *args, **kwargs):  # a flag is its full name: --budget is not --budgets
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _widths(text: str) -> tuple[int, ...]:
    return tuple(int(h) for h in text.split(",") if h)


# the most float64 values one array can hold (numpy's size limit in bytes / 8)
_MAX_VALUES = sys.maxsize // 8


def _require_allocatable(name: str, *sizes: int) -> None:
    """A size beyond any array cannot be allocated: a MemoryError, so the
    command exits 2 as out of memory instead of failing inside numpy."""
    for size in sizes:
        if size > _MAX_VALUES:
            raise MemoryError(f"{name} {size} exceeds the {_MAX_VALUES} float64 values "
                              f"an array can hold")


def _require_writable(path, made: bool) -> None:
    """Raise before the work the OSError that writing the file path would
    raise after it, so a run that cannot write does no work and creates
    nothing. The file is written as its temporary (atomic_open) in its
    parent, which must be a directory (20 under a file, 2 if missing) or,
    if made for the plan with its parents, not a file or a link to nowhere
    (17) nor under a file (20), and then renamed over path: neither may be
    a directory (21)."""
    path = Path(path)
    tmp, parent = _temporary_path(path), path.parent
    above = next(p for p in tmp.parents if p.exists() or made and p.is_symlink())
    if not above.exists():  # mkdir meets a symbolic link to nowhere
        raise OSError(errno.EEXIST, os.strerror(errno.EEXIST), str(above))
    if not above.is_dir():
        code = errno.EEXIST if made and above == parent else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(parent if made else tmp))
    if not made and above != parent:
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), str(tmp))
    if tmp.is_dir():
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp))
    if path.is_dir():
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp), None, str(path))


class _Plan:
    """A command's output plan: every path it writes, named once, the
    manifest last. Each file is checked when planned, before the work, and
    one that would overwrite an input is refused. The inputs are hashed
    then, so the manifest's digests are of the bytes the work reads."""

    def __init__(self, out, *names: str, inputs=()):
        """names: the files under the --out directory, a name ending in "/"
        a directory made there; none: --out is the one file, its manifest
        beside it. The manifest's duration runs from here."""
        self.started = time.time()
        self.inputs, self.files = [p for p in inputs if p is not None], []
        if names:
            self.dirs = [Path(out), *(Path(out, n) for n in names if n.endswith("/"))]
            self.add(*(Path(out, n) for n in names if not n.endswith("/")),
                     Path(out, "manifest.json"))
        else:
            self.dirs = []
            self.add(out, Path(f"{out}.manifest.json"))
        self.digests = {str(p): _sha256(p) for p in self.inputs}

    def add(self, *paths) -> None:
        """Check and plan files to be written before those planned so far:
        the sweep's pending cells, named once their keys are known."""
        for path in paths:
            _require_writable(path, Path(path).parent in self.dirs)
            for alias in (path, _temporary_path(path)):  # the write truncates, then renames
                for source in self.inputs:
                    if (os.path.exists(alias) and os.path.exists(source)
                            and os.path.samefile(alias, source)):
                        raise ValidationError(f"writing {alias} would overwrite the input "
                                              f"{source}")
        self.files[:0] = paths

    def write(self, command: str, config: dict, seed, *writers) -> None:
        """Make the directories, call each writer with its file's path in
        order, and write the manifest last: it lists the files, so its
        presence means they are complete."""
        for directory in self.dirs:
            directory.mkdir(parents=True, exist_ok=True)
        *files, manifest = self.files
        for path, write in zip(files, writers, strict=True):
            write(path)
        write_json(manifest, {"command": command, "version": __version__, "config": config,
                              "inputs": self.digests, "outputs": [str(p) for p in files],
                              "seed": seed, "duration_s": time.time() - self.started})


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


def _train_config(args) -> TrainConfig:
    """DEFAULT_TEMPLATE with the --config file's values over it and the
    flags over those. A command takes (and requires) a budget exactly when
    it has a --budget flag.

    Every config-file value decodes by the type of the field it sets; a key
    other than init_bias that is no flag name of the command is a
    ParseError. Each value is checked on its own, against a valid base
    config, so a bad one is blamed on where it came from: a UsageError for a
    flag, a ParseError naming the file and the key for the config file.
    """
    file_cfg = {} if args.config is None else read_json_object(args.config, "config file")
    where = f"config file {args.config}: "
    fields = {k: v for k, v in _TRAIN_FIELDS.items() if k == "init_bias" or hasattr(args, k)}
    for key in file_cfg:
        if key not in fields:
            raise ParseError(f"{where}unknown key {key!r}")
        file_cfg[key] = decode_field(file_cfg, key, _FIELD_TYPES[fields[key]], where)
    if "budget" in fields and args.budget is None and "budget" not in file_cfg:
        raise UsageError("--budget is required")
    config = DEFAULT_TEMPLATE
    for key, name in fields.items():
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
    if config.policy_kind == "feedforward":
        _require_allocatable("hidden width", *config.hidden)
    return config


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    # train adds --budget, --mode and --seed; a sweep sets them per cell
    p.add_argument("--tau-r", dest="tau_r", type=float)
    p.add_argument("--tau-c", dest="tau_c", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--dual-lr", dest="dual_lr", type=float)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--policy", choices=POLICY_KINDS)
    p.add_argument("--hidden", type=_widths, help="comma-separated hidden widths")
    p.add_argument("--optimizer", choices=tuple(OPTIMIZERS))
    p.add_argument("--config", help="JSON config file (flags override it)")


def cmd_train(args) -> int:
    config = _train_config(args)
    plan = _Plan(args.out, "model.json", "history.csv", inputs=[args.data])
    data = load_dataset(args.data)
    result = train(data, config)
    plan.write("train", config.to_dict(), config.seed,
               lambda path: save_model(path, result.best.policy, data.instruct_cost_mean, config),
               lambda path: history_to_csv(result.history, path))

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


def _policy_and_data(args, *names: str):
    """(policy, data, output plan) of exactly one of --model and --baseline
    and of --data: a model scores the data on the cost scale of its
    training split, a baseline on the data's own. The flags, then the
    output plan of names (see _Plan), are checked before any input is read."""
    if (args.model is None) == (args.baseline is None):
        raise UsageError("exactly one of --model or --baseline is required")
    baseline = None if args.baseline is None else _parse_baseline(args.baseline)
    plan = _Plan(args.out, *names, inputs=[args.data, args.model])
    data = load_dataset(args.data)
    if baseline is not None:
        return baseline, data.require_finite_cost(), plan
    policy, cost_mean, _ = load_model(args.model)
    return policy, data.with_cost_scale(cost_mean).require_finite_cost(), plan


def cmd_eval(args) -> int:
    if not 0 <= args.seed < 2**64:  # the sampler's seeds; outside, they alias
        raise UsageError(f"--seed must lie in [0, 2**64), got {args.seed}")
    policy, data, plan = _policy_and_data(args, "metrics.json")
    metrics = evaluate_policy(policy, data, mode=args.mode, seed=args.seed).to_dict()
    config = {"model": args.model, "baseline": args.baseline, "data": args.data,
              "mode": args.mode, "seed": args.seed}
    plan.write("eval", config, args.seed, lambda path: write_json(path, metrics))
    print(json.dumps(metrics))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v)
    except ValueError:
        raise UsageError(f"bad numeric list {text!r}") from None


def _sweep_splits(args, items):
    """(train_data, tests dict) from a scenario or data files."""
    if args.scenario is not None:
        return scenario_splits(load_scenario(args.scenario))
    train_data = load_dataset(args.train_data)
    # a budget means the same compute on every split
    tests = {name: load_dataset(path).with_cost_scale(train_data.instruct_cost_mean)
             for name, path in items}
    return train_data, tests


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
    template = _train_config(args)  # budget, seed and mode set per cell
    # an absent flag takes the defaults; an empty list reaches sweep_units' check
    budgets = DEFAULT_BUDGETS if args.budgets is None else _parse_floats(args.budgets)
    methods = (("racer", "all-instruct", "all-reasoning", "random") if args.methods is None
               else tuple(m for m in args.methods.split(",") if m))
    if args.scenario is not None and (args.train_data is not None or args.test_data):
        raise UsageError("--scenario excludes --train-data and --test-data")
    items = [item.split("=", 1) for item in args.test_data or []]  # [name, path] each
    for item in items:
        if len(item) < 2:
            raise UsageError(f"--test-data expects name=path, got {item[0]!r}")
    _require_allocatable("sweep units (budgets x --repeats)", len(budgets) * args.repeats)
    try:
        units = sweep_units(budgets, methods, args.repeats, args.base_seed,
                            [name for name, _ in items])
    except ValidationError as exc:
        raise UsageError(str(exc)) from None
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.scenario is None and args.train_data is None:
        raise UsageError("either --scenario or --train-data is required")

    inputs = ([args.scenario] if args.scenario is not None
              else [args.train_data, *(path for _, path in items)])
    plan = _Plan(args.out, "cells/", "sweep.csv", "sweep_agg.csv", inputs=inputs)
    # a test file is keyed by its name=path item, so a renamed split gets new cells
    keys = [inputs[0], *map("=".join, items)]
    base_blob = json.dumps(
        {"template": template.to_dict(), "methods": list(methods),
         "inputs": {key: plan.digests[str(path)] for key, path in zip(keys, inputs)}},
        sort_keys=True)

    def cell_path(unit) -> tuple[Path, str]:
        budget, seed = unit
        digest = hashlib.sha256(f"{base_blob}|{budget!r}|{seed}".encode()).hexdigest()
        return plan.dirs[-1] / f"{digest}.json", digest

    cached = [_read_cell(*cell_path(unit)) if args.resume else None for unit in units]
    pending = [unit for unit, got in zip(units, cached) if got is None]
    plan.add(*(cell_path(unit)[0] for unit in pending))
    train_data, tests = _sweep_splits(args, items)
    fresh = run_units(train_data, tests, pending, methods, template, args.workers)
    payloads = [{
        "digest": cell_path(unit)[1],
        "cells": [{"method": c.method, "budget": encode_float(c.budget), "seed": c.seed,
                   "split": c.split, **c.metrics.to_dict()} for c in got_cells],
        "failures": [{**asdict(f), "budget": encode_float(f.budget)} for f in got_failures],
    } for unit, (got_cells, got_failures) in zip(pending, fresh)]
    result = SweepResult.of_units([got for got in cached if got is not None] + fresh)
    config = {"template": template.to_dict(), "methods": list(methods),
              "budgets": [encode_float(b) for b in budgets], "repeats": args.repeats,
              "base_seed": args.base_seed, "scenario": args.scenario,
              "train_data": args.train_data, "test_data": args.test_data}
    plan.write("sweep", config, args.base_seed,
               *(partial(write_json, payload=payload) for payload in payloads),
               result.to_csv, result.aggregate_csv)

    for failure in result.failures:
        print(f"warning: {failure.method} budget={failure.budget:g} "
              f"seed={failure.seed} failed: {failure.error}", file=sys.stderr)
    print(f"sweep: {len(result.cells)} cells, {len(result.failures)} failures "
          f"-> {plan.files[-3]}")  # sweep.csv
    if result.cells:
        return EXIT_OK
    return EXIT_DATA


# ---------------------------------------------------------------------------
# saddle demo
# ---------------------------------------------------------------------------

def cmd_saddle_demo(args) -> int:
    given = [flag for flag, value in (("--contexts", args.contexts), ("--seed", args.seed),
                                      ("--beta", args.beta), ("--budget", args.budget))
             if value is not None]
    if args.problem is not None and given:
        raise UsageError(f"--problem excludes {', '.join(given)}")
    if (args.iters < 1 or (args.contexts is not None and args.contexts < 1)
            or (args.seed is not None and args.seed < 0)):
        raise UsageError("--contexts and --iters must be >= 1 and --seed >= 0")
    if args.beta is not None and not 0.0 < args.beta < math.inf:
        raise UsageError(f"--beta must be positive and finite, got {args.beta}")
    if args.budget is not None and not math.isfinite(args.budget):
        raise UsageError(f"--budget must be finite, got {args.budget}")
    if not 0.0 <= args.lambda0 < math.inf:
        raise UsageError(f"--lambda0 must be non-negative and finite, got {args.lambda0}")
    _require_allocatable("--iters", args.iters)
    plan = _Plan(args.out, "trace.csv", inputs=[args.problem])
    if args.problem is not None:
        problem = read_record(TabularProblem, args.problem, "problem file")
        config, seed = {}, None
    else:
        _require_allocatable("--contexts", args.contexts or 0)
        # a flag not given keeps random_problem's default
        kwargs = {name: value for name, value in (("n_contexts", args.contexts),
                                                   ("beta", args.beta), ("budget", args.budget))
                  if value is not None}
        seed = args.seed or 0
        problem = random_problem(seed, **kwargs)
        config = {"contexts": problem.rho.shape[0], "seed": seed, "beta": problem.beta,
                  "budget": args.budget}
    # an overflow (say, of the envelope) is a FloatingPointError: exit 3
    with np.errstate(over="raise", invalid="raise"):
        constants = ConvergenceConstants.from_problem(problem)
        solution = solve_saddle(problem, tol=1e-12)
        trace = primal_dual_iterate(problem, args.lambda0, args.iters,
                                    constants=constants, solution=solution)
        bound = trace.kl_bound()
    ok = bool(np.all(trace.kl_to_star <= bound + 1e-12))
    config.update(problem=args.problem, lambda0=args.lambda0, iters=args.iters)
    plan.write("saddle-demo", config, seed,
               lambda path: write_csv(path, [("t", "lambda_t", "kl_to_star", "bound_t"),
                                             *zip(range(bound.shape[0]), trace.lambdas.tolist(),
                                                  trace.kl_to_star.tolist(), bound.tolist())]))

    print(f"lambda* {_fmt(solution.lambda_star)}  kappa {_fmt(constants.kappa)}  "
          f"eta {_fmt(constants.eta)}  M {_fmt(constants.M)}  K {_fmt(constants.K)}")
    print(("PASS" if ok else "FAIL")
          + ": KL(pi_t || pi*) within the linear-convergence bound at every iterate")
    return EXIT_OK if ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# gen-synth / inspect-weights
# ---------------------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    if (args.scenario is None) == (args.regime is None):
        raise UsageError("exactly one of --scenario or --regime is required")
    if (args.n is not None and args.n < 1) or (args.seed is not None and args.seed < 0):
        raise UsageError("--n must be >= 1 and --seed >= 0")
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
    else:
        if args.regime not in PRESET_SCENARIOS:
            raise UsageError(f"unknown regime {args.regime!r} "
                             f"(available: {', '.join(sorted(PRESET_SCENARIOS))})")
        scenario = PRESET_SCENARIOS[args.regime]
    if args.n is not None:
        scenario = replace(scenario, n=args.n)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.apply_shift and not scenario.shift:
        raise UsageError("--apply-shift: the scenario has no shift map")
    _require_allocatable("scenario n", scenario.n)
    plan = _Plan(args.out, inputs=[args.scenario])
    data = gen_synthetic(scenario, apply_shift=args.apply_shift)
    config = {"scenario": args.scenario, "regime": args.regime, "n": scenario.n,
              "seed": scenario.seed, "apply_shift": args.apply_shift}
    plan.write("gen-synth", config, scenario.seed, lambda path: save_dataset(data, path))
    print(f"wrote {len(data)} instances -> {args.out}")
    return EXIT_OK


def cmd_inspect_weights(args) -> int:
    if not args.tau > 0:
        raise UsageError(f"--tau must be positive (or inf), got {args.tau}")
    policy, data, plan = _policy_and_data(args)
    p = policy_probs(policy, data)
    v, direction = ((data.correct, "worst_low") if args.target == "reward"
                    else (data.cost, "worst_high"))
    f = v[:, 0] + p * (v[:, 1] - v[:, 0])
    # tau = inf gives every row weight 1 and the mean of f as its anchor
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        weights, baseline = _tilt_rows(f, args.tau, direction)
    if not np.all(np.isfinite(weights)):
        raise FloatingPointError(f"the tilt at --tau {args.tau!r} has non-finite weights")

    # the tilted distribution is weights / n against the uniform one: its KL
    # divergence (0 log 0 = 0) and its effective sample size
    kl = float(np.add.reduce(weights * np.log(np.where(weights > 0, weights, 1.0))) / len(data))
    ess = float(np.add.reduce(weights) ** 2 / np.add.reduce(weights * weights))
    rows = [[f"# tau={args.tau!r}"], [f"# direction={direction}"],
            [f"# baseline={float(baseline)!r}"], [f"# kl={kl!r}"], [f"# ess={ess!r}"],
            [f"# weight_range={float(weights.min())!r}..{float(weights.max())!r}"],
            ("index", "f", "weight"), *zip(range(len(data)), f.tolist(), weights.tolist())]
    config = {"data": args.data, "model": args.model, "baseline": args.baseline,
              "tau": encode_float(args.tau), "target": args.target}
    plan.write("inspect-weights", config, 0, lambda path: write_csv(path, rows))
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
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--workers", type=int, default=1)
    _add_train_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("saddle-demo", help="verify the linear-convergence bound")
    # the random problem's flags; --problem excludes them
    p.add_argument("--contexts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--beta", type=float)
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
    except MemoryError as exc:  # numpy names the allocation that failed
        print(f"error: out of memory ({str(exc) or type(exc).__name__})", file=sys.stderr)
        return EXIT_DATA
    except BrokenExecutor as exc:  # say, a worker the system killed for its memory
        print(f"error: a worker process died ({exc})", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
