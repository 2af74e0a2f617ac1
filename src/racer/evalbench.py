"""Synthetic benchmarks: data generator, constant baselines, budget sweeps,
and distribution-shift scenarios.

The generator samples a mixture of domains, each with its own instruct /
reasoning accuracy, log-normal cost-ratio distribution, and Gaussian feature
signature. Cost ratios are parameterized by their median so generated splits
can be calibrated to reported corpus statistics (e.g. medians 11.2 / 3.4 /
4.7 for the three reference subsets).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (ConstantPolicy, Dataset, Metrics, ValidationError, evaluate_policy,
                   read_record, usable_cpus, write_csv)
from .reweight import MODES, RobustConfig
from .trainer import TrainConfig, TrainResult, train

LEARNABLE_METHODS = MODES  # a learnable method trains in the RobustConfig mode of its name
CONSTANT_METHODS = ("all-instruct", "all-reasoning", "random")
DEFAULT_BUDGETS = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.0, 10.0)
# What ``racer train``, ``racer sweep`` and ``run_sweep`` train with unless
# told otherwise: the TrainConfig defaults with the reward tilt at tau = 1.
# A sweep sets the budget, seed and mode of each cell.
DEFAULT_TEMPLATE = TrainConfig(budget=1.0, robust=RobustConfig(tau_reward=1.0))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """One mixture component of a synthetic scenario.

    instruct_cost_median scales the domain's base (instruct-mode) cost:
    domains with longer prompts are costlier in both modes.
    """

    name: str
    weight: float
    p_instruct: float
    p_reasoning: float
    cost_ratio_median: float
    cost_ratio_sigma: float = 0.5
    feature_mean: tuple[float, ...] = (0.0,)
    feature_noise: float = 0.25
    instruct_cost_median: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p_instruct <= 1.0 or not 0.0 <= self.p_reasoning <= 1.0:
            raise ValidationError(f"domain {self.name!r}: accuracies must lie in [0, 1]")
        if not self.cost_ratio_median > 1.0:
            raise ValidationError(f"domain {self.name!r}: cost-ratio median must exceed 1")
        if not 0 <= self.weight < math.inf:
            raise ValidationError(f"domain {self.name!r}: mixture weight must be "
                                  f"non-negative and finite")
        if not 0 <= self.cost_ratio_sigma < math.inf:
            raise ValidationError(f"domain {self.name!r}: cost-ratio sigma must be "
                                  f"non-negative and finite")
        if not self.instruct_cost_median > 0:
            raise ValidationError(f"domain {self.name!r}: instruct cost median must be positive")
        object.__setattr__(self, "feature_mean", tuple(float(v) for v in self.feature_mean))


@dataclass(frozen=True)
class ScenarioConfig:
    """Mixture-of-domains generator configuration."""

    domains: tuple[DomainSpec, ...]
    n: int
    seed: int = 0
    shift: Mapping[str, float] | None = None
    agreement: float = 0.0
    instruct_cost_sigma: float = 0.25

    def __post_init__(self):
        if not self.domains:
            raise ValidationError("scenario needs at least one domain")
        total = sum(d.weight for d in self.domains)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"mixture weights must sum to 1, got {total}")
        dims = {len(d.feature_mean) for d in self.domains}
        if len(dims) != 1:
            raise ValidationError("all domains must share one feature dimension")
        names = [d.name for d in self.domains]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(f"domain name {name!r} is repeated")
        if self.n < 1:
            raise ValidationError("n must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.instruct_cost_sigma < math.inf:
            raise ValidationError("instruct_cost_sigma must be non-negative and finite")
        for d in self.domains if self.shift else ():
            if d.name not in self.shift:
                raise ValidationError(f"shift gives no weight for domain {d.name!r}")
        if not 0.0 <= self.agreement <= 1.0:
            raise ValidationError("agreement must lie in [0, 1]")
        object.__setattr__(self, "domains", tuple(self.domains))

    def weights(self) -> np.ndarray:
        return np.array([d.weight for d in self.domains])

    def with_weights(self, mapping: Mapping[str, float]) -> "ScenarioConfig":
        """New scenario with reassigned mixture weights (must cover all domains)."""
        domains = tuple(replace(d, weight=float(mapping[d.name])) for d in self.domains)
        return replace(self, domains=domains, shift=None)


def load_scenario(path) -> ScenarioConfig:
    """The scenario of a JSON file; ParseError naming the file unless it
    decodes to one, ValidationError if that scenario breaks an invariant."""
    return read_record(ScenarioConfig, path, "scenario file")


# Reference generator regimes. Cost-ratio medians follow the reported corpus
# statistics (11.2 / 3.4 / 4.7); accuracy endpoints follow the reported
# 1.7B-scale judge pair (70.04% instruct, 78.35% reasoning).
PRESET_SCENARIOS: dict[str, ScenarioConfig] = {
    **{name: ScenarioConfig((DomainSpec(name, 1.0, 0.7004, 0.7835, median, feature_mean=mean),),
                            n=10_000)
       for name, median, mean in (("magpie-ultra", 11.2, (1.0, 0.0, 0.0, 0.5)),
                                  ("wildguardmix", 3.4, (0.0, 1.0, 0.0, -0.5)),
                                  ("offsetbias", 4.7, (0.0, 0.0, 1.0, 0.0)))},
    # Three-domain separable mixture: reasoning is decisive on "math",
    # neutral on "chat", harmful on "safety". Used by the frontier and
    # budget-control benchmarks.
    "separable3": ScenarioConfig(
        domains=(
            DomainSpec("math", 0.35, 0.35, 0.92, 3.0, 0.3, (1.5, -0.5, 0.0, 0.6), 0.45),
            DomainSpec("chat", 0.40, 0.80, 0.80, 4.5, 0.3, (-1.0, 1.0, 0.4, -0.2), 0.45),
            DomainSpec("safety", 0.25, 0.85, 0.72, 5.5, 0.3, (0.0, -1.2, -1.0, 0.3), 0.45),
        ),
        n=2000, seed=100, instruct_cost_sigma=0.15,
    ),
    # Upward cost shift: training is dominated by a cheap domain with a
    # marginal reasoning gain; the expensive minority domain is the best
    # accuracy-per-cost deal, so a non-robust router spends there and
    # blows the budget when the mixture inverts.
    "shift-up": ScenarioConfig(
        domains=(
            DomainSpec("light", 0.8, 0.80, 0.82, 1.6, 0.3, (1.2, 0.3, -0.5), 0.45, 1.0),
            DomainSpec("heavy", 0.2, 0.35, 0.95, 6.0, 0.3, (-1.0, 0.8, 0.9), 0.45, 1.5),
        ),
        n=1500, seed=500, instruct_cost_sigma=0.15,
    ),
    # Downward cost shift: the cheap minority domain is reward-poor (a
    # worse raw deal, so a non-robust router skips it) but has the lowest
    # expected reward, so the worst-case reward tilt funds it; the OOD
    # mixture concentrates exactly there.
    "shift-down": ScenarioConfig(
        domains=(
            DomainSpec("light", 0.2, 0.20, 0.38, 2.2, 0.3, (0.9, 0.2, -0.4), 0.9, 1.0),
            DomainSpec("heavy", 0.8, 0.50, 0.97, 3.2, 0.3, (-0.6, 0.5, 0.6), 0.9, 1.2),
        ),
        n=1500, seed=600, agreement=1.0, instruct_cost_sigma=0.15,
    ),
}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _gen_columns(config: ScenarioConfig):
    """(ids, tags, features, correct, cost_raw) of the config's n rows."""
    rng = np.random.default_rng(config.seed)
    k, n, weights = len(config.domains), config.n, config.weights()
    dom_idx = rng.choice(k, size=n, p=weights / weights.sum())
    p0 = np.array([d.p_instruct for d in config.domains])[dom_idx]
    p1 = np.array([d.p_reasoning for d in config.domains])[dom_idx]
    if config.agreement > 0.0:
        shared = rng.random(n)
        u0, u1 = rng.random(n), rng.random(n)
        tie = rng.random(n) < config.agreement
        u0 = np.where(tie, shared, u0)
        u1 = np.where(tie, shared, u1)
    else:
        u0, u1 = rng.random(n), rng.random(n)
    correct0 = (u0 < p0).astype(np.int64)
    correct1 = (u1 < p1).astype(np.int64)

    # huge but finite scenario values overflow to inf or nan here;
    # Dataset.from_columns names the first such row
    with np.errstate(over="ignore", invalid="ignore"):
        base_medians = np.array([d.instruct_cost_median for d in config.domains])[dom_idx]
        cost0 = base_medians * np.exp(rng.normal(0.0, config.instruct_cost_sigma, size=n))
        medians = np.array([d.cost_ratio_median for d in config.domains])[dom_idx]
        sigmas = np.array([d.cost_ratio_sigma for d in config.domains])[dom_idx]
        ratio = medians * np.exp(sigmas * rng.standard_normal(n))
        cost1 = cost0 * ratio

        means = np.array([d.feature_mean for d in config.domains])[dom_idx]
        noise = np.array([d.feature_noise for d in config.domains])[dom_idx]
        features = means + noise[:, None] * rng.standard_normal(means.shape)

    names = [d.name for d in config.domains]
    return ([f"syn-{config.seed}-{i:06d}" for i in range(n)], [names[j] for j in dom_idx.tolist()],
            features, np.stack([correct0, correct1], axis=1), np.stack([cost0, cost1], axis=1))


def gen_synthetic(config: ScenarioConfig, apply_shift: bool = False) -> Dataset:
    """Sample a normalized dataset from the scenario mixture.

    Deterministic in config.seed. With apply_shift=True the scenario's
    shift map replaces the mixture weights.
    """
    cfg = config.with_weights(config.shift) if (apply_shift and config.shift) else config
    return Dataset.from_columns(*_gen_columns(cfg))


def scenario_splits(scenario: ScenarioConfig) -> tuple[Dataset, dict[str, Dataset]]:
    """The training split of a scenario and its test splits on the training
    cost scale, so a budget means the same compute on each: ``id_test``
    (seed + 1) and, when the scenario has a shift map, ``ood`` (the shifted
    mixture, seed + 2)."""
    train_split = gen_synthetic(scenario)

    def test_split(seed: int, apply_shift: bool = False) -> Dataset:
        return gen_synthetic(replace(scenario, seed=seed), apply_shift).with_cost_scale(
            train_split.instruct_cost_mean)

    tests = {"id_test": test_split(scenario.seed + 1)}
    if scenario.shift:
        tests["ood"] = test_split(scenario.seed + 2, apply_shift=True)
    return train_split, tests


def shift_scenarios(base: ScenarioConfig, concentration: float = 0.8,
                    n_test: int | None = None):
    """Training split plus OOD splits shifted toward the cheap / expensive domain.

    The OOD splits put `concentration` mass on the domain with the lowest
    (resp. highest) cost-ratio median, scale the remaining domains
    proportionally, and reuse the training normalization constant so the
    budget means the same absolute compute on every split.
    """
    if len(base.domains) < 2:
        raise ValidationError("shift scenarios need at least two domains")
    medians = [d.cost_ratio_median for d in base.domains]
    if len(set(medians)) < 2:
        raise ValidationError("shift scenarios need distinct cost-ratio medians")
    if not 0.0 < concentration < 1.0:
        raise ValidationError("concentration must lie in (0, 1)")
    train_split = gen_synthetic(base)
    n_test = base.n if n_test is None else n_test

    def shifted(target: int, seed: int) -> Dataset:
        weights = base.weights()
        others = weights.sum() - weights[target]
        if others > 0:
            new = weights * (1.0 - concentration) / others
            new[target] = concentration
        else:  # no weight elsewhere: every row is drawn from the target
            new = np.eye(len(weights))[target]
        domains = tuple(replace(d, weight=float(w)) for d, w in zip(base.domains, new))
        cfg = replace(base, domains=domains, shift=None, seed=seed, n=n_test)
        return gen_synthetic(cfg).with_cost_scale(train_split.instruct_cost_mean)

    low = int(np.argmin(medians))
    high = int(np.argmax(medians))
    ood_low = shifted(low, base.seed + 1)
    ood_high = shifted(high, base.seed + 2)
    return train_split, ood_low, ood_high


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def baseline_policy(kind: str, p: float | None = None) -> ConstantPolicy:
    """Constant baselines: never reason, always reason, or reason at rate p."""
    if kind == "all-instruct":
        return ConstantPolicy(0.0)
    if kind == "all-reasoning":
        return ConstantPolicy(1.0)
    if kind == "random":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValidationError(f"random baseline needs p in [0, 1], got {p}")
        return ConstantPolicy(float(p))
    raise ValidationError(f"unknown baseline {kind!r}")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    method: str
    budget: float
    seed: int
    split: str
    metrics: Metrics


@dataclass(frozen=True)
class SweepFailure:
    method: str
    budget: float
    seed: int
    error: str


@dataclass(frozen=True)
class AggregateRow:
    method: str
    budget: float
    split: str
    n: int
    accuracy_mean: float
    accuracy_std: float
    cost_mean: float
    cost_std: float
    reasoning_mean: float
    reasoning_std: float


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]
    failures: tuple[SweepFailure, ...]

    @classmethod
    def of_units(cls, units) -> "SweepResult":
        """The sorted cells and failures of (cells, failures) unit results."""
        cells = sorted((c for got, _ in units for c in got),
                       key=lambda c: (c.method, c.budget, c.seed, c.split))
        failures = sorted((f for _, got in units for f in got),
                          key=lambda f: (f.method, f.budget, f.seed))
        return cls(tuple(cells), tuple(failures))

    def aggregate(self) -> list[AggregateRow]:
        groups: dict[tuple[str, float, str], list[Metrics]] = {}
        for cell in self.cells:
            groups.setdefault((cell.method, cell.budget, cell.split), []).append(cell.metrics)
        rows = []
        for (method, budget, split), ms in sorted(groups.items()):
            columns = np.array([astuple(m) for m in ms]).T  # accuracy, cost, reasoning
            stats = [float(stat(column)) for column in columns for stat in (np.mean, np.std)]
            rows.append(AggregateRow(method, budget, split, len(ms), *stats))
        return rows

    def to_csv(self, path) -> None:
        cells = sorted(self.cells, key=lambda c: (c.method, c.budget, c.seed, c.split))
        write_csv(path, [("method", "budget", "seed", "split", "accuracy", "cost", "reasoning_frac"),
                         *((c.method, c.budget, c.seed, c.split, c.metrics.accuracy,
                            c.metrics.realized_cost, c.metrics.reasoning_fraction)
                           for c in cells)])

    def aggregate_csv(self, path) -> None:
        write_csv(path, [[f.name for f in fields(AggregateRow)], *map(astuple, self.aggregate())])


def sweep_units(budgets: Sequence[float], methods: Sequence[str], repeats: int,
                base_seed: int, tests: Sequence[str] = ()) -> list[tuple[float, int]]:
    """The (budget, seed) units of a sweep, budget-major: ``repeats`` seeds
    from ``base_seed`` at each budget. ValidationError for an empty, unknown
    or out-of-range argument, which would leave no unit able to run, for an
    empty test split name, or for a repeated budget, method or test split
    name (the training split is train)."""
    if not budgets or not methods:
        raise ValidationError("budgets and methods must be non-empty")
    for method in methods:
        if method not in LEARNABLE_METHODS + CONSTANT_METHODS:
            raise ValidationError(f"unknown method {method!r}")
    if not all(budget > 0 for budget in budgets):
        raise ValidationError(f"budgets must be positive, got {list(budgets)}")
    for what, values in (("budget", budgets), ("method", methods),
                         ("split name (the training split is train)", ["train", *tests])):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValidationError(f"repeated {what}: {repeated[0]!r}")
    if "" in tests:
        raise ValidationError("test split names must be non-empty")
    if repeats < 1:
        raise ValidationError(f"repeats must be at least 1, got {repeats}")
    if base_seed < 0:
        raise ValidationError(f"base seed must be non-negative, got {base_seed}")
    return [(float(budget), base_seed + rep) for budget in budgets for rep in range(repeats)]


def split_units(units: Sequence, workers: int) -> list[list]:
    """Split units into at most ``workers`` contiguous, near-equal groups."""
    n_groups = max(1, min(workers, len(units)))
    size, extra = divmod(len(units), n_groups)
    bounds = [g * size + min(g, extra) for g in range(n_groups + 1)]
    return [list(units[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]


def _run_sweep_cell(args):
    """A group of sweep_units' (budget, seed) units: train every learnable
    (method, budget, seed) of the group in one stack, then score each unit.

    Returns one (cells, failures) pair per unit, in order.
    """
    train_data, splits, units, methods, template = args
    learnable = [method for method in methods if method in LEARNABLE_METHODS]
    configs = [replace(template, budget=float(budget), seed=int(seed),
                       robust=replace(template.robust, mode=method))
               for budget, seed in units for method in learnable]
    try:
        outcomes = train(train_data, configs) if configs else []
    except ValueError as exc:  # e.g. too few rows: every replica fails alike
        outcomes = [exc] * len(configs)
    return [_score_unit(splits, budget, seed, methods,
                        dict(zip(learnable, outcomes[u * len(learnable):])))
            for u, (budget, seed) in enumerate(units)]


def _score_unit(splits, budget, seed, methods, outcomes):
    """(cells, failures) of one (budget, seed) unit from each learnable
    method's training outcome, a TrainResult or its error. Each policy is
    scored once per split, random at the racer cell's reasoning fraction."""
    scored = {method: {name: evaluate_policy(outcome.best.policy, split, mode="expected")
                       for name, split in splits.items()}
              for method, outcome in outcomes.items() if isinstance(outcome, TrainResult)}
    failures = [SweepFailure(method, budget, seed, str(outcome))
                for method, outcome in outcomes.items() if method not in scored]
    rates = {name: metrics.reasoning_fraction for name, metrics in scored.get("racer", {}).items()}
    for method in methods:
        if method == "random" and not rates:
            failures.append(SweepFailure(method, budget, seed,
                                         "random baseline needs a paired racer run"))
        elif method in CONSTANT_METHODS:
            scored[method] = {name: evaluate_policy(baseline_policy(method, rates.get(name)),
                                                    split, mode="expected")
                              for name, split in splits.items()}
    cells = [SweepCell(method, budget, seed, name, metrics)
             for method in methods if method in scored for name, metrics in scored[method].items()]
    return cells, failures


def run_units(train_data: Dataset, tests: Mapping[str, Dataset], units: Sequence,
              methods: Sequence[str], template: TrainConfig, workers: int) -> list:
    """One (cells, failures) pair per (budget, seed) unit, in order, each
    unit scored on the training split ``train`` and on the test splits.

    The units are split into ``workers`` contiguous groups, each trained as
    one stack, in its own process when there are several; at most one
    process per usable CPU runs at a time.
    """
    splits = {"train": train_data, **tests}
    for name, split in splits.items():
        if split.n_features != train_data.n_features:
            raise ValidationError(f"split {name!r} has {split.n_features} features, "
                                  f"the training data {train_data.n_features}")
        split.require_finite_cost(f"split {name!r}: ")
    work = [(train_data, splits, group, tuple(methods), template)
            for group in split_units(units, workers)]
    if len(work) > 1:
        with ProcessPoolExecutor(max_workers=min(len(work), usable_cpus())) as pool:
            results = list(pool.map(_run_sweep_cell, work))
    else:
        results = [_run_sweep_cell(w) for w in work]
    return [unit for group in results for unit in group]


def run_sweep(train_data: Dataset, tests: Mapping[str, Dataset],
              budgets: Sequence[float], methods: Sequence[str], repeats: int,
              base_seed: int, template: TrainConfig = DEFAULT_TEMPLATE,
              workers: int = 1) -> SweepResult:
    """Train and evaluate every (budget, seed, method) cell.

    Learnable methods share the template hyperparameters and differ only in
    ablation mode; each random-baseline evaluation is paired to the racer
    run of the same (budget, seed) via its per-split reasoning rate.
    Cells are independent; failures are recorded and the sweep continues.
    ``workers`` is as in ``run_units``.
    """
    units = sweep_units(budgets, methods, repeats, base_seed, list(tests))
    return SweepResult.of_units(run_units(train_data, tests, units, methods, template, workers))
