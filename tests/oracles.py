"""Independent oracles used to validate the library's analytic paths.

These deliberately avoid the closed forms under test: the worst-case
expectation over the KL ball is found by lattice enumeration (with local
refinement), the binary tilt by bisection on the entropy equation, and
derivatives by central finite differences.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from racer.core import ParseError, ValidationError, evaluate_policy, sigmoid
from racer.saddle import dual_update
from racer.trainer import (
    Checkpoint,
    EpochRecord,
    TrainingDivergenceError,
    TrainResult,
    _params,
    _rebuild,
    init_policy,
    select_checkpoint,
)


def _kl_rows(q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log(q / rho), 0.0)
    return terms.sum(axis=1)


def _lattice(axes) -> np.ndarray:
    """All simplex points whose first n-1 coordinates lie on the given axes."""
    grids = np.meshgrid(*axes, indexing="ij")
    head = np.stack([g.ravel() for g in grids], axis=1)
    last = 1.0 - head.sum(axis=1)
    ok = last >= -1e-12
    pts = np.concatenate([head[ok], np.clip(last[ok], 0.0, None)[:, None]], axis=1)
    return pts


def grid_worst_case(values, rho, delta, direction, coarse=None, box_points=17,
                    min_half=2e-5):
    """Worst-case expectation of f over the KL ball by dense lattice search.

    A global lattice pass seeds a pattern search: local lattices recenter on
    the incumbent while they improve it and halve their extent when they
    stop, down to `min_half`. The objective is linear on a convex feasible
    set, so recentring cannot lose the optimum; staying at a scale while it
    pays lets the search crawl along near-flat stretches of the KL boundary.
    Returns (expectation, distribution).
    """
    f = np.asarray(values, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = f.size
    if coarse is None:
        coarse = {2: 0.002, 3: 0.005, 4: 0.04, 5: 0.0625}[n]
    sign = 1.0 if direction == "worst_high" else -1.0

    def best_of(points):
        feasible = points[_kl_rows(points, rho) <= delta]
        if feasible.size == 0:
            return None, -math.inf
        scores = sign * (feasible @ f)
        k = int(np.argmax(scores))
        return feasible[k], scores[k]

    # global pass; rho itself is always feasible (KL = 0)
    axes = [np.arange(0.0, 1.0 + coarse / 2, coarse)] * (n - 1)
    incumbent, score = best_of(_lattice(axes))
    if incumbent is None or sign * (rho @ f) > score:
        incumbent, score = rho, sign * (rho @ f)

    half = 3.0 * coarse
    while half >= min_half:
        axes = [
            np.linspace(max(0.0, c - half), min(1.0, c + half), box_points)
            for c in incumbent[:-1]
        ]
        cand, cand_score = best_of(_lattice(axes))
        if cand is not None and cand_score > score + 1e-13:
            incumbent, score = cand, cand_score
        else:
            half /= 2.0
    return sign * score, incumbent


def binary_tilt_oracle(delta: float) -> tuple[float, float]:
    """Worst-high mass p for f=[0,1], rho=[1/2,1/2]: solve log2 - H(p) = delta.

    Returns (p_star, tau_star) with tau_star from the density-ratio identity
    p/(1-p) = exp(1/tau).
    """

    def gap(p):
        h = -p * math.log(p) - (1 - p) * math.log(1 - p)
        return math.log(2.0) - h - delta

    lo, hi = 0.5, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    tau = 1.0 / math.log(p / (1.0 - p))
    return p, tau


def central_difference(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def finite_diff_gradient(fn, params, h=1e-5):
    """Central-difference gradient of a scalar function of a parameter list."""
    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = fn(params)
            p[idx] = orig - h
            down = fn(params)
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def sign_test_pvalue(wins: int, losses: int) -> float:
    """One-sided exact binomial sign test: P(X >= wins | n, 1/2)."""
    n = wins + losses
    total = 0.0
    for k in range(wins, n + 1):
        total += math.comb(n, k)
    return total / 2.0**n


# Reference saddle kernels: the closed-form softmax written over the action
# axis of (n, 2) arrays, and the primal-dual loop that stores every policy.
# The library computes the same quantities column by column; tests hold the
# two bitwise equal.

def _saddle_logits(problem, lam):
    return (problem.w1[:, None] * problem.reward
            - lam * problem.w2[:, None] * problem.cost) / problem.beta


def saddle_policy_matrix(problem, lam):
    logits = _saddle_logits(problem, lam)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def saddle_dual_function(problem, lam):
    logits = _saddle_logits(problem, lam)
    m = logits.max(axis=1)
    log_q = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    d = problem.beta * float(np.sum(problem.rho * log_q)) \
        + lam * problem.budget + 0.5 * problem.beta * lam**2
    pi = saddle_policy_matrix(problem, lam)
    mean_c = np.sum(pi * problem.cost, axis=1)
    var_c = pi[:, 0] * pi[:, 1] * (problem.cost[:, 1] - problem.cost[:, 0]) ** 2
    d1 = -float(np.sum(problem.rho * problem.w2 * mean_c)) \
        + problem.budget + problem.beta * lam
    d2 = problem.beta + float(np.sum(problem.rho * problem.w2**2 * var_c)) / problem.beta
    return d, d1, d2


def saddle_policy_kl(problem, pi, pi_ref):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pi > 0, pi * (np.log(pi) - np.log(pi_ref)), 0.0)
    return float(np.sum(problem.rho * terms.sum(axis=1)))


def saddle_iterate(problem, lambda0, iterations, eta, pi_star):
    """(lambdas, policies, kls) of the exact primal-dual iteration."""
    lambdas = np.empty(iterations + 1)
    kls = np.empty(iterations + 1)
    policies = np.empty((iterations + 1, problem.n_contexts, 2))
    lam = float(lambda0)
    for t in range(iterations + 1):
        pi = saddle_policy_matrix(problem, lam)
        lambdas[t] = lam
        policies[t] = pi
        kls[t] = saddle_policy_kl(problem, pi, pi_star)
        if t == iterations:
            break
        weighted_cost = float(np.sum(problem.rho * problem.w2
                                     * np.sum(pi * problem.cost, axis=1)))
        lam = np.maximum(0.0, lam + eta * (weighted_cost - problem.budget - problem.beta * lam))
    return lambdas, policies, kls


# Reference data path: one frozen Instance per row, as the library built,
# read and wrote datasets before they became columnar. Flags go through
# int(), so a non-integral flag is truncated here (the library rejects it).
# Tests hold the columnar generator, loaders and writers bitwise equal to
# these on every input both accept.

@dataclass(frozen=True)
class RowInstance:
    id: str
    features: np.ndarray
    correct: tuple
    cost_raw: tuple
    tag: object = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 1:
            raise ValidationError(f"instance {self.id!r}: features must be a 1-d vector")
        if not np.all(np.isfinite(feats)):
            raise ValidationError(f"instance {self.id!r}: non-finite feature value")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        correct = (int(self.correct[0]), int(self.correct[1]))
        if any(c not in (0, 1) for c in correct):
            raise ValidationError(f"instance {self.id!r}: correct flags must be 0 or 1")
        object.__setattr__(self, "correct", correct)
        cost = (float(self.cost_raw[0]), float(self.cost_raw[1]))
        if not all(math.isfinite(c) and c > 0 for c in cost):
            raise ValidationError(f"instance {self.id!r}: costs must be positive and finite")
        object.__setattr__(self, "cost_raw", cost)


def row_columns(instances, instruct_cost_mean=None) -> dict:
    """The columns a per-row Dataset built from instances."""
    instances = tuple(instances)
    if not instances:
        raise ValidationError("dataset is empty")
    dim = instances[0].features.shape[0]
    for inst in instances:
        if inst.features.shape[0] != dim:
            raise ValidationError(
                f"instance {inst.id!r}: feature dimension {inst.features.shape[0]} != {dim}")
    cols = {
        "ids": tuple(inst.id for inst in instances),
        "tags": tuple(inst.tag for inst in instances),
        "features": np.stack([inst.features for inst in instances]),
        "correct": np.array([inst.correct for inst in instances], dtype=np.float64),
        "cost_raw": np.array([inst.cost_raw for inst in instances], dtype=np.float64),
    }
    if instruct_cost_mean is None:
        instruct_cost_mean = float(np.mean(cols["cost_raw"][:, 0]))
    if not (math.isfinite(instruct_cost_mean) and instruct_cost_mean > 0):
        raise ValidationError("instruct_cost_mean must be positive and finite")
    cols["instruct_cost_mean"] = float(instruct_cost_mean)
    cols["cost"] = cols["cost_raw"] / cols["instruct_cost_mean"]
    return cols


def row_gen_instances(config, weights, seed, n) -> list:
    rng = np.random.default_rng(seed)
    k = len(config.domains)
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
    base_medians = np.array([d.instruct_cost_median for d in config.domains])[dom_idx]
    cost0 = base_medians * np.exp(rng.normal(0.0, config.instruct_cost_sigma, size=n))
    medians = np.array([d.cost_ratio_median for d in config.domains])[dom_idx]
    sigmas = np.array([d.cost_ratio_sigma for d in config.domains])[dom_idx]
    ratio = medians * np.exp(sigmas * rng.standard_normal(n))
    cost1 = cost0 * ratio
    means = np.array([d.feature_mean for d in config.domains])[dom_idx]
    noise = np.array([d.feature_noise for d in config.domains])[dom_idx]
    features = means + noise[:, None] * rng.standard_normal(means.shape)
    return [
        RowInstance(
            id=f"syn-{seed}-{i:06d}",
            features=features[i],
            correct=(int(correct0[i]), int(correct1[i])),
            cost_raw=(float(cost0[i]), float(cost1[i])),
            tag=config.domains[dom_idx[i]].name,
        )
        for i in range(n)
    ]


def row_gen_synthetic(config, apply_shift=False) -> dict:
    cfg = config.with_weights(config.shift) if (apply_shift and config.shift) else config
    return row_columns(row_gen_instances(cfg, cfg.weights(), cfg.seed, cfg.n))


def row_shift_scenarios(base, concentration=0.8, n_test=None):
    train_split = row_gen_synthetic(base)
    n_test = base.n if n_test is None else n_test
    medians = [d.cost_ratio_median for d in base.domains]

    def shifted(target, seed):
        weights = np.array([d.weight for d in base.domains])
        others = weights.sum() - weights[target]
        new = weights * (1.0 - concentration) / others if others > 0 else weights * 0.0
        new[target] = concentration
        return row_columns(row_gen_instances(base, new, seed, n_test),
                           instruct_cost_mean=train_split["instruct_cost_mean"])

    return (train_split, shifted(int(np.argmin(medians)), base.seed + 1),
            shifted(int(np.argmax(medians)), base.seed + 2))


_ROW_FIELDS = ("id", "features", "correct_0", "correct_1", "cost_0", "cost_1")


def _row_from_record(record, where):
    for field in _ROW_FIELDS:
        if field not in record:
            raise ParseError(f"{where}: missing field {field!r}")
    return RowInstance(
        id=str(record["id"]),
        features=np.asarray(record["features"], dtype=np.float64),
        correct=(record["correct_0"], record["correct_1"]),
        cost_raw=(record["cost_0"], record["cost_1"]),
        tag=record.get("tag"),
    )


def row_load(path, format) -> dict:
    """Columns of a JSONL or CSV file read record by record."""
    instances = []
    if format == "jsonl":
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from None
                if not isinstance(record, dict):
                    raise ParseError(f"line {lineno}: record is not an object")
                instances.append(_row_from_record(record, f"line {lineno}"))
        return row_columns(instances)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("line 1: missing CSV header")
        feat_cols = sorted((c for c in reader.fieldnames if c.startswith("feat_")),
                           key=lambda c: int(c.split("_", 1)[1]))
        if not feat_cols:
            raise ParseError("line 1: no feat_* columns in header")
        for row in reader:
            where = f"line {reader.line_num}"
            try:
                record = {
                    "id": row["id"],
                    "features": [float(row[c]) for c in feat_cols],
                    "correct_0": int(row["correct_0"]),
                    "correct_1": int(row["correct_1"]),
                    "cost_0": float(row["cost_0"]),
                    "cost_1": float(row["cost_1"]),
                    "tag": row.get("tag") or None,
                }
            except (KeyError, TypeError) as exc:
                raise ParseError(f"{where}: missing field ({exc})") from None
            except ValueError as exc:
                raise ParseError(f"{where}: bad value ({exc})") from None
            instances.append(_row_from_record(record, where))
    return row_columns(instances)


def row_save(instances, path, format) -> None:
    """Write instances record by record: json.dumps per JSONL line."""
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for inst in instances:
                record = {
                    "id": inst.id,
                    "features": list(inst.features),
                    "correct_0": inst.correct[0],
                    "correct_1": inst.correct[1],
                    "cost_0": inst.cost_raw[0],
                    "cost_1": inst.cost_raw[1],
                }
                if inst.tag is not None:
                    record["tag"] = inst.tag
                fh.write(json.dumps(record) + "\n")
        return
    d = instances[0].features.shape[0]
    header = ["id"] + [f"feat_{j}" for j in range(d)] + [
        "correct_0", "correct_1", "cost_0", "cost_1", "tag"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for inst in instances:
            writer.writerow(
                [inst.id]
                + [repr(v) for v in inst.features.tolist()]
                + [inst.correct[0], inst.correct[1],
                   repr(inst.cost_raw[0]), repr(inst.cost_raw[1]),
                   inst.tag or ""]
            )


# Reference trainer step: the stacked primal-dual trainer as it ran with a
# fancy-index gather per batch (features[idx], correct[idx], cost[idx]), one
# Adam update per parameter array, numpy's mean/max/all wrappers and running
# per-batch sums of the epoch statistics. Tests hold `racer.trainer.train`
# bitwise equal to `stack_train` on every config group.

def row_tilt_weights(values, tau, direction):
    """Batch-mean tilt of a vector (finite tau) or of each row of a 2-d
    array (tau per row or one for all); returns (weights, anchors)."""
    f = np.asarray(values, dtype=np.float64)
    t = tau if f.ndim == 1 else np.asarray(tau, dtype=np.float64).reshape(-1, 1)
    mean = f.mean(axis=-1, keepdims=True)
    s = (mean - f) / t if direction == "worst_low" else (f - mean) / t
    w = np.exp(s - s.max(axis=-1, keepdims=True))
    w /= w.mean(axis=-1, keepdims=True)
    return w, mean[..., 0]


def _ref_softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _ref_forward(params, kind, x):
    if kind == "linear":
        return (x @ params[0][:, :, None])[..., 0] + params[1], (x,)
    acts = [x]
    h = x
    for w, b in zip(params[0:-2:2], params[1:-2:2]):
        h = np.maximum(h @ w.transpose(0, 2, 1) + b[:, None, :], 0.0)
        acts.append(h)
    u = (h @ params[-2].transpose(0, 2, 1) + params[-1][:, None, :])[..., 0]
    return u, tuple(acts)


def _ref_backward(params, kind, acts, gu):
    if kind == "linear":
        (x,) = acts
        return [(x.transpose(0, 2, 1) @ gu[..., None])[..., 0],
                gu.sum(axis=1, keepdims=True)]
    grads = [None] * len(params)
    delta = gu[..., None]
    for i in range(len(params) // 2 - 1, -1, -1):
        grads[2 * i] = delta.transpose(0, 2, 1) @ acts[i]
        grads[2 * i + 1] = delta.sum(axis=1)
        if i > 0:
            delta = (delta @ params[2 * i]) * (acts[i] > 0)
    return grads


def _ref_objective(params, kind, acts, u, p, dr, dc, exp_r, exp_c, wr, wc, lam, beta):
    lam = lam[:, None]
    entropy = p * _ref_softplus(-u) + (1.0 - p) * _ref_softplus(u)
    value = np.mean(wr * exp_r - lam * wc * exp_c + beta * entropy, axis=1)
    gu = (wr * dr - lam * wc * dc - beta * u) * p * (1.0 - p) / u.shape[1]
    return value, _ref_backward(params, kind, acts, gu)


class _RefAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def ascend(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for i, g in enumerate(grads):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            params[i] += self.lr * (self.m[i] / b1t) / (np.sqrt(self.v[i] / b2t) + self.eps)

    def keep(self, rows):
        self.m = [m[rows] for m in self.m]
        self.v = [v[rows] for v in self.v]


class _RefSgd:
    def __init__(self, params, lr):
        self.lr = lr

    def ascend(self, params, grads):
        for i, g in enumerate(grads):
            params[i] += self.lr * g

    def keep(self, rows):
        pass


def _ref_tilt(f, tau, direction):
    if np.isinf(tau).all():
        return np.ones(f.shape)
    return row_tilt_weights(f, tau, direction)[0]


def stack_train(data, configs):
    """One outcome per config, in order: its TrainResult or the
    TrainingDivergenceError it raises; configs differ only in budget, seed
    and robust."""
    return _RefStack(data, list(configs)).run()


class _RefStack:
    def __init__(self, data, configs):
        lead = configs[0]
        n = len(data)
        n_val = int(round(lead.val_fraction * n))
        self.config, self.kind = lead, lead.policy_kind
        self.features, self.correct, self.cost = data.features, data.correct, data.cost
        self.outcomes = [None] * len(configs)
        self.histories = [[] for _ in configs]
        self.checkpoints = [[] for _ in configs]
        self.configs = configs
        train_idx, self.val_sets, policies = [], [], []
        self.shuffle_rngs = []
        for cfg in configs:
            # four children, of which the library spawns the first three:
            # spawn(3) must hand out bitwise these generators
            split_rng, init_rng, shuffle_rng, _ = (
                np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(4)
            )
            perm = split_rng.permutation(n)
            train_idx.append(perm[: n - n_val])
            self.val_sets.append(data.subset(perm[n - n_val:]))
            policies.append(init_policy(lead.policy_kind, data.n_features, lead.hidden,
                                        init_rng, bias=lead.init_bias))
            self.shuffle_rngs.append(shuffle_rng)
        self.train_idx = np.stack(train_idx)
        self.params = [np.stack(p) for p in zip(*(_params(p) for p in policies))]
        self.opt = (_RefAdam(self.params, lead.primal_lr) if lead.optimizer == "adam"
                    else _RefSgd(self.params, lead.primal_lr))
        self.slot = np.arange(len(configs))
        self.lam = np.zeros(len(configs))
        self.budget = np.array([cfg.budget for cfg in configs])
        self.tau_r = np.array([cfg.robust.effective_tau_reward for cfg in configs])
        self.tau_c = np.array([cfg.robust.effective_tau_cost for cfg in configs])

    def run(self):
        for epoch in range(self.config.epochs):
            if not self.slot.size:
                break
            self._epoch(epoch)
        for slot in self.slot:
            best = select_checkpoint(self.checkpoints[slot], self.configs[slot].budget)
            self.outcomes[slot] = TrainResult(best, tuple(self.histories[slot]),
                                              tuple(self.checkpoints[slot]))
        return self.outcomes

    def _drop(self, failed):
        keep = np.ones(self.slot.size, dtype=bool)
        for k, message in failed.items():
            self.outcomes[self.slot[k]] = TrainingDivergenceError(message)
            keep[k] = False
        self.slot, self.lam, self.budget = self.slot[keep], self.lam[keep], self.budget[keep]
        self.tau_r, self.tau_c = self.tau_r[keep], self.tau_c[keep]
        self.train_idx, self.order = self.train_idx[keep], self.order[keep]
        self.params = [p[keep] for p in self.params]
        self.opt.keep(keep)
        self.stats = {name: value[keep] for name, value in self.stats.items()}
        kept = np.flatnonzero(keep)
        for name in ("val_sets", "shuffle_rngs"):
            setattr(self, name, [getattr(self, name)[k] for k in kept])
        return keep

    def _epoch(self, epoch):
        cfg = self.config
        n_train = self.train_idx.shape[1]
        self.order = np.stack([idx[rng.permutation(n_train)]
                               for idx, rng in zip(self.train_idx, self.shuffle_rngs)])
        n_batches = -(-n_train // cfg.batch_size)
        n_rep = self.slot.size
        self.stats = {
            "reward_sum": np.zeros(n_rep), "cost_sum": np.zeros(n_rep),
            "wr_lo": np.full(n_rep, math.inf), "wr_hi": np.full(n_rep, -math.inf),
            "wc_lo": np.full(n_rep, math.inf), "wc_hi": np.full(n_rep, -math.inf),
        }
        for b in range(n_batches):
            self._batch(f"epoch {epoch} batch {b}", b)
            if not self.slot.size:
                return
        st = self.stats
        for k, slot in enumerate(self.slot):
            snapshot = _rebuild(self.kind, [p[k] for p in self.params])
            val_metrics = evaluate_policy(snapshot, self.val_sets[k], mode="expected")
            lam = float(self.lam[k])
            self.checkpoints[slot].append(Checkpoint(epoch, snapshot, val_metrics, lam))
            self.histories[slot].append(EpochRecord(
                epoch=epoch,
                train_reward=float(st["reward_sum"][k] / n_batches),
                train_cost=float(st["cost_sum"][k] / n_batches),
                lam=lam,
                val_accuracy=val_metrics.accuracy,
                val_cost=val_metrics.realized_cost,
                reasoning_fraction=val_metrics.reasoning_fraction,
                reward_weight_range=(float(st["wr_lo"][k]), float(st["wr_hi"][k])),
                cost_weight_range=(float(st["wc_lo"][k]), float(st["wc_hi"][k])),
            ))

    def _batch(self, where, b):
        cfg = self.config
        idx = self.order[:, b * cfg.batch_size: (b + 1) * cfg.batch_size]
        u, acts = _ref_forward(self.params, self.kind, self.features[idx])
        finite = np.isfinite(u).all(axis=1)
        if not finite.all():
            keep = self._drop({k: f"non-finite logit in {where}"
                               for k in np.flatnonzero(~finite)})
            if not self.slot.size:
                return
            idx, u, acts = idx[keep], u[keep], tuple(a[keep] for a in acts)
        x, r, c = acts[0], self.correct[idx], self.cost[idx]
        p = sigmoid(u)
        dr = r[..., 1] - r[..., 0]
        dc = c[..., 1] - c[..., 0]
        exp_r, exp_c = r[..., 0] + p * dr, c[..., 0] + p * dc
        w_r = _ref_tilt(exp_r, self.tau_r, "worst_low")
        w_c = _ref_tilt(exp_c, self.tau_c, "worst_high")
        st = self.stats
        st["wr_lo"] = np.minimum(st["wr_lo"], w_r.min(axis=1))
        st["wr_hi"] = np.maximum(st["wr_hi"], w_r.max(axis=1))
        st["wc_lo"] = np.minimum(st["wc_lo"], w_c.min(axis=1))
        st["wc_hi"] = np.maximum(st["wc_hi"], w_c.max(axis=1))
        value, grads = _ref_objective(self.params, self.kind, acts, u, p, dr, dc,
                                      exp_r, exp_c, w_r, w_c, self.lam, cfg.beta)
        self.opt.ascend(self.params, grads)
        u_new, _ = _ref_forward(self.params, self.kind, x)
        p_new = sigmoid(u_new)
        weighted_cost = np.mean(w_c * (c[..., 0] + p_new * dc), axis=1)
        self.lam = dual_update(self.lam, cfg.dual_lr, weighted_cost, self.budget, cfg.beta)
        st["reward_sum"] += exp_r.mean(axis=1)
        st["cost_sum"] += exp_c.mean(axis=1)
        value_ok, logit_ok = np.isfinite(value), np.isfinite(u_new).all(axis=1)
        if not (value_ok.all() and logit_ok.all()):
            self._drop({k: (f"non-finite objective value in {where}" if not value_ok[k]
                            else f"non-finite logit after update in {where}")
                        for k in np.flatnonzero(~(value_ok & logit_ok))})
