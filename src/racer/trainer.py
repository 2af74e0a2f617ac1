"""Parametric primal-dual training of the routing policy.

Each mini-batch is scored with both actions enumerated, reweighted by the
batch-mean exponential tilts (reward tilted down, cost tilted up), and the
policy takes one gradient-ascent step on the entropy-regularized Lagrangian
while the budget multiplier takes one projected dual step on the tilt-
weighted cost. Checkpoints are scored on a held-out split and the best
feasible one is returned. Runs that share data and architecture train as
one stack of replicas, so each numpy call advances all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from .core import (
    Dataset,
    FeedForwardPolicy,
    LinearPolicy,
    Metrics,
    ParseError,
    PolicySpec,
    ValidationError,
    decode_field,
    evaluate_policy,
    policy_from_dict,
    policy_to_dict,
    read_json_object,
    sigmoid,
    write_csv,
    write_json,
)
from .reweight import RobustConfig, WeightVector, tilt_weights, uniform_weights
from .saddle import dual_update


class TrainingDivergenceError(RuntimeError):
    """The forward pass or objective became non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    The defaults are the reference configuration: 60 epochs of adaptive-
    moment ascent at learning rate 1e-4 with batch size 64, dual step 1e-3,
    and entropy coefficient 0.005.
    """

    budget: float
    beta: float = 0.005
    robust: RobustConfig = field(default_factory=RobustConfig)
    epochs: int = 60
    batch_size: int = 64
    primal_lr: float = 1e-4
    dual_lr: float = 1e-3
    seed: int = 0
    val_fraction: float = 0.1
    init_bias: float = 0.0
    policy_kind: str = "linear"
    hidden: tuple[int, ...] = (256, 128, 64)
    optimizer: str = "adam"

    def __post_init__(self):
        if not self.budget > 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (self.primal_lr > 0 and self.dual_lr > 0):
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.policy_kind not in ("linear", "feedforward"):
            raise ValueError(f"policy_kind must be linear or feedforward, got {self.policy_kind!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")

    def to_dict(self) -> dict:
        """The fields as JSON values; an infinite tau is the string "inf"."""
        config = asdict(self)
        config["robust"] = {k: "inf" if v == math.inf else v for k, v in config["robust"].items()}
        config["hidden"] = list(self.hidden)
        return config

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class DualState:
    """Budget multiplier and entropy regularization strength."""

    lam: float = 0.0
    beta: float = 0.005


@dataclass(frozen=True)
class Checkpoint:
    epoch: int
    policy: PolicySpec
    metrics: Metrics
    lam: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_reward: float
    train_cost: float
    lam: float
    val_accuracy: float
    val_cost: float
    reasoning_fraction: float
    reward_weight_range: tuple[float, float]
    cost_weight_range: tuple[float, float]


@dataclass(frozen=True)
class TrainResult:
    best: Checkpoint
    history: tuple[EpochRecord, ...]
    checkpoints: tuple[Checkpoint, ...]


# ---------------------------------------------------------------------------
# the objective
# ---------------------------------------------------------------------------

def _params(policy: PolicySpec) -> list[np.ndarray]:
    if isinstance(policy, LinearPolicy):
        return [policy.weights.copy(), np.array([policy.bias])]
    if isinstance(policy, FeedForwardPolicy):
        out = []
        for w, b in zip(policy.weights, policy.biases):
            out.append(w.copy())
            out.append(b.copy())
        return out
    raise TypeError(f"{type(policy).__name__} has no trainable parameters")


def _rebuild(kind: str, params: Sequence[np.ndarray]) -> PolicySpec:
    if kind == "linear":
        return LinearPolicy(params[0].copy(), float(params[1][0]))
    weights = tuple(p.copy() for p in params[0::2])
    biases = tuple(p.copy() for p in params[1::2])
    return FeedForwardPolicy(weights, biases)


# The kernels below work on stacks of R replicas: every parameter has a
# leading replica axis and x has shape (R, B, d), one batch per replica.
# Stacked matmuls and row reductions give each replica bitwise the numbers
# that the same operations give on that replica alone.

def _forward(params: Sequence[np.ndarray], kind: str, x: np.ndarray):
    """Logits (R, B) and the layer inputs that _backward needs."""
    if kind == "linear":
        return (x @ params[0][:, :, None])[..., 0] + params[1], (x,)
    acts = [x]
    h = x
    for w, b in zip(params[0:-2:2], params[1:-2:2]):
        h = np.maximum(h @ w.transpose(0, 2, 1) + b[:, None, :], 0.0)
        acts.append(h)
    u = (h @ params[-2].transpose(0, 2, 1) + params[-1][:, None, :])[..., 0]
    return u, tuple(acts)


def _backward(params: Sequence[np.ndarray], kind: str, acts, gu: np.ndarray):
    if kind == "linear":
        (x,) = acts
        return [(x.transpose(0, 2, 1) @ gu[..., None])[..., 0],
                np.add.reduce(gu, axis=1, keepdims=True)]
    grads: list[np.ndarray | None] = [None] * len(params)
    delta = gu[..., None]  # gradient w.r.t. the final pre-activation, (R, B, 1)
    for i in range(len(params) // 2 - 1, -1, -1):
        grads[2 * i] = delta.transpose(0, 2, 1) @ acts[i]
        grads[2 * i + 1] = np.add.reduce(delta, axis=1)
        if i > 0:
            delta = (delta @ params[2 * i]) * (acts[i] > 0)
    return grads


def _gaps(correct: np.ndarray, cost: np.ndarray):
    """Instruct-action reward and cost, and the reasoning-minus-instruct gaps."""
    r0, c0 = correct[..., 0], cost[..., 0]
    return r0, correct[..., 1] - r0, c0, cost[..., 1] - c0


def _objective(params, kind, acts, u, p, dr, dc, exp_r, exp_c, wr, wc, lam, beta):
    """Per-replica objective values (R,) and their stacked gradients.

    value = mean_i[ wr_i * E_pi[r] - lambda * wc_i * E_pi[c] + beta * H(pi) ]
    Row means are np.add.reduce / n, which is bitwise what ndarray.mean
    computes for float64.
    """
    q = 1.0 - p
    lam_wc = lam[:, None] * wc
    # H(sigma(u)) = p*softplus(-u) + (1-p)*softplus(u), exact 0 at saturation,
    # with softplus(+-u) = log1p(exp(-|u|)) + max(+-u, 0)
    tail = np.log1p(np.exp(-np.abs(u)))
    h = p * (tail + np.maximum(-u, 0.0)) + q * (tail + np.maximum(u, 0.0))
    n = u.shape[1]
    value = np.add.reduce(wr * exp_r - lam_wc * exp_c + beta * h, axis=1) / n
    # d value / d u_i; dH/du = -u * p * (1 - p)
    gu = (wr * dr - lam_wc * dc - beta * u) * p * q / n
    return value, _backward(params, kind, acts, gu)


def batch_objective(policy: PolicySpec, batch: Dataset, weights_r: WeightVector,
                    weights_c: WeightVector, dual: DualState):
    """Reweighted, entropy-regularized batch objective and its gradient.

    value = mean_i[ wr_i * E_pi[r] - lambda * wc_i * E_pi[c] + beta * H(pi) ]
    with the action expectation enumerated exactly. The tilt weights are
    treated as constants: no gradient flows through them.
    """
    wr = weights_r.weights
    wc = weights_c.weights
    if wr.shape[0] != len(batch) or wc.shape[0] != len(batch):
        raise ValueError("weight vectors must align with the batch")
    kind = "linear" if isinstance(policy, LinearPolicy) else "feedforward"
    params = _params(policy)
    return _objective_on_params(
        params, kind, batch.features, batch.correct, batch.cost, wr, wc,
        dual.lam, dual.beta,
    )


def _objective_on_params(params, kind, x, correct, cost, wr, wc, lam, beta):
    """The objective of one policy on one batch: a stack of one replica."""
    stacked = [p[None] for p in params]
    u, acts = _forward(stacked, kind, x[None])
    if not np.all(np.isfinite(u)):
        bad = int(np.argmax(~np.isfinite(u[0])))
        raise TrainingDivergenceError(f"non-finite logit at batch index {bad}")
    p = sigmoid(u)
    r0, dr, c0, dc = _gaps(correct[None], cost[None])
    values, grads = _objective(stacked, kind, acts, u, p, dr, dc, r0 + p * dr, c0 + p * dc,
                               wr[None], wc[None], np.array([lam]), beta)
    value = float(values[0])
    if not math.isfinite(value):
        raise TrainingDivergenceError("non-finite objective value in batch")
    return value, [g[0] for g in grads]


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _flatten(stacked: Sequence[np.ndarray]) -> np.ndarray:
    """Stacked arrays (R, ...) laid end to end as one (R, P) array."""
    return np.concatenate([a.reshape(len(a), -1) for a in stacked], axis=1)


class _Adam:
    """Adaptive-moment ascent on a flat (R, P) parameter array, in place."""

    def __init__(self, flat, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        # moments m, v and two scratch rows a, b
        self.m, self.v, self.a, self.b = (np.zeros_like(flat) for _ in range(4))
        self.t = 0

    def ascend(self, flat, g):
        self.t += 1
        m, v, a, b = self.m, self.v, self.a, self.b
        # m = beta1*m + (1-beta1)*g and v = beta2*v + (1-beta2)*g*g
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(1.0 - self.beta2, g, out=b), g, out=b)
        # flat += lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.multiply(self.lr, np.divide(m, 1.0 - self.beta1**self.t, out=a), out=a)
        np.add(np.sqrt(np.divide(v, 1.0 - self.beta2**self.t, out=b), out=b), self.eps, out=b)
        flat += np.divide(a, b, out=a)

    def keep(self, rows):
        self.m, self.v, self.a, self.b = self.m[rows], self.v[rows], self.a[rows], self.b[rows]


class _Sgd:
    def __init__(self, flat, lr):
        self.lr = lr

    def ascend(self, flat, g):
        flat += self.lr * g

    def keep(self, rows):
        pass


def init_policy(kind: str, dim: int, hidden: Sequence[int],
                rng: np.random.Generator, bias: float = 0.0) -> PolicySpec:
    """Fresh policy: zero-initialized linear, He-initialized network.

    bias shifts the initial logit, e.g. a negative value starts the policy
    near all-instruct so the budget is approached from the feasible side.
    """
    if kind == "linear":
        return LinearPolicy(np.zeros(dim), bias)
    sizes = [dim, *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = math.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
        biases.append(np.zeros(fan_out))
    biases[-1] = biases[-1] + bias
    return FeedForwardPolicy(tuple(weights), tuple(biases))


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

Outcome = Union[TrainResult, TrainingDivergenceError]


def train(data: Dataset,
          config: TrainConfig | Sequence[TrainConfig]) -> TrainResult | list[Outcome]:
    """Run the full primal-dual loop and return the best checkpoint.

    Deterministic in (data, config): splitting, initialization and
    shuffling all derive from config.seed.

    A sequence of configs that differ only in budget, seed and robust
    trains as one stack, each numpy call advancing every replica, and
    returns one outcome per config, in order: its TrainResult, or the
    TrainingDivergenceError that config raises on its own. Each outcome is
    bitwise the solo run's.
    """
    if isinstance(config, TrainConfig):
        (outcome,) = _Stack(data, [config]).run()
        if isinstance(outcome, TrainingDivergenceError):
            raise outcome
        return outcome
    return _Stack(data, list(config)).run()


def _tilt(f: np.ndarray, tau: np.ndarray, direction: str) -> np.ndarray:
    if np.logical_and.reduce(np.isinf(tau)):
        return uniform_weights(f.shape).weights
    return tilt_weights(f, tau, direction).weights


def _batch_means(a: np.ndarray, size: int) -> np.ndarray:
    """Row means of each run of `size` columns, the last run possibly shorter:
    bitwise the means of the batches those columns held."""
    n_rep, n = a.shape
    full = n - n % size
    means = [np.add.reduce(a[:, :full].reshape(n_rep, -1, size), axis=2) / size]
    if full < n:
        means.append(np.add.reduce(a[:, full:], axis=1, keepdims=True) / (n - full))
    return np.concatenate(means, axis=1)


class _Stack:
    """Replicas that share data and architecture, trained in lockstep.

    Axis 0 of every per-replica array is the replica. A replica that
    diverges leaves the stack with its error; the others go on unchanged.
    The parameters of all replicas live in one (R, P) array; the per-layer
    arrays are views of it. Each epoch gathers its shuffled rows once, and
    its batches are slices of them.
    """

    def __init__(self, data: Dataset, configs: list[TrainConfig]):
        if not configs:
            raise ValueError("train needs at least one config")
        lead = configs[0]
        for cfg in configs[1:]:
            if replace(cfg, budget=lead.budget, seed=lead.seed, robust=lead.robust) != lead:
                raise ValueError("stacked configs may differ only in budget, seed and robust")
        n = len(data)
        if n <= lead.batch_size:
            raise ValidationError(
                f"dataset size {n} must exceed batch_size {lead.batch_size}"
            )
        n_val = int(round(lead.val_fraction * n))
        if n_val < 1 or n - n_val <= 0:
            raise ValidationError("validation split is empty")

        self.config, self.kind = lead, lead.policy_kind
        self.features, self.correct, self.cost = data.features, data.correct, data.cost
        self.outcomes: list[Outcome | None] = [None] * len(configs)
        self.histories: list[list[EpochRecord]] = [[] for _ in configs]
        self.checkpoints: list[list[Checkpoint]] = [[] for _ in configs]
        self.configs = configs

        train_idx, self.val_sets, policies, self.shuffle_rngs = [], [], [], []
        for cfg in configs:
            split_rng, init_rng, shuffle_rng = (
                np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
            )
            perm = split_rng.permutation(n)
            train_idx.append(perm[: n - n_val])
            self.val_sets.append(data.subset(perm[n - n_val:]))
            policies.append(init_policy(lead.policy_kind, data.n_features, lead.hidden,
                                        init_rng, bias=lead.init_bias))
            self.shuffle_rngs.append(shuffle_rng)
        self.train_idx = np.stack(train_idx)
        stacked = [np.stack(p) for p in zip(*(_params(p) for p in policies))]
        self.shapes = [p.shape[1:] for p in stacked]
        self.flat = _flatten(stacked)
        self._bind()
        self.opt = (_Adam(self.flat, lead.primal_lr) if lead.optimizer == "adam"
                    else _Sgd(self.flat, lead.primal_lr))
        self.slot = np.arange(len(configs))  # position of each replica in configs
        self.lam = np.zeros(len(configs))
        self.budget = np.array([cfg.budget for cfg in configs])
        self.tau_r = np.array([cfg.robust.effective_tau_reward for cfg in configs])
        self.tau_c = np.array([cfg.robust.effective_tau_cost for cfg in configs])

    def _bind(self) -> None:
        """Point the per-layer parameter arrays at their columns of self.flat."""
        self.params, start = [], 0
        for shape in self.shapes:
            size = math.prod(shape)
            self.params.append(self.flat[:, start:start + size].reshape(-1, *shape))
            start += size

    def run(self) -> list[Outcome]:
        for epoch in range(self.config.epochs):
            if not self.slot.size:
                break
            self._epoch(epoch)
        for slot in self.slot:
            best = select_checkpoint(self.checkpoints[slot], self.configs[slot].budget)
            self.outcomes[slot] = TrainResult(best, tuple(self.histories[slot]),
                                              tuple(self.checkpoints[slot]))
        return self.outcomes

    def _drop(self, failed: dict[int, str]) -> np.ndarray:
        """Record each failed replica's error, remove it, return the kept rows."""
        keep = np.ones(self.slot.size, dtype=bool)
        for k, message in failed.items():
            self.outcomes[self.slot[k]] = TrainingDivergenceError(message)
            keep[k] = False
        self.slot, self.lam, self.budget = self.slot[keep], self.lam[keep], self.budget[keep]
        self.tau_r, self.tau_c = self.tau_r[keep], self.tau_c[keep]
        self.train_idx, self.flat = self.train_idx[keep], self.flat[keep]
        self._bind()
        self.opt.keep(keep)
        self.rows = {name: value[keep] for name, value in self.rows.items()}
        kept = np.flatnonzero(keep)
        self.val_sets = [self.val_sets[k] for k in kept]
        self.shuffle_rngs = [self.shuffle_rngs[k] for k in kept]
        return keep

    def _epoch(self, epoch: int) -> None:
        cfg = self.config
        n_rep, n_train = self.train_idx.shape
        order = np.stack([idx[rng.permutation(n_train)]
                          for idx, rng in zip(self.train_idx, self.shuffle_rngs)])
        r0, dr, c0, dc = _gaps(self.correct.take(order, axis=0),
                               self.cost.take(order, axis=0))
        n_batches = -(-n_train // cfg.batch_size)
        # every replica's training rows in this epoch's order; each batch
        # reads a slice and fills its slice of exp_r, exp_c, w_r and w_c,
        # whose statistics are reduced once the epoch is done
        self.rows = {
            "x": self.features.take(order, axis=0), "r0": r0, "dr": dr, "c0": c0, "dc": dc,
            "exp_r": np.empty((n_rep, n_train)), "exp_c": np.empty((n_rep, n_train)),
            "w_r": np.empty((n_rep, n_train)), "w_c": np.empty((n_rep, n_train)),
        }
        for b in range(n_batches):
            self._batch(epoch, b)
            if not self.slot.size:
                return
        rows = self.rows
        # the running sum of per-batch means, in batch order
        train_reward = np.cumsum(_batch_means(rows["exp_r"], cfg.batch_size), axis=1)[:, -1]
        train_cost = np.cumsum(_batch_means(rows["exp_c"], cfg.batch_size), axis=1)[:, -1]
        wr_lo, wc_lo = (np.minimum.reduce(rows[w], axis=1) for w in ("w_r", "w_c"))
        wr_hi, wc_hi = (np.maximum.reduce(rows[w], axis=1) for w in ("w_r", "w_c"))

        for k, slot in enumerate(self.slot):
            snapshot = _rebuild(self.kind, [p[k] for p in self.params])
            val_metrics = evaluate_policy(snapshot, self.val_sets[k], mode="expected")
            lam = float(self.lam[k])
            self.checkpoints[slot].append(Checkpoint(epoch, snapshot, val_metrics, lam))
            self.histories[slot].append(EpochRecord(
                epoch=epoch,
                train_reward=float(train_reward[k] / n_batches),
                train_cost=float(train_cost[k] / n_batches),
                lam=lam,
                val_accuracy=val_metrics.accuracy,
                val_cost=val_metrics.realized_cost,
                reasoning_fraction=val_metrics.reasoning_fraction,
                reward_weight_range=(float(wr_lo[k]), float(wr_hi[k])),
                cost_weight_range=(float(wc_lo[k]), float(wc_hi[k])),
            ))

    def _batch(self, epoch: int, b: int) -> None:
        cfg = self.config
        cut = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)

        # step 1: per-instance reward/cost summaries under the current policy
        u, acts = _forward(self.params, self.kind, self.rows["x"][:, cut])
        finite = np.logical_and.reduce(np.isfinite(u), axis=1)
        if not np.logical_and.reduce(finite):
            keep = self._drop({k: f"non-finite logit in epoch {epoch} batch {b}"
                               for k in np.flatnonzero(~finite)})
            if not self.slot.size:
                return
            u, acts = u[keep], tuple(a[keep] for a in acts)
        rows = self.rows
        dr, c0, dc = rows["dr"][:, cut], rows["c0"][:, cut], rows["dc"][:, cut]
        p = sigmoid(u)
        exp_r = np.add(rows["r0"][:, cut], p * dr, out=rows["exp_r"][:, cut])
        exp_c = np.add(c0, p * dc, out=rows["exp_c"][:, cut])

        # step 2: adversarial tilts (uniform where tau = inf)
        w_r = rows["w_r"][:, cut] = _tilt(exp_r, self.tau_r, "worst_low")
        w_c = rows["w_c"][:, cut] = _tilt(exp_c, self.tau_c, "worst_high")

        # step 3: one ascent step on the reweighted objective; the parameters
        # are those of step 1, so its logits and probabilities are reused
        value, grads = _objective(self.params, self.kind, acts, u, p, dr, dc,
                                  exp_r, exp_c, w_r, w_c, self.lam, cfg.beta)
        self.opt.ascend(self.flat, _flatten(grads))

        # step 4: projected dual step on the tilt-weighted cost of the
        # updated policy
        u_new, _ = _forward(self.params, self.kind, acts[0])
        p_new = sigmoid(u_new)
        weighted_cost = np.add.reduce(w_c * (c0 + p_new * dc), axis=1) / u.shape[1]
        self.lam = dual_update(self.lam, cfg.dual_lr, weighted_cost, self.budget, cfg.beta)

        # checked last: a failed replica leaves the stack here and what it
        # computed after its failure goes with it, so its outcome is the
        # error its solo run raises at this point
        ok = np.isfinite(value) & np.logical_and.reduce(np.isfinite(u_new), axis=1)
        if not np.logical_and.reduce(ok):
            where = f"epoch {epoch} batch {b}"
            self._drop({k: (f"non-finite objective value in {where}"
                            if not math.isfinite(value[k])
                            else f"non-finite logit after update in {where}")
                        for k in np.flatnonzero(~ok)})


def select_checkpoint(checkpoints: Sequence[Checkpoint], budget: float) -> Checkpoint:
    """Highest validation accuracy among budget-feasible checkpoints.

    If no checkpoint is feasible, the one with validation cost closest to
    the budget wins (ties: higher accuracy, then later epoch).
    """
    if not checkpoints:
        raise ValueError("no checkpoints to select from")
    feasible = [c for c in checkpoints if c.metrics.realized_cost <= budget]
    if feasible:
        return max(feasible, key=lambda c: (c.metrics.accuracy, c.epoch))
    return max(checkpoints,
               key=lambda c: (-abs(c.metrics.realized_cost - budget),
                              c.metrics.accuracy, c.epoch))


def history_to_csv(history: Sequence[EpochRecord], path) -> None:
    """Spec columns only: epoch, reward, cost, lambda and validation metrics."""
    write_csv(path, [("epoch", "train_reward", "train_cost", "lambda", "val_acc", "val_cost",
                      "reasoning_frac"),
                     *((rec.epoch, rec.train_reward, rec.train_cost, rec.lam, rec.val_accuracy,
                        rec.val_cost, rec.reasoning_fraction) for rec in history)])


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

_MODEL_FORMAT = "racer-model-v1"


def save_model(path, policy: PolicySpec, instruct_cost_mean: float,
               config: TrainConfig | None = None) -> None:
    """Versioned JSON serialization; floats keep full round-trip precision."""
    payload = {
        "format": _MODEL_FORMAT,
        "policy": policy_to_dict(policy),
        "instruct_cost_mean": float(instruct_cost_mean),
        "config": config.to_dict() if config is not None else None,
        "config_digest": config.digest() if config is not None else None,
    }
    write_json(path, payload)


def load_model(path) -> tuple[PolicySpec, float, dict]:
    """(policy, instruct_cost_mean, payload) of a model file; ParseError
    unless it decodes to a well-formed model."""
    payload = read_json_object(path, "model file")
    if payload.get("format") != _MODEL_FORMAT:
        raise ValidationError(f"unsupported model format {payload.get('format')!r}")
    where = f"model file {path}: "
    if "policy" not in payload:
        raise ParseError(f"{where}missing field 'policy'")
    return (policy_from_dict(payload["policy"], f"{where}policy: "),
            decode_field(payload, "instruct_cost_mean", float, where), payload)
