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
from dataclasses import dataclass, field, replace
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
    atomic_open,
    evaluate_policy,
    policy_from_dict,
    policy_to_dict,
    sigmoid,
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
    lambda_init: float = 0.0
    init_bias: float = 0.0
    policy_kind: str = "linear"
    hidden: tuple[int, ...] = (256, 128, 64)
    optimizer: str = "adam"
    sample_weight_inputs: bool = False
    dual_update_per_epoch: bool = False

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
        if self.lambda_init < 0:
            raise ValueError("lambda_init must be non-negative")
        if self.policy_kind not in ("linear", "feedforward"):
            raise ValueError(f"policy_kind must be linear or feedforward, got {self.policy_kind!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    def to_dict(self) -> dict:
        def num(x):
            return "inf" if isinstance(x, float) and math.isinf(x) else x

        return {
            "budget": self.budget,
            "beta": self.beta,
            "robust": {
                "tau_reward": num(self.robust.tau_reward),
                "tau_cost": num(self.robust.tau_cost),
                "delta": self.robust.delta,
                "mode": self.robust.mode,
            },
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "primal_lr": self.primal_lr,
            "dual_lr": self.dual_lr,
            "seed": self.seed,
            "val_fraction": self.val_fraction,
            "lambda_init": self.lambda_init,
            "init_bias": self.init_bias,
            "policy_kind": self.policy_kind,
            "hidden": list(self.hidden),
            "optimizer": self.optimizer,
            "sample_weight_inputs": self.sample_weight_inputs,
            "dual_update_per_epoch": self.dual_update_per_epoch,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def config_from_dict(payload: dict) -> TrainConfig:
    def num(x):
        return math.inf if x == "inf" else x

    robust = payload.get("robust", {})
    return TrainConfig(
        budget=payload["budget"],
        beta=payload.get("beta", 0.005),
        robust=RobustConfig(
            tau_reward=num(robust.get("tau_reward", math.inf)),
            tau_cost=num(robust.get("tau_cost", math.inf)),
            delta=robust.get("delta"),
            mode=robust.get("mode", "racer"),
        ),
        epochs=payload.get("epochs", 60),
        batch_size=payload.get("batch_size", 64),
        primal_lr=payload.get("primal_lr", 1e-4),
        dual_lr=payload.get("dual_lr", 1e-3),
        seed=payload.get("seed", 0),
        val_fraction=payload.get("val_fraction", 0.1),
        lambda_init=payload.get("lambda_init", 0.0),
        init_bias=payload.get("init_bias", 0.0),
        policy_kind=payload.get("policy_kind", "linear"),
        hidden=tuple(payload.get("hidden", (256, 128, 64))),
        optimizer=payload.get("optimizer", "adam"),
        sample_weight_inputs=payload.get("sample_weight_inputs", False),
        dual_update_per_epoch=payload.get("dual_update_per_epoch", False),
    )


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
# entropy and the objective
# ---------------------------------------------------------------------------

def entropy(p: float) -> float:
    """Binary entropy -p log p - (1-p) log(1-p) in nats, 0 at the boundary."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log(1.0 - p))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _entropy_from_logits(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    # H(sigma(u)) = p*softplus(-u) + (1-p)*softplus(u); exact 0 at saturation
    return p * _softplus(-u) + (1.0 - p) * _softplus(u)


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
                gu.sum(axis=1, keepdims=True)]
    grads: list[np.ndarray | None] = [None] * len(params)
    delta = gu[..., None]  # gradient w.r.t. the final pre-activation, (R, B, 1)
    for i in range(len(params) // 2 - 1, -1, -1):
        grads[2 * i] = delta.transpose(0, 2, 1) @ acts[i]
        grads[2 * i + 1] = delta.sum(axis=1)
        if i > 0:
            delta = (delta @ params[2 * i]) * (acts[i] > 0)
    return grads


def _expectations(correct: np.ndarray, cost: np.ndarray, p: np.ndarray):
    """Action gaps and policy-expected reward and cost per instance."""
    dr = correct[..., 1] - correct[..., 0]
    dc = cost[..., 1] - cost[..., 0]
    return dr, dc, correct[..., 0] + p * dr, cost[..., 0] + p * dc


def _objective(params, kind, acts, u, p, dr, dc, exp_r, exp_c, wr, wc, lam, beta):
    """Per-replica objective values (R,) and their stacked gradients.

    value = mean_i[ wr_i * E_pi[r] - lambda * wc_i * E_pi[c] + beta * H(pi) ]
    """
    lam = lam[:, None]
    value = np.mean(wr * exp_r - lam * wc * exp_c + beta * _entropy_from_logits(u, p),
                    axis=1)
    # d value / d u_i; dH/du = -u * p * (1 - p)
    gu = (wr * dr - lam * wc * dc - beta * u) * p * (1.0 - p) / u.shape[1]
    return value, _backward(params, kind, acts, gu)


def _policy_kind(policy: PolicySpec) -> str:
    return "linear" if isinstance(policy, LinearPolicy) else "feedforward"


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
    kind = _policy_kind(policy)
    params = _params(policy)
    return _objective_on_params(
        params, kind, batch.features, batch.correct, batch.cost, wr, wc,
        dual.lam, dual.beta,
    )


def _objective_on_params(params, kind, x, correct, cost, wr, wc, lam, beta,
                         where: str = "batch"):
    """The objective of one policy on one batch: a stack of one replica."""
    stacked = [p[None] for p in params]
    u, acts = _forward(stacked, kind, x[None])
    if not np.all(np.isfinite(u)):
        bad = int(np.argmax(~np.isfinite(u[0])))
        raise TrainingDivergenceError(f"non-finite logit at {where} index {bad}")
    p = sigmoid(u)
    dr, dc, exp_r, exp_c = _expectations(correct[None], cost[None], p)
    values, grads = _objective(stacked, kind, acts, u, p, dr, dc, exp_r, exp_c,
                               wr[None], wc[None], np.array([lam]), beta)
    value = float(values[0])
    if not math.isfinite(value):
        raise TrainingDivergenceError(f"non-finite objective value in {where}")
    return value, [g[0] for g in grads]


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class _Adam:
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


class _Sgd:
    def __init__(self, params, lr):
        self.lr = lr

    def ascend(self, params, grads):
        for i, g in enumerate(grads):
            params[i] += self.lr * g

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

    Deterministic in (data, config): splitting, initialization, shuffling
    and optional action sampling all derive from config.seed.

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
    if np.isinf(tau).all():
        return uniform_weights(f.shape).weights
    return tilt_weights(f, tau, direction).weights


class _Stack:
    """Replicas that share data and architecture, trained in lockstep.

    Axis 0 of every per-replica array is the replica. A replica that
    diverges leaves the stack with its error; the others go on unchanged.
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

        train_idx, self.val_sets, policies = [], [], []
        self.shuffle_rngs, self.action_rngs = [], []
        for cfg in configs:
            split_rng, init_rng, shuffle_rng, action_rng = (
                np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(4)
            )
            perm = split_rng.permutation(n)
            train_idx.append(perm[: n - n_val])
            self.val_sets.append(data.subset(perm[n - n_val:]))
            policies.append(init_policy(lead.policy_kind, data.n_features, lead.hidden,
                                        init_rng, bias=lead.init_bias))
            self.shuffle_rngs.append(shuffle_rng)
            self.action_rngs.append(action_rng)
        self.train_idx = np.stack(train_idx)
        self.params = [np.stack(p) for p in zip(*(_params(p) for p in policies))]
        self.opt = (_Adam(self.params, lead.primal_lr) if lead.optimizer == "adam"
                    else _Sgd(self.params, lead.primal_lr))
        self.slot = np.arange(len(configs))  # position of each replica in configs
        self.lam = np.full(len(configs), lead.lambda_init)
        self.budget = np.array([cfg.budget for cfg in configs])
        self.tau_r = np.array([cfg.robust.effective_tau_reward for cfg in configs])
        self.tau_c = np.array([cfg.robust.effective_tau_cost for cfg in configs])

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
        self.train_idx, self.order = self.train_idx[keep], self.order[keep]
        self.params = [p[keep] for p in self.params]
        self.opt.keep(keep)
        self.stats = {name: value[keep] for name, value in self.stats.items()}
        kept = np.flatnonzero(keep)
        for name in ("val_sets", "shuffle_rngs", "action_rngs"):
            setattr(self, name, [getattr(self, name)[k] for k in kept])
        return keep

    def _epoch(self, epoch: int) -> None:
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
            "batch_costs": np.empty((n_rep, n_batches)),
        }
        for b in range(n_batches):
            self._batch(f"epoch {epoch} batch {b}", b)
            if not self.slot.size:
                return
        st = self.stats
        if cfg.dual_update_per_epoch:
            self.lam = dual_update(self.lam, cfg.dual_lr, st["batch_costs"].mean(axis=1),
                                   self.budget, cfg.beta)

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

    def _batch(self, where: str, b: int) -> None:
        cfg = self.config
        idx = self.order[:, b * cfg.batch_size: (b + 1) * cfg.batch_size]

        # step 1: per-instance reward/cost summaries under the current policy
        u, acts = _forward(self.params, self.kind, self.features[idx])
        finite = np.isfinite(u).all(axis=1)
        if not finite.all():
            keep = self._drop({k: f"non-finite logit in {where}"
                               for k in np.flatnonzero(~finite)})
            if not self.slot.size:
                return
            idx, u, acts = idx[keep], u[keep], tuple(a[keep] for a in acts)
        x, r, c = acts[0], self.correct[idx], self.cost[idx]
        p = sigmoid(u)
        dr, dc, exp_r, exp_c = _expectations(r, c, p)
        if cfg.sample_weight_inputs:
            draws = np.stack([rng.random(idx.shape[1]) for rng in self.action_rngs])
            act = draws < p
            f_r = np.where(act, r[..., 1], r[..., 0])
            f_c = np.where(act, c[..., 1], c[..., 0])
        else:
            f_r, f_c = exp_r, exp_c

        # step 2: adversarial tilts (uniform where tau = inf)
        w_r = _tilt(f_r, self.tau_r, "worst_low")
        w_c = _tilt(f_c, self.tau_c, "worst_high")
        st = self.stats
        st["wr_lo"] = np.minimum(st["wr_lo"], w_r.min(axis=1))
        st["wr_hi"] = np.maximum(st["wr_hi"], w_r.max(axis=1))
        st["wc_lo"] = np.minimum(st["wc_lo"], w_c.min(axis=1))
        st["wc_hi"] = np.maximum(st["wc_hi"], w_c.max(axis=1))

        # step 3: one ascent step on the reweighted objective; the parameters
        # are those of step 1, so its logits and probabilities are reused
        value, grads = _objective(self.params, self.kind, acts, u, p, dr, dc,
                                  exp_r, exp_c, w_r, w_c, self.lam, cfg.beta)
        self.opt.ascend(self.params, grads)

        # step 4: projected dual step on the tilt-weighted cost of the
        # updated policy
        u_new, _ = _forward(self.params, self.kind, x)
        p_new = sigmoid(u_new)
        weighted_cost = np.mean(w_c * (c[..., 0] + p_new * dc), axis=1)
        if cfg.dual_update_per_epoch:
            st["batch_costs"][:, b] = weighted_cost
        else:
            self.lam = dual_update(self.lam, cfg.dual_lr, weighted_cost, self.budget, cfg.beta)
        st["reward_sum"] += exp_r.mean(axis=1)
        st["cost_sum"] += exp_c.mean(axis=1)

        # checked last: a failed replica leaves the stack here and what it
        # computed after its failure goes with it, so its outcome is the
        # error its solo run raises at this point
        value_ok, logit_ok = np.isfinite(value), np.isfinite(u_new).all(axis=1)
        if not (value_ok.all() and logit_ok.all()):
            self._drop({k: (f"non-finite objective value in {where}" if not value_ok[k]
                            else f"non-finite logit after update in {where}")
                        for k in np.flatnonzero(~(value_ok & logit_ok))})


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
    with atomic_open(path) as fh:
        fh.write("epoch,train_reward,train_cost,lambda,val_acc,val_cost,reasoning_frac\n")
        for rec in history:
            fh.write(
                f"{rec.epoch},{rec.train_reward!r},{rec.train_cost!r},{rec.lam!r},"
                f"{rec.val_accuracy!r},{rec.val_cost!r},{rec.reasoning_fraction!r}\n"
            )


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
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_model(path) -> tuple[PolicySpec, float, dict]:
    """(policy, instruct_cost_mean, payload) of a model file; ParseError
    unless it decodes to a well-formed model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)  # a ValueError for bad JSON or UTF-8
        if not isinstance(payload, dict):
            raise ParseError(f"expected a JSON object, got {type(payload).__name__}")
        if payload.get("format") != _MODEL_FORMAT:
            raise ValidationError(f"unsupported model format {payload.get('format')!r}")
        return policy_from_dict(payload["policy"]), float(payload["instruct_cost_mean"]), payload
    except ValidationError:
        raise
    except (ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"model file {path}: {exc if isinstance(exc, ParseError) else repr(exc)}"
                         ) from None
