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
    ConstantPolicy,
    Dataset,
    FeedForwardPolicy,
    LinearPolicy,
    Metrics,
    ParseError,
    PolicySpec,
    TabularPolicy,
    ValidationError,
    _ONE,
    _expected,
    _forward,
    _params,
    _sigmoid,
    decode,
    decode_field,
    encode_float,
    evaluate_policy,
    read_json_object,
    sigmoid,
    write_csv,
    write_json,
)
from .reweight import RobustConfig, _tilt_rows, tilt_weights, uniform_weights
from .saddle import dual_update

POLICY_KINDS = ("linear", "feedforward")  # the trainable policies, by TrainConfig.policy_kind

# The step calls the kernels _sigmoid and _tilt_rows, and validation calls _expected;
# bench/spans.py binds sigmoid, tilt_weights, uniform_weights and evaluate_policy here.


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
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be non-negative and finite, got {self.beta}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (0 < self.primal_lr < math.inf and 0 < self.dual_lr < math.inf):
            raise ValueError("learning rates must be positive and finite")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not math.isfinite(self.init_bias):
            raise ValueError(f"init_bias must be finite, got {self.init_bias}")
        if self.policy_kind not in POLICY_KINDS:
            raise ValueError(f"policy_kind must be {' or '.join(POLICY_KINDS)}, "
                             f"got {self.policy_kind!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be {' or '.join(OPTIMIZERS)}, got {self.optimizer!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")

    def to_dict(self) -> dict:
        """The fields as JSON values; an infinite one is the string "inf"."""
        config = {k: encode_float(v) for k, v in asdict(self).items()}
        config["robust"] = {k: encode_float(v) for k, v in config["robust"].items()}
        config["hidden"] = list(self.hidden)
        return config

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


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

def _rebuild(kind: str, params: Sequence[np.ndarray]) -> PolicySpec:
    if kind == "linear":
        return LinearPolicy(params[0][0].copy(), float(params[1][0]))
    weights = tuple(p.copy() for p in params[0::2])
    biases = tuple(p.copy() for p in params[1::2])
    return FeedForwardPolicy(weights, biases)


# The kernels below work on stacks of R replicas, as core._forward does.

def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Per-layer (R, *shape) views of the columns of a flat (R, P) array."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[:, start:start + size].reshape(-1, *shape))
        start += size
    return views


def _gaps(correct: np.ndarray, cost: np.ndarray):
    """Instruct-action reward and cost, and the reasoning-minus-instruct gaps."""
    r0, c0 = correct[..., 0], cost[..., 0]
    return r0, correct[..., 1] - r0, c0, cost[..., 1] - c0


def _gradient(params, acts, u, p, dr, dc, wr, wc, lam, beta, n, grads) -> None:
    """Write the stacked gradient of _value's objective into grads, the
    per-layer views of one (R, P) array, n being the row count u.shape[1]. A
    weight of None is 1 on every row and is not multiplied: x * 1.0 is x."""
    q = _ONE - p
    lam_wc = lam[:, None] if wc is None else lam[:, None] * wc
    gain = dr if wr is None else wr * dr
    # d objective / d u_i, (R, B, 1); dH/du = -u * p * (1 - p)
    delta = ((gain - lam_wc * dc - beta * u) * p * q / n)[..., None]
    for i in range(len(params) // 2 - 1, -1, -1):
        np.matmul(delta.transpose(0, 2, 1), acts[i], out=grads[2 * i])
        np.add.reduce(delta, axis=1, out=grads[2 * i + 1])
        if i > 0:
            delta = (delta @ params[2 * i]) * (acts[i] > 0)


def _value(u, p, tail, exp_r, exp_c, wr, wc, lam, beta) -> np.ndarray:
    """Per-replica objective values (R,), tail being log1p(exp(-|u|)):
    mean_i[ wr_i * E_pi[r] - lambda * wc_i * E_pi[c] + beta * H(pi) ]
    Row means are np.add.reduce / n, bitwise ndarray.mean for float64."""
    q = 1.0 - p
    lam_wc = lam[:, None] if wc is None else lam[:, None] * wc
    # H(sigma(u)) = p*softplus(-u) + (1-p)*softplus(u), exact 0 at saturation,
    # with softplus(+-u) = tail + max(+-u, 0)
    h = p * (tail + np.maximum(-u, 0.0)) + q * (tail + np.maximum(u, 0.0))
    reward = exp_r if wr is None else wr * exp_r
    return np.add.reduce(reward - lam_wc * exp_c + beta * h, axis=1) / u.shape[1]


def _lam_safe(batch_size: int, c_max: float, beta: float, tau_r: float, tau_c: float) -> float:
    """A bound on lambda below which every batch's objective value is finite,
    or -1 where the conditions fail (c_max: a stack's largest cost; tau_r,
    tau_c: its smallest temperatures). Step 1's check makes u finite, so p
    and 1 - p lie in [0, 1], the entropy in [0, ln 2 + eps], exp_r in [0, 1]
    (0/1 flags) and exp_c in [0, c_max (1 + 2 eps)]. A tilt's largest weight
    before normalising is exp(0) = 1, so 0 <= w <= B, and the tau conditions
    keep +-(f - mean) / tau finite (tau = inf gives 0). Each summand is then
    at most B + lambda B c_max 1.01 + beta in size: below the bound the
    pairwise sum of at most B of them stays under 1e307, and the cap
    1e307 / B keeps lambda * w finite before it meets exp_c."""
    b, ok = float(batch_size), beta <= 1e300 and tau_r >= 1e-300 and c_max / tau_c <= 1e300
    return min((1e307 - b * b - b * beta) / (1.01 * b * b * c_max), 1e307 / b) if ok else -1.0


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class _Adam:
    """Adaptive-moment ascent on a flat (R, P) parameter array, in place.
    Its scalar operands are 0-d arrays, which a ufunc takes faster than
    Python floats; the bias corrections are written into theirs each step."""

    def __init__(self, flat, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2 = beta1, beta2
        # beta1, 1 - beta1, beta2, 1 - beta2, lr, eps and 1 - beta1**t, 1 - beta2**t
        self.c1, self.c1m, self.c2, self.c2m, self.lr, self.eps, self.b1t, self.b2t = (
            np.array(v) for v in (beta1, 1.0 - beta1, beta2, 1.0 - beta2, lr, eps, 1.0, 1.0))
        # moments m, v and two scratch rows a, b
        self.m, self.v, self.a, self.b = (np.zeros_like(flat) for _ in range(4))
        self.t = 0

    def ascend(self, flat, g):
        self.t += 1
        m, v, a, b = self.m, self.v, self.a, self.b
        self.b1t[()], self.b2t[()] = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        # m = beta1*m + (1-beta1)*g and v = beta2*v + (1-beta2)*g*g
        m *= self.c1
        m += np.multiply(self.c1m, g, out=a)
        v *= self.c2
        v += np.multiply(np.multiply(self.c2m, g, out=b), g, out=b)
        # flat += lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.multiply(self.lr, np.divide(m, self.b1t, out=a), out=a)
        np.add(np.sqrt(np.divide(v, self.b2t, out=b), out=b), self.eps, out=b)
        flat += np.divide(a, b, out=a)


class _Sgd:
    def __init__(self, flat, lr):
        self.lr = np.array(lr)

    def ascend(self, flat, g):
        flat += self.lr * g


OPTIMIZERS = {"adam": _Adam, "sgd": _Sgd}  # by TrainConfig.optimizer


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


class _Stack:
    """Replicas that share data and architecture, trained in lockstep.

    Axis 0 of every per-replica array is the replica, at its config's
    position. A replica that diverges fails alone: _fail records its error
    and clears its bit in the live mask, and from then on its rows are
    still computed but no check, checkpoint or outcome reads them, so the
    others go on unchanged; training stops once no replica is live. The
    parameters of all replicas live in one (R, P) array and their gradient
    in another; the per-layer arrays are views of them. These, the
    optimizer's state and three epoch buffers are allocated once per
    stack. Each epoch gathers its shuffled rows into the epoch buffers
    batch-major with one ndarray.take per source, as parts (x, gaps, out):
    the full batches' features x of shape (n_full, R, B, d), their r0, c0,
    dr and dc in gaps and the step's exp_r, exp_c, w_r and w_c in out, both
    of shape (4, n_full, R, B); a short last batch is a second part with
    tail for B.
    Batch j of a part reads and writes the contiguous blocks x[j],
    gaps[:, j] and out[:, j], through views built with the buffers, so
    exp_r and exp_c are one multiply and one add over (2, R, B) blocks.
    Step 4 of a batch that has a successor in its part runs one forward
    pass over both batches' rows, x[j:j + 2], and hands the successor its
    logits, probabilities and layer inputs as its step 1. The step's scalar
    operands are 0-d arrays made once per stack. One stacked forward pass
    scores each replica's validation rows, gathered once.
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
            raise ValidationError(f"dataset size {n} must exceed batch_size {lead.batch_size}")
        n_val = int(round(lead.val_fraction * n))
        if n_val < 1:
            raise ValidationError("validation split is empty")
        if n_val >= n:
            raise ValidationError("training split is empty")
        data.require_finite_cost()  # the tilt needs it

        self.config, self.kind = lead, lead.policy_kind
        self.beta, self.dual_lr = np.array(lead.beta), np.array(lead.dual_lr)
        self.features = data.features
        # each row's r0, c0, dr and dc (see _gaps), one contiguous row each
        r0, dr, c0, dc = _gaps(data.correct, data.cost)
        self.gaps = np.stack((r0, c0, dr, dc))
        self.outcomes: list[Outcome | None] = [None] * len(configs)
        self.histories: list[list[EpochRecord]] = [[] for _ in configs]
        self.checkpoints: list[list[Checkpoint]] = [[] for _ in configs]
        self.configs = configs

        perms, policies, self.shuffle_rngs = [], [], []
        for cfg in configs:
            split_rng, init_rng, shuffle_rng = (np.random.default_rng(s) for s in
                                                np.random.SeedSequence(cfg.seed).spawn(3))
            perms.append(split_rng.permutation(n))
            policies.append(init_policy(lead.policy_kind, data.n_features, lead.hidden,
                                        init_rng, bias=lead.init_bias))
            self.shuffle_rngs.append(shuffle_rng)
        self.train_idx, val_idx = np.hsplit(np.stack(perms), [n - n_val])
        self.val = {name: value.take(val_idx, axis=0) for name, value in
                    (("x", data.features), ("correct", data.correct), ("cost", data.cost))}
        stacked = [np.stack(p) for p in zip(*(_params(p) for p in policies))]
        self.shapes = [p.shape[1:] for p in stacked]
        self.flat = np.concatenate([a.reshape(len(a), -1) for a in stacked], axis=1)
        self.grad = np.empty_like(self.flat)
        self.params, self.grads = _views(self.flat, self.shapes), _views(self.grad, self.shapes)
        self._buffers()
        self.opt = OPTIMIZERS[lead.optimizer](self.flat, lead.primal_lr)
        # the replicas that have not failed, and their count
        self.live, self.n_live = np.ones(len(configs), dtype=bool), len(configs)
        self.lam = np.zeros(len(configs))
        self.budget = np.array([cfg.budget for cfg in configs])
        # one tau per replica, as a column that broadcasts over its batch
        self.tau_r = np.array([[cfg.robust.effective_tau_reward] for cfg in configs])
        self.tau_c = np.array([[cfg.robust.effective_tau_cost] for cfg in configs])
        # a side on which every tau is inf keeps weight 1 on every row and is
        # not tilted; a side with a finite tau is tilted also after its last
        # such replica fails, and the tilt at tau = inf weighs each row exactly 1
        self.tilt_r, self.tilt_c = (not np.isinf(tau).all() for tau in (self.tau_r, self.tau_c))
        # the step skips the objective value while no lambda exceeds this bound
        self.lam_safe = _lam_safe(lead.batch_size, float(np.max(data.cost)), lead.beta,
                                  float(np.min(self.tau_r)), float(np.min(self.tau_c)))

    def _buffers(self) -> None:
        """The epoch buffers: the parts, and each batch's views of them in
        self.batches."""
        size = self.config.batch_size
        n_rep, n_train = self.train_idx.shape
        n_full, tail = divmod(n_train, size)
        full, rows = n_full * size * n_rep, n_rep * n_train
        # the position in the epoch's (R, n_train) row order of each
        # batch-major row: the full batches' (n_full, R, B), then the tail's
        order = np.arange(rows).reshape(n_rep, n_train)
        batched = order[:, :n_full * size].reshape(n_rep, n_full, size).transpose(1, 0, 2)
        self.layout = np.concatenate([batched.ravel(), order[:, n_full * size:].ravel()])
        self.index = np.empty_like(self.layout)
        self.x = np.empty((rows, self.features.shape[1]))
        self.rows, self.out = np.empty((4, rows)), np.empty((4, rows))
        self.parts, self.batches = [], []
        for start, stop, width in ((0, full, size), (full, rows, tail)):
            if stop == start:
                continue
            x = self.x[start:stop].reshape(-1, n_rep, width, self.x.shape[1])
            gaps, out = (a[:, start:stop].reshape(4, -1, n_rep, width)
                         for a in (self.rows, self.out))
            self.parts.append((x, gaps, out))
            n = np.array(float(width))  # the batch's row count, a divisor
            # x[j], the pair x[j:j + 2] or None, (r0, c0), (dr, dc), c0, dr,
            # dc, (exp_r, exp_c), exp_r, exp_c, w_r, w_c and n
            self.batches += [(x[j], x[j:j + 2] if j + 1 < len(x) else None, gaps[:2, j],
                              gaps[2:, j], *gaps[1:, j], out[:2, j], *out[:, j], n)
                             for j in range(len(x))]

    def run(self) -> list[Outcome]:
        # a diverging replica overflows on its way to the finite checks,
        # which report it; numpy's own warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(self.config.epochs):
                if not self.n_live:
                    break
                self._epoch(epoch)
        for k in np.flatnonzero(self.live):
            best = select_checkpoint(self.checkpoints[k], self.configs[k].budget)
            self.outcomes[k] = TrainResult(best, tuple(self.histories[k]),
                                           tuple(self.checkpoints[k]))
        return self.outcomes

    def _fail(self, bad: np.ndarray, message: str) -> None:
        """Record the error message for each live replica in the mask bad,
        which is then no longer live."""
        for k in np.flatnonzero(bad & self.live):
            self.outcomes[k] = TrainingDivergenceError(message)
            self.live[k] = False
            self.n_live -= 1

    def _epoch(self, epoch: int) -> None:
        n_train = self.train_idx.shape[1]
        order = np.stack([idx[rng.permutation(n_train)]
                          for idx, rng in zip(self.train_idx, self.shuffle_rngs)])
        # every replica's training rows in this epoch's order, batch-major;
        # the indices are in range, and mode="raise" would copy through a
        # temporary
        order.take(self.layout, out=self.index, mode="clip")
        self.features.take(self.index, axis=0, out=self.x, mode="clip")
        self.gaps.take(self.index, axis=1, out=self.rows, mode="clip")
        # each batch fills its block of exp_r, exp_c and of the tilted sides'
        # w_r and w_c, whose statistics are reduced once the epoch is done;
        # a part's first batch runs its own forward pass (step1 None)
        step1 = None
        n_batches = len(self.batches)
        for b in range(n_batches):
            step1 = self._batch(epoch, b, step1)
            if not self.n_live:
                return
        # the running sums of per-batch means of exp_r and exp_c in batch
        # order, and the ranges of w_r and w_c
        train_reward, train_cost = np.cumsum(np.concatenate(
            [np.add.reduce(out[:2], axis=3) / out.shape[3] for _, _, out in self.parts],
            axis=1), axis=1)[:, -1]
        (wr_lo, wr_hi), (wc_lo, wc_hi) = (self._weight_range(2, self.tilt_r),
                                          self._weight_range(3, self.tilt_c))

        # evaluate_policy's expected mode on each replica's own rows
        u, _ = _forward(self.params, self.val["x"], keep_inputs=False)
        prob = _sigmoid(u)[0]
        accuracy, cost, reasoning = _expected(prob, self.val["correct"], self.val["cost"])
        for k in np.flatnonzero(self.live):
            snapshot = _rebuild(self.kind, [p[k] for p in self.params])
            val_metrics = Metrics(float(accuracy[k]), float(cost[k]), float(reasoning[k]))
            lam = float(self.lam[k])
            self.checkpoints[k].append(Checkpoint(epoch, snapshot, val_metrics, lam))
            self.histories[k].append(EpochRecord(
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

    def _weight_range(self, side: int, tilted: bool):
        """Each replica's lowest and highest weight in row side of the epoch's
        outputs (2: w_r, 3: w_c); an untilted side's weights are all 1."""
        if not tilted:
            return np.ones(len(self.live)), np.ones(len(self.live))
        return tuple(reduce([reduce(out[side], axis=(0, 2)) for _, _, out in self.parts])
                     for reduce in (np.minimum.reduce, np.maximum.reduce))

    def _batch(self, epoch: int, b: int, step1):
        """Batch b of the epoch. step1 is None or the (u, acts, p, e, checked)
        of this batch that the previous batch's step 4 computed; the return
        value is the next batch's."""
        # step 1: per-instance reward/cost summaries under the current policy
        if step1 is None:
            u, acts = _forward(self.params, self.batches[b][0])
            step1 = (u, acts, *_sigmoid(u), False)
        u, acts, p, e, checked = step1
        if not checked and not np.logical_and.reduce(np.isfinite(u), axis=None):
            self._fail(~np.logical_and.reduce(np.isfinite(u), axis=1),
                       f"non-finite logit in epoch {epoch} batch {b}")
            if not self.n_live:
                return None
        _, pair, base, slope, c0, dr, dc, exp, exp_r, exp_c, out_r, out_c, n = self.batches[b]
        # a live replica's u is finite (checked above), and so are the flags
        # and the costs (checked in __init__): the tilt's inputs need no check
        np.add(np.multiply(p, slope, out=exp), base, out=exp)

        # step 2: adversarial tilts, written into the epoch's weights; an
        # untilted side (None) keeps weight 1
        w_r = (_tilt_rows(exp_r, self.tau_r, "worst_low", out=out_r, n=n)[0]
               if self.tilt_r else None)
        w_c = (_tilt_rows(exp_c, self.tau_c, "worst_high", out=out_c, n=n)[0]
               if self.tilt_c else None)

        # step 3: one ascent step on the reweighted objective; the parameters
        # are those of step 1, so its logits and probabilities are reused; its
        # value is computed only where lam_safe cannot certify it finite
        _gradient(self.params, acts, u, p, dr, dc, w_r, w_c, self.lam, self.beta, n, self.grads)
        value = (None if np.maximum.reduce(self.lam) <= self.lam_safe else
                 _value(u, p, np.log1p(e), exp_r, exp_c, w_r, w_c, self.lam, self.beta))
        self.opt.ascend(self.flat, self.grad)

        # step 4: projected dual step on the tilt-weighted cost of the
        # updated policy; with a next batch in this part, one forward pass
        # over both batches' rows is also that batch's step 1 (only lambda
        # changes in between)
        fused = pair is not None
        block, acts_new = _forward(self.params, pair if fused else acts[0], keep_inputs=fused)
        p_new, e_new = _sigmoid(block)
        u_new = block
        if fused:
            step1 = (block[1], tuple(a[1] for a in acts_new), p_new[1], e_new[1])
            u_new, p_new = block[0], p_new[0]
        cost = c0 + p_new * dc
        weighted_cost = np.add.reduce(cost if w_c is None else w_c * cost, axis=1) / n
        self.lam = dual_update(self.lam, self.dual_lr, weighted_cost, self.budget, self.beta)

        # checked last: a replica fails here, and nothing it computes after
        # its failure is read, so its outcome is the error its solo run
        # raises at this point; a finite block also passes the next batch's
        # step-1 check
        finite_value = value is None or np.logical_and.reduce(np.isfinite(value))
        if finite_value and np.logical_and.reduce(np.isfinite(block), axis=None):
            return (*step1, True) if fused else None
        # the value first: a replica that fails both ways reports its value
        where = f"epoch {epoch} batch {b}"
        if not finite_value:
            self._fail(~np.isfinite(value), f"non-finite objective value in {where}")
        self._fail(~np.logical_and.reduce(np.isfinite(u_new), axis=1),
                   f"non-finite logit after update in {where}")
        return (*step1, False) if fused else None


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
_MODEL_KINDS = {"tabular": TabularPolicy, "linear": LinearPolicy,
                "feedforward": FeedForwardPolicy, "constant": ConstantPolicy}


def save_model(path, policy: PolicySpec, instruct_cost_mean: float,
               config: TrainConfig | None = None) -> None:
    """Versioned JSON serialization; floats keep full round-trip precision."""
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(policy, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(policy).__name__}")
    payload = {
        "format": _MODEL_FORMAT,
        "policy": {"kind": kind, **vars(policy)},
        "instruct_cost_mean": float(instruct_cost_mean),
        "config": config.to_dict() if config is not None else None,
        "config_digest": config.digest() if config is not None else None,
    }
    write_json(path, payload)


def load_model(path) -> tuple[PolicySpec, float, dict]:
    """(policy, instruct_cost_mean, payload) of a model file; a ParseError or
    ValidationError naming the file unless it holds a well-formed policy with
    finite weights and a positive, finite cost scale."""
    payload = read_json_object(path, "model file")
    try:
        if payload.get("format") != _MODEL_FORMAT:
            raise ValidationError(f"unsupported model format {payload.get('format')!r}")
        if "policy" not in payload:
            raise ParseError("missing field 'policy'")
        record = payload["policy"]
        if not isinstance(record, dict):
            raise ParseError(f"policy: expected a JSON object, got {type(record).__name__}")
        kind = decode_field(record, "kind", str, "policy: ")
        if kind not in _MODEL_KINDS:
            raise ValidationError(f"unknown policy kind {kind!r}")
        policy = decode(_MODEL_KINDS[kind], record, "policy: ")
        # here, not in the policy types: a training snapshot may hold any value
        if kind in POLICY_KINDS and not all(np.isfinite(a).all() for a in _params(policy)):
            raise ValidationError("policy weights and biases must be finite")
        cost_mean = decode_field(payload, "instruct_cost_mean", float)
        if not 0 < cost_mean < math.inf:
            raise ValidationError("instruct_cost_mean must be positive and finite")
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"model file {path}: {exc}") from None
    return policy, cost_mean, payload
