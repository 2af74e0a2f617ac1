"""Worst-case exponential-tilt reweighting over a KL uncertainty ball.

The worst-case distribution within KL radius delta of an empirical
distribution reweights sample i proportionally to exp(+-(f_i - s)/tau).
Training uses the fast batch-mean approximation (anchor s = mean f, tau
given); ``exact_tilt`` recovers the tilt at the unique tau whose KL
divergence equals delta and exists to validate that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODES = ("racer", "racer-r", "racer-c", "acer")
DIRECTIONS = ("worst_low", "worst_high")


@dataclass(frozen=True)
class RobustConfig:
    """Tilt temperatures and ablation mode.

    tau_reward tilts the reward downward (adversarial reward), tau_cost
    tilts the cost upward (adversarial cost); math.inf disables a tilt.
    Modes force temperatures to inf: racer-r keeps only the reward tilt,
    racer-c only the cost tilt, acer neither.
    """

    tau_reward: float = math.inf
    tau_cost: float = math.inf
    mode: str = "racer"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("tau_reward", "tau_cost"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive (or inf), got {value}")

    @property
    def effective_tau_reward(self) -> float:
        return math.inf if self.mode in ("racer-c", "acer") else self.tau_reward

    @property
    def effective_tau_cost(self) -> float:
        return math.inf if self.mode in ("racer-r", "acer") else self.tau_cost


@dataclass(frozen=True)
class WeightVector:
    """Mean-1 density ratios for one batch plus the tilt anchor used."""

    weights: np.ndarray
    baseline: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "baseline", float(self.baseline))


def uniform_weights(shape, baseline: float = 0.0) -> WeightVector:
    """The tau = inf tilt: every sample keeps weight exactly 1."""
    return WeightVector(np.ones(shape), baseline)


def tilt_weights(values, tau: float, direction: str) -> WeightVector:
    """Batch-mean exponential tilt of a value vector.

    worst_low downweights samples above the batch mean (adversary shrinks
    the reward), worst_high upweights samples above it (adversary inflates
    the cost). Weights are normalized to mean 1 so reweighted batch
    averages stay on the unweighted scale; exponentials are max-subtracted
    for overflow safety. tau must be positive and finite.
    """
    f = np.asarray(values, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("values must be a non-empty 1-d vector")
    if not np.isfinite(f).all():
        raise ValueError("values contain a non-finite entry")
    if not (np.ndim(tau) == 0 and math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be a positive finite real, got {tau}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return WeightVector(*_tilt_rows(f, tau, direction))


def _tilt_rows(f: np.ndarray, t, direction: str, out=None,
               n=None) -> tuple[np.ndarray, np.ndarray]:
    """tilt_weights' arithmetic without its checks: (weights, anchors) of
    finite float64 values f along the last axis, with t a positive tau that
    broadcasts against f (one per row as a column, inf where a row keeps
    weight 1) and a direction from DIRECTIONS; the weights go to out if given.
    n, if given, is the row length f.shape[-1] (a 0-d array is divided by
    faster than an int)."""
    n = f.shape[-1] if n is None else n
    mean = np.add.reduce(f, axis=-1, keepdims=True) / n
    s = (mean - f) / t if direction == "worst_low" else (f - mean) / t
    w = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True), out=out)
    w /= np.add.reduce(w, axis=-1, keepdims=True) / n
    return w, mean[..., 0]


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats with the convention 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("probabilities must be finite")
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-d vectors of equal length")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("probabilities must be non-negative")
    for name, vec in (("p", p), ("q", q)):
        if abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must sum to 1 (got {float(vec.sum())})")
    support = p > 0
    if np.any(q[support] == 0):
        raise ValueError("support violation: p > 0 where q = 0")
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


@dataclass(frozen=True)
class ExactTilt:
    """Result of the KL-radius-constrained tilt.

    status is "active" when KL(rho_tilde || rho) = delta was attained at a
    finite tau_star, "slack" when the values are constant (every tilt has
    KL 0 < delta; tau_star = inf), and "saturated" when delta exceeds the
    KL of the point-mass limit (tau_star = 0, the limiting tilt returned).
    """

    weights: WeightVector
    tau_star: float
    status: str


def _tilt(signed: np.ndarray, log_rho: np.ndarray,
          tau: float) -> tuple[np.ndarray, float]:
    """The tilted distribution at tau and the log-sum-exp of its logits, for
    signed values (-f for worst_low, f for worst_high)."""
    logits = log_rho + signed / tau
    m = logits.max()
    w = np.exp(logits - m)
    total = w.sum()
    return w / total, m + math.log(total)


def exact_tilt(values, rho, delta: float, direction: str) -> ExactTilt:
    """Worst-case distribution with KL(rho_tilde || rho) exactly delta.

    Bisects (in log space) on the temperature: along the tilt path the KL
    divergence is continuous and strictly decreasing in tau for
    non-constant values, from the point-mass limit down to 0. Returned
    weights are the density ratios rho_tilde/rho, which have mean 1 under
    rho by construction. The inputs are checked once, here; the bisection's
    KL step skips kl_divergence's checks while every tilted weight is
    positive, where it returns kl_divergence's value bitwise.
    """
    f = np.asarray(values, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    if f.shape != rho.shape or f.ndim != 1 or f.size == 0:
        raise ValueError("values and rho must be non-empty 1-d vectors of equal length")
    if not np.isfinite(f).all():
        raise ValueError("values contain a non-finite entry")
    # written so that NaN or inf in rho fails it
    if not (np.all(rho > 0) and abs(rho.sum() - 1.0) <= 1e-9):
        raise ValueError("rho must be strictly positive and sum to 1")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")

    if np.ptp(f) == 0.0:
        return ExactTilt(uniform_weights(f.size, float(f[0])), math.inf, "slack")

    log_rho = np.log(rho)
    extreme = f.min() if direction == "worst_low" else f.max()
    on_extreme = f == extreme
    kl_limit = -math.log(float(rho[on_extreme].sum()))
    if delta >= kl_limit:
        tilted = np.where(on_extreme, rho, 0.0)
        tilted = tilted / tilted.sum()
        return ExactTilt(WeightVector(tilted / rho, float(extreme)), 0.0, "saturated")

    signed = -f if direction == "worst_low" else f

    def kl_at(tau: float) -> float:
        q = _tilt(signed, log_rho, tau)[0]
        # kl_divergence's support mask keeps every row of a positive q, so
        # this is its sum; a zero (underflow) or NaN weight takes its checks
        if (q > 0).all():
            return float(np.sum(q * np.log(q / rho)))
        return kl_divergence(q, rho)

    # bracket: KL decreases in tau, so grow tau until KL < delta and shrink
    # until KL > delta, then bisect on log tau.
    hi = 1.0
    while kl_at(hi) > delta:
        hi *= 2.0
        if hi > 2.0**200:
            raise ArithmeticError("tilt bracket expansion failed")
    lo = hi
    while kl_at(lo) < delta:
        lo /= 2.0
        if lo < 2.0**-200:
            raise ArithmeticError("tilt bracket contraction failed")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if kl_at(mid) > delta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    tau_star = math.sqrt(lo * hi)

    tilted, lse = _tilt(signed, log_rho, tau_star)
    # log-sum-exp anchor of the tilt: soft-min (worst_low) or soft-max
    # (worst_high) of f under rho.
    baseline = -tau_star * lse if direction == "worst_low" else tau_star * lse
    return ExactTilt(WeightVector(tilted / rho, float(baseline)), tau_star, "active")
