"""Domain types and evaluation primitives for two-mode judge routing.

Every routing example carries a feature vector, a per-mode correctness
indicator, and a per-mode token cost. Costs are normalized so the instruct
mode (action 0) has mean cost 1; the budget is then a plain cost ratio.
All types are immutable after construction and every function here is pure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np


class ParseError(ValueError):
    """A data file could not be decoded (names the offending line)."""


class ValidationError(ValueError):
    """Decoded data violates a domain invariant."""


# ---------------------------------------------------------------------------
# instances and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """One routing example.

    correct[a] is 1 when judge mode a agrees with the ground-truth label,
    cost_raw[a] is that mode's raw token consumption (strictly positive).
    """

    id: str
    features: np.ndarray
    correct: tuple[int, int]
    cost_raw: tuple[float, float]
    tag: str | None = None

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


class Dataset:
    """Immutable ordered collection of instances with normalized costs.

    Costs are divided by ``instruct_cost_mean`` (by default the mean raw cost
    of action 0 over this dataset, so mean normalized instruct cost is 1).
    Pass an explicit constant to put several splits on one cost scale.
    """

    def __init__(self, instances: Iterable[Instance], instruct_cost_mean: float | None = None):
        instances = tuple(instances)
        if not instances:
            raise ValidationError("dataset is empty")
        dim = instances[0].features.shape[0]
        for inst in instances:
            if inst.features.shape[0] != dim:
                raise ValidationError(
                    f"instance {inst.id!r}: feature dimension {inst.features.shape[0]} != {dim}"
                )
        self.instances = instances
        self.ids = tuple(inst.id for inst in instances)
        self.tags = tuple(inst.tag for inst in instances)
        self.features = np.stack([inst.features for inst in instances])
        self.correct = np.array([inst.correct for inst in instances], dtype=np.float64)
        self.cost_raw = np.array([inst.cost_raw for inst in instances], dtype=np.float64)
        if instruct_cost_mean is None:
            instruct_cost_mean = float(np.mean(self.cost_raw[:, 0]))
        if not (math.isfinite(instruct_cost_mean) and instruct_cost_mean > 0):
            raise ValidationError("instruct_cost_mean must be positive and finite")
        self.instruct_cost_mean = float(instruct_cost_mean)
        self.cost = self.cost_raw / self.instruct_cost_mean
        self.normalized = True
        for arr in (self.features, self.correct, self.cost_raw, self.cost):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """View of selected instances on the same cost scale."""
        picked = [self.instances[int(i)] for i in indices]
        return Dataset(picked, instruct_cost_mean=self.instruct_cost_mean)

    def renormalized(self) -> "Dataset":
        """Same instances, cost scale recomputed from this dataset alone."""
        return Dataset(self.instances)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("id", "features", "correct_0", "correct_1", "cost_0", "cost_1")


def _instance_from_record(record: dict, where: str) -> Instance:
    for field in _REQUIRED_FIELDS:
        if field not in record:
            raise ParseError(f"{where}: missing field {field!r}")
    return Instance(
        id=str(record["id"]),
        features=np.asarray(record["features"], dtype=np.float64),
        correct=(record["correct_0"], record["correct_1"]),
        cost_raw=(record["cost_0"], record["cost_1"]),
        tag=record.get("tag"),
    )


def load_dataset(path, format: str | None = None) -> Dataset:
    """Read a JSONL or CSV routing dataset and return it cost-normalized.

    Record order is preserved. Raises ParseError naming the line for
    malformed records, ValidationError for invariant violations.
    """
    path = str(path)
    if format is None:
        format = "csv" if path.endswith(".csv") else "jsonl"
    if format == "jsonl":
        instances = _load_jsonl(path)
    elif format == "csv":
        instances = _load_csv(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    return Dataset(instances)


def _load_jsonl(path: str) -> list[Instance]:
    instances = []
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
            instances.append(_instance_from_record(record, f"line {lineno}"))
    return instances


def _load_csv(path: str) -> list[Instance]:
    instances = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("line 1: missing CSV header")
        feat_cols = sorted(
            (c for c in reader.fieldnames if c.startswith("feat_")),
            key=lambda c: int(c.split("_", 1)[1]),
        )
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
            instances.append(_instance_from_record(record, where))
    return instances


def save_dataset(data: Dataset, path, format: str | None = None) -> None:
    """Write raw (unnormalized) records; load_dataset round-trips bitwise."""
    path = str(path)
    if format is None:
        format = "csv" if path.endswith(".csv") else "jsonl"
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for inst in data.instances:
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
    elif format == "csv":
        d = data.n_features
        header = ["id"] + [f"feat_{j}" for j in range(d)] + [
            "correct_0", "correct_1", "cost_0", "cost_1", "tag",
        ]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for inst in data.instances:
                writer.writerow(
                    [inst.id]
                    + [repr(v) for v in inst.features.tolist()]
                    + [inst.correct[0], inst.correct[1],
                       repr(inst.cost_raw[0]), repr(inst.cost_raw[1]),
                       inst.tag or ""]
                )
    else:
        raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# routing policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabularPolicy:
    """Per-context table of reasoning probabilities, keyed by instance id."""

    table: Mapping[str, float]


@dataclass(frozen=True)
class LinearPolicy:
    """Single logit w.x + b squashed through a sigmoid."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))


@dataclass(frozen=True)
class FeedForwardPolicy:
    """ReLU network ending in a scalar logit; weights[i] has shape (out, in)."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(ws) != len(bs) or not ws:
            raise ValidationError("weights and biases must be non-empty and aligned")
        for arr in ws + bs:
            arr.setflags(write=False)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)


@dataclass(frozen=True)
class ConstantPolicy:
    """Feature-blind policy reasoning with fixed probability p_reason."""

    p_reason: float

    def __post_init__(self):
        p = float(self.p_reason)
        if not 0.0 <= p <= 1.0:
            raise ValidationError("p_reason must lie in [0, 1]")
        object.__setattr__(self, "p_reason", p)


PolicySpec = Union[TabularPolicy, LinearPolicy, FeedForwardPolicy, ConstantPolicy]


def sigmoid(x):
    """Overflow-safe elementwise logistic function."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))  # exp(-|x|); a NaN passes through unchanged
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def policy_logits(policy: PolicySpec, features: np.ndarray) -> np.ndarray:
    """Raw logits for a batch of feature rows (Linear/FeedForward only)."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if isinstance(policy, LinearPolicy):
        if features.shape[1] != policy.weights.shape[0]:
            raise ValidationError(
                f"feature dimension {features.shape[1]} != policy dimension {policy.weights.shape[0]}"
            )
        return features @ policy.weights + policy.bias
    if isinstance(policy, FeedForwardPolicy):
        if features.shape[1] != policy.weights[0].shape[1]:
            raise ValidationError(
                f"feature dimension {features.shape[1]} != policy input {policy.weights[0].shape[1]}"
            )
        h = features
        for w, b in zip(policy.weights[:-1], policy.biases[:-1]):
            h = np.maximum(h @ w.T + b, 0.0)
        return (h @ policy.weights[-1].T + policy.biases[-1]).ravel()
    raise TypeError(f"{type(policy).__name__} has no logit parameterization")


def policy_prob(policy: PolicySpec, instance: Instance) -> float:
    """Probability of choosing the reasoning mode, pi(1|z), for one instance."""
    if isinstance(policy, ConstantPolicy):
        return policy.p_reason
    if isinstance(policy, TabularPolicy):
        try:
            return float(policy.table[instance.id])
        except KeyError:
            raise ValidationError(f"unknown context id {instance.id!r}") from None
    return float(sigmoid(policy_logits(policy, instance.features[None, :]))[0])


def policy_probs(policy: PolicySpec, data: Dataset) -> np.ndarray:
    """Vector of pi(1|z) over a dataset, in instance order."""
    if isinstance(policy, ConstantPolicy):
        return np.full(len(data), policy.p_reason)
    if isinstance(policy, TabularPolicy):
        try:
            return np.array([policy.table[i] for i in data.ids], dtype=np.float64)
        except KeyError as exc:
            raise ValidationError(f"unknown context id {exc.args[0]!r}") from None
    return sigmoid(policy_logits(policy, data.features))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    """Judge accuracy, realized cost ratio, and reasoning-mode rate."""

    accuracy: float
    realized_cost: float
    reasoning_fraction: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "realized_cost": self.realized_cost,
            "reasoning_fraction": self.reasoning_fraction,
        }


def counter_uniforms(seed: int, n: int) -> np.ndarray:
    """Uniform(0,1) numbers keyed by (seed, index) via a SplitMix64 hash.

    The value at index i depends only on (seed, i), so sampled evaluation is
    reproducible regardless of traversal or parallelization order.
    """
    mask = (1 << 64) - 1
    # hash the seed first so nearby seeds decorrelate (a seed-linear base
    # would make the output a function of seed + index only)
    base = (int(seed) + 0x9E3779B97F4A7C15) & mask
    base = ((base ^ (base >> 30)) * 0xBF58476D1CE4E5B9) & mask
    base = ((base ^ (base >> 27)) * 0x94D049BB133111EB) & mask
    base = base ^ (base >> 31)
    golden = np.uint64(0x9E3779B97F4A7C15)
    z = np.uint64(base) + (np.arange(n, dtype=np.uint64) + np.uint64(1)) * golden
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def evaluate_policy(policy: PolicySpec, data: Dataset, mode: str = "expected",
                    seed: int = 0) -> Metrics:
    """Accuracy / realized cost / reasoning rate of a policy on a dataset.

    ``expected`` averages over the policy distribution analytically;
    ``sampled`` draws one action per instance from a counter-based generator
    keyed by (seed, instance index), so it is a pure function of the seed.
    """
    if len(data) == 0:
        raise ValidationError("dataset is empty")
    p = policy_probs(policy, data)
    if mode == "expected":
        acc = np.mean((1.0 - p) * data.correct[:, 0] + p * data.correct[:, 1])
        cost = np.mean((1.0 - p) * data.cost[:, 0] + p * data.cost[:, 1])
        frac = np.mean(p)
    elif mode == "sampled":
        actions = (counter_uniforms(seed, len(data)) < p).astype(np.int64)
        rows = np.arange(len(data))
        acc = np.mean(data.correct[rows, actions])
        cost = np.mean(data.cost[rows, actions])
        frac = np.mean(actions)
    else:
        raise ValueError(f"unknown evaluation mode {mode!r}")
    return Metrics(float(acc), float(cost), float(frac))


# ---------------------------------------------------------------------------
# policy serialization (shared by the trainer and the CLI)
# ---------------------------------------------------------------------------

def policy_to_dict(policy: PolicySpec) -> dict:
    if isinstance(policy, TabularPolicy):
        return {"kind": "tabular", "table": dict(policy.table)}
    if isinstance(policy, LinearPolicy):
        return {"kind": "linear", "weights": policy.weights.tolist(), "bias": policy.bias}
    if isinstance(policy, FeedForwardPolicy):
        return {
            "kind": "feedforward",
            "weights": [w.tolist() for w in policy.weights],
            "biases": [b.tolist() for b in policy.biases],
        }
    if isinstance(policy, ConstantPolicy):
        return {"kind": "constant", "p_reason": policy.p_reason}
    raise TypeError(f"cannot serialize {type(policy).__name__}")


def policy_from_dict(payload: dict) -> PolicySpec:
    kind = payload.get("kind")
    if kind == "tabular":
        return TabularPolicy({str(k): float(v) for k, v in payload["table"].items()})
    if kind == "linear":
        return LinearPolicy(np.asarray(payload["weights"], dtype=np.float64), payload["bias"])
    if kind == "feedforward":
        return FeedForwardPolicy(
            tuple(np.asarray(w, dtype=np.float64) for w in payload["weights"]),
            tuple(np.asarray(b, dtype=np.float64) for b in payload["biases"]),
        )
    if kind == "constant":
        return ConstantPolicy(payload["p_reason"])
    raise ValidationError(f"unknown policy kind {kind!r}")
