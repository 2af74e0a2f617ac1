"""Domain types and evaluation primitives for two-mode judge routing.

Every routing example carries a feature vector, a per-mode correctness
indicator, and a per-mode token cost. Costs are normalized so the instruct
mode (action 0) has mean cost 1; the budget is then a plain cost ratio.
All types are immutable after construction and every function here is pure.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import json
import math
import operator
import os
import typing
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

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
        correct = (self.correct[0], self.correct[1])
        if any(c not in (0, 1) for c in correct):
            raise ValidationError(f"instance {self.id!r}: correct flags must be 0 or 1")
        object.__setattr__(self, "correct", (int(correct[0]), int(correct[1])))
        cost = (float(self.cost_raw[0]), float(self.cost_raw[1]))
        if not all(math.isfinite(c) and c > 0 for c in cost):
            raise ValidationError(f"instance {self.id!r}: costs must be positive and finite")
        object.__setattr__(self, "cost_raw", cost)


def _frozen(values) -> np.ndarray:
    """Read-only C-ordered float64 view of values (no copy if already one)."""
    arr = np.ascontiguousarray(values, dtype=np.float64).view()
    arr.setflags(write=False)
    return arr


class Dataset:
    """Immutable ordered columns of routing examples with normalized costs.

    Row i is the instance ``ids[i]``: ``features[i]``, its two correct flags
    ``correct[i]`` and raw mode costs ``cost_raw[i]``, and ``tags[i]``.
    Costs are divided by ``instruct_cost_mean`` (by default the mean raw cost
    of action 0 over this dataset, so mean normalized instruct cost is 1);
    ``with_cost_scale`` puts several splits on one cost scale.
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
        self.__dict__.update(vars(Dataset.from_columns(
            [inst.id for inst in instances], [inst.tag for inst in instances],
            np.stack([inst.features for inst in instances]),
            [inst.correct for inst in instances], [inst.cost_raw for inst in instances],
            instruct_cost_mean,
        )))

    @classmethod
    def from_columns(cls, ids, tags, features, correct, cost_raw,
                     instruct_cost_mean: float | None = None) -> "Dataset":
        """Dataset over n ids and tags, (n, d) features and (n, 2) correct
        flags and raw costs; C-ordered float64 features and costs are not
        copied. A ValidationError names the first offending instance."""
        self = cls.__new__(cls)
        self.ids, self.tags = tuple(ids), tuple(tags)
        n = len(self.ids)
        if not n:
            raise ValidationError("dataset is empty")
        self.features, self.cost_raw = _frozen(features), _frozen(cost_raw)
        self.correct = _frozen(np.asarray(correct, dtype=np.float64) + 0.0)  # -0.0 -> 0.0
        if (len(self.tags), self.features.shape[:1], self.features.ndim, self.correct.shape,
                self.cost_raw.shape) != (n, (n,), 2, (n, 2), (n, 2)):
            raise ValidationError("columns must hold n ids and tags, (n, d) features "
                                  "and (n, 2) correct flags and costs")
        faults = {  # row masks, in the order a row is checked
            "non-finite feature value": ~np.isfinite(self.features).all(axis=1),
            "correct flags must be 0 or 1": ~np.isin(self.correct, (0.0, 1.0)).all(axis=1),
            "costs must be positive and finite":
                ~((self.cost_raw > 0.0) & (self.cost_raw < math.inf)).all(axis=1),
        }
        bad = np.logical_or.reduce(list(faults.values()))
        if bad.any():
            i = int(np.argmax(bad))
            fault = next(msg for msg, rows in faults.items() if rows[i])
            raise ValidationError(f"instance {self.ids[i]!r}: {fault}")
        return self.with_cost_scale(instruct_cost_mean)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def instances(self) -> tuple[Instance, ...]:
        """The rows as Instance objects, built on each access."""
        return tuple(map(Instance, self.ids, self.features, self.correct.astype(np.int64).tolist(),
                         self.cost_raw.tolist(), self.tags))

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Selected rows, in the given order, on the same cost scale."""
        idx = np.asarray(indices, dtype=np.intp)
        rows = idx.tolist()
        return Dataset.from_columns([self.ids[i] for i in rows], [self.tags[i] for i in rows],
                                    self.features[idx], self.correct[idx], self.cost_raw[idx],
                                    self.instruct_cost_mean)

    def with_cost_scale(self, instruct_cost_mean: float | None = None) -> "Dataset":
        """The same columns (not copied) with costs divided by
        instruct_cost_mean, by default this dataset's mean raw instruct cost."""
        if instruct_cost_mean is None:
            instruct_cost_mean = float(np.mean(self.cost_raw[:, 0]))
        if not (math.isfinite(instruct_cost_mean) and instruct_cost_mean > 0):
            raise ValidationError("instruct_cost_mean must be positive and finite")
        scaled = copy.copy(self)
        scaled.instruct_cost_mean = float(instruct_cost_mean)
        scaled.cost = _frozen(self.cost_raw / scaled.instruct_cost_mean)
        return scaled


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def atomic_open(path, newline: str | None = None):
    """Text file written under a temporary name that replaces ``path`` only
    when the block completes: a failed run leaves the previous file intact."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json_object(path, what: str) -> dict:
    """The JSON object a UTF-8 file holds; a ParseError naming ``what`` and
    the path if the file is not JSON or holds another kind of value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)  # a ValueError for bad JSON or UTF-8
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} {path}: not a JSON file ({exc!r})") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{what} {path}: expected a JSON object, got {type(payload).__name__}")
    return payload


# the kind of JSON value a type hint takes, as a fault names it: (one, many)
_KINDS = {float: ("a number", "numbers"), int: ("an integer", "integers"),
          str: ("a string", "strings"), np.ndarray: ("an array of numbers", "arrays of numbers")}
_type_hints = functools.cache(typing.get_type_hints)  # a dataclass's, for decode


def _kind(hint, many: bool = False) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return "a list of " + _kind(args[0], True)
    if origin is Mapping:
        return "an object of " + _kind(args[1], True)
    return _KINDS.get(hint, ("an object", "objects"))[many]


def _as(hint, value, label: str):
    """value as type hint hint; TypeError if it is another kind of value. A
    record nested under field ``label`` names it (and its index in a list)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint):
        return decode(hint, value, f"{label}: ")
    if origin is tuple and type(value) is list:
        return tuple(_as(args[0], v, f"{label.removesuffix('s')} {i}")
                     for i, v in enumerate(value))
    if origin is Mapping and type(value) is dict:
        return {k: _as(args[1], v, label) for k, v in value.items()}
    if hint is np.ndarray and type(value) is list:  # nested lists of numbers
        items = [_as(np.ndarray if type(v) is list else float, v, label) for v in value]
        try:
            return np.array(items, dtype=np.float64)
        except ValueError:  # ragged
            raise TypeError from None
    if hint is float and type(value) in (int, float):
        return float(value)  # an OverflowError past the float range
    if hint is float and value == "inf":  # how infinity is written
        return math.inf
    if hint in (int, str) and type(value) is hint:  # a bool is not an int
        return value
    raise TypeError


def decode_field(record: dict, name: str, hint, where: str = ""):
    """record[name] as type hint hint: a number is a JSON integer or float,
    or "inf"; an integer is a JSON integer (a bool or a numeric string is
    neither); lists, arrays, objects and nested records decode element by
    element. ParseError naming ``where`` and the field unless it is present
    and of that kind."""
    if name not in record:
        raise ParseError(f"{where}missing field {name!r}")
    if type(None) in typing.get_args(hint):  # X | None
        hint = typing.get_args(hint)[0]
    try:
        return _as(hint, record[name], f"{where}{name}")
    except (TypeError, OverflowError, RecursionError):
        raise ParseError(f"{where}field {name!r} is not {_kind(hint)}") from None


def decode(cls, record, where: str = ""):
    """The dataclass cls of a decoded JSON object, each field by
    ``decode_field`` and its type hint. A field the object lacks, or a null
    where the default is None, keeps its default; a field missing without
    one is a ParseError naming ``where``. cls's own checks raise as they do."""
    if not isinstance(record, dict):
        raise ParseError(f"{where}expected a JSON object, got {type(record).__name__}")
    hints, values = _type_hints(cls), {}
    for f in fields(cls):
        absent = record.get(f.name) is None and (f.name not in record or f.default is None)
        if not absent or f.default is MISSING and f.default_factory is MISSING:
            values[f.name] = decode_field(record, f.name, hints[f.name], where)
    return cls(**values)


def read_record(cls, path, what: str):
    """The dataclass cls a JSON file holds, by ``decode``; its ParseError or
    ValidationError names ``what`` and the path."""
    payload = read_json_object(path, what)
    try:
        return decode(cls, payload)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{what} {path}: {exc}") from None


def write_json(path, payload) -> None:
    """Write payload atomically as indented JSON ending in a newline; an
    array is written as its list."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=1, default=np.ndarray.tolist) + "\n")


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """Write rows (header first) atomically as comma-separated lines; a
    float field is its repr and a field holding a comma is quoted."""
    with atomic_open(path, newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


_REQUIRED_FIELDS = ("id", "features", "correct_0", "correct_1", "cost_0", "cost_1")
_record_fields = operator.itemgetter(*_REQUIRED_FIELDS)


def load_dataset(path, format: str | None = None) -> Dataset:
    """Read a JSONL or CSV routing dataset and return it cost-normalized.

    Record order is preserved. Raises ParseError naming the line (and field)
    for undecodable records, ValidationError for invariant violations.
    """
    path = str(path)
    loader = {"jsonl": _load_jsonl, "csv": _load_csv}.get(
        format or ("csv" if path.endswith(".csv") else "jsonl"))
    if loader is None:
        raise ValueError(f"unknown format {format!r}")
    try:
        rows = loader(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ValidationError("dataset is empty")
    _, tags, ids, features, *values = zip(*rows)
    try:  # one conversion per column
        features = np.array(features, dtype=np.float64)
        values = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        features = values = None
    if features is None or features.ndim != 2 or values.ndim != 2 or np.isnan(values).any():
        return Dataset(_row_instance(*row) for row in rows)  # raises the first row's error
    return Dataset.from_columns(map(str, ids), tags, features, values[:2].T, values[2:].T)


def _row_instance(lineno, tag, id_, *fields) -> Instance:
    """One decoded row as an Instance; a value that is not a number is a
    ParseError naming the line and field."""
    values = []
    for name, value in zip(_REQUIRED_FIELDS[1:], fields):
        try:
            values.append(np.asarray(value, dtype=np.float64) if name == "features"
                          else float(value))  # a null would become nan in np.array
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"line {lineno}: field {name!r} is not numeric") from None
    return Instance(str(id_), values[0], values[1:3], values[3:], tag)


def _load_jsonl(path: str) -> list[tuple]:
    """(line, tag, id, features, correct_0, correct_1, cost_0, cost_1) per record."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also too-long integers
                msg = getattr(exc, "msg", exc)
                raise ParseError(f"line {lineno}: invalid JSON ({msg})") from None
            if not isinstance(record, dict):
                raise ParseError(f"line {lineno}: record is not an object")
            try:
                rows.append((lineno, record.get("tag")) + _record_fields(record))
            except KeyError:
                missing = next(f for f in _REQUIRED_FIELDS if f not in record)
                raise ParseError(f"line {lineno}: missing field {missing!r}") from None
    return rows


def _load_csv(path: str) -> list[tuple]:
    """Rows as _load_jsonl gives them, with the values still text."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("line 1: missing CSV header")
        try:
            feat_cols = sorted((c for c in reader.fieldnames if c.startswith("feat_")),
                               key=lambda c: int(c.split("_", 1)[1]))
        except ValueError:
            raise ParseError("line 1: feature columns must be named feat_<index>") from None
        missing = [c for c in ("id", *_REQUIRED_FIELDS[2:]) if c not in reader.fieldnames]
        if missing or not feat_cols:
            raise ParseError(f"line 1: no {(missing or ['feat_*'])[0]} column in header")
        return [(reader.line_num, row.get("tag") or None, row["id"], [row[c] for c in feat_cols],
                 row["correct_0"], row["correct_1"], row["cost_0"], row["cost_1"])
                for row in reader]


def _json_text(value) -> str:
    """json.dumps(value), faster for strings."""
    return json.encoder.encode_basestring_ascii(value) if type(value) is str else json.dumps(value)


def save_dataset(data: Dataset, path, format: str | None = None) -> None:
    """Write raw (unnormalized) records atomically; load_dataset round-trips
    bitwise. Each JSONL line is the ``json.dumps`` of its record."""
    path = str(path)
    if format is None:
        format = "csv" if path.endswith(".csv") else "jsonl"
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}")
    rows = zip(data.ids, data.features.tolist(), data.correct.astype(np.int64).tolist(),
               data.cost_raw.tolist(), data.tags)
    with atomic_open(path, newline="" if format == "csv" else None) as fh:
        if format == "csv":
            writer = csv.writer(fh)
            writer.writerow(["id", *(f"feat_{j}" for j in range(data.n_features)),
                             "correct_0", "correct_1", "cost_0", "cost_1", "tag"])
            writer.writerows([i, *map(repr, f), c0, c1, repr(k0), repr(k1), t or ""]
                             for i, f, (c0, c1), (k0, k1), t in rows)
            return
        # json writes a float as float.__repr__, so a list of floats reprs as its JSON
        tags = ["" if t is None else ', "tag": ' + _json_text(t) for t in data.tags]
        fh.writelines(f'{{"id": {_json_text(i)}, "features": {f!r}, "correct_0": {c0}, '
                      f'"correct_1": {c1}, "cost_0": {k0!r}, "cost_1": {k1!r}{t}}}\n'
                      for (i, f, (c0, c1), (k0, k1), _), t in zip(rows, tags))


# ---------------------------------------------------------------------------
# routing policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabularPolicy:
    """Per-context table of reasoning probabilities, keyed by instance id."""

    table: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.table))  # which write_json can write


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
    return float(policy_probs(policy, Dataset([instance]))[0])


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
        return asdict(self)


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

_POLICY_KINDS = {"tabular": TabularPolicy, "linear": LinearPolicy,
                 "feedforward": FeedForwardPolicy, "constant": ConstantPolicy}


def policy_to_dict(policy: PolicySpec) -> dict:
    """{"kind": ..., **fields}; ``write_json`` writes its arrays as lists."""
    for kind, cls in _POLICY_KINDS.items():
        if isinstance(policy, cls):
            return {"kind": kind, **vars(policy)}
    raise TypeError(f"cannot serialize {type(policy).__name__}")


def policy_from_dict(payload, where: str = "") -> PolicySpec:
    """Inverse of policy_to_dict: the policy of the kind payload names, by
    ``decode``; ParseError naming ``where`` if the weight shapes do not fit."""
    if not isinstance(payload, dict):
        raise ParseError(f"{where}expected a JSON object, got {type(payload).__name__}")
    kind = decode_field(payload, "kind", str, where)
    if kind not in _POLICY_KINDS:
        raise ValidationError(f"unknown policy kind {kind!r}")
    policy = decode(_POLICY_KINDS[kind], payload, where)
    if kind == "linear" and policy.weights.ndim != 1:
        raise ParseError(f"{where}linear policy weights must be a vector")
    if kind == "feedforward":
        ws, bs = policy.weights, policy.biases
        if (any(w.ndim != 2 or b.shape != w.shape[:1] for w, b in zip(ws, bs))
                or any(w.shape[0] != nxt.shape[1] for w, nxt in zip(ws, ws[1:]))
                or ws[-1].shape[0] != 1):
            raise ParseError(f"{where}feedforward policy layer shapes do not chain to one logit")
    return policy
