"""Domain types and evaluation primitives for two-mode judge routing.

Every routing example carries a feature vector, a per-mode correctness
indicator, and a per-mode token cost. Costs are normalized so the instruct
mode (action 0) has mean cost 1; the budget is then a plain cost ratio.
All types are immutable after construction and every function here is pure.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import csv
import functools
import io
import itertools
import json
import math
import operator
import os
import typing
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np


class ParseError(ValueError):
    """A data file could not be decoded (names the offending line)."""


class ValidationError(ValueError):
    """Decoded data violates a domain invariant."""


# ---------------------------------------------------------------------------
# instances and datasets
# ---------------------------------------------------------------------------

# A Dataset row as Dataset(rows) takes it and Dataset.instances gives it
Row = collections.namedtuple("Row", "id features correct cost_raw tag")


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

    def __init__(self, rows: Iterable[tuple], instruct_cost_mean: float | None = None):
        """Dataset of (id, features, correct, cost_raw, tag) rows, such as
        ``instances`` gives, converted and checked as ``load_dataset``'s rows."""
        self.__dict__.update(vars(_from_rows(
            ((f"instance {i!r}", t, i, f, *c, *k) for i, f, c, k, t in rows), instruct_cost_mean)))

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
    def instances(self) -> tuple[Row, ...]:
        """The rows Dataset(rows) takes, built on each access."""
        return tuple(map(Row, self.ids, self.features, self.correct.astype(np.int64).tolist(),
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
        with np.errstate(over="ignore"):  # a cost past the float range is inf
            if instruct_cost_mean is None:
                instruct_cost_mean = float(np.mean(self.cost_raw[:, 0]))
            if not (math.isfinite(instruct_cost_mean) and instruct_cost_mean > 0):
                raise ValidationError("instruct_cost_mean must be positive and finite")
            scaled = copy.copy(self)
            scaled.instruct_cost_mean = float(instruct_cost_mean)
            scaled.cost = _frozen(self.cost_raw / scaled.instruct_cost_mean)
        return scaled

    def require_finite_cost(self, where: str = "") -> "Dataset":
        """This dataset; a ValidationError naming ``where`` and the first
        instance whose costs overflow on its cost scale (a finite raw cost
        over a small instruct_cost_mean) instead."""
        finite = np.logical_and.reduce(np.isfinite(self.cost), axis=1)
        if not np.logical_and.reduce(finite):
            raise ValidationError(f"{where}instance {self.ids[int(np.argmin(finite))]!r}: costs "
                                  f"are not finite on the cost scale {self.instruct_cost_mean!r}")
        return self


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _temporary_path(path) -> Path:
    """The name atomic_open writes ``path`` under until it is complete."""
    return Path(path).with_name(Path(path).name + ".tmp")


@contextlib.contextmanager
def atomic_open(path, newline: str | None = None):
    """Text file written under a temporary name that replaces ``path`` only
    when the block completes: a failed run leaves the previous file intact."""
    tmp = _temporary_path(path)
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


def _indented(value, pad: str = "") -> str:
    """json.dumps(value, indent=1, default=np.ndarray.tolist) for a value at
    indentation pad. A list of plain numbers goes through the C encoder,
    which json.dumps bypasses when it indents: a number's JSON is the same
    either way, and only the separators differ."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    inner, sep = pad + " ", ",\n" + pad + " "
    if type(value) in (list, tuple) and value:
        if all(type(v) is float or type(v) is int for v in value):
            items = json.dumps(value)[1:-1].replace(", ", sep)
        else:
            items = sep.join(_indented(v, inner) for v in value)
        return f"[\n{inner}{items}\n{pad}]"
    if type(value) is dict and value and all(type(k) is str for k in value):
        items = sep.join(f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}{items}\n{pad}}}"
    if value is None or type(value) in (str, int, float, bool):
        return json.dumps(value)  # json's cached encoder; a scalar has no indent
    return json.dumps(value, indent=1, default=np.ndarray.tolist).replace("\n", "\n" + pad)


def encode_float(value):
    """value as a JSON field: infinity is the string "inf", which decode
    reads back as a float; any other value is itself."""
    return "inf" if value == math.inf else value


def write_json(path, payload) -> None:
    """Write payload atomically as indented JSON ending in a newline, the
    bytes of json.dumps(payload, indent=1); an array is written as its list."""
    with atomic_open(path) as fh:
        fh.write(_indented(payload) + "\n")


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """Write rows (header first) atomically as comma-separated lines; a
    float field is its repr and a field holding a comma is quoted."""
    with atomic_open(path, newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


_REQUIRED_FIELDS = ("id", "features", "correct_0", "correct_1", "cost_0", "cost_1")
_record_fields = operator.itemgetter(*_REQUIRED_FIELDS)
# Rows load_dataset and save_dataset hold as Python objects at once: their
# memory does not grow with the file, and the cyclic collector sees one block.
# A block is also the text a save worker sends back; the smaller message leaves
# less memory in the executor's result thread: a pooled 50k-row save and load
# peaked about 1 MB lower in RSS with 1 024 rows than with 4 096.
_BLOCK_ROWS = 1024
# A dataset of at least _POOL_ROWS rows is formatted, and a JSONL file of at
# least _POOL_BYTES bytes decoded, by one worker process per usable CPU. On two
# CPUs the pool broke even at about 10 000 four-feature rows (a 2.3 MB file).
_POOL_ROWS = 16_384
_POOL_BYTES = 4 << 20
# byte ranges per worker a pooled load splits a file into
_RANGES_PER_WORKER = 4


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_dataset(path) -> Dataset:
    """Read a routing dataset, CSV for a ``.csv`` path and else JSONL, cost-normalized.

    Record order is preserved. Raises ParseError naming the line (and field)
    for undecodable records, ValidationError for invariant violations. A file
    numpy cannot convert block by block is read again and converted by row.
    A large JSONL file is decoded by worker processes, one byte range each.
    """
    path = str(path)
    loader = _load_csv if path.endswith(".csv") else _load_jsonl
    try:
        blocks = _pooled_blocks(path) if loader is _load_jsonl else None
        if blocks is None:  # in-process, which also reports a worker's fault
            blocks = _column_blocks(loader(path))
        if not blocks:  # decode every record before converting any, row by row
            return _from_rows((f"line {n}", *row) for n, *row in list(loader(path)))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    ids, tags, features, values = zip(*blocks)
    values = np.concatenate(values, axis=1)
    return Dataset.from_columns(map(str, itertools.chain(*ids)), itertools.chain(*tags),
                                np.concatenate(features), values[:2].T, values[2:].T)


def _pooled_blocks(path: str) -> list[tuple] | None:
    """_column_blocks of a JSONL file of at least _POOL_BYTES bytes, one block
    per byte range: the file is split at line ends into ranges that worker
    processes decode, and equal str tags are one object across ranges. None
    for a smaller file, for one CPU, or at any fault, which load_dataset's
    in-process read then reports."""
    size, workers = os.path.getsize(path), usable_cpus()
    if size < _POOL_BYTES or workers < 2:
        return None
    cuts = {0, size}
    with open(path, "rb") as fh:
        n_ranges = workers * _RANGES_PER_WORKER
        for k in range(1, n_ranges):
            fh.seek(size * k // n_ranges)
            fh.readline()
            cuts.add(fh.tell())
    cuts = sorted(cuts)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # each range joined here as it arrives: the executor's result thread
            # unpickles into a malloc arena of its own, which keeps what is freed
            ranges = [blocks and _joined(blocks) for blocks in
                      pool.map(_range_blocks, itertools.repeat(path), cuts, cuts[1:])]
    except RecursionError:  # a tag nested too deep to send back
        return None
    if any(block is None for block in ranges):
        return None
    blocks = [block for block in ranges if block]
    if len({features.shape[1] for _, _, features, _ in blocks}) > 1:
        return None
    shared = {}
    return [(ids, _shared(tags, shared), features, values)
            for ids, tags, features, values in blocks]


def _joined(blocks: list[tuple]) -> tuple:
    """The blocks of _column_blocks as one block."""
    ids, tags, features, values = zip(*blocks)
    return (tuple(itertools.chain(*ids)), list(itertools.chain(*tags)), np.concatenate(features),
            np.concatenate(values, axis=1))


def _range_blocks(path: str, start: int, stop: int) -> list[tuple] | None:
    """_column_blocks of the records in bytes [start, stop) of a JSONL file;
    None if a record does not decode."""
    try:
        return _column_blocks(_load_jsonl(path, start, stop))
    except ValueError:  # a ParseError, or bytes that are not UTF-8
        return None


def _shared(tags, shared: dict) -> list:
    """tags with each str the first equal one in shared (added if new)."""
    return [shared.setdefault(t, t) if type(t) is str else t for t in tags]


def _column_blocks(rows: Iterator[tuple]) -> list[tuple] | None:
    """(ids, tags, (b, d) features, (4, b) values) of each block of rows; None
    at a block numpy does not convert or of another feature width than block 0.
    Equal str tags are one object, the first one read."""
    blocks, shared = [], {}
    for block in iter(lambda: list(itertools.islice(rows, _BLOCK_ROWS)), []):
        _, tags, ids, features, *values = zip(*block)
        tags = _shared(tags, shared)
        try:  # one conversion per column
            features = np.array(features, dtype=np.float64)
            values = np.array(values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            return None
        if (features.ndim != 2 or values.ndim != 2 or np.isnan(values).any()
                or (blocks and features.shape[1] != blocks[0][2].shape[1])):
            return None
        blocks.append((ids, tags, features, values))
    return blocks


def _from_rows(rows, instruct_cost_mean: float | None = None) -> Dataset:
    """Dataset of decoded rows (where, tag, id, features, correct_0, correct_1,
    cost_0, cost_1), faults taken in row order: a value that is not a number
    is a ParseError naming ``where`` and the field, features that are not a
    1-d vector or a ``from_columns`` fault a ValidationError naming the row.
    A feature width other than the first row's comes after every row's own."""
    ids, tags, features, values, fault = [], [], [], [], None
    try:
        for where, tag, id_, *fields in rows:
            id_, row = str(id_), []
            for name, value in zip(_REQUIRED_FIELDS[1:], fields):
                try:
                    row.append(np.asarray(value, dtype=np.float64) if name == "features"
                               else float(value))  # a null would become nan in np.array
                except (TypeError, ValueError, OverflowError):
                    raise ParseError(f"{where}: field {name!r} is not numeric") from None
            if row[0].ndim != 1:
                raise ValidationError(f"instance {id_!r}: features must be a 1-d vector")
            ids.append(id_)
            tags.append(tag)
            features.append(row[0])
            values.append(row[1:])
    except (ParseError, ValidationError) as exc:
        fault = exc
    widths = [len(f) for f in features]
    if len(set(widths)) > 1:
        # not an (n, widest) array: each row as its largest magnitude, finite
        # exactly when the row is, so from_columns still finds the row's fault
        features = [[np.abs(f).max(initial=0.0)] for f in features]
    values = np.array(values, dtype=np.float64).reshape(-1, 4)
    if ids or fault is None:  # each earlier row's own fault first
        data = Dataset.from_columns(ids, tags, np.array(features, dtype=np.float64),
                                    values[:, :2], values[:, 2:], instruct_cost_mean)
    if fault is not None:
        raise fault
    for i, width in enumerate(widths):
        if width != widths[0]:
            raise ValidationError(f"instance {ids[i]!r}: feature dimension {width} != {widths[0]}")
    return data


def _load_jsonl(path: str, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
    """(line, tag, id, features, correct_0, correct_1, cost_0, cost_1) per
    record in bytes [start, stop) of the file, both at the start of a line
    (by default the whole file); lines are counted from start."""
    scan = json.JSONDecoder().scan_once  # json.loads without its Python-level wrappers
    with open(path, "rb") as raw:
        raw.seek(start)
        text = io.TextIOWrapper(raw if stop is None else io.BytesIO(raw.read(stop - start)),
                                encoding="utf-8")  # lines as open(path, "r") reads them
        for lineno, line in enumerate(text, start=1):
            try:  # one value, then only the whitespace json.loads allows
                record, end = scan(line, 0)
                decoded = not line[end:].strip(" \t\n\r")
            except (StopIteration, ValueError, RecursionError):
                decoded = False
            if not decoded:  # blank, or json.loads accepts it or names the fault
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
                yield (lineno, record.get("tag")) + _record_fields(record)
            except KeyError:
                missing = next(f for f in _REQUIRED_FIELDS if f not in record)
                raise ParseError(f"line {lineno}: missing field {missing!r}") from None


def _load_csv(path: str) -> Iterator[tuple]:
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
        for row in reader:
            yield (reader.line_num, row.get("tag") or None, row["id"], [row[c] for c in feat_cols],
                   row["correct_0"], row["correct_1"], row["cost_0"], row["cost_1"])


def _json_text(value) -> str:
    """json.dumps(value), faster for strings."""
    return json.encoder.encode_basestring_ascii(value) if type(value) is str else json.dumps(value)


def save_dataset(data: Dataset, path) -> None:
    """Write raw (unnormalized) records atomically, as CSV for a ``.csv`` path,
    else JSONL; load_dataset round-trips bitwise. Each JSONL line is the
    ``json.dumps`` of its record. A dataset of at least _POOL_ROWS rows is
    formatted by worker processes, one block each; the bytes are the same."""
    as_csv = str(path).endswith(".csv")
    with atomic_open(path, newline="" if as_csv else None) as fh:
        if as_csv:
            csv.writer(fh).writerow(["id", *(f"feat_{j}" for j in range(data.n_features)),
                                     "correct_0", "correct_1", "cost_0", "cost_1", "tag"])
        workers = usable_cpus()
        if len(data) >= _POOL_ROWS and workers > 1:
            start = fh.tell()
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    fh.writelines(pool.map(_block_text, *zip(*_blocks(data, as_csv))))
                return
            except RecursionError:  # an id or tag nested too deep to send to a worker
                fh.seek(start)
                fh.truncate()
        fh.writelines(itertools.starmap(_block_text, _blocks(data, as_csv)))


def _blocks(data: Dataset, as_csv: bool) -> Iterator[tuple]:
    """_block_text's arguments for each block of _BLOCK_ROWS rows."""
    for start in range(0, len(data), _BLOCK_ROWS):
        b = slice(start, start + _BLOCK_ROWS)
        yield as_csv, data.ids[b], data.tags[b], data.features[b], data.correct[b], data.cost_raw[b]


def _block_text(as_csv: bool, ids, tags, features, correct, cost_raw) -> str:
    """The CSV or JSONL lines save_dataset writes for these rows."""
    rows = zip(ids, features.tolist(), correct.astype(np.int64).tolist(), cost_raw.tolist(), tags)
    if as_csv:
        text = io.StringIO()
        csv.writer(text).writerows([i, *map(repr, f), c0, c1, repr(k0), repr(k1), t or ""]
                                   for i, f, (c0, c1), (k0, k1), t in rows)
        return text.getvalue()
    # json writes a float as float.__repr__, so a list of floats reprs as its JSON
    tags = ("" if t is None else ', "tag": ' + _json_text(t) for t in tags)
    return "".join(f'{{"id": {_json_text(i)}, "features": {f!r}, "correct_0": {c0}, '
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
        for key, p in self.table.items():
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"context {key!r}: probability must lie in [0, 1], got {p!r}")


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
    return _sigmoid(np.asarray(x, dtype=np.float64))[0]


# 1.0 as a 0-d float64 array: a ufunc takes it faster than the Python float
_ONE = np.ones(())


def _sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid of a float64 array and the e = exp(-|x|) it is built from;
    log1p(e) is the softplus(-|x|) that the entropy term needs."""
    e = np.exp(np.minimum(x, -x))  # exp(-|x|); a NaN passes through unchanged
    # (1 if x >= 0 else e) / (1 + e); np.where would cost more on small arrays
    return np.divide(np.maximum(e, np.heaviside(x, _ONE)), _ONE + e), e


def _params(policy: PolicySpec) -> list[np.ndarray]:
    """Writable copies of a policy's arrays, each layer's weights then bias."""
    if isinstance(policy, LinearPolicy):
        return [policy.weights.copy(), np.array([policy.bias])]
    if isinstance(policy, FeedForwardPolicy):
        return [a.copy() for layer in zip(policy.weights, policy.biases) for a in layer]
    raise TypeError(f"{type(policy).__name__} has no trainable parameters")


def _forward(params: Sequence[np.ndarray], kind: str, x: np.ndarray):
    """Logits (R, B) of a stack of R replicas, each parameter with a leading
    replica axis and x of shape (R, B, d), and the layer inputs the trainer's
    backward pass needs. Each replica gets bitwise the numbers it gets alone.
    Each layer's output is one array: the matmul's, to which the bias is
    added (and, in a hidden layer, ReLU applied) in place."""
    acts = [x]
    h = x
    for w, b in zip(params[0:-2:2], params[1:-2:2]):
        h = h @ w.transpose(0, 2, 1)
        h += b[:, None, :]
        acts.append(np.maximum(h, 0.0, out=h))
    w = params[0][:, :, None] if kind == "linear" else params[-2].transpose(0, 2, 1)
    u = (h @ w)[..., 0]
    u += params[-1]
    return u, tuple(acts)


def policy_probs(policy: PolicySpec, data: Dataset) -> np.ndarray:
    """Vector of pi(1|z) over a dataset, in instance order."""
    if isinstance(policy, ConstantPolicy):
        return np.full(len(data), policy.p_reason)
    if isinstance(policy, TabularPolicy):
        try:
            return np.array([policy.table[i] for i in data.ids], dtype=np.float64)
        except KeyError as exc:
            raise ValidationError(f"unknown context id {exc.args[0]!r}") from None
    linear, params = isinstance(policy, LinearPolicy), _params(policy)
    if data.n_features != params[0].shape[-1]:
        raise ValidationError(f"feature dimension {data.n_features} != policy "
                              f"{'dimension' if linear else 'input'} {params[0].shape[-1]}")
    u, _ = _forward([a[None] for a in params], "linear" if linear else "feedforward",
                    data.features[None])
    return sigmoid(u[0])


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
    if not 0 <= int(seed) <= mask:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
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


def _expected(p: np.ndarray, correct: np.ndarray, cost: np.ndarray):
    """(accuracy, realized cost, reasoning rate) of reasoning probabilities p
    (..., n) on flags and costs (..., n, 2): row means of (1 - p) * v0 + p * v1
    as np.add.reduce / n, bitwise ndarray.mean, per leading (replica) index."""
    q, n = 1.0 - p, p.shape[-1]
    return tuple(np.add.reduce(v, axis=-1) / n for v in
                 (q * correct[..., 0] + p * correct[..., 1], q * cost[..., 0] + p * cost[..., 1], p))


def evaluate_policy(policy: PolicySpec, data: Dataset, mode: str = "expected",
                    seed: int = 0) -> Metrics:
    """Accuracy / realized cost / reasoning rate of a policy on a dataset.

    ``expected`` averages over the policy distribution analytically;
    ``sampled`` draws one action per instance from a counter-based generator
    keyed by (seed, instance index), so it is a pure function of the seed.
    A drawn action is a reasoning probability of exactly 0 or 1.
    """
    if mode not in ("expected", "sampled"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    p = policy_probs(policy, data)
    if mode == "sampled":
        p = (counter_uniforms(seed, len(data)) < p).astype(np.float64)
    return Metrics(*map(float, _expected(p, data.correct, data.cost)))


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
