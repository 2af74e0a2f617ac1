"""The columnar Dataset, its generator, loaders and writers, held bitwise
equal to the per-row reference path in ``oracles``."""

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RowInstance,
    row_columns,
    row_gen_synthetic,
    row_load,
    row_save,
    row_shift_scenarios,
)
from racer.core import (
    Dataset,
    Instance,
    ParseError,
    ValidationError,
    atomic_open,
    load_dataset,
    save_dataset,
)
from racer.evalbench import PRESET_SCENARIOS, gen_synthetic, load_scenario, shift_scenarios

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ARRAYS = ("features", "correct", "cost_raw", "cost")


def assert_columns_equal(data: Dataset, cols: dict):
    """Same ids, tags and scale, and bit-for-bit the same C-ordered arrays."""
    assert data.ids == cols["ids"]
    assert data.tags == cols["tags"]
    assert data.instruct_cost_mean.hex() == cols["instruct_cost_mean"].hex()
    for name in ARRAYS:
        got, want = getattr(data, name), np.ascontiguousarray(cols[name])
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert not got.flags.writeable
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def columns_of(data: Dataset) -> dict:
    return {"ids": data.ids, "tags": data.tags, "instruct_cost_mean": data.instruct_cost_mean,
            **{name: getattr(data, name) for name in ARRAYS}}


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

ALL_SCENARIOS = {**PRESET_SCENARIOS,
                 **{p.name: load_scenario(p) for p in sorted(SCENARIOS.glob("*.json"))}}


@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
@pytest.mark.parametrize("apply_shift", [False, True])
def test_gen_synthetic_matches_row_generator(name, apply_shift):
    for seed in (0, 7):
        scenario = replace(ALL_SCENARIOS[name], n=600, seed=seed)
        assert_columns_equal(gen_synthetic(scenario, apply_shift=apply_shift),
                             row_gen_synthetic(scenario, apply_shift=apply_shift))


@pytest.mark.parametrize("name", ["separable3", "shift-up", "shift-down"])
def test_shift_scenarios_match_row_generator(name):
    base = replace(PRESET_SCENARIOS[name], n=500)
    for got, want in zip(shift_scenarios(base, n_test=300),
                         row_shift_scenarios(base, n_test=300)):
        assert_columns_equal(got, want)


def test_gen_synthetic_200k_rows_is_fast():
    # ~3.7 s when each row was an Instance; columns take well under 0.3 s.
    import time
    scenario = replace(PRESET_SCENARIOS["magpie-ultra"], n=200_000)
    gen_synthetic(replace(scenario, n=1000))
    start = time.perf_counter()
    data = gen_synthetic(scenario)
    assert len(data) == 200_000
    assert time.perf_counter() - start < 1.5  # generous: a loaded host is slower


# ---------------------------------------------------------------------------
# random datasets: writers and round trips
# ---------------------------------------------------------------------------

_special_text = st.text(
    st.one_of(st.sampled_from(['"', "\\", "'", ",", "é", "Ω", " ", "😀", "\t", " "]),
              st.characters(blacklist_categories=("Cs",))),
    min_size=1, max_size=6)
_feature = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.1, 1e-300]),
    st.floats(allow_nan=False, allow_infinity=False))
_cost = st.one_of(st.sampled_from([5e-324, 1e-300, 0.1, 3.0, 1e300]),
                  st.floats(min_value=5e-324, max_value=1e300))


@st.composite
def row_instances(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 8))
    ids = draw(st.lists(_special_text, min_size=n, max_size=n))
    return [RowInstance(id=ids[i],
                        features=np.array(draw(st.lists(_feature, min_size=d, max_size=d))),
                        correct=(draw(st.integers(0, 1)), draw(st.integers(0, 1))),
                        cost_raw=(draw(_cost), draw(_cost)),
                        tag=draw(st.one_of(st.none(), _special_text)))
            for i in range(n)]


def to_columns(instances):
    return Dataset.from_columns([i.id for i in instances], [i.tag for i in instances],
                                np.stack([i.features for i in instances]),
                                [i.correct for i in instances], [i.cost_raw for i in instances])


# tiny instruct costs put large reasoning costs past the float range
OVERFLOW_OK = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


@OVERFLOW_OK
@settings(max_examples=150, deadline=None)
@given(instances=row_instances(), fmt=st.sampled_from(["jsonl", "csv"]))
def test_writers_match_row_writer_and_round_trip(instances, fmt):
    data = to_columns(instances)
    assert_columns_equal(data, row_columns(instances))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / f"got.{fmt}", Path(tmp) / f"want.{fmt}"
        save_dataset(data, got)
        row_save(instances, want, fmt)
        assert got.read_bytes() == want.read_bytes()
        assert_columns_equal(load_dataset(got), columns_of(data))
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp))


def test_jsonl_line_is_json_dumps_of_the_record(tmp_path):
    data = Dataset([RowInstance("a\"b\\é", np.array([-0.0, 5e-324]), (1, 0), (0.1, 2.5), None),
                    RowInstance("x", np.array([1.0, 2.0]), (0, 1), (3.0, 7.0), "t")])
    path = tmp_path / "d.jsonl"
    save_dataset(data, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == json.dumps({"id": "a\"b\\é", "features": [-0.0, 5e-324], "correct_0": 1,
                                   "correct_1": 0, "cost_0": 0.1, "cost_1": 2.5})
    assert lines[1].endswith(', "tag": "t"}')


# ---------------------------------------------------------------------------
# loaders against the per-row loader
# ---------------------------------------------------------------------------

# (accepted values, odd ones) per field; odd values are drawn one time in 25
_FIELD_VALUES = {
    "correct_0": (st.sampled_from([0, 1, True, False, 0.0, 1.0, -0.0, "1", "0", " +1"]),
                  st.sampled_from([0.5, 2, -1, "x", "1.0", None, [1], math.nan])),
    "correct_1": (st.sampled_from([0, 1, True, 1.0, -0.0, "0"]), st.sampled_from([0.999, 10**400])),
    "cost_0": (st.one_of(st.floats(1e-3, 1e6), st.integers(1, 10**30),
                         st.sampled_from(["2.5", "1_0", " 7 ", True])),
               st.sampled_from([0, -1.5, math.inf, "inf", "x", "", None, [2.0], 10**400])),
    "cost_1": (st.floats(5e-324, 1e300), st.sampled_from([math.nan, {}, "nan"])),
    "features": (st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                    st.integers(-5, 10**20),
                                    st.sampled_from(["1.5", True, -0.0])),
                          min_size=2, max_size=2),
                 st.one_of(st.lists(st.floats(-3, 3), max_size=3),  # ragged
                           st.sampled_from(["xy", "12", 5, [[1.0, 2.0]], [1, None], None,
                                            {"a": 1}, [1, [2]], ["x", 1]]))),
}


@st.composite
def record_files(draw):
    """Text of a JSONL file whose records mix well-typed and odd values."""
    lines = []
    for i in range(draw(st.integers(1, 5))):
        record = {"id": draw(st.one_of(st.just(f"r{i}"), st.integers(0, 9), _special_text))}
        for field, (accepted, odd) in _FIELD_VALUES.items():
            record[field] = draw(odd if draw(st.integers(0, 24)) == 0 else accepted)
        tag = draw(st.one_of(st.none(), st.just("t"), _special_text, st.integers(), st.just([1])))
        if tag is not None:
            record["tag"] = tag
        if draw(st.integers(0, 19)) == 0:
            del record[draw(st.sampled_from(sorted(record)))]
        lines.append(json.dumps(record))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    return "\n".join(lines) + "\n"


def _non_integral_flag(path):
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for key in ("correct_0", "correct_1"):
                value = record[key]
                if not isinstance(value, str) and value != int(value):
                    return True
    return False


@settings(max_examples=300, deadline=None)
@given(text=record_files())
def test_loader_matches_row_loader_on_every_accepted_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            want = row_load(path, "jsonl")
        except (ValueError, TypeError, OverflowError):
            # The per-row loader rejects the file (some of its errors escaped
            # as raw TypeErrors); the columnar one must reject it cleanly or
            # accept values the per-row one could not convert.
            try:
                load_dataset(path)
            except (ParseError, ValidationError):
                pass
            return
        if _non_integral_flag(path):
            # the per-row loader truncated a flag such as 0.5 to 0
            with pytest.raises(ValidationError, match="correct flags must be 0 or 1"):
                load_dataset(path)
            return
        assert_columns_equal(load_dataset(path), want)


@OVERFLOW_OK
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_special_text, st.lists(_feature, min_size=2, max_size=2),
                               st.sampled_from(["0", "1", " 1", "+0"]),
                               st.sampled_from(["0", "1"]), _cost, _cost,
                               st.one_of(st.just(""), _special_text)),
                     min_size=1, max_size=5))
def test_csv_loader_matches_row_loader(rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["id", "feat_1", "feat_0", "correct_0", "correct_1", "cost_0", "cost_1",
                     "tag"])
    for i, f, c0, c1, k0, k1, tag in rows:
        writer.writerow([i, repr(f[1]), repr(f[0]), c0, c1, repr(k0), repr(k1), tag])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(buf.getvalue(), encoding="utf-8", newline="")
        assert_columns_equal(load_dataset(path), row_load(path, "csv"))


@pytest.mark.parametrize("line, error, message", [
    ('{"id": "a", "features": "xy", "correct_0": 1, "correct_1": 0, "cost_0": 1, "cost_1": 2}',
     ParseError, "line 2: field 'features' is not numeric"),
    ('{"id": "a", "features": [1, 2], "correct_0": "x", "correct_1": 0, "cost_0": 1, "cost_1": 2}',
     ParseError, "line 2: field 'correct_0' is not numeric"),
    ('{"id": "a", "features": [1, 2], "correct_0": 1, "correct_1": 0, "cost_0": null, '
     '"cost_1": 2}', ParseError, "line 2: field 'cost_0' is not numeric"),
    ('{"id": "a", "features": [1, 2], "correct_0": 0.5, "correct_1": 0, "cost_0": 1, "cost_1": 2}',
     ValidationError, "instance 'a': correct flags must be 0 or 1"),
    ('{"id": "a", "features": [1, 2, 3], "correct_0": 1, "correct_1": 0, "cost_0": 1, '
     '"cost_1": 2}', ValidationError, "instance 'a': feature dimension 3 != 2"),
    ('{"id": "a", "features": [[1, 2]], "correct_0": 1, "correct_1": 0, "cost_0": 1, '
     '"cost_1": 2}', ValidationError, "instance 'a': features must be a 1-d vector"),
    ('{"id": "a", "features": [1, 2], "correct_0": 1, "correct_1": 0, "cost_0": 1e400, '
     '"cost_1": 2}', ValidationError, "instance 'a': costs must be positive and finite"),
    ('{"id": "a", "features": [1, NaN], "correct_0": 1, "correct_1": 0, "cost_0": 1, '
     '"cost_1": 2}', ValidationError, "instance 'a': non-finite feature value"),
    ('{"id": "a", "features": [1, 2], "correct_0": 1, "correct_1": 0, "cost_0": 1, '
     '"cost_1": 1' + "0" * 5000 + "}", ParseError, "line 2: invalid JSON"),
])
def test_bad_second_record(tmp_path, line, error, message):
    path = tmp_path / "d.jsonl"
    good = {"id": "ok", "features": [0.0, 1.0], "correct_0": 1, "correct_1": 1,
            "cost_0": 1.0, "cost_1": 2.0}
    path.write_text(json.dumps(good) + "\n" + line + "\n")
    with pytest.raises(error, match=message.replace("(", r"\(").replace("[", r"\[")):
        load_dataset(path)


def test_first_offending_row_is_named(tmp_path):
    # row order decides, not the kind of fault
    ids = ["a", "b", "c"]
    with pytest.raises(ValidationError, match="instance 'b': costs"):
        Dataset.from_columns(ids, [None] * 3, [[0.0], [0.0], [math.nan]],
                             [[1, 1], [1, 1], [1, 1]], [[1.0, 2.0], [1.0, -2.0], [1.0, 2.0]])
    with pytest.raises(ValidationError, match="instance 'c': correct"):
        Dataset.from_columns(ids, [None] * 3, [[0.0]] * 3,
                             [[1, 1], [1, 1], [2, 1]], [[1.0, 2.0]] * 3)


def test_bad_column_shapes_and_scale():
    with pytest.raises(ValidationError, match="empty"):
        Dataset.from_columns([], [], np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValidationError, match="columns"):
        Dataset.from_columns(["a"], [None], [1.0, 2.0], [[1, 0]], [[1.0, 2.0]])
    with pytest.raises(ValidationError, match="columns"):
        Dataset.from_columns(["a", "b"], [None], [[1.0]] * 2, [[1, 0]] * 2, [[1.0, 2.0]] * 2)
    data = Dataset.from_columns(["a"], [None], [[1.0]], [[1, 0]], [[1.0, 2.0]])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="instruct_cost_mean"):
            data.with_cost_scale(bad)


def test_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"id": "\xff"}\n')
    with pytest.raises(ParseError, match="not UTF-8"):
        load_dataset(path)
    path = tmp_path / "d.csv"
    path.write_bytes(b"id,feat_x\n")
    with pytest.raises(ParseError, match="feat_<index>"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# subset, with_cost_scale, instances
# ---------------------------------------------------------------------------

@OVERFLOW_OK
@settings(max_examples=100, deadline=None)
@given(instances=row_instances(), data=st.data())
def test_subset_and_scale_match_instance_rebuilds(instances, data):
    full = to_columns(instances)
    n = len(instances)
    idx = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=8))
    picked = [instances[i] for i in idx]
    assert_columns_equal(full.subset(idx),
                         row_columns(picked, instruct_cost_mean=full.instruct_cost_mean))
    rows = full.instances
    assert_columns_equal(full.subset(np.array(idx)),
                         columns_of(Dataset([rows[i] for i in idx],
                                            instruct_cost_mean=full.instruct_cost_mean)))
    scale = data.draw(st.floats(min_value=1e-3, max_value=1e3))
    scaled = full.with_cost_scale(scale)
    assert_columns_equal(scaled, row_columns(instances, instruct_cost_mean=scale))
    assert_columns_equal(scaled, columns_of(Dataset(rows, instruct_cost_mean=scale)))
    for name in ("features", "correct", "cost_raw"):  # shared, not copied
        assert np.shares_memory(getattr(scaled, name), getattr(full, name))
    assert_columns_equal(scaled.with_cost_scale(None), columns_of(full))


def test_instances_are_built_from_the_columns():
    data = gen_synthetic(replace(PRESET_SCENARIOS["separable3"], n=50))
    rows = data.instances
    assert all(isinstance(r, Instance) for r in rows)
    assert tuple(r.id for r in rows) == data.ids
    assert tuple(r.tag for r in rows) == data.tags
    assert all(type(c) is int for r in rows for c in r.correct)
    assert_columns_equal(Dataset(rows), columns_of(data))


def test_instance_rejects_non_integral_flags():
    with pytest.raises(ValidationError, match="correct flags"):
        Instance("a", np.zeros(2), (0.5, 1), (1.0, 2.0))
    assert Instance("a", np.zeros(2), (1.0, True), (1.0, 2.0)).correct == (1, 1)


def test_atomic_open_keeps_previous_file_on_failure(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("new")
            raise RuntimeError("killed")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]
    with atomic_open(path) as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["out.txt"]
