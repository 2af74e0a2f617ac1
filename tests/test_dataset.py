"""The columnar Dataset, its generator, loaders and writers, held bitwise
equal to the per-row reference path in ``oracles``."""

import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import racer.core
from helpers import make_instance
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
    data = to_columns([RowInstance("a\"b\\é", np.array([-0.0, 5e-324]), (1, 0), (0.1, 2.5), None),
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
    for i in range(draw(st.integers(1, 9))):
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


@contextlib.contextmanager
def io_pool(pooled: bool, workers: int = 2):
    """Inside it, load_dataset and save_dataset use worker processes at
    every size, as on ``workers`` CPUs, or never. Yields the number of tasks
    of each pool map."""
    tasks = []

    class Pool(ProcessPoolExecutor):
        def map(self, fn, *iterables):
            args = list(zip(*iterables))
            tasks.append(len(args))
            return super().map(fn, *zip(*args))

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_POOL_ROWS", "_POOL_BYTES"):
            mp.setattr(racer.core, name, 1 if pooled else math.inf)
        mp.setattr(racer.core, "usable_cpus", lambda: workers)
        mp.setattr(racer.core, "ProcessPoolExecutor", Pool)
        yield tasks


@contextlib.contextmanager
def block_rows(rows):
    """load_dataset and save_dataset work in blocks of rows inside it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(racer.core, "_BLOCK_ROWS", rows)
        yield


# block size 2 puts block seams inside the drawn files
_block_sizes = st.sampled_from([2, racer.core._BLOCK_ROWS])


@settings(max_examples=300, deadline=None)
@given(text=record_files(), block=_block_sizes)
def test_loader_matches_row_loader_on_every_accepted_file(text, block):
    with tempfile.TemporaryDirectory() as tmp, block_rows(block):
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
                     min_size=1, max_size=9),
       block=_block_sizes)
def test_csv_loader_matches_row_loader(rows, block):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["id", "feat_1", "feat_0", "correct_0", "correct_1", "cost_0", "cost_1",
                     "tag"])
    for i, f, c0, c1, k0, k1, tag in rows:
        writer.writerow([i, repr(f[1]), repr(f[0]), c0, c1, repr(k0), repr(k1), tag])
    with tempfile.TemporaryDirectory() as tmp, block_rows(block):
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


_CSV_HEADER = "id,feat_0,correct_0,correct_1,cost_0,cost_1\n"


@pytest.mark.parametrize("name, text, error, message", [
    ("d.jsonl", '{"id": "a"}\n', ParseError, "line 1: missing field 'features'"),
    ("d.jsonl", '{"id": "a", "features": [1.0], "correct_0": 0.5, "correct_1": 0, '
     '"cost_0": 1, "cost_1": 2}\n', ValidationError, "instance 'a': correct flags must be 0 or 1"),
    ("d.jsonl", "", ValidationError, "dataset is empty"),
    ("d.csv", _CSV_HEADER.replace("feat_0", "feat_1"), ParseError,
     "line 1: feature columns must be exactly feat_0..feat_<d-1>"),
    ("d.csv", _CSV_HEADER + "a,x,1,0,1,2\n", ParseError, "line 2: field 'features' is not numeric"),
    ("d.csv", _CSV_HEADER + "a,1,1,0,1,-2\n", ValidationError,
     "instance 'a': costs must be positive and finite"),
], ids=["missing-field", "flag", "empty", "csv-header", "csv-text-feature", "csv-cost"])
def test_every_fault_names_the_file(tmp_path, name, text, error, message):
    # each used to name only the line or the instance
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(error) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# block seams: load_dataset and save_dataset in blocks of _BLOCK_ROWS rows
# ---------------------------------------------------------------------------

def record_line(i, **fields) -> str:
    return json.dumps({"id": f"r{i}", "features": [float(i), 1.0], "correct_0": 1,
                       "correct_1": i % 2, "cost_0": 1.0 + i, "cost_1": 2.0, **fields})


def write_records(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_json_fault_in_a_later_block_beats_a_non_numeric_first_row(tmp_path):
    lines = [record_line(i) for i in range(6)]
    lines[0] = record_line(0, features="xy")
    lines[4] = lines[4][:-1]  # line 5, in block 3
    path = write_records(tmp_path / "d.jsonl", lines)
    with block_rows(2), pytest.raises(ParseError, match="line 5: invalid JSON"):
        load_dataset(path)
    lines[4] = record_line(4)
    write_records(path, lines)
    with block_rows(2), pytest.raises(ParseError, match="line 1: field 'features'"):
        load_dataset(path)


@pytest.mark.parametrize("wide", [[4], [4, 5]], ids=["ragged-block", "wide-block"])
def test_feature_width_change_in_a_later_block_names_the_row(tmp_path, wide):
    lines = [record_line(i, features=[0.0, 1.0, 2.0] if i in wide else [0.0, 1.0])
             for i in range(6)]
    path = write_records(tmp_path / "d.jsonl", lines)
    with block_rows(2), pytest.raises(ValidationError,
                                      match="instance 'r4': feature dimension 3 != 2"):
        load_dataset(path)


def test_row_faults_come_in_row_order_and_before_a_feature_width(tmp_path):
    wide, bad_cost, bad_text = (record_line(1, features=[0.0, 1.0, 2.0]),
                                record_line(2, cost_0=-1.0), record_line(3, features="xy"))
    for lines, error, message in [
            ([wide, bad_cost, bad_text], ValidationError, "instance 'r2': costs must be positive"),
            ([wide, record_line(2), bad_text], ParseError,
             "line 4: field 'features' is not numeric"),
            ([wide, record_line(2), record_line(3)], ValidationError,
             "instance 'r1': feature dimension 3 != 2")]:
        path = write_records(tmp_path / "d.jsonl", [record_line(0), *lines])
        with pytest.raises(error, match=message):
            load_dataset(path)
    with pytest.raises(ParseError, match="instance 'a': field 'features' is not numeric"):
        Dataset([("a", "xy", (1, 1), (1.0, 2.0), None)])


def test_one_wide_row_does_not_widen_every_row(tmp_path):
    # rows of several widths padded to the widest would take 40 MB here
    import tracemalloc
    lines = [record_line(i) for i in range(1000)] + [record_line(1000, features=[0.5] * 5000)]
    path = write_records(tmp_path / "d.jsonl", lines)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="instance 'r1000': feature dimension 5000 != 2"):
            load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, peak


@pytest.mark.parametrize("block", [2, 4096])
def test_value_numpy_may_reject_in_a_later_block_loads_as_the_row_loader(tmp_path, block):
    # numpy before 2.0 does not convert these strings, which float() reads
    lines = [record_line(i) for i in range(6)]
    lines[5] = record_line(5, cost_0="1_0", correct_1=" 1 ", features=["١", 2.5])
    path = write_records(tmp_path / "d.jsonl", lines)
    with block_rows(block):
        assert_columns_equal(load_dataset(path), row_load(path, "jsonl"))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_save_is_byte_identical_at_every_block_size(tmp_path, fmt):
    data = to_columns(
        [RowInstance(f"r{i}", np.array([i / 3, -0.0]), (i % 2, 1), (0.1 * (i + 1), 2.5),
                     None if i % 3 else f"t,{i}") for i in range(7)])
    written = []
    for block in (1, 2, 4096):
        path = tmp_path / f"{block}.{fmt}"
        with block_rows(block):
            save_dataset(data, path)
        written.append(path.read_bytes())
    row_save(data.instances, tmp_path / f"row.{fmt}", fmt)
    assert written == [(tmp_path / f"row.{fmt}").read_bytes()] * 3


_GOOD = record_line(0)


@pytest.mark.parametrize("line, outcome", [
    ("\ufeff" + _GOOD, "line 3: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ("   " + _GOOD, None),
    (_GOOD + " \t\r", None),  # \r\n ends the line
    ("\f", None),  # a blank line, skipped
    (_GOOD + "\f", "line 3: invalid JSON (Extra data)"),
    ("1 2", "line 3: invalid JSON (Extra data)"),
    (_GOOD + " x", "line 3: invalid JSON (Extra data)"),
    ("{", "line 3: invalid JSON (Expecting property name enclosed in double quotes)"),
    ("[" * 100_000, "line 3: invalid JSON (maximum recursion depth exceeded"),
    ("[1, 2]", "line 3: record is not an object"),
    ('"x"', "line 3: record is not an object"),
    (record_line(1, cost_1=math.nan), "instance 'r1': costs must be positive and finite"),
    (record_line(1, features=[math.inf, 0.0]), "instance 'r1': non-finite feature value"),
], ids=["bom", "leading-spaces", "crlf", "form-feed-line", "trailing-form-feed",
        "extra-value", "extra-text", "bad-json", "deep-nesting", "array", "string",
        "nan-literal", "infinity-literal"])
def test_line_decoding_keeps_the_json_loads_outcome(tmp_path, line, outcome):
    # line 2 is blank, so the line under test is line 3
    path = write_records(tmp_path / "d.jsonl", [record_line(9), "", line, record_line(8)])
    if outcome is None:
        want = ("r9", "r0", "r8") if line.strip() else ("r9", "r8")
        assert load_dataset(path).ids == want
        return
    error = ValidationError if outcome.startswith("instance") else ParseError
    with pytest.raises(error) as caught:
        load_dataset(path)
    assert str(caught.value).startswith(f"{path}: {outcome}")


def check_io_memory(tmp_path, n=10_000):
    # A row held as Python objects costs ~0.5 kB: with all 10k alive at once
    # (every block's text joined before the write, every row read before
    # numpy converts any) the peaks were 4.7 MB on save and 5.8 / 8.4 MB on
    # JSONL / CSV load, against 1.0 and 3.0 / 3.0 MB here. The loaded
    # dataset itself holds 2.2 MB. The bounds are 1 MB and 100 B (save) or
    # 380 B (load) per row: 6 and 20 MB at 50k rows, where the peaks were
    # 23 and 29 / 42 MB with every row held and 1.7 and 14 / 14 MB without.
    import tracemalloc
    data = gen_synthetic(replace(PRESET_SCENARIOS["magpie-ultra"], n=n))
    save_dataset(data, tmp_path / "d.csv")  # the same blocks as JSONL: traced once
    peaks = {}
    tracemalloc.start()
    try:
        save_dataset(data, tmp_path / "d.jsonl")
        peaks["save"] = tracemalloc.get_traced_memory()[1]
        for fmt in ("jsonl", "csv"):
            tracemalloc.reset_peak()
            assert load_dataset(tmp_path / f"d.{fmt}").ids == data.ids
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    save_bound, load_bound = 1e6 + 100 * n, 1e6 + 380 * n
    assert (peaks["save"] <= save_bound and peaks["jsonl"] <= load_bound
            and peaks["csv"] <= load_bound), peaks


def test_io_memory_does_not_hold_every_row(tmp_path):
    # the rows are written, and the JSONL file read, by worker processes
    with io_pool(True):
        check_io_memory(tmp_path)


def test_io_memory_does_not_hold_every_row_in_process(tmp_path):
    with io_pool(False):
        check_io_memory(tmp_path)


def test_worker_memory_does_not_hold_every_row_of_its_range(tmp_path):
    # The pooled guard above traces only the parent. This runs a worker's
    # body in-process on one byte range of 10k rows cut at line ends. The
    # worker holds its range's bytes (~235 B a row) by design; a worker that
    # kept every row of its range before converting any peaked at 7.1 MB at
    # 10k rows and 14.4 MB at 20k, against 4.5 and 8.1 MB here.
    import tracemalloc
    n, skip = 10_000, 1_000
    path = tmp_path / "d.jsonl"
    save_dataset(gen_synthetic(replace(PRESET_SCENARIOS["magpie-ultra"], n=n + 2 * skip)), path)
    with open(path, "rb") as fh:
        ends = np.cumsum([len(line) for line in fh])
    start, stop = int(ends[skip - 1]), int(ends[skip + n - 1])
    tracemalloc.start()
    try:
        blocks = racer.core._range_blocks(str(path), start, stop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(ids) for ids, *_ in blocks) == n
    assert peak <= 1e6 + 420 * n, peak


@pytest.mark.parametrize("bad", [
    b'{"id": "x", "features": [1.0\n',
    b'{"id": "x", "features": [1.0], "correct_0": 1, "correct_1": 0, "cost_0": 1.0}\n',
    b'{"id": "\xff", "features": [1.0], "correct_0": 1, "correct_1": 0, "cost_0": 1.0, '
    b'"cost_1": 2.0}\n',
], ids=["bad-json", "missing-field", "not-utf-8"])
def test_range_blocks_is_none_for_a_range_that_does_not_decode(tmp_path, bad):
    # a worker's body, run in-process: a fault in its range is None, which
    # sends load_dataset to the in-process read that reports it
    good = b"".join(json.dumps({"id": f"r{i}", "features": [float(i), -1.0], "correct_0": 1,
                                "correct_1": 0, "cost_0": 1.5, "cost_1": 4.0}).encode() + b"\n"
                    for i in range(3))
    path = tmp_path / "d.jsonl"
    path.write_bytes(good + bad + good)
    (ids, tags, features, values), = racer.core._range_blocks(str(path), 0, len(good))
    assert ids == ("r0", "r1", "r2") and tags == [None] * 3
    assert features.tolist() == [[0.0, -1.0], [1.0, -1.0], [2.0, -1.0]]
    assert values.tolist() == [[1.0] * 3, [0.0] * 3, [1.5] * 3, [4.0] * 3]
    for start, stop in ((len(good), len(good + bad)), (0, len(good + bad + good))):
        assert racer.core._range_blocks(str(path), start, stop) is None
    assert racer.core._range_blocks(str(path), len(good + bad), len(good + bad + good))


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    # os.sched_getaffinity is Linux-only; elsewhere the CPU count, which
    # os.cpu_count() gives as None when it cannot tell, is then taken as 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert racer.core.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert racer.core.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert racer.core.usable_cpus() == 1


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_equal_str_tags_load_as_one_object(tmp_path, fmt):
    # a 50k-row magpie-ultra file loaded as 50 000 copies of its one tag
    # (3 MB); tags that are not strings load as they are
    tags = ["math", "code", None, "math", "code", "math"]
    if fmt == "jsonl":
        tags += [7, [1], 7, [1], "math"]
    data = Dataset([make_instance(i, [float(i)], (0, 1), (1.0, 2.0), tag)
                    for i, tag in enumerate(tags)])
    save_dataset(data, tmp_path / f"d.{fmt}")
    with block_rows(2):  # equal tags in different blocks
        loaded = load_dataset(tmp_path / f"d.{fmt}")
    assert loaded.tags == data.tags
    distinct = {id(t) for t in loaded.tags if type(t) is str}
    assert len(distinct) == 2
    assert [type(t) for t in loaded.tags] == [type(t) for t in tags]
    lists = [t for t in loaded.tags if type(t) is list]
    assert len({id(t) for t in lists}) == len(lists)


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
    assert all(isinstance(r, tuple) and len(r) == 5 for r in rows)
    assert tuple(r[0] for r in rows) == data.ids
    assert tuple(r[4] for r in rows) == data.tags
    assert all(type(c) is int for r in rows for c in r[2])
    assert_columns_equal(Dataset(rows), columns_of(data))


def test_rows_reject_non_integral_flags():
    with pytest.raises(ValidationError, match="instance 'a': correct flags"):
        Dataset([("a", np.zeros(2), (0.5, 1), (1.0, 2.0), None)])
    assert Dataset([("a", np.zeros(2), (1.0, True), (1.0, 2.0), None)]).correct.tolist() == [
        [1.0, 1.0]]


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


# ---------------------------------------------------------------------------
# worker processes: the pooled load and save against the in-process ones
# ---------------------------------------------------------------------------

def load_outcome(path):
    """The dataset load_dataset reads from path, or its error's type and message."""
    try:
        return load_dataset(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


def assert_pooled_load_equals_in_process(path, workers=2) -> list:
    """The pool's task counts, after checking that a pooled load gives bitwise
    the in-process load's columns, or its error type and message."""
    with io_pool(False):
        want = load_outcome(path)
    with io_pool(True, workers) as tasks:
        got = load_outcome(path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_columns_equal(got, columns_of(want))
    return tasks


@st.composite
def jsonl_files(draw):
    """Bytes of a JSONL file as record_files draws it, each line ended by
    \\n, \\r\\n or a lone \\r, some with a BOM and some not UTF-8."""
    lines = draw(record_files()).split("\n")[:-1]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = "\ufeff" + lines[i]
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@settings(max_examples=100, deadline=None)
@given(data=jsonl_files(), block=_block_sizes, workers=st.sampled_from([2, 3]))
def test_pooled_load_equals_in_process_load(data, block, workers):
    with tempfile.TemporaryDirectory() as tmp, block_rows(block):
        path = Path(tmp) / "d.jsonl"
        path.write_bytes(data)
        assert_pooled_load_equals_in_process(path, workers)


@pytest.mark.parametrize("line, outcome", [
    (record_line(5, cost_1={}), "line 6: field 'cost_1' is not numeric"),
    (record_line(5, cost_0="1_0", correct_1=" 1 ", features=["١", 2.5]), None),
    (record_line(5, features=[0.0, 1.0, 2.0]), "instance 'r5': feature dimension 3 != 2"),
    (record_line(5)[:-1], "line 6: invalid JSON"),
], ids=["numpy-rejects", "numpy-may-reject", "wider-range", "bad-json"])
def test_pooled_load_of_a_fault_in_a_later_range(tmp_path, line, outcome):
    path = write_records(tmp_path / "d.jsonl", [record_line(i) for i in range(5)] + [line])
    assert max(assert_pooled_load_equals_in_process(path)) >= 2
    if outcome is None:
        assert_columns_equal(load_dataset(path), row_load(path, "jsonl"))
    else:
        with pytest.raises((ParseError, ValidationError), match=outcome):
            load_dataset(path)


def test_pooled_load_json_fault_in_a_later_range_beats_a_bad_value(tmp_path):
    lines = [record_line(i) for i in range(6)]
    lines[0] = record_line(0, features="xy")
    lines[4] = lines[4][:-1]
    path = write_records(tmp_path / "d.jsonl", lines)
    with io_pool(True) as tasks, pytest.raises(ParseError, match="line 5: invalid JSON"):
        load_dataset(path)
    assert tasks and tasks[0] >= 2


def test_equal_str_tags_load_as_one_object_across_ranges(tmp_path):
    tags = ["math", "code", None, "math", "code", "math", 7, [1], 7, [1], "math"]
    data = Dataset([make_instance(i, [float(i)], (0, 1), (1.0, 2.0), tag)
                    for i, tag in enumerate(tags)])
    save_dataset(data, tmp_path / "d.jsonl")
    with io_pool(True) as tasks:
        loaded = load_dataset(tmp_path / "d.jsonl")
    assert tasks and tasks[0] >= 2
    assert loaded.tags == data.tags
    assert len({id(t) for t in loaded.tags if type(t) is str}) == 2
    lists = [t for t in loaded.tags if type(t) is list]
    assert len({id(t) for t in lists}) == len(lists)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_pooled_save_is_byte_identical_at_every_worker_count_and_block_size(tmp_path, fmt):
    data = to_columns(
        [RowInstance(f"r{i}", np.array([i / 3, -0.0]), (i % 2, 1), (0.1 * (i + 1), 2.5),
                     None if i % 3 else f"t,{i}") for i in range(7)])
    row_save(data.instances, tmp_path / f"row.{fmt}", fmt)
    want = (tmp_path / f"row.{fmt}").read_bytes()
    for workers in (1, 2, 3):
        for block in (1, 2, 4096):
            path = tmp_path / f"{workers}-{block}.{fmt}"
            with io_pool(True, workers) as tasks, block_rows(block):
                save_dataset(data, path)
            assert tasks == ([] if workers == 1 else [-(-7 // block)])
            assert path.read_bytes() == want, (workers, block)


@OVERFLOW_OK
@settings(max_examples=40, deadline=None)
@given(instances=row_instances(), fmt=st.sampled_from(["jsonl", "csv"]), block=_block_sizes)
def test_pooled_writer_matches_row_writer(instances, fmt, block):
    with tempfile.TemporaryDirectory() as tmp, io_pool(True), block_rows(block):
        got, want = Path(tmp) / f"got.{fmt}", Path(tmp) / f"want.{fmt}"
        save_dataset(to_columns(instances), got)
        row_save(instances, want, fmt)
        assert got.read_bytes() == want.read_bytes()


def test_pooled_io_of_a_tag_too_deep_to_send_is_done_in_process(tmp_path):
    tag = []
    for _ in range(900):  # json reads and writes it; pickling it recurses too deep
        tag = [tag]
    data = Dataset.from_columns(["a", "b"], [tag, "t"], np.ones((2, 2)), [[1, 0]] * 2,
                                [[1.0, 2.0]] * 2)
    with io_pool(False):
        save_dataset(data, tmp_path / "want.jsonl")
    with io_pool(True), block_rows(1):
        save_dataset(data, tmp_path / "got.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["got.jsonl", "want.jsonl"]
    assert_pooled_load_equals_in_process(tmp_path / "got.jsonl")
    assert load_dataset(tmp_path / "got.jsonl").tags == data.tags


def test_pooled_io_does_not_depend_on_fork(tmp_path):
    # workers that spawn starts import racer afresh: every input goes by pickle
    data = gen_synthetic(replace(PRESET_SCENARIOS["separable3"], n=300))
    with io_pool(False):
        save_dataset(data, tmp_path / "want.jsonl")
    method = multiprocessing.get_start_method()
    multiprocessing.set_start_method("spawn", force=True)
    try:
        with io_pool(True) as tasks, block_rows(64):
            save_dataset(data, tmp_path / "got.jsonl")
            loaded = load_dataset(tmp_path / "got.jsonl")
    finally:
        multiprocessing.set_start_method(method, force=True)
    assert len(tasks) == 2 and min(tasks) >= 2
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert_columns_equal(loaded, columns_of(data))
