import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_instance
from racer.cli import main
from racer.core import Dataset, LinearPolicy, evaluate_policy, load_dataset, save_dataset
from racer.evalbench import (CONSTANT_METHODS, LEARNABLE_METHODS, PRESET_SCENARIOS,
                             gen_synthetic, load_scenario, run_sweep, shift_scenarios)
from racer.reweight import RobustConfig, tilt_weights
from racer.saddle import random_problem
from racer.trainer import TrainConfig, load_model, save_model

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(*argv):
    return main([str(a) for a in argv])


def run_quietly(*argv):
    """(exit code, stderr) of a CLI run with its output captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    return code, err.getvalue()


def fail_replace_of(monkeypatch, name):
    """Make os.replace raise for destination files called name."""
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError(f"injected failure replacing {name}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


PROBLEM = {
    "rho": [0.5, 0.5], "reward": [[1, 0], [0, 1]],
    "cost": [[1.0, 3.0], [1.0, 4.0]], "w1": [1.0, 1.0], "w2": [1.0, 1.0],
    "budget": 2.0, "beta": 0.5,
}
PROBLEM_FIELDS = tuple(PROBLEM)

_junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-10**400, 10**400),
    st.floats(), st.lists(st.floats(), max_size=3),
    st.lists(st.lists(st.floats(-2.0, 2.0), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def problem_texts(draw):
    """Text of a problem file: a valid random problem with some fields dropped
    or replaced by junk, optionally wrapped in a list or truncated."""
    problem = random_problem(draw(st.integers(0, 50)), n_contexts=draw(st.integers(1, 5)),
                             beta=draw(st.sampled_from([0.05, 0.5])))
    payload = {k: np.asarray(getattr(problem, k)).tolist() for k in PROBLEM_FIELDS}
    for key in draw(st.lists(st.sampled_from(PROBLEM_FIELDS), max_size=3, unique=True)):
        if draw(st.booleans()):
            del payload[key]
        else:
            payload[key] = draw(_junk)
    if draw(st.integers(0, 9)) == 0:
        payload = [payload]
    text = json.dumps(payload)
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


RECORD = {"id": "a", "features": [0.5, -1.0], "correct_0": 1, "correct_1": 0,
          "cost_0": 1.5, "cost_1": 4.0, "tag": "t"}


def model_text(instruct_cost_mean=2.0, **policy) -> str:
    """A linear model file for 2-d features, with policy fields overridden."""
    return json.dumps({
        "format": "racer-model-v1",
        "policy": {"kind": "linear", "weights": [0.5, -0.5], "bias": 0.25, **policy},
        "instruct_cost_mean": instruct_cost_mean, "config": None, "config_digest": None,
    }, indent=1)


MODEL_TEXT = model_text()

# The config of `train --budget 2 --epochs 2` as model files recorded it
# before RobustConfig.delta, TrainConfig.sample_weight_inputs and
# TrainConfig.dual_update_per_epoch were removed.
OLD_CONFIG = {
    "budget": 2.0, "beta": 0.005,
    "robust": {"tau_reward": 1.0, "tau_cost": "inf", "delta": None, "mode": "racer"},
    "epochs": 2, "batch_size": 64, "primal_lr": 0.0001, "dual_lr": 0.001, "seed": 0,
    "val_fraction": 0.1, "lambda_init": 0.0, "init_bias": 0.0, "policy_kind": "linear",
    "hidden": [256, 128, 64], "optimizer": "adam",
    "sample_weight_inputs": False, "dual_update_per_epoch": False,
}
OLD_CONFIG_DIGEST = "1022a1acc1a8b5af834fd31cfcf00076958a1d5a67c51d06db2ebfcf76ae3f0c"


@st.composite
def dataset_texts(draw):
    """(file name, bytes) of a small JSONL or CSV dataset with some values
    dropped or replaced by junk, some lines truncated or non-UTF-8."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    records = []
    for i in range(draw(st.integers(1, 4))):
        record = dict(RECORD, id=f"r{i}")
        for key in draw(st.lists(st.sampled_from(sorted(RECORD)), max_size=2, unique=True)):
            if draw(st.booleans()):
                del record[key]
            else:
                record[key] = draw(_junk)
        records.append(record)
    if fmt == "jsonl":
        text = "\n".join(json.dumps(r) for r in records)
        if draw(st.integers(0, 9)) == 0:
            text += "\n" + draw(st.sampled_from(["[1]", "{", "null", "1" * 5000]))
    else:
        header = draw(st.sampled_from([
            "id,feat_0,feat_1,correct_0,correct_1,cost_0,cost_1,tag",
            "id,feat_1,feat_x,correct_0,correct_1,cost_0,cost_1", "id,correct_0", ""]))
        rows = [",".join(str(r.get(k, "")).replace(",", ";") for k in (
            "id", "features", "features", "correct_0", "correct_1", "cost_0", "cost_1", "tag"))
            for r in records]
        rows = [row.replace("[", "").replace("]", "") for row in rows]
        text = "\n".join([header, *rows])
    data = text.encode()
    if draw(st.integers(0, 4)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 9)) == 0:
        data += b"\xff\xfe"
    return f"d.{fmt}", data


@st.composite
def model_texts(draw):
    """Bytes of a model file: a valid linear, feed-forward, tabular or
    constant model with some fields dropped or replaced by junk."""
    policy = draw(st.sampled_from([
        {"kind": "linear", "weights": [0.5, -0.5], "bias": 0.25},
        {"kind": "feedforward", "weights": [[[0.1, 0.2], [0.3, -0.1]], [[1.0, -1.0]]],
         "biases": [[0.0, 0.1], [0.2]]},
        {"kind": "tabular", "table": {"r0": 0.5, "r1": 0.1}},
        {"kind": "constant", "p_reason": 0.3},
    ]))
    payload = json.loads(MODEL_TEXT)
    payload["policy"] = policy
    for key in draw(st.lists(st.sampled_from(sorted(policy)), max_size=2, unique=True)):
        policy[key] = draw(_junk)
    if draw(st.integers(0, 4)) == 0:
        payload[draw(st.sampled_from(["format", "policy", "instruct_cost_mean"]))] = draw(_junk)
    if draw(st.integers(0, 9)) == 0:
        payload = [payload]
    data = json.dumps(payload).encode()
    if draw(st.integers(0, 6)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    return data


CONFIG = {"budget": 2.0, "epochs": 2, "batch_size": 16, "lr": 1e-2, "dual_lr": 0.05,
          "seed": 1, "tau_r": 1.0, "tau_c": "inf", "mode": "racer", "beta": 0.005,
          "val_fraction": 0.2, "policy": "feedforward", "hidden": [4],
          "optimizer": "adam", "init_bias": 0.0}

# junk that keeps a run small: no large epoch counts or hidden widths
_small_junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 0.5, 1e-320, 1e300, -1.0]),
    st.floats(-4.0, 4.0), st.sampled_from([math.inf, -math.inf, math.nan]),
    st.lists(st.integers(-2, 4), max_size=2), st.lists(st.floats(-2.0, 2.0), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _junk_text(draw, payload):
    """json text of payload, sometimes wrapped in a list, truncated or
    followed by bytes that are not UTF-8."""
    if draw(st.integers(0, 9)) == 0:
        payload = [payload]
    data = json.dumps(payload).encode()
    if draw(st.integers(0, 6)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 9)) == 0:
        data += b"\xff\xfe"
    return data


@st.composite
def config_texts(draw):
    """Bytes of a config file: a small valid config with some keys dropped
    or given junk values."""
    payload = dict(CONFIG)
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG)), max_size=3, unique=True)):
        if draw(st.booleans()):
            del payload[key]
        else:
            payload[key] = draw(_small_junk)
    return _junk_text(draw, payload)


SCENARIO = json.loads((SCENARIOS / "shift_up.json").read_text())
SCENARIO["shift"] = {"light": 0.3, "heavy": 0.7}
DOMAIN_FIELDS = sorted(SCENARIO["domains"][0])


@st.composite
def scenario_texts(draw):
    """Bytes of a scenario file: a valid two-domain scenario with some
    fields of the scenario or its domains dropped or given junk values."""
    payload = json.loads(json.dumps(SCENARIO))
    targets = [(payload, key) for key in sorted(SCENARIO)]
    targets += [(d, key) for d in payload["domains"] for key in DOMAIN_FIELDS]
    for i in draw(st.lists(st.integers(0, len(targets) - 1), max_size=3, unique=True)):
        record, key = targets[i]
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(_small_junk)
    return _junk_text(draw, payload)


@st.composite
def cell_texts(draw, payload):
    """Bytes of a sweep cell file: payload with some fields of the file, its
    first cell or its first failure dropped or given junk values."""
    payload = json.loads(json.dumps(payload))
    records = [payload, *payload["cells"][:1], *payload["failures"][:1]]
    targets = [(record, key) for record in records for key in sorted(record)]
    for i in draw(st.lists(st.integers(0, len(targets) - 1), max_size=3, unique=True)):
        record, key = targets[i]
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(_junk)
    return _junk_text(draw, payload)


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "data.jsonl"
    assert run("gen-synth", "--regime", "separable3", "--n", 60, "--seed", 2,
               "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def finished_sweep(small_data, tmp_path_factory):
    """(argv, out dir) of a finished one-unit sweep whose cell file holds a
    cell and a failure; no unit trains."""
    args = ["sweep", "--train-data", small_data, "--budgets", "2.0", "--repeats", "1",
            "--methods", "all-instruct,random"]
    out = tmp_path_factory.mktemp("finished_sweep")
    assert run_quietly(*args, "--out", out)[0] == 0
    return args, out


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.jsonl"
    code = run("gen-synth", "--regime", "wildguardmix", "--n", 300, "--seed", 5,
               "--out", path)
    assert code == 0
    return path


class TestGenSynth:
    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("gen-synth", "--regime", "offsetbias", "--n", 100, "--seed", 3,
                   "--out", a) == 0
        assert run("gen-synth", "--regime", "offsetbias", "--n", 100, "--seed", 3,
                   "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.jsonl.manifest.json").exists()

    def test_scenario_file_input(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run("gen-synth", "--scenario", SCENARIOS / "separable3.json",
                   "--n", 100, "--out", out) == 0
        assert out.exists()

    def test_unknown_regime(self, tmp_path):
        assert run("gen-synth", "--regime", "nope", "--out", tmp_path / "x") == 1

    @pytest.mark.parametrize("flag", ["--n=0", "--seed=-1"])
    def test_out_of_range_argument_is_usage_error(self, tmp_path, capsys, flag):
        assert run("gen-synth", "--regime", "separable3", flag, "--out", tmp_path / "x") == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (b"\xff\xfe{}", "not a JSON file"),
        (b"[1]", "expected a JSON object, got list"),
        (b"{bad", "not a JSON file"),
        (json.dumps({**SCENARIO, "n": "x"}).encode(), "field 'n' is not an integer"),
        (json.dumps({**SCENARIO, "seed": -1}).encode(), "seed must be non-negative"),
        (json.dumps({**SCENARIO, "domains": 3}).encode(), "field 'domains' is not a list"),
        (json.dumps({**SCENARIO, "domains": [
            {**SCENARIO["domains"][0], "feature_mean": "ab"}, SCENARIO["domains"][1]]}).encode(),
         "domain 0: field 'feature_mean' is not a list of numbers"),
        (json.dumps({**SCENARIO, "domains": [
            {**SCENARIO["domains"][0], "weight": None}, SCENARIO["domains"][1]]}).encode(),
         "domain 0: field 'weight' is not a number"),
        (json.dumps({**SCENARIO, "domains": [SCENARIO["domains"][0]]}).encode(),
         "must sum to 1"),
        (json.dumps({**SCENARIO, "shift": {"light": 1.0}}).encode(),
         "shift gives no weight for domain 'heavy'"),
    ], ids=["not-utf8", "list", "truncated", "text-n", "negative-seed", "domains-number",
            "text-feature-mean", "null-weight", "weights-sum", "partial-shift"])
    def test_bad_scenario_file_is_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "s.json"
        path.write_bytes(text)
        assert run("gen-synth", "--scenario", path, "--n", 20, "--out", tmp_path / "d") == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(text=scenario_texts(), apply_shift=st.booleans())
    def test_fuzzed_scenario_file_never_escapes(self, text, apply_shift):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            path.write_bytes(text)
            argv = ["gen-synth", "--scenario", path, "--n", 30, "--out", Path(tmp) / "d.jsonl"]
            code, err = run_quietly(*argv, *(["--apply-shift"] if apply_shift else []))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


class TestTrain:
    def test_outputs_and_summary(self, data_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("train", "--data", data_file, "--budget", 2, "--epochs", 4,
                   "--lr", 1e-2, "--dual-lr", 0.05, "--seed", 0, "--out", out)
        assert code == 0
        assert (out / "model.json").exists()
        assert (out / "history.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert str(data_file) in manifest["inputs"]
        assert "best checkpoint" in capsys.readouterr().out
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_reward,train_cost,lambda,val_acc,val_cost,reasoning_frac"

    def test_rerun_is_bitwise_identical(self, data_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["train", "--data", data_file, "--budget", 2, "--epochs", 3,
                "--lr", 1e-2, "--seed", 7]
        assert run(*args, "--out", out1) == 0
        assert run(*args, "--out", out2) == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()

    def test_acer_mode_aliases_infinite_taus(self, data_file, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        base = ["train", "--data", data_file, "--budget", 2, "--epochs", 3, "--seed", 1]
        assert run(*base, "--mode", "acer", "--out", out1) == 0
        assert run(*base, "--tau-r", "inf", "--tau-c", "inf", "--out", out2) == 0
        m1 = json.loads((out1 / "model.json").read_text())
        m2 = json.loads((out2 / "model.json").read_text())
        assert m1["policy"] == m2["policy"]
        h1 = (out1 / "history.csv").read_bytes()
        assert h1 == (out2 / "history.csv").read_bytes()

    def test_missing_budget_is_usage_error(self, data_file, capsys):
        assert run("train", "--data", data_file) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_data_file(self, tmp_path):
        assert run("train", "--data", tmp_path / "none.jsonl", "--budget", 2) == 2

    def test_divergence_exit_code(self, tmp_path):
        scenario = tmp_path / "wild.json"
        scenario.write_text(json.dumps({
            "n": 200, "seed": 0,
            "domains": [{"name": "x", "weight": 1.0, "p_instruct": 0.5,
                         "p_reasoning": 0.9, "cost_ratio_median": 3.0,
                         "feature_mean": [1e155], "feature_noise": 0.0}],
        }))
        data = tmp_path / "wild.jsonl"
        assert run("gen-synth", "--scenario", scenario, "--out", data) == 0
        code = run("train", "--data", data, "--budget", 2, "--epochs", 2,
                   "--optimizer", "sgd", "--lr", 1.0, "--mode", "acer",
                   "--out", tmp_path / "boom")
        assert code == 3

    def test_config_file_precedence(self, data_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": 2.0, "epochs": 3, "seed": 4}))
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        # config file supplies budget/epochs; flag overrides seed
        assert run("train", "--data", data_file, "--config", cfg, "--seed", 9,
                   "--out", out1) == 0
        assert run("train", "--data", data_file, "--budget", 2, "--epochs", 3,
                   "--seed", 9, "--out", out2) == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()


    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("text, message", [
        ('{"beta": "x"}', "field 'beta' is not a number"),
        ('{"hidden": 5}', "field 'hidden'"),
        ('{"hidden": [0]}', "field 'hidden': hidden widths must be positive"),
        ('{"seed": -1}', "field 'seed': seed must be non-negative"),
        ('{"tau_r": null}', "field 'tau_r'"),
        ('{"epochs": 1e400}', "field 'epochs'"),
        ('{"mode": "robust"}', "field 'mode': mode must be one of"),
        ('[1]', "expected a JSON object, got list"),
        ('{bad', "not a JSON file"),
        ('\udcff', "not a JSON file"),
        ('{"epochs": 2.7}', "field 'epochs' is not an integer"),
        ('{"seed": true}', "field 'seed' is not an integer"),
        ('{"budget": "2"}', "field 'budget' is not a number"),
        ('{"hidden": "4,8"}', "field 'hidden' is not a list of integers"),
        ('{"epochs": 2, "lambda_init": 0.0}', "unknown key 'lambda_init'"),
        (json.dumps(OLD_CONFIG), "unknown key 'robust'"),
    ], ids=["text-beta", "number-hidden", "zero-hidden", "negative-seed", "null-tau",
            "infinite-epochs", "unknown-mode", "list", "truncated", "not-utf8",
            "fractional-epochs", "bool-seed", "text-budget", "text-hidden", "removed-key",
            "model-config"])
    def test_bad_config_file_is_data_error(self, data_file, tmp_path, capsys, command,
                                           text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
        source = (["--data", data_file, "--budget", 2] if command == "train"
                  else ["--train-data", data_file, "--budgets", 2, "--repeats", 1])
        assert run(command, *source, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--budget=-1", "--epochs=0", "--seed=-1",
                                      "--hidden=3,x", "--val-fraction=1"])
    def test_bad_flag_is_usage_error(self, data_file, tmp_path, capsys, flag):
        argv = ["train", "--data", data_file, "--budget", 2, "--policy", "feedforward"]
        assert run(*argv, flag, "--out", tmp_path / "o") == 1
        assert "Traceback" not in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(text=config_texts())
    def test_fuzzed_config_file_never_escapes(self, small_data, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_bytes(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code, err = run_quietly("train", "--data", small_data, "--config", cfg,
                                        "--out", Path(tmp) / "o")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


class TestEval:
    def test_baseline_all_instruct(self, data_file, tmp_path, capsys):
        out = tmp_path / "ev"
        assert run("eval", "--baseline", "all-instruct", "--data", data_file,
                   "--out", out) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert abs(payload["realized_cost"] - 1.0) < 1e-9
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_model_eval_and_dim_mismatch(self, data_file, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--data", data_file, "--budget", 2, "--epochs", 2,
                   "--out", out) == 0
        assert run("eval", "--model", out / "model.json", "--data", data_file,
                   "--out", tmp_path / "ev1") == 0
        other = tmp_path / "other.jsonl"
        assert run("gen-synth", "--scenario", SCENARIOS / "shift_up.json", "--n", 50,
                   "--out", other) == 0  # 3-d features vs 4-d model
        assert run("eval", "--model", out / "model.json", "--data", other,
                   "--out", tmp_path / "ev2") == 2

    def test_sampled_mode_deterministic(self, data_file, tmp_path):
        args = ["eval", "--baseline", "random:0.5", "--data", data_file,
                "--mode", "sampled", "--seed", 11]
        assert run(*args, "--out", tmp_path / "s1") == 0
        assert run(*args, "--out", tmp_path / "s2") == 0
        a = (tmp_path / "s1" / "metrics.json").read_bytes()
        assert a == (tmp_path / "s2" / "metrics.json").read_bytes()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_sampled_seed_outside_64_bits_is_usage_error(self, data_file, tmp_path, seed):
        # -1 and 2**64 drew the same actions as 2**64 - 1 and 0 and exited 0
        code, err = run_quietly("eval", "--baseline", "random:0.5", "--data", data_file,
                                "--mode", "sampled", "--seed", seed, "--out", tmp_path / "s")
        assert code == 1 and f"--seed must lie in [0, 2**64), got {seed}" in err
        assert not (tmp_path / "s").exists()
        assert run("eval", "--baseline", "random:0.5", "--data", data_file, "--mode", "sampled",
                   "--seed", 2**64 - 1, "--out", tmp_path / "top") == 0

    def test_unknown_baseline(self, data_file, tmp_path):
        assert run("eval", "--baseline", "bogus", "--data", data_file,
                   "--out", tmp_path / "x") == 1
        assert run("eval", "--baseline", "random:1.7", "--data", data_file,
                   "--out", tmp_path / "y") == 1

    def test_model_or_baseline_required(self, data_file, tmp_path):
        assert run("eval", "--data", data_file, "--out", tmp_path / "z") == 1

    def test_model_file_with_removed_config_fields_scores_the_same(self, data_file, tmp_path):
        run_dir = tmp_path / "run"
        assert run("train", "--data", data_file, "--budget", 2, "--epochs", 2,
                   "--out", run_dir) == 0
        model = json.loads((run_dir / "model.json").read_text())
        old = tmp_path / "old_model.json"
        old.write_text(json.dumps({**model, "config": OLD_CONFIG,
                                   "config_digest": OLD_CONFIG_DIGEST}, indent=1))
        policy, cost_mean, payload = load_model(old)
        assert payload["config"] == OLD_CONFIG
        new_policy, new_cost_mean, _ = load_model(run_dir / "model.json")
        assert cost_mean == new_cost_mean
        assert policy.weights.tobytes() == new_policy.weights.tobytes()
        for name, path in (("ev_old", old), ("ev_new", run_dir / "model.json")):
            assert run("eval", "--model", path, "--data", data_file,
                       "--out", tmp_path / name) == 0
        assert (tmp_path / "ev_old" / "metrics.json").read_bytes() == \
            (tmp_path / "ev_new" / "metrics.json").read_bytes()

    def test_model_eval_uses_the_model_cost_scale(self, tmp_path):
        base = replace(PRESET_SCENARIOS["shift-up"], n=400)
        train_split, _, ood_high = shift_scenarios(base, n_test=300)
        policy = LinearPolicy(np.array([0.4, -0.3, 0.2]), -0.5)
        save_model(tmp_path / "model.json", policy, train_split.instruct_cost_mean)
        save_dataset(ood_high, tmp_path / "ood.jsonl")
        assert run("eval", "--model", tmp_path / "model.json", "--data", tmp_path / "ood.jsonl",
                   "--out", tmp_path / "ev") == 0
        got = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert got == evaluate_policy(policy, ood_high).to_dict()
        # the split's own scale would report another cost
        own = evaluate_policy(policy, load_dataset(tmp_path / "ood.jsonl"))
        assert own.realized_cost != got["realized_cost"]
        assert own.accuracy == got["accuracy"]
        # a baseline keeps the data's own scale
        assert run("eval", "--baseline", "all-instruct", "--data", tmp_path / "ood.jsonl",
                   "--out", tmp_path / "ev2") == 0
        base_cost = json.loads((tmp_path / "ev2" / "metrics.json").read_text())["realized_cost"]
        assert base_cost == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("command", ["eval", "inspect-weights"])
    @pytest.mark.parametrize("source", ["baseline", "model"])
    def test_costs_overflowing_the_cost_scale_are_data_error(self, tmp_path, capsys, command,
                                                             source):
        # raw costs are finite, but 1e308 over an instruct-cost mean of 0.5 is not
        path = tmp_path / "huge.jsonl"
        path.write_text("".join(json.dumps({**RECORD, "id": f"r{i}", "cost_0": 0.5,
                                            "cost_1": 1e308 if i else 2.0}) + "\n"
                                for i in range(2)))
        assert load_dataset(path).cost[1, 1] == math.inf  # loads without a warning
        save_model(tmp_path / "model.json", LinearPolicy(np.zeros(2), 0.0), 0.5)
        out = tmp_path / "out"
        args = {"eval": ["--out", out],
                "inspect-weights": ["--tau", 1, "--target", "cost", "--out", out]}[command]
        scored_by = (["--baseline", "all-reasoning"] if source == "baseline"
                     else ["--model", tmp_path / "model.json"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, "--data", path, *scored_by, *args) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "instance 'r1': costs are not finite on the cost scale 0.5" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("features", "xy", "line 1: field 'features' is not numeric"),
        ("correct_0", "x", "line 1: field 'correct_0' is not numeric"),
        ("cost_0", None, "line 1: field 'cost_0' is not numeric"),
        ("correct_0", 0.5, "instance 'a': correct flags must be 0 or 1"),
    ])
    def test_bad_record_is_data_error(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({**RECORD, field: value}) + "\n")
        assert run("eval", "--baseline", "all-instruct", "--data", path,
                   "--out", tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "expected a JSON object, got list"),
        (MODEL_TEXT[:60], "JSONDecodeError"),
        (model_text(weights=[[0.5, -0.5]]), "weights must be a vector"),
        (model_text(bias="b"), "field 'bias' is not a number"),
        (model_text(bias="0.25"), "field 'bias' is not a number"),
        (model_text(weights=[True, -0.5]), "field 'weights' is not an array of numbers"),
        (model_text(weights=["0.5", -0.5]), "field 'weights' is not an array of numbers"),
        (model_text(instruct_cost_mean=True), "field 'instruct_cost_mean' is not a number"),
        (model_text(kind="feedforward", weights=[[[1.0, 0.0]], [[1.0, 1.0]]], biases=[[0.0], [0.0]]),
         "layer shapes do not chain"),
        (model_text(kind="feedforward", weights=[[[1.0, 0.0]]], biases=[[0.0, 1.0]]),
         "layer shapes do not chain"),
        (model_text(instruct_cost_mean=-2.0), "instruct_cost_mean must be positive"),
    ], ids=["list", "truncated", "matrix-weights", "text-bias", "numeric-text-bias",
            "bool-weights", "text-weights", "bool-scale", "unchained-layers", "bias-shape",
            "negative-scale"])
    def test_bad_model_file_is_data_error(self, tmp_path, capsys, text, message):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps(RECORD) + "\n")
        model = tmp_path / "model.json"
        model.write_text(text)
        assert run("eval", "--model", model, "--data", data, "--out", tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(data_text=dataset_texts(), model_text=model_texts())
    def test_fuzzed_data_and_model_files_never_escape(self, data_text, model_text):
        name, data = data_text
        with tempfile.TemporaryDirectory() as tmp:
            data_path, model_path = Path(tmp) / name, Path(tmp) / "model.json"
            data_path.write_bytes(data)
            model_path.write_bytes(model_text)
            for source in (["--model", model_path], ["--baseline", "random:0.5"]):
                code, err = run_quietly("eval", *source, "--data", data_path,
                                        "--out", Path(tmp) / "ev")
                assert code in (0, 1, 2, 3)
                assert "Traceback" not in err


class TestSweep:
    def test_scenario_sweep_and_resume(self, tmp_path):
        out = tmp_path / "sw"
        args = ["sweep", "--scenario", SCENARIOS / "wildguardmix.json",
                "--budgets", "2.0", "--repeats", "1",
                "--methods", "racer,random,all-instruct",
                "--epochs", "3", "--lr", "1e-2", "--out", out]
        assert run(*args) == 0
        raw = (out / "sweep.csv").read_bytes()
        assert (out / "sweep_agg.csv").exists()
        cells = list((out / "cells").glob("*.json"))
        assert len(cells) == 1
        # resume: cached cells are reused and output reproduced bitwise
        stamp = cells[0].stat().st_mtime_ns
        assert run(*args, "--resume") == 0
        assert cells[0].stat().st_mtime_ns == stamp
        assert (out / "sweep.csv").read_bytes() == raw

    def test_close_budgets_get_their_own_cell_files(self, data_file, tmp_path):
        out = tmp_path / "sw_close"
        args = ["sweep", "--train-data", data_file, "--budgets", "2.0000001,2.0000002",
                "--repeats", "1", "--methods", "racer", "--epochs", "2", "--out", out]
        assert run(*args) == 0
        cells = sorted((out / "cells").iterdir())
        assert len(cells) == 2 and all(c.suffix == ".json" for c in cells)
        stamps = [c.stat().st_mtime_ns for c in cells]
        assert run(*args, "--resume") == 0
        assert [c.stat().st_mtime_ns for c in cells] == stamps

    def test_truncated_cell_is_recomputed_on_resume(self, data_file, tmp_path):
        out = tmp_path / "sw_cut"
        args = ["sweep", "--train-data", data_file, "--budgets", "2.0,3.0",
                "--repeats", "1", "--methods", "racer,all-instruct", "--epochs", "2",
                "--out", out]
        assert run(*args) == 0
        raw = (out / "sweep.csv").read_bytes()
        cells = sorted((out / "cells").glob("*.json"))
        whole = cells[0].read_bytes()
        cells[0].write_bytes(whole[: len(whole) // 2])  # a run killed mid-write
        untouched = cells[1].stat().st_mtime_ns
        assert run(*args, "--resume") == 0
        assert cells[0].read_bytes() == whole
        assert cells[1].stat().st_mtime_ns == untouched
        assert (out / "sweep.csv").read_bytes() == raw
        assert sorted(p.name for p in (out / "cells").iterdir()) == sorted(c.name for c in cells)

    @pytest.mark.parametrize("junk", [b"[]", b"[" * 100_000], ids=["list", "deep"])
    def test_cell_file_of_another_kind_is_recomputed_on_resume(self, data_file, tmp_path,
                                                                junk):
        out = tmp_path / "sw_junk"
        args = ["sweep", "--train-data", data_file, "--budgets", "2.0", "--repeats", "1",
                "--methods", "all-instruct", "--out", out]
        assert run(*args) == 0
        (cell,) = (out / "cells").glob("*.json")
        whole = cell.read_bytes()
        cell.write_bytes(junk)
        assert run(*args, "--resume") == 0
        assert cell.read_bytes() == whole

    def test_comma_in_split_name_round_trips(self, data_file, tmp_path):
        # the name used to be written unquoted: 8 fields under a 7-column header
        out = tmp_path / "sw_comma"
        assert run("sweep", "--train-data", data_file, "--test-data", f"held,out={data_file}",
                   "--budgets", "2.0", "--repeats", "1", "--methods", "all-instruct",
                   "--out", out) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["split"], None in r) for r in rows] == [("held,out", False), ("train", False)]
        assert rows[0]["cost"] == rows[1]["cost"]

    def test_scenario_shift_map_adds_ood_split(self, tmp_path):
        scenario = json.loads((SCENARIOS / "shift_up.json").read_text())
        scenario["n"] = 200
        scenario["shift"] = {"light": 0.2, "heavy": 0.8}
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "sw_shift"
        assert run("sweep", "--scenario", path, "--budgets", "2.0", "--repeats", "1",
                   "--methods", "all-instruct", "--out", out) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        splits = {r.split(",")[3] for r in rows}
        assert splits == {"train", "id_test", "ood"}
        # the shifted split is costlier for the all-instruct baseline
        cost = {r.split(",")[3]: float(r.split(",")[5]) for r in rows}
        assert cost["ood"] > cost["train"]

        gen_out = tmp_path / "ood.jsonl"
        assert run("gen-synth", "--scenario", path, "--apply-shift",
                   "--out", gen_out) == 0
        tags = [json.loads(line)["tag"] for line in gen_out.read_text().splitlines()]
        assert tags.count("heavy") > tags.count("light")

    def test_data_file_sweep(self, data_file, tmp_path):
        out = tmp_path / "sw2"
        assert run("sweep", "--train-data", data_file, "--budgets", "2.0",
                   "--repeats", "1", "--methods", "all-instruct,all-reasoning",
                   "--out", out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "method,budget,seed,split,accuracy,cost,reasoning_frac"
        assert len(lines) == 3  # two methods on the train split

    @pytest.mark.parametrize("flag, message", [
        ("--base-seed=-1", "base seed must be non-negative"),
        ("--budgets=-1", "budgets must be positive"),
        ("--budgets=nan", "budgets must be positive"),
        ("--budgets=,", "must be non-empty"),
        ("--repeats=0", "repeats must be at least 1"),
        ("--workers=0", "--workers must be at least 1"),
    ])
    def test_bad_sweep_flag_is_usage_error(self, data_file, tmp_path, capsys, flag, message):
        out = tmp_path / "sw"
        assert run("sweep", "--train-data", data_file, "--methods", "racer,random",
                   "--repeats", "1", "--epochs", "2", flag, "--out", out) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_workers_variable_is_usage_error_of_sweep_only(self, tmp_path, monkeypatch,
                                                                capsys):
        monkeypatch.setenv("RACER_WORKERS", "x")
        data = tmp_path / "d.jsonl"
        assert run("gen-synth", "--regime", "offsetbias", "--n", 80, "--out", data) == 0
        assert run("sweep", "--train-data", data, "--out", tmp_path / "sw") == 1
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cli_sweep_writes_the_library_sweep(self, tmp_path, workers):
        scenario = json.loads((SCENARIOS / "separable3.json").read_text())
        scenario["n"] = 300
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        methods = ",".join(LEARNABLE_METHODS + CONSTANT_METHODS)
        out = tmp_path / "sw"
        assert run("sweep", "--scenario", path, "--budgets", "2,3", "--repeats", "2",
                   "--base-seed", "4", "--methods", methods, "--epochs", "2",
                   "--lr", "1e-2", "--workers", workers, "--out", out) == 0

        config = load_scenario(path)
        train_data = gen_synthetic(config)
        tests = {"id_test": gen_synthetic(replace(config, seed=config.seed + 1))
                 .with_cost_scale(train_data.instruct_cost_mean)}
        template = TrainConfig(budget=1.0, epochs=2, primal_lr=1e-2,
                               robust=RobustConfig(tau_reward=1.0))
        result = run_sweep(train_data, tests, [2.0, 3.0], methods.split(","), repeats=2,
                           base_seed=4, template=template, workers=workers)
        result.to_csv(tmp_path / "library.csv")
        result.aggregate_csv(tmp_path / "library_agg.csv")
        assert (out / "sweep.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
        assert (out / "sweep_agg.csv").read_bytes() == \
            (tmp_path / "library_agg.csv").read_bytes()

    def test_resume_after_a_deleted_cell_equals_a_fresh_run(self, data_file, tmp_path):
        args = ["sweep", "--train-data", data_file, "--budgets", "2.0,3.0", "--repeats", "2",
                "--methods", "racer,random,all-reasoning", "--epochs", "2"]
        assert run(*args, "--out", tmp_path / "fresh") == 0
        assert run(*args, "--out", tmp_path / "resumed") == 0
        cells = sorted((tmp_path / "resumed" / "cells").glob("*.json"))
        cells[1].unlink()
        assert run(*args, "--resume", "--out", tmp_path / "resumed") == 0
        assert cells[1].is_file()
        for name in ("sweep.csv", "sweep_agg.csv"):
            assert (tmp_path / "resumed" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("field, value", [("budget", "x"), ("seed", 1.5),
                                              ("accuracy", True), ("split", None)])
    def test_mistyped_cell_is_recomputed_on_resume(self, data_file, tmp_path, capsys,
                                                   field, value):
        out = tmp_path / "sw_typed"
        args = ["sweep", "--train-data", data_file, "--budgets", "2.0,3.0", "--repeats", "1",
                "--methods", "all-instruct", "--out", out]
        assert run(*args) == 0
        raw = (out / "sweep.csv").read_bytes()
        cell = sorted((out / "cells").glob("*.json"))[0]
        whole = cell.read_bytes()
        payload = json.loads(whole)
        payload["cells"][0][field] = value
        cell.write_text(json.dumps(payload))
        assert run(*args, "--resume") == 0
        assert "Traceback" not in capsys.readouterr().err
        assert cell.read_bytes() == whole
        assert (out / "sweep.csv").read_bytes() == raw

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fuzzed_cell_file_never_escapes(self, finished_sweep, data):
        args, done = finished_sweep
        (cell,) = (done / "cells").glob("*.json")
        text = data.draw(cell_texts(json.loads(cell.read_bytes())))
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(done / "cells", Path(tmp) / "cells")
            (Path(tmp) / "cells" / cell.name).write_bytes(text)
            code, err = run_quietly(*args, "--resume", "--out", tmp)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    def test_test_split_of_another_dimension_fails_before_training(self, data_file, tmp_path,
                                                                   capsys, monkeypatch):
        other = tmp_path / "other.jsonl"
        assert run("gen-synth", "--scenario", SCENARIOS / "shift_up.json", "--n", 50,
                   "--out", other) == 0  # 3-d features vs 4-d training data

        def train(*args, **kwargs):
            raise AssertionError("a unit trained")

        monkeypatch.setattr("racer.evalbench.train", train)
        assert run("sweep", "--train-data", data_file, "--test-data", f"held={other}",
                   "--budgets", "2.0", "--repeats", "1", "--methods", "racer",
                   "--out", tmp_path / "sw") == 2
        err = capsys.readouterr().err
        assert "split 'held' has 3 features" in err
        assert "Traceback" not in err
        assert not list((tmp_path / "sw" / "cells").iterdir())

    def test_test_split_overflowing_the_training_cost_scale_fails_before_training(
            self, tmp_path, capsys, monkeypatch):
        rows = [make_instance(i, [float(i % 3), 1.0], (i % 2, 1), (0.5, 1.0)) for i in range(80)]
        save_dataset(Dataset(rows), tmp_path / "train.jsonl")
        # finite on its own scale (mean 1e300), not on the training scale 0.5
        held = [make_instance(i, [0.0, 1.0], (1, 1), (1e300, 1e308)) for i in range(2)]
        save_dataset(Dataset(held), tmp_path / "held.jsonl")

        def train(*args, **kwargs):
            raise AssertionError("a unit trained")

        monkeypatch.setattr("racer.evalbench.train", train)
        assert run("sweep", "--train-data", tmp_path / "train.jsonl",
                   "--test-data", f"held={tmp_path / 'held.jsonl'}", "--budgets", "2.0",
                   "--repeats", "1", "--methods", "racer", "--out", tmp_path / "sw") == 2
        err = capsys.readouterr().err
        assert "split 'held': instance 'z0': costs are not finite on the cost scale 0.5" in err
        assert "Traceback" not in err
        assert not list((tmp_path / "sw" / "cells").iterdir())

    def test_too_few_rows_fail_every_learnable_cell(self, tmp_path, capsys):
        data = tmp_path / "few.jsonl"
        assert run("gen-synth", "--regime", "offsetbias", "--n", 40, "--out", data) == 0
        out = tmp_path / "sw_few"
        assert run("sweep", "--train-data", data, "--budgets", "2,3", "--repeats", "1",
                   "--methods", "racer,acer,random,all-instruct", "--out", out) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for budget in (2, 3):
            for method in ("racer", "acer"):
                assert (f"warning: {method} budget={budget} seed=0 failed: "
                        "dataset size 40 must exceed batch_size 64") in err
            assert (f"warning: random budget={budget} seed=0 failed: "
                    "random baseline needs a paired racer run") in err
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["budget"]) for r in rows] == [("all-instruct", "2.0"),
                                                             ("all-instruct", "3.0")]
        cells = [json.loads(p.read_text()) for p in (out / "cells").glob("*.json")]
        assert sorted(len(c["failures"]) for c in cells) == [3, 3]

    def test_diverging_replica_fails_only_its_own_cell(self, tmp_path, capsys):
        # both modes are always right, so the gradient is 0 until the budget
        # multiplier leaves 0: at budget 1.5 it does and the huge features
        # overflow the next logits; at budget 100 it never does
        scenario = tmp_path / "flat.json"
        scenario.write_text(json.dumps({
            "n": 200, "seed": 0,
            "domains": [{"name": "x", "weight": 1.0, "p_instruct": 1.0, "p_reasoning": 1.0,
                         "cost_ratio_median": 3.0, "feature_mean": [1e200],
                         "feature_noise": 0.0}],
        }))
        data = tmp_path / "flat.jsonl"
        assert run("gen-synth", "--scenario", scenario, "--out", data) == 0
        out = tmp_path / "sw_div"
        assert run("sweep", "--train-data", data, "--budgets", "1.5,100", "--repeats", "1",
                   "--methods", "racer,all-instruct", "--optimizer", "sgd", "--lr", 1,
                   "--epochs", 2, "--out", out) == 0
        err = capsys.readouterr().err
        assert "warning: racer budget=1.5 seed=0 failed: non-finite logit" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["budget"]) for r in rows] == [
            ("all-instruct", "1.5"), ("all-instruct", "100.0"), ("racer", "100.0")]
        assert len(list((out / "cells").glob("*.json"))) == 2

    def test_all_cells_failing_gives_nonzero_exit(self, data_file, tmp_path):
        # random without a paired racer run fails in every cell
        assert run("sweep", "--train-data", data_file, "--budgets", "2.0",
                   "--repeats", "1", "--methods", "random",
                   "--out", tmp_path / "sw3") == 2


class TestSaddleDemo:
    def test_random_problem_pass(self, tmp_path, capsys):
        out = tmp_path / "sd"
        assert run("saddle-demo", "--contexts", 6, "--seed", 3, "--beta", 0.5,
                   "--iters", 80, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "kappa" in printed
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,lambda_t,kl_to_star,bound_t"
        assert len(lines) == 82

    def test_flat_trace_at_solution(self, tmp_path):
        out = tmp_path / "sd2"
        assert run("saddle-demo", "--contexts", 4, "--seed", 1, "--beta", 0.5,
                   "--lambda0", 0.0, "--iters", 20, "--out", out) == 0

    def test_infeasible_budget(self, tmp_path):
        assert run("saddle-demo", "--contexts", 4, "--seed", 2, "--budget", 0.01,
                   "--out", tmp_path / "sd3") == 2

    def test_problem_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(PROBLEM))
        assert run("saddle-demo", "--problem", path, "--iters", 50,
                   "--out", tmp_path / "sd4") == 0

    @pytest.mark.parametrize("text, message", [
        (json.dumps({k: v for k, v in PROBLEM.items() if k != "beta"}), "missing field 'beta'"),
        (json.dumps({**PROBLEM, "reward": "xy"}), "field 'reward' is not an array of numbers"),
        (json.dumps({**PROBLEM, "budget": [2.0]}), "field 'budget' is not a number"),
        (json.dumps({**PROBLEM, "budget": "1.5"}), "field 'budget' is not a number"),
        (json.dumps({**PROBLEM, "beta": True}), "field 'beta' is not a number"),
        (json.dumps({**PROBLEM, "rho": [True, 0.5]}), "field 'rho' is not an array of numbers"),
        (json.dumps([PROBLEM]), "expected a JSON object, got list"),
        (json.dumps(PROBLEM)[:40], "problem file"),
        (json.dumps({**PROBLEM, "rho": [0.4, 0.4]}), "sum to 1"),
        (json.dumps({**PROBLEM, "w1": [1.0, float("nan")]}), "w1 must be finite"),
        (json.dumps({**PROBLEM, "rho": [0.5]}), "shape"),
    ])
    def test_bad_problem_file_is_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "p.json"
        path.write_text(text)
        assert run("saddle-demo", "--problem", path, "--out", tmp_path / "sd") == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--contexts=0", "--iters=0", "--beta=0", "--beta=nan",
                                      "--lambda0=-1", "--lambda0=inf", "--seed=-1"])
    def test_out_of_range_argument_is_usage_error(self, tmp_path, capsys, flag):
        assert run("saddle-demo", flag, "--out", tmp_path / "sd") == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_small_beta_writes_nothing_to_stderr(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run("saddle-demo", "--beta", 1e-4, "--out", tmp_path / "sd")
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_small_beta_passes(self, tmp_path, capsys):
        # pi* underflows to 0 in places; its log, and so the KL, stays finite
        assert run("saddle-demo", "--beta", 1e-4, "--out", tmp_path / "sd") == 0
        assert "PASS" in capsys.readouterr().out
        rows = (tmp_path / "sd" / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 201
        assert all(math.isfinite(float(row.split(",")[2])) for row in rows)

    @pytest.mark.parametrize("lambda0", [1e300, 1.7976931348623157e308])
    def test_overflow_is_numeric_failure_without_warnings(self, tmp_path, capsys, lambda0):
        # 1e300: (lambda_0 - lambda*)^2 of the envelope overflows, and the run
        # used to pass against an infinite envelope; the largest float also
        # overflows the logits
        out = tmp_path / "sd"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("saddle-demo", "--lambda0", lambda0, "--out", out)
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: numeric failure") and len(err.splitlines()) == 1
        assert not (out / "trace.csv").exists()

    def test_numeric_overflow_is_numeric_failure(self, tmp_path, capsys):
        # (M K / beta)^2 of the convergence envelope overflows a float
        assert run("saddle-demo", "--contexts", 5, "--beta", 1e-170, "--iters", 5,
                   "--out", tmp_path / "sd") == 3
        assert "numeric failure" in capsys.readouterr().err

    @settings(max_examples=80, deadline=None)
    @given(text=problem_texts())
    def test_fuzzed_problem_file_never_escapes(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.json"
            path.write_text(text)
            code, err = run_quietly("saddle-demo", "--problem", path, "--iters", 10,
                                    "--out", Path(tmp) / "sd")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(contexts=st.integers(-1, 8), iters=st.integers(-1, 12), seed=st.integers(-1, 5),
           beta=st.one_of(st.floats(), st.sampled_from([0.05, 0.5, 1e-170, 1e200])),
           lambda0=st.one_of(st.floats(), st.floats(0.0, 5.0)),
           budget=st.one_of(st.none(), st.floats()))
    def test_fuzzed_arguments_never_escape(self, contexts, iters, seed, beta, lambda0, budget):
        argv = [f"--contexts={contexts}", f"--iters={iters}", f"--seed={seed}",
                f"--beta={beta!r}", f"--lambda0={lambda0!r}"]
        if budget is not None:
            argv.append(f"--budget={budget!r}")
        with tempfile.TemporaryDirectory() as tmp:
            code, err = run_quietly("saddle-demo", *argv, "--out", Path(tmp) / "sd")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


class TestAtomicOutputs:
    @pytest.mark.parametrize("failing", ["trace.csv", "manifest.json"])
    def test_failed_replace_keeps_previous_saddle_outputs(self, tmp_path, monkeypatch,
                                                          failing):
        out = tmp_path / "sd"
        assert run("saddle-demo", "--contexts", 5, "--seed", 1, "--iters", 10,
                   "--out", out) == 0
        before = {name: (out / name).read_bytes() for name in ("trace.csv", "manifest.json")}
        fail_replace_of(monkeypatch, failing)
        assert run("saddle-demo", "--contexts", 5, "--seed", 2, "--iters", 30,
                   "--out", out) == 2
        assert (out / failing).read_bytes() == before[failing]
        if failing == "trace.csv":  # the manifest is written last
            assert (out / "manifest.json").read_bytes() == before["manifest.json"]
        else:
            assert (out / "trace.csv").read_bytes() != before["trace.csv"]

    @pytest.mark.parametrize("failing", ["corpus.jsonl", "corpus.csv", "model.json",
                                         "metrics.json"])
    def test_failed_replace_keeps_previous_output(self, tmp_path, monkeypatch, failing):
        def produce(seed):
            if failing.startswith("corpus"):
                return run("gen-synth", "--regime", "offsetbias", "--n", 30 + seed,
                           "--seed", seed, "--out", tmp_path / failing)
            data = tmp_path / f"d{seed}.jsonl"
            assert run("gen-synth", "--regime", "offsetbias", "--n", 120, "--seed", seed,
                       "--out", data) == 0
            if failing == "model.json":
                return run("train", "--data", data, "--budget", 2, "--epochs", 2,
                           "--seed", seed, "--out", tmp_path / "run")
            return run("eval", "--baseline", "random:0.5", "--data", data,
                       "--out", tmp_path / "run")

        assert produce(1) == 0
        target = next(tmp_path.rglob(failing))
        before = target.read_bytes()
        fail_replace_of(monkeypatch, failing)
        assert produce(2) == 2
        assert target.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_replace_keeps_previous_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "d.jsonl"
        assert run("gen-synth", "--regime", "offsetbias", "--n", 20, "--seed", 1,
                   "--out", out) == 0
        manifest = tmp_path / "d.jsonl.manifest.json"
        before = manifest.read_bytes()
        fail_replace_of(monkeypatch, manifest.name)
        assert run("gen-synth", "--regime", "offsetbias", "--n", 30, "--seed", 2,
                   "--out", out) == 2
        assert manifest.read_bytes() == before


class TestInspectWeights:
    def test_infinite_tau_gives_unit_weights(self, data_file, tmp_path):
        out = tmp_path / "w.csv"
        assert run("inspect-weights", "--data", data_file, "--baseline", "random:0.5",
                   "--tau", "inf", "--target", "cost", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# tau=inf"
        assert lines[1] == "# direction=worst_high"
        assert lines[3] == "index,f,weight"
        weights = [float(line.split(",")[2]) for line in lines[4:]]
        assert all(w == 1.0 for w in weights)

    def test_reward_target_direction(self, data_file, tmp_path):
        out = tmp_path / "wr.csv"
        assert run("inspect-weights", "--data", data_file, "--baseline", "all-instruct",
                   "--tau", "0.5", "--target", "reward", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "# direction=worst_low"
        rows = [line.split(",") for line in lines[4:]]
        # lower realized reward gets the larger weight
        f = np.array([float(r[1]) for r in rows])
        w = np.array([float(r[2]) for r in rows])
        assert w[np.argmin(f)] >= w[np.argmax(f)]
        assert np.mean(w) == pytest.approx(1.0, abs=1e-12)

    def test_model_cost_scale(self, data_file, tmp_path):
        # a model trained on a split whose mean instruct cost is twice this file's
        data = load_dataset(data_file)
        policy = LinearPolicy(np.zeros(data.n_features), 0.0)
        save_model(tmp_path / "model.json", policy, 2 * data.instruct_cost_mean)
        out = tmp_path / "w.csv"
        assert run("inspect-weights", "--data", data_file, "--model", tmp_path / "model.json",
                   "--tau", 1, "--target", "cost", "--out", out) == 0
        row = out.read_text().splitlines()[4].split(",")
        scaled = data.with_cost_scale(2 * data.instruct_cost_mean)
        f = scaled.cost[:, 0] + 0.5 * (scaled.cost[:, 1] - scaled.cost[:, 0])
        assert (float(row[1]), float(row[2])) == (
            f[0], tilt_weights(f, 1.0, "worst_high").weights[0])
        own = data.cost[0, 0] + 0.5 * (data.cost[0, 1] - data.cost[0, 0])
        assert float(row[1]) != own

    @pytest.mark.parametrize("tau", ["0", "-1", "nan"])
    def test_tau_not_positive_is_usage_error(self, data_file, tmp_path, capsys, tau):
        out = tmp_path / "w.csv"
        assert run("inspect-weights", "--data", data_file, "--baseline", "random:0.5",
                   f"--tau={tau}", "--target", "cost", "--out", out) == 1
        assert "--tau must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_tilt_with_non_finite_weights_is_numeric_failure(self, data_file, tmp_path,
                                                             capsys):
        # (f - mean) / tau overflows; this used to write a file of nan weights
        out = tmp_path / "w.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("inspect-weights", "--data", data_file, "--baseline", "random:0.5",
                       "--tau", "1e-320", "--target", "cost", "--out", out)
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: numeric failure") and len(err.splitlines()) == 1
        assert list(tmp_path.glob("w.csv*")) == []

    def test_model_and_baseline_together_is_usage_error(self, data_file, tmp_path, capsys):
        data = load_dataset(data_file)
        save_model(tmp_path / "model.json", LinearPolicy(np.zeros(data.n_features), 0.0), 1.0)
        assert run("inspect-weights", "--data", data_file, "--model", tmp_path / "model.json",
                   "--baseline", "all-instruct", "--tau", 1, "--target", "cost",
                   "--out", tmp_path / "w.csv") == 1
        assert "exactly one of --model or --baseline" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()
