import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import racer.cli
from helpers import make_instance
from racer.cli import main
from racer.core import (Dataset, LinearPolicy, ParseError, evaluate_policy, load_dataset,
                        save_dataset)
from racer.evalbench import (CONSTANT_METHODS, LEARNABLE_METHODS, PRESET_SCENARIOS,
                             gen_synthetic, load_scenario, run_sweep, shift_scenarios)
from racer.reweight import MODES, RobustConfig, exact_tilt, tilt_weights
from racer.saddle import random_problem
from racer.trainer import OPTIMIZERS, POLICY_KINDS, TrainConfig, load_model, save_model

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

# a sweep's config-file keys: its training flags, with underscores, and init_bias
SWEEP_KEYS = {"tau_r", "tau_c", "beta", "epochs", "batch_size", "lr", "dual_lr",
              "val_fraction", "policy", "hidden", "optimizer", "init_bias"}


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


def overflowing_scenario(top=None, **domain):
    """Bytes of SCENARIO with the fields of the dict top set on the scenario
    and the keyword fields on both domains: finite values whose draws
    overflow in the generator."""
    payload = {**SCENARIO, **(top or {}),
               "domains": [{**d, **domain} for d in SCENARIO["domains"]]}
    return json.dumps(payload).encode()


OVERFLOWING_SCENARIOS = {
    "cost-ratio-sigma": (overflowing_scenario(cost_ratio_sigma=1e300),
                         "costs must be positive and finite"),
    "instruct-cost-sigma": (overflowing_scenario({"instruct_cost_sigma": 1e300}),
                            "costs must be positive and finite"),
    "medians": (overflowing_scenario(cost_ratio_median=1e308, instruct_cost_median=1e308),
                "costs must be positive and finite"),
    "features": (overflowing_scenario(feature_noise=1e308, feature_mean=[1e308] * 3),
                 "non-finite feature value"),
}


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

    @pytest.mark.parametrize("regime", sorted(PRESET_SCENARIOS))
    def test_apply_shift_without_shift_map_is_usage_error(self, tmp_path, capsys, regime):
        # it used to write the unshifted rows and record apply_shift: true
        out = tmp_path / "d.jsonl"
        assert run("gen-synth", "--regime", regime, "--n", 20, "--apply-shift",
                   "--out", out) == 1
        assert "--apply-shift" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sources", [[], ["--regime", "separable3", "--scenario",
                                              SCENARIOS / "separable3.json"]],
                             ids=["neither", "both"])
    def test_regime_or_scenario_is_required_alone(self, tmp_path, capsys, sources):
        out = tmp_path / "d.jsonl"
        assert run("gen-synth", *sources, "--n", 20, "--out", out) == 1
        assert "exactly one of --scenario or --regime is required" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        (json.dumps({**SCENARIO, "domains": [3, SCENARIO["domains"][1]]}).encode(),
         "domain 0: expected a JSON object, got int"),
        (json.dumps({**SCENARIO, "domains": [SCENARIO["domains"][0]]}).encode(),
         "must sum to 1"),
        (json.dumps({**SCENARIO, "shift": {"light": 1.0}}).encode(),
         "shift gives no weight for domain 'heavy'"),
        (json.dumps({**SCENARIO, "shift": [1, 2]}).encode(),
         "field 'shift' is not an object of numbers"),
    ], ids=["not-utf8", "list", "truncated", "text-n", "negative-seed", "domains-number",
            "text-feature-mean", "null-weight", "number-domain", "weights-sum",
            "partial-shift", "list-shift"])
    def test_bad_scenario_file_is_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "s.json"
        path.write_bytes(text)
        assert run("gen-synth", "--scenario", path, "--n", 20, "--out", tmp_path / "d") == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("shift", [[], ["--apply-shift"]], ids=["plain", "apply-shift"])
    def test_repeated_domain_name_is_data_error(self, tmp_path, capsys, shift):
        # it used to generate rows tagged with one name for both domains, and
        # --apply-shift blamed the mixture weights, naming no file
        scenario = json.loads((SCENARIOS / "shift_up.json").read_text())
        scenario["domains"][1]["name"] = "light"
        scenario["shift"] = {"light": 1.0}
        path, out = tmp_path / "s.json", tmp_path / "d.jsonl"
        path.write_text(json.dumps(scenario))
        assert run("gen-synth", "--scenario", path, "--n", 20, *shift, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: scenario file {path}: domain name 'light' is repeated\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_SCENARIOS))
    def test_overflowing_scenario_is_data_error(self, tmp_path, capsys, case):
        # the generator's draws used to print "RuntimeWarning: overflow
        # encountered in exp" (a traceback under the error filter)
        text, message = OVERFLOWING_SCENARIOS[case]
        path, out = tmp_path / "s.json", tmp_path / "d.jsonl"
        path.write_bytes(text)
        assert run("gen-synth", "--scenario", path, "--n", 30, "--out", out) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(text=scenario_texts(), apply_shift=st.booleans())
    @example(text=OVERFLOWING_SCENARIOS["cost-ratio-sigma"][0], apply_shift=False)
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
        # budget, seed and mode are train keys only: a sweep names the first
        # key, in file order, that it does not take
        untaken = [key for key in re.findall(r'"(\w+)":', text) if key not in SWEEP_KEYS]
        if command == "sweep" and untaken:
            message = f"unknown key {untaken[0]!r}"
        assert run(command, *source, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, recorded", [
        ("budget", 5, lambda config: config["budget"] == 5.0),
        ("seed", 3, lambda config: config["seed"] == 3),
        ("mode", "acer", lambda config: config["robust"]["mode"] == "acer"),
    ], ids=["budget", "seed", "mode"])
    def test_budget_is_a_train_config_key_only(self, data_file, tmp_path, capsys, key, value,
                                               recorded):
        # as are seed and mode: every sweep cell sets its own
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "sw"
        assert run("sweep", "--train-data", data_file, "--budgets", 2, "--repeats", 1,
                   "--methods", "all-instruct", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}: unknown key {key!r}" in err
        assert not list(out.glob("cells/*.json"))
        budget = [] if key == "budget" else ["--budget", 2]
        assert run("train", "--data", data_file, *budget, "--epochs", 2, "--config", cfg,
                   "--out", tmp_path / "tr") == 0
        assert recorded(json.loads((tmp_path / "tr" / "manifest.json").read_text())["config"])

    @pytest.mark.parametrize("flag", ["--budget=-1", "--epochs=0", "--seed=-1",
                                      "--hidden=3,x", "--val-fraction=1"])
    def test_bad_flag_is_usage_error(self, data_file, tmp_path, capsys, flag):
        argv = ["train", "--data", data_file, "--budget", 2, "--policy", "feedforward"]
        assert run(*argv, flag, "--out", tmp_path / "o") == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--beta", "nan", "beta must be non-negative and finite, got nan"),
        ("--beta", "inf", "beta must be non-negative and finite, got inf"),
        ("--lr", "inf", "learning rates must be positive and finite"),
        ("--dual-lr", "inf", "learning rates must be positive and finite"),
    ])
    def test_non_finite_rate_flag_names_the_flag(self, data_file, tmp_path, capsys, command,
                                                 flag, value, message):
        # these used to train and exit 3 on a non-finite objective or logit
        source = (["--data", data_file, "--budget", 2] if command == "train"
                  else ["--train-data", data_file, "--budgets", 2, "--repeats", 1,
                        "--methods", "racer,random"])
        assert run(command, *source, flag, value, "--out", tmp_path / "o") == 1
        assert f"error: {flag}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"beta": NaN}', "field 'beta': beta must be non-negative and finite"),
        ('{"beta": Infinity}', "field 'beta': beta must be non-negative and finite"),
        ('{"lr": Infinity}', "field 'lr': learning rates must be positive and finite"),
        ('{"dual_lr": Infinity}', "field 'dual_lr': learning rates must be positive and finite"),
        # a non-finite initial logit used to train and exit 3
        ('{"init_bias": NaN}', "field 'init_bias': init_bias must be finite, got nan"),
        ('{"init_bias": -Infinity}', "field 'init_bias': init_bias must be finite, got -inf"),
    ])
    def test_non_finite_rate_in_config_file_is_data_error(self, data_file, tmp_path, capsys,
                                                          text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run("train", "--data", data_file, "--budget", 2, "--config", cfg,
                   "--out", tmp_path / "o") == 2
        assert f"config file {cfg}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, vocabulary", [
        ("--mode", "robust", MODES), ("--policy", "tree", POLICY_KINDS),
        ("--optimizer", "rmsprop", tuple(OPTIMIZERS)),
    ])
    def test_flag_choices_are_the_library_vocabularies(self, data_file, tmp_path, capsys,
                                                       flag, value, vocabulary):
        assert run("train", "--data", data_file, "--budget", 2, flag, value,
                   "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid choice: {value!r} (choose from " \
            f"{', '.join(map(repr, vocabulary))})" in err
        for name in vocabulary:  # every name a flag offers is one the library trains
            assert run_quietly("train", "--data", data_file, "--budget", 2, "--epochs", 1,
                               flag, name, "--out", tmp_path / "o")[0] == 0

    def test_infinite_budget_is_an_unconstrained_run(self, data_file, tmp_path):
        assert run("train", "--data", data_file, "--budget", "inf", "--epochs", 2,
                   "--out", tmp_path / "o") == 0

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

    def test_csv_field_over_the_csv_field_limit_is_data_error(self, tmp_path, capsys):
        # the csv module refuses a field of more than 131 072 characters
        path = tmp_path / "d.csv"
        path.write_text("id,feat_0,correct_0,correct_1,cost_0,cost_1\n"
                        + "a" * 131_073 + ",0.5,1,0,1.5,4.0\n")
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}: field larger than"):
            load_dataset(path)
        assert run("eval", "--baseline", "all-instruct", "--data", path,
                   "--out", tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert "field larger than field limit (131072)" in err
        assert "Traceback" not in err and not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("features", [["feat_0", "feat_2"], ["feat_1", "feat_01"],
                                          ["feat_3"]], ids=["gap", "repeat", "no-feat-0"])
    def test_csv_feature_columns_must_be_numbered_from_zero(self, tmp_path, capsys, features):
        # each used to load, scoring a column as another feature
        path = tmp_path / "d.csv"
        path.write_text(",".join(["id", *features, "correct_0,correct_1,cost_0,cost_1"]) + "\n"
                        + ",".join(["a", *["0.5"] * len(features), "1,0,1.5,4.0"]) + "\n")
        message = "line 1: feature columns must be exactly feat_0..feat_<d-1>"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dataset(path)
        assert run("eval", "--baseline", "all-instruct", "--data", path,
                   "--out", tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and not (tmp_path / "ev").exists()

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
        (MODEL_TEXT.replace("racer-model-v1", "racer-model-v0"),
         "unsupported model format 'racer-model-v0'"),
        (json.dumps({"format": "racer-model-v1", "instruct_cost_mean": 2.0}),
         "missing field 'policy'"),
        (json.dumps({**json.loads(MODEL_TEXT), "policy": 3}),
         "policy: expected a JSON object, got int"),
        (model_text(kind="tree"), "unknown policy kind 'tree'"),
        (json.dumps({**json.loads(MODEL_TEXT), "policy": {"kind": "tabular", "table": ["a"]}}),
         "policy: field 'table' is not an object of numbers"),
        (model_text(kind="feedforward", weights=[[[1.0, 0.0], [0.0, 1.0]]], biases=[[0.0, 0.0]]),
         "layer shapes do not chain"),
    ], ids=["list", "truncated", "matrix-weights", "text-bias", "numeric-text-bias",
            "bool-weights", "text-weights", "bool-scale", "unchained-layers", "bias-shape",
            "negative-scale", "old-format", "no-policy", "number-policy", "unknown-kind",
            "list-table", "two-logits"])
    def test_bad_model_file_is_data_error(self, tmp_path, capsys, text, message):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps(RECORD) + "\n")
        model = tmp_path / "model.json"
        model.write_text(text)
        assert run("eval", "--model", model, "--data", data, "--out", tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: model file {model}: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["eval"], ["inspect-weights", "--tau", 1, "--target",
                                                    "cost"]], ids=["eval", "inspect-weights"])
    @pytest.mark.parametrize("text, message", [
        (model_text(weights=[math.nan, 0.0]), "policy weights and biases must be finite"),
        (model_text(weights=[-math.inf, 0.0]), "policy weights and biases must be finite"),
        (model_text(bias=math.inf), "policy weights and biases must be finite"),
        (model_text(kind="feedforward", weights=[[[1.0, 0.0]], [[1.0]]],
                    biases=[[0.0], [math.nan]]), "policy weights and biases must be finite"),
        (model_text(instruct_cost_mean=0.0), "instruct_cost_mean must be positive and finite"),
        (model_text(instruct_cost_mean="inf"), "instruct_cost_mean must be positive and finite"),
        (model_text(instruct_cost_mean=math.nan),
         "instruct_cost_mean must be positive and finite"),
    ], ids=["nan-weight", "infinite-weight", "infinite-bias", "nan-layer-bias", "zero-scale",
            "infinite-scale", "nan-scale"])
    def test_non_finite_model_is_data_error(self, tmp_path, capsys, command, text, message):
        # a NaN weight used to write {"accuracy": NaN, ...} from eval and exit
        # 3 from inspect-weights, and a bad scale failed without the file's name
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps(RECORD) + "\n")
        model = tmp_path / "model.json"
        model.write_text(text)
        assert run(*command, "--model", model, "--data", data, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == f"error: model file {model}: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "model.json"]

    @pytest.mark.parametrize("command", [["eval"], ["inspect-weights", "--tau", 1, "--target",
                                                    "cost"]], ids=["eval", "inspect-weights"])
    @pytest.mark.parametrize("value", [2.0, -0.5, "inf", math.nan])
    def test_tabular_probability_outside_unit_interval_is_data_error(self, tmp_path, capsys,
                                                                      command, value):
        # 2.0 used to score accuracy 1.67, "inf" to write NaN into metrics.json
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps(RECORD) + "\n")
        model = json.loads(MODEL_TEXT)
        model["policy"] = {"kind": "tabular", "table": {"a": value}}
        (tmp_path / "model.json").write_text(json.dumps(model))
        assert run(*command, "--model", tmp_path / "model.json", "--data", data,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: model file {tmp_path / 'model.json'}: context 'a': "
                              "probability must lie in [0, 1]")
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "model.json"]

    @pytest.mark.parametrize("command", [["eval"], ["eval", "--mode", "sampled"],
                                         ["inspect-weights", "--tau", 1, "--target", "cost"]],
                             ids=["eval", "eval-sampled", "inspect-weights"])
    def test_nan_logit_of_finite_weights_is_numeric_failure(self, tmp_path, capsys, command):
        # the hidden unit 2 * 1e308 overflows to inf, and inf * 0 is NaN. eval
        # used to write {"accuracy": NaN, ...} and exit 0 (sampled mode: route
        # the row to instruct), and inspect-weights blamed the tilt
        data = tmp_path / "d.jsonl"
        data.write_text("".join(json.dumps({**RECORD, "id": i, "features": [f]}) + "\n"
                                for i, f in (("a", 0.0), ("b", 2.0), ("c", 2.0))))
        model = tmp_path / "model.json"
        model.write_text(model_text(kind="feedforward", weights=[[[1e308]], [[0.0]]],
                                    biases=[[0.0], [0.0]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*command, "--model", model, "--data", data,
                       "--out", tmp_path / "out") == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ("error: numeric failure (FloatingPointError: "
                                           "instance 'b': the policy's logit is NaN)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "model.json"]

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

    def test_infinite_budget_is_written_as_inf_and_its_cell_reused(self, small_data, tmp_path):
        out = tmp_path / "sw"
        args = ["sweep", "--train-data", small_data, "--budgets", "inf", "--repeats", "1",
                "--methods", "all-instruct,random", "--out", out]
        assert run_quietly(*args)[0] == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["budgets"] == ["inf"]
        (cell,) = (out / "cells").glob("*.json")
        payload = json.loads(cell.read_text())
        assert [c["budget"] for c in payload["cells"] + payload["failures"]] == ["inf", "inf"]
        raw, stamp = (out / "sweep.csv").read_bytes(), cell.stat().st_mtime_ns
        assert run_quietly(*args, "--resume")[0] == 0
        assert cell.stat().st_mtime_ns == stamp
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
        ("--budgets=", "must be non-empty"),  # an empty list used to run the defaults
        ("--budgets=,", "must be non-empty"),
        ("--methods=", "must be non-empty"),
        ("--methods=,", "must be non-empty"),
        ("--repeats=0", "repeats must be at least 1"),
        ("--workers=0", "--workers must be at least 1"),
        # each cell sets its own budget, seed and mode
        ("--budget=2", "unrecognized arguments: --budget=2"),
        ("--seed=1", "unrecognized arguments: --seed=1"),
        ("--mode=acer", "unrecognized arguments: --mode=acer"),
        ("--budgets=2,x", "bad numeric list '2,x'"),
        ("--test-data=te.jsonl", "--test-data expects name=path, got 'te.jsonl'"),
    ])
    def test_bad_sweep_flag_is_usage_error(self, data_file, tmp_path, capsys, flag, message):
        out = tmp_path / "sw"
        assert run("sweep", "--train-data", data_file, "--methods", "racer,random",
                   "--repeats", "1", "--epochs", "2", flag, "--out", out) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_sweep_without_training_source_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run("sweep", "--budgets", "2.0", "--out", out) == 1
        assert "either --scenario or --train-data is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sources", [["--train-data", "{}"], ["--test-data", "held={}"],
                                         ["--train-data", "{}", "--test-data", "held={}"]])
    def test_scenario_excludes_data_files(self, data_file, tmp_path, capsys, sources):
        # the data files used to be ignored: exit 0 and no `held` split
        out = tmp_path / "sw"
        assert run("sweep", "--scenario", SCENARIOS / "offsetbias.json",
                   *(a.format(data_file) for a in sources), "--out", out) == 1
        assert "--scenario excludes --train-data and --test-data" in capsys.readouterr().err
        assert not out.exists()

    def test_each_input_file_is_hashed_once(self, data_file, tmp_path, monkeypatch):
        hashed, sha256 = [], racer.cli._sha256
        monkeypatch.setattr(racer.cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
        out = tmp_path / "sw"
        assert run_quietly("sweep", "--train-data", data_file, "--test-data",
                           f"held={data_file}", "--budgets", "2.0", "--repeats", "1",
                           "--methods", "all-instruct", "--out", out)[0] == 0
        assert list(map(str, hashed)) == [str(data_file)] * 2  # cell keys; the manifest reuses
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {str(data_file): sha256(data_file)}

    def test_workers_variable_is_ignored(self, finished_sweep, tmp_path, monkeypatch):
        args, done = finished_sweep
        monkeypatch.setenv("RACER_WORKERS", "x")
        assert run_quietly(*args, "--out", tmp_path)[0] == 0
        assert (tmp_path / "sweep.csv").read_bytes() == (done / "sweep.csv").read_bytes()

    def test_empty_test_split_name_is_usage_error(self, tmp_path, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr(racer.cli, "load_dataset", loaded.append)
        out = tmp_path / "sw"
        assert run("sweep", "--train-data", tmp_path / "d.jsonl", "--test-data",
                   f"={tmp_path / 'd.jsonl'}", "--out", out) == 1
        assert "test split names must be non-empty" in capsys.readouterr().err
        assert not loaded and not out.exists()

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

    def test_bad_test_split_record_names_its_file(self, data_file, tmp_path, capsys):
        # this used to print only "error: line 1: missing field 'features'"
        held = tmp_path / "h.jsonl"
        held.write_text(json.dumps({"id": "a"}) + "\n")
        assert run("sweep", "--train-data", data_file, "--test-data", f"held={held}",
                   "--budgets", "2", "--repeats", "1", "--methods", "all-instruct",
                   "--out", tmp_path / "sw") == 2
        err = capsys.readouterr().err
        assert err == f"error: {held}: line 1: missing field 'features'\n"
        assert not (tmp_path / "sw").exists()

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
        assert not (tmp_path / "sw").exists()  # the outputs are made after the work

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
        assert not (tmp_path / "sw").exists()  # the outputs are made after the work

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

    @pytest.mark.parametrize("flags, message", [
        (["--test-data", "train={data}"],
         "repeated split name (the training split is train): 'train'"),
        (["--test-data", "a={data}", "--test-data", "a={data}"],
         "repeated split name (the training split is train): 'a'"),
        (["--budgets", "3,3"], "repeated budget: 3.0"),
        (["--methods", "all-instruct,all-instruct"], "repeated method: 'all-instruct'"),
    ], ids=["train-split", "split", "budget", "method"])
    def test_repeated_plan_entry_fails_before_training(self, data_file, tmp_path, capsys,
                                                        monkeypatch, flags, message):
        # these used to score the test file as train, drop the first split,
        # or write one cell several times over (n = 4 in sweep_agg.csv)
        def train(*args, **kwargs):
            raise AssertionError("a unit trained")

        monkeypatch.setattr("racer.evalbench.train", train)
        out = tmp_path / "sw"
        assert run("sweep", "--train-data", data_file, "--repeats", 2, "--budgets", 3,
                   "--methods", "racer,all-instruct",  # flags given again override these
                   *(f.format(data=data_file) for f in flags), "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_renamed_test_split_is_recomputed_on_resume(self, data_file, tmp_path):
        # the cell digest keyed a test file by its path alone, so a renamed
        # split reused the cells written under the old name
        args = ["sweep", "--train-data", data_file, "--budgets", "2.0", "--repeats", "1",
                "--methods", "all-instruct", "--out", tmp_path / "sw"]
        assert run(*args, "--test-data", f"a={data_file}") == 0
        assert run(*args, "--test-data", f"b={data_file}", "--resume") == 0
        with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
            assert [r["split"] for r in csv.DictReader(fh)] == ["b", "train"]
        assert len(list((tmp_path / "sw" / "cells").glob("*.json"))) == 2

    @pytest.mark.parametrize("source, cell", [
        (["--scenario", "s.json"],
         "aa8e43f34cdc3d83eb336cd94bd8b28379e16054a775dbdefa664aa9af165352"),
        (["--train-data", "d.jsonl"],
         "6953cdda3ab57f1dfff99926b88afae747c39e343bcb23c23d4ab852a5420319"),
    ], ids=["scenario", "train-data"])
    def test_cell_file_names_without_test_files_are_kept(self, tmp_path, monkeypatch,
                                                         source, cell):
        # the names earlier versions wrote, so --resume still finds their cells;
        # inputs are keyed by the path as given, hence the relative paths
        monkeypatch.chdir(tmp_path)
        shutil.copy(SCENARIOS / "shift_up.json", "s.json")
        assert run("gen-synth", "--regime", "offsetbias", "--n", 80, "--seed", 2,
                   "--out", "d.jsonl") == 0
        assert run("sweep", *source, "--budgets", "2", "--repeats", "1",
                   "--methods", "all-instruct", "--out", "sw") == 0
        assert [p.name for p in Path("sw", "cells").iterdir()] == [f"{cell}.json"]

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
                                      "--lambda0=-1", "--lambda0=inf", "--seed=-1",
                                      "--budget=nan", "--budget=inf", "--budget=-inf"])
    def test_out_of_range_argument_is_usage_error(self, tmp_path, capsys, flag):
        assert run("saddle-demo", flag, "--out", tmp_path / "sd") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert flag.split("=")[0] in err

    @pytest.mark.parametrize("flag", ["--contexts=50", "--seed=7", "--beta=0.9", "--budget=3"])
    def test_problem_file_excludes_the_random_problem_flags(self, tmp_path, capsys, flag):
        # the file's problem used to run while the manifest recorded the flag;
        # the missing file shows the flags are checked before it is read
        out = tmp_path / "sd"
        assert run("saddle-demo", "--problem", tmp_path / "missing.json", flag,
                   "--out", out) == 1
        assert f"error: --problem excludes {flag.split('=')[0]}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_the_values_the_run_used(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(PROBLEM))
        assert run_quietly("saddle-demo", "--problem", path, "--iters", 5,
                           "--out", tmp_path / "file")[0] == 0
        manifest = json.loads((tmp_path / "file" / "manifest.json").read_text())
        assert manifest["config"] == {"problem": str(path), "lambda0": 1.0, "iters": 5}
        assert manifest["seed"] is None
        # a random problem records random_problem's defaults for the flags not given
        assert run_quietly("saddle-demo", "--iters", 5, "--out", tmp_path / "random")[0] == 0
        manifest = json.loads((tmp_path / "random" / "manifest.json").read_text())
        assert manifest["config"] == {"contexts": 8, "seed": 0, "beta": 0.05, "budget": None,
                                      "problem": None, "lambda0": 1.0, "iters": 5}
        assert manifest["seed"] == 0

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

    def test_multiplier_past_the_bracket_cap_is_numeric_failure(self, tmp_path, capsys):
        # the budget is feasible, so this is no data error: lambda* lies past 2**60
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"rho": [1.0], "reward": [[0.0, 1.0]],
                                    "cost": [[1e-19, 2e-19]], "w1": [1.0], "w2": [1.0],
                                    "budget": 1.5e-19, "beta": 1e-40}))
        assert run("saddle-demo", "--problem", path, "--out", tmp_path / "sd") == 3
        assert capsys.readouterr().err == ("error: numeric failure (ArithmeticError: "
                                           "dual bracket expansion exceeded 2**60)\n")
        assert not (tmp_path / "sd").exists()

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


class TestStrictJson:
    def test_every_command_writes_strict_json(self, tmp_path):
        # an infinite budget used to be written as the bare token Infinity
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        data = tmp_path / "data.jsonl"
        for argv in (
            ["gen-synth", "--regime", "separable3", "--n", 100, "--seed", 2, "--out", data],
            ["train", "--data", data, "--budget", "inf", "--epochs", 1, "--out", tmp_path / "tr"],
            ["eval", "--model", tmp_path / "tr" / "model.json", "--data", data,
             "--out", tmp_path / "ev"],
            ["sweep", "--train-data", data, "--budgets", "inf", "--repeats", 1,
             "--methods", "all-instruct,random", "--out", tmp_path / "sw"],
            ["saddle-demo", "--contexts", 3, "--iters", 5, "--out", tmp_path / "sd"],
            ["inspect-weights", "--data", data, "--baseline", "all-instruct", "--tau", "inf",
             "--target", "cost", "--out", tmp_path / "w.csv"],
        ):
            assert run_quietly(*argv)[0] == 0, argv[0]
        written = sorted(tmp_path.rglob("*.json"))
        assert len(written) == 9
        for path in written:
            json.loads(path.read_text(), parse_constant=reject)


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


# each command's flags before --out, the functions that do its work, and
# whether its --out is a directory (or else a file)
OUT_COMMANDS = {
    "train": (["--data", "{data}", "--budget", 2, "--epochs", 2], ["load_dataset", "train"],
              True),
    "eval": (["--baseline", "all-instruct", "--data", "{data}"],
             ["load_dataset", "evaluate_policy"], True),
    "sweep": (["--train-data", "{data}", "--budgets", 2, "--repeats", 1,
               "--methods", "all-instruct"], ["load_dataset", "run_units"], True),
    "saddle-demo": (["--iters", 10], ["random_problem", "solve_saddle"], True),
    "gen-synth": (["--regime", "magpie-ultra", "--n", 50], ["gen_synthetic", "save_dataset"],
                  False),
    "inspect-weights": (["--data", "{data}", "--baseline", "random:0.5", "--tau", 1,
                         "--target", "cost"], ["load_dataset", "policy_probs"], False),
}
# the faults an output path can have: (--out under tmp_path, the error line)
OUT_FAULTS = {
    "a file": ("F", "[Errno 17] File exists: '{out}'"),
    "a link to nowhere": ("L", "[Errno 17] File exists: '{out}'"),
    "directory under a file": ("F/a/b", "[Errno 20] Not a directory: '{out}'"),
    "file under a file": ("F/a/x", "[Errno 20] Not a directory: '{out}.tmp'"),
    "a directory": ("D", "[Errno 21] Is a directory: '{out}.tmp' -> '{out}'"),
    "missing parent": ("none/x", "[Errno 2] No such file or directory: '{out}.tmp'"),
}


def out_argv(command, data, out) -> list:
    flags = OUT_COMMANDS[command][0]
    return [command, *(str(f).format(data=data) for f in flags), "--out", out]


class Planned(Exception):
    """A command's work started: its output plan is complete."""


def _planned(*args, **kwargs):
    raise Planned


def planned_files(command, data, out) -> list[Path]:
    """The files of a command's output plan, in the order checked: the
    command runs until its work starts, which its plan precedes."""
    paths = []
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(racer.cli, "_require_writable",
                        lambda path, made: paths.append(Path(path)))
        for name in OUT_COMMANDS[command][1]:
            patched.setattr(racer.cli, name, _planned)
        with pytest.raises(Planned):
            run(*out_argv(command, data, out))
    return paths


def plan_name(path: Path, root: Path) -> str:
    """path under root, a sweep cell's digest written <digest>."""
    return re.sub("[0-9a-f]{64}", "<digest>", str(path.relative_to(root)))


def _every_planned_file() -> list[tuple[str, str]]:
    """(command, name) of each file of each command's output plan, with
    --out d/out: a plan needs its inputs to exist, not to hold data."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "d").mkdir()
        (root / "data.jsonl").touch()
        return [(command, plan_name(path, root)) for command in OUT_COMMANDS
                for path in planned_files(command, root / "data.jsonl", root / "d" / "out")]


PLANNED_FILES = _every_planned_file()


class TestUnwritableOut:
    """A command that cannot write one of its outputs fails with exit 2 and
    the error line the write would give, before it does any work: it used to
    find out only when it wrote its outputs, for every file but --out."""

    @pytest.mark.parametrize("command, fault", [
        (command, fault) for command, (_, _, directory) in OUT_COMMANDS.items()
        for fault in (["a file", "a link to nowhere", "directory under a file"] if directory
                      else ["file under a file", "a directory", "missing parent"])])
    def test_fails_before_the_work(self, data_file, tmp_path, capsys, monkeypatch, command,
                                   fault):
        path, line = OUT_FAULTS[fault]
        (tmp_path / "F").write_text("")
        (tmp_path / "D").mkdir()
        (tmp_path / "L").symlink_to("nowhere")
        self.check_fails_before_the_work(tmp_path, capsys, monkeypatch, command,
                                         out_argv(command, data_file, tmp_path / path),
                                         line.format(out=tmp_path / path))

    @pytest.mark.parametrize("command, name, fault", [
        (*planned, fault) for planned in PLANNED_FILES
        for fault in ("a directory", "its temporary a directory", "its directory a file")])
    def test_every_planned_file_fails_before_the_work(self, data_file, tmp_path, capsys,
                                                      monkeypatch, command, name, fault):
        out = tmp_path / "d" / "out"
        out.parent.mkdir()
        planned = planned_files(command, data_file, out)
        path = next(path for path in planned if plan_name(path, tmp_path) == name)
        tmp = Path(f"{path}.tmp")
        if fault == "a directory":
            path.mkdir(parents=True)
            line = f"[Errno 21] Is a directory: '{tmp}' -> '{path}'"
        elif fault == "its temporary a directory":
            tmp.mkdir(parents=True)
            line = f"[Errno 21] Is a directory: '{tmp}'"
        else:  # the plan makes that directory, or the first file written there fails
            path.parent.parent.mkdir(parents=True, exist_ok=True)
            shutil.rmtree(path.parent, ignore_errors=True)
            path.parent.write_text("")
            first = next(p for p in planned if p.parent == path.parent)
            line = (f"[Errno 17] File exists: '{path.parent}'" if OUT_COMMANDS[command][2]
                    else f"[Errno 20] Not a directory: '{first}.tmp'")
        self.check_fails_before_the_work(tmp_path, capsys, monkeypatch, command,
                                         out_argv(command, data_file, out), line)

    @staticmethod
    def check_fails_before_the_work(tmp_path, capsys, monkeypatch, command, argv, line):
        before = sorted(tmp_path.rglob("*"))
        calls = []
        with monkeypatch.context() as patched:
            for name in OUT_COMMANDS[command][1]:
                patched.setattr(racer.cli, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
            assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert calls == [] and sorted(tmp_path.rglob("*")) == before
        # the line is the one the write gives once the work is done
        monkeypatch.setattr(racer.cli, "_require_writable", lambda path, made: None)
        assert run_quietly(*argv) == (2, f"error: {line}\n")

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_a_run_hashes_before_the_work_and_writes_its_plan_only(self, data_file, tmp_path,
                                                                    monkeypatch, command):
        # a file written outside the plan would be neither checked nor listed
        out = tmp_path / "d" / "out"
        out.parent.mkdir()
        planned = planned_files(command, data_file, out)
        calls = []
        for name in ["_sha256", *OUT_COMMANDS[command][1]]:
            monkeypatch.setattr(racer.cli, name, lambda *args, name=name, real=getattr(
                racer.cli, name), **kwargs: calls.append(name) or real(*args, **kwargs))
        assert run_quietly(*out_argv(command, data_file, out))[0] == 0
        # the manifest's digests are of the bytes the work read
        assert calls[:calls.count("_sha256")] == ["_sha256"] * calls.count("_sha256")
        assert {path for path in out.parent.rglob("*") if path.is_file()} == set(planned)
        manifest = next(path for path in planned if path.name.endswith("manifest.json"))
        outputs = json.loads(manifest.read_text())["outputs"]
        assert sorted(outputs) == sorted(str(path) for path in planned if path != manifest)

    @pytest.mark.parametrize("argv, alias", [
        (["inspect-weights", "--data", "alias.jsonl", "--baseline", "random:0.5", "--tau", 1,
          "--target", "cost", "--out", "alias.jsonl"], "alias.jsonl"),
        (["eval", "--model", "m.json", "--data", "ev2/metrics.json", "--out", "ev2"],
         "ev2/metrics.json"),
        (["inspect-weights", "--data", "w.csv.tmp", "--baseline", "random:0.5", "--tau", 1,
          "--target", "cost", "--out", "w.csv"], "w.csv.tmp"),  # written, then renamed
    ])
    def test_an_output_that_is_an_input_is_refused(self, data_file, tmp_path, capsys,
                                                   monkeypatch, argv, alias):
        # the input used to be overwritten, and the manifest gave the output's digest as its
        monkeypatch.chdir(tmp_path)
        Path(alias).parent.mkdir(exist_ok=True)
        shutil.copy(data_file, alias)
        save_model("m.json", LinearPolicy(np.zeros(load_dataset(data_file).n_features), 0.0), 1.0)
        before = {path: path.read_bytes() if path.is_file() else None
                  for path in tmp_path.rglob("*")}
        calls = []
        for name in ("load_dataset", "evaluate_policy", "policy_probs"):
            monkeypatch.setattr(racer.cli, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: writing {alias} would overwrite the input {alias}\n")
        assert calls == []
        assert {path: path.read_bytes() if path.is_file() else None
                for path in tmp_path.rglob("*")} == before


class TestInspectWeights:
    @pytest.mark.parametrize("target, direction", [("cost", "worst_high"),
                                                   ("reward", "worst_low")])
    def test_infinite_tau_gives_unit_weights(self, data_file, tmp_path, target, direction):
        out = tmp_path / "w.csv"
        assert run("inspect-weights", "--data", data_file, "--baseline", "random:0.5",
                   "--tau", "inf", "--target", target, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# tau=inf"
        assert lines[1] == f"# direction={direction}"
        assert lines[3:7] == ["# kl=0.0", f"# ess={300.0!r}", "# weight_range=1.0..1.0",
                              "index,f,weight"]
        weights = [float(line.split(",")[2]) for line in lines[7:]]
        assert len(weights) == 300 and all(w == 1.0 for w in weights)
        # the anchor is the mean of the written f, as a finite tau's is
        f = np.array([float(line.split(",")[1]) for line in lines[7:]])
        assert lines[2] == f"# baseline={float(f.mean())!r}"

    def test_reward_target_direction(self, data_file, tmp_path):
        out = tmp_path / "wr.csv"
        assert run("inspect-weights", "--data", data_file, "--baseline", "all-instruct",
                   "--tau", "0.5", "--target", "reward", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "# direction=worst_low"
        rows = [line.split(",") for line in lines[7:]]
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
        row = out.read_text().splitlines()[7].split(",")
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

    @pytest.mark.parametrize("target, direction", [("cost", "worst_high"),
                                                   ("reward", "worst_low")])
    def test_kl_at_the_exact_tilt_temperature_is_its_radius(self, data_file, tmp_path, target,
                                                            direction):
        out, delta = tmp_path / "w.csv", 0.05
        argv = ["inspect-weights", "--data", data_file, "--baseline", "random:0.5",
                "--target", target, "--out", out]
        assert run(*argv, "--tau", "inf") == 0
        f = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[7:]])
        solution = exact_tilt(f, np.full(f.size, 1 / f.size), delta, direction)
        assert solution.status == "active"
        assert run(*argv, "--tau", repr(solution.tau_star)) == 0
        lines = out.read_text().splitlines()
        w = np.array([float(line.split(",")[2]) for line in lines[7:]])
        # the bisection stops at a relative width of 1e-13 in tau
        assert float(lines[3].removeprefix("# kl=")) == pytest.approx(delta, rel=1e-9)
        assert float(lines[4].removeprefix("# ess=")) == pytest.approx(
            w.sum() ** 2 / (w * w).sum(), rel=1e-12)
        assert lines[5] == f"# weight_range={float(w.min())!r}..{float(w.max())!r}"
        assert 1.0 < float(lines[4].removeprefix("# ess=")) < f.size

    def test_model_and_baseline_together_is_usage_error(self, data_file, tmp_path, capsys):
        data = load_dataset(data_file)
        save_model(tmp_path / "model.json", LinearPolicy(np.zeros(data.n_features), 0.0), 1.0)
        assert run("inspect-weights", "--data", data_file, "--model", tmp_path / "model.json",
                   "--baseline", "all-instruct", "--tau", 1, "--target", "cost",
                   "--out", tmp_path / "w.csv") == 1
        assert "exactly one of --model or --baseline" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()


def _die(*args):
    """A worker process killed by the system, say for its memory."""
    os._exit(137)


class TestDeadWorker:
    def expect_dead_worker(self, capsys, argv):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died (") and len(err.splitlines()) == 1

    def test_sweep(self, small_data, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(racer.evalbench, "_run_sweep_cell", _die)
        out = tmp_path / "sw"
        self.expect_dead_worker(capsys, ["sweep", "--train-data", small_data, "--budgets", "2,3",
                                         "--repeats", 1, "--methods", "all-instruct",
                                         "--workers", 2, "--out", out])
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_save(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(racer.core, "_POOL_ROWS", 1)
        monkeypatch.setattr(racer.core, "usable_cpus", lambda: 2)
        monkeypatch.setattr(racer.core, "_block_text", _die)
        self.expect_dead_worker(capsys, ["gen-synth", "--regime", "separable3", "--n", 50,
                                         "--out", tmp_path / "d.jsonl"])
        assert list(tmp_path.iterdir()) == []

    def test_load(self, data_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(racer.core, "_POOL_BYTES", 1)
        monkeypatch.setattr(racer.core, "usable_cpus", lambda: 2)
        monkeypatch.setattr(racer.core, "_range_blocks", _die)
        out = tmp_path / "ev"
        self.expect_dead_worker(capsys, ["eval", "--baseline", "all-instruct", "--data",
                                         data_file, "--out", out])
        assert not out.exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("callee, argv", [
        ("random_problem", ["saddle-demo", "--iters", 10**12]),
        ("gen_synthetic", ["gen-synth", "--regime", "magpie-ultra", "--n", 10**12]),
    ], ids=["saddle-demo", "gen-synth"])
    def test_out_of_memory_is_data_error(self, tmp_path, capsys, monkeypatch, callee, argv):
        # a real allocation this large would take the machine's memory: the
        # callee raises what numpy raises instead (it used to escape, exit 1)
        message = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                   "and data type float64")

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"racer.cli.{callee}", exhausted)
        assert run(*argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: out of memory ({message})\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, name", [
        (["train", "--budget", 2, "--policy", "feedforward", "--hidden", 99999999999999999999],
         "hidden width 99999999999999999999"),
        (["saddle-demo", "--contexts", 99999999999999999999], "--contexts 99999999999999999999"),
        (["saddle-demo", "--contexts", 10, "--iters", 2**63], f"--iters {2**63}"),
        (["gen-synth", "--regime", "magpie-ultra", "--n", 99999999999999999999],
         "scenario n 99999999999999999999"),
        (["sweep", "--budgets", "2,3", "--repeats", 2**63],
         f"sweep units (budgets x --repeats) {2 * 2**63}"),
    ], ids=["train-hidden", "saddle-demo-contexts", "saddle-demo-iters", "gen-synth-n",
            "sweep-repeats"])
    def test_size_beyond_any_array_is_out_of_memory(self, data_file, tmp_path, capsys,
                                                    argv, name):
        # sizes of at least 2**63 fail before anything is allocated; numpy
        # used to raise a ValueError (a traceback) and gen-synth an
        # OverflowError (exit 3)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        extra = ["--data", data_file] if argv[0] == "train" else []
        assert run(*argv, *extra, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err == (f"error: out of memory ({name} exceeds the {sys.maxsize // 8} float64 "
                       "values an array can hold)\n")
        assert set(tmp_path.iterdir()) == before
