import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racer.cli import main
from racer.saddle import random_problem

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
        with np.errstate(over="ignore", invalid="ignore"):
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

    def test_unknown_baseline(self, data_file, tmp_path):
        assert run("eval", "--baseline", "bogus", "--data", data_file,
                   "--out", tmp_path / "x") == 1
        assert run("eval", "--baseline", "random:1.7", "--data", data_file,
                   "--out", tmp_path / "y") == 1

    def test_model_or_baseline_required(self, data_file, tmp_path):
        assert run("eval", "--data", data_file, "--out", tmp_path / "z") == 1


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
        (json.dumps({**PROBLEM, "reward": "xy"}), "field 'reward' is not numeric"),
        (json.dumps({**PROBLEM, "budget": [2.0]}), "field 'budget' is not numeric"),
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
