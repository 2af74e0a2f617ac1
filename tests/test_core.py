import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_instance, mean412_dataset, random_dataset, scoring_case
from oracles import row_evaluate

from racer.core import (
    ConstantPolicy,
    Dataset,
    FeedForwardPolicy,
    LinearPolicy,
    ParseError,
    TabularPolicy,
    ValidationError,
    counter_uniforms,
    evaluate_policy,
    load_dataset,
    policy_probs,
    save_dataset,
    sigmoid,
    write_json,
    _SCORE_ROWS,
    _forward,
    _params,
    _sigmoid,
)
from racer.evalbench import PRESET_SCENARIOS, gen_synthetic
from racer.trainer import save_model


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(i, cost_0, cost_1, **kw):
    base = {"id": f"r{i}", "features": [0.1 * i, 1.0], "correct_0": 1,
            "correct_1": 0, "cost_0": cost_0, "cost_1": cost_1}
    base.update(kw)
    return base


class TestLoadDataset:
    def test_normalization_by_constant_mean(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [record(0, 100, 300), record(1, 100, 500), record(2, 100, 400)])
        data = load_dataset(path)
        assert np.allclose(data.cost[:, 0], 1.0)
        assert np.allclose(data.cost[:, 1], [3.0, 5.0, 4.0])
        assert data.ids == ("r0", "r1", "r2")  # order preserved

    def test_zero_cost_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [record(0, 100, 0)])
        with pytest.raises(ValidationError, match="positive"):
            load_dataset(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(record(0, 100, 300)) + "\n")
            fh.write("{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_missing_field_names_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rec = record(0, 100, 300)
        del rec["correct_1"]
        write_jsonl(path, [rec])
        with pytest.raises(ParseError, match="line 1.*correct_1"):
            load_dataset(path)

    def test_inconsistent_feature_dimension(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [record(0, 100, 300),
                           record(1, 100, 300, features=[1.0, 2.0, 3.0])])
        with pytest.raises(ValidationError, match="dimension"):
            load_dataset(path)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_synthetic_round_trip_is_bitwise(self, tmp_path, fmt):
        from dataclasses import replace
        scenario = replace(PRESET_SCENARIOS["offsetbias"], n=100, seed=7)
        data = gen_synthetic(scenario)
        path = tmp_path / f"d.{fmt}"
        save_dataset(data, path)
        back = load_dataset(path)
        assert back.ids == data.ids
        assert back.tags == data.tags
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.cost_raw, data.cost_raw)
        assert np.array_equal(back.cost, data.cost)
        assert np.array_equal(back.correct, data.correct)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            Dataset([])


class TestPolicyProb:
    def test_zero_linear_policy_is_half(self):
        inst = make_instance(0, [0.3, -0.7, 2.0], (1, 1), (10.0, 20.0))
        policy = LinearPolicy(np.zeros(3), 0.0)
        assert policy_probs(policy, Dataset([inst]))[0] == 0.5

    def test_unit_logit_matches_independent_sigmoid(self):
        inst = make_instance(0, [1.0], (1, 1), (10.0, 20.0))
        policy = LinearPolicy(np.array([1.0]), 0.0)
        expected = 1.0 / (1.0 + math.exp(-1.0))
        p = float(policy_probs(policy, Dataset([inst]))[0])
        assert p == pytest.approx(expected, abs=1e-12)
        assert round(p, 5) == 0.73106

    def test_sigmoid_edge_values_pinned(self):
        x = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, math.inf, -math.inf,
                      709.0, -709.0, 1e-320, -1e-320])
        expected = np.array([0.5, 0.5, 1.0, 5e-324, 1.0, 0.0, 1.0, 0.0,
                             1.0, 1.216780750623423e-308, 0.5, 0.5])
        got = sigmoid(x)
        assert got.shape == x.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        # a NaN comes back bit for bit, sign included
        for nan in (np.array([math.nan]), -np.array([math.nan])):
            assert np.array_equal(sigmoid(nan).view(np.uint64), nan.view(np.uint64))

    def test_sigmoid_matches_two_sided_formula(self):
        x = np.random.default_rng(3).standard_normal(5000) * 40.0
        e = np.exp(-np.abs(x))
        expected = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.array_equal(sigmoid(x), expected)
        assert np.array_equal(sigmoid(x.reshape(50, 100)), expected.reshape(50, 100))

    def test_sigmoid_kernel_shares_its_exponential(self):
        # the trainer takes p and the entropy term's log1p(e) from one call
        edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308])
        normals = np.random.default_rng(11).standard_normal((3, 64))
        for u in (edges, normals, normals * 300.0):
            p, e = _sigmoid(u)
            assert p.tobytes() == sigmoid(u).tobytes()
            assert np.log1p(e).tobytes() == np.log1p(np.exp(-np.abs(u))).tobytes()

    def test_mirrored_logits_sum_to_one(self):
        policy = LinearPolicy(np.array([1.0]), 0.0)
        plus, minus = policy_probs(policy, Dataset([make_instance(0, [1.0], (1, 1), (1.0, 2.0)),
                                                    make_instance(1, [-1.0], (1, 1), (1.0, 2.0))]))
        assert plus + minus == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        policy = LinearPolicy(np.zeros(3), 0.0)
        inst = make_instance(0, [1.0, 2.0], (1, 1), (1.0, 2.0))
        with pytest.raises(ValidationError, match="dimension"):
            policy_probs(policy, Dataset([inst]))

    def test_overflowing_logit_scores_without_a_warning(self):
        # the matmul overflows to an infinite logit; this used to print
        # "RuntimeWarning: overflow encountered in matmul"
        policy = LinearPolicy(np.array([1e308, -1e308]), 0.0)
        data = Dataset([make_instance(i, [2.0, 2.0 - i], (1, 0), (1.0, 2.0)) for i in range(2)])
        assert set(policy_probs(policy, data).tolist()) <= {0.0, 1.0}

    @pytest.mark.parametrize("mode", ["expected", "sampled"])
    def test_nan_logit_of_finite_weights_is_refused(self, mode):
        # 2 * 1e308 overflows to inf in the hidden unit, and inf * 0 is NaN:
        # expected mode used to score NaN and sampled mode to route the row
        # to instruct, each with "invalid value encountered in matmul"
        policy = FeedForwardPolicy((np.array([[1e308]]), np.array([[0.0]])),
                                   (np.zeros(1), np.zeros(1)))
        data = Dataset([make_instance(i, [f], (1, 0), (1.0, 2.0))
                        for i, f in enumerate([0.0, 1e-300, 2.0, 3.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert policy_probs(policy, data.subset([0, 1])).tolist() == [0.5, 0.5]
            with pytest.raises(FloatingPointError) as caught:
                evaluate_policy(policy, data, mode=mode)
        assert str(caught.value) == "instance 'z2': the policy's logit is NaN"

    def test_unknown_tabular_id(self):
        policy = TabularPolicy({"other": 0.4})
        inst = make_instance(0, [1.0], (1, 1), (1.0, 2.0))
        with pytest.raises(ValidationError, match="unknown context id"):
            policy_probs(policy, Dataset([inst]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: FeedForwardPolicy((), ()), ValidationError,
     "weights and biases must be non-empty and aligned"),
    (lambda: FeedForwardPolicy((np.ones((1, 2)),), ()), ValidationError,
     "weights and biases must be non-empty and aligned"),
    (lambda: ConstantPolicy(1.5), ValidationError, "p_reason must lie in [0, 1]"),
    (lambda: ConstantPolicy(math.nan), ValidationError, "p_reason must lie in [0, 1]"),
    (lambda: _params(ConstantPolicy(0.5)), TypeError,
     "ConstantPolicy has no trainable parameters"),
    (lambda: save_model(Path(tempfile.gettempdir()) / "never-written.json", object(), 1.0),
     TypeError, "cannot serialize object"),
    (lambda: LinearPolicy(np.ones((2, 4)), 0.0), ValidationError,
     "linear policy weights must be a vector"),
    (lambda: FeedForwardPolicy((np.ones((3, 2)), np.ones((1, 4))), (np.ones(3), np.ones(1))),
     ValidationError, "feedforward policy layer shapes do not chain to one logit"),
    (lambda: FeedForwardPolicy((np.ones((4, 2)), np.ones((3, 4))), (np.ones(4), np.ones(3))),
     ValidationError, "feedforward policy layer shapes do not chain to one logit"),
], ids=["no-layer", "unaligned-layers", "constant-above-one", "constant-nan",
        "constant-params", "serialize-object", "matrix-linear", "unchained-layers",
        "three-logits"])
def test_invalid_policy_names_its_fault(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


class TestEvaluatePolicy:
    def test_all_instruct_costs_one(self):
        data = random_dataset(0)
        m = evaluate_policy(ConstantPolicy(0.0), data)
        assert abs(m.realized_cost - 1.0) < 1e-9
        assert m.reasoning_fraction == 0.0

    def test_all_reasoning_reference_regime(self):
        data = mean412_dataset()
        m = evaluate_policy(ConstantPolicy(1.0), data)
        assert m.realized_cost == pytest.approx(4.12, abs=1e-12)
        assert m.accuracy == pytest.approx(np.mean(data.correct[:, 1]), abs=1e-15)
        assert m.reasoning_fraction == 1.0

    def test_expected_equals_mean_of_sampled(self):
        # Monte-Carlo oracle: average sampled metrics over many seeds.
        data = random_dataset(3, n=40)
        rng = np.random.default_rng(11)
        policy = TabularPolicy({i: float(rng.uniform(0.1, 0.9)) for i in data.ids})
        expected = evaluate_policy(policy, data, mode="expected")
        n_seeds = 10_000
        acc = np.empty(n_seeds)
        cost = np.empty(n_seeds)
        frac = np.empty(n_seeds)
        for s in range(n_seeds):
            m = evaluate_policy(policy, data, mode="sampled", seed=s)
            acc[s], cost[s], frac[s] = m.accuracy, m.realized_cost, m.reasoning_fraction
        for sample, target in ((acc, expected.accuracy),
                               (cost, expected.realized_cost),
                               (frac, expected.reasoning_fraction)):
            se = sample.std(ddof=1) / math.sqrt(n_seeds)
            assert abs(sample.mean() - target) <= 3.0 * se

    def test_sampled_is_deterministic_in_seed(self):
        data = random_dataset(5, n=30)
        policy = ConstantPolicy(0.5)
        a = evaluate_policy(policy, data, mode="sampled", seed=9)
        b = evaluate_policy(policy, data, mode="sampled", seed=9)
        c = evaluate_policy(policy, data, mode="sampled", seed=10)
        assert a == b
        assert a != c

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            evaluate_policy(ConstantPolicy(0.0), random_dataset(1), mode="bogus")

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_sampled_seed_outside_64_bits_is_rejected(self, seed):
        # masked to 64 bits, -1 drew the actions of 2**64 - 1 and 2**64 those of 0
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            counter_uniforms(seed, 3)
        with pytest.raises(ValueError, match="seed"):
            evaluate_policy(ConstantPolicy(0.5), random_dataset(1), mode="sampled", seed=seed)
        assert counter_uniforms(2**64 - 1, 3).shape == (3,)


class TestInvariants:
    def test_expected_metrics_linear_in_tabular_blend(self):
        data = random_dataset(7, n=25)
        rng = np.random.default_rng(0)
        p1 = {i: float(rng.uniform(0, 1)) for i in data.ids}
        p2 = {i: float(rng.uniform(0, 1)) for i in data.ids}
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            blend = TabularPolicy({k: alpha * p1[k] + (1 - alpha) * p2[k] for k in p1})
            mb = evaluate_policy(blend, data)
            m1 = evaluate_policy(TabularPolicy(p1), data)
            m2 = evaluate_policy(TabularPolicy(p2), data)
            for field in ("accuracy", "realized_cost", "reasoning_fraction"):
                want = alpha * getattr(m1, field) + (1 - alpha) * getattr(m2, field)
                assert abs(getattr(mb, field) - want) <= 1e-12

    def test_normalization_idempotent(self):
        data = random_dataset(2)
        again = data.with_cost_scale(None)
        assert again.instruct_cost_mean == data.instruct_cost_mean
        assert np.array_equal(again.cost, data.cost)

    def test_expected_mode_bitwise_deterministic(self):
        data = random_dataset(4)
        policy = LinearPolicy(np.full(data.n_features, 0.3), -0.1)
        assert evaluate_policy(policy, data) == evaluate_policy(policy, data)

    def test_subset_keeps_cost_scale(self):
        data = random_dataset(6, n=20)
        sub = data.subset([3, 1, 7])
        assert sub.instruct_cost_mean == data.instruct_cost_mean
        assert np.array_equal(sub.cost[0], data.cost[3])

    def test_policy_probs_matches_single_rows(self):
        data = random_dataset(8, n=10)
        policy = LinearPolicy(np.linspace(-1, 1, data.n_features), 0.2)
        vec = policy_probs(policy, data)
        for i in range(len(data)):
            # batch and single-row matmuls may differ in the last ulp
            assert vec[i] == pytest.approx(policy_probs(policy, data.subset([i]))[0], rel=1e-14)


@st.composite
def scored_policies(draw):
    """(policy, dataset) of each policy kind, on random shapes and values."""
    n = draw(st.one_of(st.integers(1, 70), st.integers(70, 5000)))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = Dataset.from_columns([f"r{i}" for i in range(n)], [None] * n,
                                rng.standard_normal((n, d)) * 3, rng.integers(0, 2, (n, 2)),
                                rng.uniform(0.1, 50.0, (n, 2)))
    kind = draw(st.sampled_from(["linear", "feedforward", "constant", "tabular"]))
    if kind == "linear":
        return LinearPolicy(rng.standard_normal(d), float(rng.standard_normal())), data
    if kind == "feedforward":
        widths = [d, *draw(st.lists(st.integers(1, 9), max_size=3)), 1]
        return FeedForwardPolicy(
            tuple(rng.standard_normal((w_out, w_in)) for w_in, w_out in zip(widths, widths[1:])),
            tuple(rng.standard_normal(w) for w in widths[1:])), data
    if kind == "constant":
        return ConstantPolicy(draw(st.sampled_from([0.0, 1.0, float(rng.uniform())]))), data
    return TabularPolicy(dict(zip(data.ids, rng.uniform(size=n).tolist()))), data


# prints the SHA-256 of each case's probabilities, scored by the expression
# {score} of policy and data
_SCORE_HASHES = """
import hashlib
from helpers import scoring_case
from oracles import row_logits
from racer.core import policy_probs, sigmoid
for case in {cases!r}:
    policy, data = scoring_case(*case)
    print(hashlib.sha256(({score}).tobytes()).hexdigest())
"""


def _child_hashes(cases, score, blas_threads):
    """_SCORE_HASHES's lines, run in a child process on blas_threads
    OpenBLAS threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(sys.path)}
    code = _SCORE_HASHES.format(cases=cases, score=score)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def _blas_name() -> str:
    """The BLAS numpy was built against, or "" where numpy (< 1.26) does
    not report it."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:
        return ""


class TestScoringKernel:
    @settings(max_examples=150, deadline=None)
    @given(case=scored_policies(), mode=st.sampled_from(["expected", "sampled"]),
           seed=st.integers(0, 2**64 - 1))
    def test_evaluate_policy_is_bitwise_the_row_oracle(self, case, mode, seed):
        # one stacked forward pass and one reduction score every kind and mode;
        # the oracle keeps the 2-d forward, np.mean and indexed sampled actions
        policy, data = case
        got = evaluate_policy(policy, data, mode=mode, seed=seed)
        want = row_evaluate(policy, data, mode=mode, seed=seed)
        assert [v.hex() for v in astuple(got)] == [v.hex() for v in astuple(want)]

    @pytest.mark.parametrize("widths", [(), (32, 16, 8)], ids=["linear", "feedforward"])
    def test_scoring_forward_is_bitwise_the_training_forward(self, widths):
        # scoring keeps no layer inputs; its arithmetic, and so every
        # logit of every replica, is the one the training step runs
        r, n, d = 3, 500, 5
        rng = np.random.default_rng(7)
        x = rng.standard_normal((r, n, d))
        if widths:
            dims = [d, *widths, 1]
            params = [rng.standard_normal((r, *shape)) for w_in, w_out in zip(dims, dims[1:])
                      for shape in ((w_out, w_in), (w_out,))]
        else:
            params = [rng.standard_normal((r, 1, d)), rng.standard_normal((r, 1))]
        u, acts = _forward(params, x)
        scored, kept = _forward(params, x, keep_inputs=False)
        assert len(acts) == len(widths) + 1 and kept == ()
        assert scored.shape == (r, n) and scored.tobytes() == u.tobytes()

    @pytest.mark.skipif("openblas" not in _blas_name(), reason="OpenBLAS's row bits only")
    def test_blocked_scoring_is_the_single_threaded_whole_pass(self):
        # the reference scores all rows in one 2-d pass on one BLAS thread.
        # Blocks of at least _SCORE_ROWS rows give every row those bits,
        # here (the default thread count) and on two threads; there, on a
        # 2-core x86-64 host, one whole pass over the network's 33 333 rows
        # splits them between the threads and gives one of them other bits.
        # A 16-row tail scored on its own (n = b + 16) would change the
        # network's bits too
        b = _SCORE_ROWS
        cases = [(kind, n) for kind in ("linear", "feedforward")
                 for n in (b - 1, b, b + 1, b + 16, 2 * b - 1, 2 * b, 2 * b + 1, 33_333)]
        want = _child_hashes(cases, "sigmoid(row_logits(policy, data.features))", 1)
        assert len(want) == len(cases)
        here = [hashlib.sha256(policy_probs(*scoring_case(*case)).tobytes()).hexdigest()
                for case in cases]
        assert here == want
        assert _child_hashes(cases, "policy_probs(policy, data)", 2) == want

    def test_scoring_holds_at_most_two_adjacent_layers(self):
        # scoring keeps no layer input for a backward pass it never runs,
        # and a block holds the (256, 128, 64) network's two widest layers
        # for at most 2 * _SCORE_ROWS - 1 rows; what grows with n are the
        # logits and sigmoid's e and result. The first call is untraced, so
        # one-time set-up does not count
        import tracemalloc
        n, d = 10_000, 12
        rng = np.random.default_rng(0)
        data = Dataset.from_columns([f"r{i}" for i in range(n)], [None] * n,
                                    rng.standard_normal((n, d)), rng.integers(0, 2, (n, 2)),
                                    rng.uniform(0.1, 50.0, (n, 2)))
        dims = [d, 256, 128, 64, 1]
        policy = FeedForwardPolicy(
            tuple(rng.standard_normal((w_out, w_in)) / 8 for w_in, w_out in zip(dims, dims[1:])),
            tuple(rng.standard_normal(w) for w in dims[1:]))
        first = policy_probs(policy, data)
        tracemalloc.start()
        try:
            second = policy_probs(policy, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second.tobytes() == first.tobytes()
        assert peak <= 2**20 + 8 * (2 * _SCORE_ROWS - 1) * (256 + 128) + 3 * 8 * n, peak


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
    st.lists(st.floats(), max_size=4), st.lists(st.integers(-3, 3), max_size=4),
    st.lists(st.one_of(st.floats(), st.integers(), st.booleans()), max_size=4),
    st.builds(np.array, st.lists(st.floats(allow_nan=False), max_size=3)),
    st.builds(np.float64, st.floats()))
json_payloads = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3),
                            st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=12)


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(payload=json_payloads)
    def test_bytes_are_json_dumps_indented(self, payload):
        # lists of numbers go through the C encoder; the file stays the
        # bytes of json.dumps(payload, indent=1) and a newline
        expected = json.dumps(payload, indent=1, default=np.ndarray.tolist) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.json"
            write_json(path, payload)
            assert path.read_bytes() == expected.encode()

    def test_model_payload_bytes(self, tmp_path):
        policy = FeedForwardPolicy((np.arange(6.0).reshape(2, 3) / 7, np.array([[-0.0, 1e300]])),
                                   (np.array([1.5, -2.0]), np.array([0.1])))
        payload = {"policy": {"kind": "feedforward", **vars(policy)}, "digest": None, "n": 3}
        write_json(tmp_path / "m.json", payload)
        expected = json.dumps(payload, indent=1, default=np.ndarray.tolist) + "\n"
        assert (tmp_path / "m.json").read_bytes() == expected.encode()
