import json
import math

import numpy as np
import pytest

from helpers import make_instance, mean412_dataset, random_dataset

from racer.core import (
    ConstantPolicy,
    Dataset,
    LinearPolicy,
    ParseError,
    TabularPolicy,
    ValidationError,
    counter_uniforms,
    evaluate_policy,
    load_dataset,
    policy_prob,
    policy_probs,
    save_dataset,
    sigmoid,
    _sigmoid,
)
from racer.evalbench import PRESET_SCENARIOS, gen_synthetic


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
        save_dataset(data, path, format=fmt)
        back = load_dataset(path, format=fmt)
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
        assert policy_prob(policy, inst) == 0.5

    def test_unit_logit_matches_independent_sigmoid(self):
        inst = make_instance(0, [1.0], (1, 1), (10.0, 20.0))
        policy = LinearPolicy(np.array([1.0]), 0.0)
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert policy_prob(policy, inst) == pytest.approx(expected, abs=1e-12)
        assert round(policy_prob(policy, inst), 5) == 0.73106

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
        plus = policy_prob(policy, make_instance(0, [1.0], (1, 1), (1.0, 2.0)))
        minus = policy_prob(policy, make_instance(1, [-1.0], (1, 1), (1.0, 2.0)))
        assert plus + minus == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        policy = LinearPolicy(np.zeros(3), 0.0)
        inst = make_instance(0, [1.0, 2.0], (1, 1), (1.0, 2.0))
        with pytest.raises(ValidationError, match="dimension"):
            policy_prob(policy, inst)

    def test_unknown_tabular_id(self):
        policy = TabularPolicy({"other": 0.4})
        inst = make_instance(0, [1.0], (1, 1), (1.0, 2.0))
        with pytest.raises(ValidationError, match="unknown context id"):
            policy_prob(policy, inst)


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

    def test_policy_probs_matches_policy_prob(self):
        data = random_dataset(8, n=10)
        policy = LinearPolicy(np.linspace(-1, 1, data.n_features), 0.2)
        vec = policy_probs(policy, data)
        for i, inst in enumerate(data.instances):
            # batch and single-row matmuls may differ in the last ulp
            assert vec[i] == pytest.approx(policy_prob(policy, inst), rel=1e-14)
