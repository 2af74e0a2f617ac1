import math
import warnings
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import make_instance
from oracles import finite_diff_gradient, stack_train

from racer.core import (ConstantPolicy, Dataset, FeedForwardPolicy, LinearPolicy, Metrics,
                        TabularPolicy, ValidationError, evaluate_policy)
from racer.reweight import MODES, RobustConfig, uniform_weights
from racer.trainer import (
    Checkpoint,
    DualState,
    TrainConfig,
    TrainingDivergenceError,
    batch_objective,
    init_policy,
    load_model,
    save_model,
    select_checkpoint,
    train,
    _objective_on_params,
    _params,
)


def routing_dataset(seed=0, n=300, ratio=4.0, p_gain=0.9, p_helps=0.5):
    """Features encode whether reasoning helps; costs are heterogeneous."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        helps = rng.random() < p_helps
        x = np.array([1.0 if helps else -1.0, rng.standard_normal() * 0.3,
                      rng.standard_normal() * 0.3])
        if helps:
            correct = (int(rng.random() < 0.3), int(rng.random() < p_gain))
        else:
            correct = (int(rng.random() < 0.85), int(rng.random() < 0.85))
        c0 = 100.0
        c1 = c0 * ratio * float(rng.uniform(0.7, 1.3))
        instances.append(make_instance(i, x, correct, (c0, c1)))
    return Dataset(instances)


def objective_entropy(logit):
    """The batch objective with beta = 1, lambda = 0 and no reward: the
    binary entropy H(sigma(logit)) in nats."""
    data = Dataset([make_instance(0, [1.0], (0, 0), (10.0, 20.0))])
    value, _ = batch_objective(LinearPolicy(np.array([logit]), 0.0), data,
                               uniform_weights(1), uniform_weights(1),
                               DualState(lam=0.0, beta=1.0))
    return value


class TestEntropy:
    """The entropy term of the training objective."""

    def test_uniform_maximum(self):
        assert objective_entropy(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_boundaries_are_zero(self):
        # a saturated sigmoid gives exactly 0, not 0 * log 0 = nan
        assert objective_entropy(800.0) == 0.0
        assert objective_entropy(-800.0) == 0.0

    def test_hand_values(self):
        assert objective_entropy(math.log(9.0)) == pytest.approx(0.32508, abs=1e-5)  # p = 0.9
        assert objective_entropy(-math.log(9.0)) == pytest.approx(0.32508, abs=1e-5)


class TestBatchObjective:
    def test_constant_reward_objective(self):
        # lambda = 0, beta = 0, both actions correct: value 1, zero gradient
        data = Dataset([make_instance(i, [0.5 * i, 1.0], (1, 1), (10.0, 20.0))
                        for i in range(4)])
        policy = LinearPolicy(np.array([0.3, -0.2]), 0.1)
        dual = DualState(lam=0.0, beta=0.0)
        value, grads = batch_objective(policy, data, uniform_weights(4),
                                       uniform_weights(4), dual)
        assert value == pytest.approx(1.0, abs=1e-12)
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-12)

    def test_entropy_term_hand_value(self):
        # single instance, logit 1: H(sigma(1)) = H(0.73106) = 0.58220
        data = Dataset([make_instance(0, [1.0], (0, 0), (10.0, 20.0))])
        policy = LinearPolicy(np.array([1.0]), 0.0)
        dual = DualState(lam=0.0, beta=1.0)
        value, _ = batch_objective(policy, data, uniform_weights(1),
                                   uniform_weights(1), dual)
        p = 1.0 / (1.0 + math.exp(-1.0))
        assert value == pytest.approx(-p * math.log(p) - (1 - p) * math.log(1 - p),
                                      abs=1e-12)
        assert round(value, 5) == 0.58220

    @pytest.mark.parametrize("kind", ["linear", "feedforward"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(5)
        data = routing_dataset(seed=2, n=12)
        wr = rng.uniform(0.5, 2.0, 12)
        wr /= wr.mean()
        wc = rng.uniform(0.5, 2.0, 12)
        wc /= wc.mean()
        lam, beta = 0.7, 0.05
        for trial in range(5):
            policy = init_policy(kind, data.n_features, (6, 4), rng)
            params = _params(policy)
            for p in params:
                p += rng.standard_normal(p.shape) * 0.3
            _, grads = _objective_on_params(
                params, kind, data.features, data.correct, data.cost, wr, wc, lam, beta)

            def value_of(ps):
                v, _ = _objective_on_params(
                    ps, kind, data.features, data.correct, data.cost, wr, wc, lam, beta)
                return v

            fd = finite_diff_gradient(value_of, params, h=1e-5)
            for g, g_fd in zip(grads, fd):
                denom = np.maximum(np.abs(g_fd), 1e-8)
                assert np.max(np.abs(g - g_fd) / denom) <= 1e-4

    def test_nonfinite_input_raises(self):
        data = Dataset([make_instance(i, [2.0, 2.0], (1, 0), (10.0, 20.0))
                        for i in range(3)])
        policy = LinearPolicy(np.full(2, 1e308), 0.0)  # logit overflows to inf
        dual = DualState()
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDivergenceError, match="index"):
                batch_objective(policy, data, uniform_weights(3), uniform_weights(3), dual)

    def test_weight_alignment_checked(self):
        data = routing_dataset(seed=4, n=8)
        policy = LinearPolicy(np.zeros(data.n_features), 0.0)
        with pytest.raises(ValueError, match="align"):
            batch_objective(policy, data, uniform_weights(5), uniform_weights(8),
                            DualState())


class TestTrain:
    def test_slack_budget_routes_by_reward(self):
        data = routing_dataset(seed=0, n=400)
        config = TrainConfig(budget=20.0, epochs=30, batch_size=64, primal_lr=5e-2,
                             dual_lr=0.05, seed=1, robust=RobustConfig(mode="acer"))
        result = train(data, config)
        assert result.history[-1].lam <= 1e-6
        helps = data.features[:, 0] > 0
        from racer.core import policy_probs
        p = policy_probs(result.best.policy, data)
        assert p[helps].mean() > 0.8
        assert p[~helps].mean() < 0.4

    def test_binding_budget_pins_cost(self):
        # nearly no headroom: reasoning is expensive, budget barely above 1
        data = routing_dataset(seed=1, n=200, ratio=8.0)
        config = TrainConfig(budget=1.05, epochs=60, batch_size=50, primal_lr=5e-2,
                             dual_lr=0.05, seed=0, robust=RobustConfig(mode="acer"))
        result = train(data, config)
        assert result.history[-1].train_cost <= 1.05 + 0.05
        assert result.best.metrics.reasoning_fraction <= 0.05

    def test_acer_equals_racer_with_infinite_taus(self):
        data = routing_dataset(seed=2, n=150)
        base = dict(budget=2.0, epochs=5, batch_size=32, primal_lr=1e-2,
                    dual_lr=0.05, seed=3)
        a = train(data, TrainConfig(robust=RobustConfig(mode="acer"), **base))
        b = train(data, TrainConfig(
            robust=RobustConfig(tau_reward=math.inf, tau_cost=math.inf, mode="racer"),
            **base))
        assert a.history == b.history
        pa, pb = a.best.policy, b.best.policy
        assert np.array_equal(pa.weights, pb.weights)
        assert pa.bias == pb.bias

    def test_seed_determinism(self):
        data = routing_dataset(seed=5, n=150)
        config = TrainConfig(budget=2.0, epochs=4, batch_size=32, primal_lr=1e-2,
                             dual_lr=0.05, seed=9,
                             robust=RobustConfig(tau_reward=1.0, tau_cost=2.0))
        a = train(data, config)
        b = train(data, config)
        assert a.history == b.history
        assert np.array_equal(a.best.policy.weights, b.best.policy.weights)

    def test_lambda_projection(self):
        data = routing_dataset(seed=6, n=150)
        config = TrainConfig(budget=3.0, epochs=6, batch_size=32, primal_lr=1e-2,
                             dual_lr=0.3, seed=0)
        result = train(data, config)
        assert all(rec.lam >= 0.0 for rec in result.history)

    def test_ablation_weight_containment(self):
        data = routing_dataset(seed=7, n=150)
        base = dict(budget=2.0, epochs=3, batch_size=32, primal_lr=1e-2,
                    dual_lr=0.05, seed=0)
        r_only = train(data, TrainConfig(
            robust=RobustConfig(tau_reward=0.5, tau_cost=0.5, mode="racer-r"), **base))
        assert all(rec.cost_weight_range == (1.0, 1.0) for rec in r_only.history)
        assert any(rec.reward_weight_range[1] > 1.0 for rec in r_only.history)
        c_only = train(data, TrainConfig(
            robust=RobustConfig(tau_reward=0.5, tau_cost=0.5, mode="racer-c"), **base))
        assert all(rec.reward_weight_range == (1.0, 1.0) for rec in c_only.history)
        assert any(rec.cost_weight_range[1] > 1.0 for rec in c_only.history)

    def test_entropy_pulls_toward_half(self):
        # equal rewards and costs leave only the entropy term
        instances = [make_instance(i, np.random.default_rng(i).standard_normal(3),
                                   (1, 1), (100.0, 100.0)) for i in range(200)]
        data = Dataset(instances)
        config = TrainConfig(budget=2.0, beta=0.2, epochs=40, batch_size=50,
                             primal_lr=5e-2, dual_lr=0.05, seed=0,
                             policy_kind="feedforward", hidden=(8,),
                             robust=RobustConfig(mode="acer"))
        result = train(data, config)
        assert abs(result.best.metrics.reasoning_fraction - 0.5) <= 0.05

    def test_budget_tracking_dynamics(self):
        # binding budget: the unconstrained optimum costs ~4, C = 2
        data = routing_dataset(seed=8, n=600, ratio=5.0, p_helps=0.75, p_gain=0.95)
        config = TrainConfig(budget=2.0, epochs=300, batch_size=64, primal_lr=2e-3,
                             dual_lr=0.015, seed=2, robust=RobustConfig(mode="acer"))
        result = train(data, config)
        tail = [rec.train_cost for rec in result.history[-10:]]
        assert abs(np.mean(tail) - 2.0) <= 0.05 * 2.0

    def test_dataset_must_exceed_batch(self):
        data = routing_dataset(seed=9, n=30)
        with pytest.raises(ValidationError, match="batch_size"):
            train(data, TrainConfig(budget=2.0, batch_size=64))


def result_bits(result):
    """Every number a TrainResult holds, as exact bytes or reprs."""
    def policy_bits(policy):
        if isinstance(policy, LinearPolicy):
            return (policy.weights.tobytes(), repr(policy.bias))
        return tuple(a.tobytes() for a in policy.weights + policy.biases)

    def checkpoint_bits(c):
        return (c.epoch, repr(c.metrics), repr(c.lam), policy_bits(c.policy))

    return (repr(result.history), tuple(checkpoint_bits(c) for c in result.checkpoints),
            checkpoint_bits(result.best))


def solo(data, config):
    try:
        return train(data, config)
    except TrainingDivergenceError as exc:
        return exc


STACK_DATA = routing_dataset(seed=13, n=110)

replica_draws = st.tuples(
    st.sampled_from([1.2, 2.0, 3.5]), st.integers(0, 40), st.sampled_from(MODES),
    st.sampled_from([0.3, 1.0, math.inf]), st.sampled_from([0.5, math.inf]),
)


def diverging_group(cause):
    """A config group in which some replicas diverge and the others do not."""
    if cause == "objective":
        # a vanishing temperature turns the reward tilt into NaN weights
        data = routing_dataset(seed=3, n=120)
        base = TrainConfig(budget=2.0, epochs=3, batch_size=32, primal_lr=1e-2,
                           dual_lr=0.05, robust=RobustConfig(tau_reward=1.0))
        return data, [replace(base, seed=1),
                      replace(base, seed=2, robust=RobustConfig(tau_reward=1e-320)),
                      replace(base, seed=3, robust=RobustConfig(mode="acer"))]
    # one huge feature overflows the logit of every replica that trains on
    # it; the others hold it out for validation
    data = Dataset([*routing_dataset(seed=4, n=99).instances,
                    make_instance(99, [1e308, 0.0, 0.0], (1, 0), (100.0, 300.0))])
    base = TrainConfig(budget=2.0, epochs=3, batch_size=16, primal_lr=10.0,
                       dual_lr=0.05, val_fraction=0.5)
    return data, [replace(base, seed=s) for s in range(8)]


def outcome_bits(outcome):
    if isinstance(outcome, TrainingDivergenceError):
        return type(outcome), str(outcome)
    return result_bits(outcome)


class TestReplicaStack:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(replicas=st.lists(replica_draws, min_size=1, max_size=5),
           kind=st.sampled_from(["linear", "feedforward"]),
           optimizer=st.sampled_from(["adam", "sgd"]))
    def test_every_replica_equals_its_solo_run(self, replicas, kind, optimizer):
        base = TrainConfig(budget=2.0, epochs=2, batch_size=24, primal_lr=2e-2,
                           dual_lr=0.1, policy_kind=kind, hidden=(5, 3),
                           optimizer=optimizer, val_fraction=0.2)
        configs = [replace(base, budget=b, seed=s,
                           robust=RobustConfig(tau_reward=tr, tau_cost=tc, mode=m))
                   for b, s, m, tr, tc in replicas]
        outcomes = train(STACK_DATA, configs)
        assert len(outcomes) == len(configs)
        for config, outcome in zip(configs, outcomes):
            alone = train(STACK_DATA, config)
            assert result_bits(outcome) == result_bits(alone)

    @pytest.mark.parametrize("cause", ["objective", "logit"])
    def test_diverging_replica_fails_alone(self, cause):
        data, configs = diverging_group(cause)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            alone = [solo(data, c) for c in configs]
            stacked = train(data, configs)
        failed = [isinstance(a, TrainingDivergenceError) for a in alone]
        assert any(failed) and not all(failed)
        for a, b in zip(alone, stacked):
            if isinstance(a, TrainingDivergenceError):
                assert type(b) is TrainingDivergenceError and str(b) == str(a)
            else:
                assert result_bits(b) == result_bits(a)

    def test_single_config_raises_its_divergence(self):
        data = routing_dataset(seed=3, n=120)
        config = TrainConfig(budget=2.0, epochs=1, batch_size=32,
                             robust=RobustConfig(tau_reward=1e-320))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDivergenceError, match="objective value in epoch 0"):
                train(data, config)
            (outcome,) = train(data, [config])
        assert isinstance(outcome, TrainingDivergenceError)

    def test_configs_may_differ_only_in_budget_seed_robust(self):
        data = routing_dataset(seed=3, n=120)
        base = TrainConfig(budget=2.0, epochs=1, batch_size=32)
        with pytest.raises(ValueError, match="differ only"):
            train(data, [base, replace(base, primal_lr=0.5)])
        with pytest.raises(ValueError, match="at least one"):
            train(data, [])
        with pytest.raises(ValidationError, match="batch_size"):
            train(data, [replace(base, batch_size=200), replace(base, batch_size=200, seed=1)])


class TestLeanStep:
    """The stack gathers once per epoch, updates one flat parameter array
    and reduces its statistics at epoch end; the reference gathers per
    batch, updates each parameter array and keeps running sums."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(replicas=st.lists(replica_draws, min_size=1, max_size=5),
           kind=st.sampled_from(["linear", "feedforward"]),
           optimizer=st.sampled_from(["adam", "sgd"]),
           batch_size=st.sampled_from([8, 22, 24, 50]))
    def test_bitwise_equal_to_reference(self, replicas, kind, optimizer, batch_size):
        # 88 training rows: batch sizes 8 and 22 divide them, 24 and 50 leave a tail
        base = TrainConfig(budget=2.0, epochs=2, batch_size=batch_size, primal_lr=2e-2,
                           dual_lr=0.1, policy_kind=kind, hidden=(5, 3),
                           optimizer=optimizer, val_fraction=0.2)
        configs = [replace(base, budget=b, seed=s,
                           robust=RobustConfig(tau_reward=tr, tau_cost=tc, mode=m))
                   for b, s, m, tr, tc in replicas]
        outcomes = train(STACK_DATA, configs)
        expected = stack_train(STACK_DATA, configs)
        assert [outcome_bits(o) for o in outcomes] == [outcome_bits(o) for o in expected]

    @pytest.mark.parametrize("cause", ["objective", "logit"])
    def test_divergence_equal_to_reference(self, cause):
        data, configs = diverging_group(cause)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            outcomes = train(data, configs)
            expected = stack_train(data, configs)
        assert any(isinstance(o, TrainingDivergenceError) for o in expected)
        assert [outcome_bits(o) for o in outcomes] == [outcome_bits(o) for o in expected]


class TestSelectCheckpoint:
    @staticmethod
    def ck(epoch, cost, acc):
        return Checkpoint(epoch, LinearPolicy(np.zeros(1), 0.0),
                          Metrics(acc, cost, 0.5), 0.0)

    def test_feasible_max_accuracy(self):
        cks = [self.ck(0, 1.8, 0.80), self.ck(1, 1.9, 0.83), self.ck(2, 2.4, 0.90)]
        assert select_checkpoint(cks, 2.0).metrics.accuracy == 0.83

    def test_all_infeasible_picks_closest_cost(self):
        cks = [self.ck(0, 2.4, 0.9), self.ck(1, 2.1, 0.7)]
        assert select_checkpoint(cks, 2.0).metrics.accuracy == 0.7

    def test_single_checkpoint(self):
        only = self.ck(0, 5.0, 0.5)
        assert select_checkpoint([only], 2.0) is only

    def test_feasible_tie_prefers_later_epoch(self):
        cks = [self.ck(0, 1.5, 0.8), self.ck(1, 1.7, 0.8)]
        assert select_checkpoint(cks, 2.0).epoch == 1


class TestModelRoundTrip:
    def test_save_load_evaluates_identically(self, tmp_path):
        data = routing_dataset(seed=12, n=150)
        config = TrainConfig(budget=2.0, epochs=3, batch_size=32, primal_lr=1e-2,
                             dual_lr=0.05, seed=0, policy_kind="feedforward",
                             hidden=(8, 4))
        result = train(data, config)
        path = tmp_path / "model.json"
        save_model(path, result.best.policy, data.instruct_cost_mean, config)
        policy, cost_mean, payload = load_model(path)
        assert cost_mean == data.instruct_cost_mean
        assert payload["config_digest"] == config.digest()
        before = evaluate_policy(result.best.policy, data)
        after = evaluate_policy(policy, data)
        assert before == after

    @pytest.mark.parametrize("policy", [
        TabularPolicy(MappingProxyType({"a": 0.25, "b": 1.0})),
        ConstantPolicy(0.3),
        LinearPolicy(np.array([0.5, -1.5]), 0.25),
        FeedForwardPolicy((np.full((3, 2), 0.1), np.full((1, 3), 0.5)),
                          (np.zeros(3), np.array([-1.0]))),
    ], ids=["tabular", "constant", "linear", "feedforward"])
    def test_every_policy_kind_round_trips(self, tmp_path, policy):
        save_model(tmp_path / "a.json", policy, 2.0)
        loaded, cost_mean, _ = load_model(tmp_path / "a.json")
        assert type(loaded) is type(policy) and cost_mean == 2.0
        save_model(tmp_path / "b.json", loaded, cost_mean)
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()

    def test_config_round_trip(self, tmp_path):
        # a model file records its config as strict JSON ("inf" for an
        # infinite temperature) with the digest of that record
        config = TrainConfig(budget=3.0, robust=RobustConfig(tau_reward=1.0, mode="racer-r"),
                             hidden=(16, 8), optimizer="sgd")
        path = tmp_path / "model.json"
        save_model(path, LinearPolicy(np.zeros(2), 0.0), 1.0, config)
        _, _, payload = load_model(path)
        assert payload["config"] == config.to_dict()
        assert payload["config"]["robust"]["tau_cost"] == "inf"
        assert payload["config_digest"] == config.digest()
