import math
import warnings
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import make_instance, random_dataset
from oracles import finite_diff_gradient, stack_train

from racer.core import (ConstantPolicy, Dataset, FeedForwardPolicy, LinearPolicy, Metrics,
                        TabularPolicy, ValidationError, _sigmoid, evaluate_policy)
from racer.evalbench import (DEFAULT_TEMPLATE, PRESET_SCENARIOS, gen_synthetic, load_scenario,
                             scenario_splits)
import racer.trainer
from racer.reweight import MODES, RobustConfig, _tilt_rows
from racer.saddle import dual_update
from racer.trainer import (
    Checkpoint,
    TrainConfig,
    TrainingDivergenceError,
    TrainResult,
    init_policy,
    load_model,
    save_model,
    select_checkpoint,
    train,
    _Stack,
    _gaps,
    _lam_safe,
    _objective_on_params,
    _params,
    _value,
)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


def linear_objective(policy, data, lam, beta):
    """(value, gradient) of a linear policy's batch objective, untilted."""
    ones = np.ones(len(data))
    return _objective_on_params(_params(policy), "linear", data.features, data.correct,
                                data.cost, ones, ones, lam, beta)


def objective_entropy(logit):
    """The batch objective with beta = 1, lambda = 0 and no reward: the
    binary entropy H(sigma(logit)) in nats."""
    data = Dataset([make_instance(0, [1.0], (0, 0), (10.0, 20.0))])
    value, _ = linear_objective(LinearPolicy(np.array([logit]), 0.0), data, 0.0, 1.0)
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
        value, grads = linear_objective(policy, data, 0.0, 0.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-12)

    def test_entropy_term_hand_value(self):
        # single instance, logit 1: H(sigma(1)) = H(0.73106) = 0.58220
        data = Dataset([make_instance(0, [1.0], (0, 0), (10.0, 20.0))])
        policy = LinearPolicy(np.array([1.0]), 0.0)
        value, _ = linear_objective(policy, data, 0.0, 1.0)
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
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDivergenceError, match="index"):
                linear_objective(policy, data, 0.0, 0.005)


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

    def test_costs_must_be_finite_on_the_cost_scale(self):
        # raw costs are finite, but 1e308 / 0.5 overflows
        rows = [make_instance(i, [float(i % 3)], (i % 2, 1), (0.5, 1e308 if i == 7 else 2.0))
                for i in range(40)]
        with np.errstate(over="ignore"):
            data = Dataset(rows)
        for robust in (RobustConfig(tau_cost=1.0), RobustConfig()):
            with pytest.raises(ValidationError, match="instance 'z7': costs are not finite"):
                train(data, TrainConfig(budget=2.0, epochs=1, batch_size=8, robust=robust))

    def test_dataset_must_exceed_batch(self):
        data = routing_dataset(seed=9, n=30)
        with pytest.raises(ValidationError, match="batch_size"):
            train(data, TrainConfig(budget=2.0, batch_size=64))

    @pytest.mark.parametrize("field, value, message", [
        ("policy_kind", "tree", "policy_kind must be linear or feedforward, got 'tree'"),
        ("optimizer", "rmsprop", "optimizer must be adam or sgd, got 'rmsprop'"),
        ("init_bias", math.nan, "init_bias must be finite, got nan"),
        ("init_bias", math.inf, "init_bias must be finite, got inf"),
    ])
    def test_config_rejects_an_unknown_name_or_a_non_finite_bias(self, field, value, message):
        with pytest.raises(ValueError) as caught:
            TrainConfig(budget=2.0, **{field: value})
        assert str(caught.value) == message


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
    if cause == "overflow":
        # six reasoning costs of 1e305 (about 1e303 on the cost scale):
        # lambda * cost overflows once a budget-2 replica's lambda has grown;
        # a budget above every cost keeps its lambda at 0
        data = Dataset([*random_dataset(seed=3, n=120, d=3).instances,
                        *(make_instance(120 + i, [0.0, 0.0, 0.0], (1, 0), (100.0, 1e305))
                          for i in range(6))])
        base = TrainConfig(budget=2.0, epochs=3, batch_size=32, primal_lr=1e-2,
                           dual_lr=0.05, robust=RobustConfig(tau_reward=1.0))
        return data, [*(replace(base, seed=s) for s in range(4)),
                      replace(base, seed=4, budget=1e304)]
    if cause == "update":
        # a plain gradient step on a huge feature overflows the updated logit
        # of a replica that meets it in its first batch, which is followed by
        # a full batch: step 4 drops it from both batches of the seam. Seed 7
        # fails at step 4 of batch 2 and seeds 6 and 8 at step 1 of batch 3,
        # whose logits batch 2's step 4 computed
        data = Dataset([*routing_dataset(seed=4, n=99).instances,
                        make_instance(99, [1e308, 0.0, 0.0], (1, 0), (100.0, 300.0))])
        base = TrainConfig(budget=2.0, epochs=2, batch_size=16, primal_lr=10.0,
                           optimizer="sgd", dual_lr=0.05, val_fraction=0.3)
        return data, [replace(base, seed=s) for s in range(10)]
    # one huge feature overflows the logit of every replica that trains on
    # it; the others hold it out for validation
    data = Dataset([*routing_dataset(seed=4, n=99).instances,
                    make_instance(99, [1e308, 0.0, 0.0], (1, 0), (100.0, 300.0))])
    base = TrainConfig(budget=2.0, epochs=3, batch_size=16, primal_lr=10.0,
                       dual_lr=0.05, val_fraction=0.5)
    return data, [replace(base, seed=s) for s in range(8)]


DIVERGENCE_CAUSES = ["objective", "logit", "overflow", "update"]


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

    @pytest.mark.parametrize("cause", DIVERGENCE_CAUSES)
    def test_diverging_replica_fails_alone(self, cause):
        data, configs = diverging_group(cause)
        alone = [solo(data, c) for c in configs]
        stacked = train(data, configs)
        failed = [isinstance(a, TrainingDivergenceError) for a in alone]
        assert any(failed) and not all(failed)
        for a, b in zip(alone, stacked):
            if isinstance(a, TrainingDivergenceError):
                assert type(b) is TrainingDivergenceError and str(b) == str(a)
            else:
                assert result_bits(b) == result_bits(a)

    def test_overflowing_cost_term_fails_only_the_budget_bound_replicas(self):
        data, configs = diverging_group("overflow")
        outcomes = train(data, configs)
        assert [str(o) for o in outcomes[:4]] == [
            f"non-finite objective value in epoch 0 batch {b}" for b in (1, 3, 1, 1)]
        survivor = outcomes[4]
        assert isinstance(survivor, TrainResult)
        assert all(rec.lam == 0.0 for rec in survivor.history)

    def test_single_config_raises_its_divergence(self):
        data = routing_dataset(seed=3, n=120)
        config = TrainConfig(budget=2.0, epochs=1, batch_size=32,
                             robust=RobustConfig(tau_reward=1e-320))
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


LEAN_DATA = routing_dataset(seed=13, n=400)


class TestLeanStep:
    """The stack gathers once per epoch, updates one flat parameter array,
    reduces its statistics at epoch end and scores every replica's
    validation rows in one forward pass; the reference gathers per batch,
    updates each parameter array, keeps running sums and calls
    evaluate_policy on each replica's validation split."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(replicas=st.lists(replica_draws, min_size=1, max_size=5),
           kind=st.sampled_from(["linear", "feedforward"]),
           optimizer=st.sampled_from(["adam", "sgd"]),
           batch_size=st.sampled_from([7, 8, 22, 24, 50, 64, 100]),
           n_val=st.one_of(st.just(312), st.integers(1, 312)))
    def test_bitwise_equal_to_reference(self, replicas, kind, optimizer, batch_size, n_val):
        # 1 to 312 validation rows; at 312 the 88 training rows are divided
        # by batch sizes 8 and 22, leave a tail at 7, 24, 50 and 64, and are
        # a tail alone at 100
        base = TrainConfig(budget=2.0, epochs=2, batch_size=batch_size, primal_lr=2e-2,
                           dual_lr=0.1, policy_kind=kind, hidden=(5, 3),
                           optimizer=optimizer, val_fraction=n_val / len(LEAN_DATA))
        configs = [replace(base, budget=b, seed=s,
                           robust=RobustConfig(tau_reward=tr, tau_cost=tc, mode=m))
                   for b, s, m, tr, tc in replicas]
        outcomes = train(LEAN_DATA, configs)
        expected = stack_train(LEAN_DATA, configs)
        assert [outcome_bits(o) for o in outcomes] == [outcome_bits(o) for o in expected]

    @pytest.mark.parametrize("cause", DIVERGENCE_CAUSES)
    def test_divergence_equal_to_reference(self, cause):
        data, configs = diverging_group(cause)
        outcomes = train(data, configs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = stack_train(data, configs)
        assert any(isinstance(o, TrainingDivergenceError) for o in expected)
        assert [outcome_bits(o) for o in outcomes] == [outcome_bits(o) for o in expected]

    def test_cost_side_keeps_its_tilt_after_its_only_tilted_replica_fails(self):
        # seed 6 is the only replica with a finite cost tau and leaves the
        # stack in batch 1 of 4 in epoch 0; the survivors' cost weights in
        # the rest of that epoch are the kernel's, all exactly 1
        data, configs = diverging_group("logit")
        configs = [replace(c, robust=RobustConfig(tau_cost=0.5)) if c.seed == 6 else c
                   for c in configs]
        outcomes = train(data, configs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = stack_train(data, configs)
        assert str(outcomes[6]) == "non-finite logit in epoch 0 batch 1"
        assert [outcome_bits(o) for o in outcomes] == [outcome_bits(o) for o in expected]
        survivors = [o for o in outcomes if isinstance(o, TrainResult)]
        assert survivors and all(rec.cost_weight_range == (1.0, 1.0)
                                 for o in survivors for rec in o.history)

    @pytest.mark.parametrize("cause", DIVERGENCE_CAUSES)
    def test_survivors_score_their_own_validation_rows(self, cause):
        # a replica that leaves the stack takes its validation rows with it:
        # every checkpoint of a survivor scores the survivor's own split
        data, configs = diverging_group(cause)
        outcomes = train(data, configs)
        failed = [isinstance(o, TrainingDivergenceError) for o in outcomes]
        assert any(failed) and not all(failed)
        # a survivor after a failed replica moves up in the stack
        assert any(failed[:k].count(True) and not f for k, f in enumerate(failed))
        n_val = int(round(configs[0].val_fraction * len(data)))
        for config, outcome in zip(configs, outcomes):
            if isinstance(outcome, TrainingDivergenceError):
                continue
            split_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[0])
            val = data.subset(split_rng.permutation(len(data))[len(data) - n_val:])
            assert len(outcome.checkpoints) == config.epochs
            for c in outcome.checkpoints:
                with np.errstate(over="ignore", invalid="ignore"):  # as train scores them
                    expected = evaluate_policy(c.policy, val)
                assert repr(c.metrics) == repr(expected)

    def test_epochs_gather_into_one_set_of_buffers_until_a_replica_leaves(self, monkeypatch):
        # the parts' arrays are views of one buffer per source (features,
        # gap rows, step outputs) that the stack allocates once; a replica
        # that leaves takes the rest of its epoch to new, smaller buffers,
        # which the later epochs reuse
        records = []  # (replicas, each source's buffer) before and after each epoch

        def buffers(stack):
            sources = [{id(a.base): a.base for a in arrays} for arrays in zip(*stack.parts)]
            assert all(len(bases) == 1 for bases in sources)  # one per source
            return stack.slot.size, [next(iter(bases.values())) for bases in sources]

        def recorded(stack, epoch, run=_Stack._epoch):
            records.append(buffers(stack))
            run(stack, epoch)
            records.append(buffers(stack))

        monkeypatch.setattr(_Stack, "_epoch", recorded)
        data, configs = diverging_group("logit")
        outcomes = train(data, configs)
        assert len(records) == 2 * configs[0].epochs
        n_train = len(data) - int(round(configs[0].val_fraction * len(data)))
        for (n_rep, (x, gaps, out)), (n_before, before) in zip(records[1:], records):
            assert (x.size, gaps.size, out.size) == (n_rep * n_train * data.n_features,
                                                     4 * n_rep * n_train, 4 * n_rep * n_train)
            same = [a is b for a, b in zip((x, gaps, out), before)]
            assert same == [n_rep == n_before] * 3
        # the drops all come in epoch 0, and the survivors train on
        failed = sum(isinstance(o, TrainingDivergenceError) for o in outcomes)
        survivors = len(configs) - failed
        assert records[0][0] == len(configs) > records[1][0] == records[-1][0] == survivors > 0

    def test_validation_is_scored_without_evaluate_policy(self, monkeypatch):
        # the stack scores each epoch's validation rows in one forward pass
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate_policy(*args, **kwargs)

        monkeypatch.setattr(racer.trainer, "evaluate_policy", counted)
        base = TrainConfig(budget=2.0, epochs=3, batch_size=32)
        outcomes = train(routing_dataset(seed=3, n=120), [replace(base, seed=s) for s in range(3)])
        assert all(len(o.checkpoints) == 3 for o in outcomes)
        assert calls == []

    def test_one_dual_step_per_batch(self, monkeypatch):
        # the benchmark's tracer counts batches by these calls
        calls = []

        def counted(*args):
            calls.append(args)
            return dual_update(*args)

        monkeypatch.setattr(racer.trainer, "dual_update", counted)
        data = routing_dataset(seed=3, n=120)
        config = TrainConfig(budget=2.0, epochs=3, batch_size=32)
        train(data, config)
        n_train = len(data) - int(round(config.val_fraction * len(data)))
        assert len(calls) == config.epochs * math.ceil(n_train / config.batch_size) == 12

    @pytest.mark.parametrize("batch_size, per_epoch", [(27, 4 + 2), (32, 3 + 4)])
    def test_one_forward_pass_per_seam(self, monkeypatch, batch_size, per_epoch):
        # 108 training rows: 4 full batches, or 3 and a tail of 12. Each
        # part's first batch runs its own step 1, the step 4 of a batch with
        # a successor in its part is also that successor's step 1, and
        # validation is one more pass
        calls = []

        def counted(*args):
            calls.append(args)
            return racer.core._forward(*args)

        monkeypatch.setattr(racer.trainer, "_forward", counted)
        base = TrainConfig(budget=2.0, epochs=3, batch_size=batch_size)
        outcomes = train(routing_dataset(seed=3, n=120), [replace(base, seed=s) for s in range(3)])
        assert all(isinstance(o, TrainResult) for o in outcomes)
        assert len(calls) == base.epochs * per_epoch

    def test_update_failure_leaves_the_seam(self):
        # the "update" group fails replicas at step 4 of a batch followed by
        # a full batch, and at step 1 of a batch whose logits that step 4
        # computed, while others survive
        data, configs = diverging_group("update")
        outcomes = train(data, configs)
        messages = [str(o) for o in outcomes if isinstance(o, TrainingDivergenceError)]
        assert "non-finite logit after update in epoch 0 batch 0" in messages
        assert [str(outcomes[s]) for s in (6, 7, 8)] == [
            "non-finite logit in epoch 0 batch 3",
            "non-finite logit after update in epoch 0 batch 2",
            "non-finite logit in epoch 0 batch 3"]
        assert any(isinstance(o, TrainResult) for o in outcomes)

    def test_value_is_computed_only_above_the_certified_bound(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _value(*args)

        monkeypatch.setattr(racer.trainer, "_value", counted)
        base = TrainConfig(budget=2.0, epochs=3, batch_size=32)
        configs = [replace(base, seed=0),
                   replace(base, seed=1, robust=RobustConfig(tau_reward=1.0, tau_cost=0.5)),
                   replace(base, seed=2, robust=RobustConfig(mode="acer"))]
        outcomes = train(routing_dataset(seed=3, n=120), configs)
        assert all(isinstance(o, TrainResult) for o in outcomes)
        assert calls == []
        # the overflow group's lambda outgrows the bound: the value is
        # computed and the outcomes stay the reference's, which computes
        # it on every batch
        data, configs = diverging_group("overflow")
        outcomes = train(data, configs)
        assert calls
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = stack_train(data, configs)
        assert [outcome_bits(o) for o in outcomes] == [outcome_bits(o) for o in expected]


# finite logits, with the saturation and exp-underflow edges
logit_draws = st.one_of(st.sampled_from([1e308, -1e308, 745.0, -745.0, 0.0]),
                        st.floats(-1e308, 1e308))
# inside the bound's conditions and at their edges; inf switches a tilt off
tau_r_draws = st.one_of(st.sampled_from([1e-300, math.inf]), st.floats(1e-300, 1e300))
cost_draws = st.one_of(st.sampled_from([1e-300, 1e303]), st.floats(1e-300, 1e303))


class TestCertifiedValue:
    """Below lam_safe the objective value is finite, so the step may skip it."""

    @settings(max_examples=300, deadline=None)
    @given(draw=st.data(), n_rep=st.integers(1, 3), n=st.integers(1, 8),
           extra=st.integers(0, 3),
           beta=st.one_of(st.sampled_from([0.0, 1e300]), st.floats(0.0, 1e300)))
    def test_value_within_the_bound_is_finite(self, draw, n_rep, n, extra, beta):
        # the batch holds n <= batch_size rows, as the last batch of an epoch may
        u = np.array(draw.draw(st.lists(logit_draws, min_size=n_rep * n, max_size=n_rep * n)))
        u = u.reshape(n_rep, n)
        correct = np.array(draw.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                              min_size=2 * n_rep * n, max_size=2 * n_rep * n)))
        cost = np.array(draw.draw(st.lists(cost_draws, min_size=2 * n_rep * n,
                                           max_size=2 * n_rep * n)))
        c_max = float(cost.max())
        tau_c_edge = max(c_max / 1e300, 5e-324)
        tau_c_draws = st.one_of(st.sampled_from([tau_c_edge, math.inf]),
                                st.floats(tau_c_edge, 1e300))
        tau_r = np.array([[draw.draw(tau_r_draws)] for _ in range(n_rep)])
        tau_c = np.array([[draw.draw(tau_c_draws)] for _ in range(n_rep)])
        lam_safe = _lam_safe(n + extra, c_max, beta, float(tau_r.min()), float(tau_c.min()))
        assume(lam_safe >= 0)  # an edge that rounds outside the conditions
        fractions = draw.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
                                       min_size=n_rep, max_size=n_rep))
        lam = lam_safe * np.array(fractions)

        r0, dr, c0, dc = _gaps(correct.reshape(n_rep, n, 2), cost.reshape(n_rep, n, 2))
        p, e = _sigmoid(u)
        exp_r, exp_c = r0 + p * dr, c0 + p * dc
        # as in the step: a side on which every tau is inf is not tilted
        w_r = None if np.isinf(tau_r).all() else _tilt_rows(exp_r, tau_r, "worst_low")[0]
        w_c = None if np.isinf(tau_c).all() else _tilt_rows(exp_c, tau_c, "worst_high")[0]
        value = _value(u, p, np.log1p(e), exp_r, exp_c, w_r, w_c, lam, beta)
        assert np.isfinite(value).all()

    def test_outside_the_conditions_nothing_is_certified(self):
        assert _lam_safe(64, 4.0, 1e301, 1.0, math.inf) == -1.0
        assert _lam_safe(64, 4.0, 0.005, 1e-320, math.inf) == -1.0
        assert _lam_safe(64, 1e303, 0.005, 1.0, 1e2) == -1.0
        assert _lam_safe(64, 4.0, 0.005, math.inf, math.inf) > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_frontier_sweep_stack_is_certified(self, seed):
        scenario = replace(load_scenario(SCENARIOS / "separable3.json"), seed=seed)
        data, _ = scenario_splits(scenario)
        base = replace(DEFAULT_TEMPLATE, epochs=100, batch_size=64, primal_lr=2e-3,
                       dual_lr=0.05, val_fraction=0.15, seed=seed)
        assert _Stack(data, [replace(base, budget=b) for b in (2.0, 3.0, 4.0)]).lam_safe >= 1e290

    def test_ff_train_run_is_certified(self):
        data = gen_synthetic(replace(PRESET_SCENARIOS["wildguardmix"], n=10_000, seed=1))
        config = replace(DEFAULT_TEMPLATE, budget=2.0, policy_kind="feedforward", epochs=3)
        assert _Stack(data, [config]).lam_safe >= 1e290


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
        # infinite budget or temperature) with the digest of that record
        config = TrainConfig(budget=math.inf,
                             robust=RobustConfig(tau_reward=1.0, mode="racer-r"),
                             hidden=(16, 8), optimizer="sgd")
        path = tmp_path / "model.json"
        save_model(path, LinearPolicy(np.zeros(2), 0.0), 1.0, config)
        _, _, payload = load_model(path)
        assert payload["config"] == config.to_dict()
        assert payload["config"]["budget"] == "inf"
        assert payload["config"]["robust"]["tau_cost"] == "inf"
        assert payload["config_digest"] == config.digest()
