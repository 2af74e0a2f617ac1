import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import binary_tilt_oracle, exact_tilt_reference, grid_worst_case, row_tilt_weights

import racer.reweight
from racer.reweight import (
    RobustConfig,
    _tilt_rows,
    exact_tilt,
    kl_divergence,
    tilt_weights,
    uniform_weights,
)
from racer.saddle import random_problem

GOLDEN = Path(__file__).parent / "golden"


class TestRobustConfig:
    def test_mode_overrides_force_inf(self):
        cfg = RobustConfig(tau_reward=0.5, tau_cost=0.7, mode="racer-r")
        assert cfg.effective_tau_reward == 0.5
        assert math.isinf(cfg.effective_tau_cost)
        cfg = RobustConfig(tau_reward=0.5, tau_cost=0.7, mode="racer-c")
        assert math.isinf(cfg.effective_tau_reward)
        assert cfg.effective_tau_cost == 0.7
        cfg = RobustConfig(tau_reward=0.5, tau_cost=0.7, mode="acer")
        assert math.isinf(cfg.effective_tau_reward)
        assert math.isinf(cfg.effective_tau_cost)

    def test_validation(self):
        with pytest.raises(ValueError):
            RobustConfig(tau_reward=0.0)
        with pytest.raises(ValueError):
            RobustConfig(mode="bogus")


class TestTiltWeights:
    def test_constant_values_give_uniform(self):
        for direction in ("worst_low", "worst_high"):
            wv = tilt_weights([5.0, 5.0, 5.0], 0.3, direction)
            assert np.array_equal(wv.weights, np.ones(3))

    def test_three_point_tilt_matches_softmax_oracle(self):
        # weights_i = n * softmax(f_i / tau)_i, computed independently
        f = np.array([0.0, 1.0, 2.0])
        e = np.exp(f / 1.0)
        expected = 3.0 * e / e.sum()
        wv = tilt_weights(f, 1.0, "worst_high")
        assert np.allclose(wv.weights, expected, atol=1e-12)
        assert np.allclose(wv.weights, [0.2701, 0.7341, 1.9957], atol=1e-4)
        assert wv.baseline == pytest.approx(1.0)

    def test_huge_tau_recovers_empirical(self):
        wv = tilt_weights([0.0, 1.0, 2.0], 1e6, "worst_high")
        assert np.allclose(wv.weights, 1.0, atol=1e-5)

    def test_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            tilt_weights([0.0, math.nan], 1.0, "worst_high")
        with pytest.raises(ValueError, match="tau"):
            tilt_weights([0.0, 1.0], 0.0, "worst_high")
        with pytest.raises(ValueError, match="tau"):
            tilt_weights([0.0, 1.0], math.inf, "worst_high")
        with pytest.raises(ValueError, match="direction"):
            tilt_weights([0.0, 1.0], 1.0, "sideways")

    def test_row_tau_errors(self):
        # one tau per row is the trainer kernel's form only: tilt_weights refuses it
        with pytest.raises(ValueError, match="tau"):
            tilt_weights([0.0, 1.0], np.array([1.0]), "worst_high")
        for tau in (1.0, np.array([1.0, 0.5]), np.array([1.0, math.inf])):
            with pytest.raises(ValueError, match="non-empty 1-d vector"):
                tilt_weights(np.ones((2, 3)), tau, "worst_high")
        with pytest.raises(ValueError, match="non-empty 1-d vector"):
            tilt_weights(np.ones((2, 2, 2)), 1.0, "worst_high")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 5), n=st.integers(1, 300),
           direction=st.sampled_from(["worst_low", "worst_high"]))
    def test_bitwise_equal_to_wrapper_formula(self, data, rows, n, direction):
        # rows = 0 draws a vector; values span many magnitudes and repeats
        shape = (n,) if rows == 0 else (rows, n)
        f = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e300]))))
        taus = st.sampled_from([1e-300, 1e-3, 0.3, 1.0, 7.0, 1e300])
        if rows == 0:
            tau = data.draw(taus)
        else:
            tau = np.array(data.draw(st.lists(st.one_of(taus, st.just(math.inf)),
                                              min_size=rows, max_size=rows)))
        with np.errstate(all="ignore"):
            weights, anchors = row_tilt_weights(f, tau, direction)
            # the trainer's unchecked kernel takes one tau per row as a column
            kernel = _tilt_rows(f, tau if rows == 0 else tau[:, None], direction)
            got = tilt_weights(f, tau, direction) if rows == 0 else None
        assert weights.tobytes() == kernel[0].tobytes()
        assert anchors.tobytes() == kernel[1].tobytes()
        if got is not None:
            assert got.weights.tobytes() == weights.tobytes()
            assert np.float64(got.baseline).tobytes() == anchors.tobytes()

    def test_uniform_weights_take_a_shape(self):
        assert np.array_equal(uniform_weights((2, 3)).weights, np.ones((2, 3)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: kl_divergence([0.5, 0.5], [1.0]), ValueError,
     "p and q must be 1-d vectors of equal length"),
    (lambda: kl_divergence([[1.0]], [[1.0]]), ValueError,
     "p and q must be 1-d vectors of equal length"),
    (lambda: kl_divergence([1.5, -0.5], [0.5, 0.5]), ValueError,
     "probabilities must be non-negative"),
    (lambda: kl_divergence([0.5, 0.6], [0.5, 0.5]), ValueError, "p must sum to 1 (got 1.1)"),
    (lambda: kl_divergence([0.5, 0.5], [0.5, 0.25]), ValueError, "q must sum to 1 (got 0.75)"),
    (lambda: exact_tilt([0.0, 1.0], [1.0], 0.05, "worst_high"), ValueError,
     "values and rho must be non-empty 1-d vectors of equal length"),
    (lambda: exact_tilt([], [], 0.05, "worst_high"), ValueError,
     "values and rho must be non-empty 1-d vectors of equal length"),
    (lambda: exact_tilt([0.0, 1.0], [0.5, 0.5], 0.0, "worst_high"), ValueError,
     "delta must be positive, got 0.0"),
    (lambda: exact_tilt([0.0, 1.0], [0.5, 0.5], math.nan, "worst_high"), ValueError,
     "delta must be positive, got nan"),
    (lambda: exact_tilt([0.0, 1.0], [0.5, 0.5], 0.05, "sideways"), ValueError,
     "direction must be one of ('worst_low', 'worst_high'), got 'sideways'"),
    # the tilt that reaches delta needs tau past 2**200: the values span 1e300
    (lambda: exact_tilt([0.0, 1e300], [0.5, 0.5], 0.1, "worst_high"), ArithmeticError,
     "tilt bracket expansion failed"),
], ids=["kl-lengths", "kl-matrix", "kl-negative", "kl-p-sum", "kl-q-sum", "tilt-lengths",
        "tilt-empty", "tilt-zero-delta", "tilt-nan-delta", "tilt-direction", "tilt-expansion"])
def test_invalid_argument_names_its_fault(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


class TestKlDivergence:
    def test_identity_is_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_mass_against_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(ValueError, match="support"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    @pytest.mark.parametrize("p, q", [([math.nan, 1.0], [0.5, 0.5]),
                                      ([0.5, 0.5], [math.nan, 1.0]),
                                      ([math.inf, 0.0], [0.5, 0.5]),
                                      ([0.5, 0.5], [0.0, math.inf])])
    def test_non_finite_input_is_refused(self, p, q):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            kl_divergence(p, q)

    def test_gibbs_nonnegativity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            assert kl_divergence(p, q) >= 0.0


class TestExactTilt:
    def test_tiny_delta_recovers_empirical(self):
        f = [0.0, 0.5, 1.0]
        rho = [0.2, 0.5, 0.3]
        res = exact_tilt(f, rho, 1e-10, "worst_high")
        assert res.status == "active"
        assert res.tau_star > 1e3
        assert np.allclose(res.weights.weights, 1.0, atol=1e-4)

    def test_binary_case_matches_golden_bisection(self):
        golden = json.loads((GOLDEN / "binary_tilt.json").read_text())
        p_oracle, tau_oracle = binary_tilt_oracle(golden["delta"])
        assert p_oracle == pytest.approx(golden["p_star"], abs=1e-12)
        assert tau_oracle == pytest.approx(golden["tau_star"], abs=1e-10)

        res = exact_tilt([0.0, 1.0], [0.5, 0.5], golden["delta"], "worst_high")
        tilted_mass = 0.5 * res.weights.weights[1]
        assert tilted_mass == pytest.approx(golden["p_star"], abs=1e-9)
        assert res.tau_star == pytest.approx(golden["tau_star"], rel=1e-9)
        assert round(tilted_mass, 3) == 0.657
        assert round(res.tau_star, 2) == 1.54

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_simplex_grid_search(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 6))
        f = rng.uniform(0, 1, n)
        rho = rng.dirichlet(np.ones(n) * 2.0)
        direction = "worst_high" if rng.random() < 0.5 else "worst_low"
        on_ext = f == (f.max() if direction == "worst_high" else f.min())
        delta = rng.uniform(0.05, 0.7) * -math.log(rho[on_ext].sum())
        res = exact_tilt(f, rho, delta, direction)
        got = float(np.sum(rho * res.weights.weights * f))
        want, _ = grid_worst_case(f, rho, delta, direction)
        assert got == pytest.approx(want, abs=1e-3)

    def test_constant_values_flagged_slack(self):
        res = exact_tilt([2.0, 2.0], [0.4, 0.6], 0.1, "worst_high")
        assert res.status == "slack"
        assert math.isinf(res.tau_star)
        assert np.array_equal(res.weights.weights, np.ones(2))

    def test_huge_delta_flagged_saturated(self):
        res = exact_tilt([0.0, 1.0], [0.5, 0.5], 2.0, "worst_high")
        assert res.status == "saturated"
        assert res.tau_star == 0.0
        assert np.allclose(res.weights.weights, [0.0, 2.0])
        # point-mass KL is log 2 < 2.0, so the ball constraint is not active
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) < 2.0

    def test_kl_constraint_active_at_solution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = rng.uniform(-2, 2, n)
            if np.ptp(f) == 0:
                continue
            rho = rng.dirichlet(np.ones(n))
            direction = "worst_high" if rng.random() < 0.5 else "worst_low"
            on_ext = f == (f.max() if direction == "worst_high" else f.min())
            delta = rng.uniform(0.1, 0.6) * -math.log(rho[on_ext].sum())
            res = exact_tilt(f, rho, delta, direction)
            tilted = rho * res.weights.weights
            assert kl_divergence(tilted, rho) == pytest.approx(delta, rel=1e-8)


def _outcome(fn, f, rho, delta, direction):
    """Everything exact_tilt returns, as bytes, or the error it raises."""
    try:
        res = fn(f, rho, delta, direction)
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)
    return (res.tau_star.hex(), res.status, res.weights.weights.tobytes(),
            res.weights.baseline.hex())


class TestExactTiltValidatesOnce:
    @pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [math.inf, 1.0, 2.0],
                                        [1.0, -math.inf, 2.0]])
    def test_non_finite_values_are_refused(self, values):
        with pytest.raises(ValueError, match="values contain a non-finite entry"):
            exact_tilt(values, [1 / 3] * 3, 0.05, "worst_high")

    @pytest.mark.parametrize("rho", [[math.nan, 0.5, 0.5], [math.inf, 0.5, 0.5],
                                     [1 / 3, 1 / 3, math.nan]])
    def test_non_finite_rho_is_refused(self, rho):
        with pytest.raises(ValueError, match="rho must be strictly positive and sum to 1"):
            exact_tilt([0.0, 1.0, 2.0], rho, 0.05, "worst_high")

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["normal", "normal", "ties", "constant"]),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 30.0, 1e3, 1e5]),
           uniform_rho=st.booleans(),
           frac=st.sampled_from([1e-9, 1e-3, 0.2, 0.7, 0.999, 1.0, 3.0]),
           direction=st.sampled_from(["worst_low", "worst_high"]))
    def test_equals_the_checked_bisection_bitwise(self, n, seed, shape, scale, uniform_rho,
                                                  frac, direction):
        # frac scales delta against the point-mass KL: below 1 the tilt is
        # active, from 1 saturated; constant values are slack. Scales from 30
        # up underflow some tilted weights to 0 along the bracket, 1e-300
        # spreads too little for any tau to reach delta.
        rng = np.random.default_rng(seed)
        f = {"normal": rng.standard_normal(n), "ties": rng.integers(0, 3, n) * 1.0,
             "constant": np.full(n, 2.0)}[shape] * scale
        rho = np.full(n, 1 / n) if uniform_rho else rng.dirichlet(np.ones(n))
        extreme = f.min() if direction == "worst_low" else f.max()
        kl_limit = -math.log(float(rho[f == extreme].sum()))
        delta = frac * kl_limit if kl_limit > 0 else frac
        assert (_outcome(exact_tilt, f, rho, delta, direction)
                == _outcome(exact_tilt_reference, f, rho, delta, direction))

    def test_kl_divergence_runs_only_on_a_nonpositive_weight(self, monkeypatch):
        calls = []
        checked = kl_divergence

        def counting(p, q):
            calls.append(1)
            return checked(p, q)

        monkeypatch.setattr(racer.reweight, "kl_divergence", counting)
        p = random_problem(1, n_contexts=2000)
        for f, direction in ((p.w1 * p.reward[:, 1], "worst_low"),
                             (p.w2 * p.cost[:, 1], "worst_high")):
            args = (f, p.rho, 0.05, direction)
            got = _outcome(exact_tilt, *args)
            assert got == _outcome(exact_tilt_reference, *args) and got[1] == "active"
        assert calls == []
        # at tau = 1, exp(-1000) underflows: the step falls back to the checks
        args = ([0.0, 0.5, 1000.0], [0.2, 0.3, 0.5], 0.3, "worst_high")
        got = _outcome(exact_tilt, *args)
        assert got == _outcome(exact_tilt_reference, *args) and got[1] == "active"
        assert calls


class TestProperties:
    def test_jensen_baseline_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            f = rng.uniform(-1, 3, n)
            if np.ptp(f) == 0:
                continue
            rho = rng.dirichlet(np.ones(n))
            mean = float(rho @ f)
            delta = 0.3 * -math.log(rho[f == f.min()].sum())
            low = exact_tilt(f, rho, delta, "worst_low")
            assert low.weights.baseline <= mean + 1e-12
            delta = 0.3 * -math.log(rho[f == f.max()].sum())
            high = exact_tilt(f, rho, delta, "worst_high")
            assert high.weights.baseline >= mean - 1e-12

    def test_worst_case_ordering(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            f = rng.uniform(0, 5, int(rng.integers(2, 30)))
            if np.ptp(f) == 0:
                continue
            tau = float(rng.uniform(0.1, 5.0))
            up = tilt_weights(f, tau, "worst_high").weights
            down = tilt_weights(f, tau, "worst_low").weights
            assert np.mean(up * f) > np.mean(f)
            assert np.mean(down * f) < np.mean(f)

    def test_aggressiveness_monotone_in_tau(self):
        rng = np.random.default_rng(9)
        f = rng.uniform(0, 4, 25)
        taus = [0.1, 0.3, 1.0, 3.0, 10.0, 100.0]
        prev = math.inf
        for tau in taus:
            w = tilt_weights(f, tau, "worst_high").weights
            ratio = w.max() / w.min()
            assert ratio <= prev + 1e-9
            prev = ratio

    def test_shift_invariance(self):
        f = np.array([0.0, 1.0, 4.0, 7.0])
        base = tilt_weights(f, 0.7, "worst_high").weights
        # integer shifts are exactly representable: bitwise equality
        shifted = tilt_weights(f + 3.0, 0.7, "worst_high").weights
        assert np.array_equal(base, shifted)
        # arbitrary float shifts agree to rounding
        shifted = tilt_weights(f + 0.1234567, 0.7, "worst_high").weights
        assert np.allclose(base, shifted, rtol=1e-12)

    def test_extreme_inputs_stay_finite(self):
        f = np.array([-700.0, 0.0, 700.0])
        for direction in ("worst_low", "worst_high"):
            w = tilt_weights(f, 1.0, direction).weights
            assert np.all(np.isfinite(w))
            assert not np.any(np.isnan(w))
            assert w.mean() == pytest.approx(1.0, abs=1e-12)

    def test_mean_one_normalization(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            f = rng.uniform(-3, 3, int(rng.integers(1, 40)))
            w = tilt_weights(f, float(rng.uniform(0.2, 4.0)), "worst_low").weights
            assert w.mean() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0.0)

    def test_monotone_coupling(self):
        rng = np.random.default_rng(11)
        f = rng.uniform(0, 2, 15)
        order = np.argsort(f)
        up = tilt_weights(f, 0.5, "worst_high").weights
        down = tilt_weights(f, 0.5, "worst_low").weights
        assert np.all(np.diff(up[order]) >= 0.0)
        assert np.all(np.diff(down[order]) <= 0.0)

    def test_uniform_weights_helper(self):
        wv = uniform_weights(4, baseline=2.5)
        assert np.array_equal(wv.weights, np.ones(4))
        assert wv.baseline == 2.5
