import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    central_difference,
    lagrangian,
    saddle_dual_function,
    saddle_iterate,
    saddle_policy_matrix,
)

from racer.core import ValidationError
from racer.saddle import (
    ConvergenceConstants,
    InfeasibleProblemError,
    TabularProblem,
    dual_function,
    dual_update,
    policy_matrix,
    primal_dual_iterate,
    random_problem,
    solve_saddle,
)


def tiny_problem(cost=(1.0, 3.0), reward=((1.0, 1.0),), budget=2.0, beta=1.0):
    n = len(reward)
    return TabularProblem(
        rho=np.full(n, 1.0 / n),
        reward=np.asarray(reward, dtype=float),
        cost=np.tile(np.asarray(cost, dtype=float), (n, 1)),
        w1=np.ones(n),
        w2=np.ones(n),
        budget=budget,
        beta=beta,
    )


class TestTabularProblem:
    def test_infeasible_budget_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            tiny_problem(cost=(1.0, 3.0), budget=0.5)

    def test_feasibility_slack(self):
        prob = tiny_problem(budget=2.0)
        assert prob.feasibility_slack == pytest.approx(1.0)

    def test_probability_vector_checked(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TabularProblem(rho=np.array([0.4, 0.4]), reward=np.ones((2, 2)),
                           cost=np.ones((2, 2)), w1=np.ones(2), w2=np.ones(2),
                           budget=2.0, beta=1.0)


    @pytest.mark.parametrize("field, value, message", [
        ("rho", np.array([0.5, np.nan]), "rho must be finite"),
        ("cost", np.array([[1.0, np.inf], [1.0, 2.0]]), "cost must be finite"),
        ("budget", np.inf, "budget must be finite"),
        ("beta", np.inf, "beta must be positive and finite"),
        ("rho", np.float64(1.0), "non-empty 1-d"),
        ("w1", np.ones(3), "w1 and w2 must have shape"),
        ("cost", np.array([[1.0, 0.0], [1.0, 2.0]]), "costs must be strictly positive"),
        ("w2", np.array([1.0, -1.0]), "density ratios must be non-negative"),
    ])
    def test_invariant_violations_are_validation_errors(self, field, value, message):
        fields = dict(rho=np.full(2, 0.5), reward=np.ones((2, 2)), cost=np.ones((2, 2)),
                      w1=np.ones(2), w2=np.ones(2), budget=2.0, beta=1.0)
        fields[field] = value
        with pytest.raises(ValidationError, match=message):
            TabularProblem(**fields)


@pytest.mark.parametrize("call, message", [
    (lambda: solve_saddle(tiny_problem(), tol=0.0), "tol must be positive, got 0.0"),
    (lambda: solve_saddle(tiny_problem(), tol=math.nan), "tol must be positive, got nan"),
    (lambda: primal_dual_iterate(tiny_problem(), 0.0, 0), "iterations must be >= 1"),
    (lambda: primal_dual_iterate(tiny_problem(), -0.5, 3), "lambda0 must be non-negative"),
], ids=["zero-tol", "nan-tol", "no-iteration", "negative-lambda0"])
def test_invalid_argument_names_its_fault(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestColumnKernels:
    """The column-wise kernels equal the (n, 2) action-axis reference bitwise."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300),
           beta=st.floats(1e-2, 1.0), unit_bounds=st.booleans(),
           lams=st.lists(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 1e6])),
                         min_size=1, max_size=4))
    @example(seed=3, n=50, beta=1e-4, unit_bounds=False, lams=[1e6, 0.0])
    @example(seed=5, n=7, beta=1e-4, unit_bounds=True, lams=[1e6])
    def test_bitwise_equal_to_reference(self, seed, n, beta, unit_bounds, lams):
        prob = random_problem(seed, n_contexts=n, beta=beta, unit_bounds=unit_bounds)
        with np.errstate(over="ignore"):
            for lam in lams:
                assert _bits(policy_matrix(prob, lam)) == _bits(saddle_policy_matrix(prob, lam))
                assert _bits(dual_function(prob, lam)) == _bits(saddle_dual_function(prob, lam))
            sol = solve_saddle(prob, tol=1e-12)
            lam = sol.lambda_star
            assert _bits(sol.pi_matrix) == _bits(saddle_policy_matrix(prob, lam))
            assert _bits(sol.dual_value) == _bits(saddle_dual_function(prob, lam)[0])

        trace = primal_dual_iterate(prob, lams[0], 25, solution=sol)
        lambdas, _, kls = saddle_iterate(prob, lams[0], 25, trace.constants.eta, sol.pi_matrix)
        assert _bits(trace.lambdas) == _bits(lambdas)
        # the reference's KL is inf where pi* underflowed to 0 (the beta =
        # 1e-4 examples); the library's log pi* stays finite there
        finite = np.isfinite(kls)
        assert _bits(trace.kl_to_star[finite]) == _bits(kls[finite])
        assert np.all(np.isfinite(trace.kl_to_star))

    def test_reference_covers_underflow(self):
        # beta = 1e-4 and lambda = 1e6 drive exp to exactly 0, so the KL's
        # pi > 0 branch and the -inf log of pi_star both take part
        prob = random_problem(3, n_contexts=50, beta=1e-4)
        assert np.any(policy_matrix(prob, 1e6) == 0.0)
        assert np.any(solve_saddle(prob, tol=1e-12).pi_matrix == 0.0)

    def test_iterate_memory_does_not_grow_with_iterations(self):
        # storing every iterate's (n, 2) policy took 64 MB here
        prob = random_problem(0, n_contexts=20_000, beta=0.05)
        constants = ConvergenceConstants.from_problem(prob)
        sol = solve_saddle(prob, tol=1e-12)
        tracemalloc.start()
        try:
            trace = primal_dual_iterate(prob, 1.0, 200, constants=constants, solution=sol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.lambdas.shape == (201,)
        assert peak < 8 * 2**20


class TestClosedFormPolicy:
    def test_equal_rewards_at_lambda_zero(self):
        prob = tiny_problem(reward=((1.0, 1.0), (0.0, 0.0)))
        pi = policy_matrix(prob, 0.0)
        assert np.allclose(pi, 0.5)

    def test_hand_softmax(self):
        # beta=1, w1=w2=1, r=(1,1), c=(1,3), lambda=0.5: logits (0.5, -0.5)
        prob = tiny_problem()
        pi = policy_matrix(prob, 0.5)
        assert pi[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert round(pi[0, 0], 5) == 0.73106

    def test_reward_shift_invariance(self):
        prob = random_problem(3, n_contexts=5, beta=0.3)
        shifted = TabularProblem(
            rho=prob.rho, reward=prob.reward + 0.75, cost=prob.cost,
            w1=prob.w1, w2=prob.w2, budget=prob.budget, beta=prob.beta,
        )
        # per-context shift applies to both actions only when w1 is constant
        # per context, which it is (w1 multiplies both actions' rewards)
        a = policy_matrix(prob, 0.4)
        b = policy_matrix(shifted, 0.4)
        assert np.allclose(a, b, atol=1e-12)


class TestDualFunction:
    def test_equal_costs_make_second_derivative_beta(self):
        prob = tiny_problem(cost=(1.5, 1.5), budget=2.0, beta=0.37)
        for lam in (0.0, 0.5, 2.0):
            _, _, d2 = dual_function(prob, lam)
            assert d2 == pytest.approx(0.37, abs=1e-15)

    def test_derivatives_match_finite_differences(self):
        prob = random_problem(1, n_contexts=7, beta=0.4)
        for lam in (0.0, 0.3, 1.1, 2.7):
            d, d1, d2 = dual_function(prob, lam)
            h = 1e-5 * max(1.0, lam)
            fd1 = central_difference(lambda x: dual_function(prob, x)[0], lam, h)
            fd2 = central_difference(lambda x: dual_function(prob, x)[1], lam, h)
            assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            assert d2 == pytest.approx(fd2, rel=1e-5, abs=1e-7)

    def test_second_derivative_within_strong_convexity_band(self):
        for seed in range(10):
            prob = random_problem(seed, n_contexts=6, beta=0.2)
            c = ConvergenceConstants.from_problem(prob)
            hi = prob.beta + (c.M * c.K) ** 2 / prob.beta
            for lam in np.linspace(0.0, 3.0, 20):
                _, _, d2 = dual_function(prob, float(lam))
                assert prob.beta - 1e-12 <= d2 <= hi + 1e-12


class TestSolveSaddle:
    def test_slack_budget_gives_zero_multiplier(self):
        prob = tiny_problem(cost=(1.0, 3.0), budget=10.0)
        sol = solve_saddle(prob)
        assert sol.lambda_star == 0.0
        _, d1, _ = dual_function(prob, 0.0)
        assert d1 >= 0.0

    def test_stationarity_at_interior_solution(self):
        prob = random_problem(2, n_contexts=8, beta=0.1)
        sol = solve_saddle(prob, tol=1e-12)
        if sol.lambda_star > 0:
            assert abs(dual_function(prob, sol.lambda_star)[1]) <= 1e-12

    def test_bracket_initializations_agree(self):
        tol = 1e-11
        for seed in range(8):
            prob = random_problem(seed, n_contexts=6, beta=0.15)
            a = solve_saddle(prob, tol=tol, bracket_init=1.0)
            b = solve_saddle(prob, tol=tol, bracket_init=0.001)
            assert abs(a.lambda_star - b.lambda_star) <= 10 * tol
            assert np.allclose(a.pi_matrix, b.pi_matrix, atol=1e-9)

    def test_saddle_inequalities(self):
        rng = np.random.default_rng(0)
        prob = random_problem(4, n_contexts=5, beta=0.2)
        sol = solve_saddle(prob, tol=1e-12)
        center = lagrangian(prob, sol.pi_matrix, sol.lambda_star)
        assert center == pytest.approx(sol.dual_value, abs=1e-9)
        for _ in range(300):
            p1 = rng.uniform(0.0, 1.0, prob.n_contexts)
            pi = np.stack([1.0 - p1, p1], axis=1)
            assert lagrangian(prob, pi, sol.lambda_star) <= center + 1e-9
        for lam in np.linspace(0.0, 2.0 * sol.lambda_star + 1.0, 50):
            assert lagrangian(prob, sol.pi_matrix, float(lam)) >= center - 1e-9

    def test_pi_star_is_a_positive_distribution(self):
        prob = random_problem(6, n_contexts=4, beta=0.3)
        sol = solve_saddle(prob)
        assert np.allclose(sol.pi_matrix.sum(axis=1), 1.0)
        assert np.all(sol.pi_matrix > 0)

    def test_multiplier_past_the_bracket_cap_is_numeric_failure(self):
        # a feasible budget (slack 5e-20) whose lambda* lies past 2**60:
        # d'(2**60) = -4.99e-20 and d'(1e19) = +1e-21
        prob = tiny_problem(cost=(1e-19, 2e-19), reward=((0.0, 1.0),), budget=1.5e-19,
                            beta=1e-40)
        assert prob.feasibility_slack > 0
        assert dual_function(prob, 2.0**60)[1] < 0 < dual_function(prob, 1e19)[1]
        with pytest.raises(ArithmeticError) as caught:
            solve_saddle(prob)
        assert type(caught.value) is ArithmeticError
        assert str(caught.value) == "dual bracket expansion exceeded 2**60"


class TestPrimalDualIterate:
    def test_fixed_point_at_solution(self):
        prob = random_problem(7, n_contexts=6, beta=0.2)
        sol = solve_saddle(prob, tol=1e-14)
        trace = primal_dual_iterate(prob, sol.lambda_star, 30, solution=sol)
        assert np.all(np.abs(trace.lambdas - sol.lambda_star) <= 1e-10)
        assert np.all(trace.kl_to_star <= 1e-10)

    def test_dual_update_formula(self):
        # lambda=1, eta=0.1, weighted cost 3, C=2, beta=0.01 -> 1.099
        assert dual_update(1.0, 0.1, 3.0, 2.0, 0.01) == pytest.approx(1.099, abs=1e-12)
        # projection clips at zero
        assert dual_update(0.1, 1.0, 0.0, 5.0, 0.0) == 0.0

    def test_dual_update_vector_matches_scalar_steps(self):
        lam = np.array([1.0, 0.1, 0.0, 2.5])
        cost = np.array([3.0, 0.0, 1.7, 2.0])
        budget = np.array([2.0, 5.0, 1.5, 4.0])
        stepped = dual_update(lam, 0.1, cost, budget, 0.01)
        assert stepped.shape == (4,)
        for k in range(4):
            assert stepped[k] == dual_update(float(lam[k]), 0.1, float(cost[k]),
                                             float(budget[k]), 0.01)
        assert stepped[1] == 0.0

    def test_unit_constants(self):
        prob = random_problem(11, n_contexts=6, beta=1.0, unit_bounds=True)
        c = ConvergenceConstants.from_problem(prob)
        assert c.M == 1.0 and c.K == 1.0
        assert c.eta == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert c.kappa == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_per_step_contraction_with_unit_constants(self):
        for seed in range(6):
            prob = random_problem(seed, n_contexts=5, beta=1.0, unit_bounds=True)
            sol = solve_saddle(prob, tol=1e-14)
            trace = primal_dual_iterate(prob, 2.0, 40, solution=sol)
            gaps = np.abs(trace.lambdas - sol.lambda_star)
            for t in range(len(gaps) - 1):
                assert gaps[t + 1] <= gaps[t] / 3.0 + 1e-12

    def test_convergence_bounds_hold(self):
        for seed in range(6):
            prob = random_problem(seed, n_contexts=7, beta=0.3)
            trace = primal_dual_iterate(prob, 3.0, 150)
            gaps = np.abs(trace.lambdas - trace.solution.lambda_star)
            assert np.all(gaps <= trace.lambda_bound() + 1e-12)
            assert np.all(trace.kl_to_star <= trace.kl_bound() + 1e-12)

    def test_lemma_dual_bound(self):
        # lambda* <= (d(lambda*) - weighted all-instruct reward) / slack
        for seed in range(12):
            prob = random_problem(seed, n_contexts=6, beta=0.25)
            sol = solve_saddle(prob, tol=1e-12)
            reward0 = float(np.sum(prob.rho * prob.w1 * prob.reward[:, 0]))
            cap = (sol.dual_value - reward0) / prob.feasibility_slack
            assert sol.lambda_star <= cap + 1e-9

    def test_geometric_rate_regression(self):
        prob = random_problem(3, n_contexts=6, beta=0.5)
        sol = solve_saddle(prob, tol=1e-14)
        if sol.lambda_star == 0.0:
            prob = random_problem(9, n_contexts=6, beta=0.5)
            sol = solve_saddle(prob, tol=1e-14)
        trace = primal_dual_iterate(prob, sol.lambda_star + 2.0, 120, solution=sol)
        kappa = trace.constants.kappa
        kl = trace.kl_to_star
        keep = (np.arange(len(kl)) >= 10) & (kl > 1e-24)
        t = np.arange(len(kl))[keep]
        slope = np.polyfit(t, np.log(kl[keep]), 1)[0]
        assert slope <= 2.0 * math.log(kappa) + 0.05

    def test_lambda_stays_nonnegative(self):
        prob = tiny_problem(cost=(1.0, 3.0), budget=9.0)  # slack: drives lam to 0
        trace = primal_dual_iterate(prob, 1.5, 60)
        assert np.all(trace.lambdas >= 0.0)
        assert trace.lambdas[-1] == 0.0


class TestRandomProblem:
    def test_always_feasible(self):
        # where reasoning is nowhere costlier than instruct, the budget was
        # drawn at the all-instruct cost itself: 244 of 2000 such seeds failed
        for seed in range(300):
            prob = random_problem(seed, n_contexts=3, beta=1.0, unit_bounds=True)
            assert prob.feasibility_slack > 0

    def test_feasible_draws_keep_their_budget(self):
        assert random_problem(0, n_contexts=8, beta=0.05).budget == 2.4124380210619236
        assert random_problem(5, n_contexts=7, beta=1.0,
                              unit_bounds=True).budget == 0.3724381470947382
        assert random_problem(0, n_contexts=20_000, beta=0.05).budget == 2.330380546547035
