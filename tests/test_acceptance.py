"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints a PASS line with the measured quantities (run with -s to see them).
The slow benchmark fixtures are shared across criteria.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import finite_diff_gradient, grid_worst_case, sign_test_pvalue

from racer.core import evaluate_policy
from racer.evalbench import (
    PRESET_SCENARIOS,
    baseline_policy,
    gen_synthetic,
    run_sweep,
    scenario_splits,
    shift_scenarios,
)
from racer.reweight import RobustConfig, exact_tilt, tilt_weights
from racer.saddle import (
    ConvergenceConstants,
    dual_function,
    lagrangian,
    primal_dual_iterate,
    random_problem,
    solve_saddle,
)
from racer.trainer import (
    TrainConfig,
    _objective_on_params,
    _params,
    init_policy,
    load_model,
    save_model,
    train,
)

# Benchmark training configuration shared by criteria 6 and 7.
BENCH_CONFIG = TrainConfig(
    budget=2.0, epochs=300, batch_size=64, primal_lr=2e-3, dual_lr=0.05,
    seed=0, val_fraction=0.15, robust=RobustConfig(tau_reward=1.0, mode="racer"),
)
# Shift experiments approach the budget from the all-instruct side.
SHIFT_CONFIG = TrainConfig(
    budget=2.0, epochs=150, batch_size=64, primal_lr=5e-3, dual_lr=0.02,
    seed=0, val_fraction=0.15, init_bias=-2.5,
)
N_SEEDS = 20


@pytest.fixture(scope="module")
def separable3_splits():
    scenario = PRESET_SCENARIOS["separable3"]
    train_data = gen_synthetic(scenario)
    id_test = gen_synthetic(replace(scenario, seed=scenario.seed + 1)).with_cost_scale(
        train_data.instruct_cost_mean)
    return train_data, id_test


def test_scenario_splits_equal_the_hand_built_splits(separable3_splits):
    # the criteria below build their splits by hand; racer sweep --scenario
    # builds them with scenario_splits
    train, tests = scenario_splits(PRESET_SCENARIOS["separable3"])
    assert list(tests) == ["id_test"]
    for got, want in zip((train, tests["id_test"]), separable3_splits):
        assert (got.ids, got.tags, got.instruct_cost_mean) == (
            want.ids, want.tags, want.instruct_cost_mean)
        for name in ("features", "correct", "cost_raw", "cost"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.fixture(scope="module")
def frontier_sweep(separable3_splits):
    train_data, id_test = separable3_splits
    return run_sweep(
        train_data, {"id_test": id_test}, budgets=[2.0, 3.0, 4.0],
        methods=["racer", "random"], repeats=N_SEEDS, base_seed=0,
        template=BENCH_CONFIG,
    )


def test_c01_tilt_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        f = rng.uniform(0.0, 1.0, n)
        while np.ptp(f) == 0:
            f = rng.uniform(0.0, 1.0, n)
        rho = rng.dirichlet(np.ones(n) * 2.0)
        direction = "worst_high" if rng.random() < 0.5 else "worst_low"
        extreme = f.max() if direction == "worst_high" else f.min()
        delta = float(rng.uniform(0.05, 0.7)) * -math.log(rho[f == extreme].sum())
        result = exact_tilt(f, rho, delta, direction)
        value = float(np.sum(rho * result.weights.weights * f))
        oracle, _ = grid_worst_case(f, rho, delta, direction)
        worst_gap = max(worst_gap, abs(value - oracle))
        assert abs(value - oracle) <= 1e-3

    for _ in range(1000):
        f = rng.uniform(-2.0, 2.0, int(rng.integers(2, 65)))
        if np.ptp(f) == 0:
            continue
        tau = float(rng.uniform(0.1, 5.0))
        up = tilt_weights(f, tau, "worst_high").weights
        down = tilt_weights(f, tau, "worst_low").weights
        mean = f.mean()
        assert np.mean(up * f) >= mean
        assert np.mean(down * f) <= mean
        # Jensen: the implied soft-max / soft-min anchors bracket the mean
        s_high = mean + tau * math.log(np.mean(np.exp((f - mean) / tau)))
        s_low = mean - tau * math.log(np.mean(np.exp((mean - f) / tau)))
        assert s_high >= mean - 1e-12
        assert s_low <= mean + 1e-12
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: tilt oracle gap <= {worst_gap:.2e} (tol 1e-3), "
          f"1000 batch tilts ordered, {elapsed:.1f}s < 30s")


def test_c02_dual_analytics():
    start = time.time()
    worst_d1 = worst_d2 = 0.0
    for seed in range(100):
        problem = random_problem(seed, n_contexts=int(3 + seed % 8), beta=0.1 + 0.02 * (seed % 10))
        constants = ConvergenceConstants.from_problem(problem)
        hi = problem.beta + (constants.M * constants.K) ** 2 / problem.beta
        for lam in np.linspace(0.0, 3.0, 100):
            lam = float(lam)
            _, d1, d2 = dual_function(problem, lam)
            assert problem.beta - 1e-12 <= d2 <= hi + 1e-12
        for lam in (0.0, 0.4, 1.3, 2.6):
            _, d1, d2 = dual_function(problem, lam)
            h = 1e-4 * max(1.0, lam)
            fd1 = (dual_function(problem, lam + h)[0] - dual_function(problem, lam - h)[0]) / (2 * h)
            fd2 = (dual_function(problem, lam + h)[1] - dual_function(problem, lam - h)[1]) / (2 * h)
            rel1 = abs(d1 - fd1) / max(1.0, abs(d1))
            rel2 = abs(d2 - fd2) / max(1.0, abs(d2))
            worst_d1 = max(worst_d1, rel1)
            worst_d2 = max(worst_d2, rel2)
            assert rel1 <= 1e-6
            assert rel2 <= 1e-5
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: d' err {worst_d1:.2e} <= 1e-6, d'' err {worst_d2:.2e} <= 1e-5, "
          f"curvature in [beta, beta + M^2K^2/beta], {elapsed:.1f}s < 10s")


def test_c03_linear_convergence():
    start = time.time()
    for seed in range(10):
        problem = random_problem(seed, n_contexts=6, beta=0.3)
        solution = solve_saddle(problem, tol=1e-13)
        trace = primal_dual_iterate(problem, 3.0, 200, solution=solution)
        gaps = np.abs(trace.lambdas - solution.lambda_star)
        assert np.all(gaps <= trace.lambda_bound() + 1e-12)
        assert np.all(trace.kl_to_star <= trace.kl_bound() + 1e-12)
    for seed in range(10):
        problem = random_problem(seed, n_contexts=6, beta=1.0, unit_bounds=True)
        constants = ConvergenceConstants.from_problem(problem)
        assert constants.M == 1.0 and constants.K == 1.0
        assert constants.kappa == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert constants.eta == pytest.approx(2.0 / 3.0, abs=1e-15)
        solution = solve_saddle(problem, tol=1e-13)
        trace = primal_dual_iterate(problem, 2.5, 200, constants=constants,
                                    solution=solution)
        # leading constant M^2 K^2 / (2 beta^2) = 0.5
        assert np.all(trace.kl_to_star <= 0.5 * (1.0 / 3.0) ** (2 * np.arange(201))
                      * (2.5 - solution.lambda_star) ** 2 + 1e-12)
        gaps = np.abs(trace.lambdas - solution.lambda_star)
        for t in range(200):
            assert gaps[t + 1] <= gaps[t] / 3.0 + 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 3: contraction and KL bounds hold for 20 problems x 200 "
          f"iterates (kappa=1/3, eta=2/3, lead 0.5 at M=K=beta=1), {elapsed:.1f}s < 5s")


def test_c04_saddle_uniqueness():
    rng = np.random.default_rng(7)
    tol = 1e-11
    for seed in range(20):
        problem = random_problem(100 + seed, n_contexts=6, beta=0.25)
        a = solve_saddle(problem, tol=tol, bracket_init=1.0)
        b = solve_saddle(problem, tol=tol, bracket_init=1e-3)
        assert abs(a.lambda_star - b.lambda_star) <= 10 * tol
        assert np.allclose(a.pi_matrix, b.pi_matrix, atol=1e-8)

        center = lagrangian(problem, a.pi_matrix, a.lambda_star)
        p1 = rng.uniform(0.0, 1.0, (1000, problem.n_contexts))
        for k in range(1000):
            pi = np.stack([1.0 - p1[k], p1[k]], axis=1)
            assert lagrangian(problem, pi, a.lambda_star) <= center + 1e-9
        for lam in np.linspace(0.0, 2.0 * a.lambda_star + 1.0, 50):
            assert lagrangian(problem, a.pi_matrix, float(lam)) >= center - 1e-9
    print("\nPASS criterion 4: bracket-independent saddle, inequalities hold for "
          "20 problems x (1000 policies + 50 lambdas)")


def test_c05_gradient_correctness():
    rng = np.random.default_rng(11)
    n, d = 16, 4
    x = rng.standard_normal((n, d))
    correct = rng.integers(0, 2, (n, 2)).astype(float)
    cost = np.stack([rng.uniform(0.5, 1.5, n), rng.uniform(1.0, 6.0, n)], axis=1)
    wr = rng.uniform(0.4, 2.0, n)
    wr /= wr.mean()
    wc = rng.uniform(0.4, 2.0, n)
    wc /= wc.mean()
    lam, beta = 0.8, 0.05
    worst = 0.0
    for kind, hidden in (("linear", ()), ("feedforward", (6, 4))):
        for _ in range(10):
            policy = init_policy(kind, d, hidden, rng)
            params = _params(policy)
            for p in params:
                p += rng.standard_normal(p.shape) * 0.4

            def value_of(ps):
                v, _ = _objective_on_params(ps, kind, x, correct, cost, wr, wc, lam, beta)
                return v

            _, grads = _objective_on_params(params, kind, x, correct, cost, wr, wc, lam, beta)
            fd = finite_diff_gradient(value_of, params, h=1e-5)
            for g, g_fd in zip(grads, fd):
                rel = np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-8))
                worst = max(worst, float(rel))
                assert rel <= 1e-4
    print(f"\nPASS criterion 5: analytic gradients within {worst:.2e} <= 1e-4 of "
          f"central differences at 20 points (linear + feedforward)")


def test_c06_budget_control(separable3_splits, frontier_sweep):
    start = time.time()
    _, id_test = separable3_splits
    racer = {(c.budget, c.seed): c.metrics for c in frontier_sweep.cells
             if c.method == "racer" and c.split == "id_test"}
    for budget in (2.0, 3.0, 4.0):
        ok = sum(racer[(budget, s)].realized_cost <= budget * 1.05 for s in range(N_SEEDS))
        assert ok >= 18, f"budget {budget}: only {ok}/{N_SEEDS} within 1.05C"

    # lambda trace: rises under a binding budget, decays to ~0 when slack
    train_data, _ = separable3_splits
    binding = train(train_data, replace(BENCH_CONFIG, budget=2.0, seed=0))
    slack = train(train_data, replace(BENCH_CONFIG, budget=10.0, seed=0))
    lam_binding = [rec.lam for rec in binding.history]
    lam_slack = [rec.lam for rec in slack.history]
    assert max(lam_binding) > 0.1
    assert np.mean(lam_binding[-20:]) > 0.01
    assert max(lam_slack[-20:]) <= 0.01
    elapsed = time.time() - start
    print(f"\nPASS criterion 6: cost <= 1.05C in >= 18/20 seeds at C in {{2,3,4}}; "
          f"lambda max {max(lam_binding):.2f} binding vs {max(lam_slack[-20:]):.3f} slack tail "
          f"(+{elapsed:.0f}s shared sweep)")


def test_c07_frontier_dominance(separable3_splits, frontier_sweep):
    _, id_test = separable3_splits
    racer = {(c.budget, c.seed): c.metrics for c in frontier_sweep.cells
             if c.method == "racer" and c.split == "id_test"}
    rand = {(c.budget, c.seed): c.metrics for c in frontier_sweep.cells
            if c.method == "random" and c.split == "id_test"}
    margins = []
    for budget in (2.0, 3.0, 4.0):
        wins = 0
        for seed in range(N_SEEDS):
            r, q = racer[(budget, seed)], rand[(budget, seed)]
            assert abs(r.reasoning_fraction - q.reasoning_fraction) <= 1e-9
            wins += r.accuracy >= q.accuracy
            margins.append(r.accuracy - q.accuracy)
        assert wins >= 18, f"budget {budget}: only {wins}/{N_SEEDS} dominate"

    mi = evaluate_policy(baseline_policy("all-instruct"), id_test)
    mr = evaluate_policy(baseline_policy("all-reasoning"), id_test)
    for p in np.linspace(0.0, 1.0, 11):
        m = evaluate_policy(baseline_policy("random", float(p)), id_test)
        assert abs(m.realized_cost - ((1 - p) * mi.realized_cost + p * mr.realized_cost)) <= 1e-12
        assert abs(m.accuracy - ((1 - p) * mi.accuracy + p * mr.accuracy)) <= 1e-12
        assert abs(m.reasoning_fraction - p) <= 1e-12
    print(f"\nPASS criterion 7: paired dominance >= 18/20 at every budget "
          f"(min margin {min(margins):+.3f}); random baseline collinear within 1e-12")


def _robust_and_acer_policies(data, robust):
    """Per seed, the robust and the acer policy, all trained as one stack."""
    configs = []
    for seed in range(N_SEEDS):
        configs.append(replace(SHIFT_CONFIG, seed=seed, robust=robust))
        configs.append(replace(SHIFT_CONFIG, seed=seed, robust=RobustConfig(mode="acer")))
    outcomes = train(data, configs)
    assert all(not isinstance(o, Exception) for o in outcomes), outcomes
    policies = [o.best.policy for o in outcomes]
    return list(zip(policies[0::2], policies[1::2]))


def test_c08_shift_ablation():
    start = time.time()
    # (a) upward cost shift: cost-robust routing keeps the OOD budget
    train_up, _, ood_high = shift_scenarios(PRESET_SCENARIOS["shift-up"])
    safe = violations = 0
    for pol_c, pol_a in _robust_and_acer_policies(
            train_up, RobustConfig(tau_cost=0.3, mode="racer-c")):
        safe += evaluate_policy(pol_c, ood_high).realized_cost <= 2.0
        violations += evaluate_policy(pol_a, ood_high).realized_cost > 2.0
    assert safe >= 18, f"racer-c kept the OOD budget in only {safe}/{N_SEEDS} seeds"
    assert violations >= 10, f"acer violated in only {violations}/{N_SEEDS} seeds"

    # (b) downward cost shift: reward-robust routing wins on accuracy
    train_down, ood_low, _ = shift_scenarios(PRESET_SCENARIOS["shift-down"], n_test=6000)
    wins = losses = 0
    for pol_r, pol_a in _robust_and_acer_policies(
            train_down, RobustConfig(tau_reward=0.3, mode="racer-r")):
        acc_r = evaluate_policy(pol_r, ood_low).accuracy
        acc_a = evaluate_policy(pol_a, ood_low).accuracy
        wins += acc_r > acc_a
        losses += acc_r < acc_a
    pvalue = sign_test_pvalue(wins, losses)
    assert pvalue <= 0.05, f"sign test p={pvalue:.4f} (wins {wins}, losses {losses})"
    elapsed = time.time() - start
    print(f"\nPASS criterion 8: racer-c safe {safe}/20 vs acer violations {violations}/20; "
          f"racer-r wins {wins}/{wins + losses}, sign test p={pvalue:.2e} <= 0.05 ({elapsed:.0f}s)")


def test_c09_calibration_fidelity():
    medians = {}
    for name, target in (("magpie-ultra", 11.2), ("wildguardmix", 3.4),
                         ("offsetbias", 4.7)):
        data = gen_synthetic(PRESET_SCENARIOS[name])
        assert len(data) == 10_000
        median = float(np.median(data.cost_raw[:, 1] / data.cost_raw[:, 0]))
        medians[name] = median
        assert abs(median - target) / target <= 0.10

    data = gen_synthetic(PRESET_SCENARIOS["magpie-ultra"])
    acc_i = evaluate_policy(baseline_policy("all-instruct"), data).accuracy
    acc_r = evaluate_policy(baseline_policy("all-reasoning"), data).accuracy
    assert abs(acc_i - 0.7004) <= 0.01
    assert abs(acc_r - 0.7835) <= 0.01
    print(f"\nPASS criterion 9: medians {medians['magpie-ultra']:.2f}/"
          f"{medians['wildguardmix']:.2f}/{medians['offsetbias']:.2f} within 10% of "
          f"11.2/3.4/4.7; endpoints {acc_i:.4f}/{acc_r:.4f} within 1pp of 0.7004/0.7835")


def test_c10_determinism_and_round_trip(tmp_path, separable3_splits):
    train_data, id_test = separable3_splits
    config = replace(BENCH_CONFIG, epochs=10, seed=3)
    a = train(train_data, config)
    b = train(train_data, config)
    assert a.history == b.history
    pa, pb = a.best.policy, b.best.policy
    assert np.array_equal(pa.weights, pb.weights) and pa.bias == pb.bias

    path1, path2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(path1, a.best.policy, train_data.instruct_cost_mean, config)
    save_model(path2, b.best.policy, train_data.instruct_cost_mean, config)
    assert path1.read_bytes() == path2.read_bytes()
    loaded, cost_mean, _ = load_model(path1)
    assert cost_mean == train_data.instruct_cost_mean
    assert evaluate_policy(loaded, id_test) == evaluate_policy(a.best.policy, id_test)
    resaved = tmp_path / "m3.json"
    save_model(resaved, loaded, cost_mean, config)
    assert resaved.read_bytes() == path1.read_bytes()

    sweep_kw = dict(budgets=[2.0], methods=["racer", "all-instruct"], repeats=2,
                    base_seed=5, template=replace(BENCH_CONFIG, epochs=5))
    s1 = run_sweep(train_data, {"id_test": id_test}, **sweep_kw)
    s2 = run_sweep(train_data, {"id_test": id_test}, **sweep_kw)
    c1, c2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    s1.to_csv(c1)
    s2.to_csv(c2)
    assert c1.read_bytes() == c2.read_bytes()
    print("\nPASS criterion 10: bitwise-identical histories, models, and sweep CSVs; "
          "save/load evaluates identically")
