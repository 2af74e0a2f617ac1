import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import mean412_dataset

import racer.evalbench
from racer.core import ParseError, ValidationError, evaluate_policy
from racer.evalbench import (
    DEFAULT_BUDGETS,
    LEARNABLE_METHODS,
    PRESET_SCENARIOS,
    DomainSpec,
    ScenarioConfig,
    baseline_policy,
    gen_synthetic,
    load_scenario,
    run_sweep,
    scenario_splits,
    shift_scenarios,
    split_units,
)
from racer.reweight import MODES, RobustConfig
from racer.trainer import TrainConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def two_domain(seed=0, n=400, low=2.5, high=9.0):
    return ScenarioConfig(domains=(
        DomainSpec("cheap", 0.6, 0.7, 0.8, low, 0.3, (1.0, 0.0), 0.4),
        DomainSpec("dear", 0.4, 0.6, 0.9, high, 0.3, (-1.0, 0.5), 0.4),
    ), n=n, seed=seed)


class TestGenSynthetic:
    def test_degenerate_bernoulli(self):
        config = ScenarioConfig(
            domains=(DomainSpec("sure", 1.0, 1.0, 1.0, 3.0),), n=50, seed=1)
        data = gen_synthetic(config)
        assert np.all(data.correct == 1.0)

    def test_preset_median_ratios(self):
        for name, target in (("magpie-ultra", 11.2), ("wildguardmix", 3.4),
                             ("offsetbias", 4.7)):
            data = gen_synthetic(PRESET_SCENARIOS[name])
            median = float(np.median(data.cost_raw[:, 1] / data.cost_raw[:, 0]))
            assert abs(median - target) / target <= 0.10

    def test_seed_determinism(self):
        config = two_domain(seed=7)
        a = gen_synthetic(config)
        b = gen_synthetic(config)
        c = gen_synthetic(replace(config, seed=8))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.cost_raw, b.cost_raw)
        assert a.ids == b.ids
        assert not np.array_equal(a.cost_raw, c.cost_raw)

    def test_tags_follow_domains(self):
        data = gen_synthetic(two_domain(n=200))
        assert set(data.tags) == {"cheap", "dear"}

    def test_agreement_couples_outcomes(self):
        base = ScenarioConfig(
            domains=(DomainSpec("d", 1.0, 0.6, 0.6, 3.0),), n=4000, seed=3)
        independent = gen_synthetic(base)
        coupled = gen_synthetic(replace(base, agreement=1.0))
        # with full agreement and p0 = p1 the two draws are identical
        assert np.array_equal(coupled.correct[:, 0], coupled.correct[:, 1])
        assert not np.array_equal(independent.correct[:, 0], independent.correct[:, 1])

    def test_mixture_weights_validated(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            ScenarioConfig(domains=(
                DomainSpec("a", 0.6, 0.5, 0.5, 2.0),
                DomainSpec("b", 0.6, 0.5, 0.5, 2.0),
            ), n=10, seed=0)


DOMAIN = {"name": "d", "weight": 1.0, "p_instruct": 0.6, "p_reasoning": 0.7,
          "cost_ratio_median": 3.0}


def one_domain(n=10, **fields):
    return ScenarioConfig(domains=(DomainSpec(**DOMAIN),), n=n, **fields)


@pytest.mark.parametrize("build, message", [
    (lambda: DomainSpec(**{**DOMAIN, "p_instruct": 1.5}),
     "domain 'd': accuracies must lie in [0, 1]"),
    (lambda: DomainSpec(**{**DOMAIN, "p_reasoning": math.nan}),
     "domain 'd': accuracies must lie in [0, 1]"),
    (lambda: DomainSpec(**{**DOMAIN, "cost_ratio_median": 1.0}),
     "domain 'd': cost-ratio median must exceed 1"),
    (lambda: DomainSpec(**{**DOMAIN, "weight": -0.5}),
     "domain 'd': mixture weight must be non-negative and finite"),
    (lambda: DomainSpec(**{**DOMAIN, "cost_ratio_sigma": math.inf}),
     "domain 'd': cost-ratio sigma must be non-negative and finite"),
    (lambda: DomainSpec(**{**DOMAIN, "instruct_cost_median": 0.0}),
     "domain 'd': instruct cost median must be positive"),
    (lambda: ScenarioConfig(domains=(), n=10), "scenario needs at least one domain"),
    (lambda: ScenarioConfig(domains=(
        DomainSpec(**{**DOMAIN, "weight": 0.5}),
        DomainSpec(**{**DOMAIN, "weight": 0.5, "feature_mean": (0.0, 1.0)})), n=10),
     "all domains must share one feature dimension"),
    (lambda: ScenarioConfig(domains=(DomainSpec(**{**DOMAIN, "weight": 0.5}),
                                     DomainSpec(**{**DOMAIN, "weight": 0.5})), n=10),
     "domain name 'd' is repeated"),
    (lambda: one_domain(n=0), "n must be positive"),
    (lambda: one_domain(instruct_cost_sigma=-1.0),
     "instruct_cost_sigma must be non-negative and finite"),
    (lambda: one_domain(agreement=1.5), "agreement must lie in [0, 1]"),
    (lambda: shift_scenarios(one_domain()), "shift scenarios need at least two domains"),
    (lambda: shift_scenarios(two_domain(), concentration=1.0),
     "concentration must lie in (0, 1)"),
], ids=["p-instruct", "nan-p-reasoning", "ratio-median", "negative-weight", "ratio-sigma",
        "instruct-median", "no-domain", "feature-dimensions", "repeated-name", "n",
        "instruct-sigma", "agreement", "shift-one-domain", "shift-concentration"])
def test_invalid_scenario_names_its_fault(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message


class TestBaselinePolicy:
    def test_all_instruct_cost_one(self):
        data = gen_synthetic(two_domain())
        m = evaluate_policy(baseline_policy("all-instruct"), data)
        assert abs(m.realized_cost - 1.0) < 1e-9

    def test_random_half_interpolates_cost(self):
        data = mean412_dataset()
        m = evaluate_policy(baseline_policy("random", 0.5), data)
        assert m.realized_cost == pytest.approx(0.5 * 1.0 + 0.5 * 4.12, abs=1e-9)

    def test_random_accuracy_is_linear(self):
        data = gen_synthetic(two_domain(seed=2))
        acc_i = evaluate_policy(baseline_policy("all-instruct"), data).accuracy
        acc_r = evaluate_policy(baseline_policy("all-reasoning"), data).accuracy
        for p in (0.1, 0.37, 0.8):
            acc_p = evaluate_policy(baseline_policy("random", p), data).accuracy
            assert abs(acc_p - (p * acc_r + (1 - p) * acc_i)) <= 1e-12

    def test_collinearity_of_random_points(self):
        data = gen_synthetic(two_domain(seed=3))
        mi = evaluate_policy(baseline_policy("all-instruct"), data)
        mr = evaluate_policy(baseline_policy("all-reasoning"), data)
        for p in np.linspace(0.0, 1.0, 7):
            m = evaluate_policy(baseline_policy("random", float(p)), data)
            assert abs(m.realized_cost - ((1 - p) * mi.realized_cost + p * mr.realized_cost)) <= 1e-12
            assert abs(m.accuracy - ((1 - p) * mi.accuracy + p * mr.accuracy)) <= 1e-12

    def test_unknown_baseline(self):
        with pytest.raises(ValidationError):
            baseline_policy("sometimes")
        with pytest.raises(ValidationError):
            baseline_policy("random", 1.5)


class TestShiftScenarios:
    def test_cost_ordering(self):
        train, ood_low, ood_high = shift_scenarios(two_domain(n=800))
        assert ood_high.cost[:, 1].mean() > train.cost[:, 1].mean() > ood_low.cost[:, 1].mean()

    def test_shared_normalization(self):
        train, ood_low, ood_high = shift_scenarios(two_domain(n=800))
        assert ood_low.instruct_cost_mean == train.instruct_cost_mean
        assert ood_high.instruct_cost_mean == train.instruct_cost_mean
        # all-instruct cost deviates from 1 on shifted splits when the
        # domains carry different base costs
        base = ScenarioConfig(domains=(
            DomainSpec("cheap", 0.6, 0.7, 0.8, 2.5, 0.3, (1.0, 0.0), 0.4, 1.0),
            DomainSpec("dear", 0.4, 0.6, 0.9, 9.0, 0.3, (-1.0, 0.5), 0.4, 2.0),
        ), n=800, seed=0)
        train, ood_low, ood_high = shift_scenarios(base)
        cost_high = evaluate_policy(baseline_policy("all-instruct"), ood_high).realized_cost
        cost_low = evaluate_policy(baseline_policy("all-instruct"), ood_low).realized_cost
        assert cost_high > 1.05
        assert cost_low < 0.95

    def test_corpus_analogues(self):
        # downward analogue: train median ~11.2, OOD median ~4.7
        down = ScenarioConfig(domains=(
            DomainSpec("magpie", 0.9, 0.7, 0.78, 11.2, 0.3, (1.0,), 0.3),
            DomainSpec("offset", 0.1, 0.7, 0.78, 4.7, 0.3, (-1.0,), 0.3),
        ), n=6000, seed=11)
        train, ood_low, _ = shift_scenarios(down, concentration=0.95)
        ratios = lambda d: d.cost_raw[:, 1] / d.cost_raw[:, 0]
        assert np.median(ratios(train)) == pytest.approx(11.2, rel=0.1)
        assert np.median(ratios(ood_low)) == pytest.approx(4.7, rel=0.12)
        # upward analogue: train ~3.4, OOD ~4.7
        up = ScenarioConfig(domains=(
            DomainSpec("wildguard", 0.9, 0.7, 0.78, 3.4, 0.3, (1.0,), 0.3),
            DomainSpec("offset", 0.1, 0.7, 0.78, 4.7, 0.3, (-1.0,), 0.3),
        ), n=6000, seed=12)
        train, _, ood_high = shift_scenarios(up, concentration=0.95)
        assert np.median(ratios(train)) == pytest.approx(3.4, rel=0.1)
        assert np.median(ratios(ood_high)) == pytest.approx(4.7, rel=0.12)

    def test_target_with_all_the_weight_keeps_every_row(self):
        # no other domain has weight to move onto the cheap one, which
        # already holds it all: every row of its shifted split is its own
        base = ScenarioConfig(domains=(
            DomainSpec("cheap", 1.0, 0.7, 0.8, 2.5, 0.3, (1.0, 0.0), 0.4),
            DomainSpec("dear", 0.0, 0.6, 0.9, 9.0, 0.3, (-1.0, 0.5), 0.4),
        ), n=200, seed=0)
        _, ood_low, ood_high = shift_scenarios(base)
        assert set(ood_low.tags) == {"cheap"} and len(ood_low) == 200
        assert set(ood_high.tags) == {"cheap", "dear"}

    def test_requires_distinct_medians(self):
        same = ScenarioConfig(domains=(
            DomainSpec("a", 0.5, 0.7, 0.8, 3.0),
            DomainSpec("b", 0.5, 0.6, 0.9, 3.0),
        ), n=10, seed=0)
        with pytest.raises(ValidationError, match="distinct"):
            shift_scenarios(same)


def quick_template(**kw):
    base = dict(budget=1.0, epochs=8, batch_size=64, primal_lr=1e-2, dual_lr=0.05,
                val_fraction=0.15, robust=RobustConfig(tau_reward=1.0, mode="racer"))
    base.update(kw)
    return TrainConfig(**base)


class TestRunSweep:
    def test_constant_method_rows(self):
        train = gen_synthetic(two_domain(seed=5))
        result = run_sweep(train, {}, budgets=[3.0], methods=["all-instruct"],
                           repeats=1, base_seed=0)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.split == "train"
        assert abs(cell.metrics.realized_cost - 1.0) < 1e-9
        assert not result.failures

    def test_random_pairing(self):
        train = gen_synthetic(two_domain(seed=6, n=500))
        tests = {"id": gen_synthetic(two_domain(seed=7, n=300))}
        result = run_sweep(train, tests, budgets=[2.0], methods=["racer", "random"],
                           repeats=2, base_seed=3, template=quick_template())
        racer = {(c.seed, c.split): c.metrics for c in result.cells if c.method == "racer"}
        rand = {(c.seed, c.split): c.metrics for c in result.cells if c.method == "random"}
        assert set(racer) == set(rand)
        for key in racer:
            assert abs(rand[key].reasoning_fraction - racer[key].reasoning_fraction) <= 1e-9

    def test_slack_budget_matches_all_reasoning(self):
        config = two_domain(seed=8, n=600, low=2.0, high=3.0)
        train = gen_synthetic(config)
        result = run_sweep(train, {}, budgets=[10.0],
                           methods=["racer", "all-reasoning"], repeats=1, base_seed=0,
                           template=quick_template(epochs=40, primal_lr=5e-2))
        by_method = {c.method: c.metrics for c in result.cells}
        assert by_method["racer"].accuracy >= by_method["all-reasoning"].accuracy - 0.02

    def test_failures_recorded_and_sweep_continues(self):
        train = gen_synthetic(two_domain(seed=9, n=200))
        result = run_sweep(train, {}, budgets=[2.0], methods=["random", "all-instruct"],
                           repeats=1, base_seed=0)
        assert len(result.failures) == 1  # random with no paired racer run
        assert any(c.method == "all-instruct" for c in result.cells)

    def test_unit_scores_each_policy_once_per_split(self, monkeypatch):
        # the random baseline takes the racer cell's reasoning fraction
        # instead of scoring the racer policy a second time
        calls = []

        def counted(policy, data, **kw):
            calls.append(policy)
            return evaluate_policy(policy, data, **kw)

        monkeypatch.setattr(racer.evalbench, "evaluate_policy", counted)
        train = gen_synthetic(two_domain(seed=6, n=300))
        splits = {"train": train, "id": gen_synthetic(two_domain(seed=7, n=200))}
        [(cells, failures)] = racer.evalbench._run_sweep_cell(
            (train, splits, [(2.0, 0)], ("racer", "random", "all-instruct"),
             quick_template(epochs=2)))
        assert len(calls) == 6 and not failures
        assert [(c.method, c.split) for c in cells] == [
            (m, s) for m in ("racer", "random", "all-instruct") for s in ("train", "id")]
        for racer_cell, random_cell in zip(cells[:2], cells[2:4]):
            assert random_cell.metrics.reasoning_fraction == racer_cell.metrics.reasoning_fraction

    def test_unit_failures_in_method_order_then_the_unpaired_random(self):
        train = gen_synthetic(two_domain(seed=9, n=300))
        units = racer.evalbench._run_sweep_cell(
            (train, {"train": train}, [(2.0, 0), (2.0, 1)], ("racer", "random", "racer-r"),
             quick_template(batch_size=400)))
        for seed, (cells, failures) in enumerate(units):
            assert cells == []
            assert [(f.method, f.seed) for f in failures] == [
                ("racer", seed), ("racer-r", seed), ("random", seed)]
            assert failures[0].error == failures[1].error == (
                "dataset size 300 must exceed batch_size 400")
            assert failures[2].error == "random baseline needs a paired racer run"

    def test_worker_pool_matches_sequential(self):
        train = gen_synthetic(two_domain(seed=10, n=400))
        kw = dict(budgets=[2.0, 3.0], methods=["racer", "all-instruct"], repeats=1,
                  base_seed=1, template=quick_template(epochs=4))
        seq = run_sweep(train, {}, workers=1, **kw)
        par = run_sweep(train, {}, workers=2, **kw)
        assert seq.cells == par.cells

    def test_pool_is_bounded_by_the_usable_cpus(self, monkeypatch):
        # four groups on two usable CPUs: four stacks, two processes at a
        # time; the executor is replaced, so no process starts
        pools = []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(racer.evalbench, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        train = gen_synthetic(two_domain(seed=10, n=400))
        kw = dict(budgets=[2.0, 3.0], methods=["racer", "all-instruct"], repeats=2,
                  base_seed=1, template=quick_template(epochs=2))
        pooled = run_sweep(train, {}, workers=4, **kw)
        assert pools == [2]
        assert pooled.cells == run_sweep(train, {}, workers=1, **kw).cells

    def test_units_split_into_contiguous_groups(self):
        units = list(range(7))
        assert split_units(units, 1) == [units]
        assert split_units(units, 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert split_units(units, 10) == [[u] for u in units]
        assert split_units([], 4) == []
        assert split_units(units, 0) == [units]

    def test_one_stack_matches_unit_by_unit(self):
        train = gen_synthetic(two_domain(seed=10, n=400))
        kw = dict(methods=["racer", "racer-c", "random"], repeats=2, base_seed=1,
                  template=quick_template(epochs=3))
        stacked = run_sweep(train, {}, budgets=[2.0, 3.0], **kw)
        alone = [run_sweep(train, {}, budgets=[b], **{**kw, "repeats": 1, "base_seed": s})
                 for b in (2.0, 3.0) for s in (1, 2)]
        cells = sorted((c for r in alone for c in r.cells),
                       key=lambda c: (c.method, c.budget, c.seed, c.split))
        assert list(stacked.cells) == cells

    def test_aggregate_stats(self):
        train = gen_synthetic(two_domain(seed=11, n=300))
        result = run_sweep(train, {}, budgets=[2.0], methods=["all-instruct"],
                           repeats=3, base_seed=0)
        rows = result.aggregate()
        assert len(rows) == 1
        assert rows[0].n == 3
        assert rows[0].accuracy_std == pytest.approx(0.0, abs=1e-15)

    def test_unknown_method_rejected(self):
        train = gen_synthetic(two_domain(seed=12, n=200))
        with pytest.raises(ValidationError, match="unknown method"):
            run_sweep(train, {}, budgets=[2.0], methods=["oracle"], repeats=1, base_seed=0)

    @pytest.mark.parametrize("bad, message", [
        (dict(base_seed=-1), "base seed must be non-negative"),
        (dict(budgets=[2.0, -1.0]), "budgets must be positive"),
        (dict(budgets=[float("nan")]), "budgets must be positive"),
        (dict(repeats=0), "repeats must be at least 1"),
    ])
    def test_bad_arguments_rejected(self, bad, message):
        train = gen_synthetic(two_domain(seed=12, n=200))
        kw = dict(budgets=[2.0], methods=["racer", "random"], repeats=1, base_seed=0)
        with pytest.raises(ValidationError, match=message):
            run_sweep(train, {}, **{**kw, **bad})

    @pytest.mark.parametrize("bad, message", [
        (dict(budgets=[2.0, 3.0, 2]), "repeated budget: 2"),
        (dict(methods=["all-instruct", "racer", "all-instruct"]),
         "repeated method: 'all-instruct'"),
        (dict(split="train"), "repeated split name (the training split is train): 'train'"),
    ], ids=["budget", "method", "train-split"])
    def test_repeated_plan_entry_rejected(self, bad, message):
        # a test split named train replaced the training split's rows, and a
        # repeated budget or method wrote one cell several times over
        train = gen_synthetic(two_domain(seed=12, n=200))
        kw = dict(budgets=[2.0], methods=["all-instruct"], repeats=1, base_seed=0)
        bad, tests = dict(bad), {}
        if "split" in bad:
            tests[bad.pop("split")] = gen_synthetic(two_domain(seed=13, n=200))
        with pytest.raises(ValidationError) as caught:
            run_sweep(train, tests, **{**kw, **bad})
        assert str(caught.value) == message

    def test_empty_split_name_rejected(self):
        # it used to run and write cells with an empty split name
        train = gen_synthetic(two_domain(seed=12, n=200))
        with pytest.raises(ValidationError, match="test split names must be non-empty"):
            run_sweep(train, {"": train}, budgets=[2.0], methods=["all-instruct"],
                      repeats=1, base_seed=0)

    def test_learnable_methods_are_the_robust_modes(self):
        assert LEARNABLE_METHODS is MODES

    def test_default_budget_grid(self):
        assert DEFAULT_BUDGETS == (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.0, 10.0)


class TestScenarioFiles:
    def test_checked_in_files_match_presets(self):
        # one file per preset and no file that is not one
        stems = sorted(path.stem.replace("_", "-") for path in SCENARIO_DIR.glob("*.json"))
        assert stems == sorted(PRESET_SCENARIOS)
        for name, config in PRESET_SCENARIOS.items():
            path = SCENARIO_DIR / f"{name.replace('-', '_')}.json"
            assert path.exists(), path
            assert load_scenario(path) == config

    @pytest.mark.parametrize("text, message", [
        (b"{bad", "not a JSON file (JSONDecodeError("),
        (b"\xff{}", "not a JSON file (UnicodeDecodeError("),
        (b"[1]", "expected a JSON object, got list"),
    ])
    def test_file_faults_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "s.json"
        path.write_bytes(text)
        with pytest.raises(ParseError) as info:
            load_scenario(path)
        assert str(info.value).startswith(f"scenario file {path}: {message}")


class TestScenarioSplits:
    def test_shift_scenario_adds_ood_on_the_training_scale(self):
        scenario = replace(two_domain(), shift={"cheap": 0.1, "dear": 0.9})
        train, tests = scenario_splits(scenario)
        assert list(tests) == ["id_test", "ood"]
        ood = gen_synthetic(replace(scenario, seed=scenario.seed + 2), apply_shift=True)
        assert tests["ood"].ids == ood.ids
        assert np.array_equal(tests["ood"].cost_raw, ood.cost_raw)
        for split in tests.values():
            assert split.instruct_cost_mean == train.instruct_cost_mean
        assert ood.instruct_cost_mean != train.instruct_cost_mean
