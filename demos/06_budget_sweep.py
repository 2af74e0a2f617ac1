"""Budget sweep: the learned router against the random-rate frontier.

The random baseline interpolates the all-instruct and all-reasoning
endpoints; routing instances by their expected benefit traces a higher,
concave frontier at the same reasoning rates.
"""

import tempfile
from pathlib import Path

from racer import (
    PRESET_SCENARIOS,
    RobustConfig,
    TrainConfig,
    run_sweep,
    scenario_splits,
)

# the id_test split is on the training split's cost scale
train_data, tests = scenario_splits(PRESET_SCENARIOS["separable3"])

template = TrainConfig(budget=2.0, epochs=120, batch_size=64, primal_lr=2e-3,
                       dual_lr=0.05, seed=0, val_fraction=0.15,
                       robust=RobustConfig(tau_reward=1.0, mode="racer"))
result = run_sweep(
    train_data, tests, budgets=[2.0, 3.0, 4.0],
    methods=["racer", "random", "all-instruct", "all-reasoning"],
    repeats=3, base_seed=0, template=template,
)

print(f"{'method':<14}{'budget':>7}{'accuracy':>12}{'cost':>10}{'reasoning':>11}")
for row in result.aggregate():
    if row.split != "id_test":
        continue
    print(f"{row.method:<14}{row.budget:>7.1f}{row.accuracy_mean:>9.4f} "
          f"+-{row.accuracy_std:.3f}{row.cost_mean:>10.3f}{row.reasoning_mean:>11.3f}")

with tempfile.TemporaryDirectory() as tmp:
    raw = Path(tmp) / "sweep.csv"
    agg = Path(tmp) / "sweep_agg.csv"
    result.to_csv(raw)
    result.aggregate_csv(agg)
    print(f"\nwrote {len(result.cells)} cells -> {raw.name}, "
          f"{len(result.aggregate())} aggregate rows -> {agg.name}")
