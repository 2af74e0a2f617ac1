"""Budget-constrained, distributionally robust routing between reasoning
and non-reasoning judge modes."""

from .core import (
    ConstantPolicy,
    Dataset,
    FeedForwardPolicy,
    LinearPolicy,
    Metrics,
    ParseError,
    PolicySpec,
    TabularPolicy,
    ValidationError,
    evaluate_policy,
    load_dataset,
    policy_probs,
    save_dataset,
)
from .evalbench import (
    DEFAULT_BUDGETS,
    PRESET_SCENARIOS,
    DomainSpec,
    ScenarioConfig,
    SweepResult,
    baseline_policy,
    gen_synthetic,
    load_scenario,
    run_sweep,
    scenario_splits,
    shift_scenarios,
)
from .reweight import (
    ExactTilt,
    RobustConfig,
    WeightVector,
    exact_tilt,
    kl_divergence,
    tilt_weights,
)
from .saddle import (
    ConvergenceConstants,
    InfeasibleProblemError,
    SaddleSolution,
    TabularProblem,
    dual_function,
    primal_dual_iterate,
    solve_saddle,
)
from .trainer import (
    Checkpoint,
    TrainConfig,
    TrainingDivergenceError,
    load_model,
    save_model,
    select_checkpoint,
    train,
)

__version__ = "0.1.0"
