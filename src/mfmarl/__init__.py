"""Mean-field control approximation for multi-agent RL with non-uniform
(doubly stochastic) agent interactions."""

from .interaction import (
    InteractionMatrix,
    ring_k_neighbor,
    ring_symmetric,
    sinkhorn_random,
    uniform,
    validate_doubly_stochastic,
)
from .meanfield import (
    BoundInapplicableError,
    BoundInputs,
    MFTrajectory,
    approximation_bound,
    bound_inputs,
    mf_value,
    mf_values,
    truncation_horizon,
)
from .model import (
    AffineRewardRequiredError,
    AffineRewardSpec,
    EnvModel,
    FirmModelConfig,
    RewardConstants,
    build_firm_env,
    reward_constants,
)
from .nagent import RolloutRecord, estimate_v_marl, rollout, step
from .npg import (
    NPGConfig,
    OccupancySample,
    TrainingDivergenceError,
    inner_sgd,
    npg_train,
    sample_occupancy,
    select_policy,
)
from .policy import (
    PolicyConfig,
    SoftmaxPolicy,
    estimate_lipschitz_lq,
    init_params,
    load_policy,
    log_policy_gradient,
    save_policy,
)
from .simplex import Simplex, sample

__all__ = [
    "AffineRewardRequiredError",
    "AffineRewardSpec",
    "BoundInapplicableError",
    "BoundInputs",
    "EnvModel",
    "FirmModelConfig",
    "InteractionMatrix",
    "MFTrajectory",
    "NPGConfig",
    "OccupancySample",
    "PolicyConfig",
    "RewardConstants",
    "RolloutRecord",
    "Simplex",
    "SoftmaxPolicy",
    "TrainingDivergenceError",
    "approximation_bound",
    "bound_inputs",
    "build_firm_env",
    "estimate_lipschitz_lq",
    "estimate_v_marl",
    "init_params",
    "inner_sgd",
    "load_policy",
    "log_policy_gradient",
    "mf_value",
    "mf_values",
    "npg_train",
    "reward_constants",
    "ring_k_neighbor",
    "ring_symmetric",
    "rollout",
    "sample",
    "sample_occupancy",
    "save_policy",
    "select_policy",
    "sinkhorn_random",
    "step",
    "truncation_horizon",
    "uniform",
    "validate_doubly_stochastic",
]
