import mfmarl

# The public names of the package. Adding or removing an export is an edit
# of this list.
EXPORTS = [
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


def test_exports_are_pinned():
    assert sorted(mfmarl.__all__) == EXPORTS


def test_every_export_resolves():
    for name in mfmarl.__all__:
        assert getattr(mfmarl, name) is not None
