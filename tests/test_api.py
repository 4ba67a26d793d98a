import re
from pathlib import Path

import mfmarl

README = Path(__file__).resolve().parents[1] / "README.md"

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
    "NPGConfig",
    "PolicyConfig",
    "Simplex",
    "SoftmaxPolicy",
    "TrainingDivergenceError",
    "approximation_bound",
    "bound_inputs",
    "build_firm_env",
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
    "rollout",
    "sample_occupancy",
    "save_policy",
    "select_policy",
    "sinkhorn_random",
    "step",
    "truncation_horizon",
    "uniform",
]


def test_exports_are_pinned():
    assert sorted(mfmarl.__all__) == EXPORTS


def test_every_export_resolves():
    for name in mfmarl.__all__:
        assert getattr(mfmarl, name) is not None


def test_every_export_names_its_user_in_the_readme():
    # The export list under "Library sketch" has one line per name,
    # `- `name`: its user`.
    sketch = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    listed = re.findall(r"^- `(\w+)`: \S", sketch, re.MULTILINE)
    assert sorted(listed) == sorted(mfmarl.__all__)
