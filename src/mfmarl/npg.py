"""Natural policy gradient training of the mean-field control problem.

The outer loop ascends the policy parameters along a direction solved by an
inner stochastic regression. A pass draws its samples from the policy's
discounted occupancy over (state, state-distribution, action) triples, each
with an unbiased advantage estimate (one estimator: a fair coin either keeps
or redraws the accepted action), scores them all in one backward pass, and
then each SGD step nudges the direction toward the least-squares fit of
advantage against the score. Each iterate's mean-field path gives its logged
value and the next pass's samples.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .meanfield import _MeanFieldPath, truncation_horizon
from .model import EnvModel
from .policy import PolicyConfig, SoftmaxPolicy, log_policy_gradient
from .simplex import Simplex, sample


class TrainingDivergenceError(RuntimeError):
    """Raised when a parameter or update direction becomes non-finite."""


@dataclass(frozen=True)
class NPGConfig:
    eta: float = 1e-3
    alpha: float = 1e-3
    j_steps: int = 100
    l_steps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0 or self.alpha <= 0:
            raise ValueError("learning rates must be positive (eta may be 0)")
        if self.j_steps < 1 or self.l_steps < 1:
            raise ValueError("j_steps and l_steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class OccupancySample:
    """A (state, state-distribution, action) triple drawn from the discounted
    occupancy, with its advantage estimate."""

    x: int
    mu: Simplex
    u: int
    a_hat: float

    def __post_init__(self):
        if not np.isfinite(self.a_hat):
            raise ValueError("advantage estimate must be finite")


def _draw(cum_row: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from an unnormalized cumulative row."""
    idx = int(np.searchsorted(cum_row, rng.random() * cum_row[-1], side="right"))
    return min(idx, cum_row.size - 1)


def _geometric_steps(gamma: float, rng: np.random.Generator) -> int:
    """Number of steps T with P(T = t) = (1 - gamma) * gamma^t for t >= 0."""
    if gamma == 0.0:
        return 0
    return int(rng.geometric(1.0 - gamma)) - 1


def sample_occupancy(path: _MeanFieldPath, rng: np.random.Generator) -> OccupancySample:
    """Draw one occupancy sample and its advantage estimate along the
    mean-field path of the current policy (discount `path.gamma`).

    The chain runs a geometric number of steps and the triple there is the
    sample. A fair coin then picks the branch: heads continues from the
    accepted action, tails redraws the action first; the signed (+2/-2) sum
    of rewards over a second geometric-length suffix, including the reward
    at the accepted time, is the advantage estimate.
    """
    t, x = 0, sample(path.mus[0], rng)
    u = _draw(path.probs_cum(0)[x], rng)
    for _ in range(_geometric_steps(path.gamma, rng)):
        x = _draw(path.kernel_cum(t)[x, u], rng)
        t += 1
        u = _draw(path.probs_cum(t)[x], rng)
    accepted = (x, path.mus[t], u)

    q_branch = rng.random() < 0.5
    if not q_branch:
        u = _draw(path.probs_cum(t)[x], rng)
    total = path.reward(t, x, u)
    for _ in range(_geometric_steps(path.gamma, rng)):
        x = _draw(path.kernel_cum(t)[x, u], rng)
        t += 1
        u = _draw(path.probs_cum(t)[x], rng)
        total += path.reward(t, x, u)
    a_hat = 2.0 * total if q_branch else -2.0 * total
    return OccupancySample(x=accepted[0], mu=accepted[1], u=accepted[2], a_hat=a_hat)


def inner_sgd(policy: SoftmaxPolicy, cfg: NPGConfig, gamma: float, samples) -> np.ndarray:
    """Solve the direction-finding regression by SGD from w = 0 over the
    pass's `cfg.l_steps` occupancy samples and return the average of the
    post-update iterates.

    The scores of `policy` at every sample come from one backward pass;
    step l then forms the residual of w . score_l against a_hat_l / (1 - gamma)
    and steps w down the residual-weighted score.
    """
    if len(samples) != cfg.l_steps:
        raise ValueError(f"inner_sgd needs cfg.l_steps = {cfg.l_steps} samples, got {len(samples)}")
    states, actions = np.array([s.x for s in samples]), np.array([s.u for s in samples])
    mu_rows = np.array([s.mu.weights for s in samples])
    scores = log_policy_gradient(policy.config, policy.params, states, mu_rows, actions)
    with np.errstate(over="ignore"):
        targets = np.array([s.a_hat for s in samples]) * (1.0 / (1.0 - gamma))
    w = np.zeros(policy.config.n_params)
    total = np.zeros_like(w)
    for l, (g, target) in enumerate(zip(scores, targets)):
        with np.errstate(invalid="ignore", over="ignore"):
            h = (float(w @ g) - target) * g
        if not np.all(np.isfinite(h)):
            raise TrainingDivergenceError(f"non-finite update direction at inner iteration {l}")
        w = w - cfg.alpha * h
        total += w
    return total / cfg.l_steps


@dataclass
class TrainingResult:
    """Outer-loop iterates with their mean-field values and bookkeeping."""

    iterates: list = field(default_factory=list)
    values: list = field(default_factory=list)
    w_norms: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)

    def write_log(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "v_mf", "w_norm", "wall_ms"])
            for j in range(len(self.values)):
                writer.writerow(
                    [
                        j + 1,
                        repr(float(self.values[j])),
                        repr(float(self.w_norms[j])),
                        repr(float(self.wall_ms[j])),
                    ]
                )


def npg_train(
    env: EnvModel,
    policy_cfg: PolicyConfig,
    phi0: np.ndarray,
    mu0: Simplex,
    cfg: NPGConfig,
    rng: np.random.Generator,
    value_tol: float = 1e-3,
) -> TrainingResult:
    """Run the outer natural-gradient loop, discounting with `env.gamma`,
    and evaluate each iterate's mean-field value from mu0, truncated so the
    tail is below value_tol.

    Each iterate builds one policy and one mean-field path: the path gives
    the iterate's value, then feeds the next inner regression's samples,
    whose scores come from the same policy."""
    horizon = truncation_horizon(env, value_tol)
    result = TrainingResult()
    phi = np.asarray(phi0, dtype=np.float64).copy()
    policy = SoftmaxPolicy(policy_cfg, phi)
    path = _MeanFieldPath(env, policy, mu0)
    for j in range(cfg.j_steps):
        start = time.perf_counter()
        samples = [sample_occupancy(path, rng) for _ in range(cfg.l_steps)]
        try:
            w = inner_sgd(policy, cfg, env.gamma, samples)
        except TrainingDivergenceError as err:
            raise TrainingDivergenceError(f"outer iteration {j}: {err}") from err
        phi = phi + cfg.eta * w
        if not np.all(np.isfinite(phi)):
            raise TrainingDivergenceError(f"non-finite parameters after outer iteration {j}")
        policy = SoftmaxPolicy(policy_cfg, phi)
        path = _MeanFieldPath(env, policy, mu0)
        result.iterates.append(phi.copy())
        result.values.append(path.value(horizon))
        result.w_norms.append(float(np.linalg.norm(w)))
        result.wall_ms.append((time.perf_counter() - start) * 1e3)
    return result


def select_policy(iterates, values) -> tuple[np.ndarray, float]:
    """Best iterate by mean-field value (ties broken by smallest index),
    plus the average value across iterates."""
    if len(iterates) == 0 or len(iterates) != len(values):
        raise ValueError("need matching nonempty iterate and value sequences")
    best = int(np.argmax(values))
    return iterates[best], float(np.mean(values))
