"""Natural policy gradient training of the mean-field control problem.

The outer loop ascends the policy parameters along a direction solved by an
inner stochastic regression: each inner step consumes one sample from the
policy's discounted occupancy over (state, state-distribution, action)
triples together with an unbiased advantage estimate (one estimator: a fair
coin either keeps or redraws the accepted action), and nudges the direction
toward the least-squares fit of advantage against the score. Each iterate's
mean-field path gives its logged value and the next pass's samples.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .meanfield import _MeanFieldPath, truncation_horizon
from .model import EnvModel
from .policy import PolicyConfig, SoftmaxPolicy
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


class _Chain:
    """Representative-agent chain over a shared mean-field path: the state
    and action are stochastic, the population distribution is not."""

    def __init__(self, path: _MeanFieldPath, rng: np.random.Generator):
        self.path = path
        self.rng = rng
        self.t = 0
        self.x = sample(path.mus[0], rng)
        self.u = self._draw_action()

    def _draw(self, cum_row: np.ndarray) -> int:
        idx = int(np.searchsorted(cum_row, self.rng.random() * cum_row[-1], side="right"))
        return min(idx, cum_row.size - 1)

    def _draw_action(self) -> int:
        return self._draw(self.path.probs_cum(self.t)[self.x])

    def resample_action(self) -> None:
        self.u = self._draw_action()

    def reward(self) -> float:
        return self.path.reward(self.t, self.x, self.u)

    @property
    def mu(self) -> Simplex:
        return self.path.mus[self.t]

    def advance(self) -> None:
        self.x = self._draw(self.path.kernel_cum(self.t)[self.x, self.u])
        self.t += 1
        self.u = self._draw_action()


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
    chain = _Chain(path, rng)
    for _ in range(_geometric_steps(path.gamma, rng)):
        chain.advance()
    accepted = (chain.x, chain.mu, chain.u)

    q_branch = rng.random() < 0.5
    if not q_branch:
        chain.resample_action()
    total = chain.reward()
    for _ in range(_geometric_steps(path.gamma, rng)):
        chain.advance()
        total += chain.reward()
    a_hat = 2.0 * total if q_branch else -2.0 * total
    return OccupancySample(x=accepted[0], mu=accepted[1], u=accepted[2], a_hat=a_hat)


def inner_sgd(
    policy: SoftmaxPolicy,
    cfg: NPGConfig,
    gamma: float,
    rng: np.random.Generator,
    sampler,
) -> np.ndarray:
    """Solve the direction-finding regression by SGD from w = 0 and return
    the average of the post-update iterates.

    Each iteration draws a fresh occupancy sample (x, mu, u, a_hat) from
    `sampler(rng)`, forms the residual of w . score of `policy` against
    a_hat / (1 - gamma), and steps w down the residual-weighted score.
    """
    w = np.zeros(policy.config.n_params)
    total = np.zeros_like(w)
    scale = 1.0 / (1.0 - gamma)
    for l in range(cfg.l_steps):
        s = sampler(rng)
        g = policy.log_gradient(s.x, s.mu, s.u)
        with np.errstate(invalid="ignore", over="ignore"):
            h = (float(w @ g) - s.a_hat * scale) * g
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
        try:
            w = inner_sgd(policy, cfg, env.gamma, rng, lambda r: sample_occupancy(path, r))
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
