"""Natural policy gradient training of the mean-field control problem.

The outer loop ascends the policy parameters along a direction solved by an
inner stochastic regression: each inner step consumes one sample from the
policy's discounted occupancy over (state, state-distribution, action)
triples together with an unbiased advantage estimate, and nudges the
direction toward the least-squares fit of advantage against the score.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .meanfield import _kernels, _next_laws, _reward_matrices, _step, mf_value
from .model import EnvModel
from .policy import PolicyConfig, SoftmaxPolicy
from .simplex import Simplex, sample


class TrainingDivergenceError(RuntimeError):
    """Raised when a parameter or update direction becomes non-finite."""


@dataclass(frozen=True)
class NPGConfig:
    eta: float
    alpha: float
    j_steps: int
    l_steps: int
    gamma: float
    w0: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0 or self.alpha <= 0:
            raise ValueError("learning rates must be positive (eta may be 0)")
        if self.j_steps < 1 or self.l_steps < 1:
            raise ValueError("j_steps and l_steps must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")


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


class _MeanFieldPath:
    """Lazily grown deterministic mean-field trajectory under a fixed policy:
    mu_t, nu_t, the per-state action distributions, the transition kernel,
    and the reward table at each t. Shared by every occupancy sample of one
    inner-regression pass, since none of it depends on the sampled chain.
    Each step is the stacked mean-field step with a single row (B = 1)."""

    def __init__(self, env: EnvModel, policy, mu0: Simplex):
        self.env = env
        self.policy = policy
        self.mus = []
        self._laws = []  # (mus, nus, probs) stacked arrays with B = 1
        self._probs_cum, self._kernel_cache, self._kernels_cum, self._rewards = [], [], [], []
        self._push(mu0.weights[None, :], mu0)

    def _push(self, mus: np.ndarray, mu: Simplex) -> None:
        probs, nus = _step(self.policy, mus)
        self._laws.append((mus, nus, probs))
        self.mus.append(mu)
        self._probs_cum.append(np.cumsum(probs[0], axis=1))
        self._kernel_cache.append(None)
        self._kernels_cum.append(None)
        self._rewards.append(None)

    def _extend(self) -> None:
        t = len(self.mus) - 1
        mus, _, probs = self._laws[t]
        mus = _next_laws(self._kernel(t)[None], probs, mus)
        self._push(mus, Simplex(mus[0]))

    def ensure(self, t: int) -> None:
        while len(self.mus) <= t:
            self._extend()

    def _kernel(self, t: int) -> np.ndarray:
        if self._kernel_cache[t] is None:
            mus, nus, _ = self._laws[t]
            self._kernel_cache[t] = _kernels(self.env, mus, nus)[0]
        return self._kernel_cache[t]

    def kernel_cum(self, t: int) -> np.ndarray:
        self.ensure(t)
        if self._kernels_cum[t] is None:
            self._kernels_cum[t] = np.cumsum(self._kernel(t), axis=2)
        return self._kernels_cum[t]

    def probs_cum(self, t: int) -> np.ndarray:
        self.ensure(t)
        return self._probs_cum[t]

    def reward(self, t: int, x: int, u: int) -> float:
        self.ensure(t)
        if self._rewards[t] is None:
            mus, nus, _ = self._laws[t]
            self._rewards[t] = np.asarray(_reward_matrices(self.env, mus, nus)[0], dtype=np.float64)
        return float(self._rewards[t][x, u])


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


def sample_occupancy(
    env: EnvModel,
    policy_cfg: PolicyConfig,
    phi: np.ndarray,
    mu0: Simplex,
    rng: np.random.Generator,
    estimator: str = "resampled",
    path: _MeanFieldPath | None = None,
) -> OccupancySample:
    """Draw one occupancy sample and its advantage estimate.

    The chain runs a geometric number of steps and the triple there is the
    sample. `resampled` (default) then flips a fair coin: heads continues
    from the accepted action, tails redraws the action first; the signed
    (+2/-2) sum of rewards over a second geometric-length suffix, including
    the reward at the accepted time, is the advantage estimate. `literal`
    runs a single shared continuation from the accepted action, accumulating
    rewards only after each advance, and applies the sign afterwards.

    `path` optionally shares the deterministic mean-field trajectory across
    samples drawn under the same parameters.
    """
    if estimator not in ("resampled", "literal"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if path is None:
        path = _MeanFieldPath(env, SoftmaxPolicy(policy_cfg, phi), mu0)
    chain = _Chain(path, rng)
    for _ in range(_geometric_steps(env.gamma, rng)):
        chain.advance()
    accepted = (chain.x, chain.mu, chain.u)

    if estimator == "resampled":
        q_branch = rng.random() < 0.5
        if not q_branch:
            chain.resample_action()
        total = chain.reward()
        for _ in range(_geometric_steps(env.gamma, rng)):
            chain.advance()
            total += chain.reward()
        a_hat = 2.0 * total if q_branch else -2.0 * total
    else:
        total = 0.0
        steps = int(rng.geometric(1.0 - env.gamma)) if env.gamma > 0.0 else 1
        for _ in range(steps):
            chain.advance()
            total += chain.reward()
        q_branch = rng.random() < 0.5
        a_hat = 2.0 * total if q_branch else -2.0 * total

    return OccupancySample(x=accepted[0], mu=accepted[1], u=accepted[2], a_hat=a_hat)


def inner_sgd(
    env: EnvModel,
    policy_cfg: PolicyConfig,
    phi: np.ndarray,
    mu0: Simplex,
    cfg: NPGConfig,
    rng: np.random.Generator,
    sampler=None,
) -> np.ndarray:
    """Solve the direction-finding regression by SGD and return the average
    of the post-update iterates.

    Each iteration draws a fresh occupancy sample (x, mu, u, a_hat), forms
    the residual of w . score against a_hat / (1 - gamma), and steps w down
    the residual-weighted score.
    """
    policy = SoftmaxPolicy(policy_cfg, phi)
    if sampler is None:
        path = _MeanFieldPath(env, policy, mu0)

        def sampler(r):
            return sample_occupancy(env, policy_cfg, phi, mu0, r, path=path)

    w = np.zeros(policy_cfg.n_params) if cfg.w0 is None else np.asarray(cfg.w0, dtype=np.float64).copy()
    total = np.zeros_like(w)
    scale = 1.0 / (1.0 - cfg.gamma)
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
    estimator: str = "resampled",
) -> TrainingResult:
    """Run the outer natural-gradient loop and evaluate each iterate's
    mean-field value from mu0."""
    if cfg.gamma != env.gamma:
        raise ValueError(f"config gamma {cfg.gamma} differs from environment gamma {env.gamma}")
    result = TrainingResult()
    phi = np.asarray(phi0, dtype=np.float64).copy()
    for j in range(cfg.j_steps):
        start = time.perf_counter()
        path = _MeanFieldPath(env, SoftmaxPolicy(policy_cfg, phi), mu0)

        def sampler(r, _phi=phi, _path=path):
            return sample_occupancy(env, policy_cfg, _phi, mu0, r, estimator=estimator, path=_path)

        try:
            w = inner_sgd(env, policy_cfg, phi, mu0, cfg, rng, sampler=sampler)
        except TrainingDivergenceError as err:
            raise TrainingDivergenceError(f"outer iteration {j}: {err}") from err
        phi = phi + cfg.eta * w
        if not np.all(np.isfinite(phi)):
            raise TrainingDivergenceError(f"non-finite parameters after outer iteration {j}")
        value, _ = mf_value(env, SoftmaxPolicy(policy_cfg, phi), mu0, value_tol)
        result.iterates.append(phi.copy())
        result.values.append(value)
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
