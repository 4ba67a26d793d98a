"""Environment definitions.

An `EnvModel` bundles finite state/action spaces with a reward
r(x, u, mu, nu) and a transition kernel P(x, u, mu, nu) -> distribution over
states, where mu and nu are the state/action distributions the agent sees,
both given as batched array hooks.
The firm-network model is the concrete environment used in experiments; a
reward that is affine in (mu, nu) additionally carries an `AffineRewardSpec`
from which the approximation-bound constants are derived.

States are 0-based indices internally; the firm model's quality levels
1..Q map to index = level - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simplex import _check_size


class AffineRewardRequiredError(ValueError):
    """Raised when an operation needs the affine reward decomposition but the
    environment's reward is not affine in its distribution arguments."""


@dataclass(frozen=True)
class AffineRewardSpec:
    """Decomposition r(x, u, mu, nu) = a . mu + b . nu + f[x, u]."""

    a: np.ndarray
    b: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        f = np.asarray(self.f, dtype=np.float64)
        if f.ndim != 2 or a.ndim != 1 or b.ndim != 1:
            raise ValueError("a, b must be vectors and f a |X| x |U| matrix")
        if f.shape != (a.size, b.size):
            raise ValueError(f"f shape {f.shape} does not match (|X|, |U|) = ({a.size}, {b.size})")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(f))):
            raise ValueError("affine reward coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class RewardConstants:
    """Bound and Lipschitz constants implied by an affine reward:
    m_f = max |f|, m_r = |a|_1 + |b|_1 + m_f, l_r = max(|a|_1, |b|_1)."""

    m_r: float
    l_r: float
    m_f: float


def reward_constants(spec: AffineRewardSpec) -> RewardConstants:
    a1 = float(np.abs(spec.a).sum())
    b1 = float(np.abs(spec.b).sum())
    m_f = float(np.abs(spec.f).max())
    return RewardConstants(m_r=a1 + b1 + m_f, l_r=max(a1, b1), m_f=m_f)


class EnvModel:
    """Finite-space environment with distribution-dependent dynamics.

    The environment is its four batched hooks, on 0-based indices and float
    arrays of laws; the population simulator and the mean-field recursion
    call only these:

    - `reward_batch(states, actions, mu_views, nu_views)` -> (n,) rewards
      and `transition_sample_batch(states, actions, mu_views, nu_views, u)`
      -> (n,) next states, one entry per agent of the simulator, where the
      simulator passes each agent's uniform draw `u[i]` on [0, 1);
    - `kernel(mus, nus)` -> (B, |X|, |U|, |X|) transition rows and
      `reward_matrix(mus, nus)` -> (B, |X|, |U|) rewards, for B stacked
      mean-field laws given as float arrays `mus` (B, |X|) and `nus`
      (B, |U|) whose rows are already checked probability vectors.
    """

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        gamma: float,
        *,
        reward_batch,
        transition_sample_batch,
        kernel,
        reward_matrix,
        lipschitz_p: Optional[float] = None,
        affine: Optional[AffineRewardSpec] = None,
        reward_bound: Optional[float] = None,
    ):
        _check_size("n_states", n_states)
        _check_size("n_actions", n_actions)
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        if reward_bound is None and affine is not None:
            reward_bound = reward_constants(affine).m_r
        if reward_bound is None:
            raise ValueError("non-affine environments must declare a reward bound")
        for name, value in (("reward_bound", reward_bound), ("lipschitz_p", lipschitz_p)):
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        hooks = {
            "reward_batch": reward_batch,
            "transition_sample_batch": transition_sample_batch,
            "kernel": kernel,
            "reward_matrix": reward_matrix,
        }
        for name, hook in hooks.items():
            if not callable(hook):
                raise ValueError(f"{name} must be callable, got {hook!r}")
        self.n_states = n_states
        self.n_actions = n_actions
        self.gamma = gamma
        self.lipschitz_p = lipschitz_p
        self.affine = affine
        self.reward_bound = float(reward_bound)
        self.reward_batch = reward_batch
        self.transition_sample_batch = transition_sample_batch
        self.kernel = kernel
        self.reward_matrix = reward_matrix


@dataclass(frozen=True)
class FirmModelConfig:
    """Network of firms choosing whether to invest in product quality.

    States are quality levels 1..q; actions are {0: hold, 1: invest}.
    Reward is alpha_r * x - beta_r * (local mean quality)^sigma - lambda_r * u;
    sigma = 1 is the affine case.
    """

    q: int
    k: int
    alpha_r: float = 1.0
    beta_r: float = 0.5
    lambda_r: float = 0.5
    sigma: float = 1.0

    def __post_init__(self):
        _check_size("q", self.q)
        _check_size("k", self.k)
        if not self.sigma >= 1:
            raise ValueError("sigma must be >= 1")


def _increment_cdf(c, m):
    """P(floor(chi * c) < m) = min(m / c, 1) for chi ~ Uniform[0, 1] and
    integers m >= 0, broadcast over c and m. For c <= 1 the increment is 0
    almost surely, so c is raised to 1, which also covers c <= 0."""
    return np.minimum(m / np.maximum(c, 1.0), 1.0)


def _increment_pmf(c: np.ndarray, max_m: int) -> np.ndarray:
    """Law of floor(chi * c) for chi ~ Uniform[0, 1], one row per entry of c.

    Row entries m = 0..max_m hold P(m) = min((m+1)/c, 1) - min(m/c, 1);
    c = 0 rows are a point mass at m = 0.
    """
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    cdf = _increment_cdf(c[:, None], np.arange(max_m + 2))
    return cdf[:, 1:] - cdf[:, :-1]


def firm_affine_spec(cfg: FirmModelConfig) -> AffineRewardSpec:
    """Affine decomposition of the sigma = 1 firm reward."""
    if cfg.sigma != 1:
        raise AffineRewardRequiredError(
            f"firm reward with sigma={cfg.sigma} is not affine in the mean field"
        )
    labels = np.arange(1, cfg.q + 1, dtype=np.float64)
    a = -cfg.beta_r * labels
    b = np.zeros(2)
    f = cfg.alpha_r * labels[:, None] - cfg.lambda_r * np.array([0.0, 1.0])[None, :]
    return AffineRewardSpec(a=a, b=b, f=f)


def build_firm_env(cfg: FirmModelConfig, gamma: float) -> EnvModel:
    """Wire the firm model into the EnvModel contract.

    The transition's increment law is evaluated in closed form so the
    mean-field kernel is deterministic and exact; the population simulator
    uses the equivalent floor(chi * c) draw through the batch hook.
    """
    q = cfg.q
    labels = np.arange(1, q + 1, dtype=np.float64)

    def reward_batch(states, actions, mu_views, nu_views):
        mu_bar = mu_views @ labels
        return cfg.alpha_r * labels[states] - cfg.beta_r * mu_bar**cfg.sigma - cfg.lambda_r * actions

    def transition_sample_batch(states, actions, mu_views, nu_views, u):
        mu_bar = np.clip(mu_views @ labels, 0.0, float(q))
        c = (1.0 - mu_bar / q) * (q - labels[states])
        m = np.floor(u * c).astype(np.int64)
        m = np.minimum(m, q - 1 - states)
        return np.where(actions == 1, states + m, states)

    # Invest rows: P(x -> s) = cdf(s + 1 - x) - cdf(s - x) with the cdf of the
    # increment; steps[x, s] = max(s - x, 0) for s = 0..q makes it 0 for s < x.
    steps = np.maximum(np.arange(q + 1)[None, :] - np.arange(q)[:, None], 0)
    hold = np.eye(q)

    def kernel(mus, nus):
        mu_bar = np.minimum(np.maximum(mus @ labels, 0.0), float(q))
        c = (1.0 - mu_bar / q)[:, None] * (q - labels)
        cdf = _increment_cdf(c[:, :, None], steps)
        k = np.empty((len(mus), q, 2, q))
        k[:, :, 0] = hold
        k[:, :, 1] = cdf[..., 1:] - cdf[..., :-1]
        return k

    def reward_matrix(mus, nus):
        mu_bar = mus @ labels
        pay = cfg.alpha_r * labels[None, :] - cfg.beta_r * mu_bar[:, None] ** cfg.sigma
        return pay[:, :, None] - cfg.lambda_r * np.array([0.0, 1.0])

    affine = firm_affine_spec(cfg) if cfg.sigma == 1 else None
    bound = None if affine is not None else _estimate_reward_bound(cfg)
    return EnvModel(
        n_states=q,
        n_actions=2,
        gamma=gamma,
        lipschitz_p=estimate_firm_lipschitz_p(cfg),
        affine=affine,
        reward_bound=bound,
        reward_batch=reward_batch,
        transition_sample_batch=transition_sample_batch,
        kernel=kernel,
        reward_matrix=reward_matrix,
    )


def _estimate_reward_bound(cfg: FirmModelConfig, trials: int = 100_000) -> float:
    """max |r| over a random sweep, inflated 10% (for sigma != 1 rewards)."""
    rng = np.random.default_rng(20240)
    labels = np.arange(1, cfg.q + 1, dtype=np.float64)
    mu_bar = rng.dirichlet(np.ones(cfg.q), size=trials) @ labels
    x = labels[rng.integers(cfg.q, size=trials)]
    u = rng.integers(2, size=trials)
    r = cfg.alpha_r * x - cfg.beta_r * mu_bar**cfg.sigma - cfg.lambda_r * u
    return 1.1 * float(np.abs(r).max())


def estimate_firm_lipschitz_p(cfg: FirmModelConfig, trials: int = 100_000) -> float:
    """Declared transition Lipschitz constant for the firm model.

    Empirical max of |P(x,u,mu1) - P(x,u,mu2)|_1 / |mu1 - mu2|_1 over random
    tuples, inflated by a 1.1 safety factor. The probe mixes independent
    pairs with small perturbations (including mass moved between the extreme
    quality levels, where the ratio peaks) to get close to the supremum.
    """
    q = cfg.q
    if q == 1:
        return 0.0
    rng = np.random.default_rng(20241)
    labels = np.arange(1, q + 1, dtype=np.float64)

    third = trials // 3
    mu1 = rng.dirichlet(np.ones(q), size=trials)
    mu2 = np.empty_like(mu1)
    # Independent pairs, small mixtures toward a random direction, and small
    # mass moves between the extreme quality levels.
    mu2[:third] = rng.dirichlet(np.ones(q), size=third)
    mix = slice(third, 2 * third)
    eps_mix = rng.uniform(1e-4, 0.05, size=third)
    mu2[mix] = (1 - eps_mix[:, None]) * mu1[mix] + eps_mix[:, None] * rng.dirichlet(
        np.ones(q), size=third
    )
    ext = slice(2 * third, trials)
    n_ext = trials - 2 * third
    mu2[ext] = mu1[ext]
    delta = np.minimum(mu1[ext][:, 0], rng.uniform(1e-4, 0.05, size=n_ext))
    mu2[ext, 0] -= delta
    mu2[ext, q - 1] += delta

    x = rng.integers(1, q + 1, size=trials)
    c1 = (1.0 - np.clip(mu1 @ labels, 0, q) / q) * (q - x)
    c2 = (1.0 - np.clip(mu2 @ labels, 0, q) / q) * (q - x)
    p1 = _increment_pmf(c1, q - 1)
    p2 = _increment_pmf(c2, q - 1)
    dp = np.abs(p1 - p2).sum(axis=1)
    dmu = np.abs(mu1 - mu2).sum(axis=1)
    ok = dmu > 1e-12
    ratio = dp[ok] / dmu[ok]
    return 1.1 * float(ratio.max(initial=0.0))
