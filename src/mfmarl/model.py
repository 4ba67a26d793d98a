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

from .simplex import _check_finite, _check_size


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
      simulator passes each agent's uniform draw `u[i]` on [0, 1). The
      views are valid for that call only: a step loop updates its
      `mu_views` in place on a later step, so a hook that keeps them copies
      them;
    - `kernel(mus, nus)` -> (B, |X|, |U|, |X|) transition rows and
      `reward_matrix(mus, nus)` -> (B, |X|, |U|) rewards, for B stacked
      mean-field laws given as float arrays `mus` (B, |X|) and `nus`
      (B, |U|) whose rows are already checked probability vectors.

    Row b of a `kernel` or `reward_matrix` result must not depend on the
    rows stacked with law b: `mf_values`, NPG's stacked iterates
    (`npg._PolicyStack`) and `mf_path`'s one reward call over a whole path
    rely on it for results equal, bit for bit, to one call per law. A hook
    whose rows depend on each other, such as a BLAS product across rows,
    agrees with one call per law only to rounding.

    A hook result of another shape, a `reward_matrix` table with a
    non-finite entry, or next states that are not integers in [0, |X|), is
    a ValueError that names the hook where it is called (`_hook_output`,
    `nagent.step`).

    `reads_nu_views` declares whether the two simulator hooks read their
    `nu_views` argument. When it is False the simulator skips the action
    views, an N^2 product on a dense W, and passes None in their place.
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
        reads_nu_views: bool = True,
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
        if not isinstance(reads_nu_views, bool):
            raise ValueError(f"reads_nu_views must be a bool, got {reads_nu_views!r}")
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
        self.reads_nu_views = reads_nu_views
        self.reward_batch = reward_batch
        self.transition_sample_batch = transition_sample_batch
        self.kernel = kernel
        self.reward_matrix = reward_matrix


def _hook_output(name: str, out, shape: tuple, finite: bool = False) -> np.ndarray:
    """`out`, what the hook `name` returned, as a float array; a ValueError
    that names the hook, the shape it returned and `shape`, the one
    expected, unless they agree and, with `finite`, every entry is finite."""
    out = np.asarray(out, dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"{name} returned an array of shape {out.shape}, expected {shape}")
    if finite and not np.isfinite(out).all():
        raise ValueError(f"{name} returned a non-finite entry")
    return out


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
        for name in ("alpha_r", "beta_r", "lambda_r", "sigma"):
            _check_finite(name, getattr(self, name))
        if not self.sigma >= 1:
            raise ValueError("sigma must be >= 1")


def _increment_cdf(c, m):
    """P(floor(chi * c) < m) = min(m / c, 1) for chi ~ Uniform[0, 1] and
    integers m >= 0, broadcast over c and m. For c <= 1 the increment is 0
    almost surely, so c is raised to 1, which also covers c <= 0."""
    cdf = m / np.maximum(c, 1.0)
    return np.minimum(cdf, 1.0, out=cdf)


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
    uses the equivalent floor(chi * c) draw through the batch hook. Neither
    simulator hook reads the action views.
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
    # Hold rows are the identity, copied from `held` with the invest rows.
    steps = np.maximum(np.arange(q + 1)[None, :] - np.arange(q)[:, None], 0)
    held = np.zeros((1, q, 2, q))
    held[0, :, 0] = np.eye(q)
    room = q - labels
    pay = cfg.alpha_r * labels
    cost = cfg.lambda_r * np.array([0.0, 1.0])

    # mu_bar is a sum per row, not `mus @ labels`: the rounding of a BLAS
    # product depends on the number of rows, and a law's kernel and reward
    # table must not depend on the laws stacked with it. A law's mu_bar lies
    # in [1, q], so c >= 0 needs no clip of mu_bar: rounding above q gives
    # c <= 0, which `_increment_cdf` raises to 1 as it would raise c = 0.
    def kernel(mus, nus):
        mu_bar = (mus * labels).sum(axis=1)
        c = (1.0 - mu_bar / q)[:, None] * room
        cdf = _increment_cdf(c[:, :, None], steps)
        k = held.repeat(len(mus), axis=0)
        np.subtract(cdf[..., 1:], cdf[..., :-1], out=k[:, :, 1])
        return k

    def reward_matrix(mus, nus):
        mu_bar = (mus * labels).sum(axis=1)
        return (pay - (cfg.beta_r * mu_bar**cfg.sigma)[:, None])[:, :, None] - cost

    affine = firm_affine_spec(cfg) if cfg.sigma == 1 else None
    bound = None if affine is not None else _firm_reward_bound(cfg)
    return EnvModel(
        n_states=q,
        n_actions=2,
        gamma=gamma,
        lipschitz_p=_firm_lipschitz_p(cfg),
        affine=affine,
        reward_bound=bound,
        reads_nu_views=False,
        reward_batch=reward_batch,
        transition_sample_batch=transition_sample_batch,
        kernel=kernel,
        reward_matrix=reward_matrix,
    )


def _firm_reward_bound(cfg: FirmModelConfig) -> float:
    """Exact max |r| of the firm reward. r is affine in the level x in
    [1, q], in mu_bar^sigma for the viewed mean level mu_bar in [1, q] and in
    the action u in {0, 1}, so its largest and smallest values, and with
    them max |r|, lie at the 8 corners of that box."""
    ends = np.array([1.0, cfg.q])
    x, mu_bar, u = np.meshgrid(ends, ends, [0.0, 1.0])
    return float(np.abs(cfg.alpha_r * x - cfg.beta_r * mu_bar**cfg.sigma - cfg.lambda_r * u).max())


def _firm_lipschitz_p(cfg: FirmModelConfig) -> float:
    """Transition Lipschitz constant of the firm model, L_P = (q - 1)^2 / q:
    |P(x, u, mu) - P(x, u, mu')|_1 <= L_P |mu - mu'|_1 for every level x and
    action u.

    Hold keeps the level whatever mu is. Invest adds floor(chi * c),
    chi ~ Uniform[0, 1], with c = (1 - mu_bar / q)(q - x) for the viewed mean
    level mu_bar (clipped to [0, q], which is 1-Lipschitz); capping the next
    level at q only merges mass, which does not add to an L1 distance.
    - For c >= 1 the increment law is 1/c on each of m = 0..floor(c) - 1 and
      1 - floor(c)/c on m = floor(c); for c <= 1 it is a point mass at 0. It
      is continuous in c, and its L1 derivative in c is 2 floor(c) / c^2,
      at most 2 (approached as c falls to 1).
    - |dc| = (q - x) / q |d mu_bar| <= (q - 1) / q |d mu_bar|.
    - mu - mu' sums to 0, so |d mu_bar| <= (q - 1) / 2 |mu - mu'|_1.
    Together L_P = 2 * (q - 1) / q * (q - 1) / 2. For q >= 3 no smaller constant
    holds: at level 1, with mass on levels 1 and q at c just above 1, a
    small move of mass between the two attains it in the limit (8.0999 of
    8.1 at q = 10)."""
    return (cfg.q - 1) ** 2 / cfg.q
