"""Deterministic mean-field dynamical system and the approximation-error
bound calculator.

With an infinite homogeneous population, the population action distribution,
the next state distribution, and the average reward are all deterministic
functions of the current state distribution and the policy; iterating them
gives the mean-field value of a stationary policy. The bound calculator
turns the model's Lipschitz/bound constants into an upper bound on the gap
between the finite-population value and the mean-field value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import AffineRewardRequiredError, EnvModel, reward_constants
from .simplex import Simplex, normalized_rows

_SP_LIMIT_TOL = 1e-9


class BoundInapplicableError(ValueError):
    """Raised when gamma * S_P >= 1, outside the bound's contraction regime."""


@dataclass(frozen=True)
class MFTrajectory:
    """Mean-field rollout: state/action distributions and average reward at
    each step t = 0..horizon."""

    mus: list
    nus: list
    rewards: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.mus) - 1


def truncation_horizon(env: EnvModel, tol: float) -> int:
    """Smallest T with discounted tail sum below tol, using the declared
    reward bound: gamma^(T+1) * M_R / (1 - gamma) <= tol."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if env.gamma == 0.0 or env.reward_bound <= 0.0:
        return 0
    ratio = tol * (1.0 - env.gamma) / env.reward_bound
    if ratio >= 1.0:
        return 0
    return max(0, math.ceil(math.log(ratio) / math.log(env.gamma)))


def mf_values(env: EnvModel, policy, mu0s, horizon: int) -> np.ndarray:
    """Discounted mean-field values, t = 0..horizon, of one policy from each
    row of `mu0s` (B, |X|), computed by one recursion over the stacked laws.

    Every row of `mu0s` and of each later state and action law must pass the
    `Simplex` checks; a row that fails raises ValueError.
    """
    mus = np.asarray(mu0s, dtype=np.float64)
    if mus.ndim != 2 or mus.shape[1] != env.n_states:
        raise ValueError(f"mu0s must have shape (B, {env.n_states}), got {mus.shape}")
    values = np.zeros(mus.shape[0])
    discount = 1.0
    for mus, _, probs, tables, _ in _recursion(env, policy, normalized_rows(mus), horizon):
        values += discount * _mean_rewards(tables, probs, mus)
        discount *= env.gamma
    return values


def mf_value(
    env: EnvModel, policy, mu0, tol: float, horizon: int | None = None
) -> tuple[float, MFTrajectory]:
    """Discounted mean-field value of a stationary policy from mu0 (a
    `Simplex`, or a vector that passes its checks), truncated so the tail is
    below tol; returns the value and the trajectory."""
    t_star = truncation_horizon(env, tol) if horizon is None else horizon
    path = _MeanFieldPath(env, policy, mu0)
    return path.value(t_star), path.trajectory(t_star)


class _MeanFieldPath:
    """Deterministic mean-field trajectory of a fixed policy from mu0, grown
    lazily from the stacked recursion with a single row (B = 1). Each step
    keeps mu_t, the action law row nu_t, the cumulative action and kernel
    rows the NPG occupancy chain draws from, the reward table, and the mean
    reward. `mf_value` reads its value and trajectory; NPG shares one path
    between every occupancy sample of an inner-regression pass and the
    iterate's logged value. A `Simplex` mu0 is kept as it is; anything else
    is checked by `Simplex` (a ValueError naming mu0)."""

    def __init__(self, env: EnvModel, policy, mu0):
        if not isinstance(mu0, Simplex):
            try:
                mu0 = Simplex(mu0)
            except ValueError as err:
                raise ValueError(f"mu0 must be a probability vector: {err}") from None
        if len(mu0) != env.n_states:
            raise ValueError(f"mu0 has {len(mu0)} entries, expected {env.n_states}")
        self.gamma = env.gamma
        self.mus, self._nus = [], []
        self._probs_cum, self._kernels_cum, self._rewards, self._mean_rewards = [], [], [], []
        self._mu0 = mu0
        self._steps = _recursion(env, policy, mu0.weights[None, :])
        self.ensure(0)

    def ensure(self, t: int) -> None:
        while len(self.mus) <= t:
            mus, nus, probs, rewards, kernels = next(self._steps)
            self.mus.append(Simplex(mus[0]) if self.mus else self._mu0)
            self._nus.append(nus[0])
            self._probs_cum.append(np.cumsum(probs[0], axis=1))
            self._kernels_cum.append(np.cumsum(kernels[0], axis=2))
            self._rewards.append(np.asarray(rewards[0], dtype=np.float64))
            self._mean_rewards.append(_mean_rewards(rewards, probs, mus)[0])

    def kernel_cum(self, t: int) -> np.ndarray:
        self.ensure(t)
        return self._kernels_cum[t]

    def probs_cum(self, t: int) -> np.ndarray:
        self.ensure(t)
        return self._probs_cum[t]

    def reward(self, t: int, x: int, u: int) -> float:
        self.ensure(t)
        return float(self._rewards[t][x, u])

    def value(self, horizon: int) -> float:
        """Discounted sum of the mean rewards at t = 0..horizon."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.ensure(horizon)
        value = 0.0
        discount = 1.0
        for r_t in self._mean_rewards[: horizon + 1]:
            value += discount * r_t
            discount *= self.gamma
        return float(value)

    def trajectory(self, horizon: int) -> MFTrajectory:
        """The laws and mean rewards at t = 0..horizon."""
        self.ensure(horizon)
        return MFTrajectory(
            mus=self.mus[: horizon + 1],
            nus=[Simplex(nu) for nu in self._nus[: horizon + 1]],
            rewards=np.array(self._mean_rewards[: horizon + 1]),
        )


def _recursion(env: EnvModel, policy, mus: np.ndarray, horizon: int | None = None):
    """Yield (mus, nus, probs, reward tables, kernels) at t = 0..horizon, or
    without end when horizon is None, of the stacked mean-field recursion
    started from the (already checked) rows `mus`. Step t's kernels are the
    ones that advance it to step t + 1."""
    if horizon is not None and horizon < 0:
        raise ValueError("horizon must be >= 0")
    for t in itertools.count():
        probs, nus = _step(policy, mus)
        kernels = env.kernel(mus, nus)
        yield mus, nus, probs, env.reward_matrix(mus, nus), kernels
        if t == horizon:
            return
        mus = _next_laws(kernels, probs, mus)


def _step(policy, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state action distributions (B, |X|, |U|), evaluated as B * |X|
    `probs_batch` rows, and the checked action laws nu (B, |U|)."""
    b, n_x = mus.shape
    probs = policy.probs_batch(np.arange(b * n_x) % n_x, np.repeat(mus, n_x, axis=0))
    probs = probs.reshape(b, n_x, -1)
    return probs, normalized_rows((mus[:, None, :] @ probs)[:, 0])


def _next_laws(kernels: np.ndarray, probs: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Checked next state laws (B, |X|): kernel rows averaged with weights
    pi(u | x, mu) * mu(x)."""
    b, n_x = mus.shape
    joint = (probs * mus[:, :, None]).reshape(b, 1, -1)
    return normalized_rows((joint @ kernels.reshape(b, -1, n_x))[:, 0])


def _mean_rewards(rewards: np.ndarray, probs: np.ndarray, mus: np.ndarray) -> np.ndarray:
    return np.einsum("bxu,bxu,bx->b", rewards, probs, mus)


@dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the finite-population approximation bound."""

    lipschitz_p: float
    lipschitz_pi: float
    lipschitz_r: float
    reward_bound: float
    table_bound: float
    action_weight_l1: float
    gamma: float
    n_agents: int
    n_states: int
    n_actions: int

    def __post_init__(self):
        for name in (
            "lipschitz_p",
            "lipschitz_pi",
            "lipschitz_r",
            "reward_bound",
            "table_bound",
            "action_weight_l1",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.n_agents < 1 or self.n_states < 1 or self.n_actions < 1:
            raise ValueError("population, state, and action sizes must be >= 1")

    @property
    def s_p(self) -> float:
        return (1.0 + self.lipschitz_pi) + self.lipschitz_p * (2.0 + self.lipschitz_pi)

    @property
    def s_r(self) -> float:
        return self.reward_bound * (1.0 + self.lipschitz_pi) + self.lipschitz_r * (
            2.0 + self.lipschitz_pi
        )

    @property
    def c_p(self) -> float:
        return 2.0 + self.lipschitz_p

    @property
    def c_r(self) -> float:
        return self.action_weight_l1 + self.table_bound


def bound_inputs(env: EnvModel, lipschitz_pi: float, n_agents: int) -> BoundInputs:
    """Assemble bound constants from an affine environment and a policy
    Lipschitz estimate."""
    if env.affine is None:
        raise AffineRewardRequiredError(
            "the approximation bound requires a reward affine in (mu, nu)"
        )
    if env.lipschitz_p is None:
        raise ValueError("environment declares no transition Lipschitz constant")
    consts = reward_constants(env.affine)
    return BoundInputs(
        lipschitz_p=env.lipschitz_p,
        lipschitz_pi=lipschitz_pi,
        lipschitz_r=consts.l_r,
        reward_bound=consts.m_r,
        table_bound=consts.m_f,
        action_weight_l1=float(np.abs(env.affine.b).sum()),
        gamma=env.gamma,
        n_agents=n_agents,
        n_states=env.n_states,
        n_actions=env.n_actions,
    )


def approximation_bound(inp: BoundInputs) -> float:
    """Upper bound on |v_MARL - v_MF| for a doubly stochastic interaction
    matrix and an affine reward.

    Valid only in the contraction regime gamma * S_P < 1, where
    S_P = (1 + L_pi) + L_P (2 + L_pi). The second summand's closed form is
    singular at S_P = 1 and is replaced by its limit there.
    """
    s_p, s_r, c_p, c_r = inp.s_p, inp.s_r, inp.c_p, inp.c_r
    gamma = inp.gamma
    if gamma * s_p >= 1.0:
        raise BoundInapplicableError(
            f"bound inapplicable: gamma * S_P = {gamma * s_p:.6g} >= 1"
        )
    sqrt_n = math.sqrt(inp.n_agents)
    term1 = c_r * math.sqrt(inp.n_actions) / sqrt_n / (1.0 - gamma)
    size = math.sqrt(inp.n_states) + math.sqrt(inp.n_actions)
    if abs(s_p - 1.0) < _SP_LIMIT_TOL:
        term2 = (size / sqrt_n) * s_r * c_p * gamma / (1.0 - gamma) ** 2
    else:
        term2 = (
            (size / sqrt_n)
            * (s_r * c_p / (s_p - 1.0))
            * (1.0 / (1.0 - gamma * s_p) - 1.0 / (1.0 - gamma))
        )
    return term1 + term2
