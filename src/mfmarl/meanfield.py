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

import csv
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

    def to_csv(self, path) -> None:
        n_x = len(self.mus[0])
        n_u = len(self.nus[0])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["t"]
                + [f"mu_{k}" for k in range(n_x)]
                + [f"nu_{k}" for k in range(n_u)]
                + ["r_mf"]
            )
            for t in range(len(self.mus)):
                writer.writerow(
                    [t]
                    + [repr(float(v)) for v in self.mus[t].weights]
                    + [repr(float(v)) for v in self.nus[t].weights]
                    + [repr(float(self.rewards[t]))]
                )


def mf_action_distribution(env: EnvModel, policy, mu: Simplex) -> Simplex:
    """Population action distribution: the mu-weighted mixture of the
    per-state action distributions."""
    _, nus = _step(policy, mu.weights[None, :])
    return Simplex(nus[0])


def mf_transition(env: EnvModel, policy, mu: Simplex) -> Simplex:
    """Next state distribution: transition rows averaged over (x, u) with
    weights pi(u | x, mu) * mu(x)."""
    mus = mu.weights[None, :]
    probs, nus = _step(policy, mus)
    return Simplex(_next_laws(_kernels(env, mus, nus), probs, mus)[0])


def mf_reward(env: EnvModel, policy, mu: Simplex) -> float:
    """Population-average reward under mu and the policy."""
    mus = mu.weights[None, :]
    probs, nus = _step(policy, mus)
    return float(_mean_rewards(_reward_matrices(env, mus, nus), probs, mus)[0])


def truncation_horizon(env: EnvModel, tol: float) -> int:
    """Smallest T with discounted tail sum below tol, using the declared
    reward bound: gamma^(T+1) * M_R / (1 - gamma) <= tol."""
    if tol <= 0:
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
    env: EnvModel, policy, mu0: Simplex, tol: float, horizon: int | None = None
) -> tuple[float, MFTrajectory]:
    """Discounted mean-field value of a stationary policy from mu0, truncated
    so the tail is below tol; returns the value and the trajectory."""
    t_star = truncation_horizon(env, tol) if horizon is None else horizon
    mus, nus, rewards = [], [], []
    value = 0.0
    discount = 1.0
    for mu_t, nu_t, probs, tables, _ in _recursion(env, policy, mu0.weights[None, :], t_star):
        r_t = _mean_rewards(tables, probs, mu_t)[0]
        mus.append(Simplex(mu_t[0]) if mus else mu0)
        nus.append(Simplex(nu_t[0]))
        rewards.append(r_t)
        value += discount * r_t
        discount *= env.gamma
    return float(value), MFTrajectory(mus=mus, nus=nus, rewards=np.array(rewards))


def _recursion(env: EnvModel, policy, mus: np.ndarray, horizon: int | None = None):
    """Yield (mus, nus, probs, reward tables, kernels) at t = 0..horizon, or
    without end when horizon is None, of the stacked mean-field recursion
    started from the (already checked) rows `mus`. Step t's kernels are the
    ones that advance it to step t + 1."""
    if horizon is not None and horizon < 0:
        raise ValueError("horizon must be >= 0")
    for t in itertools.count():
        probs, nus = _step(policy, mus)
        kernels = _kernels(env, mus, nus)
        yield mus, nus, probs, _reward_matrices(env, mus, nus), kernels
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


def _kernels(env: EnvModel, mus: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """Transition kernels (B, |X|, |U|, |X|) at each stacked (mu, nu)."""
    if env.kernel is not None:
        return env.kernel(mus, nus)
    def row(x, u, mu, nu):
        return env.transition(x, u, mu, nu).weights

    return _per_row(env, mus, nus, row, (env.n_states,))


def _reward_matrices(env: EnvModel, mus: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """Reward tables (B, |X|, |U|) at each stacked (mu, nu)."""
    if env.reward_matrix is not None:
        return env.reward_matrix(mus, nus)
    return _per_row(env, mus, nus, env.reward, ())


def _per_row(env: EnvModel, mus, nus, fn, entry_shape: tuple) -> np.ndarray:
    """Hook fallback: the scalar contract `fn(x, u, mu, nu)` at every (x, u)
    of every stacked row."""
    out = np.empty((mus.shape[0], env.n_states, env.n_actions) + entry_shape)
    for b in range(mus.shape[0]):
        mu, nu = Simplex(mus[b]), Simplex(nus[b])
        for x in range(env.n_states):
            for u in range(env.n_actions):
                out[b, x, u] = fn(x, u, mu, nu)
    return out


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
            if getattr(self, name) < 0:
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
