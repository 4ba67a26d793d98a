"""Deterministic mean-field dynamical system and the approximation-error
bound calculator.

With an infinite homogeneous population, the population action distribution,
the next state distribution, and the average reward are all deterministic
functions of the current state distribution and the policy; iterating them
gives the mean-field value of a stationary policy. `_recursion` is the one
loop that iterates them, over a stack of laws: `mf_values` runs it from many
initial laws, `mf_value` and `mf_path` from one. The rewards are read off the
laws the recursion yields, not inside it: by one `reward_matrix` call over
the whole stacked recursion, in `_values`, which sums the values, and in
`mf_path`. So `_values` keeps every step's laws until that call, O(B * T *
(|X| + |U| + |X| |U|)) memory for B laws over T steps (it drops the
kernels step by step). One law handed in is a `Simplex` or a vector checked
like one; every stack of laws is a float array, one law per row. The bound
calculator turns the model's Lipschitz/bound constants into an upper bound
on the gap between the finite-population value and the mean-field value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AffineRewardRequiredError, EnvModel, _hook_output, reward_constants
from .simplex import Simplex, _check_count, _check_size, normalized_rows

_SP_LIMIT_TOL = 1e-9


class BoundInapplicableError(ValueError):
    """Raised when gamma * S_P >= 1, outside the bound's contraction regime."""


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
    return _values(env, policy, normalized_rows(mus), horizon)


def _values(env: EnvModel, policy, mus: np.ndarray, horizon: int) -> np.ndarray:
    """Discounted values, t = 0..horizon, of the stacked recursion from the
    (already checked) rows `mus`. Where the policy's action laws for a row do
    not depend on the rows stacked with it, neither does its value: it then
    equals `mf_value`'s from that row alone, bit for bit."""
    b = mus.shape[0]
    # The per-step laws are dropped once stacked, before the reward tables.
    steps = zip(*(step[:3] for step in _recursion(env, policy, mus, horizon)))
    mus, nus, probs = (np.concatenate(laws) for laws in steps)
    del steps
    rewards = _mean_rewards(_reward_tables(env, mus, nus), probs, mus).reshape(horizon + 1, b)
    values = np.zeros(b)
    discount = 1.0
    for step_rewards in rewards:
        values += discount * step_rewards
        discount *= env.gamma
    return values


def mf_value(env: EnvModel, policy, mu0, horizon: int) -> float:
    """Discounted mean-field value, t = 0..horizon, of a stationary policy
    from mu0 (a `Simplex`, or a vector that passes its checks): the one row
    of `_values` from mu0. A caller picks the horizon by
    `truncation_horizon`, as for `mf_values`, and reads the laws off
    `mf_path`."""
    return float(_values(env, policy, _checked_mu0(env, mu0).weights[None, :], horizon)[0])


def mf_path(env: EnvModel, policy, mu0, horizon: int) -> tuple[np.ndarray, ...]:
    """The deterministic mean-field path of a fixed policy from mu0 (a
    `Simplex`, or a vector that passes its checks), t = 0..horizon: the
    recursion's steps from the single row mu0, stacked on a leading time
    axis. Returns the state laws (T+1, |X|), the action laws (T+1, |U|), the
    per-state action laws (T+1, |X|, |U|), the reward tables (T+1, |X|, |U|)
    and the kernels (T+1, |X|, |U|, |X|), step t's kernel advancing it to
    t + 1. A longer path starts with a shorter one bit for bit.

    The reward tables come from one `env.reward_matrix` call over the whole
    stacked path, after the recursion: a hook's row does not depend on the
    rows stacked with it (the `EnvModel` contract), so they equal the tables
    of one call per step."""
    mu0 = _checked_mu0(env, mu0)
    steps = zip(*_recursion(env, policy, mu0.weights[None, :], horizon))
    mus, nus, probs, kernels = (np.concatenate(step, dtype=np.float64) for step in steps)
    return mus, nus, probs, _reward_tables(env, mus, nus), kernels


def _reward_tables(env: EnvModel, mus: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """The `reward_matrix` tables (B, |X|, |U|) at the stacked laws, checked
    to have that shape and finite entries."""
    shape = (len(mus), env.n_states, env.n_actions)
    return _hook_output("reward_matrix", env.reward_matrix(mus, nus), shape, finite=True)


def _checked_mu0(env: EnvModel, mu0) -> Simplex:
    """mu0 as a `Simplex` over the env's states: a `Simplex` is kept as it
    is, not renormalized again; anything else is checked by `Simplex` (a
    ValueError naming mu0)."""
    if not isinstance(mu0, Simplex):
        try:
            mu0 = Simplex(mu0)
        except ValueError as err:
            raise ValueError(f"mu0 must be a probability vector: {err}") from None
    if len(mu0) != env.n_states:
        raise ValueError(f"mu0 has {len(mu0)} entries, expected {env.n_states}")
    return mu0


def _recursion(env: EnvModel, policy, mus: np.ndarray, horizon: int):
    """Yield (mus, nus, probs, kernels) at t = 0..horizon of the stacked
    mean-field recursion started from the (already checked) rows `mus`
    (B, |X|). Step t's kernels are the ones that advance it to step t + 1.
    `horizon` must be an integer >= 0 (`_check_count`).

    A step runs the policy once per law (`policy.action_laws`), calls the
    env's `kernel` hook once, and forms the action laws nu and the next
    state laws from the joint mass pi(u | x, mu) mu(x) by per-row
    reductions, each law checked like a `Simplex`; a `kernel` result of
    another shape than (B, |X|, |U|, |X|) is a ValueError. The rewards are
    no part of the dynamics: a caller reads them off `env.reward_matrix` at
    the yielded laws (`_reward_tables`). A policy whose action laws are not
    (|X|, |U|) per law of the env fails at step 0 with a ValueError that
    names both shapes."""
    _check_count("horizon", horizon)
    b, n_x = mus.shape
    for t in range(horizon + 1):
        probs = policy.action_laws(mus)
        if t == 0 and probs.shape[1:] != (n_x, env.n_actions):
            raise ValueError(
                f"the policy's action laws have shape {probs.shape[1:]} per law, "
                f"but the env has (|X|, |U|) = ({n_x}, {env.n_actions})"
            )
        joint = np.multiply(probs, mus[:, :, None], order="C")
        nus = normalized_rows(joint.sum(axis=1))
        kernels = _hook_output("kernel", env.kernel(mus, nus), (b, n_x, env.n_actions, n_x))
        yield mus, nus, probs, kernels
        if t < horizon:
            mus = normalized_rows((joint.reshape(b, 1, -1) @ kernels.reshape(b, -1, n_x))[:, 0])


def _mean_rewards(rewards: np.ndarray, probs: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Mean reward (B,) of each row: reductions over trailing axes, so that a
    row's result does not depend on the rows stacked with it."""
    return ((rewards * probs).sum(axis=2) * mus).sum(axis=1)


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
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("state and action sizes must be >= 1")

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


def bound_inputs(env: EnvModel, lipschitz_pi: float) -> BoundInputs:
    """Assemble bound constants from an affine environment and a bound on
    the policy's Lipschitz constant in mu."""
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
        n_states=env.n_states,
        n_actions=env.n_actions,
    )


def approximation_bound(inp: BoundInputs, n_agents: int) -> float:
    """Upper bound on |v_MARL - v_MF| for `n_agents` agents under any doubly
    stochastic interaction matrix and an affine reward; `n_agents` must be
    an integer >= 1 (`_check_size`).

    Valid only in the contraction regime gamma * S_P < 1, where
    S_P = (1 + L_pi) + L_P (2 + L_pi). The second summand's closed form is
    singular at S_P = 1 and is replaced by its limit there.
    """
    _check_size("n_agents", n_agents)
    s_p, s_r, c_p, c_r = inp.s_p, inp.s_r, inp.c_p, inp.c_r
    gamma = inp.gamma
    if gamma * s_p >= 1.0:
        raise BoundInapplicableError(
            f"bound inapplicable: gamma * S_P = {gamma * s_p:.6g} >= 1"
        )
    sqrt_n = math.sqrt(n_agents)
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
