"""Stochastic simulation of the finite N-agent system.

Each step: every agent draws an action from the shared policy evaluated at
its own weighted state view, rewards are paid from the realized state/action
views, and every agent transitions independently given its view. The
discounted population-average return estimates the finite-population value
of the policy.

Independent episodes of one population size can advance in one step loop as
the blocks of a block-diagonal W; each block keeps its own random stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .interaction import InteractionMatrix, _block_diagonal
from .model import EnvModel
from .simplex import Simplex, _check_indices

# Most agents stacked in one step loop. A step has a fixed cost of about
# 0.1 ms; from about 2000 agents on it is paid off (firm model, q = 10,
# hidden = 32: 0.5-0.8 us per agent-step from 2000 to 8000 agents, rising
# above that), and the step's arrays stay small.
_GROUP_AGENTS = 4096


@dataclass(frozen=True)
class RolloutRecord:
    """One episode: per-step per-agent states, actions, rewards, and the
    discounted population-average return. The per-step empirical
    distributions `mus` and `nus` are derived from them on first access."""

    states: np.ndarray  # (T+1, N)
    actions: np.ndarray  # (T+1, N)
    rewards: np.ndarray  # (T+1, N)
    n_states: int
    n_actions: int
    gamma: float
    discounted_return: float

    @functools.cached_property
    def mus(self) -> list:
        """Empirical state distribution per step, as `Simplex` values."""
        return _empirical_per_step(self.states, self.n_states)

    @functools.cached_property
    def nus(self) -> list:
        """Empirical action distribution per step, as `Simplex` values."""
        return _empirical_per_step(self.actions, self.n_actions)


def _empirical_per_step(items: np.ndarray, set_size: int) -> list:
    steps, n = items.shape
    flat = (np.arange(steps)[:, None] * set_size + items).ravel()
    counts = np.bincount(flat, minlength=steps * set_size).reshape(steps, set_size)
    return [Simplex(row) for row in counts / n]


def step(
    env: EnvModel, w: InteractionMatrix, policy, states: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the population one step; returns the actions taken, the
    per-agent rewards and the next states.

    `u` holds the step's uniforms, (2, N): row 0 draws the actions through
    `policy.sample_actions`, row 1 the transitions through
    `env.transition_sample_batch`, one uniform per agent each."""
    n = w.n_agents
    states = _check_indices("states", states, n, env.n_states)
    if np.shape(u) != (2, n):
        raise ValueError(f"u must have shape (2, {n}), got {np.shape(u)}")
    mu_views = w.views(states, env.n_states)
    actions = policy.sample_actions(states, mu_views, u[0])
    nu_views = w.views(actions, env.n_actions)
    rewards = np.asarray(env.reward_batch(states, actions, mu_views, nu_views), dtype=np.float64)
    next_states = np.asarray(
        env.transition_sample_batch(states, actions, mu_views, nu_views, u[1]), dtype=np.int64
    )
    return actions, rewards, next_states


def _simulate(env: EnvModel, policy, blocks: list, horizon: int, record: bool = False):
    """Simulate steps t = 0..horizon of every block (w, initial_states, rng)
    in `blocks`, which must share one N, in one step loop on the
    block-diagonal W: each step is one `step` call over all agents, whose
    uniforms are `rng.random((2, N))` of each block in turn, so every block
    draws exactly as a rollout of it alone would. Returns each block's
    discounted population-average return and, with `record`, the (T+1, B*N)
    states, actions and rewards (else None)."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    ws, inits, rngs = zip(*blocks)
    n = ws[0].n_agents
    inits = [_check_indices("initial_states", states, n, env.n_states) for states in inits]
    states = np.concatenate(inits, dtype=np.int64)
    w = ws[0] if len(ws) == 1 else _block_diagonal(ws)
    shape = (horizon + 1, states.size)
    history = None
    if record:
        history = (np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.int64), np.empty(shape))
    returns = np.zeros(len(blocks))
    discount = 1.0
    for t in range(horizon + 1):
        u = np.concatenate([g.random((2, n)) for g in rngs], axis=1)
        actions, step_rewards, next_states = step(env, w, policy, states, u)
        if record:
            history[0][t], history[1][t], history[2][t] = states, actions, step_rewards
        states = next_states
        returns += discount * step_rewards.reshape(len(blocks), -1).mean(axis=1)
        discount *= env.gamma
    return returns, history


def _group_size(n_agents: int) -> int:
    """Blocks of `n_agents` agents, with W stored as its nonzeros, that
    advance in one step loop: as many as `_GROUP_AGENTS` holds, at least one."""
    return max(1, _GROUP_AGENTS // n_agents)


def _block_returns(env: EnvModel, policy, blocks: list, horizon: int) -> np.ndarray:
    """The discounted return of each block (w, initial_states, rng), in
    order; the blocks share one N and one storage form of W. With W stored
    as its nonzeros, `_group_size(N)` consecutive blocks advance in one step
    loop; a dense-W block runs alone, as its step is an N^2 product that
    stacking would only serialise."""
    if len({(w.n_agents, w.nonzeros is None) for w, _, _ in blocks}) > 1:
        raise ValueError("the blocks must share one N and one storage form of W")
    w = blocks[0][0]
    size = 1 if w.nonzeros is None else _group_size(w.n_agents)
    groups = [blocks[i : i + size] for i in range(0, len(blocks), size)]
    return np.concatenate([_simulate(env, policy, group, horizon)[0] for group in groups])


def _mean_stderr(returns: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean and standard error of episode returns."""
    mean = float(returns.mean())
    stderr = float(returns.std(ddof=1) / np.sqrt(returns.size)) if returns.size > 1 else 0.0
    return mean, stderr


def rollout(
    env: EnvModel,
    w: InteractionMatrix,
    policy,
    initial_states,
    horizon: int,
    rng: np.random.Generator,
) -> RolloutRecord:
    """Simulate steps t = 0..horizon and accumulate the discounted
    population-average return."""
    block = (w, initial_states, rng)
    returns, (states, actions, rewards) = _simulate(env, policy, [block], horizon, record=True)
    return RolloutRecord(
        states=states,
        actions=actions,
        rewards=rewards,
        n_states=env.n_states,
        n_actions=env.n_actions,
        gamma=env.gamma,
        discounted_return=float(returns[0]),
    )


def estimate_v_marl(
    env: EnvModel,
    w: InteractionMatrix,
    policy,
    initial_states,
    horizon: int,
    episodes: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the rollout return over
    independent episodes from the same initial states. Each episode draws
    from its own substream, so episodes are order-independent; with W stored
    as its nonzeros they advance in groups of `_group_size(N)`."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    blocks = [(w, initial_states, stream) for stream in rng.spawn(episodes)]
    return _mean_stderr(_block_returns(env, policy, blocks, horizon))
