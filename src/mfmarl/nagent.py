"""Stochastic simulation of the finite N-agent system.

Each step: every agent draws an action from the shared policy evaluated at
its own weighted state view, rewards are paid from the realized state/action
views, and every agent transitions independently given its view. The
discounted population-average return estimates the finite-population value
of the policy.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .interaction import InteractionMatrix
from .model import EnvModel
from .simplex import Simplex


@dataclass(frozen=True)
class AgentSystemState:
    """Joint configuration: per-agent states, plus the most recently decided
    per-agent actions (None before the first decision phase)."""

    states: np.ndarray
    actions: Optional[np.ndarray] = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        object.__setattr__(self, "states", states)
        if self.actions is not None:
            object.__setattr__(self, "actions", np.asarray(self.actions, dtype=np.int64))

    @property
    def n_agents(self) -> int:
        return self.states.size


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

    def recompute_return(self) -> float:
        mean_r = self.rewards.mean(axis=1)
        return float(np.polynomial.polynomial.polyval(self.gamma, mean_r))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "agent", "x", "u", "reward"])
            horizon, n = self.rewards.shape
            for t in range(horizon):
                for i in range(n):
                    writer.writerow(
                        [t, i, self.states[t, i], self.actions[t, i], repr(float(self.rewards[t, i]))]
                    )


def _empirical_per_step(items: np.ndarray, set_size: int) -> list:
    steps, n = items.shape
    flat = (np.arange(steps)[:, None] * set_size + items).ravel()
    counts = np.bincount(flat, minlength=steps * set_size).reshape(steps, set_size)
    return [Simplex(row) for row in counts / n]


def step(
    env: EnvModel,
    w: InteractionMatrix,
    policy,
    sys: AgentSystemState,
    rng: np.random.Generator,
) -> tuple[AgentSystemState, np.ndarray]:
    """Advance the population one step; returns the post-transition system
    (with the actions just taken) and the per-agent rewards."""
    states = sys.states
    n = states.size
    if w.n_agents != n:
        raise ValueError(f"interaction matrix is {w.n_agents}x{w.n_agents} but there are {n} agents")
    if states.min() < 0 or states.max() >= env.n_states:
        raise ValueError("agent state index out of range")

    mu_views = w.views(states, env.n_states)
    actions = policy.sample_actions(states, mu_views, rng)
    nu_views = w.views(actions, env.n_actions)
    rewards = np.asarray(env.reward_batch(states, actions, mu_views, nu_views), dtype=np.float64)
    next_states = np.asarray(
        env.transition_sample_batch(states, actions, mu_views, nu_views, rng), dtype=np.int64
    )
    return AgentSystemState(states=next_states, actions=actions), rewards


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
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    sys = AgentSystemState(states=initial_states)
    n = sys.n_agents
    states = np.empty((horizon + 1, n), dtype=np.int64)
    actions = np.empty((horizon + 1, n), dtype=np.int64)
    rewards = np.empty((horizon + 1, n))
    value = 0.0
    discount = 1.0
    for t in range(horizon + 1):
        states[t] = sys.states
        sys, step_rewards = step(env, w, policy, sys, rng)
        actions[t] = sys.actions
        rewards[t] = step_rewards
        value += discount * step_rewards.mean()
        discount *= env.gamma
    return RolloutRecord(
        states=states,
        actions=actions,
        rewards=rewards,
        n_states=env.n_states,
        n_actions=env.n_actions,
        gamma=env.gamma,
        discounted_return=value,
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
    from its own substream, so episodes are order-independent."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    streams = rng.spawn(episodes)
    returns = np.array(
        [
            rollout(env, w, policy, initial_states, horizon, streams[e]).discounted_return
            for e in range(episodes)
        ]
    )
    mean = float(returns.mean())
    stderr = float(returns.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return mean, stderr
