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

import types
from dataclasses import dataclass

import numpy as np

from .interaction import InteractionMatrix, _block_diagonal
from .model import EnvModel, _hook_output
from .simplex import _check_count, _check_indices, _check_size

# Most agents stacked in one step loop. A step has a fixed cost of about
# 0.1 ms; from about 2000 agents on it is paid off (firm model, q = 10,
# hidden = 32, ring-5, one BLAS thread: 0.3-0.45 us per agent-step from 1000
# to 16000 agents, 0.6-0.8 us at 32000, with glibc's default allocator), and
# the step's arrays stay small.
_GROUP_AGENTS = 4096

# Steps whose uniforms each block draws in one call. A generator fills an
# array in order, so the draws are those of one call per step; at
# `_GROUP_AGENTS` agents a chunk takes 1 MiB.
_DRAW_STEPS = 16


@dataclass(frozen=True)
class RolloutRecord:
    """One episode: per-step per-agent states, actions, rewards, and the
    discounted population-average return."""

    states: np.ndarray  # (T+1, N)
    actions: np.ndarray  # (T+1, N)
    rewards: np.ndarray  # (T+1, N)
    gamma: float
    discounted_return: float


def step(
    env: EnvModel,
    w: InteractionMatrix,
    policy,
    states: np.ndarray,
    u: np.ndarray,
    *,
    kept=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the population one step; returns the actions taken, the
    per-agent rewards and the next states.

    `u` holds the step's uniforms, (2, N): row 0 draws the actions through
    `policy.sample_actions`, row 1 the transitions through
    `env.transition_sample_batch`, one uniform per agent each. The hooks get
    the action views only if `env.reads_nu_views`, and None otherwise. A
    ValueError names the hook if `reward_batch` returns other than (N,)
    rewards or `transition_sample_batch` other than N integer states in
    [0, |X|); the last step's next states are checked too.

    A step loop passes `kept`, one record for the whole loop (a
    `types.SimpleNamespace`, empty at first), and does not change the states
    it passes in place. The step gets its state views from `w._step_views`,
    given the record's `views` and `states`, those of the step before (none
    on the loop's first step, or without a record). It then leaves on the
    record, before `policy.sample_actions` reads it, the rows whose state or
    view differs bitwise from the step before as `changed` (none when no
    agent moved; None, meaning every row, on the first step), and its own
    states and views. The views are the loop's own array: a later step of
    the loop may update them in place. States the step before returned,
    which it also leaves on the record, are not checked again."""
    n = w.n_agents
    if kept is None or states is not getattr(kept, "next", None):
        states = _check_indices("states", states, n, env.n_states)
    if np.shape(u) != (2, n):
        raise ValueError(f"u must have shape (2, {n}), got {np.shape(u)}")
    last_views, last = getattr(kept, "views", None), getattr(kept, "states", None)
    mu_views, changed = w._step_views(last_views, last, states, env.n_states)
    if kept is not None:
        kept.changed, kept.states, kept.views = changed, states, mu_views
    actions = policy.sample_actions(states, mu_views, u[0], kept)
    nu_views = w.views(actions, env.n_actions) if env.reads_nu_views else None
    rewards = _hook_output("reward_batch", env.reward_batch(states, actions, mu_views, nu_views), (n,))
    next_states = env.transition_sample_batch(states, actions, mu_views, nu_views, u[1])
    next_states = _check_indices("transition_sample_batch's next states", next_states, n, env.n_states)
    next_states = next_states.astype(np.int64, copy=False)
    if kept is not None:
        kept.next = next_states
    return actions, rewards, next_states


def _simulate(env: EnvModel, policy, blocks: list, horizon: int, record: bool = False):
    """Simulate steps t = 0..horizon of every block (w, initial_states, rng)
    in `blocks`, which must share one N, in one step loop on the
    block-diagonal W: each step is one `step` call over all agents, whose
    uniforms are `rng.random((2, N))` of each block in turn (drawn
    `_DRAW_STEPS` steps at a time, never past the horizon), so every block
    draws exactly as a rollout of it alone would. Each step starts from the
    state views of the step before (see `step`). Returns each block's
    discounted population-average return (a ValueError if one is not
    finite) and, with `record`, the (T+1, B*N) states, actions and rewards
    (else None).

    What the loop keeps between steps, the policy's rows included, lives on
    one record of its own, so its results do not depend on what ran before
    it on the thread or on the policy."""
    _check_count("horizon", horizon)
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
    # The initial states are checked above; `step` trusts `kept.next`.
    kept = types.SimpleNamespace(next=states)
    for t in range(horizon + 1):
        if t % _DRAW_STEPS == 0:
            steps = min(_DRAW_STEPS, horizon + 1 - t)
            chunks = [g.random((steps, 2, n)) for g in rngs]
            draws = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=2)
        u = draws[t % _DRAW_STEPS]
        actions, step_rewards, next_states = step(env, w, policy, states, u, kept=kept)
        if record:
            history[0][t], history[1][t], history[2][t] = states, actions, step_rewards
        states = next_states
        returns += discount * step_rewards.reshape(len(blocks), -1).mean(axis=1)
        discount *= env.gamma
    if not np.isfinite(returns).all():
        raise ValueError("reward_batch returned a non-finite reward")
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
    _check_size("episodes", episodes)
    blocks = [(w, initial_states, stream) for stream in rng.spawn(episodes)]
    return _mean_stderr(_block_returns(env, policy, blocks, horizon))
