"""Independent reference computations and fixed test policies shared by the
test modules.

The references deliberately avoid the library's own composition paths:
mean-field maps are explicit double sums, views are read from the dense row
of W, values come from linear solves or exhaustive branch enumeration,
occupancies from truncated enumeration (along a mean-field path, the
forward recursion `path_occupancy`, and the backward recursion
`path_advantage` for the advantage), categorical draws from a
`searchsorted` lookup (`inverse_cdf`), and the policy network's
probabilities from an explicit one-hot feature matrix
(`onehot_network_probs`). The single-law maps
`mf_action_distribution`, `mf_transition` and `mf_reward` are the opposite:
one step of the library's own recursion, so that comparing them with the
references checks that recursion.

The scalar contract lives here too: `scalar_env` builds an environment's
batched hooks from a scalar `reward(x, u, mu, nu)` and `transition(x, u,
mu, nu)` with one call per agent or per (b, x, u), `firm_scalar` gives the
firm model's scalar reward and transition, `policy_probs` evaluates a
policy at one (x, mu), and `network_probs` runs a `SoftmaxPolicy`'s network
over (state, view) rows. `estimate_lipschitz_lq` samples a network's
Lipschitz constant in mu from below.

The simulator's reference step loop lives here too: `reference_episode`
recomputes every state view in full (`InteractionMatrix.views`) on every
step and lists the rows that changed by a bitwise diff against the step
before (`changed_rows`), the step the simulator took before it updated only
the views that moved.

Three builders only the tests use live here too: `point_mass`, a `Simplex`
with all its mass on one index, `ring_symmetric`, a symmetric circulant W
built from its nonzeros, and `irregular_matrix`, a W built from nonzeros
whose rows differ in length.

So do the dense W's row-major forms from before it was kept column-major:
`sinkhorn_row_major`, the Sinkhorn build with its scaling over the
row-major array, and `column_update`, the rank-m view update reading the
movers' columns of a row-major W.
"""

import itertools
import types

import numpy as np

from mfmarl import interaction
from mfmarl.interaction import InteractionMatrix
from mfmarl.meanfield import _mean_rewards, _recursion, mf_path
from mfmarl.model import AffineRewardSpec, EnvModel
from mfmarl.policy import _forward, _layers, log_policy_gradient
from mfmarl.simplex import Simplex, sample_rows


def inverse_cdf(weights, u):
    """Reference categorical draw: the index of each uniform `u` (a scalar
    or an array) in the cumulative sum of the pmf `weights`, whose last entry
    is set to exactly 1."""
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def point_mass(k: int, n: int) -> Simplex:
    """The law over {0, ..., n-1} with all its mass on index k."""
    if not 0 <= k < n:
        raise ValueError(f"index {k} out of range for set size {n}")
    w = np.zeros(n)
    w[k] = 1.0
    return Simplex(w)


def ring_symmetric(n: int, k: int) -> InteractionMatrix:
    """Symmetric circulant W with weight 1/k on offsets +-1..+-k/2 (k even,
    2 <= k < n), stored as its n * k nonzeros."""
    if k % 2 != 0:
        raise ValueError("symmetric window needs an even neighbor count")
    if not 2 <= k < n:
        raise ValueError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    half = np.arange(1, k // 2 + 1)
    rows = np.repeat(np.arange(n), k)
    cols = np.sort((np.arange(n)[:, None] + np.concatenate([half, -half])) % n, axis=1).ravel()
    return InteractionMatrix.from_nonzeros(n, rows, cols, np.full(rows.size, 1.0 / k))


def irregular_matrix(n: int, rng: np.random.Generator) -> InteractionMatrix:
    """A doubly stochastic W stored as its nonzeros whose rows hold
    different numbers of entries: weight 1/2 spread evenly within
    consecutive groups of 1, 2, ..., 7, 1, 2, ... agents, and 1/2 on a
    random permutation, given as two entries of 1/4 at each of its positions
    (repeated positions add up)."""
    rows, cols, data, start = [], [], [], 0
    while start < n:
        group = np.arange(start, min(n, start + 1 + len(rows) % 7))
        rows.append(np.repeat(group, group.size))
        cols.append(np.tile(group, group.size))
        data.append(np.full(group.size**2, 0.5 / group.size))
        start += group.size
    perm = rng.permutation(n)
    rows, cols, data = rows + [np.arange(n)] * 2, cols + [perm] * 2, data + [np.full(n, 0.25)] * 2
    return InteractionMatrix.from_nonzeros(n, np.concatenate(rows), np.concatenate(cols), np.concatenate(data))


def sinkhorn_row_major(n: int, rng: np.random.Generator) -> np.ndarray:
    """`interaction.sinkhorn_random`'s W as a row-major (n, n) array, scaled
    as it was before W was kept column-major: the same draw and rounds of
    the scaling vectors, then `w *= r[:, None]; w *= c` over the whole
    array. Reads the module's `SINKHORN_TOL` and `SINKHORN_MAX_ITERS`."""
    w = rng.uniform(0.1, 1.1, size=(n, n))
    kc = w @ np.ones(n)
    for _ in range(interaction.SINKHORN_MAX_ITERS):
        r = 1.0 / kc
        c = 1.0 / (r @ w)
        kc = w @ c
        if np.abs(r * kc - 1.0).max() < interaction.SINKHORN_TOL:
            w *= r[:, None]
            w *= c
            return w
    raise RuntimeError("sinkhorn normalization did not converge")


def column_update(w: np.ndarray, views, moved, old_items, items, set_size: int) -> np.ndarray:
    """The rank-m view update on the row-major array `w`: `views + w[:, moved]
    @ (E_new - E_old)`, 32 movers' columns at a time, clamped at 0."""
    delta = np.zeros((moved.size, set_size))
    delta[np.arange(moved.size), items[moved]] = 1.0
    delta[np.arange(moved.size), old_items[moved]] = -1.0
    out = views.copy()
    for start in range(0, moved.size, 32):
        out += w[:, moved[start : start + 32]] @ delta[start : start + 32]
    return np.maximum(out, 0.0, out=out)


def estimate_lipschitz_lq(cfg, phi, trials: int, rng: np.random.Generator) -> float:
    """Sampled lower bound on a network's Lipschitz constant in mu: running
    max of |pi(x, mu1) - pi(x, mu2)|_1 / |mu1 - mu2|_1.

    The probes are drawn as arrays, the states `x` from one substream
    spawned from `rng` and the (mu1, mu2) pairs from another, so the
    estimate for a larger trial count extends the same probes; the network
    then runs once over all probes of each side. It can only read below
    `SoftmaxPolicy.lipschitz_bound`, so a gate that reads it instead is the
    stricter check.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x_stream, mu_stream = rng.spawn(2)
    x = x_stream.integers(cfg.n_states, size=trials)
    mu1, mu2 = mu_stream.dirichlet(np.ones(cfg.n_states), size=(trials, 2)).transpose(1, 0, 2)
    d = np.abs(mu1 - mu2).sum(axis=1)
    keep = d > 1e-12
    layers = _layers(cfg, phi)
    pi1 = _forward(cfg, layers, x[keep], mu1[keep])[1]
    pi2 = _forward(cfg, layers, x[keep], mu2[keep])[1]
    ratios = np.abs(pi1 - pi2).sum(axis=1) / d[keep]
    return float(ratios.max(initial=0.0))


class TabularPolicy:
    """Fixed per-state action distributions, independent of the state
    distribution (so its Lipschitz constant in mu is exactly zero)."""

    def __init__(self, table):
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError("table must be |X| x |U|")
        if np.any(table < 0) or not np.allclose(table.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("table rows must be probability vectors")
        self.table = table
        self.n_states, self.n_actions = table.shape

    def action_laws(self, mus: np.ndarray) -> np.ndarray:
        return np.tile(self.table, (len(mus), 1, 1))

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, u: np.ndarray, kept=None) -> np.ndarray:
        return sample_rows(self.table[states], u)

    def lipschitz_bound(self) -> float:
        return 0.0


class FunctionPolicy:
    """Policy defined by an explicit map (x, mu) -> action probability vector,
    for fixed action rules; it has no parameters and hence no log-gradient."""

    def __init__(self, fn, n_states: int, n_actions: int):
        self._fn = fn
        self.n_states = n_states
        self.n_actions = n_actions

    def _rows(self, states, mu_rows) -> np.ndarray:
        """The map at each (state, view) row, one call per row."""
        probs = np.stack(
            [np.asarray(self._fn(int(x), Simplex(row)), dtype=np.float64) for x, row in zip(states, mu_rows)]
        )
        if probs.shape != (len(states), self.n_actions):
            raise ValueError(f"policy function returned rows of shape {probs.shape[1:]}")
        return probs

    def action_laws(self, mus: np.ndarray) -> np.ndarray:
        n = len(mus)
        states = np.tile(np.arange(self.n_states), n)
        return self._rows(states, np.repeat(mus, self.n_states, axis=0)).reshape(n, self.n_states, -1)

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, u: np.ndarray, kept=None) -> np.ndarray:
        return sample_rows(self._rows(states, mu_rows), u)


def policy_probs(policy, x: int, mu: Simplex) -> np.ndarray:
    """The policy's action probabilities at the single (x, mu): row x of its
    `action_laws` at the one law mu."""
    return policy.action_laws(mu.weights[None, :])[0, x]


def network_probs(policy, states, mu_rows) -> np.ndarray:
    """A `SoftmaxPolicy`'s action probabilities at each (state, view) row:
    the network pass over those rows, in a new array. The states must lie in
    range (the pass clips them)."""
    states = np.asarray(states)
    assert states.min(initial=0) >= 0 and states.max(initial=0) < policy.config.n_states
    layers = _layers(policy.config, policy.params)
    return _forward(policy.config, layers, states, np.asarray(mu_rows, dtype=np.float64))[1]


def _agent_args(states, actions, mu_views, nu_views):
    """Each agent's scalar-contract arguments (x, u, mu, nu), in agent order."""
    for i in range(len(states)):
        yield int(states[i]), int(actions[i]), Simplex(mu_views[i]), Simplex(nu_views[i])


def _scalar_rewards(reward):
    """`reward_batch` built from the scalar reward, one call per agent."""

    def reward_batch(states, actions, mu_views, nu_views):
        return np.array([reward(*args) for args in _agent_args(states, actions, mu_views, nu_views)])

    return reward_batch


def _scalar_sampler(transition):
    """`transition_sample_batch` built from the scalar transition: agent i's
    next state is the inverse-CDF lookup of `u[i]` in its transition law."""

    def transition_sample_batch(states, actions, mu_views, nu_views, u):
        args = _agent_args(states, actions, mu_views, nu_views)
        return np.array([inverse_cdf(transition(*a).weights, u_i) for a, u_i in zip(args, u)], dtype=np.int64)

    return transition_sample_batch


def _scalar_table(fn, n_states: int, n_actions: int, entry_shape: tuple):
    """A stacked hook built from the scalar `fn(x, u, mu, nu)`, called at
    every (x, u) of every row of `mus`, `nus`."""

    def table(mus, nus):
        out = np.empty((len(mus), n_states, n_actions) + entry_shape)
        for b in range(len(mus)):
            mu, nu = Simplex(mus[b]), Simplex(nus[b])
            for x in range(n_states):
                for u in range(n_actions):
                    out[b, x, u] = fn(x, u, mu, nu)
        return out

    return table


def scalar_env(n_states, n_actions, gamma, reward, transition, **kwargs):
    """An `EnvModel` whose hooks are built from the scalar `reward(x, u, mu,
    nu)` -> float and `transition(x, u, mu, nu)` -> `Simplex`, on 0-based
    indices and the laws an agent sees; a hook passed in `kwargs` is used as
    it is, and the other `kwargs` go to `EnvModel`. The built sampler looks
    agent i's uniform `u[i]` up in its transition law with `inverse_cdf`."""
    hooks = {
        "reward_batch": _scalar_rewards(reward),
        "transition_sample_batch": _scalar_sampler(transition),
        "kernel": _scalar_table(lambda *a: transition(*a).weights, n_states, n_actions, (n_states,)),
        "reward_matrix": _scalar_table(reward, n_states, n_actions, ()),
    }
    return EnvModel(n_states, n_actions, gamma, **{**hooks, **kwargs})


def expectation(p: Simplex, values) -> float:
    v = np.asarray(values, dtype=np.float64)
    if v.shape != p.weights.shape:
        raise ValueError(f"length mismatch: {len(p)} vs {v.size}")
    return float(p.weights @ v)


def firm_transition_distribution(cfg, x: int, u: int, mu_bar: float) -> Simplex:
    """Distribution of the next quality level given quality x in 1..q, the
    invest decision u, and the local mean quality mu_bar."""
    q = cfg.q
    if not 1 <= x <= q:
        raise ValueError(f"quality level {x} out of range 1..{q}")
    if u not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {u}")
    if not -1e-9 <= mu_bar <= q + 1e-9:
        raise ValueError(f"mean quality {mu_bar} out of range [0, {q}]")
    mu_bar = min(max(mu_bar, 0.0), float(q))
    out = np.zeros(q)
    if u == 0:
        out[x - 1] = 1.0
        return Simplex(out)
    c = (1.0 - mu_bar / q) * (q - x)
    # floor(chi * c) for chi ~ Uniform[0, 1] has P(m) = min((m + 1)/c, 1) -
    # min(m/c, 1), m = 0..q - x; for c <= 1 it is 0 almost surely.
    cdf = np.minimum(np.arange(q - x + 2) / max(c, 1.0), 1.0)
    out[x - 1 : q] = cdf[1:] - cdf[:-1]
    return Simplex(out)


def firm_reward(cfg, x: int, u: int, mu_view: Simplex) -> float:
    """alpha_r * x - beta_r * (mean viewed quality)^sigma - lambda_r * u."""
    if not 1 <= x <= cfg.q:
        raise ValueError(f"quality level {x} out of range 1..{cfg.q}")
    if u not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {u}")
    mu_bar = expectation(mu_view, np.arange(1, cfg.q + 1))
    return cfg.alpha_r * x - cfg.beta_r * mu_bar**cfg.sigma - cfg.lambda_r * u


def firm_scalar(cfg):
    """The firm model's scalar (reward, transition) on 0-based states, the
    references for the batched hooks of `build_firm_env(cfg, gamma)`."""
    labels = np.arange(1, cfg.q + 1, dtype=np.float64)

    def reward(x, u, mu, nu):
        return firm_reward(cfg, x + 1, u, mu)

    def transition(x, u, mu, nu):
        return firm_transition_distribution(cfg, x + 1, u, expectation(mu, labels))

    return reward, transition


def empirical_distribution(samples, set_size: int) -> Simplex:
    """Fraction of occurrences of each index among `samples`."""
    if set_size < 1:
        raise ValueError("set size must be >= 1")
    idx = np.asarray(samples, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("samples must be nonempty")
    if idx.min() < 0 or idx.max() >= set_size:
        raise ValueError(f"sample index out of range [0, {set_size})")
    counts = np.bincount(idx, minlength=set_size)
    return Simplex(counts / idx.size)


def l1_distance(p: Simplex, q: Simplex) -> float:
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return float(np.abs(p.weights - q.weights).sum())


def affine_reward_eval(spec: AffineRewardSpec, x: int, u: int, mu: Simplex, nu: Simplex) -> float:
    """r(x, u, mu, nu) = a . mu + b . nu + f[x, u] from the decomposition."""
    if len(mu) != spec.a.size or len(nu) != spec.b.size:
        raise ValueError("distribution lengths do not match the affine coefficients")
    if not (0 <= x < spec.f.shape[0] and 0 <= u < spec.f.shape[1]):
        raise ValueError(f"state/action index ({x}, {u}) out of range")
    return float(spec.a @ mu.weights + spec.b @ nu.weights + spec.f[x, u])


def weighted_view(w, agent, items, set_size):
    """Agent's weighted distribution over the items held by the population,
    summed in column order from the dense row W(agent, .): entry k is the
    total weight of the agents j holding item k."""
    if not 0 <= agent < w.n_agents:
        raise ValueError(f"agent {agent} out of range [0, {w.n_agents})")
    idx = np.asarray(items, dtype=np.int64)
    if idx.size != w.n_agents:
        raise ValueError(f"need one item per agent: {idx.size} vs {w.n_agents}")
    if idx.min() < 0 or idx.max() >= set_size:
        raise ValueError(f"item index out of range [0, {set_size})")
    return Simplex(np.bincount(idx, weights=w.weights[agent], minlength=set_size))


def changed_rows(last_states, last_views, states, views):
    """The sorted rows whose state or view (compared bit by bit) differs
    from the step before, or None (every row) when there is no step before
    of the same size."""
    if last_states is None or last_states.size != states.size:
        return None
    differ = np.asarray(views).view(np.int64) != np.asarray(last_views).view(np.int64)
    return np.flatnonzero(differ.any(axis=1) | (states != last_states))


def reference_episode(env, w, policy, initial_states, horizon, rng):
    """Steps t = 0..horizon of one block as `nagent.rollout` takes them
    (uniforms `rng.random((2, N))` per step, one record for the loop), with
    each step's state views the full `w.views` and its changed rows listed
    by `changed_rows`. Returns the (T+1, N) states, actions and rewards, the
    discounted return summed as the simulator sums it, and each step's
    listed rows."""
    kept, states = types.SimpleNamespace(), np.asarray(initial_states, dtype=np.int64)
    record, listed = ([], [], []), []
    returns, discount = np.zeros(1), 1.0
    for _ in range(horizon + 1):
        u = rng.random((2, w.n_agents))
        views = w.views(states, env.n_states)
        kept.changed = changed_rows(getattr(kept, "states", None), getattr(kept, "views", None), states, views)
        listed.append(kept.changed)
        actions = policy.sample_actions(states, views, u[0], kept)
        kept.states, kept.views = states, views
        nu_views = w.views(actions, env.n_actions) if env.reads_nu_views else None
        rewards = env.reward_batch(states, actions, views, nu_views)
        for rows, row in zip(record, (states, actions, rewards)):
            rows.append(row)
        returns += discount * rewards.reshape(1, -1).mean(axis=1)
        discount *= env.gamma
        states = env.transition_sample_batch(states, actions, views, nu_views, u[1]).astype(np.int64)
    return (*map(np.array, record), float(returns[0]), listed)


def _steps(env, policy, mu, horizon=0):
    """The library's mean-field recursion from the single law mu, steps
    0..horizon."""
    return _recursion(env, policy, mu.weights[None, :], horizon)


def mf_action_distribution(env, policy, mu):
    """Population action law under mu: step 0 of the library's recursion."""
    return Simplex(next(_steps(env, policy, mu))[1][0])


def mf_transition(env, policy, mu):
    """Next state law under mu: step 1 of the library's recursion."""
    steps = _steps(env, policy, mu, horizon=1)
    next(steps)
    return Simplex(next(steps)[0][0])


def mf_reward(env, policy, mu):
    """Population-average reward under mu: the env's reward table at step 0
    of the library's recursion."""
    mus, nus, probs, _ = next(_steps(env, policy, mu))
    return float(_mean_rewards(env.reward_matrix(mus, nus), probs, mus)[0])


def onehot_network_probs(cfg, phi, states, mu_rows):
    """Reference network pass: the features [one-hot(x), mu] built as a
    (B, 2|X|) matrix, one GEMM, a tanh layer and a row-wise softmax (max and
    sum along each row), from the same flat parameter layout."""
    h, f, n_u = cfg.hidden, cfg.n_features, cfg.n_actions
    w1 = phi[: h * f].reshape(h, f)
    b1 = phi[h * f : h * f + h]
    w2 = phi[h * f + h : h * f + h + n_u * h].reshape(n_u, h)
    b2 = phi[h * f + h + n_u * h :]
    feats = np.zeros((len(states), f))
    feats[np.arange(len(states)), states] = 1.0
    feats[:, cfg.n_states :] = mu_rows
    logits = np.tanh(feats @ w1.T + b1) @ w2.T + b2
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def finite_difference_log_gradient(cfg, phi, x, mu, u, step=1e-5):
    """Central-difference gradient of log pi(u | x, mu) in the parameters;
    pi comes from the network pass `_forward` on one row."""

    def log_prob(params):
        return float(np.log(_forward(cfg, _layers(cfg, params), [x], mu.weights[None, :])[1][0, u]))

    grad = np.empty(cfg.n_params)
    for i in range(cfg.n_params):
        hi = phi.copy()
        hi[i] += step
        lo = phi.copy()
        lo[i] -= step
        grad[i] = (log_prob(hi) - log_prob(lo)) / (2 * step)
    return grad


def log_gradient_row(cfg, phi, x, mu, u):
    """The score at the single triple (x, mu, u): the library's gradient on
    a batch of one row."""
    return log_policy_gradient(cfg, phi, [x], mu.weights[None, :], [u])[0]


def inner_sgd_per_row(policy, cfg, gamma, states, mu_rows, actions, a_hat):
    """Reference for `npg.inner_sgd`: the per-sample SGD loop, scoring one
    row at a time."""
    w = np.zeros(policy.config.n_params)
    total = np.zeros_like(w)
    scale = 1.0 / (1.0 - gamma)
    for x, mu, u, a in zip(states, mu_rows, actions, a_hat):
        g = log_policy_gradient(policy.config, policy.params, [x], mu[None, :], [u])[0]
        h = (float(w @ g) - a * scale) * g
        w = w - cfg.alpha * h
        total += w
    return total / len(a_hat)


def brute_force_mf(env, reward, transition, policy, mu):
    """Mean-field action distribution, next state distribution, and average
    reward by direct double sums over (x, u) of the scalar `reward` and
    `transition` of `env`."""
    nu = np.zeros(env.n_actions)
    for x in range(env.n_states):
        p = policy_probs(policy, x, mu)
        for u in range(env.n_actions):
            nu[u] += p[u] * mu.weights[x]
    nu_s = Simplex(nu)
    mu_next = np.zeros(env.n_states)
    mean_reward = 0.0
    for x in range(env.n_states):
        p = policy_probs(policy, x, mu)
        for u in range(env.n_actions):
            w_xu = p[u] * mu.weights[x]
            mu_next = mu_next + w_xu * transition(x, u, mu, nu_s).weights
            mean_reward += w_xu * reward(x, u, mu, nu_s)
    return nu, mu_next, mean_reward


def exact_population_value(env, reward, transition, w, policy, states, horizon):
    """Expected discounted population-average return by exhaustive
    enumeration of every action and transition branch of the scalar
    `reward` and `transition` of `env`."""
    states = np.asarray(states, dtype=np.int64)
    n = states.size

    def level(states_now, t):
        mu_views = np.stack(
            [weighted_view(w, i, states_now, env.n_states).weights for i in range(n)]
        )
        probs = policy.action_laws(mu_views)[np.arange(n), states_now]
        total = 0.0
        for actions in itertools.product(range(env.n_actions), repeat=n):
            p_act = float(np.prod([probs[i, actions[i]] for i in range(n)]))
            if p_act == 0.0:
                continue
            actions_arr = np.asarray(actions, dtype=np.int64)
            nu_views = np.stack(
                [weighted_view(w, i, actions_arr, env.n_actions).weights for i in range(n)]
            )
            rewards = [
                reward(int(states_now[i]), actions[i], Simplex(mu_views[i]), Simplex(nu_views[i]))
                for i in range(n)
            ]
            value = float(np.mean(rewards))
            if t < horizon:
                dists = [
                    transition(
                        int(states_now[i]), actions[i], Simplex(mu_views[i]), Simplex(nu_views[i])
                    ).weights
                    for i in range(n)
                ]
                cont = 0.0
                supports = [np.nonzero(d > 0)[0] for d in dists]
                for nxt in itertools.product(*supports):
                    p_nxt = float(np.prod([dists[i][nxt[i]] for i in range(n)]))
                    cont += p_nxt * level(np.asarray(nxt, dtype=np.int64), t + 1)
                value += env.gamma * cont
            total += p_act * value
        return total

    return level(states, 0)


def toy_mdp(gamma=0.9):
    """2-state, 2-action environment whose dynamics and rewards ignore the
    distribution arguments, with a state-dependent (distribution-independent)
    policy. Returns (env, policy, kernel, reward_table, policy_table)."""
    kernel_tab = np.array(
        [[[0.7, 0.3], [0.2, 0.8]], [[0.4, 0.6], [0.9, 0.1]]]
    )
    reward_tab = np.array([[1.0, -0.5], [0.3, 2.0]])
    policy_tab = np.array([[0.7, 0.3], [0.4, 0.6]])
    spec = AffineRewardSpec(a=np.zeros(2), b=np.zeros(2), f=reward_tab)
    env = tabular_env(kernel_tab, reward_tab, gamma, lipschitz_p=0.0, affine=spec)
    return env, TabularPolicy(policy_tab), kernel_tab, reward_tab, policy_tab


def tabular_env(kernel_tab, reward_tab, gamma, **kwargs):
    """Environment whose dynamics and rewards ignore the distribution
    arguments, given by its kernel (|X|, |U|, |X|) and reward (|X|, |U|)
    tables; `kwargs` go to `EnvModel`."""
    kernel_tab = np.asarray(kernel_tab, dtype=np.float64)
    reward_tab = np.asarray(reward_tab, dtype=np.float64)
    return scalar_env(
        *reward_tab.shape,
        gamma,
        reward=lambda x, u, mu, nu: float(reward_tab[x, u]),
        transition=lambda x, u, mu, nu: Simplex(kernel_tab[x, u]),
        kernel=lambda mus, nus: np.broadcast_to(kernel_tab, (len(mus),) + kernel_tab.shape),
        reward_matrix=lambda mus, nus: np.broadcast_to(reward_tab, (len(mus),) + reward_tab.shape),
        **kwargs,
    )


def dp_q_and_v(kernel_tab, reward_tab, policy_tab, gamma):
    """Exact Q and V of the distribution-free MDP by a linear solve."""
    n_states = reward_tab.shape[0]
    p_pi = np.einsum("xuy,xu->xy", kernel_tab, policy_tab)
    r_pi = np.einsum("xu,xu->x", reward_tab, policy_tab)
    v = np.linalg.solve(np.eye(n_states) - gamma * p_pi, r_pi)
    q = reward_tab + gamma * np.einsum("xuy,y->xu", kernel_tab, v)
    return q, v


def occupancy_by_enumeration(kernel_tab, policy_tab, mu0, gamma, max_t=200):
    """Discounted (x, u) occupancy of the distribution-free MDP, truncated."""
    p_pi = np.einsum("xuy,xu->xy", kernel_tab, policy_tab)
    rho = np.asarray(mu0, dtype=np.float64).copy()
    zeta = np.zeros_like(policy_tab)
    scale = 1.0 - gamma
    for t in range(max_t + 1):
        zeta += scale * gamma**t * rho[:, None] * policy_tab
        rho = rho @ p_pi
    return zeta


def path_occupancy(env, policy, mu0, horizon: int) -> np.ndarray:
    """Discounted single-agent occupancy along the mean-field path of
    `policy` from mu0 (`mf_path`), step by step: entry [t, x, u] is
    (1 - gamma) gamma^t rho_t(x) pi_t(u | x) for t = 0..horizon, where
    rho_0 = mu_0 and rho_{t+1}(y) = sum_{x, u} rho_t(x) pi_t(u | x)
    P_t(y | x, u) runs forward over the path's per-state action laws and
    kernels (not its state laws)."""
    mus, _, probs, _, kernels = mf_path(env, policy, mu0, horizon)
    gamma = env.gamma
    rho = mus[0]
    zeta = np.zeros(probs.shape)
    for t in range(horizon + 1):
        joint = rho[:, None] * probs[t]
        zeta[t] = (1.0 - gamma) * gamma**t * joint
        rho = np.einsum("xu,xuy->y", joint, kernels[t])
    return zeta


def path_advantage(env, policy, mu0, horizon: int) -> np.ndarray:
    """Exact single-agent advantage A_t(x, u) = Q_t(x, u) - V_t(x) along the
    mean-field path of `policy` from mu0 (`mf_path`), t = 0..horizon, by the
    backward recursion Q_t = r_t + gamma P_t V_{t+1}, V_t(x) = sum_u
    pi_t(u | x) Q_t(x, u) over the path's reward tables, kernels and
    per-state action laws, from V_{horizon+1} = 0."""
    _, _, probs, rewards, kernels = mf_path(env, policy, mu0, horizon)
    advantage = np.zeros(probs.shape)
    v = np.zeros(probs.shape[1])  # V_{t+1}
    for t in range(horizon, -1, -1):
        q = rewards[t] + env.gamma * np.einsum("xuy,y->xu", kernels[t], v)
        v = np.einsum("xu,xu->x", probs[t], q)
        advantage[t] = q - v[:, None]
    return advantage


def contraction_env(gamma=0.5, rho=0.05):
    """Affine-reward environment with a small, exactly known transition
    Lipschitz constant: P = (1 - rho) * base(x, u) + rho * mu."""
    base = np.array([[[0.8, 0.2], [0.3, 0.7]], [[0.5, 0.5], [0.6, 0.4]]])
    a = np.array([0.3, -0.2])
    b = np.array([0.1, 0.0])
    f = np.array([[0.2, 0.0], [-0.1, 0.15]])
    spec = AffineRewardSpec(a=a, b=b, f=f)

    def reward_batch(states, actions, mu_views, nu_views):
        return mu_views @ a + nu_views @ b + f[states, actions]

    def transition_sample_batch(states, actions, mu_views, nu_views, u):
        return sample_rows((1 - rho) * base[states, actions] + rho * mu_views, u)

    env = EnvModel(
        n_states=2,
        n_actions=2,
        gamma=gamma,
        lipschitz_p=rho,
        affine=spec,
        reward_batch=reward_batch,
        transition_sample_batch=transition_sample_batch,
        kernel=lambda mus, nus: (1 - rho) * base + rho * mus[:, None, None, :],
        reward_matrix=lambda mus, nus: (mus @ a + nus @ b)[:, None, None] + f,
    )
    return env, TabularPolicy([[0.6, 0.4], [0.25, 0.75]])


def occupancy_pass_by_rows(env, policy, mu0, size: int, rng: np.random.Generator):
    """Reference occupancy pass: the draws of `npg.sample_occupancy`, in its
    order and from the same path, each made by one `sample_rows` call on the
    gathered rows of the path's tables, with the live chains compacted after
    every suffix step. Returns (states, mu_rows, actions, a_hat)."""
    accept, suffix = rng.geometric(1.0 - env.gamma, (2, size)) - 1
    heads = rng.random(size) < 0.5
    mus, _, probs, rewards, kernels = mf_path(env, policy, mu0, int((accept + suffix).max()))
    mu_rows = mus[accept]
    states = sample_rows(mu_rows, rng.random(size))
    actions = sample_rows(probs[accept, states], rng.random(size))
    u = actions.copy()
    tails = np.flatnonzero(~heads)
    u[tails] = sample_rows(probs[accept[tails], states[tails]], rng.random(tails.size))
    total = rewards[accept, states, u]
    live, x = np.arange(size), states
    for s in range(1, int(suffix.max()) + 1):
        going = suffix[live] >= s
        live, x, u = live[going], x[going], u[going]
        t = accept[live] + s
        x = sample_rows(kernels[t - 1, x, u], rng.random(live.size))
        u = sample_rows(probs[t, x], rng.random(live.size))
        total[live] += rewards[t, x, u]
    return states, mu_rows, actions, np.where(heads, 2.0, -2.0) * total
