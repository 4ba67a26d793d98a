"""Independent reference computations and fixed test policies shared by the
test modules.

The references deliberately avoid the library's own composition paths:
mean-field maps are explicit double sums, views are read from the dense row
of W, values come from linear solves or exhaustive branch enumeration, and
occupancies from truncated enumeration. The single-law maps
`mf_action_distribution`, `mf_transition` and `mf_reward` are the opposite:
one step of the library's own recursion, so that comparing them with the
references checks that recursion.

The scalar contract lives here too: `scalar_env` builds an environment's
batched hooks from a scalar `reward(x, u, mu, nu)` and `transition(x, u,
mu, nu)` with one call per agent or per (b, x, u), `firm_scalar` gives the
firm model's scalar reward and transition, and `policy_probs` evaluates a
policy at one (x, mu).
"""

import itertools

import numpy as np

from mfmarl.meanfield import _mean_rewards, _recursion
from mfmarl.model import AffineRewardSpec, EnvModel, _increment_pmf
from mfmarl.policy import _forward, log_policy_gradient
from mfmarl.simplex import Simplex, _draw, sample_rows


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

    def probs_batch(self, states: np.ndarray, mu_rows: np.ndarray) -> np.ndarray:
        return self.table[states]

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        return sample_rows(self.table[states], u)

    def lipschitz_estimate(self, trials: int, rng) -> float:
        return 0.0


class FunctionPolicy:
    """Policy defined by an explicit map (x, mu) -> action probability vector,
    for fixed action rules; it has no parameters and hence no log-gradient."""

    def __init__(self, fn, n_states: int, n_actions: int):
        self._fn = fn
        self.n_states = n_states
        self.n_actions = n_actions

    def probs_batch(self, states: np.ndarray, mu_rows: np.ndarray) -> np.ndarray:
        probs = np.stack(
            [np.asarray(self._fn(int(x), Simplex(row)), dtype=np.float64) for x, row in zip(states, mu_rows)]
        )
        if probs.shape != (len(states), self.n_actions):
            raise ValueError(f"policy function returned rows of shape {probs.shape[1:]}")
        return probs

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        return sample_rows(self.probs_batch(states, mu_rows), u)


def policy_probs(policy, x: int, mu: Simplex) -> np.ndarray:
    """The policy's action probabilities at the single (x, mu): its
    `probs_batch` on one row."""
    return policy.probs_batch(np.array([x]), mu.weights[None, :])[0]


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
        return np.array([_draw(transition(*a).weights, u_i) for a, u_i in zip(args, u)], dtype=np.int64)

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
    agent i's uniform `u[i]` up in its transition law, giving the draw
    `sample` makes from a generator whose next uniform is `u[i]`."""
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
    pmf = _increment_pmf(np.array([c]), q - x)[0]
    out[x - 1 : q] = pmf
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


def _steps(env, policy, mu):
    """The library's mean-field recursion from the single law mu."""
    return _recursion(env, policy, mu.weights[None, :])


def mf_action_distribution(env, policy, mu):
    """Population action law under mu: step 0 of the library's recursion."""
    return Simplex(next(_steps(env, policy, mu))[1][0])


def mf_transition(env, policy, mu):
    """Next state law under mu: step 1 of the library's recursion."""
    steps = _steps(env, policy, mu)
    next(steps)
    return Simplex(next(steps)[0][0])


def mf_reward(env, policy, mu):
    """Population-average reward under mu: step 0 of the library's recursion."""
    mus, _, probs, rewards, _ = next(_steps(env, policy, mu))
    return float(_mean_rewards(rewards, probs, mus)[0])


def finite_difference_log_gradient(cfg, phi, x, mu, u, step=1e-5):
    """Central-difference gradient of log pi(u | x, mu) in the parameters;
    pi comes from the network pass `_forward` on one row."""

    def log_prob(params):
        return float(np.log(_forward(cfg, params, [x], mu.weights[None, :])[2][0, u]))

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


def inner_sgd_per_row(policy, cfg, gamma, samples):
    """Reference for `npg.inner_sgd`: the per-sample SGD loop, scoring one
    row at a time."""
    w = np.zeros(policy.config.n_params)
    total = np.zeros_like(w)
    scale = 1.0 / (1.0 - gamma)
    for s in samples:
        g = log_gradient_row(policy.config, policy.params, s.x, s.mu, s.u)
        h = (float(w @ g) - s.a_hat * scale) * g
        w = w - cfg.alpha * h
        total += w
    return total / len(samples)


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
        probs = policy.probs_batch(states_now, mu_views)
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
    env = scalar_env(
        2,
        2,
        gamma,
        reward=lambda x, u, mu, nu: float(reward_tab[x, u]),
        transition=lambda x, u, mu, nu: Simplex(kernel_tab[x, u]),
        lipschitz_p=0.0,
        affine=spec,
        kernel=lambda mus, nus: np.broadcast_to(kernel_tab, (len(mus),) + kernel_tab.shape),
        reward_matrix=lambda mus, nus: np.broadcast_to(reward_tab, (len(mus),) + reward_tab.shape),
    )
    return env, TabularPolicy(policy_tab), kernel_tab, reward_tab, policy_tab


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
