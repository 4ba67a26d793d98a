"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's own composition paths:
mean-field maps are explicit double sums, values come from linear solves or
exhaustive branch enumeration, and occupancies from truncated enumeration.
"""

import itertools

import numpy as np

from mfmarl.interaction import weighted_view
from mfmarl.model import AffineRewardSpec, EnvModel
from mfmarl.policy import TabularPolicy, action_distribution
from mfmarl.simplex import Simplex, sample_rows


def finite_difference_log_gradient(cfg, phi, x, mu, u, step=1e-5):
    """Central-difference gradient of log pi(u | x, mu) in the parameters."""

    def log_prob(params):
        return float(np.log(action_distribution(cfg, params, x, mu).weights[u]))

    grad = np.empty(cfg.n_params)
    for i in range(cfg.n_params):
        hi = phi.copy()
        hi[i] += step
        lo = phi.copy()
        lo[i] -= step
        grad[i] = (log_prob(hi) - log_prob(lo)) / (2 * step)
    return grad


def brute_force_mf(env, policy, mu):
    """Mean-field action distribution, next state distribution, and average
    reward by direct double sums over (x, u)."""
    nu = np.zeros(env.n_actions)
    for x in range(env.n_states):
        p = policy.probs(x, mu)
        for u in range(env.n_actions):
            nu[u] += p[u] * mu.weights[x]
    nu_s = Simplex(nu)
    mu_next = np.zeros(env.n_states)
    reward = 0.0
    for x in range(env.n_states):
        p = policy.probs(x, mu)
        for u in range(env.n_actions):
            w_xu = p[u] * mu.weights[x]
            mu_next = mu_next + w_xu * env.transition(x, u, mu, nu_s).weights
            reward += w_xu * env.reward(x, u, mu, nu_s)
    return nu, mu_next, reward


def exact_population_value(env, w, policy, states, horizon):
    """Expected discounted population-average return by exhaustive
    enumeration of every action and transition branch."""
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
                env.reward(int(states_now[i]), actions[i], Simplex(mu_views[i]), Simplex(nu_views[i]))
                for i in range(n)
            ]
            value = float(np.mean(rewards))
            if t < horizon:
                dists = [
                    env.transition(
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
    env = EnvModel(
        n_states=2,
        n_actions=2,
        gamma=gamma,
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

    def reward(x, u, mu, nu):
        return float(a @ mu.weights + b @ nu.weights + f[x, u])

    def transition(x, u, mu, nu):
        return Simplex((1 - rho) * base[x, u] + rho * mu.weights)

    def reward_batch(states, actions, mu_views, nu_views):
        return mu_views @ a + nu_views @ b + f[states, actions]

    def transition_sample_batch(states, actions, mu_views, nu_views, rng):
        return sample_rows((1 - rho) * base[states, actions] + rho * mu_views, rng)

    env = EnvModel(
        n_states=2,
        n_actions=2,
        gamma=gamma,
        reward=reward,
        transition=transition,
        lipschitz_p=rho,
        affine=spec,
        reward_batch=reward_batch,
        transition_sample_batch=transition_sample_batch,
        kernel=lambda mus, nus: (1 - rho) * base + rho * mus[:, None, None, :],
        reward_matrix=lambda mus, nus: (mus @ a + nus @ b)[:, None, None] + f,
    )
    return env, TabularPolicy([[0.6, 0.4], [0.25, 0.75]])
