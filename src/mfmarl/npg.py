"""Natural policy gradient training of the mean-field control problem.

The outer loop ascends the policy parameters along a direction solved by an
inner stochastic regression. A pass draws its samples from the policy's
discounted occupancy over (state, state-distribution, action) triples, each
with an unbiased advantage estimate (one estimator: a fair coin either keeps
or redraws the accepted action), scores them all in one backward pass, and
then each SGD step nudges the direction toward the least-squares fit of
advantage against the score. Each pass draws from its own iterate's
mean-field path (`meanfield.mf_path`), run exactly as far as the pass reads
it: a sample's state comes straight from the path's law at its accept time,
which is the law of a chain run from mu_0 to that time, so only the
advantage's suffix is simulated, by draws from the path tables' partial
sums, formed once per pass. After the loop one stacked recursion gives
every iterate's logged value. mu0 is handed in as a `Simplex` or a vector
checked like one; the samples and the path's laws are float arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .meanfield import _checked_mu0, _values, mf_path, truncation_horizon
from .model import EnvModel
from .policy import PolicyConfig, SoftmaxPolicy, _forward, _layers, log_policy_gradient
from .simplex import _check_count, _check_finite, _check_size, _inverse_cdf, _partial_sums


class TrainingDivergenceError(RuntimeError):
    """Raised when a parameter or update direction becomes non-finite."""


@dataclass(frozen=True)
class NPGConfig:
    eta: float = 1e-3
    alpha: float = 1e-3
    j_steps: int = 100
    l_steps: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_finite("eta", self.eta)
        _check_finite("alpha", self.alpha)
        if self.eta < 0 or self.alpha <= 0:
            raise ValueError("learning rates must be positive (eta may be 0)")
        _check_size("j_steps", self.j_steps)
        _check_size("l_steps", self.l_steps)
        _check_count("seed", self.seed)


def sample_occupancy(
    env: EnvModel, policy, mu0, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Draw `size` i.i.d. occupancy samples and their advantage estimates
    along the mean-field path of `policy` from mu0 (a `Simplex`, or a vector
    that passes its checks), discounting with `env.gamma`; return them as
    arrays `(states, mu_rows, actions, a_hat)` of shapes (size,), (size,
    |X|), (size,) and (size,).

    Each sample has a geometric accept time t (P(t) = (1 - gamma) gamma^t)
    and is the triple (x, mu_t, u), with mu_t the path's law at t, x ~ mu_t
    and u ~ pi(. | x, mu_t). A fair coin then picks the branch: heads
    continues from the accepted action, tails redraws it first; the signed
    (+2/-2) sum of rewards over a second geometric-length suffix, including
    the reward at the accept time, is the advantage estimate.

    A chain run from x_0 ~ mu_0 under the path's `probs` and `kernels` has
    the law `mus[t]` at step t (up to rounding), because the recursion
    advances the laws with those same tables; so x is drawn from `mus[t]`
    directly and only the suffix is simulated. The pass draws every accept
    time, suffix length and coin up front and runs `mf_path` to the last
    step a chain reads, max(accept + suffix), then forms the partial sums of
    the path's state laws, action laws and kernels once (`_partial_sums`).
    Every draw after that reads rows of those sums (`_inverse_cdf`, the rule
    `sample_rows` draws by, so the draws are the ones it would give): the
    accepted states, their actions and the tails' redrawn actions with one
    call each; then the chains still running advance in lockstep over the
    suffix step s, each reading the tables at its own time t + s, with one
    call per step for the states and one for the actions.
    """
    _check_size("size", size)
    mu0 = _checked_mu0(env, mu0)
    accept, suffix = rng.geometric(1.0 - env.gamma, (2, size)) - 1
    heads = rng.random(size) < 0.5
    mus, _, probs, rewards, kernels = mf_path(env, policy, mu0, int((accept + suffix).max()))
    mu_sums, pi_sums, kernel_sums = (_partial_sums(laws) for laws in (mus, probs, kernels))
    states = _inverse_cdf(mu_sums[:, accept], rng.random(size))
    actions = _inverse_cdf(pi_sums[:, accept, states], rng.random(size))
    u = actions.copy()
    tails = np.flatnonzero(~heads)
    u[tails] = _inverse_cdf(pi_sums[:, accept[tails], states[tails]], rng.random(tails.size))
    total = rewards[accept, states, u]
    live, x = np.arange(size), states
    for s in range(1, int(suffix.max()) + 1):
        going = suffix[live] >= s
        live, x, u = live[going], x[going], u[going]
        t = accept[live] + s
        x = _inverse_cdf(kernel_sums[:, t - 1, x, u], rng.random(live.size))
        u = _inverse_cdf(pi_sums[:, t, x], rng.random(live.size))
        total[live] += rewards[t, x, u]
    a_hat = np.where(heads, 2.0, -2.0) * total
    if not np.all(np.isfinite(a_hat)):
        raise ValueError("advantage estimate must be finite")
    return states, mus[accept], actions, a_hat


def inner_sgd(
    policy: SoftmaxPolicy, cfg: NPGConfig, gamma: float, states, mu_rows, actions, a_hat
) -> np.ndarray:
    """Solve the direction-finding regression by SGD from w = 0 over the
    pass's `cfg.l_steps` occupancy samples (the arrays `sample_occupancy`
    returns) and return the average of the post-update iterates.

    The scores of `policy` at every sample come from one backward pass;
    step l then forms the residual of w . score_l against a_hat_l / (1 - gamma)
    and steps w down the residual-weighted score, in place. Finiteness is
    checked once, after the scan: a non-finite update makes w, and with it
    the running sum of the iterates, non-finite for good. The error then
    names the first step whose update was non-finite, found from the
    residuals the scan kept.
    """
    if len(a_hat) != cfg.l_steps:
        raise ValueError(f"inner_sgd needs cfg.l_steps = {cfg.l_steps} samples, got {len(a_hat)}")
    scores = log_policy_gradient(policy.config, policy.params, states, mu_rows, actions)
    w = np.zeros(policy.config.n_params)
    total, h = np.zeros_like(w), np.empty_like(w)
    residuals = np.empty(cfg.l_steps)
    with np.errstate(invalid="ignore", over="ignore"):
        targets = np.asarray(a_hat, dtype=np.float64) * (1.0 / (1.0 - gamma))
        for l, (g, target) in enumerate(zip(scores, targets)):
            residuals[l] = residual = float(w @ g) - target
            np.multiply(residual, g, out=h)
            h *= cfg.alpha
            w -= h
            total += w
        if not np.isfinite(total).all():
            # Step l's update is residual_l * score_l, formed again here.
            bad = np.flatnonzero(~np.isfinite(residuals[:, None] * scores).all(axis=1))
            if bad.size:
                raise TrainingDivergenceError(f"non-finite update direction at inner iteration {bad[0]}")
    return total / cfg.l_steps


@dataclass
class TrainingResult:
    """Outer-loop iterates with their mean-field values and bookkeeping."""

    iterates: list = field(default_factory=list)
    values: list = field(default_factory=list)
    w_norms: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)


class _PolicyStack:
    """Several policies as the one policy the stacked mean-field recursion
    sees: `action_laws` runs block s of the laws, one equal block per
    policy, through policy s's parameters, and each block comes out bitwise
    equal to that policy's `action_laws` on its laws alone."""

    def __init__(self, policies: list):
        self.config = policies[0].config
        self._size = len(policies)
        # Each vector's layers broadcast over the laws of its block.
        self._layers = _layers(self.config, np.stack([policy.params for policy in policies])[:, None])

    def action_laws(self, mus: np.ndarray) -> np.ndarray:
        """A new C-contiguous array, as `SoftmaxPolicy.action_laws` returns:
        a recursion that keeps every step's laws keeps no workspace alive."""
        cfg = self.config
        probs = _forward(cfg, self._layers, None, mus.reshape(self._size, -1, cfg.n_states))[1]
        return np.ascontiguousarray(probs).reshape(-1, cfg.n_states, cfg.n_actions)


def npg_train(
    env: EnvModel,
    policy_cfg: PolicyConfig,
    phi0: np.ndarray,
    mu0,
    cfg: NPGConfig,
    rng: np.random.Generator,
    value_tol: float = 1e-3,
) -> TrainingResult:
    """Run the outer natural-gradient loop, discounting with `env.gamma`,
    and evaluate each iterate's mean-field value from mu0 (a `Simplex`, or a
    vector that passes its checks), truncated so the tail is below value_tol.

    Each iterate builds one policy. The policy of every iterate but the last
    also feeds the next inner regression's samples, drawn along its
    mean-field path from the checked mu0, and their scores. After the loop
    one recursion over the iterates' stacked policies, one row each, gives
    their values. A `policy_cfg` sized for other states or actions than the
    env's is a ValueError that names both sizes."""
    if (policy_cfg.n_states, policy_cfg.n_actions) != (env.n_states, env.n_actions):
        raise ValueError(
            f"policy_cfg has {policy_cfg.n_states} states and {policy_cfg.n_actions} actions, "
            f"but the env has {env.n_states} states and {env.n_actions} actions"
        )
    horizon = truncation_horizon(env, value_tol)
    mu0 = _checked_mu0(env, mu0)
    result = TrainingResult()
    phi = np.asarray(phi0, dtype=np.float64).copy()
    policy = SoftmaxPolicy(policy_cfg, phi)
    policies = []
    for j in range(cfg.j_steps):
        start = time.perf_counter()
        samples = sample_occupancy(env, policy, mu0, cfg.l_steps, rng)
        try:
            w = inner_sgd(policy, cfg, env.gamma, *samples)
        except TrainingDivergenceError as err:
            raise TrainingDivergenceError(f"outer iteration {j}: {err}") from err
        phi = phi + cfg.eta * w
        if not np.all(np.isfinite(phi)):
            raise TrainingDivergenceError(f"non-finite parameters after outer iteration {j}")
        policy = SoftmaxPolicy(policy_cfg, phi)
        policies.append(policy)
        result.iterates.append(phi.copy())
        result.w_norms.append(float(np.linalg.norm(w)))
        result.wall_ms.append((time.perf_counter() - start) * 1e3)
    # mu0 is checked once: `mf_values` would renormalize its rows again.
    mu0s = np.tile(mu0.weights, (cfg.j_steps, 1))
    result.values = [float(v) for v in _values(env, _PolicyStack(policies), mu0s, horizon)]
    return result


def select_policy(iterates, values) -> tuple[np.ndarray, float]:
    """Best iterate by mean-field value (ties broken by smallest index),
    plus the average value across iterates."""
    if len(iterates) == 0 or len(iterates) != len(values):
        raise ValueError("need matching nonempty iterate and value sequences")
    best = int(np.argmax(values))
    return iterates[best], float(np.mean(values))
