"""Softmax policy over actions from a single-hidden-layer network.

The network input is the concatenation of one-hot(state) and the state
distribution the agent sees, so the policy is a function of (x, mu). The
log-probability gradient is computed analytically by backpropagation; the
finite-difference comparison in the test suite is the correctness gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .simplex import Simplex, sample_rows


@dataclass(frozen=True)
class PolicyConfig:
    n_states: int
    n_actions: int
    hidden: int = 32

    def __post_init__(self):
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("state and action spaces must be nonempty")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")

    @property
    def n_features(self) -> int:
        return 2 * self.n_states

    @property
    def n_params(self) -> int:
        h, f, u = self.hidden, self.n_features, self.n_actions
        return h * f + h + u * h + u


def init_params(cfg: PolicyConfig, rng: np.random.Generator) -> np.ndarray:
    """Weights i.i.d. uniform on [-0.1, 0.1], biases zero: a near-uniform
    initial policy."""
    h, f, u = cfg.hidden, cfg.n_features, cfg.n_actions
    phi = np.zeros(cfg.n_params)
    phi[: h * f] = rng.uniform(-0.1, 0.1, size=h * f)
    phi[h * f + h : h * f + h + u * h] = rng.uniform(-0.1, 0.1, size=u * h)
    return phi


def _unpack(cfg: PolicyConfig, phi: np.ndarray):
    h, f, u = cfg.hidden, cfg.n_features, cfg.n_actions
    if phi.shape != (cfg.n_params,):
        raise ValueError(f"parameter vector must have shape ({cfg.n_params},), got {phi.shape}")
    w1 = phi[: h * f].reshape(h, f)
    b1 = phi[h * f : h * f + h]
    w2 = phi[h * f + h : h * f + h + u * h].reshape(u, h)
    b2 = phi[h * f + h + u * h :]
    return w1, b1, w2, b2


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _features(cfg: PolicyConfig, x: int, mu_weights: np.ndarray) -> np.ndarray:
    if not 0 <= x < cfg.n_states:
        raise ValueError(f"state {x} out of range [0, {cfg.n_states})")
    feat = np.zeros(cfg.n_features)
    feat[x] = 1.0
    feat[cfg.n_states :] = mu_weights
    return feat


def action_distribution(cfg: PolicyConfig, phi: np.ndarray, x: int, mu: Simplex) -> Simplex:
    """Softmax action probabilities at (x, mu); always strictly positive."""
    if len(mu) != cfg.n_states:
        raise ValueError(f"mu has {len(mu)} entries, expected {cfg.n_states}")
    w1, b1, w2, b2 = _unpack(cfg, phi)
    hdn = np.tanh(w1 @ _features(cfg, x, mu.weights) + b1)
    return Simplex(_softmax(w2 @ hdn + b2))


def log_policy_gradient(
    cfg: PolicyConfig, phi: np.ndarray, x: int, mu: Simplex, u: int
) -> np.ndarray:
    """Gradient of log pi(u | x, mu) with respect to the flat parameters."""
    if not 0 <= u < cfg.n_actions:
        raise ValueError(f"action {u} out of range [0, {cfg.n_actions})")
    w1, b1, w2, b2 = _unpack(cfg, phi)
    feat = _features(cfg, x, mu.weights)
    hdn = np.tanh(w1 @ feat + b1)
    probs = _softmax(w2 @ hdn + b2)

    dlogits = -probs
    dlogits[u] += 1.0
    dhdn = w2.T @ dlogits
    dpre = dhdn * (1.0 - hdn * hdn)

    grad = np.empty(cfg.n_params)
    h, f = cfg.hidden, cfg.n_features
    grad[: h * f] = np.outer(dpre, feat).ravel()
    grad[h * f : h * f + h] = dpre
    grad[h * f + h : h * f + h + cfg.n_actions * h] = np.outer(dlogits, hdn).ravel()
    grad[h * f + h + cfg.n_actions * h :] = dlogits
    return grad


def estimate_lipschitz_lq(
    cfg: PolicyConfig, phi: np.ndarray, trials: int, rng: np.random.Generator
) -> float:
    """Sampled lower bound on the policy's Lipschitz constant in mu:
    running max of |pi(x, mu1) - pi(x, mu2)|_1 / |mu1 - mu2|_1.

    Draws one (x, mu1, mu2) tuple per trial sequentially, so the estimate
    for a larger trial count extends the same probe stream; the network then
    runs once over all probes of each side.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    w1, b1, w2, b2 = _unpack(cfg, phi)
    alpha = np.ones(cfg.n_states)
    x = np.empty(trials, dtype=np.int64)
    mu1 = np.empty((trials, cfg.n_states))
    mu2 = np.empty((trials, cfg.n_states))
    for i in range(trials):
        x[i] = rng.integers(cfg.n_states)
        mu1[i] = rng.dirichlet(alpha)
        mu2[i] = rng.dirichlet(alpha)
    d = np.abs(mu1 - mu2).sum(axis=1)
    keep = d > 1e-12
    onehot = np.eye(cfg.n_states)[x[keep]]

    def forward(mu):
        feats = np.hstack([onehot, mu[keep]])
        return _softmax(np.tanh(feats @ w1.T + b1) @ w2.T + b2)

    ratios = np.abs(forward(mu1) - forward(mu2)).sum(axis=1) / d[keep]
    return float(ratios.max(initial=0.0))


class SoftmaxPolicy:
    """Parameter-bound policy exposing scalar and batched evaluation plus the
    analytic log-gradient."""

    def __init__(self, cfg: PolicyConfig, phi):
        self.config = cfg
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != (cfg.n_params,):
            raise ValueError(f"parameter vector must have shape ({cfg.n_params},), got {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("policy parameters must be finite")
        self.params = phi.copy()
        self.params.flags.writeable = False
        self._eye = np.eye(cfg.n_states)

    def action_distribution(self, x: int, mu: Simplex) -> Simplex:
        return action_distribution(self.config, self.params, x, mu)

    def probs(self, x: int, mu: Simplex) -> np.ndarray:
        return self.action_distribution(x, mu).weights

    def probs_batch(self, states: np.ndarray, mu_rows: np.ndarray) -> np.ndarray:
        """One action distribution per (state, view) row."""
        feats = np.hstack([self._eye[states], mu_rows])
        return self._forward(feats)

    def _forward(self, feats: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = _unpack(self.config, self.params)
        hdn = np.tanh(feats @ w1.T + b1)
        return _softmax(hdn @ w2.T + b2)

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, rng) -> np.ndarray:
        return sample_rows(self.probs_batch(states, mu_rows), rng)

    def log_gradient(self, x: int, mu: Simplex, u: int) -> np.ndarray:
        return log_policy_gradient(self.config, self.params, x, mu, u)

    def lipschitz_estimate(self, trials: int, rng: np.random.Generator) -> float:
        return estimate_lipschitz_lq(self.config, self.params, trials, rng)


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

    def action_distribution(self, x: int, mu: Simplex) -> Simplex:
        return Simplex(self.table[x])

    def probs(self, x: int, mu: Simplex) -> np.ndarray:
        return self.table[x]

    def probs_batch(self, states: np.ndarray, mu_rows: np.ndarray) -> np.ndarray:
        return self.table[states]

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, rng) -> np.ndarray:
        return sample_rows(self.table[states], rng)

    def lipschitz_estimate(self, trials: int, rng) -> float:
        return 0.0


class FunctionPolicy:
    """Policy defined by an explicit map (x, mu) -> action probability vector.

    Used for environments and tests where the action rule is fixed rather
    than learned; has no parameters and hence no log-gradient.
    """

    def __init__(self, fn, n_states: int, n_actions: int):
        self._fn = fn
        self.n_states = n_states
        self.n_actions = n_actions

    def action_distribution(self, x: int, mu: Simplex) -> Simplex:
        return Simplex(self.probs(x, mu))

    def probs(self, x: int, mu: Simplex) -> np.ndarray:
        p = np.asarray(self._fn(x, mu), dtype=np.float64)
        if p.shape != (self.n_actions,):
            raise ValueError(f"policy function returned shape {p.shape}")
        return p

    def probs_batch(self, states: np.ndarray, mu_rows: np.ndarray) -> np.ndarray:
        return np.stack(
            [self.probs(int(x), Simplex(row)) for x, row in zip(states, mu_rows)]
        )

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, rng) -> np.ndarray:
        return sample_rows(self.probs_batch(states, mu_rows), rng)


def save_policy(path, cfg: PolicyConfig, phi: np.ndarray) -> None:
    """Checkpoint: one JSON header line, then the flat parameters as CSV."""
    header = {
        "n_states": cfg.n_states,
        "n_actions": cfg.n_actions,
        "hidden": cfg.hidden,
        "d": cfg.n_params,
    }
    values = ",".join(repr(float(v)) for v in np.asarray(phi, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n" + values + "\n")


def load_policy(path) -> tuple[PolicyConfig, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        values = fh.readline().strip()
    cfg = PolicyConfig(
        n_states=header["n_states"], n_actions=header["n_actions"], hidden=header["hidden"]
    )
    phi = np.array([float(v) for v in values.split(",")])
    if phi.size != header["d"] or phi.size != cfg.n_params:
        raise ValueError(f"checkpoint holds {phi.size} parameters, header says {header['d']}")
    return cfg, phi
