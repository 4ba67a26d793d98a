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

from .simplex import _check_indices, _check_size, sample_rows


@dataclass(frozen=True)
class PolicyConfig:
    n_states: int
    n_actions: int
    hidden: int = 32

    def __post_init__(self):
        for name in ("n_states", "n_actions", "hidden"):
            _check_size(name, getattr(self, name))

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
    phi = np.zeros(cfg.n_params)
    w1, _, w2, _ = _unpack(cfg, phi)
    w1[...] = rng.uniform(-0.1, 0.1, size=w1.shape)
    w2[...] = rng.uniform(-0.1, 0.1, size=w2.shape)
    return phi


def _unpack(cfg: PolicyConfig, phi: np.ndarray, rows: tuple = ()):
    """The parameter blocks (w1, b1, w2, b2) of `phi`, of shape rows + (d,),
    as views on its last axis: the one place the flat layout is written."""
    h, f, u = cfg.hidden, cfg.n_features, cfg.n_actions
    shape = (*rows, cfg.n_params)
    if phi.shape != shape:
        raise ValueError(f"parameter vector must have shape {shape}, got {phi.shape}")
    ends = (h * f, h * f + h, h * f + h + u * h)
    return (
        phi[..., : ends[0]].reshape(*rows, h, f),
        phi[..., ends[0] : ends[1]],
        phi[..., ends[1] : ends[2]].reshape(*rows, u, h),
        phi[..., ends[2] :],
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(cfg: PolicyConfig, phi: np.ndarray, states, mu_rows):
    """The network over (state, view) rows: features [one-hot(x), mu] (B, 2|X|),
    tanh hidden layer (B, H) and softmax action probabilities (B, |U|)."""
    w1, b1, w2, b2 = _unpack(cfg, phi)
    feats = np.zeros((len(states), cfg.n_features))
    feats[np.arange(len(states)), states] = 1.0
    feats[:, cfg.n_states :] = mu_rows
    hidden = np.tanh(feats @ w1.T + b1)
    return feats, hidden, _softmax(hidden @ w2.T + b2)


def log_policy_gradient(cfg: PolicyConfig, phi: np.ndarray, states, mu_rows, actions) -> np.ndarray:
    """Gradients of log pi(u_i | x_i, mu_i) with respect to the flat
    parameters, one row per (state, view, action) triple: (B, d), from one
    forward and one backward pass over all B rows."""
    b = np.size(states)
    states = _check_indices("states", states, b, cfg.n_states)
    actions = _check_indices("actions", actions, b, cfg.n_actions)
    mu_rows = np.asarray(mu_rows, dtype=np.float64)
    if mu_rows.shape != (b, cfg.n_states):
        raise ValueError(f"mu_rows must have shape ({b}, {cfg.n_states}), got {mu_rows.shape}")
    feats, hidden, probs = _forward(cfg, phi, states, mu_rows)
    w2 = _unpack(cfg, phi)[2]
    dlogits = -probs
    dlogits[np.arange(b), actions] += 1.0
    dpre = (dlogits @ w2) * (1.0 - hidden * hidden)
    # Each parameter block is written in place into its columns of the
    # (B, d) result.
    grad = np.empty((b, cfg.n_params))
    g_w1, g_b1, g_w2, g_b2 = _unpack(cfg, grad, (b,))
    np.multiply(dpre[:, :, None], feats[:, None, :], out=g_w1)
    g_b1[...] = dpre
    np.multiply(dlogits[:, :, None], hidden[:, None, :], out=g_w2)
    g_b2[...] = dlogits
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
    pi1 = _forward(cfg, phi, x[keep], mu1[keep])[2]
    pi2 = _forward(cfg, phi, x[keep], mu2[keep])[2]
    ratios = np.abs(pi1 - pi2).sum(axis=1) / d[keep]
    return float(ratios.max(initial=0.0))


class SoftmaxPolicy:
    """Parameter-bound policy, evaluated on (state, view) rows."""

    def __init__(self, cfg: PolicyConfig, phi):
        self.config = cfg
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != (cfg.n_params,):
            raise ValueError(f"parameter vector must have shape ({cfg.n_params},), got {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("policy parameters must be finite")
        self.params = phi.copy()
        self.params.flags.writeable = False

    def probs_batch(self, states: np.ndarray, mu_rows: np.ndarray) -> np.ndarray:
        """One action distribution per (state, view) row."""
        return _forward(self.config, self.params, states, mu_rows)[2]

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One action per (state, view) row, drawn by the row's uniform `u[i]`."""
        return sample_rows(self.probs_batch(states, mu_rows), u)

    def lipschitz_estimate(self, trials: int, rng: np.random.Generator) -> float:
        return estimate_lipschitz_lq(self.config, self.params, trials, rng)


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
    """Read a `save_policy` checkpoint; a malformed one raises a ValueError
    that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header, values = json.loads(fh.readline()), fh.readline()
        sizes = [header[key] for key in ("n_states", "n_actions", "hidden", "d")]
        phi = np.array([float(v) for v in values.split(",")])
    except (ValueError, TypeError, KeyError) as err:
        raise ValueError(
            f"checkpoint {path}: need a JSON object header with n_states, n_actions, hidden "
            f"and d, then a line of comma-separated floats ({type(err).__name__}: {err})"
        ) from None
    if not all(type(size) is int and size >= 1 for size in sizes):
        raise ValueError(f"checkpoint {path}: header sizes must be integers >= 1, got {sizes}")
    n_states, n_actions, hidden, d = sizes
    cfg = PolicyConfig(n_states, n_actions, hidden)
    if phi.size != d or phi.size != cfg.n_params:
        raise ValueError(f"checkpoint {path} holds {phi.size} parameters, header says {d}")
    return cfg, phi
