"""Softmax policy over actions from a single-hidden-layer network.

The network input is the concatenation of one-hot(state) and the state
distribution the agent sees, so the policy is a function of (x, mu). The
log-probability gradient is computed analytically by backpropagation; the
finite-difference comparison in the test suite is the correctness gate.
"""

from __future__ import annotations

import json
import math
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


# `SoftmaxPolicy.sample_actions` re-runs the network over all rows in place
# when more than this share of them changed, and over the changed rows only
# otherwise. The two cost the same at about 0.45 of the rows at B = 250, 0.7
# at B = 1000 and 0.5-0.6 at B = 4000 (q = 10, hidden = 32, two actions, one
# BLAS thread, glibc's mmap threshold at 1 MiB).
_FULL_PASS_SHARE = 0.5


def _workspace(cfg: PolicyConfig, rows: tuple, flat=None) -> tuple[np.ndarray, np.ndarray]:
    """The arrays `_forward` writes into for `rows` rows, (B,) or a stack of
    blocks such as (L, |X|): (2, *rows, H) for the hidden layer and the
    gathered state rows (or the views' products), and (|U| + 1, *rows) for
    the logits and the softmax's max and sum. Both are carved from the front
    of the 1-d float array `flat`, fresh when None."""
    n = math.prod(rows)
    h, s = 2 * n * cfg.hidden, (cfg.n_actions + 1) * n
    flat = np.empty(h + s) if flat is None else flat
    return flat[:h].reshape(2, *rows, cfg.hidden), flat[h : h + s].reshape(cfg.n_actions + 1, *rows)


def _layers(cfg: PolicyConfig, phi: np.ndarray) -> tuple:
    """The weights of the flat parameters phi (d,) as the network pass reads
    them: the state table (|X|, H), w1's state columns transposed with b1
    added, whose rows the one-hot half of the features gathers; the view
    weights (|X|, H), w1's view columns transposed; w2 (|U|, H) and b2 as a
    column (|U|, 1). A stack phi (S, 1, d) gives each with leading axes
    (S, 1)."""
    w1, b1, w2, b2 = _unpack(cfg, phi, phi.shape[:-1])
    q = cfg.n_states
    return w1[..., :q].swapaxes(-1, -2) + b1[..., None, :], w1[..., q:].swapaxes(-1, -2), w2, b2[..., None]


def _forward(cfg: PolicyConfig, layers: tuple, states, mu_rows, out=None):
    """The network of `_layers` over (state, view) rows: tanh hidden layer
    (B, H) and softmax action probabilities (B, |U|). The one-hot half of the
    features [one-hot(x), mu] acts as a row gather of the state table. The
    logits are (|U|, B), so the softmax runs over contiguous action rows; the
    probabilities are their transposed view.

    With `states` None, each view is shared by a block of |X| rows, one per
    state in order: views (L, |X|) give (L, |X|, H) and (L, |X|, |U|), and
    the gather is the table itself. Each view's product `(1, |X|) @ (|X|, H)`
    and each block's `w2 @ hidden.T` is a BLAS call of its own, so a block
    comes out bitwise equal whatever blocks are stacked with it. The layers
    of a stack of S parameter vectors take views (S, L, |X|) and run block
    (s, l) through vector s, with the same per-block calls.

    Every intermediate is written in place into the workspace `out` (a
    `_workspace`, fresh when None), and both results are views on it. The
    gather clips out-of-range indices instead of raising, so callers pass
    checked `states`."""
    table, w_views, w2, b2 = layers
    per_law = states is None
    rows = (*mu_rows.shape[:-1], cfg.n_states) if per_law else np.shape(states)
    (hidden, gathered), spare = _workspace(cfg, rows) if out is None else out
    if per_law:
        views = gathered[..., :1, :]
        np.matmul(mu_rows[..., None, :], w_views, out=views)
        np.add(views, table, out=hidden)
    else:
        np.matmul(mu_rows, w_views, out=hidden)
        # mode="raise" would go through a buffer: about 3x the time at B = 4000.
        table.take(states, axis=0, out=gathered, mode="clip")
        hidden += gathered
    np.tanh(hidden, out=hidden)
    logits, row = spare[:-1], spare[-1]
    # The products' view of the logits: (..., |U|, rows of the block).
    axes = range(1, logits.ndim)
    products = logits.transpose(*axes[:-1], 0, axes[-1])
    np.matmul(w2, hidden.swapaxes(-1, -2), out=products)
    products += b2
    logits.max(axis=0, out=row)
    logits -= row
    np.exp(logits, out=logits)
    logits.sum(axis=0, out=row)
    logits /= row
    return hidden, logits.transpose(*axes, 0)


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
    layers = _layers(cfg, phi)
    hidden, probs = _forward(cfg, layers, states, mu_rows)
    w2 = layers[2]
    dlogits = -probs
    dlogits[np.arange(b), actions] += 1.0
    dpre = (dlogits @ w2) * (1.0 - hidden * hidden)
    # Each parameter block is written in place into its columns of the
    # (B, d) result.
    feats = np.zeros((b, cfg.n_features))
    feats[np.arange(b), states] = 1.0
    feats[:, cfg.n_states :] = mu_rows
    grad = np.empty((b, cfg.n_params))
    g_w1, g_b1, g_w2, g_b2 = _unpack(cfg, grad, (b,))
    np.multiply(dpre[:, :, None], feats[:, None, :], out=g_w1)
    g_b1[...] = dpre
    np.multiply(dlogits[:, :, None], hidden[:, None, :], out=g_w2)
    g_b2[...] = dlogits
    return grad


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
        self._layers = _layers(cfg, self.params)

    def __reduce__(self):
        # A copy or an unpickled policy is built anew from its parameters,
        # which keeps them read-only.
        return type(self), (self.config, self.params)

    def action_laws(self, mus: np.ndarray) -> np.ndarray:
        """The action laws pi(. | x, mu) at every state x of each law mu, a
        row of `mus` (B, |X|), as a new C-contiguous (B, |X|, |U|) array: one
        network pass with one view per law, so a law's rows do not depend on
        the laws stacked with it."""
        mus = np.asarray(mus, dtype=np.float64)
        if mus.ndim != 2 or mus.shape[1] != self.config.n_states:
            raise ValueError(f"mus must have shape (B, {self.config.n_states}), got {mus.shape}")
        return np.ascontiguousarray(_forward(self.config, self._layers, None, mus)[1])

    def sample_actions(self, states: np.ndarray, mu_rows: np.ndarray, u: np.ndarray, kept=None) -> np.ndarray:
        """One action per (state, view) row, drawn by the row's uniform `u[i]`.

        With no record `kept`, one network pass over all rows in a fresh
        workspace. A step loop's record (see `nagent.step`) lists as
        `changed` the rows whose state or view differs bitwise from the call
        before (sorted indices, or None for every row). On it the policy
        keeps its workspace and the rows' action probabilities, and runs the
        network only on the listed rows, or over all rows in place when more
        than `_FULL_PASS_SHARE` of them are listed, when `changed` is None or
        missing, or when the row count differs from the call before. A row
        the caller does not list is drawn from its kept probabilities."""
        cfg = self.config
        b = np.size(states)
        states = _check_indices("states", states, b, cfg.n_states)
        mu_rows = np.asarray(mu_rows, dtype=np.float64)
        if mu_rows.shape != (b, cfg.n_states):
            raise ValueError(f"mu_rows must have shape ({b}, {cfg.n_states}), got {mu_rows.shape}")
        if kept is None:
            return sample_rows(_forward(cfg, self._layers, states, mu_rows)[1], u)
        changed = getattr(kept, "changed", None)
        if getattr(kept, "out", None) is None or kept.out[1].shape[1] != b:
            # The workspaces of the full pass and of the subset pass, for up
            # to `_FULL_PASS_SHARE * b` rows.
            kept.out = _workspace(cfg, (b,))
            kept.part = np.empty(int(_FULL_PASS_SHARE * b) * (2 * cfg.hidden + cfg.n_actions + 1))
            changed = None
        probs = kept.out[1][:-1]
        if changed is None or changed.size > _FULL_PASS_SHARE * b:
            _forward(cfg, self._layers, states, mu_rows, kept.out)
        elif changed.size:
            part = _workspace(cfg, (changed.size,), kept.part)
            probs[:, changed] = _forward(cfg, self._layers, states[changed], mu_rows[changed], part)[1].T
        return sample_rows(probs.T, u)

    def lipschitz_bound(self) -> float:
        """An upper bound on the policy's Lipschitz constant in the view,
        |pi(x, mu1) - pi(x, mu2)|_1 <= L |mu1 - mu2|_1 at every state x:

            L = 1/4 * sum_h range_u(w2[u, h]) * range_x(w1[h, |X| + x]),

        with range the largest entry less the smallest. Along the segment
        from mu1 to mu2, a change dmu moves the hidden units by dh and the
        logits by dz = w2 @ dh:

        1. dpi_u = pi_u * (dz_u - E_pi[dz]), so |dpi|_1 is the mean absolute
           deviation of dz under pi, at most range_u(dz) / 2;
        2. range_u(dz) <= sum_h range_u(w2[:, h]) * |dh_h|;
        3. dh_h = tanh' * (w1[h, |X|:] @ dmu) with tanh' <= 1, and dmu sums
           to 0, so shifting that row by a constant changes nothing and
           |dh_h| <= range_x(w1[h, |X|:]) * |dmu|_1 / 2.

        The bound is attained in the limit where pi is uniform over two
        actions and a single hidden unit sits at tanh' = 1."""
        w1, _, w2, _ = _unpack(self.config, self.params)
        views = w1[:, self.config.n_states :]
        spread = np.ptp(w2, axis=0) * np.ptp(views, axis=1)
        return float(spread.sum()) / 4.0


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
    if d != cfg.n_params:
        raise ValueError(
            f"checkpoint {path}: header says d = {d}, but n_states, n_actions, hidden = "
            f"{n_states}, {n_actions}, {hidden} make {cfg.n_params} parameters"
        )
    if phi.size != d:
        raise ValueError(f"checkpoint {path} holds {phi.size} parameters, header says {d}")
    bad = np.flatnonzero(~np.isfinite(phi))
    if bad.size:
        raise ValueError(f"checkpoint {path}: parameter {bad[0]} is {phi[bad[0]]}, parameters must be finite")
    return cfg, phi
