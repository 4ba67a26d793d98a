"""Reference implementations the benchmark checks the program against.

They re-derive the firm-network model and the softmax policy from their
definitions and share no code with `mfmarl`. They favour plain arithmetic
over speed and only ever run outside the timed phase.
"""

from __future__ import annotations

import numpy as np


class FirmOracle:
    """Firm model (quality levels 1..q, actions hold/invest) driven by a
    one-hidden-layer softmax policy given as a flat checkpoint vector laid out
    as W1 (hidden x 2q), b1, W2 (2 x hidden), b2."""

    def __init__(self, params, q, hidden, gamma, alpha_r=1.0, beta_r=0.5, lambda_r=0.5, sigma=1.0):
        self.q, self.gamma, self.sigma = q, gamma, sigma
        self.alpha_r, self.beta_r, self.lambda_r = alpha_r, beta_r, lambda_r
        self.labels = np.arange(1, q + 1, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        f = 2 * q
        self.w1 = p[: hidden * f].reshape(hidden, f)
        self.b1 = p[hidden * f : hidden * f + hidden]
        self.w2 = p[hidden * f + hidden : hidden * f + 3 * hidden].reshape(2, hidden)
        self.b2 = p[hidden * f + 3 * hidden :]
        if self.b2.size != 2:
            raise ValueError("checkpoint size does not match q and hidden")

    def probs(self, states, views):
        """[pi(hold | x, view), pi(invest | x, view)] for each (state, view) row."""
        pre = self.w1.T[states] + views @ self.w1[:, self.q :].T + self.b1
        logits = np.tanh(pre) @ self.w2.T + self.b2
        logits -= logits.max(axis=-1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=-1, keepdims=True)

    def reward(self, levels, mean_quality, invest):
        return self.alpha_r * levels - self.beta_r * mean_quality**self.sigma - self.lambda_r * invest

    def mf_value(self, mu0, horizon: int) -> float:
        """Discounted mean-field value, t = 0..horizon, by explicit sums."""
        q = self.q
        mu = np.asarray(mu0, dtype=np.float64).copy()
        value, discount = 0.0, 1.0
        for _ in range(horizon + 1):
            pi = self.probs(np.arange(q), np.tile(mu, (q, 1)))
            mean_q = float(self.labels @ mu)
            for x in range(q):
                for u in (0, 1):
                    value += discount * mu[x] * pi[x, u] * self.reward(self.labels[x], mean_q, u)
            discount *= self.gamma
            nxt = mu * pi[:, 0]
            scale = 1.0 - min(max(mean_q, 0.0), q) / q
            for x in range(q):
                mass = mu[x] * pi[x, 1]
                c = scale * (q - 1 - x)
                if c <= 0.0:
                    nxt[x] += mass
                    continue
                # floor(chi * c), chi ~ U[0, 1]: P(m) = min((m+1)/c, 1) - min(m/c, 1)
                for m in range(q - x):
                    nxt[x + m] += mass * (min((m + 1) / c, 1.0) - min(m / c, 1.0))
            mu = nxt
        return value

    def returns(self, views_of, states0, horizon: int, episodes: int, rng) -> np.ndarray:
        """Discounted population-average return of `episodes` independent
        N-agent episodes from `states0`; `views_of` maps an (E, N) state
        array to the (E, N, q) weighted state views."""
        q = self.q
        x = np.tile(np.asarray(states0, dtype=np.int64), (episodes, 1))
        value = np.zeros(episodes)
        discount = 1.0
        for _ in range(horizon + 1):
            views = views_of(x)
            invest = (rng.random(x.shape) >= self.probs(x, views)[..., 0]).astype(np.int64)
            mean_q = views @ self.labels
            value += discount * self.reward(self.labels[x], mean_q, invest).mean(axis=1)
            discount *= self.gamma
            c = (1.0 - np.clip(mean_q, 0.0, q) / q) * (q - 1 - x)
            step = np.minimum(np.floor(rng.random(x.shape) * c).astype(np.int64), q - 1 - x)
            x = x + invest * step
        return value


def one_hot(x, q):
    return (x[..., None] == np.arange(q)).astype(np.float64)


def ring_views(k: int, q: int):
    """Views under the ring-K circulant: weight 1/k on agents i+1..i+k."""

    def views_of(x):
        return sum(one_hot(np.roll(x, -off, axis=-1), q) for off in range(1, k + 1)) / k

    return views_of


def dense_views(weights, q: int):
    """Views under an explicit N x N weight matrix."""

    def views_of(x):
        e, n = x.shape
        stacked = one_hot(x, q).transpose(1, 0, 2).reshape(n, e * q)
        return (weights @ stacked).reshape(n, e, q).transpose(1, 0, 2)

    return views_of


def doubly_stochastic_error(weights) -> float:
    w = np.asarray(weights)
    return float(max(np.abs(w.sum(axis=0) - 1).max(), np.abs(w.sum(axis=1) - 1).max(), -w.min()))
