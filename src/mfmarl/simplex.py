"""Probability vectors over finite index sets: checked construction and
sampling, and the index and size checks shared by the layers.

A single law (an initial distribution, a step of a mean-field trajectory)
is a `Simplex` over 0-based indices. Stacked laws (per-agent views, policy
outputs, transition rows) are float arrays with one law per row;
`normalized_rows` applies the `Simplex` checks to such rows.
"""

from __future__ import annotations

import numbers

import numpy as np

# Construction renormalizes only when the sum has drifted by at most this
# much; larger drift is treated as a logic bug in the caller.
SUM_TOLERANCE = 1e-9


class Simplex:
    """An immutable probability vector over {0, ..., n-1}.

    Entries are nonnegative and sum to 1 (renormalized at construction when
    the drift is within ``SUM_TOLERANCE``, rejected otherwise).
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("simplex weights must be a nonempty 1-d vector")
        w = normalized_rows(w)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("Simplex is immutable")

    def __len__(self) -> int:
        return self.weights.size

    def __getitem__(self, k: int) -> float:
        return float(self.weights[k])

    def __repr__(self) -> str:
        return f"Simplex({np.array2string(self.weights, precision=6)})"

    @classmethod
    def uniform(cls, n: int) -> "Simplex":
        if n < 1:
            raise ValueError("set size must be >= 1")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, k: int, n: int) -> "Simplex":
        if not 0 <= k < n:
            raise ValueError(f"index {k} out of range for set size {n}")
        w = np.zeros(n)
        w[k] = 1.0
        return cls(w)


def normalized_rows(weights: np.ndarray) -> np.ndarray:
    """Check every row (the last axis) of a float64 array as a probability
    vector and return a renormalized copy.

    A row must be finite, nonnegative and sum to 1 within ``SUM_TOLERANCE``;
    the first failing check raises ``ValueError``. `Simplex` applies exactly
    these checks to its single row.
    """
    # One pass each for sign and sum; NaN fails `>= 0` and an infinite entry
    # fails the sum test, and either is then reported as non-finite.
    if not (weights >= 0.0).all():
        _require_finite(weights)
        raise ValueError(f"simplex weights must be nonnegative, got min {weights.min()}")
    s = weights.sum(axis=-1)
    drift = np.abs(s - 1.0) > SUM_TOLERANCE
    if drift.any():
        _require_finite(weights)
        bad = np.ravel(s)[np.ravel(drift)][0]
        raise ValueError(f"simplex weights sum to {bad!r}, expected 1 within {SUM_TOLERANCE}")
    return weights / (s[..., None] if weights.ndim > 1 else s)


def _require_finite(weights: np.ndarray) -> None:
    if not np.isfinite(weights).all():
        raise ValueError("simplex weights must be finite")


def sample(p: Simplex, rng: np.random.Generator) -> int:
    """Draw one index distributed as `p`. Deterministic given the rng state."""
    return int(_draw(p.weights, rng.random()))


def sample_many(p: Simplex, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `n` i.i.d. indices distributed as `p`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _draw(p.weights, rng.random(n))


def _draw(weights: np.ndarray, u):
    """Inverse-CDF lookup of uniform draw(s) `u` in the pmf `weights`."""
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, u, side="right"), weights.size - 1)


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of a (n, k) matrix of probabilities, by
    inverse CDF at the row's uniform `u[i]`."""
    cdf = np.cumsum(probs, axis=1)
    idx = (cdf < u[:, None]).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def _check_size(name: str, size) -> None:
    """A ValueError that names `size` unless it is an integer >= 1 (a bool
    is not)."""
    if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {size!r}")


def _check_indices(name: str, index, length: int, size: int) -> np.ndarray:
    """`index` as a 1-d integer array of `length` entries in [0, size); a
    ValueError that names it otherwise."""
    index = np.asarray(index)
    if index.shape != (length,) or index.dtype.kind not in "iu":
        raise ValueError(f"{name} must be {length} integers in a 1-d array, got {index.dtype} {index.shape}")
    if np.any((index < 0) | (index >= size)):
        raise ValueError(f"{name} must lie in [0, {size}), got {index.min()}..{index.max()}")
    return index
