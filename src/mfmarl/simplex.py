"""Probability vectors over finite index sets: checked construction and
sampling, and the index and size checks shared by the layers.

One law handed in (an initial distribution mu0) is a `Simplex` over
0-based indices, or a vector checked like one. Every stack of laws
(per-agent views, policy outputs, transition rows, the steps of a
mean-field path or of a rollout) is a float array with one law per row;
`normalized_rows` applies the `Simplex` checks to such rows, and
`sample_rows` is the one categorical draw: one index per row, by inverse
CDF (`_inverse_cdf`) over the rows' partial sums (`_partial_sums`). A
caller that draws many times from one stack forms those sums once and
draws from rows of them.
"""

from __future__ import annotations

import math
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

    def __reduce__(self):
        # Restored as stored: `Simplex(weights)` renormalizes, which can move a bit.
        return object.__new__, (type(self),), self.weights

    def __setstate__(self, weights: np.ndarray) -> None:
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.weights.size

    def __getitem__(self, k: int) -> float:
        return float(self.weights[k])

    def __repr__(self) -> str:
        return f"Simplex({np.array2string(self.weights, precision=6)})"

    @classmethod
    def uniform(cls, n: int) -> "Simplex":
        _check_size("n", n)
        return cls(np.full(n, 1.0 / n))


def normalized_rows(weights: np.ndarray) -> np.ndarray:
    """Check every row (the last axis) of a float64 array as a probability
    vector and return a renormalized copy.

    A row must be finite, nonnegative and sum to 1 within ``SUM_TOLERANCE``;
    the first failing check raises ``ValueError``. `Simplex` applies exactly
    these checks to its single row.
    """
    # A passing array takes one reduction each for the smallest entry and the
    # extreme sums: NaN fails every comparison, and an infinite entry fails
    # the sum test. Only a failing one is examined again, for its error.
    s = weights.sum(axis=-1)
    low, high = s.min(initial=1.0), s.max(initial=1.0)
    if not (weights.min(initial=np.inf) >= 0.0 and high - 1.0 <= SUM_TOLERANCE and 1.0 - low <= SUM_TOLERANCE):
        if not (weights >= 0.0).all():
            _require_finite(weights)
            raise ValueError(f"simplex weights must be nonnegative, got min {weights.min()}")
        _require_finite(weights)
        bad = np.ravel(s)[np.ravel(np.abs(s - 1.0) > SUM_TOLERANCE)][0]
        raise ValueError(f"simplex weights sum to {bad!r}, expected 1 within {SUM_TOLERANCE}")
    return weights / (s[..., None] if weights.ndim > 1 else s)


def _require_finite(weights: np.ndarray) -> None:
    if not np.isfinite(weights).all():
        raise ValueError("simplex weights must be finite")


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of a (n, k) matrix of probabilities, by
    inverse CDF at the row's uniform `u[i]`."""
    return _inverse_cdf(_partial_sums(probs), u)


def _partial_sums(laws: np.ndarray) -> np.ndarray:
    """The first k - 1 partial sums of each law of a stack, whose last axis
    holds the k entries, as a contiguous array with a leading axis:
    sums[j] = laws[..., 0] + ... + laws[..., j], added left to right, one
    elementwise pass over the stack per column."""
    k = laws.shape[-1]
    sums = np.empty((k - 1, *laws.shape[:-1]))
    if k > 1:
        sums[0] = laws[..., 0]
    for j in range(1, k - 1):
        np.add(sums[j - 1], laws[..., j], out=sums[j])
    return sums


def _inverse_cdf(sums: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The categorical draws from the (k - 1, n) partial sums of n laws over
    k indices at their uniforms `u` (n,): law i draws the number of its
    partial sums at or below `u[i]`, so a u equal to a partial sum (u = 0
    included) draws the next index with mass."""
    return (sums <= u).sum(axis=0)


def _check_size(name: str, size) -> None:
    """A ValueError that names `size` unless it is an integer >= 1 (a bool
    is not)."""
    if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {size!r}")


def _check_count(name: str, value) -> None:
    """A ValueError that names `value` unless it is an integer >= 0 (a bool
    is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


def _check_finite(name: str, value) -> None:
    """A ValueError that names `value` unless it is a finite real number (a
    bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_indices(name: str, index, length: int, size: int) -> np.ndarray:
    """`index` as a 1-d integer array of `length` entries in [0, size); a
    ValueError that names it otherwise."""
    index = np.asarray(index)
    if index.shape != (length,) or index.dtype.kind not in "iu":
        raise ValueError(f"{name} must be {length} integers in a 1-d array, got {index.dtype} {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= size):
        raise ValueError(f"{name} must lie in [0, {size}), got {index.min()}..{index.max()}")
    return index
