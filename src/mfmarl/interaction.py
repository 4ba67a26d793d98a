"""Doubly stochastic interaction matrices and per-agent weighted views.

The matrix entry W(i, j) is the weight agent j carries in agent i's view of
the population. Rows must sum to 1 for the views to be distributions;
columns must also sum to 1 for the population-average cancellation that the
mean-field comparison relies on.

A matrix is stored in one of two forms, chosen by its builder: dense (an
N x N array; `uniform`, `sinkhorn_random`, `load_csv` and the constructor)
or as its nonzeros (`ring_k_neighbor`, `ring_symmetric` and
`InteractionMatrix.from_nonzeros`), which costs O(nnz) memory and view work
instead of O(N^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

VALIDATION_TOL = 1e-9
# `sinkhorn_random` stops once every row and column sum is within
# SINKHORN_TOL of 1, and fails after SINKHORN_MAX_ITERS rounds.
SINKHORN_TOL = 1e-10
SINKHORN_MAX_ITERS = 10_000


@dataclass(frozen=True)
class ValidationReport:
    """Row/column sum deviations and negative entries of a candidate matrix."""

    row_deviation: np.ndarray
    col_deviation: np.ndarray
    min_entry: float
    tol: float
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: max row dev {self.row_deviation.max():.3e}, "
            f"max col dev {self.col_deviation.max():.3e}, min entry {self.min_entry:.3e} "
            f"(tol {self.tol:g})"
        )


class InteractionMatrix:
    """An immutable N x N doubly stochastic weight matrix.

    `weights` is always the dense read-only array; for a matrix stored as its
    nonzeros it is built on first access and cached (N^2 * 8 bytes).
    """

    __slots__ = ("n_agents", "_dense", "_rows", "_cols", "_data")

    def __init__(self, weights):
        self._set_dense(np.array(weights, dtype=np.float64))

    def _set_dense(self, w: np.ndarray) -> None:
        """Validate `w` and take it over as the dense form, without copying."""
        report = validate_doubly_stochastic(w, VALIDATION_TOL)
        _require_valid(report, float(w.max()))
        self._store(w.shape[0], w, None, None, None)

    def _store(self, n_agents: int, dense, rows, cols, data) -> None:
        for name, value in zip(self.__slots__, (n_agents, dense, rows, cols, data)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def _from_dense(cls, w: np.ndarray) -> "InteractionMatrix":
        """Wrap a float64 array that no one else holds (a builder's own)."""
        m = cls.__new__(cls)
        m._set_dense(w)
        return m

    @classmethod
    def from_nonzeros(cls, n: int, rows, cols, data) -> "InteractionMatrix":
        """The matrix with entries W(rows[e], cols[e]) = data[e] and zeros
        elsewhere (repeated positions add up). Validated in O(nnz) with the
        same checks and tolerance as a dense matrix, plus the index range."""
        if n < 1:
            raise ValueError("n must be >= 1")
        arrays = [np.asarray(a) for a in (rows, cols)]
        if any(a.dtype.kind not in "iu" for a in arrays):
            raise ValueError("rows and cols must be integer arrays")
        rows, cols = (a.astype(np.int64) for a in arrays)
        data = np.array(data, dtype=np.float64)
        if not rows.ndim == cols.ndim == data.ndim == 1 or not rows.size == cols.size == data.size:
            raise ValueError("rows, cols and data must be 1-d arrays of one length")
        if data.size == 0:
            raise ValueError("matrix is not doubly stochastic: no nonzeros")
        if min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n:
            raise ValueError(f"nonzero index out of range [0, {n})")
        min_entry = float(data.min())
        if data.size < n * n:
            min_entry = min(min_entry, 0.0)
        report = _report(
            np.bincount(rows, weights=data, minlength=n),
            np.bincount(cols, weights=data, minlength=n),
            min_entry,
            VALIDATION_TOL,
        )
        _require_valid(report, float(data.max()))
        # Row-major order: each agent's entries are one contiguous slice.
        key = rows * n + cols
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            rows, cols, data = rows[order], cols[order], data[order]
        m = cls.__new__(cls)
        m._store(n, None, rows, cols, data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("InteractionMatrix is immutable")

    @property
    def weights(self) -> np.ndarray:
        if self._dense is None:
            w = np.zeros((self.n_agents, self.n_agents))
            np.add.at(w, (self._rows, self._cols), self._data)
            w.flags.writeable = False
            object.__setattr__(self, "_dense", w)
        return self._dense

    @property
    def nonzeros(self):
        """(rows, cols, data) in row-major order for a matrix stored as its
        nonzeros; None for a dense one."""
        if self._data is None:
            return None
        return self._rows, self._cols, self._data

    def views(self, items: np.ndarray, set_size: int) -> np.ndarray:
        """Every agent's weighted view as an (N, set_size) matrix: row i is
        sum_j W(i, j) e_{items[j]}. `items` is not validated."""
        n = self.n_agents
        if self._data is None:
            indicator = np.zeros((n, set_size))
            indicator[np.arange(n), items] = 1.0
            return self._dense @ indicator
        flat = np.bincount(
            self._rows * set_size + items[self._cols], weights=self._data, minlength=n * set_size
        )
        return flat.reshape(n, set_size)

    def save_csv(self, path) -> None:
        np.savetxt(path, self.weights, delimiter=",", fmt="%.17g")

    @classmethod
    def load_csv(cls, path) -> "InteractionMatrix":
        """Read a `save_csv` file; one that is empty, not numeric, ragged or
        not doubly stochastic raises a ValueError that names the file."""
        try:
            with warnings.catch_warnings():
                # numpy only warns on an empty file
                warnings.simplefilter("error", UserWarning)
                return cls(np.loadtxt(path, delimiter=",", ndmin=2))
        except (ValueError, UserWarning) as err:
            raise ValueError(f"interaction matrix {path}: {err}") from None


def _block_diagonal(blocks) -> InteractionMatrix:
    """The matrix with the nonzeros-form matrices `blocks` on its diagonal,
    in order: agent j of block b is agent j + (agents of blocks before b).
    Each agent's row keeps its block's entries in their order."""
    offsets = np.cumsum([0] + [m.n_agents for m in blocks])
    nonzeros = [m.nonzeros for m in blocks]
    rows = np.concatenate([r + off for (r, _, _), off in zip(nonzeros, offsets)])
    cols = np.concatenate([c + off for (_, c, _), off in zip(nonzeros, offsets)])
    data = np.concatenate([d for _, _, d in nonzeros])
    return InteractionMatrix.from_nonzeros(int(offsets[-1]), rows, cols, data)


def uniform(n: int) -> InteractionMatrix:
    """All-pairs interaction with weight 1/n, the exchangeable special case."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return InteractionMatrix._from_dense(np.full((n, n), 1.0 / n))


def _circulant(n: int, offsets) -> InteractionMatrix:
    """Weight 1/k on W(i, (i + off) % n) for each of the k offsets; they must
    be distinct mod n, so every nonzero is exactly 1/k."""
    k = len(offsets)
    rows = np.repeat(np.arange(n), k)
    cols = np.sort((np.arange(n)[:, None] + np.asarray(offsets)) % n, axis=1).ravel()
    return InteractionMatrix.from_nonzeros(n, rows, cols, np.full(rows.size, 1.0 / k))


def ring_k_neighbor(n: int, k: int) -> InteractionMatrix:
    """Circulant matrix with weight 1/k on offsets {1, ..., k} (self excluded
    unless k = n, where offset n wraps onto the diagonal). Stored as its
    n * k nonzeros."""
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return _circulant(n, range(1, k + 1))


def ring_symmetric(n: int, k: int) -> InteractionMatrix:
    """Symmetric circulant with weight 1/k on offsets +-1..+-k/2 (k even).
    Stored as its n * k nonzeros."""
    if k % 2 != 0:
        raise ValueError("symmetric window needs an even neighbor count")
    if not 2 <= k < n:
        raise ValueError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    half = range(1, k // 2 + 1)
    return _circulant(n, [*half, *(-off for off in half)])


def sinkhorn_random(n: int, rng: np.random.Generator) -> InteractionMatrix:
    """Random doubly stochastic matrix by alternating row/column normalization
    of a strictly positive random start, to `SINKHORN_TOL` in at most
    `SINKHORN_MAX_ITERS` rounds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w = rng.uniform(0.1, 1.1, size=(n, n))
    # The row sums of the convergence check are the next normalizer.
    row_sums = w.sum(axis=1, keepdims=True)
    for _ in range(SINKHORN_MAX_ITERS):
        w /= row_sums
        w /= w.sum(axis=0, keepdims=True)
        row_sums = w.sum(axis=1, keepdims=True)
        dev = max(
            np.abs(row_sums - 1.0).max(),
            np.abs(w.sum(axis=0) - 1.0).max(),
        )
        if dev < SINKHORN_TOL:
            return InteractionMatrix._from_dense(w)
    raise RuntimeError(
        f"sinkhorn normalization did not reach {SINKHORN_TOL:g} in {SINKHORN_MAX_ITERS} iterations"
    )


def validate_doubly_stochastic(w, tol: float) -> ValidationReport:
    m = np.asarray(w, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return _report(m.sum(axis=1), m.sum(axis=0), float(m.min()), tol)


def _report(row_sums, col_sums, min_entry: float, tol: float) -> ValidationReport:
    row_dev = np.abs(row_sums - 1.0)
    col_dev = np.abs(col_sums - 1.0)
    passed = bool(row_dev.max() <= tol and col_dev.max() <= tol and min_entry >= -tol)
    return ValidationReport(row_dev, col_dev, min_entry, tol, passed)


def _require_valid(report: ValidationReport, max_entry: float) -> None:
    if not report.passed:
        raise ValueError(f"matrix is not doubly stochastic: {report}")
    if max_entry > 1.0 + VALIDATION_TOL:
        raise ValueError("matrix entries must lie in [0, 1]")
