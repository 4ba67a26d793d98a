"""Doubly stochastic interaction matrices and per-agent weighted views.

The matrix entry W(i, j) is the weight agent j carries in agent i's view of
the population. Rows must sum to 1 for the views to be distributions;
columns must also sum to 1 for the population-average cancellation that the
mean-field comparison relies on.

A matrix is stored in one of two forms, chosen by its builder: dense (an
N x N array in column-major order; `uniform`, `sinkhorn_random` and the
constructor) or as its nonzeros (`ring_k_neighbor` and
`InteractionMatrix.from_nonzeros`), which costs O(nnz) memory and view work
instead of O(N^2). Both forms pass one check (`_require_doubly_stochastic`).
A step loop's views are chosen and formed in one place,
`InteractionMatrix._step_views`: after a few agents changed item, a dense
matrix brings the kept views up to date by a rank-m update, which reads the
movers' columns of W as contiguous rows of W^T, and a matrix stored as its
nonzeros recomputes in place only the rows with a changed in-neighbour,
through a column index built on first use.
"""

from __future__ import annotations

import numpy as np

from .simplex import _check_size

VALIDATION_TOL = 1e-9
# `sinkhorn_random` stops once every row and column sum is within
# SINKHORN_TOL of 1, and fails after SINKHORN_MAX_ITERS rounds.
SINKHORN_TOL = 1e-10
SINKHORN_MAX_ITERS = 10_000

# On a dense W of at least `_UPDATE_MIN_AGENTS` agents, of which at most
# `_UPDATE_SHARE` moved, a step loop updates its views by the movers' columns
# (`_rank_update`), `_UPDATE_CHUNK` at a time (1 MiB at 4000 agents). W is
# column-major, so each column is one contiguous read. Timed on one BLAS
# thread, q = 10, Sinkhorn W (min of 15-200 calls; a range where two runs
# differed):
#
#     N      full product   update, 5 moved   N/8 moved    N/4 moved    N/2 moved
#     128    14-17 us       11-16 us          11-16 us     13 us        21 us
#     192    20-26 us       10-11 us          14 us        22 us        34 us
#     400    139-141 us     14-20 us          34-47 us     60-64 us     106-107 us
#     2000   4.0-4.1 ms     0.04 ms           0.61 ms      1.19-1.20 ms 2.4-2.6 ms
#     4000   15.6-16.2 ms   0.07-0.10 ms      4.5-5.7 ms   8.9-9.0 ms   17.3-19.3 ms
#
# From 400 agents on, N/4 movers cost 0.3-0.6 of the product, and N/2 cost
# more than the product at 4000 agents. From 128 to 192 agents the update
# at N/4 and the product cost about the same (within the spread of runs), so
# the floor stays at 200.
_UPDATE_MIN_AGENTS = 200
_UPDATE_SHARE = 1 / 4
_UPDATE_CHUNK = 32

# A step loop on a W stored as its nonzeros, of at least `_ROWS_MIN_AGENTS`
# agents of which at most `_ROWS_SHARE` moved, recomputes only the view rows
# with a moved in-neighbour (`InteractionMatrix._refresh_rows`); otherwise it
# takes the full `bincount`. Timed with the bitwise diff of the changed rows,
# on one thread, ring-5 W, q = 10, glibc's mmap threshold at 1 MiB (min of
# 9, three draws of movers; the full `bincount` varied the most):
#
#     N      full bincount    rows, 4 moved   N/64 moved    N/32 moved    N/16 moved
#     1000   66 us            58 us           70 us         88-91 us      113-118 us
#     2000   115-155 us       57 us           90-94 us      124-128 us    117-191 us
#     4000   168-319 us       35 us           83 us         130-137 us    222-232 us
#     10^4   0.46-1.2 ms      37-63 us        166-175 us    0.36-0.50 ms  1.0-1.3 ms
#     10^5   11.5-13.4 ms     89-127 us       2.9-3.9 ms    5.7-6.6 ms    12.9-13.3 ms
#
# Below about 2000 agents the rows' fixed cost leaves little to win; at N/16
# movers the rows cost about as much as the full `bincount`.
_ROWS_MIN_AGENTS = 2000
_ROWS_SHARE = 1 / 64


class InteractionMatrix:
    """An immutable N x N doubly stochastic weight matrix.

    `weights` is always the dense read-only array. A dense matrix keeps it in
    column-major (Fortran) order, so `weights.T` is W^T, C-contiguous, and a
    column of W is a contiguous row of it. For a matrix stored as its
    nonzeros it is built on first access and cached (N^2 * 8 bytes).
    """

    __slots__ = ("n_agents", "_dense", "_rows", "_cols", "_data", "_pointers")

    def __init__(self, weights):
        self._set_dense(np.array(weights, dtype=np.float64, order="F"))

    def _set_dense(self, w: np.ndarray) -> None:
        """Validate `w`, column-major, and take it over as the dense form,
        without copying."""
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"matrix must be square, got shape {w.shape}")
        if w.size == 0:
            raise ValueError("interaction matrix needs at least one agent, got shape (0, 0)")
        _require_doubly_stochastic(w.sum(axis=1), w.sum(axis=0), float(w.min()), float(w.max()))
        self._store(w.shape[0], w, None, None, None)

    def _store(self, n_agents: int, dense, rows, cols, data) -> None:
        for name, value in zip(self.__slots__, (n_agents, dense, rows, cols, data, None)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def _from_dense(cls, w: np.ndarray) -> "InteractionMatrix":
        """Wrap a column-major float64 array that no one else holds (a
        builder's own)."""
        m = cls.__new__(cls)
        m._set_dense(w)
        return m

    @classmethod
    def from_nonzeros(cls, n: int, rows, cols, data) -> "InteractionMatrix":
        """The matrix with entries W(rows[e], cols[e]) = data[e] and zeros
        elsewhere (repeated positions add up). Validated in O(nnz) with the
        same checks and tolerance as a dense matrix, plus the index range."""
        _check_size("n", n)
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
        _require_doubly_stochastic(
            np.bincount(rows, weights=data, minlength=n),
            np.bincount(cols, weights=data, minlength=n),
            min_entry,
            float(data.max()),
        )
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

    def __reduce__(self):
        # Built anew in its storage form (a dense W column-major): validated,
        # its arrays read-only.
        if self._data is None:
            return type(self), (self._dense,)
        return type(self).from_nonzeros, (self.n_agents, self._rows, self._cols, self._data)

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
        """Every agent's weighted view as a C-contiguous (N, set_size)
        matrix: row i is sum_j W(i, j) e_{items[j]}. `items` is not
        validated."""
        n = self.n_agents
        if self._data is None:
            # (E^T W^T)^T, E the one-hot items: the product reads W^T, which
            # is C-contiguous, by rows.
            onehot = np.zeros((set_size, n))
            onehot[items, np.arange(n)] = 1.0
            return np.ascontiguousarray((onehot @ self._dense.T).T)
        flat = np.bincount(
            self._rows * set_size + items[self._cols], weights=self._data, minlength=n * set_size
        )
        return flat.reshape(n, set_size)

    def _step_views(self, views, old_items, items, set_size: int) -> tuple[np.ndarray, np.ndarray | None]:
        """A step's views of `items`, given `views`, those of `old_items`, and
        the rows whose item or view changed bitwise, sorted: the one place
        where a step chooses how to form them. `views` None (a loop's first
        step, or no record): `self.views` and None, meaning every row. No
        item changed: `views` and no row. At most `_ROWS_SHARE` of at least
        `_ROWS_MIN_AGENTS` agents moved on a W stored as its nonzeros:
        `views`, updated in place by `_refresh_rows`, bitwise equal to
        `self.views`. At most `_UPDATE_SHARE` of at least `_UPDATE_MIN_AGENTS`
        on a dense W: `_rank_update`. Otherwise `self.views`."""
        if views is None:
            return self.views(items, set_size), None
        changed = items != old_items
        moved = np.flatnonzero(changed)
        if not moved.size:
            return views, moved
        n = self.n_agents
        if self._data is not None and n >= _ROWS_MIN_AGENTS and moved.size <= _ROWS_SHARE * n:
            return views, np.union1d(moved, self._refresh_rows(views, moved, items, set_size))
        if self._data is None and n >= _UPDATE_MIN_AGENTS and moved.size <= _UPDATE_SHARE * n:
            new = self._rank_update(views, moved, old_items, items, set_size)
        else:
            new = self.views(items, set_size)
        # A gather of the differing entries' rows: `.any(axis=1)` over rows
        # of |X| entries takes about twice as long at 4000 agents.
        changed[np.flatnonzero(new.view(np.int64) != views.view(np.int64)) // set_size] = True
        return new, np.flatnonzero(changed)

    def _rank_update(self, views, moved, old_items, items, set_size: int) -> np.ndarray:
        """`views`, those of `old_items`, brought to `items` on a dense W as
        a new array `views + W[:, moved] @ (E_new - E_old)`, E the movers'
        one-hot items, clamped at 0 so that an emptied state reads no entry
        below 0. It reads m columns of W, each a contiguous row of W^T,
        instead of N^2 entries, and rounds each entry once more than the
        product: after k updates in a row the views are within k * eps of
        `self.views` (measured; tests gate (k + 1) * eps)."""
        delta = np.zeros((moved.size, set_size))
        rows = np.arange(moved.size)
        delta[rows, items[moved]] = 1.0
        delta[rows, old_items[moved]] = -1.0
        out = views.copy()
        w_t = self._dense.T  # W^T, C-contiguous: a mover's column is a row
        for start in range(0, moved.size, _UPDATE_CHUNK):
            chunk = slice(start, start + _UPDATE_CHUNK)
            out += w_t[moved[chunk]].T @ delta[chunk]
        return np.maximum(out, 0.0, out=out)

    def _refresh_rows(self, views, moved, items, set_size: int) -> np.ndarray:
        """Recompute in place the rows of `views` that have an agent of
        `moved` as in-neighbour, and return those whose bits changed. One
        `bincount` runs over those rows' nonzeros in row-major order, so
        each entry sums its terms in the order `views` sums them."""
        row_ptr, col_ptr, col_rows = self._index()
        rows = np.unique(col_rows[_ranges(col_ptr[moved], col_ptr[moved + 1])])
        starts, ends = row_ptr[rows], row_ptr[rows + 1]
        entries = _ranges(starts, ends)
        bins = np.repeat(np.arange(0, rows.size * set_size, set_size), ends - starts)
        bins += items[self._cols[entries]]
        fresh = np.bincount(bins, weights=self._data[entries], minlength=rows.size * set_size)
        fresh = fresh.reshape(rows.size, set_size)
        differ = (fresh.view(np.int64) != views[rows].view(np.int64)).any(axis=1)
        views[rows[differ]] = fresh[differ]
        return rows[differ]

    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row_ptr, col_ptr, col_rows) of a matrix stored as its nonzeros:
        row i's entries are [row_ptr[i], row_ptr[i + 1]) of `nonzeros`, and
        the rows with an entry in column j are col_rows[col_ptr[j]:col_ptr[j
        + 1]]. Built on first use and cached; two threads that build it at
        once build the same arrays."""
        if self._pointers is None:
            n = self.n_agents
            row_ptr, col_ptr = (
                np.concatenate(([0], np.bincount(a, minlength=n).cumsum())) for a in (self._rows, self._cols)
            )
            col_rows = self._rows[np.argsort(self._cols, kind="stable")]
            for a in (row_ptr, col_ptr, col_rows):
                a.flags.writeable = False
            object.__setattr__(self, "_pointers", (row_ptr, col_ptr, col_rows))
        return self._pointers


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[k], ends[k]), in order."""
    lengths = ends - starts
    return np.repeat(starts - lengths.cumsum() + lengths, lengths) + np.arange(lengths.sum())


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
    _check_size("n", n)
    return InteractionMatrix._from_dense(np.full((n, n), 1.0 / n, order="F"))


def ring_k_neighbor(n: int, k: int) -> InteractionMatrix:
    """Circulant matrix with weight 1/k on offsets {1, ..., k} (self excluded
    unless k = n, where offset n wraps onto the diagonal). Stored as its
    n * k nonzeros."""
    _check_size("n", n)
    _check_size("k", k)
    if k > n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    rows = np.repeat(np.arange(n), k)
    cols = np.sort((np.arange(n)[:, None] + np.arange(1, k + 1)) % n, axis=1).ravel()
    return InteractionMatrix.from_nonzeros(n, rows, cols, np.full(rows.size, 1.0 / k))


def sinkhorn_random(n: int, rng: np.random.Generator) -> InteractionMatrix:
    """Random doubly stochastic matrix by alternating row/column normalization
    of a strictly positive random start K, to `SINKHORN_TOL` in at most
    `SINKHORN_MAX_ITERS` rounds.

    The loop tracks only the scaling vectors of W = diag(r) K diag(c)
    (Sinkhorn & Knopp, 1967): from c = 1, each round sets r = 1 / (K c) and
    c = 1 / (r K), two matrix-vector products over K. Its column sums are
    then 1 by construction, so the stop check reads the row sums alone,
    |r * (K c) - 1| < `SINKHORN_TOL`, and its K c is the next round's. K is
    scaled into W in place once, after the loop, transposed in place into
    column-major order and validated like any dense matrix. W agrees with
    alternately normalizing the full array to a few eps, not bit for bit."""
    _check_size("n", n)
    w = rng.uniform(0.1, 1.1, size=(n, n))
    kc = w @ np.ones(n)
    for _ in range(SINKHORN_MAX_ITERS):
        r = 1.0 / kc
        c = 1.0 / (r @ w)
        kc = w @ c
        if np.abs(r * kc - 1.0).max() < SINKHORN_TOL:
            w *= r[:, None]
            w *= c
            _transpose_in_place(w)
            return InteractionMatrix._from_dense(w.T)
    raise RuntimeError(
        f"sinkhorn normalization did not reach {SINKHORN_TOL:g} in {SINKHORN_MAX_ITERS} iterations"
    )


def _transpose_in_place(a: np.ndarray) -> None:
    """Transpose the square C-ordered `a` in place, so that `a.T` holds the
    matrix in column-major order, by swapping 256 x 256 tiles through one
    buffer. The tiles stay in cache, and they are few: each numpy call
    releases the GIL and may wait to win it back from another thread."""
    n = a.shape[0]
    tile = min(n, 256)
    buf = np.empty((tile, tile))
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            upper, lower = a[i : i + tile, j : j + tile], a[j : j + tile, i : i + tile]
            saved = buf[: upper.shape[0], : upper.shape[1]]
            np.copyto(saved, upper)
            if i != j:
                upper[...] = lower.T
            lower[...] = saved.T


def _require_doubly_stochastic(row_sums, col_sums, min_entry: float, max_entry: float) -> None:
    """A ValueError unless every row and column sum is within
    `VALIDATION_TOL` of 1, the smallest entry `min_entry` is at least
    -`VALIDATION_TOL` and the largest `max_entry` at most
    1 + `VALIDATION_TOL`. The message names the largest row and column
    deviations and the smallest entry."""
    row_dev = np.abs(row_sums - 1.0).max()
    col_dev = np.abs(col_sums - 1.0).max()
    if not (row_dev <= VALIDATION_TOL and col_dev <= VALIDATION_TOL and min_entry >= -VALIDATION_TOL):
        raise ValueError(
            f"matrix is not doubly stochastic: max row dev {row_dev:.3e}, max col dev {col_dev:.3e}, "
            f"min entry {min_entry:.3e} (tol {VALIDATION_TOL:g})"
        )
    if max_entry > 1.0 + VALIDATION_TOL:
        raise ValueError("matrix entries must lie in [0, 1]")
