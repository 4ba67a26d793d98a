import re

import numpy as np
import pytest

from oracles import empirical_distribution, l1_distance, weighted_view
from mfmarl.interaction import (
    InteractionMatrix,
    ring_k_neighbor,
    ring_symmetric,
    sinkhorn_random,
    uniform,
    validate_doubly_stochastic,
)
from mfmarl.simplex import Simplex


def dense_ring(n, k):
    """The dense construction ring_k_neighbor used before it stored nonzeros."""
    w = np.zeros((n, n))
    for off in range(1, k + 1):
        w[np.arange(n), (np.arange(n) + off) % n] += 1.0 / k
    return w


def dense_ring_symmetric(n, k):
    w = np.zeros((n, n))
    for off in range(1, k // 2 + 1):
        w[np.arange(n), (np.arange(n) + off) % n] += 1.0 / k
        w[np.arange(n), (np.arange(n) - off) % n] += 1.0 / k
    return w


def sinkhorn_four_sums(n, rng, tol=1e-10):
    """Reference Sinkhorn loop: normalize, then recompute both sums to check."""
    w = rng.uniform(0.1, 1.1, size=(n, n))
    while True:
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
        if max(np.abs(w.sum(axis=1) - 1.0).max(), np.abs(w.sum(axis=0) - 1.0).max()) < tol:
            return w


class TestConstructors:
    def test_uniform(self):
        assert uniform(2).weights.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert uniform(1).weights.tolist() == [[1.0]]
        with pytest.raises(ValueError):
            uniform(0)

    def test_uniform_validates(self):
        for n in (1, 2, 7, 40):
            assert validate_doubly_stochastic(uniform(n).weights, 1e-12).passed

    def test_ring_row(self):
        assert ring_k_neighbor(4, 2).weights[0].tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_ring_full_neighborhood_is_uniform(self):
        assert np.array_equal(ring_k_neighbor(3, 3).weights, uniform(3).weights)

    def test_ring_column_sums(self):
        w = ring_k_neighbor(6, 5).weights
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-15)

    def test_ring_validates_tightly(self):
        assert validate_doubly_stochastic(ring_k_neighbor(10, 5).weights, 1e-12).passed

    def test_ring_bad_k(self):
        with pytest.raises(ValueError):
            ring_k_neighbor(4, 0)
        with pytest.raises(ValueError):
            ring_k_neighbor(4, 5)

    def test_ring_symmetric(self):
        w = ring_symmetric(8, 4).weights
        assert validate_doubly_stochastic(w, 1e-12).passed
        assert np.array_equal(w, w.T)
        with pytest.raises(ValueError):
            ring_symmetric(8, 3)

    def test_sinkhorn(self):
        w = sinkhorn_random(12, np.random.default_rng(0))
        assert validate_doubly_stochastic(w.weights, 1e-9).passed
        assert w.weights.min() > 0

    def test_constructor_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            InteractionMatrix([[0.9, 0.0], [0.0, 0.9]])


class TestNonzeroStorage:
    def test_ring_weights_equal_dense_construction(self):
        for n in (1, 2, 3, 5, 8, 31):
            for k in range(1, n + 1):
                w = ring_k_neighbor(n, k)
                assert w.nonzeros is not None and w.nonzeros[0].size == n * k
                assert np.array_equal(w.weights, dense_ring(n, k))
            for k in range(2, n, 2):
                assert np.array_equal(ring_symmetric(n, k).weights, dense_ring_symmetric(n, k))

    def test_full_ring_wraps_onto_diagonal(self):
        w = ring_k_neighbor(4, 4).weights
        assert np.array_equal(np.diag(w), np.full(4, 0.25))

    def test_weights_are_cached_and_read_only(self):
        w = ring_k_neighbor(6, 2)
        dense = w.weights
        assert w.weights is dense
        assert not dense.flags.writeable
        assert not any(a.flags.writeable for a in w.nonzeros)

    def test_dense_builders_have_no_nonzeros(self):
        for w in (uniform(4), sinkhorn_random(4, np.random.default_rng(0)), InteractionMatrix(np.eye(3))):
            assert w.nonzeros is None

    def test_views_equal_dense_views(self):
        # Each nonzero is 1/k, and for k <= 5 a sum of up to k copies of
        # 1/k rounds the same in every order, so the sparse views equal the
        # BLAS product bit for bit whatever its summation order.
        rng = np.random.default_rng(21)
        mats = [ring_k_neighbor(n, k) for n in (5, 40, 700) for k in range(1, 6)]
        mats += [ring_symmetric(n, 4) for n in (5, 40, 700)]
        for w in mats:
            dense = InteractionMatrix(w.weights)
            assert dense.nonzeros is None
            for size in (2, 10):
                items = rng.integers(0, size, size=w.n_agents)
                assert np.array_equal(w.views(items, size), dense.views(items, size))

    def test_single_view_equals_dense_view(self):
        # The sparse views sum each row in column order, as the reference
        # does over the dense row, so they agree bit for bit for any k.
        rng = np.random.default_rng(22)
        for w in (ring_k_neighbor(50, 7), ring_symmetric(50, 6)):
            dense = InteractionMatrix(w.weights)
            items = rng.integers(0, 4, size=50)
            views = w.views(items, 4)
            for i in range(50):
                assert np.array_equal(Simplex(views[i]).weights, weighted_view(dense, i, items, 4).weights)

    def test_from_nonzeros_sorts_and_sums_repeats(self):
        w = InteractionMatrix.from_nonzeros(2, [1, 0, 1, 0], [0, 1, 0, 1], [0.5, 1.0, 0.5, 0.0])
        assert w.weights.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert w.nonzeros[0].tolist() == [0, 0, 1, 1]
        assert w.views(np.array([0, 1]), 2)[1].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "rows, cols, data",
        [
            ([0, 1], [0, 1], [0.9, 1.0]),  # row and column 0 sum to 0.9
            ([0, 0, 1], [0, 1, 1], [0.5, 0.5, 1.0]),  # column sums 0.5 and 1.5
            ([0, 0, 1, 1], [0, 1, 0, 1], [1.5, -0.5, -0.5, 1.5]),  # negative and > 1
            ([0, 0, 1, 1], [0, 1, 0, 1], [1.0 + 2e-9, -2e-9, -2e-9, 1.0 + 2e-9]),
            ([0, 2], [1, 0], [1.0, 1.0]),  # row index out of range
            ([0, 1], [1, -1], [1.0, 1.0]),  # negative column index
            ([0.0, 1.0], [1, 0], [1.0, 1.0]),  # non-integer indices
            ([0, 1], [1], [1.0, 1.0]),  # length mismatch
            ([], [], []),
        ],
    )
    def test_from_nonzeros_rejects(self, rows, cols, data):
        with pytest.raises(ValueError):
            InteractionMatrix.from_nonzeros(2, np.array(rows), np.array(cols), data)

    def test_from_nonzeros_accepts_within_tolerance(self):
        w = InteractionMatrix.from_nonzeros(2, [0, 1], [1, 0], [1.0 + 5e-10, 1.0 - 5e-10])
        assert w.n_agents == 2

    def test_sinkhorn_equals_four_sum_loop(self):
        for n, seed in ((1, 0), (9, 1), (60, 2)):
            w = sinkhorn_random(n, np.random.default_rng(seed))
            assert np.array_equal(w.weights, sinkhorn_four_sums(n, np.random.default_rng(seed)))


class TestValidation:
    def test_pass(self):
        assert validate_doubly_stochastic(uniform(5).weights, 1e-12).passed

    def test_fail_columns(self):
        report = validate_doubly_stochastic([[1.0, 0.0], [1.0, 0.0]], 1e-9)
        assert not report.passed
        assert report.col_deviation.tolist() == [1.0, 1.0]
        assert report.row_deviation.max() == 0.0

    def test_non_square(self):
        with pytest.raises(ValueError):
            validate_doubly_stochastic(np.ones((2, 3)), 1e-9)

    def test_negative_entry(self):
        m = [[1.1, -0.1], [-0.1, 1.1]]
        assert not validate_doubly_stochastic(m, 1e-9).passed


class TestWeightedView:
    def test_uniform_collapses_to_empirical(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, size = int(rng.integers(2, 12)), int(rng.integers(2, 6))
            items = rng.integers(0, size, size=n)
            w = uniform(n)
            emp = empirical_distribution(items, size)
            views = w.views(items, size)
            for i in range(n):
                assert l1_distance(Simplex(views[i]), emp) <= 1e-12

    def test_identity_rows_give_point_mass(self):
        w = InteractionMatrix(np.eye(4))
        items = np.array([2, 0, 1, 2])
        views = w.views(items, 3)
        for i in range(4):
            assert views[i][items[i]] == 1.0

    def test_ring_example(self):
        w = ring_k_neighbor(4, 2)
        view = w.views(np.array([0, 1, 1, 0]), 2)[0]
        assert view.tolist() == [0.0, 1.0]

    def test_errors(self):
        w = uniform(3)
        with pytest.raises(ValueError):
            weighted_view(w, 3, [0, 0, 0], 2)
        with pytest.raises(ValueError):
            weighted_view(w, 0, [0, 0], 2)
        with pytest.raises(ValueError):
            weighted_view(w, 0, [0, 0, 5], 2)

    def test_average_view_equals_empirical(self):
        # Column sums being 1 makes the agent-average of views the
        # population empirical distribution, for any items vector.
        rng = np.random.default_rng(9)
        mats = [uniform(9), ring_k_neighbor(9, 4), sinkhorn_random(9, rng)]
        for w in mats:
            for _ in range(25):
                items = rng.integers(0, 4, size=9)
                views = w.views(items, 4)
                emp = empirical_distribution(items, 4).weights
                assert np.abs(views.mean(axis=0) - emp).sum() <= 1e-12

    def test_views_all_matches_scalar(self):
        rng = np.random.default_rng(4)
        w = sinkhorn_random(7, rng)
        items = rng.integers(0, 3, size=7)
        views = w.views(items, 3)
        for i in range(7):
            assert np.allclose(views[i], weighted_view(w, i, items, 3).weights, atol=1e-15)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        w = sinkhorn_random(6, np.random.default_rng(3))
        path = tmp_path / "w.csv"
        w.save_csv(path)
        loaded = InteractionMatrix.load_csv(path)
        assert np.array_equal(loaded.weights, w.weights)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("", "no data"),
            ("0.5,a\n0.5,0.5\n", "could not convert"),
            ("0.5,0.5\n1\n", "number of columns"),
            ("0.5,0.2\n0.5,0.5\n", "not doubly stochastic"),
        ],
        ids=["empty", "non-numeric", "ragged", "not-doubly-stochastic"],
    )
    def test_bad_csv_names_the_file(self, tmp_path, text, reason):
        path = tmp_path / "w.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"interaction matrix {re.escape(str(path))}: .*{reason}"):
            InteractionMatrix.load_csv(path)
