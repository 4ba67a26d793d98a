import numpy as np
import pytest

from oracles import (
    changed_rows,
    empirical_distribution,
    irregular_matrix,
    l1_distance,
    ring_symmetric,
    weighted_view,
)
from mfmarl import interaction
from mfmarl.interaction import InteractionMatrix, ring_k_neighbor, sinkhorn_random, uniform
from mfmarl.simplex import Simplex


def dense_ring(n, k):
    """The dense construction ring_k_neighbor used before it stored nonzeros."""
    w = np.zeros((n, n))
    for off in range(1, k + 1):
        w[np.arange(n), (np.arange(n) + off) % n] += 1.0 / k
    return w


def assert_doubly_stochastic(w, tol):
    """Every row and column sum of the dense array `w` is within `tol` of 1,
    and no entry is below -tol."""
    assert np.abs(w.sum(axis=1) - 1.0).max() <= tol
    assert np.abs(w.sum(axis=0) - 1.0).max() <= tol
    assert w.min() >= -tol


def dense_ring_symmetric(n, k):
    w = np.zeros((n, n))
    for off in range(1, k // 2 + 1):
        w[np.arange(n), (np.arange(n) + off) % n] += 1.0 / k
        w[np.arange(n), (np.arange(n) - off) % n] += 1.0 / k
    return w


def sinkhorn_four_sums(n, rng, tol=1e-10):
    """Reference Sinkhorn loop: normalize the full array, then recompute both
    sums to check. Returns W and the number of rounds it took."""
    w = rng.uniform(0.1, 1.1, size=(n, n))
    rounds = 0
    while True:
        rounds += 1
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
        if max(np.abs(w.sum(axis=1) - 1.0).max(), np.abs(w.sum(axis=0) - 1.0).max()) < tol:
            return w, rounds


class TestConstructors:
    def test_uniform(self):
        assert uniform(2).weights.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert uniform(1).weights.tolist() == [[1.0]]
        with pytest.raises(ValueError):
            uniform(0)

    def test_uniform_validates(self):
        for n in (1, 2, 7, 40):
            assert_doubly_stochastic(uniform(n).weights, 1e-12)

    def test_ring_row(self):
        assert ring_k_neighbor(4, 2).weights[0].tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_ring_full_neighborhood_is_uniform(self):
        assert np.array_equal(ring_k_neighbor(3, 3).weights, uniform(3).weights)

    def test_ring_column_sums(self):
        w = ring_k_neighbor(6, 5).weights
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-15)

    def test_ring_validates_tightly(self):
        assert_doubly_stochastic(ring_k_neighbor(10, 5).weights, 1e-12)

    def test_ring_bad_k(self):
        with pytest.raises(ValueError):
            ring_k_neighbor(4, 0)
        with pytest.raises(ValueError):
            ring_k_neighbor(4, 5)

    def test_ring_symmetric(self):
        w = ring_symmetric(8, 4).weights
        assert_doubly_stochastic(w, 1e-12)
        assert np.array_equal(w, w.T)
        with pytest.raises(ValueError):
            ring_symmetric(8, 3)

    def test_sinkhorn(self):
        w = sinkhorn_random(12, np.random.default_rng(0))
        assert_doubly_stochastic(w.weights, 1e-9)
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

    def test_sinkhorn_equals_four_sum_loop(self, monkeypatch):
        # The scaling-vector loop takes the reference's rounds and rounds
        # differently: entries within 32 eps of it relative to the largest
        # (17 eps was the worst measured, over n = 1..39, 60, 100, 200, 400
        # and 1000), and its sums within the stop tolerance plus n eps.
        eps = np.finfo(np.float64).eps
        for n, seed in ((1, 0), (2, 3), (9, 1), (60, 2), (400, 4)):
            ref, rounds = sinkhorn_four_sums(n, np.random.default_rng(seed))
            monkeypatch.setattr(interaction, "SINKHORN_MAX_ITERS", rounds - 1)
            with pytest.raises(RuntimeError):
                sinkhorn_random(n, np.random.default_rng(seed))
            monkeypatch.setattr(interaction, "SINKHORN_MAX_ITERS", rounds)
            w = sinkhorn_random(n, np.random.default_rng(seed)).weights
            assert np.abs(w - ref).max() <= 32 * eps * ref.max()
            sum_tol = interaction.SINKHORN_TOL + n * eps
            assert np.abs(w.sum(axis=1) - 1.0).max() <= sum_tol
            assert np.abs(w.sum(axis=0) - 1.0).max() <= sum_tol

    def test_sinkhorn_fails_when_rounds_run_out(self, monkeypatch):
        assert sinkhorn_four_sums(60, np.random.default_rng(2))[1] >= 2
        monkeypatch.setattr(interaction, "SINKHORN_MAX_ITERS", 1)
        with pytest.raises(RuntimeError, match=f"did not reach {interaction.SINKHORN_TOL:g} in 1 "):
            sinkhorn_random(60, np.random.default_rng(2))


def both_forms(m):
    """The two builds of the square array `m`, as callables: dense, and
    from its nonzeros. Both run one check."""
    m = np.asarray(m, dtype=np.float64)
    rows, cols = np.nonzero(m)
    return [lambda: InteractionMatrix(m), lambda: InteractionMatrix.from_nonzeros(len(m), rows, cols, m[rows, cols])]


class TestValidation:
    def test_pass(self):
        for build in both_forms(uniform(5).weights):
            assert np.array_equal(build().weights, uniform(5).weights)

    def test_fail_columns(self):
        for build in both_forms([[1.0, 0.0], [1.0, 0.0]]):
            with pytest.raises(
                ValueError,
                match=r"not doubly stochastic: max row dev 0\.000e\+00, max col dev 1\.000e\+00, "
                r"min entry 0\.000e\+00 \(tol 1e-09\)",
            ):
                build()

    def test_non_square(self):
        with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
            InteractionMatrix(np.ones((2, 3)))

    def test_negative_entry(self):
        for build in both_forms([[1.1, -0.1], [-0.1, 1.1]]):
            with pytest.raises(ValueError, match=r"max row dev 0\.000e\+00, .* min entry -1\.000e-01"):
                build()

    def test_entry_above_one_is_rejected(self):
        # Sums of 1 and a smallest entry within the tolerance, but a
        # diagonal entry 1.8e-9 above 1.
        m = np.full((3, 3), -0.9e-9) + np.eye(3) * (1.0 + 2.7e-9)
        for build in both_forms(m):
            with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
                build()

    def test_empty_matrix_names_the_missing_agent(self):
        with pytest.raises(ValueError, match="interaction matrix needs at least one agent"):
            InteractionMatrix(np.zeros((0, 0)))


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


class TestUpdatedViews:
    N = interaction._UPDATE_MIN_AGENTS

    def moved(self, items, agents, size):
        new = items.copy()
        new[agents] = (new[agents] + 1) % size
        return new

    def test_no_change_hands_the_views_on(self):
        rng = np.random.default_rng(60)
        for w in (ring_k_neighbor(self.N, 5), sinkhorn_random(self.N, rng)):
            items = rng.integers(0, 4, size=self.N)
            views = w.views(items, 4)
            assert w.updated_views(views, items, items.copy(), 4) is views

    def test_few_movers_on_dense_w_read_their_columns(self, monkeypatch):
        rng = np.random.default_rng(61)
        w = sinkhorn_random(self.N, rng)
        items = rng.integers(0, 4, size=self.N)
        views = w.views(items, 4)
        kept = views.copy()
        new = self.moved(items, rng.choice(self.N, int(interaction._UPDATE_SHARE * self.N), replace=False), 4)
        expected = w.views(new, 4)
        monkeypatch.setattr(InteractionMatrix, "views", None)  # the update must not call it
        out = w.updated_views(views, items, new, 4)
        assert np.array_equal(views, kept)  # a new array; the kept views stay
        assert np.abs(out - expected).max() <= np.finfo(float).eps
        assert out.min() >= 0.0

    def test_full_product_otherwise(self):
        # Ring W, too many movers, or too few agents: the update is the full
        # product, bit for bit.
        rng = np.random.default_rng(62)
        share = interaction._UPDATE_SHARE
        cases = [
            (ring_k_neighbor(self.N, 5), 1),
            (sinkhorn_random(self.N, rng), int(share * self.N) + 1),
            (sinkhorn_random(self.N - 1, rng), 1),
        ]
        for w, movers in cases:
            items = rng.integers(0, 4, size=w.n_agents)
            new = self.moved(items, rng.choice(w.n_agents, movers, replace=False), 4)
            assert np.array_equal(w.updated_views(w.views(items, 4), items, new, 4), w.views(new, 4))

    def test_an_emptied_state_reads_zero_not_below(self):
        # Every agent in state 3 leaves it: its column is the rounding of a
        # sum back to 0, clamped at 0.
        rng = np.random.default_rng(63)
        w = sinkhorn_random(self.N, rng)
        items = rng.integers(0, 3, size=self.N)
        items[rng.choice(self.N, 20, replace=False)] = 3
        views = w.views(items, 4)
        out = w.updated_views(views, items, np.minimum(items, 2), 4)
        assert out.min() >= 0.0
        assert np.abs(out[:, 3]).max() <= np.finfo(float).eps


class TestStepViews:
    """`_step_views` on a W stored as its nonzeros: few movers above the
    size floor update the kept views in place, bitwise equal to the full
    `bincount`, and list the rows a bitwise diff lists."""

    N = interaction._ROWS_MIN_AGENTS

    @pytest.mark.parametrize(
        "make_w",
        [lambda rng: ring_k_neighbor(TestStepViews.N, 5), lambda rng: irregular_matrix(TestStepViews.N + 7, rng)],
        ids=["ring", "irregular"],
    )
    def test_few_movers_update_their_in_neighbours_rows(self, make_w):
        rng = np.random.default_rng(64)
        w = make_w(rng)
        n, most = w.n_agents, int(interaction._ROWS_SHARE * w.n_agents)
        items = rng.integers(0, 4, size=n)
        views = w.views(items, 4)
        for movers in (1, 2, 5, most, most, 1):
            new = items.copy()
            # A mover may draw its old item again: it then moves nowhere.
            new[rng.choice(n, movers, replace=False)] = rng.integers(0, 4, size=movers)
            before = views.copy()
            out, changed = w._step_views(views, items, new, 4)
            assert out is views
            assert np.array_equal(out.view(np.int64), w.views(new, 4).view(np.int64))
            expected = changed_rows(items, before, new, out)
            assert np.array_equal(changed, expected) and changed.dtype.kind == "i"
            items = new

    def test_no_mover_lists_no_row_and_many_take_the_full_bincount(self):
        rng = np.random.default_rng(65)
        w = ring_k_neighbor(self.N, 5)
        items = rng.integers(0, 4, size=self.N)
        views = w.views(items, 4)
        out, changed = w._step_views(views, items, items.copy(), 4)
        assert out is views and changed.size == 0
        new = items.copy()
        many = int(interaction._ROWS_SHARE * self.N) + 1
        new[:many] = (new[:many] + 1) % 4
        out, changed = w._step_views(views, items, new, 4)
        assert out is not views and np.array_equal(out, w.views(new, 4))
        assert np.array_equal(changed, changed_rows(items, views, new, out))
