import copy
import pickle

import numpy as np
import pytest

from oracles import empirical_distribution, expectation, inverse_cdf, l1_distance, point_mass
from mfmarl.meanfield import mf_path
from mfmarl.model import FirmModelConfig, build_firm_env
from mfmarl.policy import PolicyConfig, SoftmaxPolicy, init_params
from mfmarl.simplex import Simplex, _inverse_cdf, _partial_sums, sample_rows


def draw(p: Simplex, n: int, rng) -> np.ndarray:
    """`n` i.i.d. indices distributed as `p`, drawn the way the harness draws
    a cell's initial states."""
    return sample_rows(np.broadcast_to(p.weights, (n, len(p))), rng.random(n))


class TestSimplexConstruction:
    def test_valid(self):
        s = Simplex([0.25, 0.75])
        assert s.weights.sum() == 1.0
        assert len(s) == 2

    def test_renormalizes_small_drift(self):
        s = Simplex([0.5, 0.5 + 5e-10])
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError, match="sum"):
            Simplex([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Simplex([1.1, -0.1])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Simplex([])
        with pytest.raises(ValueError):
            Simplex([np.nan, 1.0])

    def test_immutable(self):
        s = Simplex([0.5, 0.5])
        with pytest.raises(AttributeError):
            s.weights = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            s.weights[0] = 1.0

    def test_pickle_and_copies_keep_the_weights_bit_for_bit(self):
        s = Simplex(np.random.default_rng(0).dirichlet(np.ones(7)))
        # Building anew would renormalize these weights and move a bit.
        assert Simplex(s.weights).weights.tobytes() != s.weights.tobytes()
        for clone in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert type(clone) is Simplex and clone.weights.tobytes() == s.weights.tobytes()
            assert clone.weights.dtype == np.float64 and not clone.weights.flags.writeable
            with pytest.raises(AttributeError, match="immutable"):
                clone.weights = s.weights

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, np.float64(4), "4"], ids=repr)
    def test_uniform_checks_its_size(self, bad):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            Simplex.uniform(bad)

    def test_point_mass_and_uniform(self):
        assert point_mass(2, 4).weights.tolist() == [0, 0, 1, 0]
        assert np.allclose(Simplex.uniform(5).weights, 0.2)


class TestEmpiricalDistribution:
    def test_counts(self):
        assert empirical_distribution([0, 0, 1], 2).weights.tolist() == [2 / 3, 1 / 3]

    def test_point_mass(self):
        assert empirical_distribution([3], 4).weights.tolist() == [0, 0, 0, 1]

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_distribution([], 2)
        with pytest.raises(ValueError):
            empirical_distribution([2], 2)
        with pytest.raises(ValueError):
            empirical_distribution([-1], 2)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(42)
        p = Simplex([0.2, 0.8])
        draws = draw(p, 100_000, rng)
        assert l1_distance(empirical_distribution(draws, 2), p) < 0.02

    def test_sums_to_one_at_scale(self):
        rng = np.random.default_rng(7)
        draws = rng.integers(0, 17, size=1_000_000)
        s = empirical_distribution(draws, 17)
        assert abs(s.weights.sum() - 1.0) <= 1e-12


class TestL1Distance:
    def test_identity(self):
        p = Simplex([0.3, 0.7])
        assert l1_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert l1_distance(Simplex([1, 0]), Simplex([0, 1])) == 2.0

    def test_direct_value(self):
        assert l1_distance(Simplex([0.5, 0.5]), Simplex([0.25, 0.75])) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l1_distance(Simplex([1.0]), Simplex([0.5, 0.5]))

    def test_triangle_inequality_and_diameter(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            p, q, r = (Simplex(rng.dirichlet(np.ones(n))) for _ in range(3))
            assert l1_distance(p, q) <= l1_distance(p, r) + l1_distance(r, q) + 1e-12
            assert l1_distance(p, q) <= 2.0 + 1e-12


class TestSample:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        p = point_mass(2, 4)
        assert np.all(draw(p, 100, rng) == 2)

    def test_frequency(self):
        rng = np.random.default_rng(11)
        p = Simplex([0.5, 0.5])
        draws = draw(p, 100_000, rng)
        freq0 = np.mean(draws == 0)
        assert 0.49 <= freq0 <= 0.51

    def test_deterministic_given_seed(self):
        p = Simplex([0.3, 0.3, 0.4])
        seq1 = draw(p, 50, np.random.default_rng(5))
        seq2 = draw(p, 50, np.random.default_rng(5))
        assert np.array_equal(seq1, seq2)

    def test_rows_of_one_law_match_reference_inverse_cdf(self):
        # A cell's initial states must equal a `searchsorted` lookup of the
        # same uniforms, including laws with zero entries and sums that
        # drift from 1 in the last bit.
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 10, 17):
            laws = [
                Simplex.uniform(n),
                point_mass(n - 1, n),
                Simplex(rng.dirichlet(np.ones(n))),
                Simplex(rng.dirichlet(np.full(n, 0.1))),
                Simplex(np.where(np.arange(n) % 2 == 0, 1.0, 0.0) / np.ceil(n / 2)),
            ]
            for p in laws:
                u = rng.random(20_000)
                rows = np.broadcast_to(p.weights, (u.size, n))
                assert np.array_equal(sample_rows(rows, u), inverse_cdf(p.weights, u))

    def test_sample_rows(self):
        rng = np.random.default_rng(2)
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        draws = sample_rows(probs, rng.random(3))
        assert draws[0] == 0 and draws[1] == 1 and draws[2] in (0, 1)
        # inverse CDF: row i's draw is the first index whose CDF exceeds u[i]
        u = np.array([0.25, 0.5, 0.75])
        assert sample_rows(probs[[2, 2, 2]], u).tolist() == [0, 1, 1]
        assert np.array_equal(sample_rows(probs[[2, 2, 2]], u), inverse_cdf(probs[2], u))


def row_inverse_cdf(probs, u):
    """`inverse_cdf` row by row. Its partial sums are a row cumsum, added in
    the order `sample_rows` adds its columns, so the draws must match bit
    for bit, ties included."""
    return np.array([inverse_cdf(p, x) for p, x in zip(probs, u)], dtype=np.int64)


def sparse_rows(rng, b, k):
    """Dirichlet rows of width k with about a third of their entries zeroed
    (at least one kept), renormalized."""
    rows = rng.dirichlet(np.full(k, 0.5), size=b)
    rows[rng.random((b, k)) < 1 / 3] = 0.0
    rows[np.arange(b), rng.integers(0, k, size=b)] += 1e-3
    return rows / rows.sum(axis=1, keepdims=True)


class TestSampleRows:
    @pytest.mark.parametrize("b", [1, 7, 4000])
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 12])
    def test_matches_reference_draws(self, k, b):
        rng = np.random.default_rng(10 * k + b)
        for probs in (rng.dirichlet(np.ones(k), size=b), sparse_rows(rng, b, k)):
            u = rng.random(b)
            draws = sample_rows(probs, u)
            assert draws.dtype == np.int64
            assert np.array_equal(draws, row_inverse_cdf(probs, u))

    def test_u_zero_takes_the_first_index_with_mass(self):
        # u = 0 lies on the partial sum of every leading zero column, which
        # must never be drawn.
        assert sample_rows(np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]), np.zeros(2)).tolist() == [1, 2]
        rng = np.random.default_rng(6)
        for k in (1, 2, 3, 10, 12):
            probs = sparse_rows(rng, 200, k)
            u = np.zeros(200)
            draws = sample_rows(probs, u)
            assert np.array_equal(draws, np.argmax(probs > 0, axis=1))
            assert np.array_equal(draws, row_inverse_cdf(probs, u))

    def test_zero_probability_columns_are_never_drawn(self):
        probs = np.array([[0.0, 0.5, 0.0, 0.5], [0.25, 0.0, 0.0, 0.75], [0.0, 0.0, 1.0, 0.0]])
        rng = np.random.default_rng(4)
        u = rng.random(3000)
        rows = probs[np.arange(3000) % 3]
        draws = sample_rows(rows, u)
        assert np.all(rows[np.arange(3000), draws] > 0.0)
        assert np.array_equal(draws, row_inverse_cdf(rows, u))

    def test_u_on_a_partial_sum_takes_the_next_index(self):
        # The draw is the first index whose partial sum exceeds u, skipping
        # zero columns, as in `inverse_cdf`.
        probs = np.array([[0.25, 0.25, 0.5], [0.5, 0.0, 0.5], [0.125, 0.375, 0.5]])
        u = np.array([0.25, 0.5, 0.5])
        assert sample_rows(probs, u).tolist() == [1, 2, 2]
        assert np.array_equal(sample_rows(probs, u), row_inverse_cdf(probs, u))

    def test_rows_summing_below_one_give_the_last_index_near_one(self):
        k = 10
        probs = np.full((5, k), 0.1 - 1e-13)
        assert probs[0].cumsum()[-1] < 1.0 - 2e-13
        u = np.array([1.0 - 2**-53, 1.0 - 1e-13, 0.999, 0.85, 0.05])
        draws = sample_rows(probs, u)
        assert draws.tolist() == [k - 1, k - 1, k - 1, 8, 0]
        assert np.array_equal(draws, row_inverse_cdf(probs, u))

    def test_broadcast_law_matches_reference(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 10):
            law = rng.dirichlet(np.ones(k))
            u = rng.random(4000)
            rows = np.broadcast_to(law, (u.size, k))
            assert np.array_equal(sample_rows(rows, u), inverse_cdf(law, u))


class TestPartialSums:
    """Draws from partial sums formed once over a stack of laws, as an NPG
    pass makes them, against `sample_rows` on the gathered laws."""

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 12])
    def test_draws_equal_sample_rows(self, k):
        rng = np.random.default_rng(k)
        stack = sparse_rows(rng, 6 * 4 * 2, k).reshape(6, 4, 2, k)
        sums = _partial_sums(stack)
        assert sums.shape == (k - 1, 6, 4, 2)
        t, x, u = rng.integers(0, 6, 500), rng.integers(0, 4, 500), rng.integers(0, 2, 500)
        rows = stack[t, x, u]
        # Uniforms anywhere, and exactly on each row's partial sums (ties).
        on_sums = np.cumsum(rows, axis=1)[np.arange(500), rng.integers(0, k, 500)]
        for draws_u in (rng.random(500), on_sums, np.zeros(500)):
            draws = _inverse_cdf(sums[:, t, x, u], draws_u)
            assert draws.dtype == np.int64
            assert np.array_equal(draws, sample_rows(rows, draws_u))

    def test_u_on_a_partial_sum_takes_the_next_index(self):
        # u equal to a partial sum draws the next index with mass, skipping
        # zero columns; u = 0 skips leading zero columns.
        laws = np.array([[0.25, 0.25, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0]])
        sums = _partial_sums(laws)
        assert _inverse_cdf(sums, np.array([0.25, 0.5, 0.0])).tolist() == [1, 3, 2]
        assert _inverse_cdf(sums, np.array([0.5, 0.0, 0.5])).tolist() == [3, 1, 2]
        assert np.array_equal(_inverse_cdf(sums, np.array([0.5, 0.0, 0.5])), sample_rows(laws, np.array([0.5, 0.0, 0.5])))

    def test_sums_are_the_cumulative_sums_bit_for_bit(self):
        # A firm path's stacks at T = 120, as an NPG pass forms their sums.
        env = build_firm_env(FirmModelConfig(q=10, k=3), 0.9)
        pcfg = PolicyConfig(n_states=10, n_actions=2, hidden=16)
        rng = np.random.default_rng(68)
        policy = SoftmaxPolicy(pcfg, init_params(pcfg, rng))
        mus, _, probs, _, kernels = mf_path(env, policy, Simplex(rng.dirichlet(np.ones(10))), 120)
        for laws in (mus, probs, kernels):
            sums = _partial_sums(laws)
            expected = np.moveaxis(np.cumsum(laws, axis=-1)[..., :-1], -1, 0)
            assert sums.flags.c_contiguous and sums.shape == expected.shape
            assert sums.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestExpectation:
    def test_point_mass(self):
        assert expectation(point_mass(3, 5), [1, 2, 3, 4, 5]) == 4.0

    def test_uniform_mean(self):
        assert expectation(Simplex.uniform(10), np.arange(1, 11)) == pytest.approx(5.5)

    def test_dot_product(self):
        assert expectation(Simplex([0.25, 0.75]), [2, 4]) == pytest.approx(3.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expectation(Simplex([0.5, 0.5]), [1, 2, 3])
