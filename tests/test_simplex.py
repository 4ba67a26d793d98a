import numpy as np
import pytest

from oracles import empirical_distribution, expectation, l1_distance
from mfmarl.simplex import (
    Simplex,
    sample,
    sample_many,
    sample_rows,
)


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

    def test_point_mass_and_uniform(self):
        assert Simplex.point_mass(2, 4).weights.tolist() == [0, 0, 1, 0]
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
        draws = sample_many(p, 100_000, rng)
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
        p = Simplex.point_mass(2, 4)
        assert all(sample(p, rng) == 2 for _ in range(100))

    def test_frequency(self):
        rng = np.random.default_rng(11)
        p = Simplex([0.5, 0.5])
        draws = sample_many(p, 100_000, rng)
        freq0 = np.mean(draws == 0)
        assert 0.49 <= freq0 <= 0.51

    def test_deterministic_given_seed(self):
        p = Simplex([0.3, 0.3, 0.4])
        a = [sample(p, np.random.default_rng(5)) for _ in range(1)]
        seq1 = sample_many(p, 50, np.random.default_rng(5))
        seq2 = sample_many(p, 50, np.random.default_rng(5))
        assert np.array_equal(seq1, seq2)
        assert seq1[0] == a[0]

    def test_sample_rows(self):
        rng = np.random.default_rng(2)
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        draws = sample_rows(probs, rng.random(3))
        assert draws[0] == 0 and draws[1] == 1 and draws[2] in (0, 1)
        # inverse CDF: row i's draw is the first index whose CDF reaches u[i]
        assert sample_rows(probs[[2, 2, 2]], np.array([0.25, 0.5, 0.75])).tolist() == [0, 0, 1]


class TestExpectation:
    def test_point_mass(self):
        assert expectation(Simplex.point_mass(3, 5), [1, 2, 3, 4, 5]) == 4.0

    def test_uniform_mean(self):
        assert expectation(Simplex.uniform(10), np.arange(1, 11)) == pytest.approx(5.5)

    def test_dot_product(self):
        assert expectation(Simplex([0.25, 0.75]), [2, 4]) == pytest.approx(3.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expectation(Simplex([0.5, 0.5]), [1, 2, 3])
