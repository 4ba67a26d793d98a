import copy
import math
import re

import numpy as np
import pytest

from oracles import (
    TabularPolicy,
    dp_q_and_v,
    inner_sgd_per_row,
    log_gradient_row,
    occupancy_by_enumeration,
    occupancy_pass_by_rows,
    path_advantage,
    path_occupancy,
    point_mass,
    tabular_env,
    toy_mdp,
)
from mfmarl import meanfield as meanfield_module
from mfmarl import npg as npg_module
from mfmarl.harness import write_training_csv
from mfmarl.model import FirmModelConfig, build_firm_env
from mfmarl.meanfield import mf_path, mf_value, mf_values, truncation_horizon
from mfmarl.npg import (
    NPGConfig,
    TrainingDivergenceError,
    _PolicyStack,
    inner_sgd,
    npg_train,
    sample_occupancy,
    select_policy,
)
from mfmarl.policy import PolicyConfig, SoftmaxPolicy, _unpack, init_params
from mfmarl.simplex import Simplex


def tabular_path(kernel_tab, reward_tab, policy_tab, mu0, gamma):
    """The (env, policy, mu0) of a mean-field path of a distribution-free
    MDP given by its tables."""
    env = tabular_env(kernel_tab, reward_tab, gamma, reward_bound=1.0)
    return env, TabularPolicy(policy_tab), Simplex(mu0)


def clock_path(gamma):
    """A path whose state law mu_t = (2^-t, 1 - 2^-t) tells its step t:
    state 0 moves to the absorbing state 1 with probability 1/2."""
    kernel = [[[0.5, 0.5]] * 2, [[0.0, 1.0]] * 2]
    return tabular_path(kernel, np.zeros((2, 2)), np.full((2, 2), 0.5), [1.0, 0.0], gamma)


def accept_times(mu_rows):
    """The step of each sample drawn on `clock_path`, read off its law."""
    return np.rint(-np.log2(mu_rows[:, 0])).astype(np.int64)


class TestGeometricStopping:
    def test_zero_gamma_stops_immediately(self):
        _, mu_rows, _, _ = sample_occupancy(*clock_path(0.0), 100, np.random.default_rng(0))
        assert np.all(accept_times(mu_rows) == 0)

    def test_mean_matches_gamma_over_one_minus_gamma(self):
        gamma = 0.9
        _, mu_rows, _, _ = sample_occupancy(*clock_path(gamma), 100_000, np.random.default_rng(1))
        draws = accept_times(mu_rows)
        expected = gamma / (1 - gamma)
        stderr = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 3 * stderr


class TestSampleOccupancy:
    def _firm_path(self, q=4, seed=0):
        env = build_firm_env(FirmModelConfig(q=q, k=2, sigma=1.2), 0.9)
        pcfg = PolicyConfig(n_states=q, n_actions=2, hidden=8)
        policy = SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(seed)))
        return env, policy, Simplex.uniform(q)

    def test_pass_returns_arrays_of_the_pass_size(self):
        path = self._firm_path()
        states, mu_rows, actions, a_hat = sample_occupancy(*path, 37, np.random.default_rng(4))
        assert states.shape == actions.shape == a_hat.shape == (37,)
        assert mu_rows.shape == (37, 4)
        assert states.dtype.kind == actions.dtype.kind == "i"
        assert np.all((0 <= states) & (states < 4)) and np.all((0 <= actions) & (actions < 2))
        assert np.all(np.isfinite(a_hat))
        # every law is one of the path's steps, which the pass runs to its
        # last accept time plus suffix
        accept, suffix = np.random.default_rng(4).geometric(0.1, (2, 37)) - 1
        mus = mf_path(*path, int((accept + suffix).max()))[0]
        assert all(any(np.array_equal(row, mu) for mu in mus) for row in mu_rows)

    def test_equal_rngs_give_equal_passes(self):
        first = sample_occupancy(*self._firm_path(), 50, np.random.default_rng(5))
        second = sample_occupancy(*self._firm_path(), 50, np.random.default_rng(5))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("size", [0, -1, 2.5, True])
    def test_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValueError, match="size"):
            sample_occupancy(*self._firm_path(), size, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "mu0, message",
        [
            (Simplex.uniform(2), "mu0 has 2 entries"),
            (np.full(5, 0.2), "mu0 has 5 entries"),
            (np.array([0.5, 0.6, 0.0, -0.1]), "mu0 must be a probability vector"),
            (np.array([0.5, 0.6, 0.1, 0.1]), "mu0 must be a probability vector"),
        ],
    )
    def test_bad_mu0_is_rejected(self, mu0, message):
        env, policy, _ = self._firm_path()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=message):
            sample_occupancy(env, policy, mu0, 10, rng)
        # rejected before the pass draws anything
        assert rng.random() == np.random.default_rng(0).random()

    def test_non_finite_reward_is_rejected(self):
        _, _, kernel, rewards, pi_tab = toy_mdp(gamma=0.9)
        rewards = rewards.copy()
        rewards[1, 1] = np.nan
        path = tabular_path(kernel, rewards, pi_tab, [0.0, 1.0], 0.9)
        with pytest.raises(ValueError, match="reward_matrix returned a non-finite entry"):
            sample_occupancy(*path, 200, np.random.default_rng(6))

    def test_gamma_zero_accepts_initial_triple(self):
        env, policy, _, _, _ = toy_mdp(gamma=0.0)
        pcfg = PolicyConfig(n_states=2, n_actions=2, hidden=2)
        phi = np.zeros(pcfg.n_params)
        mu0 = point_mass(1, 2)
        policy = SoftmaxPolicy(pcfg, phi)
        for seed in range(20):
            states, mu_rows, _, _ = sample_occupancy(env, policy, mu0, 5, np.random.default_rng(seed))
            assert np.all(states == 1)
            assert np.all(mu_rows == mu0.weights)

    def test_advantage_estimate_is_unbiased_on_exact_dp(self):
        env, policy, kernel, rewards, pi_tab = toy_mdp(gamma=0.9)
        q, v = dp_q_and_v(kernel, rewards, pi_tab, 0.9)
        advantage = q - v[:, None]
        mu0 = Simplex([0.5, 0.5])
        rng = np.random.default_rng(2)
        n = 30_000
        # distribution-free toy: the network parameters never matter, so
        # drive the sampler directly with the table policy
        states, _, actions, a_hat = sample_occupancy(env, policy, mu0, n, rng)
        for x in range(2):
            for u in range(2):
                vals = a_hat[(states == x) & (actions == u)]
                stderr = vals.std(ddof=1) / np.sqrt(vals.size)
                assert abs(vals.mean() - advantage[x, u]) <= 3 * stderr, (x, u)

    def test_accepted_triples_match_enumerated_occupancy(self):
        env, policy, kernel, rewards, pi_tab = toy_mdp(gamma=0.9)
        mu0 = np.array([0.5, 0.5])
        zeta = occupancy_by_enumeration(kernel, pi_tab, mu0, 0.9, max_t=200)
        rng = np.random.default_rng(3)
        n = 100_000
        states, _, actions, _ = sample_occupancy(env, policy, Simplex(mu0), n, rng)
        counts = np.zeros((2, 2))
        np.add.at(counts, (states, actions), 1)
        assert np.abs(counts / n - zeta).sum() <= 0.02


def law_dependent_path(gamma=0.9):
    """The firm model at q = 4 from a law away from its fixed point, under a
    policy that reads the law (w1's view columns x20, w2 x5): a path whose
    laws, action laws and tables all move with t."""
    env = build_firm_env(FirmModelConfig(q=4, k=2, sigma=1.2), gamma)
    pcfg = PolicyConfig(n_states=4, n_actions=2, hidden=8)
    phi = init_params(pcfg, np.random.default_rng(0))
    w1, _, w2, _ = _unpack(pcfg, phi)
    w1[:, 4:] *= 20.0
    w2 *= 5.0
    return env, SoftmaxPolicy(pcfg, phi), Simplex([0.6, 0.2, 0.1, 0.1])


class TestLawDependentPath:
    """The sampler against exact oracles on `law_dependent_path`."""

    GAMMA = 0.9
    # gamma^HORIZON < 1e-6: the occupancy the oracles leave out.
    HORIZON = math.ceil(math.log(1e-6) / math.log(GAMMA))

    @pytest.fixture(scope="class")
    def path(self):
        return law_dependent_path(self.GAMMA)

    def test_accepted_pairs_match_the_path_occupancy(self, path):
        zeta = path_occupancy(*path, self.HORIZON).sum(axis=0)
        n = 100_000
        states, _, actions, _ = sample_occupancy(*path, n, np.random.default_rng(20))
        counts = np.zeros((4, 2))
        np.add.at(counts, (states, actions), 1)
        # Over 8 cells, 1e5 exact draws give an expected L1 error near 0.007.
        assert np.abs(counts / n - zeta).sum() <= 0.02

    def test_advantage_estimate_is_unbiased_along_the_path(self, path):
        # E[a_hat | x, u] is A_t(x, u) pooled over the accept time t with the
        # occupancy weights; the advantage runs past the occupancy's horizon
        # so that its own truncation does not reach the pooled steps.
        weights = path_occupancy(*path, self.HORIZON)
        advantage = path_advantage(*path, 2 * self.HORIZON)[: self.HORIZON + 1]
        pooled = (weights * advantage).sum(axis=0) / weights.sum(axis=0)
        states, _, actions, a_hat = sample_occupancy(*path, 400_000, np.random.default_rng(21))
        for x in range(4):
            for u in range(2):
                vals = a_hat[(states == x) & (actions == u)]
                stderr = vals.std(ddof=1) / np.sqrt(vals.size)
                assert abs(vals.mean() - pooled[x, u]) <= 4 * stderr, (x, u)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_pass_simulates_only_the_suffix(self, path, monkeypatch, seed):
        calls = []
        draw = npg_module._inverse_cdf

        def counting(sums, u):
            calls.append(len(u))
            return draw(sums, u)

        monkeypatch.setattr(npg_module, "_inverse_cdf", counting)
        sample_occupancy(*path, 100, np.random.default_rng(seed))
        # The pass draws every accept time and suffix length first. Besides
        # the accepted pairs and the tails' redraws, it draws states and
        # actions once per suffix step, never over the steps before a chain's
        # accept time.
        _, suffix = np.random.default_rng(seed).geometric(1.0 - self.GAMMA, (2, 100)) - 1
        assert len(calls) <= 3 + 2 * suffix.max()


def firm_path(q, sigma, seed=0):
    """The firm model under a random policy from a random law, as the
    `(env, policy, mu0)` of a mean-field path."""
    env = build_firm_env(FirmModelConfig(q=q, k=3, sigma=sigma), 0.9)
    pcfg = PolicyConfig(n_states=q, n_actions=2, hidden=16)
    rng = np.random.default_rng([q, seed])
    return env, SoftmaxPolicy(pcfg, init_params(pcfg, rng)), Simplex(rng.dirichlet(np.ones(q)))


class TestPassMatchesRowDraws:
    """A pass's draws from partial sums formed once against the reference
    pass that draws each step by `sample_rows` on the gathered rows: the
    same arrays and the same generator state after the pass."""

    def _assert_same_pass(self, path, size, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_occupancy(*path, size, rng)
        expected = occupancy_pass_by_rows(*path, size, ref_rng)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("size", [1, 7, 100, 513])
    @pytest.mark.parametrize("q", [3, 10])
    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    def test_firm_paths(self, q, sigma, size):
        for seed in range(5):
            self._assert_same_pass(firm_path(q, sigma, seed), size, seed)

    @pytest.mark.parametrize("size", [1, 7, 100, 513])
    def test_law_dependent_path(self, size):
        path = law_dependent_path()
        for seed in range(5):
            self._assert_same_pass(path, size, 100 + seed)

    def test_pass_without_a_suffix_step(self):
        # The first seed whose single sample has suffix length 0: the pass
        # draws its accepted triple and simulates no step.
        seed = next(s for s in range(100) if (np.random.default_rng(s).geometric(0.1, (2, 1)) - 1)[1, 0] == 0)
        self._assert_same_pass(firm_path(10, 1.2), 1, seed)
        self._assert_same_pass(law_dependent_path(), 1, seed)


class TestMeanFieldPath:
    def _setup(self, sigma=1.2, q=4, seed=0):
        env = build_firm_env(FirmModelConfig(q=q, k=2, sigma=sigma), 0.9)
        pcfg = PolicyConfig(n_states=q, n_actions=2, hidden=8)
        rng = np.random.default_rng(seed)
        policy = SoftmaxPolicy(pcfg, init_params(pcfg, rng))
        return env, policy, Simplex(rng.dirichlet(np.ones(q)))

    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    def test_matches_mf_value_past_the_value_horizon(self, sigma):
        env, policy, mu0 = self._setup(sigma)
        horizon = truncation_horizon(env, 1e-3)
        short, long = mf_path(env, policy, mu0, horizon), mf_path(env, policy, mu0, horizon + 5)
        # A longer path starts with the shorter one, bit for bit.
        for head, steps in zip(short, long):
            assert len(head) == horizon + 1 and len(steps) == horizon + 6
            assert np.array_equal(steps[: horizon + 1], head)
        assert np.array_equal(long[0][0], mu0.weights)
        # mf_value is the discounted sum of the path's mean rewards, bit for bit.
        for path in (short, long):
            mus, _, probs, rewards, _ = path
            value, discount = 0.0, 1.0
            for r_t in ((rewards * probs).sum(axis=2) * mus).sum(axis=1):
                value += discount * r_t
                discount *= env.gamma
            assert mf_value(env, policy, mu0, len(mus) - 1) == value

    def test_kernels_and_rewards_are_the_hook_rows(self):
        env, policy, mu0 = self._setup()
        path_mus, path_nus, probs, rewards, kernels = mf_path(env, policy, mu0, 12)
        for t in (0, 1, 12):
            mus, nus = path_mus[t][None, :], path_nus[t][None, :]
            np.testing.assert_allclose(kernels[t], env.kernel(mus, nus)[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(rewards[t], env.reward_matrix(mus, nus)[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(probs[t].sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_kernel_hook_calls_are_bounded(self):
        env, policy, mu0 = self._setup()
        calls = []
        hook = env.kernel

        def counting(mus, nus):
            calls.append(mus.shape[0])
            return hook(mus, nus)

        env.kernel = counting
        for t in (0, 3, 40):
            calls.clear()
            rewards, kernels = mf_path(env, policy, mu0, t)[3:]
            kernels[t]
            rewards[t][0, 1]
            assert len(calls) <= t + 1, t
        calls.clear()
        horizon = truncation_horizon(env, 1e-3)
        mf_value(env, policy, mu0, horizon)
        assert len(calls) <= horizon + 1


def repeated(x, mu, u, a_hat, count):
    """A pass of `count` copies of one sample, as `sample_occupancy` arrays."""
    return np.full(count, x), np.tile(mu.weights, (count, 1)), np.full(count, u), np.full(count, a_hat)


class TestInnerSgd:
    def _setup(self, q=3, hidden=4, seed=0):
        env = build_firm_env(FirmModelConfig(q=q, k=2), 0.9)
        pcfg = PolicyConfig(n_states=q, n_actions=2, hidden=hidden)
        phi = init_params(pcfg, np.random.default_rng(seed))
        return env, pcfg, phi

    def test_converges_to_least_squares_solution(self):
        env, pcfg, phi = self._setup(seed=1)
        mu0 = Simplex.uniform(3)
        a_hat = 2.0
        g = log_gradient_row(pcfg, phi, 2, mu0, 1)
        target = (a_hat / (1 - 0.9)) * g / (g @ g)
        errors = {}
        for l_steps in (1000, 8000):
            cfg = NPGConfig(eta=1.0, alpha=0.05, j_steps=1, l_steps=l_steps)
            w = inner_sgd(SoftmaxPolicy(pcfg, phi), cfg, 0.9, *repeated(2, mu0, 1, a_hat, l_steps))
            errors[l_steps] = np.abs(w - target).max() / np.abs(target).max()
        # the averaged iterate approaches the fixed point like 1/L
        assert errors[8000] < 0.005
        assert errors[8000] < 0.25 * errors[1000]

    def test_single_step_closed_form(self):
        env, pcfg, phi = self._setup(seed=2)
        mu0 = Simplex.uniform(3)
        cfg = NPGConfig(eta=1.0, alpha=0.1, j_steps=1, l_steps=1)
        w = inner_sgd(SoftmaxPolicy(pcfg, phi), cfg, 0.9, *repeated(0, mu0, 1, 1.5, 1))
        g = log_gradient_row(pcfg, phi, 0, mu0, 1)
        expected = -0.1 * (0.0 - 1.5 / 0.1) * g
        assert np.allclose(w, expected, atol=1e-14)

    def test_divergence_is_reported(self):
        env, pcfg, phi = self._setup(seed=3)
        mu0 = Simplex.uniform(3)
        cfg = NPGConfig(eta=1.0, alpha=10.0, j_steps=1, l_steps=5)
        with pytest.raises(TrainingDivergenceError, match="iteration"):
            inner_sgd(SoftmaxPolicy(pcfg, phi), cfg, 0.9, *repeated(0, mu0, 1, 1e308, 5))

    def test_matches_per_row_reference_on_distinct_samples(self):
        env, pcfg, phi = self._setup(q=5, hidden=8, seed=7)
        rng = np.random.default_rng(8)
        rows = [
            (int(rng.integers(5)), rng.dirichlet(np.ones(5)), int(rng.integers(2)), float(rng.normal(0.0, 3.0)))
            for _ in range(200)
        ]
        samples = [np.array(column) for column in zip(*rows)]
        cfg = NPGConfig(eta=1.0, alpha=0.01, j_steps=1, l_steps=200)
        policy = SoftmaxPolicy(pcfg, phi)
        w = inner_sgd(policy, cfg, 0.9, *samples)
        ref = inner_sgd_per_row(policy, cfg, 0.9, *samples)
        assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max()
        # a reordered pass is a different regression
        reordered = [column[::-1] for column in samples]
        assert not np.allclose(inner_sgd(policy, cfg, 0.9, *reordered), ref, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_divergence_names_the_first_non_finite_iteration(self, k):
        # From sample k on, a_hat / (1 - gamma) overflows to inf, so step k's
        # update is the first non-finite one; the check after the scan
        # still names it.
        env, pcfg, phi = self._setup(seed=3)
        cfg = NPGConfig(eta=1.0, alpha=1e-3, j_steps=1, l_steps=8)
        states, mu_rows, actions, a_hat = repeated(1, Simplex.uniform(3), 0, 1.0, 8)
        a_hat[k:] = 1e308
        with pytest.raises(TrainingDivergenceError, match=f"at inner iteration {k}$"):
            inner_sgd(SoftmaxPolicy(pcfg, phi), cfg, 0.9, states, mu_rows, actions, a_hat)

    @pytest.mark.parametrize("count", [0, 4, 6])
    def test_wrong_sample_count_rejected(self, count):
        env, pcfg, phi = self._setup()
        cfg = NPGConfig(eta=1.0, alpha=0.1, j_steps=1, l_steps=5)
        with pytest.raises(ValueError, match="l_steps"):
            inner_sgd(SoftmaxPolicy(pcfg, phi), cfg, 0.9, *repeated(0, Simplex.uniform(3), 1, 1.0, count))


class TestNpgTrain:
    def _setup(self, q=3, hidden=8, seed=0):
        env = build_firm_env(FirmModelConfig(q=q, k=2), 0.9)
        pcfg = PolicyConfig(n_states=q, n_actions=2, hidden=hidden)
        phi = init_params(pcfg, np.random.default_rng(seed))
        return env, pcfg, phi

    def test_zero_eta_freezes_parameters(self):
        env, pcfg, phi = self._setup()
        cfg = NPGConfig(eta=0.0, alpha=1e-3, j_steps=3, l_steps=5)
        res = npg_train(env, pcfg, phi, Simplex.uniform(3), cfg, np.random.default_rng(5))
        for it in res.iterates:
            assert np.array_equal(it, phi)

    def test_bit_exact_reproducibility(self):
        env, pcfg, phi = self._setup(seed=4)
        cfg = NPGConfig(eta=1e-3, alpha=1e-3, j_steps=1, l_steps=1)
        r1 = npg_train(env, pcfg, phi, Simplex.uniform(3), cfg, np.random.default_rng(6))
        r2 = npg_train(env, pcfg, phi, Simplex.uniform(3), cfg, np.random.default_rng(6))
        assert np.array_equal(r1.iterates[0], r2.iterates[0])
        assert r1.values == r2.values

    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    def test_values_equal_mf_value_of_iterates(self, sigma):
        env = build_firm_env(FirmModelConfig(q=3, k=2, sigma=sigma), 0.9)
        pcfg = PolicyConfig(n_states=3, n_actions=2, hidden=8)
        phi = init_params(pcfg, np.random.default_rng(9))
        mu0 = Simplex([0.2, 0.5, 0.3])
        cfg = NPGConfig(eta=1e-2, alpha=1e-3, j_steps=4, l_steps=20)
        res = npg_train(env, pcfg, phi, mu0, cfg, np.random.default_rng(10), value_tol=1e-4)
        for it, value in zip(res.iterates, res.values):
            assert value == mf_value(env, SoftmaxPolicy(pcfg, it), mu0, truncation_horizon(env, 1e-4))
        assert not np.array_equal(res.iterates[0], res.iterates[-1])

    def test_training_improves_value_across_seeds(self):
        env, pcfg, _ = self._setup(q=3, hidden=32)
        mu0 = Simplex.uniform(3)
        cfg = NPGConfig(eta=1e-3, alpha=1e-3, j_steps=100, l_steps=100)
        wins = 0
        margins = []
        for seed in range(10):
            rng = np.random.default_rng([11, seed])
            phi0 = init_params(pcfg, rng)
            v0 = mf_value(env, SoftmaxPolicy(pcfg, phi0), mu0, truncation_horizon(env, 1e-3))
            res = npg_train(env, pcfg, phi0, mu0, cfg, rng)
            margin = max(res.values) - v0
            margins.append(margin)
            wins += margin > 0
        assert wins >= 8, margins

    def test_one_policy_per_iterate(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(SoftmaxPolicy(*args))
            return built[-1]

        monkeypatch.setattr("mfmarl.npg.SoftmaxPolicy", counting)
        env, pcfg, phi = self._setup(seed=6)
        cfg = NPGConfig(eta=1e-3, alpha=1e-3, j_steps=4, l_steps=3)
        res = npg_train(env, pcfg, phi, Simplex.uniform(3), cfg, np.random.default_rng(11))
        assert len(built) == cfg.j_steps + 1
        for policy, it in zip(built[1:], res.iterates):
            assert np.array_equal(policy.params, it)

    def test_paths_grow_only_as_far_as_passes_read(self, monkeypatch):
        runs = []  # [rows, steps yielded] of each mean-field recursion

        def counting(env, policy, mus, horizon):
            runs.append([len(mus), 0])
            for step in recursion(env, policy, mus, horizon):
                runs[-1][1] += 1
                yield step

        reads = []  # the last step each pass reads: its max(accept + suffix)

        def reading(env, policy, mu0, size, rng):
            accept, suffix = copy.deepcopy(rng).geometric(1.0 - env.gamma, (2, size)) - 1
            reads.append(int((accept + suffix).max()))
            return sample(env, policy, mu0, size, rng)

        horizons = []  # the horizon each pass runs its path to

        def path(env, policy, mu0, horizon):
            horizons.append(horizon)
            return mf_path(env, policy, mu0, horizon)

        recursion, sample = meanfield_module._recursion, npg_module.sample_occupancy
        monkeypatch.setattr(meanfield_module, "_recursion", counting)
        monkeypatch.setattr(npg_module, "sample_occupancy", reading)
        monkeypatch.setattr(npg_module, "mf_path", path)
        env, pcfg, phi = self._setup(seed=7)
        cfg = NPGConfig(eta=1e-3, alpha=1e-3, j_steps=5, l_steps=30)
        npg_train(env, pcfg, phi, Simplex.uniform(3), cfg, np.random.default_rng(12), value_tol=1e-4)
        # One single-row path per pass, none for the last iterate, each run
        # to the last step the pass reads; then one recursion over every
        # iterate to the value horizon.
        assert horizons == reads and len(reads) == cfg.j_steps
        assert runs[:-1] == [[1, top + 1] for top in reads]
        assert runs[-1] == [cfg.j_steps, truncation_horizon(env, 1e-4) + 1]

    def test_parameters_stay_finite_and_log_written(self, tmp_path):
        env, pcfg, phi = self._setup(seed=5)
        cfg = NPGConfig(eta=1e-3, alpha=1e-3, j_steps=4, l_steps=20)
        res = npg_train(env, pcfg, phi, Simplex.uniform(3), cfg, np.random.default_rng(8))
        for it in res.iterates:
            assert np.all(np.isfinite(it))
        path = tmp_path / "log.csv"
        write_training_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,v_mf,w_norm,wall_ms"
        assert len(lines) == 5


class TestPolicySizedForAnotherEnv:
    """A policy with more actions, or fewer states, than the env fails with
    a ValueError that names both sizes, not deep in numpy."""

    ENV = build_firm_env(FirmModelConfig(q=4, k=2, sigma=1.2), 0.9)

    @staticmethod
    def _names_both(err, policy_size, env_size):
        words = set(re.findall(r"\d+", str(err.value)))
        assert {str(policy_size), str(env_size)} <= words, str(err.value)

    @pytest.mark.parametrize("n_states, n_actions, sizes", [(4, 3, (3, 2)), (3, 2, (3, 4))])
    def test_every_entry_point_rejects_it(self, n_states, n_actions, sizes):
        pcfg = PolicyConfig(n_states=n_states, n_actions=n_actions, hidden=4)
        phi = init_params(pcfg, np.random.default_rng(0))
        policy, env, mu0 = SoftmaxPolicy(pcfg, phi), self.ENV, Simplex.uniform(4)
        cfg = NPGConfig(j_steps=2, l_steps=5)
        calls = [
            lambda: mf_value(env, policy, mu0, 5),
            lambda: mf_values(env, policy, np.full((3, 4), 0.25), 5),
            lambda: mf_path(env, policy, mu0, 5),
            lambda: sample_occupancy(env, policy, mu0, 10, np.random.default_rng(0)),
            lambda: npg_train(env, pcfg, phi, mu0, cfg, np.random.default_rng(0)),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            self._names_both(err, *sizes)

    def test_npg_train_checks_before_training(self):
        pcfg = PolicyConfig(n_states=4, n_actions=3, hidden=4)
        phi, rng = init_params(pcfg, np.random.default_rng(1)), np.random.default_rng(0)
        with pytest.raises(ValueError, match="policy_cfg has 4 states and 3 actions"):
            npg_train(self.ENV, pcfg, phi, Simplex.uniform(4), NPGConfig(), rng)
        # rejected before the training draws anything
        assert rng.random() == np.random.default_rng(0).random()


class TestPolicyStack:
    def test_blocks_equal_each_policys_action_laws(self):
        pcfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
        rng = np.random.default_rng(30)
        policies = [SoftmaxPolicy(pcfg, rng.uniform(-1.0, 1.0, pcfg.n_params)) for _ in range(4)]
        for per_policy in (1, 3):
            mus = rng.dirichlet(np.ones(10), size=4 * per_policy)
            probs = _PolicyStack(policies).action_laws(mus)
            assert probs.shape == (4 * per_policy, 10, 2)
            for s, policy in enumerate(policies):
                block = slice(s * per_policy, (s + 1) * per_policy)
                assert np.array_equal(probs[block], policy.action_laws(mus[block]))

    def test_action_laws_keep_no_workspace_alive(self):
        # The stacked value recursion keeps every step's laws until its one
        # reward call; a view on the pass's workspace would keep each
        # step's workspace too.
        pcfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
        rng = np.random.default_rng(31)
        policies = [SoftmaxPolicy(pcfg, rng.uniform(-1.0, 1.0, pcfg.n_params)) for _ in range(3)]
        probs = _PolicyStack(policies).action_laws(rng.dirichlet(np.ones(10), size=3))
        owner = probs if probs.base is None else probs.base
        assert probs.flags.c_contiguous and owner.flags.owndata and owner.nbytes == probs.nbytes


class TestSelectPolicy:
    def test_single(self):
        phi = np.array([1.0, 2.0])
        best, mean = select_policy([phi], [3.0])
        assert np.array_equal(best, phi) and mean == 3.0

    def test_argmax_and_mean(self):
        its = [np.array([float(i)]) for i in range(3)]
        best, mean = select_policy(its, [1.0, 3.0, 2.0])
        assert best[0] == 1.0
        assert mean == 2.0

    def test_tie_breaks_to_first(self):
        its = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        best, _ = select_policy(its, [5.0, 5.0, 1.0])
        assert best[0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_policy([], [])
