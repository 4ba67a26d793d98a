import numpy as np
import pytest

from oracles import dp_q_and_v, occupancy_by_enumeration, toy_mdp
from mfmarl.model import FirmModelConfig, build_firm_env
from mfmarl.meanfield import _MeanFieldPath, mf_value, truncation_horizon
from mfmarl.npg import (
    NPGConfig,
    OccupancySample,
    TrainingDivergenceError,
    _geometric_steps,
    inner_sgd,
    npg_train,
    sample_occupancy,
    select_policy,
)
from mfmarl.policy import PolicyConfig, SoftmaxPolicy, init_params
from mfmarl.simplex import Simplex


class TestGeometricStopping:
    def test_zero_gamma_stops_immediately(self):
        rng = np.random.default_rng(0)
        assert all(_geometric_steps(0.0, rng) == 0 for _ in range(100))

    def test_mean_matches_gamma_over_one_minus_gamma(self):
        gamma = 0.9
        rng = np.random.default_rng(1)
        draws = np.array([_geometric_steps(gamma, rng) for _ in range(100_000)])
        expected = gamma / (1 - gamma)
        stderr = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 3 * stderr


class TestSampleOccupancy:
    def test_gamma_zero_accepts_initial_triple(self):
        env, policy, _, _, _ = toy_mdp(gamma=0.0)
        pcfg = PolicyConfig(n_states=2, n_actions=2, hidden=2)
        phi = np.zeros(pcfg.n_params)
        mu0 = Simplex.point_mass(1, 2)
        path = _MeanFieldPath(env, SoftmaxPolicy(pcfg, phi), mu0)
        for seed in range(20):
            s = sample_occupancy(path, np.random.default_rng(seed))
            assert s.x == 1
            assert np.array_equal(s.mu.weights, mu0.weights)

    def test_advantage_estimate_is_unbiased_on_exact_dp(self):
        env, policy, kernel, rewards, pi_tab = toy_mdp(gamma=0.9)
        q, v = dp_q_and_v(kernel, rewards, pi_tab, 0.9)
        advantage = q - v[:, None]
        mu0 = Simplex([0.5, 0.5])
        path = _MeanFieldPath(env, policy, mu0)
        rng = np.random.default_rng(2)
        n = 30_000
        buckets = {(x, u): [] for x in range(2) for u in range(2)}
        for _ in range(n):
            # distribution-free toy: the network parameters never matter, so
            # drive the sampler directly through the shared path
            s = sample_occupancy(path, rng)
            buckets[(s.x, s.u)].append(s.a_hat)
        for (x, u), vals in buckets.items():
            vals = np.asarray(vals)
            stderr = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean() - advantage[x, u]) <= 3 * stderr, (x, u)

    def test_accepted_triples_match_enumerated_occupancy(self):
        env, policy, kernel, rewards, pi_tab = toy_mdp(gamma=0.9)
        mu0 = np.array([0.5, 0.5])
        zeta = occupancy_by_enumeration(kernel, pi_tab, mu0, 0.9, max_t=200)
        path = _MeanFieldPath(env, policy, Simplex(mu0))
        rng = np.random.default_rng(3)
        counts = np.zeros((2, 2))
        n = 100_000
        for _ in range(n):
            s = sample_occupancy(path, rng)
            counts[s.x, s.u] += 1
        assert np.abs(counts / n - zeta).sum() <= 0.02


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
        value, traj = mf_value(env, policy, mu0, 1e-3, horizon=horizon + 5)
        path = _MeanFieldPath(env, policy, mu0)
        assert path.value(horizon) == mf_value(env, policy, mu0, 1e-3)[0]
        path.ensure(horizon + 5)
        assert path.mus[0] is mu0
        for t in range(horizon + 6):
            assert np.array_equal(path.mus[t].weights, traj.mus[t].weights), t
        assert path.value(horizon + 5) == value

    def test_kernel_cum_is_cumulative_kernel(self):
        env, policy, mu0 = self._setup()
        _, traj = mf_value(env, policy, mu0, 1e-3, horizon=12)
        path = _MeanFieldPath(env, policy, mu0)
        for t in (0, 1, 12):
            kernel = env.kernel(traj.mus[t].weights[None, :], traj.nus[t].weights[None, :])[0]
            np.testing.assert_allclose(path.kernel_cum(t), np.cumsum(kernel, axis=2), rtol=0, atol=1e-12)

    def test_kernel_hook_calls_are_bounded(self):
        env, policy, mu0 = self._setup()
        calls = []
        hook = env.kernel

        def counting(mus, nus):
            calls.append(mus.shape[0])
            return hook(mus, nus)

        env.kernel = counting
        path = _MeanFieldPath(env, policy, mu0)
        for t in (0, 3, 40):
            path.ensure(t)
            path.kernel_cum(t)
            path.reward(t, 0, 1)
            assert len(calls) <= t + 1, t
        calls.clear()
        horizon = truncation_horizon(env, 1e-3)
        mf_value(env, policy, mu0, 1e-3, horizon=horizon)
        assert len(calls) <= horizon + 1


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
        fixed = OccupancySample(x=2, mu=mu0, u=1, a_hat=a_hat)
        g = SoftmaxPolicy(pcfg, phi).log_gradient(2, mu0, 1)
        target = (a_hat / (1 - 0.9)) * g / (g @ g)
        errors = {}
        for l_steps in (1000, 8000):
            cfg = NPGConfig(eta=1.0, alpha=0.05, j_steps=1, l_steps=l_steps)
            w = inner_sgd(SoftmaxPolicy(pcfg, phi), cfg, 0.9, np.random.default_rng(2), sampler=lambda r: fixed)
            errors[l_steps] = np.abs(w - target).max() / np.abs(target).max()
        # the averaged iterate approaches the fixed point like 1/L
        assert errors[8000] < 0.005
        assert errors[8000] < 0.25 * errors[1000]

    def test_single_step_closed_form(self):
        env, pcfg, phi = self._setup(seed=2)
        mu0 = Simplex.uniform(3)
        fixed = OccupancySample(x=0, mu=mu0, u=1, a_hat=1.5)
        cfg = NPGConfig(eta=1.0, alpha=0.1, j_steps=1, l_steps=1)
        w = inner_sgd(SoftmaxPolicy(pcfg, phi), cfg, 0.9, np.random.default_rng(3), sampler=lambda r: fixed)
        g = SoftmaxPolicy(pcfg, phi).log_gradient(0, mu0, 1)
        expected = -0.1 * (0.0 - 1.5 / 0.1) * g
        assert np.allclose(w, expected, atol=1e-14)

    def test_divergence_is_reported(self):
        env, pcfg, phi = self._setup(seed=3)
        mu0 = Simplex.uniform(3)
        huge = OccupancySample(x=0, mu=mu0, u=1, a_hat=1e308)
        cfg = NPGConfig(eta=1.0, alpha=10.0, j_steps=1, l_steps=5)
        with pytest.raises(TrainingDivergenceError, match="iteration"):
            inner_sgd(SoftmaxPolicy(pcfg, phi), cfg, 0.9, np.random.default_rng(4), sampler=lambda r: huge)


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
            assert value == mf_value(env, SoftmaxPolicy(pcfg, it), mu0, 1e-4)[0]
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
            v0, _ = mf_value(env, SoftmaxPolicy(pcfg, phi0), mu0, 1e-3)
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

    def test_parameters_stay_finite_and_log_written(self, tmp_path):
        env, pcfg, phi = self._setup(seed=5)
        cfg = NPGConfig(eta=1e-3, alpha=1e-3, j_steps=4, l_steps=20)
        res = npg_train(env, pcfg, phi, Simplex.uniform(3), cfg, np.random.default_rng(8))
        for it in res.iterates:
            assert np.all(np.isfinite(it))
        path = tmp_path / "log.csv"
        res.write_log(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,v_mf,w_norm,wall_ms"
        assert len(lines) == 5


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
