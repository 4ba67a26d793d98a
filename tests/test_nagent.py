import tracemalloc

import numpy as np
import pytest

from oracles import (
    FunctionPolicy,
    empirical_distribution,
    exact_population_value,
    l1_distance,
    mf_action_distribution,
    mf_reward,
    mf_transition,
)
from mfmarl.interaction import (
    InteractionMatrix,
    ring_k_neighbor,
    ring_symmetric,
    sinkhorn_random,
    uniform,
)
from mfmarl.model import AffineRewardSpec, EnvModel, FirmModelConfig, build_firm_env
from mfmarl.nagent import AgentSystemState, estimate_v_marl, rollout, step
from mfmarl.policy import PolicyConfig, SoftmaxPolicy, init_params
from mfmarl.simplex import Simplex


def firm_env(q=3, k=2, gamma=0.9, sigma=1.0):
    return build_firm_env(FirmModelConfig(q=q, k=k, sigma=sigma), gamma)


def constant_env(c=1.0, gamma=0.9, n=3):
    eye = np.eye(n)
    return EnvModel(
        n_states=n,
        n_actions=2,
        gamma=gamma,
        reward=lambda x, u, mu, nu: c,
        transition=lambda x, u, mu, nu: Simplex(eye[x]),
        affine=AffineRewardSpec(a=np.zeros(n), b=np.zeros(2), f=np.full((n, 2), c)),
    )


def softmax_policy(q, seed=0, hidden=8):
    pcfg = PolicyConfig(n_states=q, n_actions=2, hidden=hidden)
    return SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(seed)))


class TestStep:
    def test_single_agent_views_are_own_state(self):
        env = firm_env(q=4, k=1)
        w = InteractionMatrix([[1.0]])
        pol = softmax_policy(4)
        sys = AgentSystemState(states=[2])
        nxt, rewards = step(env, w, pol, sys, np.random.default_rng(0))
        # with W = [[1]], the view is a point mass at the agent's own state,
        # so the reward must equal the single-agent evaluation
        mu = Simplex.point_mass(2, 4)
        nu = Simplex.point_mass(int(nxt.actions[0]), 2)
        assert rewards[0] == pytest.approx(env.reward(2, int(nxt.actions[0]), mu, nu), abs=1e-12)

    def test_deterministic_dynamics(self):
        env = constant_env()
        always_zero = FunctionPolicy(lambda x, mu: np.array([1.0, 0.0]), 3, 2)
        sys = AgentSystemState(states=[0, 1, 2])
        w = uniform(3)
        a, _ = step(env, w, always_zero, sys, np.random.default_rng(1))
        b, _ = step(env, w, always_zero, sys, np.random.default_rng(99))
        assert np.array_equal(a.states, b.states) and np.array_equal(a.states, [0, 1, 2])
        assert np.array_equal(a.actions, [0, 0, 0])

    def test_uniform_views_collapse_to_empirical(self):
        env = firm_env(q=5, k=3)
        pol = softmax_policy(5, seed=1)
        rng = np.random.default_rng(2)
        states = rng.integers(0, 5, size=30)
        views = uniform(30).views(states, 5)
        emp = empirical_distribution(states, 5).weights
        assert np.abs(views - emp).max() <= 1e-12

    def test_mismatched_sizes_error(self):
        env = firm_env()
        with pytest.raises(ValueError):
            step(env, uniform(3), softmax_policy(3), AgentSystemState(states=[0, 1]), np.random.default_rng(0))


class TestRollout:
    def test_horizon_zero_constant_reward(self):
        env = constant_env(c=2.0)
        pol = softmax_policy(3, seed=2)
        rec = rollout(env, uniform(4), pol, [0, 1, 2, 0], 0, np.random.default_rng(3))
        assert rec.discounted_return == pytest.approx(2.0, abs=1e-12)

    def test_geometric_series_any_dynamics(self):
        env = firm_env(q=4, k=2)
        pol = softmax_policy(4, seed=3)

        const = constant_env(c=1.0, gamma=0.9, n=4)
        const.transition_sample_batch = env.transition_sample_batch
        rec = rollout(const, ring_k_neighbor(5, 2), pol, [0, 1, 2, 3, 0], 20, np.random.default_rng(4))
        expected = (1 - 0.9**21) / 0.1
        assert rec.discounted_return == pytest.approx(expected, rel=1e-12)

    def test_record_is_recomputable(self):
        env = firm_env(q=4, k=3, gamma=0.8)
        pol = softmax_policy(4, seed=4)
        rec = rollout(env, ring_k_neighbor(6, 3), pol, [0, 1, 2, 3, 0, 1], 15, np.random.default_rng(5))
        assert rec.recompute_return() == pytest.approx(rec.discounted_return, abs=1e-12)
        assert rec.states.shape == (16, 6)
        assert len(rec.mus) == len(rec.nus) == 16

    def test_csv_dump(self, tmp_path):
        env = firm_env()
        pol = softmax_policy(3, seed=5)
        rec = rollout(env, uniform(2), pol, [0, 1], 2, np.random.default_rng(6))
        path = tmp_path / "rollout.csv"
        rec.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,agent,x,u,reward"
        assert len(lines) == 1 + 3 * 2

    def test_tiny_firm_matches_exhaustive_enumeration(self):
        env = firm_env(q=2, k=1, gamma=0.9)
        pol = softmax_policy(2, seed=6)
        w = ring_k_neighbor(2, 1)
        init = np.array([0, 1])
        exact = exact_population_value(env, w, pol, init, horizon=2)
        rng = np.random.default_rng(7)
        returns = [
            rollout(env, w, pol, init, 2, r).discounted_return for r in rng.spawn(4000)
        ]
        mean = np.mean(returns)
        stderr = np.std(returns, ddof=1) / np.sqrt(len(returns))
        assert abs(mean - exact) <= 3 * max(stderr, 1e-12)

    def test_stochastic_firm_matches_exhaustive_enumeration(self):
        # Q=3 exercises genuinely stochastic quality increments.
        env = firm_env(q=3, k=1, gamma=0.9)
        pol = softmax_policy(3, seed=7)
        w = ring_k_neighbor(2, 1)
        init = np.array([0, 1])
        exact = exact_population_value(env, w, pol, init, horizon=2)
        rng = np.random.default_rng(8)
        returns = [
            rollout(env, w, pol, init, 2, r).discounted_return for r in rng.spawn(6000)
        ]
        mean = np.mean(returns)
        stderr = np.std(returns, ddof=1) / np.sqrt(len(returns))
        assert abs(mean - exact) <= 3 * stderr


    def test_distributions_derived_from_states_and_actions(self):
        env = firm_env(q=4, k=2)
        pol = softmax_policy(4, seed=12)
        rec = rollout(env, ring_k_neighbor(7, 2), pol, [0, 1, 2, 3, 0, 1, 2], 6, np.random.default_rng(15))
        assert rec.mus is rec.mus and rec.nus is rec.nus
        for t in range(7):
            assert np.array_equal(rec.mus[t].weights, empirical_distribution(rec.states[t], 4).weights)
            assert np.array_equal(rec.nus[t].weights, empirical_distribution(rec.actions[t], 2).weights)


class TestSparseInteraction:
    # Ring views equal the dense product exactly for k <= 5 (see
    # test_interaction.py), so whole episodes must match bit for bit.
    @pytest.mark.parametrize(
        "builder, n, k",
        [(ring_k_neighbor, 2, 1), (ring_k_neighbor, 9, 3), (ring_k_neighbor, 60, 5),
         (ring_symmetric, 60, 4), (ring_k_neighbor, 400, 5)],
    )
    def test_rollout_identical_to_dense_matrix(self, builder, n, k):
        env = build_firm_env(FirmModelConfig(q=10, k=5), 0.9)
        pol = softmax_policy(10, seed=13, hidden=16)
        init = np.random.default_rng(n).integers(0, 10, size=n)
        w = builder(n, k)
        dense = InteractionMatrix(w.weights)
        a = rollout(env, w, pol, init, 12, np.random.default_rng(16))
        b = rollout(env, dense, pol, init, 12, np.random.default_rng(16))
        assert a.discounted_return == b.discounted_return
        for field in ("states", "actions", "rewards"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        sparse_est = estimate_v_marl(env, w, pol, init, 8, 3, np.random.default_rng(17))
        assert sparse_est == estimate_v_marl(env, dense, pol, init, 8, 3, np.random.default_rng(17))

    def test_ring_at_hundred_thousand_agents_stays_sparse(self, monkeypatch):
        def no_dense(self):
            raise AssertionError("the N x N matrix was built")

        monkeypatch.setattr(InteractionMatrix, "weights", property(no_dense))
        env = build_firm_env(FirmModelConfig(q=10, k=5), 0.9)
        pol = softmax_policy(10, seed=14, hidden=32)
        n = 100_000
        tracemalloc.start()
        try:
            w = ring_k_neighbor(n, 5)
            rng = np.random.default_rng(18)
            rec = rollout(env, w, pol, rng.integers(0, 10, size=n), 3, rng)
            view = w.views(rec.states[-1], 10)[n - 1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6
        assert rec.states.shape == (4, n)
        # the last agent's neighbors are agents 0..4
        expected = np.bincount(rec.states[-1][:5], minlength=10) / 5
        assert np.abs(view - expected).max() <= 1e-15


class TestEstimateVMarl:
    def test_deterministic_gives_zero_stderr(self):
        env = constant_env(c=1.5)
        always_zero = FunctionPolicy(lambda x, mu: np.array([1.0, 0.0]), 3, 2)
        mean, stderr = estimate_v_marl(
            env, uniform(3), always_zero, [0, 1, 2], 5, 4, np.random.default_rng(9)
        )
        assert stderr == 0.0

    def test_single_episode(self):
        env = firm_env()
        pol = softmax_policy(3, seed=8)
        rng = np.random.default_rng(10)
        mean, stderr = estimate_v_marl(env, uniform(2), pol, [0, 1], 3, 1, rng)
        assert stderr == 0.0
        rng2 = np.random.default_rng(10)
        rec = rollout(env, uniform(2), pol, [0, 1], 3, rng2.spawn(1)[0])
        assert mean == pytest.approx(rec.discounted_return)

    def test_mean_within_three_sigma_of_exact(self):
        env = firm_env(q=2, k=1, gamma=0.9)
        pol = softmax_policy(2, seed=9)
        w = ring_k_neighbor(2, 1)
        init = np.array([0, 1])
        exact = exact_population_value(env, w, pol, init, horizon=2)
        mean, stderr = estimate_v_marl(env, w, pol, init, 2, 4000, np.random.default_rng(11))
        assert abs(mean - exact) <= 3 * max(stderr, 1e-12)


class TestConcentration:
    def test_categorical_frequency_deviation_bound(self):
        # For i.i.d. uniform categoricals, the summed absolute deviation of
        # scaled empirical frequencies concentrates below sqrt(M * N).
        rng = np.random.default_rng(12)
        reps = 400
        for m in (2, 4, 8):
            for n in (10, 100):
                stats = np.empty(reps)
                for r in range(reps):
                    draws = rng.integers(0, m, size=n)
                    freq = np.bincount(draws, minlength=m) / n
                    stats[r] = n * np.abs(freq - 1.0 / m).sum()
                assert stats.mean() <= np.sqrt(m * n)

    def test_population_statistics_concentrate(self):
        # Action-distribution, state-distribution, and reward gaps between
        # the simulated population and the mean-field maps stay within the
        # theoretical envelopes, averaged over runs.
        env = build_firm_env(FirmModelConfig(q=10, k=5), 0.9)
        pol = softmax_policy(10, seed=10, hidden=32)
        from mfmarl.model import reward_constants

        consts = reward_constants(env.affine)
        runs = 60
        horizon = 5
        for n in (10, 100):
            w = ring_k_neighbor(n, 5)
            nu_bound = np.sqrt(2) / np.sqrt(n)
            mu_bound = (2 + env.lipschitz_p) * (np.sqrt(10) + np.sqrt(2)) / np.sqrt(n)
            r_bound = consts.m_f * np.sqrt(2) / np.sqrt(n)
            nu_gaps = np.zeros((runs, horizon + 1))
            mu_gaps = np.zeros((runs, horizon))
            r_gaps = np.zeros((runs, horizon + 1))
            master = np.random.default_rng([13, n])
            for r, rng in enumerate(master.spawn(runs)):
                init = rng.integers(0, 10, size=n)
                rec = rollout(env, w, pol, init, horizon, rng)
                for t in range(horizon + 1):
                    nu_gaps[r, t] = l1_distance(
                        rec.nus[t], mf_action_distribution(env, pol, rec.mus[t])
                    )
                    r_gaps[r, t] = abs(
                        rec.rewards[t].mean() - mf_reward(env, pol, rec.mus[t])
                    )
                    if t < horizon:
                        mu_gaps[r, t] = l1_distance(
                            rec.mus[t + 1], mf_transition(env, pol, rec.mus[t])
                        )
            assert np.all(nu_gaps.mean(axis=0) <= nu_bound)
            assert np.all(mu_gaps.mean(axis=0) <= mu_bound)
            assert np.all(r_gaps.mean(axis=0) <= r_bound)

    def test_population_average_of_views_cancels(self):
        # Doubly stochastic columns make the agent-averaged affine reward
        # term equal the population term exactly, every step.
        env = build_firm_env(FirmModelConfig(q=5, k=3), 0.9)
        pol = softmax_policy(5, seed=11)
        a = env.affine.a
        rng = np.random.default_rng(14)
        for w in (uniform(12), ring_k_neighbor(12, 3), sinkhorn_random(12, rng)):
            rec = rollout(env, w, pol, rng.integers(0, 5, size=12), 10, rng)
            for t in range(rec.states.shape[0]):
                views = w.views(rec.states[t], 5)
                lhs = (views @ a).mean()
                rhs = a @ rec.mus[t].weights
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
