import copy
import tracemalloc

import numpy as np
import pytest

from oracles import (
    FunctionPolicy,
    empirical_distribution,
    exact_population_value,
    firm_scalar,
    l1_distance,
    mf_action_distribution,
    mf_reward,
    mf_transition,
    policy_probs,
    scalar_env as oracle_env,
)
from mfmarl import nagent
from mfmarl.interaction import (
    InteractionMatrix,
    ring_k_neighbor,
    ring_symmetric,
    sinkhorn_random,
    uniform,
)
from mfmarl.model import AffineRewardSpec, FirmModelConfig, build_firm_env
from mfmarl.nagent import _block_returns, _simulate, estimate_v_marl, rollout, step
from mfmarl.policy import PolicyConfig, SoftmaxPolicy, init_params
from mfmarl.simplex import Simplex


def firm_env(q=3, k=2, gamma=0.9, sigma=1.0):
    return build_firm_env(FirmModelConfig(q=q, k=k, sigma=sigma), gamma)


def firm_refs(q=3, k=2, sigma=1.0):
    """The firm model's scalar (reward, transition) references."""
    return firm_scalar(FirmModelConfig(q=q, k=k, sigma=sigma))


def constant_env(c=1.0, gamma=0.9, n=3):
    eye = np.eye(n)
    return oracle_env(
        n,
        2,
        gamma,
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
        actions, rewards, _ = step(env, w, pol, np.array([2]), np.random.default_rng(0).random((2, 1)))
        # with W = [[1]], the view is a point mass at the agent's own state,
        # so the reward must equal the single-agent evaluation
        mu = Simplex.point_mass(2, 4)
        nu = Simplex.point_mass(int(actions[0]), 2)
        reward, _ = firm_refs(q=4, k=1)
        assert rewards[0] == pytest.approx(reward(2, int(actions[0]), mu, nu), abs=1e-12)

    def test_deterministic_dynamics(self):
        env = constant_env()
        always_zero = FunctionPolicy(lambda x, mu: np.array([1.0, 0.0]), 3, 2)
        states = np.array([0, 1, 2])
        w = uniform(3)
        a = step(env, w, always_zero, states, np.random.default_rng(1).random((2, 3)))
        b = step(env, w, always_zero, states, np.random.default_rng(99).random((2, 3)))
        assert np.array_equal(a[2], b[2]) and np.array_equal(a[2], [0, 1, 2])
        assert np.array_equal(a[0], [0, 0, 0])

    def test_uniforms_draw_actions_then_transitions(self):
        # Row 0 of u draws the actions and row 1 the transitions, each by
        # the inverse CDF of its agent's distribution.
        env = firm_env(q=4, k=2)
        reward, transition = firm_refs(q=4, k=2)
        pol = softmax_policy(4, seed=2)
        w = ring_k_neighbor(5, 2)
        states = np.array([0, 3, 1, 2, 1])
        u = np.random.default_rng(3).random((2, 5))
        actions, rewards, next_states = step(env, w, pol, states, u)
        mu_views = w.views(states, 4)
        nu_views = w.views(actions, 2)
        for i in range(5):
            mu, nu = Simplex(mu_views[i]), Simplex(nu_views[i])
            probs = policy_probs(pol, int(states[i]), mu)
            assert actions[i] == np.searchsorted(np.cumsum(probs), u[0, i], side="right")
            kernel = transition(int(states[i]), int(actions[i]), mu, nu).weights
            assert next_states[i] == np.searchsorted(np.cumsum(kernel), u[1, i], side="right")
            assert rewards[i] == pytest.approx(reward(int(states[i]), int(actions[i]), mu, nu), abs=1e-12)

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
        with pytest.raises(ValueError, match="states"):
            step(env, uniform(3), softmax_policy(3), np.array([0, 1]), np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 2), (3, 2), (2, 3, 1)])
    def test_uniforms_of_wrong_shape_rejected(self, shape):
        env = firm_env()
        with pytest.raises(ValueError, match=r"u must have shape \(2, 3\)"):
            step(env, uniform(3), softmax_policy(3), np.array([0, 1, 2]), np.full(shape, 0.5))


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
        recomputed = np.polynomial.polynomial.polyval(rec.gamma, rec.rewards.mean(axis=1))
        assert recomputed == pytest.approx(rec.discounted_return, abs=1e-12)
        assert rec.states.shape == (16, 6)
        assert len(rec.mus) == len(rec.nus) == 16

    def test_tiny_firm_matches_exhaustive_enumeration(self):
        env = firm_env(q=2, k=1, gamma=0.9)
        refs = firm_refs(q=2, k=1)
        pol = softmax_policy(2, seed=6)
        w = ring_k_neighbor(2, 1)
        init = np.array([0, 1])
        exact = exact_population_value(env, *refs, w, pol, init, horizon=2)
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
        refs = firm_refs(q=3, k=1)
        pol = softmax_policy(3, seed=7)
        w = ring_k_neighbor(2, 1)
        init = np.array([0, 1])
        exact = exact_population_value(env, *refs, w, pol, init, horizon=2)
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


def scalar_env(q=4, k=2):
    """The firm model with its hooks built by the oracle from the scalar
    reward and transition."""
    return oracle_env(q, 2, 0.9, *firm_refs(q=q, k=k), affine=firm_env(q=q, k=k).affine)


def blocks_of(ws, q, seed):
    """One block (w, initial_states, rng) per matrix, each with its own
    initial states and generator."""
    rng = np.random.default_rng(seed)
    return [
        (w, rng.integers(0, q, size=w.n_agents), np.random.default_rng([seed, b])) for b, w in enumerate(ws)
    ]


def separate_rollouts(env, pol, blocks, horizon):
    """Each block rolled out alone, on a copy of its generator."""
    return [rollout(env, w, pol, init, horizon, copy.deepcopy(g)) for w, init, g in blocks]


def spy_group_sizes(monkeypatch) -> list:
    """Record the agents of every step loop `_simulate` runs."""
    sizes = []
    simulate = nagent._simulate

    def spy(env, policy, blocks, horizon, record=False):
        sizes.append(sum(w.n_agents for w, _, _ in blocks))
        return simulate(env, policy, blocks, horizon, record)

    monkeypatch.setattr(nagent, "_simulate", spy)
    return sizes


class TestLockstep:
    @pytest.mark.parametrize("make_env", [firm_env, scalar_env], ids=["batched-hooks", "scalar-only"])
    def test_group_matches_separate_rollouts(self, make_env):
        env = make_env(q=4, k=2)
        pol = softmax_policy(4, seed=20)
        ws = [ring_k_neighbor(6, 2), ring_symmetric(6, 2), ring_k_neighbor(6, 3), ring_k_neighbor(6, 2)]
        blocks = blocks_of(ws, 4, 21)
        separate = separate_rollouts(env, pol, blocks, 9)
        returns, (states, actions, rewards) = _simulate(env, pol, blocks, 9, record=True)
        assert states.shape == (10, 24)
        for b, rec in enumerate(separate):
            agents = slice(6 * b, 6 * b + 6)
            assert np.array_equal(states[:, agents], rec.states)
            assert np.array_equal(actions[:, agents], rec.actions)
            assert returns[b] == pytest.approx(rec.discounted_return, rel=1e-12, abs=0.0)

    def test_dense_blocks_run_one_at_a_time(self, monkeypatch):
        env = build_firm_env(FirmModelConfig(q=10, k=5), 0.9)
        pol = softmax_policy(10, seed=22, hidden=16)
        rng = np.random.default_rng(23)
        blocks = blocks_of([sinkhorn_random(12, rng), uniform(12), sinkhorn_random(12, rng)], 10, 24)
        expected = [rec.discounted_return for rec in separate_rollouts(env, pol, blocks, 15)]
        sizes = spy_group_sizes(monkeypatch)
        np.testing.assert_allclose(_block_returns(env, pol, blocks, 15), expected, rtol=1e-12, atol=0.0)
        assert sizes == [12, 12, 12]

    def test_groups_hold_at_most_group_agents(self, monkeypatch):
        # Blocks of half the cap stack two at a time; blocks of the cap run
        # one at a time, as a rollout of each alone would.
        env = firm_env(q=3, k=2)
        pol = softmax_policy(3, seed=28)
        half = ring_k_neighbor(nagent._GROUP_AGENTS // 2, 2)
        blocks = blocks_of([half] * 5, 3, 29)
        expected = [rec.discounted_return for rec in separate_rollouts(env, pol, blocks, 1)]
        sizes = spy_group_sizes(monkeypatch)
        np.testing.assert_allclose(_block_returns(env, pol, blocks, 1), expected, rtol=1e-12, atol=0.0)
        assert sizes == [nagent._GROUP_AGENTS] * 2 + [nagent._GROUP_AGENTS // 2]
        sizes.clear()
        full = ring_k_neighbor(nagent._GROUP_AGENTS, 2)
        estimate_v_marl(env, full, pol, np.zeros(full.n_agents, dtype=int), 1, 3, np.random.default_rng(30))
        assert sizes == [nagent._GROUP_AGENTS] * 3

    def test_blocks_need_one_n_and_storage_form(self):
        env = firm_env(q=3, k=2)
        for ws in ([ring_k_neighbor(4, 2), ring_k_neighbor(5, 2)], [ring_k_neighbor(4, 2), uniform(4)]):
            with pytest.raises(ValueError, match="one N and one storage form"):
                _block_returns(env, softmax_policy(3), blocks_of(ws, 3, 31), 2)


class TestInitialStates:
    @pytest.mark.parametrize(
        "initial_states",
        [[0.5, 1, 2, 0], np.array([0.0, 1.0, 2.0, 0.0]), [[0, 1], [2, 0]], [0, 1, 2], [0, 1, 2, 0, 1],
         [0, 1, 3, 0], [-1, 0, 1, 2], [True, False, True, False]],
        ids=["fraction", "float-dtype", "2-d", "too-short", "too-long", "above-range", "negative", "bool"],
    )
    def test_bad_initial_states_rejected(self, initial_states):
        env = firm_env(q=3, k=2)
        pol = softmax_policy(3)
        w = ring_k_neighbor(4, 2)
        with pytest.raises(ValueError, match="initial_states"):
            rollout(env, w, pol, initial_states, 2, np.random.default_rng(27))
        with pytest.raises(ValueError, match="initial_states"):
            estimate_v_marl(env, w, pol, initial_states, 2, 3, np.random.default_rng(27))


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
        refs = firm_refs(q=2, k=1)
        pol = softmax_policy(2, seed=9)
        w = ring_k_neighbor(2, 1)
        init = np.array([0, 1])
        exact = exact_population_value(env, *refs, w, pol, init, horizon=2)
        mean, stderr = estimate_v_marl(env, w, pol, init, 2, 4000, np.random.default_rng(11))
        assert abs(mean - exact) <= 3 * max(stderr, 1e-12)


class TestRecordedStream:
    # Values recorded from the simulator before its step took uniforms: a
    # change to how the blocks read their random streams moves them.
    @pytest.mark.parametrize(
        "make_w, expected",
        [
            (lambda: ring_k_neighbor(12, 2), (10.661893592979892, 0.06403151460880699)),
            (lambda: sinkhorn_random(12, np.random.default_rng(42)), (10.542965096200055, 0.08408823485263715)),
        ],
        ids=["ring", "sinkhorn"],
    )
    def test_estimate_matches_recorded_values(self, make_w, expected):
        env = firm_env(q=4, k=2)
        pol = softmax_policy(4, seed=40)
        init = np.random.default_rng(41).integers(0, 4, size=12)
        got = estimate_v_marl(env, make_w(), pol, init, 20, 4, np.random.default_rng(43))
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)


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
