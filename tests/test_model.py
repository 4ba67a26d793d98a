import copy

import numpy as np
import pytest

from oracles import (
    affine_reward_eval,
    firm_reward,
    firm_scalar,
    firm_transition_distribution,
    l1_distance,
    scalar_env,
)
from mfmarl.model import (
    AffineRewardRequiredError,
    AffineRewardSpec,
    EnvModel,
    FirmModelConfig,
    build_firm_env,
    estimate_firm_lipschitz_p,
    firm_affine_spec,
    reward_constants,
)
from mfmarl.policy import PolicyConfig
from mfmarl.simplex import Simplex, sample

# Callable placeholders for the four required hooks.
HOOKS = {
    name: lambda *a: None
    for name in ("reward_batch", "transition_sample_batch", "kernel", "reward_matrix")
}


def example_cfg(sigma=1.0, q=10, k=5):
    return FirmModelConfig(q=q, k=k, alpha_r=1.0, beta_r=0.5, lambda_r=0.5, sigma=sigma)


def random_simplex(rng, n):
    return Simplex(rng.dirichlet(np.ones(n)))


class TestAffineReward:
    def test_pure_table(self):
        spec = AffineRewardSpec(a=np.zeros(3), b=np.zeros(2), f=np.arange(6.0).reshape(3, 2))
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu, nu = random_simplex(rng, 3), random_simplex(rng, 2)
            assert affine_reward_eval(spec, 2, 1, mu, nu) == 5.0

    def test_firm_mapping_value(self):
        spec = firm_affine_spec(example_cfg())
        mu = Simplex.point_mass(1, 10)  # quality level 2
        nu = Simplex.uniform(2)
        assert affine_reward_eval(spec, 3, 1, mu, nu) == pytest.approx(2.5, abs=1e-12)

    def test_affinity_in_mu(self):
        spec = firm_affine_spec(example_cfg())
        rng = np.random.default_rng(1)
        nu = Simplex.uniform(2)
        for _ in range(50):
            mu1, mu2 = random_simplex(rng, 10), random_simplex(rng, 10)
            delta = affine_reward_eval(spec, 4, 0, mu1, nu) - affine_reward_eval(spec, 4, 0, mu2, nu)
            assert delta == pytest.approx(spec.a @ (mu1.weights - mu2.weights), abs=1e-12)

    def test_dimension_mismatch(self):
        spec = firm_affine_spec(example_cfg())
        with pytest.raises(ValueError):
            affine_reward_eval(spec, 0, 0, Simplex.uniform(3), Simplex.uniform(2))


class TestRewardConstants:
    def test_zero(self):
        spec = AffineRewardSpec(a=np.zeros(2), b=np.zeros(2), f=np.zeros((2, 2)))
        c = reward_constants(spec)
        assert (c.m_r, c.l_r, c.m_f) == (0.0, 0.0, 0.0)

    def test_firm_example(self):
        c = reward_constants(firm_affine_spec(example_cfg()))
        assert c.m_f == 10.0
        assert c.m_r == pytest.approx(37.5)
        assert c.l_r == pytest.approx(27.5)

    def test_scaling_homogeneity(self):
        spec = firm_affine_spec(example_cfg())
        scaled = AffineRewardSpec(a=3.0 * spec.a, b=spec.b, f=spec.f)
        assert reward_constants(scaled).l_r == pytest.approx(3.0 * reward_constants(spec).l_r)


class TestFirmTransition:
    def test_hold_is_point_mass(self):
        cfg = example_cfg()
        for x in range(1, 11):
            d = firm_transition_distribution(cfg, x, 0, 5.0)
            assert d.weights[x - 1] == 1.0

    def test_top_quality_has_no_headroom(self):
        d = firm_transition_distribution(example_cfg(), 10, 1, 5.0)
        assert d.weights[9] == 1.0

    def test_increment_law_values(self):
        d = firm_transition_distribution(example_cfg(), 1, 1, 5.0)
        expected = np.zeros(10)
        expected[0:4] = 2.0 / 9.0
        expected[4] = 1.0 / 9.0
        assert np.allclose(d.weights, expected, atol=1e-15)

    def test_increment_law_against_monte_carlo(self):
        rng = np.random.default_rng(8)
        c = 4.5
        draws = np.floor(rng.random(1_000_000) * c).astype(int)
        mc = np.bincount(draws, minlength=10) / draws.size
        d = firm_transition_distribution(example_cfg(), 1, 1, 5.0)
        assert np.abs(d.weights - mc).sum() < 0.01

    def test_range_errors(self):
        cfg = example_cfg()
        with pytest.raises(ValueError):
            firm_transition_distribution(cfg, 0, 1, 5.0)
        with pytest.raises(ValueError):
            firm_transition_distribution(cfg, 11, 1, 5.0)
        with pytest.raises(ValueError):
            firm_transition_distribution(cfg, 1, 1, 10.5)
        with pytest.raises(ValueError):
            firm_transition_distribution(cfg, 1, 1, -0.5)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        cfg = example_cfg()
        for _ in range(200):
            x = int(rng.integers(1, 11))
            mu_bar = float(rng.uniform(1, 10))
            d = firm_transition_distribution(cfg, x, 1, mu_bar)
            assert abs(d.weights.sum() - 1.0) <= 1e-12


class TestFirmReward:
    def test_matches_affine_at_sigma_one(self):
        cfg = example_cfg()
        spec = firm_affine_spec(cfg)
        rng = np.random.default_rng(2)
        nu = Simplex.uniform(2)
        for _ in range(1000):
            x = int(rng.integers(1, 11))
            u = int(rng.integers(2))
            mu = random_simplex(rng, 10)
            assert firm_reward(cfg, x, u, mu) == pytest.approx(
                affine_reward_eval(spec, x - 1, u, mu, nu), abs=1e-12
            )

    def test_nonlinear_value(self):
        cfg = example_cfg(sigma=1.2, q=3)
        assert firm_reward(cfg, 3, 0, Simplex.point_mass(1, 3)) == pytest.approx(
            3.0 - 0.5 * 2.0**1.2
        )

    def test_action_cost_separates(self):
        cfg = example_cfg(sigma=1.2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu = random_simplex(rng, 10)
            x = int(rng.integers(1, 11))
            diff = firm_reward(cfg, x, 1, mu) - firm_reward(cfg, x, 0, mu)
            assert diff == pytest.approx(-cfg.lambda_r, abs=1e-12)


class TestBuildFirmEnv:
    def test_transitions_are_valid_distributions(self):
        _, transition = firm_scalar(FirmModelConfig(q=5, k=3))
        rng = np.random.default_rng(4)
        for _ in range(50):
            mu = random_simplex(rng, 5)
            nu = random_simplex(rng, 2)
            for x in range(5):
                for u in range(2):
                    d = transition(x, u, mu, nu)
                    assert abs(d.weights.sum() - 1.0) <= 1e-12

    def test_reward_bounded_by_constants(self):
        env = build_firm_env(example_cfg(), 0.9)
        reward, _ = firm_scalar(example_cfg())
        m_r = reward_constants(env.affine).m_r
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            x = int(rng.integers(10))
            u = int(rng.integers(2))
            mu = random_simplex(rng, 10)
            nu = random_simplex(rng, 2)
            assert abs(reward(x, u, mu, nu)) <= m_r

    def test_reward_lipschitz_constant(self):
        env = build_firm_env(example_cfg(), 0.9)
        reward, _ = firm_scalar(example_cfg())
        l_r = reward_constants(env.affine).l_r
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            x, u = int(rng.integers(10)), int(rng.integers(2))
            mu1, mu2 = random_simplex(rng, 10), random_simplex(rng, 10)
            nu1, nu2 = random_simplex(rng, 2), random_simplex(rng, 2)
            gap = abs(reward(x, u, mu1, nu1) - reward(x, u, mu2, nu2))
            assert gap <= l_r * (l1_distance(mu1, mu2) + l1_distance(nu1, nu2)) + 1e-12

    def test_declared_transition_lipschitz_holds(self):
        env = build_firm_env(example_cfg(), 0.9)
        _, transition = firm_scalar(example_cfg())
        rng = np.random.default_rng(12)
        nu = Simplex.uniform(2)
        for _ in range(10_000):
            x, u = int(rng.integers(10)), int(rng.integers(2))
            mu1, mu2 = random_simplex(rng, 10), random_simplex(rng, 10)
            gap = l1_distance(transition(x, u, mu1, nu), transition(x, u, mu2, nu))
            assert gap <= env.lipschitz_p * l1_distance(mu1, mu2) + 1e-12

    def test_paper_defaults_construct(self):
        env = build_firm_env(example_cfg(q=10, k=5), 0.9)
        assert env.n_states == 10 and env.n_actions == 2
        assert env.reward_bound == pytest.approx(37.5)

    def test_nonaffine_env_has_no_spec(self):
        env = build_firm_env(example_cfg(sigma=1.2), 0.9)
        assert env.affine is None
        assert env.reward_bound > 0
        with pytest.raises(AffineRewardRequiredError):
            firm_affine_spec(example_cfg(sigma=1.2))

    def test_batch_hooks_match_scalar_paths(self):
        env = build_firm_env(example_cfg(), 0.9)
        reward, _ = firm_scalar(example_cfg())
        rng = np.random.default_rng(13)
        states = rng.integers(0, 10, size=40)
        actions = rng.integers(0, 2, size=40)
        mu_views = rng.dirichlet(np.ones(10), size=40)
        nu_views = rng.dirichlet(np.ones(2), size=40)
        batch = env.reward_batch(states, actions, mu_views, nu_views)
        for i in range(40):
            scalar = reward(int(states[i]), int(actions[i]), Simplex(mu_views[i]), Simplex(nu_views[i]))
            assert batch[i] == pytest.approx(scalar, abs=1e-12)

    def test_kernel_hook_matches_transition(self):
        env = build_firm_env(example_cfg(q=6, k=3), 0.9)
        _, transition = firm_scalar(example_cfg(q=6, k=3))
        rng = np.random.default_rng(14)
        for _ in range(20):
            mu = random_simplex(rng, 6)
            nu = random_simplex(rng, 2)
            kernel = env.kernel(mu.weights[None, :], nu.weights[None, :])[0]
            for x in range(6):
                for u in range(2):
                    assert np.allclose(kernel[x, u], transition(x, u, mu, nu).weights, atol=1e-14)


class TestLipschitzEstimate:
    def test_single_state_is_zero(self):
        assert estimate_firm_lipschitz_p(FirmModelConfig(q=1, k=1)) == 0.0

    def test_estimate_is_positive_and_inflated(self):
        est = estimate_firm_lipschitz_p(example_cfg(), trials=30_000)
        assert est > 0
        full = estimate_firm_lipschitz_p(example_cfg())
        assert full >= est / 1.5  # same law, larger probe


class TestConfigValidation:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            FirmModelConfig(q=0, k=1)
        with pytest.raises(ValueError):
            FirmModelConfig(q=3, k=0)
        with pytest.raises(ValueError):
            FirmModelConfig(q=3, k=1, sigma=0.5)
        with pytest.raises(ValueError, match="sigma"):
            FirmModelConfig(q=3, k=1, sigma=float("nan"))

    def test_env_model_validation(self):
        with pytest.raises(ValueError):
            EnvModel(2, 2, 1.0, reward_bound=1.0, **HOOKS)
        with pytest.raises(ValueError, match="reward bound"):
            EnvModel(2, 2, 0.9, **HOOKS)

    @pytest.mark.parametrize(
        "name, make",
        [
            ("q", lambda: FirmModelConfig(q=2.5, k=1)),
            ("q", lambda: FirmModelConfig(q=True, k=1)),
            ("k", lambda: FirmModelConfig(q=3, k=1.0)),
            ("k", lambda: FirmModelConfig(q=3, k=0)),
            ("n_states", lambda: PolicyConfig(2.0, 2)),
            ("n_actions", lambda: PolicyConfig(3, 0)),
            ("hidden", lambda: PolicyConfig(3, 2, hidden=2.5)),
            ("hidden", lambda: PolicyConfig(3, 2, hidden=False)),
        ],
    )
    def test_sizes_must_be_integers(self, name, make):
        with pytest.raises(ValueError, match=rf"{name} must be an integer >= 1"):
            make()

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("n_states", {"n_states": 2.5}),
            ("n_states", {"n_states": 0}),
            ("n_actions", {"n_actions": True}),
            ("reward_bound", {"reward_bound": float("inf")}),
            ("reward_bound", {"reward_bound": float("nan")}),
            ("reward_bound", {"reward_bound": -1.0}),
            ("lipschitz_p", {"lipschitz_p": float("nan")}),
            ("lipschitz_p", {"lipschitz_p": float("inf")}),
            ("lipschitz_p", {"lipschitz_p": -0.5}),
            ("reward_batch", {"reward_batch": None}),
            ("transition_sample_batch", {"transition_sample_batch": 1.0}),
            ("kernel", {"kernel": np.zeros((1, 2, 2, 2))}),
            ("reward_matrix", {"reward_matrix": "reward"}),
        ],
    )
    def test_env_model_rejects_bad_inputs(self, name, kwargs):
        args = {"n_states": 2, "n_actions": 2, "reward_bound": 1.0, **HOOKS, **kwargs}
        with pytest.raises(ValueError, match=name):
            EnvModel(gamma=0.9, **args)

    @pytest.mark.parametrize("hook", sorted(HOOKS))
    def test_env_model_requires_every_hook(self, hook):
        hooks = {name: fn for name, fn in HOOKS.items() if name != hook}
        with pytest.raises(TypeError, match=hook):
            EnvModel(2, 2, 0.9, reward_bound=1.0, **hooks)


def scalar_firm_env(q=4, sigma=1.2):
    """The firm model, and the same model with its hooks built by the
    oracle from the scalar reward and transition."""
    env = build_firm_env(example_cfg(sigma=sigma, q=q, k=2), 0.9)
    reward, transition = firm_scalar(example_cfg(sigma=sigma, q=q, k=2))
    bare = scalar_env(q, 2, 0.9, reward, transition, reward_bound=env.reward_bound)
    return env, bare, transition


class TestEnvContract:
    def test_scalar_only_env_has_all_hooks(self):
        _, bare, _ = scalar_firm_env()
        for hook in ("reward_batch", "transition_sample_batch", "kernel", "reward_matrix"):
            assert callable(getattr(bare, hook))

    def test_built_sampler_draws_one_uniform_per_agent_in_order(self):
        _, bare, transition = scalar_firm_env(q=5)
        rng = np.random.default_rng(30)
        n = 25
        states = rng.integers(0, 5, size=n)
        actions = rng.integers(0, 2, size=n)
        mu_views = rng.dirichlet(np.ones(5), size=n)
        nu_views = rng.dirichlet(np.ones(2), size=n)
        # A per-agent `sample` loop on a copy of the generator reads the same
        # uniforms one at a time, agent i taking u[i].
        ref_rng = copy.deepcopy(rng)
        u = rng.random(n)
        drawn = bare.transition_sample_batch(states, actions, mu_views, nu_views, u)
        expected = [
            sample(transition(int(states[i]), int(actions[i]), Simplex(mu_views[i]), Simplex(nu_views[i])), ref_rng)
            for i in range(n)
        ]
        assert drawn.dtype == np.int64
        assert drawn.tolist() == expected
        assert rng.random() == ref_rng.random()

    def test_built_hooks_match_firm_hooks(self):
        env, bare, _ = scalar_firm_env()
        rng = np.random.default_rng(31)
        states = rng.integers(0, 4, size=30)
        actions = rng.integers(0, 2, size=30)
        mu_views = rng.dirichlet(np.ones(4), size=30)
        nu_views = rng.dirichlet(np.ones(2), size=30)
        rewards = bare.reward_batch(states, actions, mu_views, nu_views)
        assert np.allclose(rewards, env.reward_batch(states, actions, mu_views, nu_views), rtol=1e-12, atol=1e-12)
        mus = rng.dirichlet(np.ones(4), size=3)
        nus = rng.dirichlet(np.ones(2), size=3)
        assert np.allclose(bare.kernel(mus, nus), env.kernel(mus, nus), atol=1e-14)
        assert np.allclose(bare.reward_matrix(mus, nus), env.reward_matrix(mus, nus), rtol=1e-12, atol=1e-12)
