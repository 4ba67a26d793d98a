import numpy as np
import pytest

from oracles import (
    FunctionPolicy,
    TabularPolicy,
    brute_force_mf,
    contraction_env,
    estimate_lipschitz_lq,
    firm_scalar,
    l1_distance,
    mf_action_distribution,
    mf_reward,
    mf_transition,
    point_mass,
    policy_probs,
    scalar_env,
    toy_mdp,
)
from mfmarl.meanfield import (
    BoundInapplicableError,
    BoundInputs,
    _mean_rewards,
    _recursion,
    approximation_bound,
    bound_inputs,
    mf_path,
    mf_value,
    mf_values,
    truncation_horizon,
)
from mfmarl.model import (
    AffineRewardRequiredError,
    AffineRewardSpec,
    EnvModel,
    FirmModelConfig,
    build_firm_env,
)
from mfmarl.npg import NPGConfig, npg_train
from mfmarl.policy import PolicyConfig, SoftmaxPolicy, init_params
from mfmarl.simplex import Simplex, normalized_rows


def identity_env(gamma=0.9, rewards=None):
    """Kernel fixes every agent in place; reward depends on the state only."""
    n = 3 if rewards is None else len(rewards)
    r = np.zeros(n) if rewards is None else np.asarray(rewards, dtype=np.float64)
    eye = np.eye(n)
    return scalar_env(
        n_states=n,
        n_actions=2,
        gamma=gamma,
        reward=lambda x, u, mu, nu: float(r[x]),
        transition=lambda x, u, mu, nu: Simplex(eye[x]),
        lipschitz_p=0.0,
        affine=AffineRewardSpec(a=np.zeros(n), b=np.zeros(2), f=np.tile(r[:, None], (1, 2))),
    )


def constant_reward_env(c=1.0, gamma=0.9, n=3):
    eye = np.eye(n)
    return scalar_env(
        n_states=n,
        n_actions=2,
        gamma=gamma,
        reward=lambda x, u, mu, nu: c,
        transition=lambda x, u, mu, nu: Simplex(eye[x]),
        lipschitz_p=0.0,
        affine=AffineRewardSpec(a=np.zeros(n), b=np.zeros(2), f=np.full((n, 2), c)),
    )


def xor_policy():
    # state 0 always picks action 0, state 1 always picks action 1
    table = np.array([[1.0, 0.0], [0.0, 1.0]])
    return FunctionPolicy(lambda x, mu: table[x], n_states=2, n_actions=2)


class TestActionDistribution:
    def test_point_mass_state(self):
        env, _ = _firm(3)
        pol = _softmax(3, seed=0)
        mu = point_mass(1, 3)
        expected = policy_probs(pol, 1, mu)
        assert np.allclose(mf_action_distribution(env, pol, mu).weights, expected, atol=1e-14)

    def test_constant_policy(self):
        env = identity_env()
        pol = FunctionPolicy(lambda x, mu: np.array([0.3, 0.7]), 3, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu = Simplex(rng.dirichlet(np.ones(3)))
            assert np.allclose(
                mf_action_distribution(env, pol, mu).weights, [0.3, 0.7], atol=1e-14
            )

    def test_two_state_mixture(self):
        env = scalar_env(
            2, 2, 0.9,
            reward=lambda x, u, mu, nu: 0.0,
            transition=lambda x, u, mu, nu: Simplex(np.eye(2)[x]),
            reward_bound=0.0,
        )
        nu = mf_action_distribution(env, xor_policy(), Simplex([0.25, 0.75]))
        assert np.allclose(nu.weights, [0.25, 0.75], atol=1e-15)


def _firm(q, k=3, gamma=0.9, sigma=1.0):
    cfg = FirmModelConfig(q=q, k=k, sigma=sigma)
    return build_firm_env(cfg, gamma), cfg


def _softmax(q, seed=0, hidden=8):
    pcfg = PolicyConfig(n_states=q, n_actions=2, hidden=hidden)
    return SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(seed)))


class TestTransition:
    def test_identity_kernel_is_stationary(self):
        env = identity_env()
        pol = _softmax(3, seed=1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            mu = Simplex(rng.dirichlet(np.ones(3)))
            assert l1_distance(mf_transition(env, pol, mu), mu) <= 1e-14

    def test_point_masses(self):
        env, cfg = _firm(4)
        _, transition = firm_scalar(cfg)
        always_invest = FunctionPolicy(lambda x, mu: np.array([0.0, 1.0]), 4, 2)
        mu = point_mass(0, 4)
        nu = mf_action_distribution(env, always_invest, mu)
        expected = transition(0, 1, mu, nu)
        assert l1_distance(mf_transition(env, always_invest, mu), expected) <= 1e-14

    def test_matches_brute_force(self):
        env, cfg = _firm(3)
        pol = _softmax(3, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(50):
            mu = Simplex(rng.dirichlet(np.ones(3)))
            _, brute_mu, _ = brute_force_mf(env, *firm_scalar(cfg), pol, mu)
            assert np.abs(mf_transition(env, pol, mu).weights - brute_mu).sum() <= 1e-12

    def test_long_trajectory_stays_normalized(self):
        env, _ = _firm(5)
        pol = _softmax(5, seed=3)
        mu = Simplex.uniform(5)
        for _ in range(1000):
            mu = mf_transition(env, pol, mu)
            assert abs(mu.weights.sum() - 1.0) <= 1e-12


class TestReward:
    def test_constant(self):
        env = constant_reward_env(c=2.5)
        pol = _softmax(3, seed=4)
        assert mf_reward(env, pol, Simplex.uniform(3)) == pytest.approx(2.5, abs=1e-12)

    def test_point_masses(self):
        env, cfg = _firm(4)
        reward, _ = firm_scalar(cfg)
        always_invest = FunctionPolicy(lambda x, mu: np.array([0.0, 1.0]), 4, 2)
        mu = point_mass(2, 4)
        nu = mf_action_distribution(env, always_invest, mu)
        assert mf_reward(env, always_invest, mu) == pytest.approx(
            reward(2, 1, mu, nu), abs=1e-12
        )

    def test_matches_brute_force(self):
        env, cfg = _firm(3)
        pol = _softmax(3, seed=5)
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu = Simplex(rng.dirichlet(np.ones(3)))
            _, _, brute_r = brute_force_mf(env, *firm_scalar(cfg), pol, mu)
            assert mf_reward(env, pol, mu) == pytest.approx(brute_r, abs=1e-12)


class TestValue:
    def test_geometric_series(self):
        env = constant_reward_env(c=1.0, gamma=0.9)
        pol = _softmax(3, seed=6)
        t_star = truncation_horizon(env, 1e-3)
        value = mf_value(env, pol, Simplex.uniform(3), t_star)
        assert value == pytest.approx((1 - 0.9 ** (t_star + 1)) / 0.1, rel=1e-12)
        assert value == pytest.approx(10.0, abs=1e-3)

    def test_gamma_zero(self):
        env = constant_reward_env(c=3.0, gamma=0.0)
        pol = _softmax(3, seed=7)
        assert truncation_horizon(env, 1e-6) == 0
        value = mf_value(env, pol, Simplex.uniform(3), 0)
        assert value == pytest.approx(3.0)

    def test_identity_kernel_closed_form(self):
        rewards = [1.0, -2.0, 0.5]
        env = identity_env(gamma=0.8, rewards=rewards)
        pol = _softmax(3, seed=8)
        mu0 = Simplex([0.5, 0.3, 0.2])
        value = mf_value(env, pol, mu0, truncation_horizon(env, 1e-4))
        expected = float(mu0.weights @ rewards) / (1 - 0.8)
        assert value == pytest.approx(expected, abs=1e-4)

    def test_truncation_is_certified(self):
        env, _ = _firm(4)
        pol = _softmax(4, seed=9)
        mu0 = Simplex.uniform(4)
        tol = 1e-3
        t_star = truncation_horizon(env, tol)
        v1 = mf_value(env, pol, mu0, t_star)
        v2 = mf_value(env, pol, mu0, t_star + 50)
        assert abs(v1 - v2) < tol

    def test_trajectory_lengths_consistent(self):
        env, _ = _firm(3)
        pol = _softmax(3, seed=10)
        horizon = truncation_horizon(env, 1e-2)
        path = mf_path(env, pol, Simplex.uniform(3), horizon)
        assert [len(a) for a in path] == [horizon + 1] * 5


def _hookless(env, cfg):
    """The firm environment with its hooks built by the oracle from its
    scalar reward and transition."""
    return scalar_env(
        env.n_states,
        env.n_actions,
        env.gamma,
        *firm_scalar(cfg),
        lipschitz_p=env.lipschitz_p,
        reward_bound=env.reward_bound,
    )


def _initial_laws(n, rng):
    rows = [np.full(n, 1.0 / n), np.eye(n)[n - 1]] + list(rng.dirichlet(np.ones(n), size=4))
    return np.stack(rows)


class TestStackedValues:
    def _assert_rows_match(self, env, policy, horizon, seed=0):
        mu0s = _initial_laws(env.n_states, np.random.default_rng(seed))
        values = mf_values(env, policy, mu0s, horizon)
        assert values.shape == (len(mu0s),)
        for row, v in zip(mu0s, values):
            expected = mf_value(env, policy, Simplex(row), horizon)
            assert v == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    def test_firm_softmax(self, sigma):
        env, _ = _firm(6, sigma=sigma)
        self._assert_rows_match(env, _softmax(6, seed=20), horizon=40)

    def test_oracle_envs(self):
        env, policy, *_ = toy_mdp(gamma=0.9)
        self._assert_rows_match(env, policy, horizon=30)
        env, policy = contraction_env()
        self._assert_rows_match(env, policy, horizon=30)

    def test_hookless_env_matches_hooks(self):
        env, cfg = _firm(4, sigma=1.2)
        pol = _softmax(4, seed=21)
        bare = _hookless(env, cfg)
        self._assert_rows_match(bare, pol, horizon=20)
        mu0s = _initial_laws(4, np.random.default_rng(1))
        assert np.allclose(mf_values(bare, pol, mu0s, 20), mf_values(env, pol, mu0s, 20), rtol=1e-12, atol=0)

    def test_tabular_and_function_policies(self):
        env, _ = _firm(3)
        table = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        self._assert_rows_match(env, TabularPolicy(table), horizon=25)
        mean_field_rule = FunctionPolicy(
            lambda x, mu: np.array([mu.weights[x], 1.0 - mu.weights[x]]), 3, 2
        )
        self._assert_rows_match(env, mean_field_rule, horizon=25)

    @pytest.mark.parametrize("q", [3, 10])
    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    def test_rows_equal_mf_value_bitwise(self, q, sigma):
        # The kernel, reward tables and mean rewards reduce each row on its
        # own, so a row's value does not depend on the rows stacked with it
        # when the policy's action laws do not either. A `SoftmaxPolicy`'s
        # do not: its pass makes one view product and one output product
        # per law, each a BLAS call of its own.
        env, _ = _firm(q, sigma=sigma)
        rng = np.random.default_rng(q)
        mu0s = np.vstack([_initial_laws(q, rng), rng.dirichlet(np.ones(q), size=40)])
        rule = FunctionPolicy(lambda x, mu: np.array([mu.weights[x], 1.0 - mu.weights[x]]), q, 2)
        network = _softmax(q, seed=q, hidden=32)
        for policy in (TabularPolicy(rng.dirichlet(np.ones(2), size=q)), rule, network):
            values = mf_values(env, policy, mu0s, 60)
            for row, v in zip(mu0s, values):
                assert v == mf_value(env, policy, row, 60)

    @pytest.mark.parametrize("rows", [1, 6])
    def test_env_hooks_run_once_per_step(self, rows):
        # The recursion calls the hooks through the env's attributes, as the
        # benchmark's tracer sees them: `kernel` once per step with every
        # stacked law, and `reward_matrix` once, on all the laws of every
        # step, both for the stacked values and for a path.
        env, _ = _firm(4, sigma=1.2)
        calls = {"kernel": [], "reward_matrix": []}
        for name, log in calls.items():
            hook = getattr(env, name)
            setattr(env, name, lambda mus, nus, hook=hook, log=log: log.append(len(mus)) or hook(mus, nus))
        mu0s = _initial_laws(4, np.random.default_rng(2))[:rows]
        mf_values(env, _softmax(4, seed=26), mu0s, 17)
        assert calls == {"kernel": [rows] * 18, "reward_matrix": [rows * 18]}
        for log in calls.values():
            log.clear()
        mf_path(env, _softmax(4, seed=26), Simplex(mu0s[0]), 9)
        assert calls == {"kernel": [1] * 10, "reward_matrix": [10]}

    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    def test_values_read_rewards_in_one_call(self, sigma):
        # One `reward_matrix` call per `mf_values` call, over every step's
        # laws; the values equal a sum over one call per step, bit for bit.
        env, _ = _firm(10, sigma=sigma)
        policy = _softmax(10, seed=27)
        mu0s = _initial_laws(10, np.random.default_rng(3))
        reward_matrix, calls = env.reward_matrix, []
        env.reward_matrix = lambda mus, nus: calls.append(len(mus)) or reward_matrix(mus, nus)
        values = mf_values(env, policy, mu0s, 30)
        assert calls == [len(mu0s) * 31]
        expected, discount = np.zeros(len(mu0s)), 1.0
        for mus, nus, probs, _ in _recursion(env, policy, normalized_rows(mu0s), 30):
            expected += discount * _mean_rewards(reward_matrix(mus, nus), probs, mus)
            discount *= env.gamma
        assert np.array_equal(values, expected)

    @pytest.mark.parametrize("q", [3, 10])
    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    def test_path_rewards_equal_per_step_hook_calls(self, q, sigma):
        # The firm hooks reduce each row on its own, so the path's one call
        # over its stacked laws gives each step's table bit for bit.
        env, _ = _firm(q, sigma=sigma)
        rng = np.random.default_rng(q)
        for mu0 in (Simplex.uniform(q), Simplex(rng.dirichlet(np.ones(q)))):
            mus, nus, _, rewards, _ = mf_path(env, _softmax(q, seed=q, hidden=16), mu0, 40)
            assert rewards.shape == (41, q, 2)
            for t in range(41):
                assert np.array_equal(rewards[t], env.reward_matrix(mus[t : t + 1], nus[t : t + 1])[0])

    def test_single_row_and_zero_horizon(self):
        env, _ = _firm(3)
        pol = _softmax(3, seed=22)
        mu0 = Simplex([0.2, 0.3, 0.5])
        expected = mf_value(env, pol, mu0, 0)
        assert mf_values(env, pol, mu0.weights[None, :], 0)[0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_initial_laws(self):
        env, _ = _firm(3)
        pol = _softmax(3, seed=23)
        with pytest.raises(ValueError, match="sum"):
            mf_values(env, pol, np.array([[1 / 3] * 3, [0.5, 0.5, 0.5]]), 5)
        with pytest.raises(ValueError, match="nonnegative"):
            mf_values(env, pol, np.array([[1.2, -0.2, 0.0]]), 5)
        with pytest.raises(ValueError, match="shape"):
            mf_values(env, pol, np.array([1 / 3] * 3), 5)

    def test_array_mu0_matches_simplex(self):
        env, _ = _firm(3)
        pol = _softmax(3, seed=25)
        mu0 = np.array([0.2, 0.3, 0.5])
        horizon = truncation_horizon(env, 1e-3)
        assert mf_value(env, pol, mu0, horizon) == mf_value(env, pol, Simplex(mu0), horizon)
        path, expected_path = mf_path(env, pol, mu0, horizon), mf_path(env, pol, Simplex(mu0), horizon)
        assert all(np.array_equal(a, b) for a, b in zip(path, expected_path))
        pcfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        cfg = NPGConfig(eta=1e-3, alpha=1e-3, j_steps=2, l_steps=3)
        phi = init_params(pcfg, np.random.default_rng(0))
        runs = [npg_train(env, pcfg, phi, m, cfg, np.random.default_rng(1)) for m in (mu0, Simplex(mu0))]
        assert runs[0].values == runs[1].values

    @pytest.mark.parametrize("mu0", [[0.5, 0.6, -0.1], [0.5, 0.6, 0.1], [[1 / 3] * 3], [0.5, np.nan, 0.5], []])
    def test_mf_value_rejects_bad_vector_mu0(self, mu0):
        env, _ = _firm(3)
        with pytest.raises(ValueError, match="mu0 must be a probability vector"):
            mf_value(env, _softmax(3, seed=23), np.array(mu0), 5)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_truncation_horizon_rejects_non_positive_tol(self, tol):
        env, _ = _firm(3)
        with pytest.raises(ValueError, match="tol must be positive"):
            truncation_horizon(env, tol)

    @pytest.mark.parametrize("n", [2, 4])
    def test_mf_value_rejects_wrong_length_mu0(self, n):
        env, _ = _firm(3)
        with pytest.raises(ValueError, match="mu0"):
            mf_value(env, _softmax(3, seed=23), Simplex.uniform(n), 5)

    @pytest.mark.parametrize("n", [2, 4])
    def test_npg_train_rejects_wrong_length_mu0(self, n):
        env, _ = _firm(3)
        pcfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        cfg = NPGConfig(eta=1e-3, alpha=1e-3, j_steps=1, l_steps=1)
        phi = init_params(pcfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="mu0"):
            npg_train(env, pcfg, phi, Simplex.uniform(n), cfg, np.random.default_rng(1))

    @pytest.mark.parametrize("horizon", [-1, -2])
    def test_mf_value_rejects_negative_horizon(self, horizon):
        env, _ = _firm(3)
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            mf_value(env, _softmax(3, seed=23), Simplex.uniform(3), horizon)

    @pytest.mark.parametrize("horizon", [2.5, True, np.float64(3)])
    def test_non_integer_horizon_rejected(self, horizon):
        # A fractional horizon never met the recursion's stop test, and a
        # bool ran as 0 or 1 steps.
        env, _ = _firm(3)
        pol = _softmax(3, seed=23)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            mf_values(env, pol, np.full((2, 3), 1 / 3), horizon)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            mf_value(env, pol, Simplex.uniform(3), horizon)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            mf_path(env, pol, Simplex.uniform(3), horizon)

    def test_non_stochastic_kernel_hook_raises(self):
        env, _ = _firm(3)
        leaky = EnvModel(
            3, 2, 0.9,
            reward_bound=env.reward_bound,
            reward_batch=env.reward_batch,
            transition_sample_batch=env.transition_sample_batch,
            kernel=lambda mus, nus: 0.5 * env.kernel(mus, nus),
            reward_matrix=env.reward_matrix,
        )
        with pytest.raises(ValueError, match="sum"):
            mf_values(leaky, _softmax(3, seed=24), np.full((2, 3), 1 / 3), 5)


class TestApproximationBound:
    def test_degenerate_constants_give_zero(self):
        inp = BoundInputs(0, 0, 0, 0, 0, 0, gamma=0.9, n_states=2, n_actions=2)
        assert approximation_bound(inp, 10) == 0.0

    def test_hand_computed_value(self):
        inp = BoundInputs(
            lipschitz_p=0.05,
            lipschitz_pi=0.0,
            lipschitz_r=1.0,
            reward_bound=1.0,
            table_bound=0.0,
            action_weight_l1=0.0,
            gamma=0.9,
            n_states=2,
            n_actions=2,
        )
        assert inp.s_p == pytest.approx(1.1)
        # second summand only: (2*sqrt(2)/10) * (3*2.05/0.1) * (1/(1-0.99) - 10)
        expected = (2 * np.sqrt(2) / 10) * (3 * 2.05 / (inp.s_p - 1)) * (
            1 / (1 - 0.9 * inp.s_p) - 1 / 0.1
        )
        assert approximation_bound(inp, 100) == pytest.approx(expected, rel=1e-12)
        assert approximation_bound(inp, 100) == pytest.approx(1565.5, rel=1e-3)

    def test_inverse_sqrt_n_scaling(self):
        inp = BoundInputs(0.05, 0.1, 1.0, 1.0, 0.5, 0.2, 0.5, 3, 2)
        values = [approximation_bound(inp, n) * np.sqrt(n) for n in (10, 100, 1000)]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(values[2], rel=1e-12)

    def test_sp_equal_one_uses_limit(self):
        inp = BoundInputs(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.5, 2, 2)
        assert inp.s_p == 1.0
        expected_term2 = (2 * np.sqrt(2) / 10) * 3.0 * 2.0 * 0.5 / 0.25
        assert approximation_bound(inp, 100) == pytest.approx(expected_term2, rel=1e-12)

    def test_limit_is_continuous(self):
        near = BoundInputs(1e-12, 0.0, 1.0, 1.0, 0.0, 0.0, 0.5, 2, 2)
        at = BoundInputs(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.5, 2, 2)
        assert approximation_bound(near, 100) == pytest.approx(approximation_bound(at, 100), rel=1e-6)

    def test_inapplicable_raises(self):
        inp = BoundInputs(5.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.9, 2, 2)
        with pytest.raises(BoundInapplicableError):
            approximation_bound(inp, 100)

    @pytest.mark.parametrize("n_agents", [2.5, True, 0, -3, np.float64(100), "100"])
    def test_n_agents_must_be_a_positive_integer(self, n_agents):
        inp = BoundInputs(0.05, 0.1, 1.0, 1.0, 0.5, 0.2, 0.5, 3, 2)
        with pytest.raises(ValueError, match="n_agents must be an integer >= 1"):
            approximation_bound(inp, n_agents)

    @pytest.mark.parametrize("field", [0, 1, 5])
    def test_nan_constants_rejected(self, field):
        values = [0.05, 0.1, 1.0, 1.0, 0.5, 0.2]
        values[field] = float("nan")
        with pytest.raises(ValueError, match="must be >= 0"):
            BoundInputs(*values, 0.5, 2, 2)

    def test_bound_inputs_require_affine(self):
        env, _ = _firm(3, sigma=1.2)
        with pytest.raises(AffineRewardRequiredError):
            bound_inputs(env, 0.0)

    def test_bound_inputs_from_firm_env(self):
        env, _ = _firm(10, k=5)
        inp = bound_inputs(env, 0.5)
        assert inp.reward_bound == pytest.approx(37.5)
        assert inp.lipschitz_r == pytest.approx(27.5)
        assert inp.table_bound == 10.0
        assert inp.action_weight_l1 == 0.0
        assert inp.lipschitz_p == env.lipschitz_p


class TestLipschitzOfMeanFieldMaps:
    def test_sampled_ratios_within_constants(self):
        # Statistical check with sampled constants; the full-budget version
        # lives in the acceptance suite.
        env, _ = _firm(10, k=5)
        pol = _softmax(10, seed=12, hidden=32)
        lq = estimate_lipschitz_lq(pol.config, pol.params, 10_000, np.random.default_rng(100))
        s_p = (1 + lq) + env.lipschitz_p * (2 + lq)
        from mfmarl.model import reward_constants

        consts = reward_constants(env.affine)
        s_r = consts.m_r * (1 + lq) + consts.l_r * (2 + lq)
        rng = np.random.default_rng(101)
        for _ in range(2000):
            mu1 = Simplex(rng.dirichlet(np.ones(10)))
            mu2 = Simplex(rng.dirichlet(np.ones(10)))
            d = l1_distance(mu1, mu2)
            if d <= 1e-9:
                continue
            nu_gap = l1_distance(
                mf_action_distribution(env, pol, mu1), mf_action_distribution(env, pol, mu2)
            )
            mu_gap = l1_distance(mf_transition(env, pol, mu1), mf_transition(env, pol, mu2))
            r_gap = abs(mf_reward(env, pol, mu1) - mf_reward(env, pol, mu2))
            assert nu_gap <= (1 + lq) * d + 1e-12
            assert mu_gap <= s_p * d + 1e-12
            assert r_gap <= s_r * d + 1e-12
