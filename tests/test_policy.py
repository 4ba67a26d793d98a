import re

import numpy as np
import pytest

from oracles import FunctionPolicy, policy_probs
from mfmarl.policy import (
    PolicyConfig,
    SoftmaxPolicy,
    estimate_lipschitz_lq,
    init_params,
    load_policy,
    log_policy_gradient,
    save_policy,
)
from mfmarl.simplex import Simplex


def random_simplex(rng, n):
    return Simplex(rng.dirichlet(np.ones(n)))


from oracles import finite_difference_log_gradient as finite_difference_gradient


def action_probs(cfg, phi, x, mu):
    """Action probabilities of the network `phi` at the single (x, mu)."""
    return policy_probs(SoftmaxPolicy(cfg, phi), x, mu)


class TestActionDistribution:
    def test_zero_parameters_give_uniform(self):
        cfg = PolicyConfig(n_states=4, n_actions=3, hidden=8)
        phi = np.zeros(cfg.n_params)
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = action_probs(cfg, phi, int(rng.integers(4)), random_simplex(rng, 4))
            assert np.allclose(d, 1 / 3, atol=1e-15)

    def test_output_bias_shift_invariance(self):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        rng = np.random.default_rng(1)
        phi = init_params(cfg, rng)
        shifted = phi.copy()
        shifted[-cfg.n_actions :] += 7.3
        mu = random_simplex(rng, 3)
        d1 = action_probs(cfg, phi, 1, mu)
        d2 = action_probs(cfg, shifted, 1, mu)
        assert np.allclose(d1, d2, atol=1e-12)

    def test_forced_logits(self):
        cfg = PolicyConfig(n_states=2, n_actions=2, hidden=2)
        phi = np.zeros(cfg.n_params)
        phi[-2:] = [5.0, -5.0]
        d = action_probs(cfg, phi, 0, Simplex.uniform(2))
        assert d[0] == pytest.approx(1.0 / (1.0 + np.exp(-10.0)), rel=1e-12)
        assert d[1] == pytest.approx(4.5397868702434395e-05, rel=1e-9)

    def test_outputs_are_valid_and_positive(self):
        cfg = PolicyConfig(n_states=5, n_actions=4, hidden=16)
        rng = np.random.default_rng(2)
        phi = 10.0 * init_params(cfg, rng)
        for _ in range(200):
            d = action_probs(cfg, phi, int(rng.integers(5)), random_simplex(rng, 5))
            assert abs(d.sum() - 1.0) <= 1e-9
            assert d.min() > 0.0


class TestLogGradient:
    def test_matches_finite_differences(self):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=6)
        rng = np.random.default_rng(3)
        for _ in range(25):
            phi = rng.uniform(-0.5, 0.5, size=cfg.n_params)
            x = int(rng.integers(3))
            u = int(rng.integers(2))
            mu = random_simplex(rng, 3)
            analytic = log_policy_gradient(cfg, phi, [x], mu.weights[None, :], [u])[0]
            fd = finite_difference_gradient(cfg, phi, x, mu, u)
            rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8)
            assert rel <= 1e-4

    def test_score_expectation_is_zero(self):
        cfg = PolicyConfig(n_states=4, n_actions=3, hidden=8)
        rng = np.random.default_rng(4)
        for _ in range(20):
            phi = init_params(cfg, rng)
            x = int(rng.integers(4))
            mu = random_simplex(rng, 4)
            probs = action_probs(cfg, phi, x, mu)
            scores = log_policy_gradient(cfg, phi, [x] * 3, np.tile(mu.weights, (3, 1)), np.arange(3))
            total = probs @ scores
            assert np.abs(total).max() <= 1e-8

    def test_zero_parameter_bias_block(self):
        cfg = PolicyConfig(n_states=2, n_actions=2, hidden=4)
        phi = np.zeros(cfg.n_params)
        grad = log_policy_gradient(cfg, phi, [0], Simplex.uniform(2).weights[None, :], [1])[0]
        bias_block = grad[-2:]
        assert bias_block[1] == pytest.approx(0.5)
        assert bias_block[0] == pytest.approx(-0.5)

    def test_gradients_finite_everywhere(self):
        cfg = PolicyConfig(n_states=4, n_actions=3, hidden=8)
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            phi = rng.uniform(-2, 2, size=cfg.n_params)
            g = log_policy_gradient(
                cfg, phi, [int(rng.integers(4))], random_simplex(rng, 4).weights[None, :], [int(rng.integers(3))]
            )
            assert np.all(np.isfinite(g))

    def test_batched_rows_match_one_row_calls(self):
        cfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
        rng = np.random.default_rng(12)
        phi = rng.uniform(-0.5, 0.5, size=cfg.n_params)
        states = rng.integers(0, 10, size=64)
        mu_rows = rng.dirichlet(np.ones(10), size=64)
        actions = rng.integers(0, 2, size=64)
        batch = log_policy_gradient(cfg, phi, states, mu_rows, actions)
        assert batch.shape == (64, cfg.n_params)
        for i in range(64):
            row = log_policy_gradient(cfg, phi, states[i : i + 1], mu_rows[i : i + 1], actions[i : i + 1])[0]
            assert np.abs(batch[i] - row).max() <= 1e-15, i

    @pytest.mark.parametrize(
        "states, width, actions, name",
        [
            ([0, 3], 3, [0, 1], "states"),
            ([-1, 0], 3, [0, 1], "states"),
            ([0, 1], 3, [0, 2], "actions"),
            ([0, 1], 3, [-1, 0], "actions"),
            ([0, 1], 2, [0, 1], "mu_rows"),
            ([0, 1], 3, [0], "actions"),
            ([0, 1, 2], 3, [0, 1, 1], "mu_rows"),
            ([0.0, 1.0], 3, [0, 1], "states"),
        ],
    )
    def test_bad_arguments_are_rejected(self, states, width, actions, name):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        mu_rows = np.full((2, width), 1.0 / width)
        with pytest.raises(ValueError, match=name):
            log_policy_gradient(cfg, np.zeros(cfg.n_params), states, mu_rows, actions)


def lipschitz_lq_loop(cfg, phi, trials, rng):
    """Reference: one (x, mu1, mu2) probe and two forward passes per trial."""
    best = 0.0
    for _ in range(trials):
        x = int(rng.integers(cfg.n_states))
        mu1 = rng.dirichlet(np.ones(cfg.n_states))
        mu2 = rng.dirichlet(np.ones(cfg.n_states))
        d = np.abs(mu1 - mu2).sum()
        if d <= 1e-12:
            continue
        p1 = action_probs(cfg, phi, x, Simplex(mu1))
        p2 = action_probs(cfg, phi, x, Simplex(mu2))
        best = max(best, float(np.abs(p1 - p2).sum()) / d)
    return best


class TestLipschitzEstimate:
    @pytest.mark.parametrize("n_states, hidden, trials", [(3, 4, 200), (10, 32, 500), (1, 2, 20)])
    def test_matches_loop_reference(self, n_states, hidden, trials):
        cfg = PolicyConfig(n_states=n_states, n_actions=2, hidden=hidden)
        phi = np.random.default_rng(3).normal(0.0, 0.5, cfg.n_params)
        fast = estimate_lipschitz_lq(cfg, phi, trials, np.random.default_rng(9))
        ref = lipschitz_lq_loop(cfg, phi, trials, np.random.default_rng(9))
        assert fast == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_zero_parameters_give_zero(self):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        est = estimate_lipschitz_lq(cfg, np.zeros(cfg.n_params), 100, np.random.default_rng(0))
        assert est == 0.0

    def test_monotone_in_trials(self):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        phi = init_params(cfg, np.random.default_rng(1))
        small = estimate_lipschitz_lq(cfg, phi, 100, np.random.default_rng(7))
        large = estimate_lipschitz_lq(cfg, phi, 300, np.random.default_rng(7))
        assert large >= small

    def test_scaling_weights_does_not_shrink(self):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        phi = init_params(cfg, np.random.default_rng(2))
        base = estimate_lipschitz_lq(cfg, phi, 500, np.random.default_rng(8))
        doubled = estimate_lipschitz_lq(cfg, 2.0 * phi, 500, np.random.default_rng(8))
        assert doubled >= base


class TestPolicyObjects:
    def test_batch_and_matrix_match_scalar(self):
        cfg = PolicyConfig(n_states=4, n_actions=3, hidden=8)
        rng = np.random.default_rng(6)
        pol = SoftmaxPolicy(cfg, init_params(cfg, rng))
        states = rng.integers(0, 4, size=10)
        mu_rows = rng.dirichlet(np.ones(4), size=10)
        batch = pol.probs_batch(states, mu_rows)
        for i in range(10):
            assert np.allclose(batch[i], policy_probs(pol, int(states[i]), Simplex(mu_rows[i])), atol=1e-14)

    def test_function_policy(self):
        table = np.array([[0.2, 0.8], [0.9, 0.1]])
        pol = FunctionPolicy(lambda x, mu: table[x], n_states=2, n_actions=2)
        mu_rows = np.tile(Simplex.uniform(2).weights, (2, 1))
        assert np.array_equal(pol.probs_batch(np.arange(2), mu_rows), table)

    def test_rejects_bad_params(self):
        cfg = PolicyConfig(n_states=2, n_actions=2, hidden=2)
        with pytest.raises(ValueError):
            SoftmaxPolicy(cfg, np.zeros(3))
        bad = np.zeros(cfg.n_params)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            SoftmaxPolicy(cfg, bad)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=5)
        phi = init_params(cfg, np.random.default_rng(9))
        path = tmp_path / "policy.txt"
        save_policy(path, cfg, phi)
        cfg2, phi2 = load_policy(path)
        assert cfg2 == cfg
        assert np.array_equal(phi, phi2)

    def test_header_mismatch_detected(self, tmp_path):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=5)
        phi = init_params(cfg, np.random.default_rng(10))
        path = tmp_path / "policy.txt"
        save_policy(path, cfg, phi)
        text = path.read_text().splitlines()
        path.write_text(text[0] + "\n" + ",".join(text[1].split(",")[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_policy(path)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            '{"d": 9, "n_actions": 2, "n_states": 3}\n' + ",".join(["0.0"] * 9) + "\n",
            '{"d": 9, "hidden": "x", "n_actions": 2, "n_states": 3}\n' + ",".join(["0.0"] * 9) + "\n",
            '[3, 2, 1, 9]\n' + ",".join(["0.0"] * 9) + "\n",
            '{"d": 9, "hidden": 1.5, "n_actions": 2, "n_states": 3}\n' + ",".join(["0.0"] * 9) + "\n",
            '{"d": 4, "hidden": 1, "n_actions": 1, "n_states": 1}\n',
            '{"d": 4, "hidden": 1, "n_actions": 1, "n_states": 1}\n0.0,x,0.0,0.0\n',
            '{"d": 4, "hidden": 1, "n_actions": 1, "n_states": 0}\n0.0,0.0,0.0,0.0\n',
        ],
        ids=["empty", "no-hidden", "string-hidden", "list-header", "float-hidden", "no-values",
             "bad-value", "zero-states"],
    )
    def test_malformed_checkpoint_rejected_naming_file(self, tmp_path, text):
        path = tmp_path / "policy.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_policy(path)
