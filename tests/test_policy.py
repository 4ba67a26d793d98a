import copy
import os
import pickle
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import mfmarl
from mfmarl import policy as policy_module

from oracles import (
    FunctionPolicy,
    changed_rows,
    estimate_lipschitz_lq,
    network_probs,
    onehot_network_probs,
    policy_probs,
)
from mfmarl.interaction import ring_k_neighbor
from mfmarl.model import FirmModelConfig, build_firm_env
from mfmarl.nagent import rollout
from mfmarl.policy import (
    PolicyConfig,
    SoftmaxPolicy,
    _forward,
    _layers,
    _unpack,
    init_params,
    load_policy,
    log_policy_gradient,
    save_policy,
)
from mfmarl.simplex import Simplex, sample_rows


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

    @pytest.mark.parametrize("n_actions", [1, 2, 3, 9])
    @pytest.mark.parametrize("n_states", [1, 3, 10])
    def test_forward_matches_onehot_network(self, n_states, n_actions):
        # The gathered first layer and the softmax over action columns add
        # in another order than the one-hot GEMM and the row-wise softmax
        # (numpy sums a row of 9 pairwise), so agreement is to 1e-15.
        cfg = PolicyConfig(n_states=n_states, n_actions=n_actions, hidden=16)
        rng = np.random.default_rng(100 * n_states + n_actions)
        phi = rng.uniform(-1.0, 1.0, cfg.n_params)
        states = rng.integers(0, n_states, size=500)
        mu_rows = rng.dirichlet(np.ones(n_states), size=500)
        hidden, probs = _forward(cfg, _layers(cfg, phi), states, mu_rows)
        assert hidden.shape == (500, 16) and probs.shape == (500, n_actions)
        assert np.abs(probs - onehot_network_probs(cfg, phi, states, mu_rows)).max() <= 1e-15

    def test_stacked_blocks_equal_unstacked_calls(self):
        # Each law of a stack, one view shared by |X| rows, takes BLAS calls
        # of its own, so it matches the call on that law alone bitwise, not
        # to rounding, whatever laws and parameter vectors are stacked with it.
        rng = np.random.default_rng(31)
        for _ in range(60):
            q, u, h, s = (int(rng.integers(lo, hi)) for lo, hi in ((1, 12), (1, 4), (1, 40), (1, 7)))
            cfg = PolicyConfig(n_states=q, n_actions=u, hidden=h)
            phis = rng.uniform(-1.0, 1.0, (s, cfg.n_params)) * rng.uniform(0.1, 50.0)
            r = int(rng.integers(1, 25))
            mu_rows = rng.dirichlet(np.ones(q), size=(s, r))
            hidden, probs = _forward(cfg, _layers(cfg, phis[:, None]), None, mu_rows)
            assert hidden.shape == (s, r, q, h) and probs.shape == (s, r, q, u)
            for block in range(s):
                laws = _forward(cfg, _layers(cfg, phis[block]), None, mu_rows[block])
                assert np.array_equal(hidden[block], laws[0])
                assert np.array_equal(probs[block], laws[1])
                law = int(rng.integers(r))
                alone = _forward(cfg, _layers(cfg, phis[block]), None, mu_rows[block, law : law + 1])
                assert np.array_equal(hidden[block, law], alone[0][0])
                assert np.array_equal(probs[block, law], alone[1][0])

    @pytest.mark.parametrize("laws", [1, 25])
    def test_action_laws_match_onehot_network(self, laws):
        # Law b's rows are the network at every state x with the view mu_b.
        cfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
        rng = np.random.default_rng(40 + laws)
        policy = SoftmaxPolicy(cfg, rng.uniform(-1.0, 1.0, cfg.n_params))
        mus = rng.dirichlet(np.ones(10), size=laws)
        probs = policy.action_laws(mus)
        assert probs.shape == (laws, 10, 2)
        for b in range(laws):
            expected = onehot_network_probs(cfg, policy.params, np.arange(10), np.tile(mus[b], (10, 1)))
            assert np.abs(probs[b] - expected).max() <= 1e-15, b

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 1)])
    def test_action_laws_reject_laws_of_another_shape(self, shape):
        cfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        policy = SoftmaxPolicy(cfg, init_params(cfg, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="mus must have shape"):
            policy.action_laws(np.full(shape, 1.0 / shape[-1]))

    def test_large_logits_give_finite_rows(self):
        cfg = PolicyConfig(n_states=3, n_actions=3, hidden=4)
        phi = np.zeros(cfg.n_params)
        phi[-3:] = [710.0, -710.0, 709.0]
        rng = np.random.default_rng(8)
        probs = _forward(cfg, _layers(cfg, phi), rng.integers(0, 3, size=20), rng.dirichlet(np.ones(3), size=20))[1]
        assert np.all(np.isfinite(probs))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.allclose(probs, [1.0 / (1.0 + np.exp(-1.0)), 0.0, 1.0 / (1.0 + np.exp(1.0))], rtol=1e-15)

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
    """Reference: the estimate's probes (states from the first substream of
    `rng`, view pairs from the second), then two forward passes per trial."""
    x_stream, mu_stream = rng.spawn(2)
    xs = x_stream.integers(cfg.n_states, size=trials)
    pairs = mu_stream.dirichlet(np.ones(cfg.n_states), size=(trials, 2))
    best = 0.0
    for x, (mu1, mu2) in zip(xs, pairs):
        d = np.abs(mu1 - mu2).sum()
        if d <= 1e-12:
            continue
        p1 = action_probs(cfg, phi, x, Simplex(mu1))
        p2 = action_probs(cfg, phi, x, Simplex(mu2))
        best = max(best, float(np.abs(p1 - p2).sum()) / d)
    return best


class TestLipschitzEstimate:
    """The sampled lower bound in `oracles`, which the tests that need the
    smallest constant read."""

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


class TestLipschitzBound:
    def test_attained_in_the_limit(self):
        # One hidden unit at pre-activation 0 (tanh' = 1) and a uniform
        # policy over two actions at mu = (1/2, 1/2): every step of the
        # bound's proof is tight there.
        cfg = PolicyConfig(n_states=2, n_actions=2, hidden=1)
        phi = np.zeros(cfg.n_params)
        w1, b1, w2, _ = _unpack(cfg, phi)
        w1[0, 2:] = (1.5, -0.5)
        b1[0] = -0.5
        w2[:, 0] = (0.7, -0.9)
        pol = SoftmaxPolicy(cfg, phi)
        bound = pol.lipschitz_bound()
        assert bound == pytest.approx(0.25 * 1.6 * 2.0, rel=1e-15)
        eps = 1e-6
        laws = pol.action_laws(np.array([[0.5 + eps, 0.5 - eps], [0.5 - eps, 0.5 + eps]]))
        ratios = np.abs(laws[0] - laws[1]).sum(axis=1) / (4 * eps)
        assert np.all(ratios <= bound)
        assert np.all(ratios > bound - 1e-9)

    def test_sampled_estimate_never_exceeds_it(self):
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(200):
            n_states, n_actions, hidden = rng.integers(2, 8), rng.integers(2, 5), rng.integers(1, 10)
            cfg = PolicyConfig(n_states=int(n_states), n_actions=int(n_actions), hidden=int(hidden))
            cases.append((cfg, rng.uniform(-3.0, 3.0, cfg.n_params)))
        cfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
        cases.append((cfg, init_params(cfg, np.random.default_rng(0))))
        worst = 0.0
        for cfg, phi in cases:
            bound = SoftmaxPolicy(cfg, phi).lipschitz_bound()
            sampled = estimate_lipschitz_lq(cfg, phi, 3000, rng)
            assert sampled <= bound * (1.0 + 1e-12)
            worst = max(worst, sampled / bound)
        # The random policies come close enough that the bound is not loose
        # by orders of magnitude.
        assert worst > 0.5

    def test_zero_parameters_and_doubled_output_weights(self):
        cfg = PolicyConfig(n_states=4, n_actions=3, hidden=5)
        assert SoftmaxPolicy(cfg, np.zeros(cfg.n_params)).lipschitz_bound() == 0.0
        phi = init_params(cfg, np.random.default_rng(4))
        doubled = phi.copy()
        _unpack(cfg, doubled)[2][...] *= 2.0
        assert SoftmaxPolicy(cfg, doubled).lipschitz_bound() == 2.0 * SoftmaxPolicy(cfg, phi).lipschitz_bound()


class TestPolicyObjects:
    def test_batch_and_matrix_match_scalar(self):
        cfg = PolicyConfig(n_states=4, n_actions=3, hidden=8)
        rng = np.random.default_rng(6)
        pol = SoftmaxPolicy(cfg, init_params(cfg, rng))
        states = rng.integers(0, 4, size=10)
        mu_rows = rng.dirichlet(np.ones(4), size=10)
        batch = network_probs(pol, states, mu_rows)
        for i in range(10):
            assert np.allclose(batch[i], policy_probs(pol, int(states[i]), Simplex(mu_rows[i])), atol=1e-14)

    def test_function_policy(self):
        table = np.array([[0.2, 0.8], [0.9, 0.1]])
        pol = FunctionPolicy(lambda x, mu: table[x], n_states=2, n_actions=2)
        mu_rows = np.tile(Simplex.uniform(2).weights, (2, 1))
        assert np.array_equal(pol.action_laws(mu_rows), np.stack([table, table]))

    def test_rejects_bad_params(self):
        cfg = PolicyConfig(n_states=2, n_actions=2, hidden=2)
        with pytest.raises(ValueError):
            SoftmaxPolicy(cfg, np.zeros(3))
        bad = np.zeros(cfg.n_params)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            SoftmaxPolicy(cfg, bad)


def draw_inputs(rng, cfg, b):
    """In-range states, Dirichlet views and uniforms for `b` rows."""
    return rng.integers(0, cfg.n_states, size=b), rng.dirichlet(np.ones(cfg.n_states), size=b), rng.random(b)


def draw_kept(policy, kept, states, mu_rows, u):
    """`sample_actions` through the record `kept`, which lists the rows
    whose state or view differs bitwise from the call before
    (`oracles.changed_rows`) and then holds the call's states and views, as
    `nagent.step` leaves it."""
    kept.changed = changed_rows(getattr(kept, "states", None), getattr(kept, "views", None), states, mu_rows)
    drawn = policy.sample_actions(states, mu_rows, u, kept)
    kept.states, kept.views = states, mu_rows
    return drawn


# Counts the minor page faults of 50 `sample_actions` calls at B = 4000
# through one record after warm-up; run in a fresh interpreter so that the
# allocator setting applies.
FAULT_PROBE = """
import resource, types
import numpy as np
from mfmarl.policy import PolicyConfig, SoftmaxPolicy, init_params
cfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
policy = SoftmaxPolicy(cfg, init_params(cfg, np.random.default_rng(0)))
rng = np.random.default_rng(1)
states, mu_rows, u = rng.integers(0, 10, 4000), rng.dirichlet(np.ones(10), 4000), rng.random(4000)
kept = types.SimpleNamespace()
def draw():
    policy.sample_actions(states, mu_rows, u, kept)
    kept.states, kept.views = states, mu_rows
for _ in range(10):
    draw()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    draw()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


class TestWorkspace:
    """`sample_actions` runs the network in a workspace kept on the caller's
    record, or in a fresh one without a record; `action_laws` returns arrays
    of its own."""

    def test_draws_match_sample_rows_as_the_row_count_changes(self):
        cfg = PolicyConfig(n_states=10, n_actions=3, hidden=32)
        rng = np.random.default_rng(13)
        policy = SoftmaxPolicy(cfg, rng.uniform(-1.0, 1.0, cfg.n_params))
        kept = types.SimpleNamespace()
        for b in (4000, 5, 4000, 1):
            states, mu_rows, u = draw_inputs(rng, cfg, b)
            expected = sample_rows(network_probs(policy, states, mu_rows), u)
            assert np.array_equal(policy.sample_actions(states, mu_rows, u), expected), b
            assert np.array_equal(draw_kept(policy, kept, states, mu_rows, u), expected), b

    def test_action_laws_owns_its_result(self):
        # A view on the pass's workspace would keep the whole workspace
        # alive for as long as the caller keeps the laws.
        cfg = PolicyConfig(n_states=10, n_actions=3, hidden=32)
        rng = np.random.default_rng(20)
        policy = SoftmaxPolicy(cfg, rng.uniform(-1.0, 1.0, cfg.n_params))
        probs = policy.action_laws(rng.dirichlet(np.ones(10), size=7))
        assert probs.shape == (7, 10, 3)
        assert probs.flags.owndata and probs.flags.c_contiguous

    def test_action_laws_result_is_not_overwritten_by_later_calls(self):
        cfg = PolicyConfig(n_states=10, n_actions=3, hidden=32)
        rng = np.random.default_rng(14)
        policy = SoftmaxPolicy(cfg, rng.uniform(-1.0, 1.0, cfg.n_params))
        _, mus, _ = draw_inputs(rng, cfg, 300)
        probs = policy.action_laws(mus)
        kept = probs.copy()
        for _ in range(2):
            other_states, other_mu_rows, u = draw_inputs(rng, cfg, 300)
            policy.sample_actions(other_states, other_mu_rows, u)
            policy.action_laws(other_mu_rows)
        assert np.array_equal(probs, kept)

    def test_threads_sharing_a_policy_draw_as_one_thread(self):
        cfg = PolicyConfig(n_states=10, n_actions=3, hidden=32)
        rng = np.random.default_rng(15)
        policy = SoftmaxPolicy(cfg, rng.uniform(-1.0, 1.0, cfg.n_params))
        rounds = [draw_inputs(rng, cfg, 500) for _ in range(8)]
        serial = [policy.sample_actions(*inputs) for inputs in rounds]
        matched = [[] for _ in range(4)]

        def work(i):
            for _ in range(25):
                for inputs, expected in zip(rounds, serial):
                    matched[i].append(np.array_equal(policy.sample_actions(*inputs), expected))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [len(m) for m in matched] == [200] * 4
        assert all(all(m) for m in matched)

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("method", ["sample_actions"])
    def test_out_of_range_states_are_rejected(self, method, bad):
        # The network's gather clips, so the public entry point checks.
        cfg = PolicyConfig(n_states=4, n_actions=2, hidden=8)
        policy = SoftmaxPolicy(cfg, init_params(cfg, np.random.default_rng(0)))
        args = (np.array([0, bad, 3]), np.full((3, 4), 0.25), np.full(3, 0.5))
        with pytest.raises(ValueError, match="states"):
            getattr(policy, method)(*args)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator setting, Linux page faults")
    def test_draws_take_few_page_faults_after_warm_up(self):
        # With glibc's mmap threshold at 1 MiB, a (B, H) array allocated per
        # call is given back to the OS when freed and faulted in again (about
        # 476 faults per call at B = 4000); the workspace kept on the record
        # takes none.
        src = str(Path(mfmarl.__file__).resolve().parents[1])
        env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="1048576", OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert float(out.stdout) <= 16


def spy_forward_rows(monkeypatch) -> list:
    """Record the rows of every network pass."""
    rows = []
    forward = policy_module._forward

    def spy(cfg, layers, states, mu_rows, out=None):
        rows.append(len(states))
        return forward(cfg, layers, states, mu_rows, out)

    monkeypatch.setattr(policy_module, "_forward", spy)
    return rows


class TestKeptRows:
    """Through a record, `sample_actions` keeps each row's probabilities
    and re-runs the network only on the rows whose state or view changed
    since the record's rows."""

    def test_only_changed_rows_are_re_run(self, monkeypatch):
        cfg = PolicyConfig(n_states=10, n_actions=3, hidden=32)
        rng = np.random.default_rng(16)
        policy = SoftmaxPolicy(cfg, rng.uniform(-1.0, 1.0, cfg.n_params))
        states, mu_rows, _ = draw_inputs(rng, cfg, 400)
        rows = spy_forward_rows(monkeypatch)
        record = types.SimpleNamespace()

        def check(states, mu_rows, expected_rows):
            u = rng.random(states.size)
            rows.clear()
            drawn = draw_kept(policy, record, states, mu_rows, u)
            assert rows == ([expected_rows] if expected_rows else [])
            probs = network_probs(policy, states, mu_rows)
            kept = record.out[1][:-1].T
            assert np.abs(kept - probs).max() <= 1e-15
            assert np.array_equal(drawn, sample_rows(probs, u))

        check(states, mu_rows, 400)
        check(states, mu_rows, 0)
        states = states.copy()
        states[[3, 50, 399]] = (states[[3, 50, 399]] + 1) % 10
        check(states, mu_rows, 3)
        mu_rows = mu_rows.copy()
        # The last bit of one entry is a change; an equal copy is not.
        mu_rows[[0, 7, 8, 200, 398], 4] = np.nextafter(mu_rows[[0, 7, 8, 200, 398], 4], 1.0)
        check(states, mu_rows, 5)
        check(states.copy(), mu_rows.copy(), 0)
        states, mu_rows, _ = draw_inputs(rng, cfg, 400)
        check(states, mu_rows, 400)
        states, mu_rows, _ = draw_inputs(rng, cfg, 7)
        check(states, mu_rows, 7)
        # The record holds the caller's arrays, not copies: a changed state
        # goes into a new array, as in a step loop.
        states = states.copy()
        states[2] = (states[2] + 1) % 10
        check(states, mu_rows, 1)

    def test_threads_sharing_a_policy_keep_rows_of_their_own(self):
        # Each round changes 20 of 500 states, so every call after a
        # thread's first runs the network on a subset of the rows kept on
        # its own record.
        cfg = PolicyConfig(n_states=10, n_actions=3, hidden=32)
        rng = np.random.default_rng(19)
        policy = SoftmaxPolicy(cfg, rng.uniform(-1.0, 1.0, cfg.n_params))
        states, mu_rows, _ = draw_inputs(rng, cfg, 500)
        rounds = []
        for _ in range(8):
            states = states.copy()
            states[rng.choice(500, 20, replace=False)] = rng.integers(0, 10, 20)
            rounds.append((states, mu_rows, rng.random(500)))
        expected = [sample_rows(network_probs(policy, s, m), u) for s, m, u in rounds]
        matched = [[] for _ in range(4)]

        def work(i):
            kept = types.SimpleNamespace()
            for _ in range(25):
                for inputs, drawn in zip(rounds, expected):
                    matched[i].append(np.array_equal(draw_kept(policy, kept, *inputs), drawn))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [len(m) for m in matched] == [200] * 4
        assert all(all(m) for m in matched)

    def test_pickle_and_deepcopy_give_an_equal_policy(self):
        cfg = PolicyConfig(n_states=10, n_actions=3, hidden=32)
        rng = np.random.default_rng(17)
        policy = SoftmaxPolicy(cfg, rng.uniform(-1.0, 1.0, cfg.n_params))
        policy.sample_actions(*draw_inputs(rng, cfg, 300))
        inputs = draw_inputs(rng, cfg, 300)
        for clone in (pickle.loads(pickle.dumps(policy)), copy.deepcopy(policy), copy.copy(policy)):
            assert clone.config == policy.config
            assert np.array_equal(clone.params, policy.params)
            assert not clone.params.flags.writeable
            assert np.array_equal(clone.sample_actions(*inputs), policy.sample_actions(*inputs))

    def test_the_policy_keeps_nothing_between_draws(self):
        # What a step loop carries from one step to the next lives on its
        # own record, not on the shared policy.
        cfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
        rng = np.random.default_rng(18)
        policy = SoftmaxPolicy(cfg, init_params(cfg, rng))
        for _ in range(3):
            policy.sample_actions(*draw_inputs(rng, cfg, 300))
        env = build_firm_env(FirmModelConfig(q=10, k=5), 0.9)
        rollout(env, ring_k_neighbor(40, 2), policy, np.zeros(40, dtype=int), 20, rng)
        assert sorted(vars(policy)) == ["_layers", "config", "params"]


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
        message = f"checkpoint {path} holds {cfg.n_params - 1} parameters, header says {cfg.n_params}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_policy(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "JSONDecodeError"),
            ('{"d": 9, "n_actions": 2, "n_states": 3}\n' + ",".join(["0.0"] * 9) + "\n", "KeyError: 'hidden'"),
            ('{"d": 9, "hidden": "x", "n_actions": 2, "n_states": 3}\n' + ",".join(["0.0"] * 9) + "\n",
             "header sizes must be integers >= 1, got [3, 2, 'x', 9]"),
            ('[3, 2, 1, 9]\n' + ",".join(["0.0"] * 9) + "\n", "TypeError"),
            ('{"d": 9, "hidden": 1.5, "n_actions": 2, "n_states": 3}\n' + ",".join(["0.0"] * 9) + "\n",
             "header sizes must be integers >= 1, got [3, 2, 1.5, 9]"),
            ('{"d": 4, "hidden": 1, "n_actions": 1, "n_states": 1}\n', "could not convert string to float: ''"),
            ('{"d": 4, "hidden": 1, "n_actions": 1, "n_states": 1}\n0.0,x,0.0,0.0\n',
             "could not convert string to float: 'x'"),
            ('{"d": 4, "hidden": 1, "n_actions": 1, "n_states": 0}\n0.0,0.0,0.0,0.0\n',
             "header sizes must be integers >= 1, got [0, 1, 1, 4]"),
            ('{"d": 5, "hidden": 1, "n_actions": 1, "n_states": 1}\n0.0,nan,0.0,0.0,0.0\n',
             "parameter 1 is nan, parameters must be finite"),
            ('{"d": 5, "hidden": 1, "n_actions": 1, "n_states": 1}\n0.0,0.0,0.0,0.0,-inf\n',
             "parameter 4 is -inf, parameters must be finite"),
            ('{"d": 4, "hidden": 1, "n_actions": 1, "n_states": 1}\n0.0,0.0,0.0,0.0\n',
             "header says d = 4, but n_states, n_actions, hidden = 1, 1, 1 make 5 parameters"),
        ],
        ids=["empty", "no-hidden", "string-hidden", "list-header", "float-hidden", "no-values",
             "bad-value", "zero-states", "nan", "inf", "wrong-d"],
    )
    def test_malformed_checkpoint_rejected_naming_file(self, tmp_path, text, message):
        path = tmp_path / "policy.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(message)):
            load_policy(path)
