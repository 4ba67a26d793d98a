import copy
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from oracles import (
    FunctionPolicy,
    contraction_env,
    empirical_distribution,
    exact_population_value,
    firm_scalar,
    irregular_matrix,
    l1_distance,
    mf_action_distribution,
    mf_reward,
    mf_transition,
    point_mass,
    policy_probs,
    reference_episode,
    ring_symmetric,
    scalar_env as oracle_env,
)
from test_policy import draw_kept, spy_forward_rows
from mfmarl import interaction, nagent
from mfmarl.interaction import (
    InteractionMatrix,
    ring_k_neighbor,
    sinkhorn_random,
    uniform,
)
from mfmarl.model import AffineRewardSpec, EnvModel, FirmModelConfig, build_firm_env
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
        mu = point_mass(2, 4)
        nu = point_mass(int(actions[0]), 2)
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


def spy_views_per_step(monkeypatch) -> list:
    """Counts `InteractionMatrix.views` calls inside each `nagent.step` call,
    one entry per step in call order."""
    calls, per_step = [], []
    views, step_fn = InteractionMatrix.views, nagent.step

    def counted_views(self, items, set_size):
        calls.append(set_size)
        return views(self, items, set_size)

    def counted_step(*args, **kwargs):
        before = len(calls)
        result = step_fn(*args, **kwargs)
        per_step.append(len(calls) - before)
        return result

    monkeypatch.setattr(InteractionMatrix, "views", counted_views)
    monkeypatch.setattr(nagent, "step", counted_step)
    return per_step


def moved_before(states: np.ndarray) -> list:
    """For each step t of a recorded episode, whether its states differ from
    those of step t - 1 (step 0 has no predecessor, so True)."""
    return [t == 0 or not np.array_equal(states[t], states[t - 1]) for t in range(len(states))]


class KeptRows:
    """`pol` drawing through a record of its own, as in a step loop, for a
    loop of `step` calls without a record: every step computes its state
    views by the full product, and the policy runs the passes `_simulate`
    would run on those views."""

    def __init__(self, pol):
        self.pol, self.kept = pol, types.SimpleNamespace()

    def sample_actions(self, states, mu_rows, u, kept=None):
        return draw_kept(self.pol, self.kept, states, mu_rows, u)


def full_product_episode(env, w, pol, initial_states, horizon, rng):
    """An episode as a loop of `step` calls without a record, so that every
    step computes its state views by the full product, while the policy
    keeps its rows (`KeptRows`): the (T+1, N) states, actions and rewards,
    and the discounted return summed as `_simulate` sums it."""
    pol, states = KeptRows(pol), np.asarray(initial_states)
    record = ([], [], [])
    returns, discount = np.zeros(1), 1.0
    for _ in range(horizon + 1):
        actions, rewards, next_states = step(env, w, pol, states, rng.random((2, w.n_agents)))
        for rows, row in zip(record, (states, actions, rewards)):
            rows.append(row)
        returns += discount * rewards.reshape(1, -1).mean(axis=1)
        discount *= env.gamma
        states = next_states
    return (*map(np.array, record), float(returns[0]))


class TestViewsComputed:
    @pytest.mark.parametrize(
        "make_w",
        [lambda: ring_k_neighbor(6, 2), lambda: sinkhorn_random(6, np.random.default_rng(5))],
        ids=["ring", "sinkhorn"],
    )
    def test_firm_step_computes_state_views_only_after_a_move(self, monkeypatch, make_w):
        # The firm hooks never read the action views, and a step after which
        # no agent moved hands its state views to the next one.
        env = firm_env(q=3, k=2)
        w = make_w()
        per_step = spy_views_per_step(monkeypatch)
        rec = rollout(env, w, softmax_policy(3, seed=3), np.zeros(6, dtype=int), 30, np.random.default_rng(7))
        moved = moved_before(rec.states)
        assert 0 < sum(moved) < len(moved)
        assert per_step == [int(m) for m in moved]

    def test_reused_views_give_the_same_episode(self):
        # A step loop that computes every view takes the same steps.
        env = firm_env(q=3, k=2)
        w = sinkhorn_random(6, np.random.default_rng(5))
        pol = softmax_policy(3, seed=3)
        rec = rollout(env, w, pol, np.zeros(6, dtype=int), 30, np.random.default_rng(7))
        states, hand, hand_pol = np.zeros(6, dtype=int), np.random.default_rng(7), KeptRows(pol)
        for t in range(31):
            actions, rewards, states = step(env, w, hand_pol, states, hand.random((2, 6)))
            assert np.array_equal(rec.actions[t], actions) and np.array_equal(rec.rewards[t], rewards)

    def test_action_views_computed_when_declared(self, monkeypatch):
        env, pol = contraction_env()
        assert env.reads_nu_views
        per_step = spy_views_per_step(monkeypatch)
        rec = rollout(env, ring_k_neighbor(20, 3), pol, np.arange(20) % 2, 15, np.random.default_rng(8))
        assert all(moved_before(rec.states))  # so no step reuses its state views
        assert per_step == [2] * 16

    def test_direct_step_counts(self, monkeypatch):
        per_step = spy_views_per_step(monkeypatch)
        u = np.full((2, 4), 0.5)
        nagent.step(firm_env(q=3), uniform(4), softmax_policy(3), np.array([0, 1, 2, 0]), u)
        env, pol = contraction_env()
        nagent.step(env, uniform(4), pol, np.array([0, 1, 1, 0]), u)
        assert per_step == [1, 2]

    def test_hook_reading_undeclared_action_views_raises(self):
        env, pol = contraction_env()
        hooks = ("reward_batch", "transition_sample_batch", "kernel", "reward_matrix")
        undeclared = EnvModel(
            2, 2, env.gamma, affine=env.affine, reads_nu_views=False, **{h: getattr(env, h) for h in hooks}
        )
        # numpy rejects None as a matmul operand; which error it raises
        # depends on the other operand.
        with pytest.raises((TypeError, ValueError), match="matmul|NoneType"):
            step(undeclared, uniform(4), pol, np.array([0, 1, 1, 0]), np.full((2, 4), 0.5))


def spy_view_paths(monkeypatch) -> list:
    """How each `nagent.step` call got its state views, in call order:
    "full" (`InteractionMatrix.views`), "update" (the movers' columns of a
    dense W, `_rank_update`), "rows" (the rows with a moved in-neighbour, on
    a W stored as its nonzeros) or "reuse" (no agent moved). Each thread
    books its own steps."""
    paths, local = [], threading.local()
    matrix = InteractionMatrix
    views, update, rows, step_fn = matrix.views, matrix._rank_update, matrix._refresh_rows, nagent.step

    def spied_views(self, items, set_size):
        local.path = "full"
        return views(self, items, set_size)

    def spied_update(self, *args):
        local.path = "update"
        return update(self, *args)

    def spied_rows(self, *args):
        local.path = "rows"
        return rows(self, *args)

    def spied_step(*args, **kwargs):
        local.path = "reuse"
        result = step_fn(*args, **kwargs)
        paths.append(local.path)
        return result

    monkeypatch.setattr(InteractionMatrix, "views", spied_views)
    monkeypatch.setattr(InteractionMatrix, "_rank_update", spied_update)
    monkeypatch.setattr(InteractionMatrix, "_refresh_rows", spied_rows)
    monkeypatch.setattr(nagent, "step", spied_step)
    return paths


def expected_view_paths(states: np.ndarray, nonzeros: bool = False) -> list:
    """The paths of `spy_view_paths` that a step loop over these recorded
    (T+1, N) states takes: the full product on the first step, and reuse
    after a step where no agent moved. When agents moved: on a dense W the
    update if there are at least `_UPDATE_MIN_AGENTS` agents, at most
    `_UPDATE_SHARE` of them moved; on a W stored as its nonzeros the rows if
    there are at least `_ROWS_MIN_AGENTS`, at most `_ROWS_SHARE` moved; else
    the full product."""
    if nonzeros:
        floor, share, few_path = interaction._ROWS_MIN_AGENTS, interaction._ROWS_SHARE, "rows"
    else:
        floor, share, few_path = interaction._UPDATE_MIN_AGENTS, interaction._UPDATE_SHARE, "update"
    n, paths = states.shape[1], ["full"]
    for before, now in zip(states[:-1], states[1:]):
        moved = np.count_nonzero(before != now)
        few = n >= floor and moved <= share * n
        paths.append("reuse" if moved == 0 else few_path if few else "full")
    return paths


class TestViewUpdate:
    # A Sinkhorn W above the size floor; from all agents at level 1, many
    # invest at first, then fewer and fewer, then none.
    N = 400
    EPS = np.finfo(float).eps

    def episode_inputs(self, n):
        env = build_firm_env(FirmModelConfig(q=10, k=5), 0.9)
        return env, sinkhorn_random(n, np.random.default_rng(70)), softmax_policy(10, seed=71, hidden=16)

    def test_views_stay_within_k_plus_one_eps_of_the_full_product(self, monkeypatch):
        # After k updates in a row since the last full product, every view
        # entry is within (k + 1) * eps of `w.views`, and none is below 0.
        env, w, pol = self.episode_inputs(self.N)
        full_views = InteractionMatrix.views
        paths = spy_view_paths(monkeypatch)
        states, kept, rng = np.zeros(self.N, dtype=np.int64), types.SimpleNamespace(), np.random.default_rng(72)
        k, longest = 0, 0
        for _ in range(200):
            _, _, next_states = nagent.step(env, w, pol, states, rng.random((2, self.N)), kept=kept)
            k = 0 if paths[-1] == "full" else k + (paths[-1] == "update")
            longest = max(longest, k)
            assert kept.states is states
            assert np.abs(kept.views - full_views(w, states, 10)).max() <= (k + 1) * self.EPS
            assert kept.views.min() >= 0.0
            states = next_states
        assert longest >= 20

    def test_paths_follow_the_movers(self, monkeypatch):
        env, w, pol = self.episode_inputs(self.N)
        paths = spy_view_paths(monkeypatch)
        rec = rollout(env, w, pol, np.zeros(self.N, dtype=int), 60, np.random.default_rng(73))
        assert paths == expected_view_paths(rec.states)
        assert {"update", "reuse"} <= set(paths) and "full" in paths[1:]

    def test_below_the_size_floor_every_move_is_a_full_product(self, monkeypatch):
        env, w, pol = self.episode_inputs(interaction._UPDATE_MIN_AGENTS - 1)
        paths = spy_view_paths(monkeypatch)
        rec = rollout(env, w, pol, np.zeros(w.n_agents, dtype=int), 60, np.random.default_rng(74))
        assert paths == expected_view_paths(rec.states)
        assert "update" not in paths and paths.count("full") > 1

    def test_rollout_takes_the_steps_of_full_products(self, monkeypatch):
        # Same states and actions; the rewards differ only by the views'
        # rounding: |dr| <= beta * sum(levels) * max|dview| plus a rounding
        # of r (|r| <= 10), with max|dview| <= (T + 1) * eps.
        env, w, pol = self.episode_inputs(self.N)
        horizon, init = 60, np.zeros(self.N, dtype=int)
        paths = spy_view_paths(monkeypatch)
        rec = rollout(env, w, pol, init, horizon, np.random.default_rng(75))
        assert "update" in paths
        *full, full_return = full_product_episode(env, w, pol, init, horizon, np.random.default_rng(75))
        assert np.array_equal(rec.states, full[0]) and np.array_equal(rec.actions, full[1])
        bound = (0.5 * 55 * (horizon + 1) + 16) * self.EPS
        np.testing.assert_allclose(rec.rewards, full[2], rtol=0.0, atol=bound)
        assert abs(rec.discounted_return - full_return) <= bound / (1 - env.gamma)


def spy_step_records(monkeypatch) -> dict:
    """What each `nagent.step` call of a step loop left on its record, in
    call order per thread: the rows it listed (a copy; None for every row),
    and whether the record's views equal `w.views` of its states bitwise.
    Install it before `spy_view_paths`, whose `views` spy it must not call."""
    seen, step_fn, views = {}, nagent.step, InteractionMatrix.views

    def spied_step(env, w, policy, states, u, *, kept=None):
        result = step_fn(env, w, policy, states, u, kept=kept)
        listed = None if kept.changed is None else kept.changed.copy()
        exact = np.array_equal(kept.views.view(np.int64), views(w, kept.states, env.n_states).view(np.int64))
        seen.setdefault(threading.get_ident(), []).append((listed, exact))
        return result

    monkeypatch.setattr(nagent, "step", spied_step)
    return seen


class TestRowUpdate:
    """On a W stored as its nonzeros, a step loop recomputes only the view
    rows with a moved in-neighbour, in place. Gated against
    `oracles.reference_episode`, which recomputes every view on every step
    and lists the changed rows by a bitwise diff: the episodes are bitwise
    equal, each step lists the rows the diff lists, and the kept views equal
    the full `bincount` bitwise."""

    HORIZON = 120

    def episode(self, w, seed):
        env = build_firm_env(FirmModelConfig(q=10, k=5), 0.9)
        pol = softmax_policy(10, seed=80, hidden=16)
        init = np.random.default_rng(seed).integers(0, 3, size=w.n_agents)
        rec = rollout(env, w, pol, init, self.HORIZON, np.random.default_rng(seed + 1))
        reference = reference_episode(env, w, pol, init, self.HORIZON, np.random.default_rng(seed + 1))
        return rec, reference

    @staticmethod
    def assert_matches(rec, reference, steps):
        *fields, ref_return, listed = reference
        for name, expected in zip(("states", "actions", "rewards"), fields):
            assert np.array_equal(getattr(rec, name), expected), name
        assert rec.discounted_return == ref_return
        assert len(steps) == len(listed)
        for t, ((rows, exact), expected) in enumerate(zip(steps, listed)):
            assert exact, t
            assert (rows is None and expected is None) or np.array_equal(rows, expected), t

    def run_case(self, monkeypatch, w, seed):
        seen = spy_step_records(monkeypatch)
        paths = spy_view_paths(monkeypatch)
        rec, reference = self.episode(w, seed)
        (steps,) = seen.values()
        self.assert_matches(rec, reference, steps)
        assert paths == expected_view_paths(rec.states, nonzeros=True)
        return paths

    def test_one_agent_below_the_floor_takes_the_full_bincount(self, monkeypatch):
        paths = self.run_case(monkeypatch, ring_k_neighbor(interaction._ROWS_MIN_AGENTS - 1, 5), 81)
        assert "rows" not in paths and paths.count("full") > 1 and "reuse" in paths

    @pytest.mark.parametrize("n", [interaction._ROWS_MIN_AGENTS, 10_000])
    def test_ring_at_and_above_the_floor_updates_rows(self, monkeypatch, n):
        paths = self.run_case(monkeypatch, ring_k_neighbor(n, 5), 82)
        assert {"rows", "reuse"} <= set(paths) and "full" in paths[1:]

    def test_irregular_w_updates_rows(self, monkeypatch):
        w = irregular_matrix(interaction._ROWS_MIN_AGENTS + 300, np.random.default_rng(83))
        assert len(set(np.bincount(w.nonzeros[0]))) > 3
        paths = self.run_case(monkeypatch, w, 84)
        assert "rows" in paths

    def test_threads_stepping_loops_on_one_w_keep_records_of_their_own(self, monkeypatch):
        # A fresh W, so that both threads may build its column index at once.
        w = ring_k_neighbor(interaction._ROWS_MIN_AGENTS, 5)
        seen = spy_step_records(monkeypatch)
        results = {}

        def work(seed):
            results[seed] = (threading.get_ident(), *self.episode(w, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(seed,)) for seed in (85, 87)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(results) == [85, 87]
        for ident, rec, reference in results.values():
            self.assert_matches(rec, reference, seen[ident])


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
        assert rec.actions.shape == rec.rewards.shape == (16, 6)

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
        # A step's empirical laws come from its row of states and actions.
        env = firm_env(q=4, k=2)
        pol = softmax_policy(4, seed=12)
        init = [0, 1, 2, 3, 0, 1, 2]
        rec = rollout(env, ring_k_neighbor(7, 2), pol, init, 6, np.random.default_rng(15))
        assert rec.states.shape == rec.actions.shape == (7, 7)
        assert rec.states.dtype == rec.actions.dtype == np.int64
        assert np.array_equal(empirical_distribution(rec.states[0], 4).weights, [2 / 7, 2 / 7, 2 / 7, 1 / 7])
        for t in range(7):
            # Out-of-range indices would raise here.
            assert len(empirical_distribution(rec.states[t], 4)) == 4
            assert len(empirical_distribution(rec.actions[t], 2)) == 2


class TestSparseInteraction:
    # Ring views equal the dense product exactly for k <= 5 (see
    # test_interaction.py), so whole episodes must match bit for bit.
    @pytest.mark.parametrize(
        "builder, n, k",
        [(ring_k_neighbor, 2, 1), (ring_k_neighbor, 9, 3), (ring_k_neighbor, 60, 5),
         (ring_symmetric, 60, 4), (ring_k_neighbor, 400, 5)],
    )
    def test_rollout_identical_to_dense_matrix(self, builder, n, k):
        # The dense side is a loop of full-product steps: a step loop on a
        # dense W of at least `_UPDATE_MIN_AGENTS` agents updates its views
        # by the movers' columns, which rounds differently.
        env = build_firm_env(FirmModelConfig(q=10, k=5), 0.9)
        pol = softmax_policy(10, seed=13, hidden=16)
        init = np.random.default_rng(n).integers(0, 10, size=n)
        w = builder(n, k)
        dense = InteractionMatrix(w.weights)
        a = rollout(env, w, pol, init, 12, np.random.default_rng(16))
        *b, b_return = full_product_episode(env, dense, pol, init, 12, np.random.default_rng(16))
        assert a.discounted_return == b_return
        for field, expected in zip(("states", "actions", "rewards"), b):
            assert np.array_equal(getattr(a, field), expected)
        sparse_est = estimate_v_marl(env, w, pol, init, 8, 3, np.random.default_rng(17))
        streams = np.random.default_rng(17).spawn(3)
        returns = [full_product_episode(env, dense, pol, init, 8, g)[-1] for g in streams]
        assert sparse_est == nagent._mean_stderr(np.array(returns))

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

    def test_a_step_loop_keeps_no_rows_from_an_earlier_loop(self, monkeypatch):
        # A pass over a subset of rows rounds differently in the last bit
        # from a pass over all rows, so each loop draws through rows of its
        # own: what the thread simulated before does not reach its results.
        env = firm_env(q=4, k=2)
        ws = [ring_k_neighbor(30, 2)] * 4
        alone = _simulate(env, softmax_policy(4, seed=50), blocks_of(ws, 4, 52), 30)[0]
        pol = softmax_policy(4, seed=50)
        _simulate(env, pol, blocks_of(ws, 4, 51), 30)
        assert np.array_equal(_simulate(env, pol, blocks_of(ws, 4, 52), 30)[0], alone)
        # States that never move end one loop where the next starts; the
        # next loop still runs the network over every row on its first step.
        rows = spy_forward_rows(monkeypatch)
        static, pol = constant_env(), softmax_policy(3, seed=53)
        for _ in range(2):
            rows.clear()
            _simulate(static, pol, blocks_of(ws, 3, 54), 4)
            assert rows == [120]

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


    def test_a_step_loop_checks_each_steps_states_once(self, monkeypatch):
        # The loop checks its initial states, and each step the next states
        # it returns; a step trusts the states the step before returned.
        names, check = [], nagent._check_indices
        monkeypatch.setattr(nagent, "_check_indices", lambda name, *args: names.append(name) or check(name, *args))
        env, pol, w = firm_env(q=3, k=2), softmax_policy(3), ring_k_neighbor(6, 2)
        rollout(env, w, pol, np.zeros(6, dtype=int), 10, np.random.default_rng(28))
        assert names == ["initial_states"] + ["transition_sample_batch's next states"] * 11

    def test_a_step_checks_states_it_did_not_return(self):
        env, pol, w = firm_env(q=3, k=2), softmax_policy(3), ring_k_neighbor(4, 2)
        kept, u = types.SimpleNamespace(), np.full((2, 4), 0.5)
        _, _, next_states = step(env, w, pol, np.array([0, 1, 2, 0]), u, kept=kept)
        assert kept.next is next_states
        with pytest.raises(ValueError, match="states"):
            step(env, w, pol, np.array([0, 1, 3, 0]), u, kept=kept)


class TestEstimateVMarl:
    @pytest.mark.parametrize("horizon", [2.5, True, np.float64(3)])
    def test_non_integer_horizon_rejected(self, horizon):
        env = firm_env()
        pol = softmax_policy(3)
        w = ring_k_neighbor(4, 2)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            rollout(env, w, pol, [0, 1, 2, 0], horizon, np.random.default_rng(0))
        with pytest.raises(ValueError, match="horizon must be an integer"):
            estimate_v_marl(env, w, pol, [0, 1, 2, 0], horizon, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("episodes", [0, -1, 2.5, True])
    def test_episodes_must_be_a_positive_integer(self, episodes):
        env = firm_env()
        with pytest.raises(ValueError, match="episodes"):
            estimate_v_marl(env, ring_k_neighbor(4, 2), softmax_policy(3), [0, 1, 2, 0], 3, episodes, np.random.default_rng(0))

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


    def test_chunked_draws_match_one_draw_per_step(self):
        # The step loop draws its uniforms `_DRAW_STEPS` steps at a time; it
        # takes the steps of a loop that draws each step's (2, N) on its own,
        # and leaves the caller's stream where that loop does.
        env = firm_env(q=4, k=2)
        pol = softmax_policy(4, seed=44)
        w = ring_k_neighbor(8, 2)
        states = np.arange(8) % 4
        horizon = 2 * nagent._DRAW_STEPS + 5
        rng, hand = np.random.default_rng(45), np.random.default_rng(45)
        rec = rollout(env, w, pol, states, horizon, rng)
        kept = types.SimpleNamespace()
        for t in range(horizon + 1):
            assert np.array_equal(rec.states[t], states)
            actions, _, states = step(env, w, pol, states, hand.random((2, 8)), kept=kept)
            assert np.array_equal(rec.actions[t], actions)
        assert rng.random() == hand.random()

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
                mus = [empirical_distribution(states, 10) for states in rec.states]
                nus = [empirical_distribution(actions, 2) for actions in rec.actions]
                for t in range(horizon + 1):
                    nu_gaps[r, t] = l1_distance(
                        nus[t], mf_action_distribution(env, pol, mus[t])
                    )
                    r_gaps[r, t] = abs(
                        rec.rewards[t].mean() - mf_reward(env, pol, mus[t])
                    )
                    if t < horizon:
                        mu_gaps[r, t] = l1_distance(
                            mus[t + 1], mf_transition(env, pol, mus[t])
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
                rhs = a @ empirical_distribution(rec.states[t], 5).weights
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
