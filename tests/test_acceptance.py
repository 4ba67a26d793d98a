"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to see them live).
"""

import time

import numpy as np
import pytest

from oracles import (
    brute_force_mf,
    contraction_env,
    dp_q_and_v,
    exact_population_value,
    empirical_distribution,
    finite_difference_log_gradient,
    firm_scalar,
    l1_distance,
    mf_action_distribution,
    mf_reward,
    mf_transition,
    toy_mdp,
)
from mfmarl.harness import parse_config, run_and_persist, run_error_vs_n, summarize
from mfmarl.interaction import ring_k_neighbor, sinkhorn_random, uniform
from mfmarl.meanfield import (
    _MeanFieldPath,
    approximation_bound,
    bound_inputs,
    mf_value,
    truncation_horizon,
)
from mfmarl.model import FirmModelConfig, build_firm_env, reward_constants
from mfmarl.nagent import estimate_v_marl, rollout
from mfmarl.npg import sample_occupancy
from mfmarl.policy import (
    PolicyConfig,
    SoftmaxPolicy,
    estimate_lipschitz_lq,
    init_params,
    log_policy_gradient,
)
from mfmarl.simplex import Simplex, sample_many


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def firm_defaults(sigma=1.0):
    return FirmModelConfig(q=10, k=5, alpha_r=1.0, beta_r=0.5, lambda_r=0.5, sigma=sigma)


def test_gradient_matches_finite_differences():
    cfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        phi = rng.uniform(-0.5, 0.5, size=cfg.n_params)
        x = int(rng.integers(cfg.n_states))
        u = int(rng.integers(cfg.n_actions))
        mu = Simplex(rng.dirichlet(np.ones(cfg.n_states)))
        analytic = log_policy_gradient(cfg, phi, [x], mu.weights[None, :], [u])[0]
        fd = finite_difference_log_gradient(cfg, phi, x, mu, u)
        worst = max(worst, np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8))
    elapsed = time.perf_counter() - start
    report(
        "gradient vs central finite differences",
        worst <= 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e} over 100 inputs in {elapsed:.1f}s",
    )


def test_meanfield_maps_match_brute_force():
    env = build_firm_env(FirmModelConfig(q=3, k=2), 0.9)
    refs = firm_scalar(FirmModelConfig(q=3, k=2))
    pcfg = PolicyConfig(n_states=3, n_actions=2, hidden=16)
    pol = SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(1002)))
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst_mu = worst_r = 0.0
    for _ in range(50):
        mu = Simplex(rng.dirichlet(np.ones(3)))
        _, brute_mu, brute_r = brute_force_mf(env, *refs, pol, mu)
        worst_mu = max(worst_mu, float(np.abs(mf_transition(env, pol, mu).weights - brute_mu).sum()))
        worst_r = max(worst_r, abs(mf_reward(env, pol, mu) - brute_r))
    elapsed = time.perf_counter() - start
    report(
        "mean-field maps vs exhaustive double sums",
        worst_mu <= 1e-12 and worst_r <= 1e-12 and elapsed < 5.0,
        f"max transition gap {worst_mu:.2e}, max reward gap {worst_r:.2e} in {elapsed:.1f}s",
    )


def test_population_return_matches_branch_enumeration():
    env = build_firm_env(FirmModelConfig(q=2, k=1), 0.9)
    refs = firm_scalar(FirmModelConfig(q=2, k=1))
    pcfg = PolicyConfig(n_states=2, n_actions=2, hidden=8)
    pol = SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(1004)))
    w = ring_k_neighbor(2, 1)
    init = np.array([0, 1])
    start = time.perf_counter()
    exact = exact_population_value(env, *refs, w, pol, init, horizon=2)
    mean, stderr = estimate_v_marl(env, w, pol, init, 2, 100_000, np.random.default_rng(1005))
    elapsed = time.perf_counter() - start
    gap = abs(mean - exact)
    report(
        "2-agent return vs exhaustive branch enumeration",
        gap <= 3 * max(stderr, 1e-12) and elapsed < 60.0,
        f"|mc - exact| {gap:.5f} vs 3*stderr {3 * stderr:.5f} in {elapsed:.0f}s",
    )


def test_population_concentration_envelopes():
    env = build_firm_env(firm_defaults(), 0.9)
    pcfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
    pol = SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(1006)))
    consts = reward_constants(env.affine)
    runs = 200
    steps = 10
    start = time.perf_counter()
    detail = []
    ok = True
    for n in (10, 100):
        w = ring_k_neighbor(n, 5)
        nu_gaps = np.zeros((runs, steps))
        mu_gaps = np.zeros((runs, steps))
        r_gaps = np.zeros((runs, steps))
        master = np.random.default_rng([1007, n])
        for r, rng in enumerate(master.spawn(runs)):
            init = rng.integers(0, 10, size=n)
            rec = rollout(env, w, pol, init, steps, rng)
            for t in range(steps):
                nu_gaps[r, t] = l1_distance(rec.nus[t], mf_action_distribution(env, pol, rec.mus[t]))
                mu_gaps[r, t] = l1_distance(rec.mus[t + 1], mf_transition(env, pol, rec.mus[t]))
                r_gaps[r, t] = abs(rec.rewards[t].mean() - mf_reward(env, pol, rec.mus[t]))
        nu_bound = np.sqrt(2) / np.sqrt(n)
        mu_bound = (2 + env.lipschitz_p) * (np.sqrt(10) + np.sqrt(2)) / np.sqrt(n)
        r_bound = (0.0 + consts.m_f) * np.sqrt(2) / np.sqrt(n)
        ok = (
            ok
            and np.all(nu_gaps.mean(axis=0) <= nu_bound)
            and np.all(mu_gaps.mean(axis=0) <= mu_bound)
            and np.all(r_gaps.mean(axis=0) <= r_bound)
        )
        detail.append(
            f"N={n}: nu {nu_gaps.mean(axis=0).max():.3f}<={nu_bound:.3f} "
            f"mu {mu_gaps.mean(axis=0).max():.3f}<={mu_bound:.3f} "
            f"r {r_gaps.mean(axis=0).max():.3f}<={r_bound:.3f}"
        )
    elapsed = time.perf_counter() - start
    report(
        "population concentration envelopes (200 runs, 10 steps)",
        ok and elapsed < 300.0,
        "; ".join(detail) + f" in {elapsed:.0f}s",
    )


def test_doubly_stochastic_cancellation():
    env = build_firm_env(firm_defaults(), 0.9)
    pcfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
    pol = SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(1008)))
    a = env.affine.a
    rng = np.random.default_rng(1009)
    n = 30
    worst = 0.0
    for w in (ring_k_neighbor(n, 5), uniform(n), sinkhorn_random(n, rng)):
        rec = rollout(env, w, pol, rng.integers(0, 10, size=n), 25, rng)
        for t in range(rec.states.shape[0]):
            views = w.views(rec.states[t], 10)
            lhs = float((views @ a).mean())
            rhs = float(a @ rec.mus[t].weights)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    report(
        "population-averaged views cancel to the empirical distribution",
        worst <= 1e-12,
        f"max relative deviation {worst:.2e} across ring/uniform/sinkhorn rollouts",
    )


def test_meanfield_maps_within_lipschitz_constants():
    env = build_firm_env(firm_defaults(), 0.9)
    pcfg = PolicyConfig(n_states=10, n_actions=2, hidden=32)
    pol = SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(1010)))
    lq = estimate_lipschitz_lq(pcfg, pol.params, 30_000, np.random.default_rng(1011))
    consts = reward_constants(env.affine)
    s_p = (1 + lq) + env.lipschitz_p * (2 + lq)
    s_r = consts.m_r * (1 + lq) + consts.l_r * (2 + lq)
    rng = np.random.default_rng(1012)
    worst_ratio = np.zeros(3)
    for _ in range(10_000):
        mu1 = Simplex(rng.dirichlet(np.ones(10)))
        mu2 = Simplex(rng.dirichlet(np.ones(10)))
        d = l1_distance(mu1, mu2)
        if d <= 1e-9:
            continue
        gaps = np.array(
            [
                l1_distance(mf_action_distribution(env, pol, mu1), mf_action_distribution(env, pol, mu2)),
                l1_distance(mf_transition(env, pol, mu1), mf_transition(env, pol, mu2)),
                abs(mf_reward(env, pol, mu1) - mf_reward(env, pol, mu2)),
            ]
        )
        worst_ratio = np.maximum(worst_ratio, gaps / d)
    bounds = np.array([1 + lq, s_p, s_r])
    report(
        "mean-field maps within composed Lipschitz constants",
        bool(np.all(worst_ratio <= bounds)),
        f"ratios {np.array2string(worst_ratio, precision=3)} vs bounds "
        f"{np.array2string(bounds, precision=3)} (L_pi_hat {lq:.3f})",
    )


def test_advantage_estimator_is_unbiased():
    env, policy, kernel, rewards, pi_tab = toy_mdp(gamma=0.9)
    q, v = dp_q_and_v(kernel, rewards, pi_tab, 0.9)
    advantage = q - v[:, None]
    mu0 = Simplex([0.5, 0.5])
    path = _MeanFieldPath(env, policy, mu0)
    rng = np.random.default_rng(1013)
    start = time.perf_counter()
    buckets = {(x, u): [] for x in range(2) for u in range(2)}
    for _ in range(100_000):
        s = sample_occupancy(path, rng)
        buckets[(s.x, s.u)].append(s.a_hat)
    elapsed = time.perf_counter() - start
    ok = True
    worst_z = 0.0
    for (x, u), vals in buckets.items():
        vals = np.asarray(vals)
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        z = abs(vals.mean() - advantage[x, u]) / stderr
        worst_z = max(worst_z, z)
        ok = ok and z <= 3.0
    report(
        "advantage estimator unbiased vs exact dynamic programming",
        ok and elapsed < 120.0,
        f"worst bucket z-score {worst_z:.2f} over 1e5 samples in {elapsed:.0f}s",
    )


def test_observed_gap_below_approximation_bound():
    env, policy = contraction_env(gamma=0.5, rho=0.05)
    tol = 1e-3
    horizon = truncation_horizon(env, tol)
    start = time.perf_counter()
    detail = []
    ok = True
    for n, episodes in ((10, 300), (100, 200), (1000, 100)):
        rng = np.random.default_rng([1014, n])
        init = sample_many(Simplex.uniform(2), n, rng)
        w = ring_k_neighbor(n, 5)
        v_marl, stderr = estimate_v_marl(env, w, policy, init, horizon, episodes, rng)
        mu0_hat = empirical_distribution(init, 2)
        v_mf, _ = mf_value(env, policy, mu0_hat, tol, horizon=horizon)
        bound = approximation_bound(bound_inputs(env, 0.0, n))
        gap = abs(v_marl - v_mf)
        margin = 3 * stderr + 2 * tol
        ok = ok and gap <= bound + margin
        detail.append(f"N={n}: gap {gap:.4f} <= bound {bound:.4f} (+margin {margin:.4f})")
    elapsed = time.perf_counter() - start
    report(
        "observed MARL-vs-MFC gap below the bound",
        ok and elapsed < 300.0,
        "; ".join(detail) + f" in {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def affine_sweep():
    cfg = parse_config(
        {
            "model": {"q": 10, "k": 5, "alpha_r": 1.0, "beta_r": 0.5, "lambda_r": 0.5, "sigma": 1.0},
            "gamma": 0.9,
            "n_list": [10, 20, 50, 100, 200],
            "seeds": 25,
            "episodes_per_seed": 10,
            "horizon_tol": 1e-3,
            "hidden": 32,
            "npg": {"eta": 1e-3, "alpha": 1e-3, "j_steps": 100, "l_steps": 100, "seed": 0},
        }
    )
    start = time.perf_counter()
    result = run_error_vs_n(cfg)
    return cfg, result, time.perf_counter() - start


def test_error_decreases_with_population_size(affine_sweep):
    cfg, result, elapsed = affine_sweep
    rows = summarize(result)
    by_n = {r.n: r for r in rows}
    rates = np.array([r.mean_error_sqrt_n for r in rows])
    ratio = rates.max() / rates.min()
    ok = (
        len(result.rows) == 125
        and by_n[200].mean_error < by_n[10].mean_error
        and ratio < 3.0
        and elapsed < 1800.0
    )
    table = "; ".join(f"N={r.n}: {r.mean_error:.3f}%+-{r.std_error:.3f}" for r in rows)
    report(
        "error decreases with N (affine reward, 25 seeds)",
        ok,
        f"{table}; sqrt(N)-rate spread {ratio:.2f}x in {elapsed:.0f}s",
    )


def test_error_decreases_for_nonlinear_rewards():
    start = time.perf_counter()
    detail = []
    ok = True
    for sigma in (1.1, 1.2):
        cfg = parse_config(
            {
                "model": {"q": 10, "k": 5, "sigma": sigma},
                "gamma": 0.9,
                "n_list": [10, 20, 50, 100, 200],
                "seeds": 25,
                "episodes_per_seed": 10,
                "horizon_tol": 1e-3,
                "hidden": 32,
                "npg": {"eta": 1e-3, "alpha": 1e-3, "j_steps": 100, "l_steps": 100, "seed": 0},
            }
        )
        result = run_error_vs_n(cfg)
        rows = summarize(result)
        by_n = {r.n: r for r in rows}
        ok = ok and len(result.rows) == 125 and by_n[200].mean_error < by_n[10].mean_error
        detail.append(
            f"sigma={sigma}: N=10 {by_n[10].mean_error:.3f}% -> N=200 {by_n[200].mean_error:.3f}%"
        )
    elapsed = time.perf_counter() - start
    report(
        "error decreases with N (nonlinear rewards)",
        ok,
        "; ".join(detail) + f" in {elapsed:.0f}s",
    )


def test_runs_are_byte_identical(tmp_path):
    raw = {
        "model": {"q": 3, "k": 2},
        "gamma": 0.9,
        "n_list": [4, 8],
        "seeds": 2,
        "episodes_per_seed": 2,
        "horizon_tol": 0.5,
        "hidden": 4,
        "npg": {"eta": 1e-3, "alpha": 1e-3, "j_steps": 2, "l_steps": 2, "seed": 0},
    }
    paths = []
    for name, threads in (("a.csv", 1), ("b.csv", 1), ("c.csv", 4)):
        cfg = parse_config({**raw, "threads": threads, "out": str(tmp_path / name)})
        run_and_persist(cfg)
        paths.append((tmp_path / name).read_bytes())
    ok = paths[0] == paths[1] == paths[2]
    report(
        "identical config and seed give byte-identical CSV",
        ok,
        f"{len(paths[0])} bytes, single-threaded rerun and 4-thread merge agree",
    )
