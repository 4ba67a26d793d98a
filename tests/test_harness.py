import dataclasses
import json
import re

import numpy as np
import pytest

from oracles import contraction_env, empirical_distribution, scalar_env
from mfmarl import cli, nagent
from mfmarl.harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    bound_report,
    build_interaction,
    load_config,
    parse_config,
    percentage_error,
    resolved_config_dict,
    run_and_persist,
    run_error_vs_n,
    summarize,
    train_policy,
)
from mfmarl.model import (
    AffineRewardRequiredError,
    AffineRewardSpec,
    EnvModel,
    FirmModelConfig,
    build_firm_env,
)
from mfmarl.meanfield import mf_value, truncation_horizon
from mfmarl.nagent import estimate_v_marl, rollout
from mfmarl.npg import NPGConfig
from mfmarl.policy import PolicyConfig, SoftmaxPolicy, init_params, save_policy
from mfmarl.simplex import Simplex, sample_many


def tiny_config(**overrides):
    raw = {
        "model": {"q": 3, "k": 2, "alpha_r": 1.0, "beta_r": 0.5, "lambda_r": 0.5, "sigma": 1.0},
        "gamma": 0.9,
        "n_list": [4, 8],
        "seeds": 2,
        "episodes_per_seed": 2,
        "horizon_tol": 0.5,
        "hidden": 4,
        "npg": {"eta": 1e-3, "alpha": 1e-3, "j_steps": 2, "l_steps": 2, "seed": 0},
    }
    raw.update(overrides)
    return parse_config(raw)


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config({"model": {"q": 10, "k": 5}})
        assert cfg.gamma == 0.9
        assert cfg.n_list == (10, 20, 50, 100, 200)
        assert cfg.seeds == 25
        assert cfg.episodes_per_seed == 10
        assert cfg.npg.j_steps == 100 and cfg.npg.l_steps == 100
        assert cfg.initial_distribution().weights.tolist() == [0.1] * 10

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown top-level"):
            parse_config({"model": {"q": 3, "k": 2}, "bogus": 1})
        with pytest.raises(ValueError, match="unknown model"):
            parse_config({"model": {"q": 3, "k": 2, "nope": 1}})
        with pytest.raises(ValueError, match="unknown npg"):
            parse_config({"model": {"q": 3, "k": 2}, "npg": {"foo": 2}})

    def test_gamma_in_model_section(self):
        cfg = parse_config({"model": {"q": 3, "k": 2, "gamma": 0.8}})
        assert cfg.gamma == 0.8
        with pytest.raises(ValueError, match="conflicts"):
            parse_config({"model": {"q": 3, "k": 2, "gamma": 0.8}, "gamma": 0.9})

    def test_npg_gamma_rejected(self):
        with pytest.raises(ValueError, match="unknown npg"):
            parse_config({"model": {"q": 3, "k": 2}, "npg": {"gamma": 0.9}})

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("seeds", {"seeds": 2.5}),
            ("seeds", {"seeds": "3"}),
            ("seeds", {"seeds": True}),
            ("episodes_per_seed", {"episodes_per_seed": 1.9}),
            ("threads", {"threads": 1.5}),
            ("hidden", {"hidden": 4.7}),
            ("n_list", {"n_list": [10, 10.5]}),
            ("npg.j_steps", {"npg": {"j_steps": 2.5}}),
            ("npg.l_steps", {"npg": {"l_steps": False}}),
            ("npg.seed", {"npg": {"seed": 1.0}}),
            ("model.q", {"model": {"q": 3.5, "k": 2}}),
            ("model.k", {"model": {"q": 3, "k": "2"}}),
        ],
    )
    def test_non_integer_counts_rejected(self, key, overrides):
        raw = {"model": {"q": 3, "k": 2}}
        raw.update(overrides)
        with pytest.raises(ValueError, match=key):
            parse_config(raw)

    def test_integer_counts_accepted(self):
        cfg = parse_config(
            {"model": {"q": 3, "k": 2}, "seeds": 3, "episodes_per_seed": 2, "threads": 2,
             "hidden": 4, "n_list": [5, 10], "npg": {"j_steps": 2, "l_steps": 3, "seed": 7}}
        )
        assert (cfg.seeds, cfg.episodes_per_seed, cfg.threads, cfg.hidden) == (3, 2, 2, 4)
        assert cfg.n_list == (5, 10)
        assert (cfg.npg.j_steps, cfg.npg.l_steps, cfg.npg.seed) == (2, 3, 7)

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("gamma", {"gamma": "0.5"}),
            ("gamma", {"gamma": True}),
            ("model.gamma", {"model": {"q": 3, "k": 2, "gamma": "0.5"}}),
            ("horizon_tol", {"horizon_tol": "0.01"}),
            ("horizon_tol", {"horizon_tol": float("inf")}),
            ("npg.eta", {"npg": {"eta": "0.1"}}),
            ("npg.alpha", {"npg": {"alpha": float("inf")}}),
            ("npg.alpha", {"npg": {"alpha": float("nan")}}),
            ("model.alpha_r", {"model": {"q": 3, "k": 2, "alpha_r": "1"}}),
            ("model.beta_r", {"model": {"q": 3, "k": 2, "beta_r": float("nan")}}),
            ("model.lambda_r", {"model": {"q": 3, "k": 2, "lambda_r": False}}),
            ("model.sigma", {"model": {"q": 3, "k": 2, "sigma": "1.2"}}),
            ("model.sigma", {"model": {"q": 3, "k": 2, "sigma": float("-inf")}}),
            ("mu0", {"mu0": ["0.5", 0.25, 0.25]}),
        ],
    )
    def test_non_finite_reals_rejected(self, key, overrides):
        raw = {"model": {"q": 3, "k": 2}}
        raw.update(overrides)
        with pytest.raises(ValueError, match=key):
            parse_config(raw)

    def test_real_values_accepted(self):
        cfg = parse_config(
            {"model": {"q": 3, "k": 2, "alpha_r": 2, "beta_r": 0.25, "lambda_r": 0, "sigma": 1.5},
             "gamma": 0.8, "horizon_tol": 0.01, "npg": {"eta": 0, "alpha": 0.5}}
        )
        assert (cfg.model.alpha_r, cfg.model.beta_r, cfg.model.lambda_r, cfg.model.sigma) == (2, 0.25, 0, 1.5)
        assert (cfg.gamma, cfg.horizon_tol, cfg.npg.eta, cfg.npg.alpha) == (0.8, 0.01, 0, 0.5)

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("model", {"seeds": 2}),
            ("model", {"model": None}),
            ("model.q", {"model": {"k": 2}}),
            ("model.k", {"model": {"q": 3}}),
        ],
    )
    def test_missing_model_keys_rejected(self, key, raw):
        with pytest.raises(ValueError, match=key):
            parse_config(raw)

    def test_mu0_forms(self):
        cfg = parse_config({"model": {"q": 2, "k": 1}, "mu0": [0.25, 0.75]})
        assert cfg.initial_distribution().weights.tolist() == [0.25, 0.75]
        cfg = parse_config({"model": {"q": 2, "k": 1}, "mu0": "uniform"})
        assert cfg.mu0 is None
        with pytest.raises(ValueError):
            parse_config({"model": {"q": 2, "k": 1}, "mu0": "gaussian"})

    @pytest.mark.parametrize(
        "mu0", [[0.5, 0.5], [0.5, 0.25, 0.25, 0.0], [1.5, -0.5, 0.0], [1, 1, 3], [0.5, 0.25, 0.2], 0.5]
    )
    def test_bad_mu0_rejected(self, mu0):
        # q = 3: a law over the wrong number of states, with a negative entry
        # or a sum off 1, or not a list
        with pytest.raises(ValueError, match="mu0"):
            parse_config({"model": {"q": 3, "k": 2}, "mu0": mu0})

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"q": 4, "k": 2}, "seeds": 3}))
        cfg = load_config(path)
        assert cfg.model.q == 4 and cfg.seeds == 3

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("npg", {"npg": "x"}),
            ("npg", {"npg": [1]}),
            ("npg", {"npg": None}),
            ("n_list", {"n_list": 5}),
            ("out", {"out": 5}),
            ("out", {"out": None}),
            ("mu0", {"mu0": None}),
            ("interaction", {"interaction": 5}),
        ],
    )
    def test_wrong_shapes_rejected(self, key, overrides):
        raw = {"model": {"q": 3, "k": 2}}
        raw.update(overrides)
        with pytest.raises(ValueError, match=key):
            parse_config(raw)

    @pytest.mark.parametrize(
        "key, overrides",
        [("hidden", {"hidden": 0}), ("hidden", {"hidden": -1}), ("seed", {"npg": {"seed": -1}})],
    )
    def test_out_of_range_counts_rejected(self, key, overrides):
        raw = {"model": {"q": 3, "k": 2}}
        raw.update(overrides)
        with pytest.raises(ValueError, match=key):
            parse_config(raw)

    @pytest.mark.parametrize(
        "message, fields",
        [
            ("horizon_tol must be positive", {"horizon_tol": float("nan")}),
            ("horizon_tol must be positive", {"horizon_tol": 0.0}),
            ("hidden must be an integer >= 1", {"hidden": 2.5}),
            ("hidden must be an integer >= 1", {"hidden": True}),
            ("seeds must be an integer >= 1", {"seeds": 2.5}),
            ("episodes_per_seed must be an integer >= 1", {"episodes_per_seed": 1.5}),
            ("threads must be an integer >= 1", {"threads": True}),
            ("n_list entry must be an integer >= 1", {"n_list": (4, 4.5)}),
            ("n_list must be nonempty", {"n_list": ()}),
        ],
    )
    def test_dataclass_rejects_what_parsing_rejects(self, message, fields):
        # Built directly, without `parse_config`'s type checks.
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(model=FirmModelConfig(q=3, k=2), **fields)

    @pytest.mark.parametrize("fields", [{"j_steps": 2.5}, {"l_steps": 0}, {"j_steps": False}])
    def test_npg_steps_must_be_integers(self, fields):
        with pytest.raises(ValueError, match=rf"{next(iter(fields))} must be an integer >= 1"):
            NPGConfig(**fields)

    @pytest.mark.parametrize(
        "raw",
        [
            {"model": {"q": 10, "k": 5}},
            {"model": {"q": 3, "k": 2, "gamma": 0.8, "sigma": 1.2}, "interaction": "sinkhorn",
             "mu0": [0.5, 0.25, 0.25]},
            {"model": {"q": 4, "k": 2}, "threads": 2},
        ],
    )
    def test_resolved_dict_reads_back(self, raw):
        # the resolved dict leaves out `out`, which then takes its default
        cfg = parse_config({**raw, "out": "elsewhere.csv"})
        assert parse_config(resolved_config_dict(cfg)) == dataclasses.replace(cfg, out="results.csv")

    @pytest.mark.parametrize("n_list", [[4, 4], [4, 8, 4]])
    def test_repeated_n_rejected(self, n_list):
        # a repeated N would sweep the same (N, seed) cells twice
        with pytest.raises(ValueError, match="n_list must not repeat"):
            parse_config({"model": {"q": 3, "k": 2}, "n_list": n_list})

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_config({"model": {"q": 3, "k": 2}, "n_list": []})
        with pytest.raises(ValueError):
            parse_config({"model": {"q": 3, "k": 2}, "seeds": 0})
        with pytest.raises(ValueError):
            parse_config({"model": {"q": 3, "k": 2}, "interaction": "star"})


class TestSummarize:
    def test_single_row(self):
        res = ExperimentResult(rows=[ResultRow(10, 0, 1.0, 0.0, 2.0, 50.0)])
        s = summarize(res)[0]
        assert s.mean_error == 50.0 and s.std_error == 0.0

    def test_population_std(self):
        rows = [
            ResultRow(10, 0, 0, 0, 1, 2.0),
            ResultRow(10, 1, 0, 0, 1, 4.0),
        ]
        s = summarize(ExperimentResult(rows=rows))[0]
        assert s.mean_error == 3.0 and s.std_error == 1.0

    def test_inverse_sqrt_rate_is_flat(self):
        c = 12.0
        rows = [
            ResultRow(n, s, 0, 0, 1, c / np.sqrt(n)) for n in (10, 40, 90) for s in range(3)
        ]
        out = summarize(ExperimentResult(rows=rows))
        for s in out:
            assert s.mean_error_sqrt_n == pytest.approx(c, rel=1e-12)


class TestRunErrorVsN:
    def test_rows_and_recompute_invariant(self):
        cfg = tiny_config()
        result = run_error_vs_n(cfg)
        assert len(result.rows) == 4
        for r in result.rows:
            assert r.error_pct == pytest.approx(percentage_error(r.v_marl_mean, r.v_mf), abs=1e-9)

    def test_sigma_variants_emit_rows(self):
        for sigma in (1.1, 1.2):
            cfg = tiny_config(model={"q": 3, "k": 2, "sigma": sigma})
            result = run_error_vs_n(cfg)
            assert len(result.rows) == 4

    def test_uniform_override(self):
        cfg = tiny_config(interaction="uniform")
        assert build_interaction(cfg, 6, 0).weights[0, 0] == pytest.approx(1 / 6)
        result = run_error_vs_n(cfg)
        assert len(result.rows) == 4

    def test_uniform_override_error_decreases_with_n(self):
        cfg = parse_config(
            {
                "model": {"q": 10, "k": 5},
                "gamma": 0.9,
                "n_list": [10, 50, 200],
                "seeds": 8,
                "episodes_per_seed": 8,
                "horizon_tol": 1e-3,
                "hidden": 32,
                "interaction": "uniform",
                "npg": {"eta": 1e-3, "alpha": 1e-3, "j_steps": 20, "l_steps": 20, "seed": 1},
            }
        )
        rows = summarize(run_error_vs_n(cfg))
        by_n = {r.n: r.mean_error for r in rows}
        assert by_n[200] < by_n[10]

    def test_zero_value_rows_are_skipped(self):
        cfg = tiny_config()
        env = scalar_env(
            n_states=3,
            n_actions=2,
            gamma=0.9,
            reward=lambda x, u, mu, nu: 0.0,
            transition=lambda x, u, mu, nu: Simplex(np.eye(3)[x]),
            affine=AffineRewardSpec(a=np.zeros(3), b=np.zeros(2), f=np.zeros((3, 2))),
        )
        pcfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        policy = SoftmaxPolicy(pcfg, np.zeros(pcfg.n_params))
        result = run_error_vs_n(cfg, env=env, policy=policy)
        assert result.rows == []
        assert len(result.skipped) == 4

    def test_threads_do_not_change_results(self):
        base = run_error_vs_n(tiny_config())
        threaded = run_error_vs_n(tiny_config(threads=3))
        assert base.rows == threaded.rows

    @staticmethod
    def _fixed_policy(cfg):
        pcfg = PolicyConfig(n_states=cfg.model.q, n_actions=2, hidden=cfg.hidden)
        return SoftmaxPolicy(pcfg, init_params(pcfg, np.random.default_rng(5)))

    def test_rows_match_direct_cell_computation(self):
        cfg = tiny_config(model={"q": 4, "k": 2, "sigma": 1.2}, n_list=[3, 7], seeds=3)
        env = build_firm_env(cfg.model, cfg.gamma)
        policy = self._fixed_policy(cfg)
        horizon = truncation_horizon(env, cfg.horizon_tol)
        result = run_error_vs_n(cfg, env=env, policy=policy)
        assert len(result.rows) == 6
        for r in result.rows:
            rng = np.random.default_rng([cfg.npg.seed, 2, r.n, r.seed])
            states = sample_many(cfg.initial_distribution(), r.n, rng)
            v_marl, stderr = estimate_v_marl(
                env, build_interaction(cfg, r.n, r.seed), policy, states, horizon,
                cfg.episodes_per_seed, rng,
            )
            assert (r.v_marl_mean, r.v_marl_stderr) == (v_marl, stderr)
            v_mf, _ = mf_value(
                env, policy, empirical_distribution(states, env.n_states), cfg.horizon_tol,
                horizon=horizon,
            )
            assert r.v_mf == pytest.approx(v_mf, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["ring", "sinkhorn"])
    def test_rows_match_separate_rollouts(self, kind):
        # Every episode of every cell rolled out alone, on its own substream.
        cfg = tiny_config(model={"q": 4, "k": 3}, n_list=[5, 8, 3], seeds=3, interaction=kind)
        env = build_firm_env(cfg.model, cfg.gamma)
        policy = self._fixed_policy(cfg)
        horizon = truncation_horizon(env, cfg.horizon_tol)
        result = run_error_vs_n(cfg, env=env, policy=policy)
        assert len(result.rows) == 9
        for r in result.rows:
            rng = np.random.default_rng([cfg.npg.seed, 2, r.n, r.seed])
            states = sample_many(cfg.initial_distribution(), r.n, rng)
            w = build_interaction(cfg, r.n, r.seed)
            returns = [
                rollout(env, w, policy, states, horizon, stream).discounted_return
                for stream in rng.spawn(cfg.episodes_per_seed)
            ]
            assert r.v_marl_mean == pytest.approx(np.mean(returns), rel=1e-12, abs=0.0)
            assert r.v_marl_stderr == pytest.approx(
                np.std(returns, ddof=1) / np.sqrt(len(returns)), rel=1e-9, abs=1e-15
            )

    def test_ring_units_fill_one_group(self, monkeypatch):
        # With room for 16 agents per step loop, two N = 2 cells of 3
        # episodes share one loop, and an N = 8 cell's episodes run 2 + 1.
        cfg = tiny_config(n_list=[2, 8], seeds=3, episodes_per_seed=3)
        env = build_firm_env(cfg.model, cfg.gamma)
        policy = self._fixed_policy(cfg)
        one_loop = run_error_vs_n(cfg, env=env, policy=policy)
        monkeypatch.setattr(nagent, "_GROUP_AGENTS", 16)
        sizes = []
        simulate = nagent._simulate

        def spy(env, policy, blocks, horizon, record=False):
            sizes.append(sum(w.n_agents for w, _, _ in blocks))
            return simulate(env, policy, blocks, horizon, record)

        monkeypatch.setattr(nagent, "_simulate", spy)
        capped = run_error_vs_n(cfg, env=env, policy=policy)
        assert sizes == [12, 6] + [16, 8] * 3
        assert run_error_vs_n(dataclasses.replace(cfg, threads=2), env=env, policy=policy).rows == capped.rows
        for a, b in zip(capped.rows, one_loop.rows):
            assert (a.n, a.seed, a.v_mf) == (b.n, b.seed, b.v_mf)
            assert a.v_marl_mean == pytest.approx(b.v_marl_mean, rel=1e-12, abs=0.0)

    def test_per_n_calls_match_one_call(self):
        cfg = tiny_config(n_list=[3, 5, 9], seeds=3)
        env = build_firm_env(cfg.model, cfg.gamma)
        policy = self._fixed_policy(cfg)
        whole = run_error_vs_n(cfg, env=env, policy=policy).rows
        parts = [
            row
            for n in cfg.n_list
            for row in run_error_vs_n(dataclasses.replace(cfg, n_list=(n,)), env=env, policy=policy).rows
        ]
        assert len(whole) == len(parts) == 9
        for a, b in zip(whole, parts):
            assert (a.n, a.seed, a.v_marl_mean, a.v_marl_stderr) == (b.n, b.seed, b.v_marl_mean, b.v_marl_stderr)
            assert a.v_mf == pytest.approx(b.v_mf, rel=1e-12, abs=0.0)
            assert a.error_pct == pytest.approx(b.error_pct, rel=1e-9, abs=0.0)


    def test_rows_match_recorded_values(self):
        # Rows recorded before the simulator's step took uniforms: a change
        # to how a cell's episodes read their substreams moves them.
        cfg = tiny_config()
        env = build_firm_env(cfg.model, cfg.gamma)
        rows = run_error_vs_n(cfg, env=env, policy=self._fixed_policy(cfg)).rows
        expected = [
            (4, 0, 8.650401706077538, 0.1496764398479797, 8.656616628930808),
            (4, 1, 7.3894058790334505, 0.30142900575877757, 7.422967243063753),
            (8, 0, 7.994932370997148, 0.15647192801953347, 8.040672710432954),
            (8, 1, 5.676484110534823, 0.16844333858810764, 4.95634809242701),
        ]
        assert [(r.n, r.seed) for r in rows] == [row[:2] for row in expected]
        got = [(r.v_marl_mean, r.v_marl_stderr, r.v_mf) for r in rows]
        np.testing.assert_allclose(got, [row[2:] for row in expected], rtol=1e-9, atol=0.0)


class TestPersistence:
    def test_outputs_and_reproducibility(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "results.csv"))
        run_and_persist(cfg)
        out = tmp_path / "results.csv"
        first = out.read_bytes()
        header = first.decode().splitlines()[0]
        assert header == "N,seed,v_marl_mean,v_marl_stderr,v_mf,error_pct"
        summary = (tmp_path / "results_summary.csv").read_text().splitlines()
        assert summary[0] == "N,mean_error,std_error,mean_error_sqrtN"
        meta = json.loads((tmp_path / "results.meta.json").read_text())
        assert meta["config"]["gamma"] == 0.9
        assert len(meta["policy_checkpoint_hash"]) == 40
        assert meta["mean_field_seconds"] > 0 and meta["rollout_seconds"] > 0
        assert (tmp_path / "results.policy.txt").exists()

        run_and_persist(cfg)
        assert out.read_bytes() == first

    def test_threaded_run_byte_identical(self, tmp_path):
        cfg1 = tiny_config(out=str(tmp_path / "a.csv"))
        cfg2 = tiny_config(out=str(tmp_path / "b.csv"), threads=4)
        run_and_persist(cfg1)
        run_and_persist(cfg2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestBoundReport:
    def test_firm_defaults_are_inapplicable(self):
        # the firm model's transition Lipschitz constant is far too large
        # for the contraction hypothesis at gamma = 0.9
        cfg = tiny_config(model={"q": 10, "k": 5}, n_list=[10, 100])
        env = build_firm_env(cfg.model, cfg.gamma)
        pcfg = PolicyConfig(n_states=10, n_actions=2, hidden=4)
        policy = SoftmaxPolicy(pcfg, np.zeros(pcfg.n_params))
        report = bound_report(cfg, env=env, policy=policy)
        assert not report.applicable
        assert "gamma * S_P" in str(report)

    def test_nonaffine_rejected(self):
        cfg = tiny_config(model={"q": 3, "k": 2, "sigma": 1.2})
        with pytest.raises(AffineRewardRequiredError):
            bound_report(cfg)

    def test_zero_constants_give_zero_bound(self):
        cfg = tiny_config(n_list=[5])
        env = scalar_env(
            n_states=2,
            n_actions=2,
            gamma=0.9,
            reward=lambda x, u, mu, nu: 0.0,
            transition=lambda x, u, mu, nu: Simplex(np.eye(2)[x]),
            lipschitz_p=0.0,
            affine=AffineRewardSpec(a=np.zeros(2), b=np.zeros(2), f=np.zeros((2, 2))),
        )
        pcfg = PolicyConfig(n_states=2, n_actions=2, hidden=2)
        policy = SoftmaxPolicy(pcfg, np.zeros(pcfg.n_params))
        report = bound_report(cfg, env=env, policy=policy)
        assert report.applicable
        assert report.bounds[5] == 0.0

    def test_applicable_on_contraction_env(self):
        env, policy = contraction_env()
        cfg = tiny_config(gamma=0.5, n_list=[10, 100])
        report = bound_report(cfg, env=env, policy=policy)
        assert report.applicable
        assert report.bounds[100] == pytest.approx(report.bounds[10] / np.sqrt(10), rel=1e-12)

    @pytest.mark.parametrize("env_gamma, cfg_gamma, applicable", [(0.5, 0.99, True), (0.97, 0.1, False)])
    def test_applicability_follows_the_environment_gamma(self, env_gamma, cfg_gamma, applicable):
        # The bound discounts with the environment's gamma, so that gamma
        # decides gamma * S_P < 1, whatever the config says.
        env, policy = contraction_env(gamma=env_gamma)
        report = bound_report(tiny_config(gamma=cfg_gamma, n_list=[10]), env=env, policy=policy)
        gamma_s_p = env_gamma * report.inputs.s_p
        assert (gamma_s_p < 1.0) == applicable == report.applicable
        if applicable:
            assert report.bounds[10] > 0.0
        else:
            assert str(report) == f"bound inapplicable: gamma * S_P = {gamma_s_p:.6g} >= 1"


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": {"q": 3, "k": 2},
                    "gamma": 0.9,
                    "n_list": [4],
                    "seeds": 1,
                    "episodes_per_seed": 1,
                    "horizon_tol": 0.5,
                    "hidden": 4,
                    "npg": {"j_steps": 1, "l_steps": 1},
                }
            )
        )
        out = tmp_path / "res.csv"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "mean error" in captured

    def test_cli_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"q": 3, "k": 2}, "hidden": 4,
                                        "npg": {"j_steps": 1, "l_steps": 1},
                                        "horizon_tol": 0.5}))
        out = tmp_path / "res.csv"
        code = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "1",
             "--n", "3,5", "--gamma", "0.8", "--threads", "2"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + one row per N

    @pytest.mark.parametrize("flag", ["--seeds", "--threads"])
    def test_zero_overrides_are_rejected(self, tmp_path, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"q": 3, "k": 2}, "hidden": 4,
                                        "npg": {"j_steps": 1, "l_steps": 1}}))
        with pytest.raises(ValueError, match=flag.lstrip("-")):
            cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"), flag, "0"])
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "key, flag, value",
        [
            ("model.sigma", "--sigma", "nan"),
            ("model.sigma", "--sigma", "inf"),
            ("n_list", "--n", "10,2.5"),
            ("n_list", "--n", ",5"),
            ("n_list", "--n", "4,4"),
            ("gamma", "--gamma", "nan"),
        ],
    )
    def test_bad_overrides_are_rejected(self, tmp_path, key, flag, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"q": 3, "k": 2}, "hidden": 4,
                                        "npg": {"j_steps": 1, "l_steps": 1}}))
        with pytest.raises(ValueError, match=key):
            cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"), flag, value])
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flags", [[], ["--seeds", "1"]])
    def test_non_object_config_file_rejected(self, tmp_path, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps([{"model": {"q": 3, "k": 2}}]))
        with pytest.raises(ValueError, match="config must be a JSON object"):
            cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"), *flags])

    def test_gamma_override_replaces_model_gamma(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"q": 3, "k": 2, "gamma": 0.8}, "gamma": 0.8,
                                        "hidden": 4, "n_list": [3], "seeds": 1,
                                        "episodes_per_seed": 1, "horizon_tol": 0.5,
                                        "npg": {"j_steps": 1, "l_steps": 1}}))
        out = tmp_path / "res.csv"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--gamma", "0.7"]) == 0
        meta = json.loads((tmp_path / "res.meta.json").read_text())
        assert meta["config"]["gamma"] == 0.7

    def test_train_and_bound_subcommands(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": {"q": 3, "k": 2},
                    "hidden": 4,
                    "horizon_tol": 0.5,
                    "n_list": [4],
                    "npg": {"j_steps": 1, "l_steps": 1},
                }
            )
        )
        ckpt = tmp_path / "policy.txt"
        assert cli.main(["train", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        assert cli.main(["bound", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
        captured = capsys.readouterr().out
        assert "inapplicable" in captured or "bound" in captured

    def test_bound_rejects_checkpoint_of_another_environment(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"q": 5, "k": 2}, "hidden": 4,
                                        "npg": {"j_steps": 1, "l_steps": 1}}))
        pcfg = PolicyConfig(n_states=3, n_actions=2, hidden=4)
        ckpt = tmp_path / "policy.txt"
        save_policy(ckpt, pcfg, init_params(pcfg, np.random.default_rng(0)))
        with pytest.raises(ValueError, match=re.escape(str(ckpt)) + r" has 3 states .* environment 5 "):
            cli.main(["bound", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
        assert capsys.readouterr().out == ""

    def test_empty_checkpoint_is_not_ignored(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"q": 3, "k": 2}, "hidden": 4,
                                        "npg": {"j_steps": 1, "l_steps": 1}}))

        def no_training(*args, **kwargs):
            raise AssertionError("bound trained a policy instead of loading the checkpoint")

        monkeypatch.setattr("mfmarl.harness.train_policy", no_training)
        with pytest.raises(OSError):
            cli.main(["bound", "--config", str(cfg_path), "--checkpoint", ""])
