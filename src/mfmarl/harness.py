"""Experiment runner: percentage error between the finite-population value
and the mean-field value, swept over population sizes and seeds.

One policy is trained on the mean-field problem (which does not depend on
the interaction matrix), the best iterate is frozen, and each (N, seed)
cell simulates the N-agent system under that policy and compares against
the mean-field value computed from the same cell's empirical initial
distribution. Results go to CSV with a JSON metadata sidecar.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import interaction
from .meanfield import (
    BoundInapplicableError,
    BoundInputs,
    approximation_bound,
    bound_inputs,
    mf_values,
    truncation_horizon,
)
from .model import AffineRewardRequiredError, EnvModel, FirmModelConfig, build_firm_env
from .nagent import estimate_v_marl
from .npg import NPGConfig, npg_train, select_policy
from .policy import PolicyConfig, SoftmaxPolicy, init_params, save_policy
from .simplex import Simplex, sample_many

log = logging.getLogger(__name__)

V_MF_GUARD = 1e-9
_INTERACTION_KINDS = ("ring", "uniform", "sinkhorn")


@dataclass(frozen=True)
class ExperimentConfig:
    model: FirmModelConfig
    npg: NPGConfig
    gamma: float = 0.9
    n_list: tuple = (10, 20, 50, 100, 200)
    seeds: int = 25
    episodes_per_seed: int = 10
    horizon_tol: float = 1e-3
    mu0: Optional[tuple] = None  # None = uniform over states
    hidden: int = 32
    interaction_kind: str = "ring"
    threads: int = 1
    out: Optional[str] = None

    def __post_init__(self):
        if len(self.n_list) == 0 or any(n < 1 for n in self.n_list):
            raise ValueError("n_list must be nonempty with all entries >= 1")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.episodes_per_seed < 1:
            raise ValueError("episodes_per_seed must be >= 1")
        if self.horizon_tol <= 0:
            raise ValueError("horizon_tol must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.interaction_kind not in _INTERACTION_KINDS:
            raise ValueError(f"interaction kind must be one of {_INTERACTION_KINDS}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.mu0 is not None:
            if len(self.mu0) != self.model.q:
                raise ValueError(f"mu0 must have model.q = {self.model.q} entries, got {len(self.mu0)}")
            if not all(p >= 0 for p in self.mu0):
                raise ValueError(f"mu0 entries must be >= 0, got {list(self.mu0)}")

    def initial_distribution(self) -> Simplex:
        if self.mu0 is None:
            return Simplex.uniform(self.model.q)
        return Simplex(np.asarray(self.mu0))


@dataclass(frozen=True)
class ResultRow:
    n: int
    seed: int
    v_marl_mean: float
    v_marl_stderr: float
    v_mf: float
    error_pct: float


@dataclass
class ExperimentResult:
    rows: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (n, seed, reason)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["N", "seed", "v_marl_mean", "v_marl_stderr", "v_mf", "error_pct"])
            for r in self.rows:
                writer.writerow(
                    [
                        r.n,
                        r.seed,
                        repr(r.v_marl_mean),
                        repr(r.v_marl_stderr),
                        repr(r.v_mf),
                        repr(r.error_pct),
                    ]
                )


@dataclass(frozen=True)
class SummaryRow:
    n: int
    mean_error: float
    std_error: float
    mean_error_sqrt_n: float


def percentage_error(v_marl: float, v_mf: float) -> float:
    return abs(v_marl - v_mf) / abs(v_mf) * 100.0


def _config_items(raw: dict, allowed: set, where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown {where} config keys: {sorted(unknown)}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-shaped dict; unknown keys are
    rejected at every level. `gamma` may live at the top level, inside the
    model section, or both (they must then agree)."""
    _config_items(
        raw,
        {
            "model",
            "npg",
            "gamma",
            "n_list",
            "seeds",
            "episodes_per_seed",
            "horizon_tol",
            "mu0",
            "hidden",
            "interaction",
            "threads",
            "out",
        },
        "top-level",
    )
    model_raw = dict(raw.get("model") or {})
    _config_items(
        model_raw, {"q", "k", "alpha_r", "beta_r", "lambda_r", "sigma", "gamma"}, "model"
    )
    model_gamma = model_raw.pop("gamma", None)
    gamma = raw.get("gamma", model_gamma if model_gamma is not None else 0.9)
    if model_gamma is not None and "gamma" in raw and model_gamma != raw["gamma"]:
        raise ValueError(f"model gamma {model_gamma} conflicts with top-level gamma {raw['gamma']}")
    model = FirmModelConfig(**model_raw)

    npg_raw = dict(raw.get("npg") or {})
    _config_items(npg_raw, {"eta", "alpha", "j_steps", "l_steps", "gamma", "seed"}, "npg")
    npg_raw.setdefault("eta", 1e-3)
    npg_raw.setdefault("alpha", 1e-3)
    npg_raw.setdefault("j_steps", 100)
    npg_raw.setdefault("l_steps", 100)
    npg_raw.setdefault("gamma", gamma)
    if npg_raw["gamma"] != gamma:
        raise ValueError(f"npg gamma {npg_raw['gamma']} conflicts with experiment gamma {gamma}")
    npg = NPGConfig(**npg_raw)

    mu0 = raw.get("mu0")
    if isinstance(mu0, str):
        if mu0 != "uniform":
            raise ValueError(f"mu0 must be 'uniform' or a probability vector, got {mu0!r}")
        mu0 = None
    return ExperimentConfig(
        model=model,
        npg=npg,
        gamma=float(gamma),
        n_list=tuple(raw.get("n_list", (10, 20, 50, 100, 200))),
        seeds=int(raw.get("seeds", 25)),
        episodes_per_seed=int(raw.get("episodes_per_seed", 10)),
        horizon_tol=float(raw.get("horizon_tol", 1e-3)),
        mu0=tuple(mu0) if mu0 is not None else None,
        hidden=int(raw.get("hidden", 32)),
        interaction_kind=str(raw.get("interaction", "ring")),
        threads=int(raw.get("threads", 1)),
        out=raw.get("out"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    return {
        "model": {
            "q": cfg.model.q,
            "k": cfg.model.k,
            "alpha_r": cfg.model.alpha_r,
            "beta_r": cfg.model.beta_r,
            "lambda_r": cfg.model.lambda_r,
            "sigma": cfg.model.sigma,
        },
        "gamma": cfg.gamma,
        "n_list": list(cfg.n_list),
        "seeds": cfg.seeds,
        "episodes_per_seed": cfg.episodes_per_seed,
        "horizon_tol": cfg.horizon_tol,
        "mu0": list(cfg.mu0) if cfg.mu0 is not None else "uniform",
        "hidden": cfg.hidden,
        "interaction": cfg.interaction_kind,
        "threads": cfg.threads,
        "npg": {
            "eta": cfg.npg.eta,
            "alpha": cfg.npg.alpha,
            "j_steps": cfg.npg.j_steps,
            "l_steps": cfg.npg.l_steps,
            "gamma": cfg.npg.gamma,
            "seed": cfg.npg.seed,
        },
    }


def build_interaction(cfg: ExperimentConfig, n: int, seed: int) -> interaction.InteractionMatrix:
    if cfg.interaction_kind == "uniform":
        return interaction.uniform(n)
    if cfg.interaction_kind == "sinkhorn":
        return interaction.sinkhorn_random(n, np.random.default_rng([cfg.npg.seed, 7, n, seed]))
    return interaction.ring_k_neighbor(n, min(cfg.model.k, n))


def train_policy(cfg: ExperimentConfig, env: EnvModel) -> tuple[SoftmaxPolicy, dict]:
    """Train on the mean-field problem and freeze the best iterate."""
    policy_cfg = PolicyConfig(n_states=env.n_states, n_actions=env.n_actions, hidden=cfg.hidden)
    rng = np.random.default_rng([cfg.npg.seed, 1])
    phi0 = init_params(policy_cfg, rng)
    start = time.perf_counter()
    result = npg_train(
        env, policy_cfg, phi0, cfg.initial_distribution(), cfg.npg, rng, value_tol=cfg.horizon_tol
    )
    best_phi, mean_value = select_policy(result.iterates, result.values)
    info = {
        "train_seconds": time.perf_counter() - start,
        "best_iterate": int(np.argmax(result.values)) + 1,
        "best_v_mf": float(np.max(result.values)),
        "mean_v_mf": mean_value,
    }
    return SoftmaxPolicy(policy_cfg, best_phi), info


def _run_cell(
    cfg: ExperimentConfig,
    env: EnvModel,
    policy,
    horizon: int,
    n: int,
    seed: int,
    rng: np.random.Generator,
    initial_states: np.ndarray,
    v_mf: float,
):
    """Simulate one cell from its drawn initial states, continuing its
    substream `rng`, and compare with its mean-field value `v_mf`."""
    w = build_interaction(cfg, n, seed)
    v_marl, stderr = estimate_v_marl(
        env, w, policy, initial_states, horizon, cfg.episodes_per_seed, rng
    )
    if abs(v_mf) < V_MF_GUARD:
        return None, (n, seed, f"|v_mf| = {abs(v_mf):.3e} below division guard")
    return ResultRow(n, seed, v_marl, stderr, v_mf, percentage_error(v_marl, v_mf)), None


def run_error_vs_n(
    cfg: ExperimentConfig, env: EnvModel = None, policy: SoftmaxPolicy = None
) -> ExperimentResult:
    """Full sweep: train once (unless a policy is supplied), then one row per
    (N, seed) cell. Each cell draws its initial states from its own
    substream; one stacked mean-field recursion evaluates every cell's value
    from its empirical initial distribution, and the rollouts continue each
    substream, so the thread count does not affect the results."""
    if env is None:
        env = build_firm_env(cfg.model, cfg.gamma)
    if policy is None:
        policy, _ = train_policy(cfg, env)
    horizon = truncation_horizon(env, cfg.horizon_tol)
    mu0 = cfg.initial_distribution()
    cells = []
    for n in cfg.n_list:
        for seed in range(cfg.seeds):
            rng = np.random.default_rng([cfg.npg.seed, 2, n, seed])
            cells.append((n, seed, rng, sample_many(mu0, n, rng)))
    mu0_hats = np.stack([np.bincount(states, minlength=env.n_states) / n for n, _, _, states in cells])
    v_mfs = mf_values(env, policy, mu0_hats, horizon)
    result = ExperimentResult()

    def work(i):
        return _run_cell(cfg, env, policy, horizon, *cells[i], float(v_mfs[i]))

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(work, range(len(cells))))
    else:
        outcomes = [work(i) for i in range(len(cells))]

    for row, skip in outcomes:
        if skip is not None:
            log.warning("skipping cell N=%d seed=%d: %s", skip[0], skip[1], skip[2])
            result.skipped.append(skip)
        else:
            result.rows.append(row)
    result.rows.sort(key=lambda r: (r.n, r.seed))
    return result


def summarize(result: ExperimentResult) -> list[SummaryRow]:
    """Per-N mean and population standard deviation of the percentage error,
    plus mean * sqrt(N) for eyeballing the 1/sqrt(N) rate."""
    if not result.rows:
        raise ValueError("no rows to summarize")
    out = []
    for n in sorted({r.n for r in result.rows}):
        errs = np.array([r.error_pct for r in result.rows if r.n == n])
        mean = float(errs.mean())
        out.append(
            SummaryRow(
                n=n,
                mean_error=mean,
                std_error=float(errs.std(ddof=0)),
                mean_error_sqrt_n=mean * float(np.sqrt(n)),
            )
        )
    return out


def write_summary_csv(rows: list, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "mean_error", "std_error", "mean_error_sqrtN"])
        for r in rows:
            writer.writerow([r.n, repr(r.mean_error), repr(r.std_error), repr(r.mean_error_sqrt_n)])


def git_blob_hash(path) -> str:
    """Content hash of a file, computed the way git hashes blobs."""
    data = Path(path).read_bytes()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


@dataclass(frozen=True)
class BoundReport:
    """Approximation bound evaluated at the experiment's constants, or the
    reason it does not apply."""

    inputs: BoundInputs
    applicable: bool
    reason: str
    bounds: dict  # N -> bound value

    def __str__(self) -> str:
        if not self.applicable:
            return f"bound inapplicable ({self.reason})"
        lines = [f"N={n}: bound {b:.6g}" for n, b in sorted(self.bounds.items())]
        return "\n".join(lines)


def bound_report(
    cfg: ExperimentConfig, env: EnvModel = None, policy: SoftmaxPolicy = None
) -> BoundReport:
    """Evaluate the approximation bound for each population size using the
    environment's declared constants and the trained policy's sampled
    Lipschitz constant."""
    if env is None:
        env = build_firm_env(cfg.model, cfg.gamma)
    if env.affine is None:
        raise AffineRewardRequiredError("the bound requires the affine (sigma = 1) reward")
    if policy is None:
        policy, _ = train_policy(cfg, env)
    lipschitz_pi = policy.lipschitz_estimate(trials=5000, rng=np.random.default_rng([cfg.npg.seed, 3]))
    inputs = bound_inputs(env, lipschitz_pi, n_agents=int(cfg.n_list[0]))
    if cfg.gamma * inputs.s_p >= 1.0:
        return BoundReport(
            inputs=inputs,
            applicable=False,
            reason=f"gamma * S_P = {cfg.gamma * inputs.s_p:.6g} >= 1",
            bounds={},
        )
    bounds = {}
    for n in cfg.n_list:
        bounds[int(n)] = approximation_bound(replace(inputs, n_agents=int(n)))
    return BoundReport(inputs=inputs, applicable=True, reason="", bounds=bounds)


def run_and_persist(cfg: ExperimentConfig) -> ExperimentResult:
    """Train, sweep, and write results CSV + summary CSV + policy checkpoint
    + metadata sidecar next to the configured output path."""
    if cfg.out is None:
        raise ValueError("config has no output path")
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    env = build_firm_env(cfg.model, cfg.gamma)
    policy, train_info = train_policy(cfg, env)

    checkpoint = out.with_suffix(".policy.txt")
    save_policy(checkpoint, policy.config, policy.params)

    start = time.perf_counter()
    result = run_error_vs_n(cfg, env=env, policy=policy)
    sweep_seconds = time.perf_counter() - start

    result.write_csv(out)
    write_summary_csv(summarize(result), out.with_name(out.stem + "_summary.csv"))
    metadata = {
        "config": resolved_config_dict(cfg),
        "policy_checkpoint": checkpoint.name,
        "policy_checkpoint_hash": git_blob_hash(checkpoint),
        "train": train_info,
        "sweep_seconds": sweep_seconds,
        "horizon": truncation_horizon(env, cfg.horizon_tol),
        "skipped_cells": [list(s) for s in result.skipped],
    }
    with open(out.with_suffix(".meta.json"), "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
    return result
