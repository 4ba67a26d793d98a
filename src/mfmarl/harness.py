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
from functools import cache
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, get_type_hints

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
from .nagent import _block_returns, _group_size, _mean_stderr
from .npg import NPGConfig, TrainingResult, npg_train, select_policy
from .policy import PolicyConfig, SoftmaxPolicy, init_params, save_policy
from .simplex import Simplex, _check_finite, _check_size, normalized_rows, sample_rows

log = logging.getLogger(__name__)

V_MF_GUARD = 1e-9
_INTERACTION_KINDS = ("ring", "uniform", "sinkhorn")


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment's config; its fields are the config file's schema."""

    model: FirmModelConfig
    npg: NPGConfig = NPGConfig()
    gamma: float = 0.9
    n_list: tuple[int, ...] = (10, 20, 50, 100, 200)
    seeds: int = 25
    episodes_per_seed: int = 10
    horizon_tol: float = 1e-3
    mu0: Optional[tuple[float, ...]] = None  # None = uniform over states
    hidden: int = 32
    interaction_kind: str = field(default="ring", metadata={"key": "interaction"})
    threads: int = 1
    out: str = "results.csv"

    def __post_init__(self):
        if len(self.n_list) == 0:
            raise ValueError("n_list must be nonempty")
        for n in self.n_list:
            _check_size("n_list entry", n)
        if len(set(self.n_list)) < len(self.n_list):
            raise ValueError(f"n_list must not repeat an entry, got {list(self.n_list)}")
        for name in ("seeds", "episodes_per_seed", "hidden", "threads"):
            _check_size(name, getattr(self, name))
        if not self.horizon_tol > 0:
            raise ValueError("horizon_tol must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.interaction_kind not in _INTERACTION_KINDS:
            raise ValueError(f"interaction kind must be one of {_INTERACTION_KINDS}")
        if self.mu0 is not None:
            if len(self.mu0) != self.model.q:
                raise ValueError(f"mu0 must have model.q = {self.model.q} entries, got {len(self.mu0)}")
            try:
                normalized_rows(np.asarray(self.mu0, dtype=np.float64))
            except ValueError as err:
                raise ValueError(f"mu0 must be a probability vector: {err}") from None

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
        header = ["N", "seed", "v_marl_mean", "v_marl_stderr", "v_mf", "error_pct"]
        _write_rows(path, header, map(astuple, self.rows))


@dataclass(frozen=True)
class SummaryRow:
    n: int
    mean_error: float
    std_error: float
    mean_error_sqrt_n: float
    mean_gap: float
    gap_stderr: float


def _write_rows(path, header: list, rows) -> None:
    """A CSV file of `header` and then `rows`: an integer written as is,
    any other value as the repr of its float, which reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row])


def percentage_error(v_marl: float, v_mf: float) -> float:
    return abs(v_marl - v_mf) / abs(v_mf) * 100.0


def _integer(value, key: str) -> int:
    """A JSON integer count (bool, float and string are rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _real(value, key: str) -> float:
    """A finite JSON number (bool, string, inf and NaN are rejected)."""
    _check_finite(key, value)
    return float(value)


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _counts(value, key: str) -> tuple:
    """A JSON array of integer counts."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of integers, got {value!r}")
    return tuple(_integer(n, key) for n in value)


def _law(value, key: str) -> Optional[tuple]:
    """`"uniform"` (None) or an explicit JSON array of probabilities."""
    if value == "uniform":
        return None
    if not isinstance(value, list):
        raise ValueError(f"{key} must be 'uniform' or a probability vector, got {value!r}")
    return tuple(_real(p, key) for p in value)


# The reader of a config value, by the type of the field it fills.
_READERS = {
    int: _integer,
    float: _real,
    str: _string,
    tuple[int, ...]: _counts,
    Optional[tuple[float, ...]]: _law,
}


# Resolving a class's annotations evaluates their text; do it once per class.
_field_types = cache(get_type_hints)


def _section(cls, raw, where: str = ""):
    """Read the config dataclass `cls` from the JSON object `raw` at path
    `where`. Its fields are the allowed keys, a field without a default is
    required, and the field's type picks the value's reader; a dataclass
    field is a nested section."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where or 'config'} must be a JSON object, got {raw!r}")
    keys = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = set(raw) - set(keys)
    if unknown:
        raise ValueError(f"unknown {where or 'top-level'} config keys: {sorted(unknown)}")
    types = _field_types(cls)
    values = {}
    for key, f in keys.items():
        path = f"{where}.{key}" if where else key
        if key in raw:
            kind = types[f.name]
            if is_dataclass(kind):
                values[f.name] = _section(kind, raw[key], path)
            else:
                values[f.name] = _READERS[kind](raw[key], path)
        elif f.default is MISSING:
            raise ValueError(f"config needs {path}")
    return cls(**values)


def parse_config(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-shaped dict (see `_section`):
    unknown keys are rejected at every level, counts must be JSON integers,
    real values finite JSON numbers, and `model.q`, `model.k` are required.
    The JSON key `interaction` fills `interaction_kind`, and `mu0` is
    `"uniform"` or a list."""
    return _section(ExperimentConfig, raw)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    """The config as JSON that `parse_config` reads back to `cfg`, less
    `out`: the dict is written next to the output."""
    resolved = asdict(
        cfg, dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items}
    )
    resolved["interaction"] = resolved.pop("interaction_kind")
    if cfg.mu0 is None:
        resolved["mu0"] = "uniform"
    del resolved["out"]
    return resolved


def build_interaction(cfg: ExperimentConfig, n: int, seed: int) -> interaction.InteractionMatrix:
    if cfg.interaction_kind == "uniform":
        return interaction.uniform(n)
    if cfg.interaction_kind == "sinkhorn":
        return interaction.sinkhorn_random(n, np.random.default_rng([cfg.npg.seed, 7, n, seed]))
    return interaction.ring_k_neighbor(n, min(cfg.model.k, n))


def train_policy(cfg: ExperimentConfig, env: EnvModel, log_path=None) -> tuple[SoftmaxPolicy, dict]:
    """Train on the mean-field problem and freeze the best iterate; with
    `log_path`, also write the per-iteration training curve there."""
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
    if log_path is not None:
        write_training_csv(result, log_path)
    return SoftmaxPolicy(policy_cfg, best_phi), info


def _run_cell(n: int, seed: int, returns: np.ndarray, v_mf: float):
    """One cell's row from its episode returns and its mean-field value
    `v_mf`, or the reason the cell is skipped."""
    v_marl, stderr = _mean_stderr(returns)
    if abs(v_mf) < V_MF_GUARD:
        return None, (n, seed, f"|v_mf| = {abs(v_mf):.3e} below division guard")
    return ResultRow(n, seed, v_marl, stderr, v_mf, percentage_error(v_marl, v_mf)), None


def run_error_vs_n(
    cfg: ExperimentConfig, env: EnvModel = None, policy: SoftmaxPolicy = None
) -> ExperimentResult:
    """Full sweep: train once (unless a policy is supplied), then one row per
    (N, seed) cell (see `_sweep`)."""
    if env is None:
        env = build_firm_env(cfg.model, cfg.gamma)
    if policy is None:
        policy, _ = train_policy(cfg, env)
    return _sweep(cfg, env, policy)[0]


def _sweep(cfg: ExperimentConfig, env: EnvModel, policy) -> tuple[ExperimentResult, dict]:
    """The rows of `run_error_vs_n`, and the wall seconds of its two phases.

    Each cell draws its initial states from its own substream, and one
    stacked mean-field recursion evaluates every cell's value from its
    empirical initial distribution. The rollouts then continue each
    substream: a cell's episodes are blocks, each with a spawned substream.
    A ring W is stored as its nonzeros, so a unit of work holds as many
    cells of one N as fill one step loop (`nagent._group_size`), or one cell
    whose episodes fill several; a dense W is built in its cell's own unit,
    whose blocks run one at a time. The units depend only on the cells, and
    `threads` only runs them in parallel, so it does not affect the results."""
    start = time.perf_counter()
    horizon = truncation_horizon(env, cfg.horizon_tol)
    mu0 = cfg.initial_distribution().weights
    cells = []
    for n in cfg.n_list:
        for seed in range(cfg.seeds):
            rng = np.random.default_rng([cfg.npg.seed, 2, n, seed])
            states = sample_rows(np.broadcast_to(mu0, (n, mu0.size)), rng.random(n))
            cells.append((n, seed, rng, states))
    mu0_hats = np.stack([np.bincount(states, minlength=env.n_states) / n for n, _, _, states in cells])
    v_mfs = mf_values(env, policy, mu0_hats, horizon)
    mean_field_end = time.perf_counter()

    if cfg.interaction_kind == "ring":
        units = []
        for n in dict.fromkeys(cfg.n_list):
            same_n = [i for i, cell in enumerate(cells) if cell[0] == n]
            per_unit = max(1, _group_size(n) // cfg.episodes_per_seed)
            units += [same_n[j : j + per_unit] for j in range(0, len(same_n), per_unit)]
    else:
        units = [[i] for i in range(len(cells))]

    def work(unit):
        blocks = []
        for i in unit:
            n, seed, rng, states = cells[i]
            w = build_interaction(cfg, n, seed)
            blocks += [(w, states, stream) for stream in rng.spawn(cfg.episodes_per_seed)]
        return _block_returns(env, policy, blocks, horizon).reshape(len(unit), -1)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(work, units))
    else:
        outcomes = [work(unit) for unit in units]
    returns = {}
    for unit, unit_returns in zip(units, outcomes):
        returns.update(zip(unit, unit_returns))

    result = ExperimentResult()
    for i, (n, seed, _, _) in enumerate(cells):
        row, skip = _run_cell(n, seed, returns[i], float(v_mfs[i]))
        if skip is not None:
            log.warning("skipping cell N=%d seed=%d: %s", skip[0], skip[1], skip[2])
            result.skipped.append(skip)
        else:
            result.rows.append(row)
    result.rows.sort(key=lambda r: (r.n, r.seed))
    end = time.perf_counter()
    return result, {"mean_field": mean_field_end - start, "rollouts": end - mean_field_end}


def summarize(result: ExperimentResult) -> list[SummaryRow]:
    """Per-N mean and population standard deviation of the percentage error,
    plus mean * sqrt(N) for eyeballing the 1/sqrt(N) rate, and the signed
    gap `v_marl_mean - v_mf` averaged over the seeds with its standard error
    (ddof = 1; 0 for a single seed), which keeps the bias apart from the
    Monte Carlo noise that the absolute error folds in."""
    if not result.rows:
        raise ValueError("no rows to summarize")
    out = []
    for n in sorted({r.n for r in result.rows}):
        rows = [r for r in result.rows if r.n == n]
        errs = np.array([r.error_pct for r in rows])
        gaps = np.array([r.v_marl_mean - r.v_mf for r in rows])
        mean = float(errs.mean())
        mean_gap, gap_stderr = _mean_stderr(gaps)
        out.append(
            SummaryRow(
                n=n,
                mean_error=mean,
                std_error=float(errs.std(ddof=0)),
                mean_error_sqrt_n=mean * float(np.sqrt(n)),
                mean_gap=mean_gap,
                gap_stderr=gap_stderr,
            )
        )
    return out


def write_summary_csv(rows: list, path) -> None:
    header = ["N", "mean_error", "std_error", "mean_error_sqrtN", "mean_gap", "gap_stderr"]
    _write_rows(path, header, map(astuple, rows))


def write_training_csv(result: TrainingResult, path) -> None:
    """The training curve: one row per outer iteration with the iterate's
    mean-field value, the norm of its update direction and its wall time."""
    rows = zip(range(1, len(result.values) + 1), result.values, result.w_norms, result.wall_ms)
    _write_rows(path, ["j", "v_mf", "w_norm", "wall_ms"], rows)


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
            return self.reason
        lines = [f"N={n}: bound {b:.6g}" for n, b in sorted(self.bounds.items())]
        return "\n".join(lines)


def bound_report(
    cfg: ExperimentConfig, env: EnvModel = None, policy: SoftmaxPolicy = None
) -> BoundReport:
    """Evaluate the approximation bound for each population size using the
    environment's declared constants and gamma and the trained policy's
    Lipschitz bound (`SoftmaxPolicy.lipschitz_bound`); inapplicable where
    `approximation_bound` says so."""
    if env is None:
        env = build_firm_env(cfg.model, cfg.gamma)
    if env.affine is None:
        raise AffineRewardRequiredError("the bound requires the affine (sigma = 1) reward")
    if policy is None:
        policy, _ = train_policy(cfg, env)
    inputs = bound_inputs(env, policy.lipschitz_bound())
    try:
        bounds = {n: approximation_bound(inputs, n) for n in cfg.n_list}
    except BoundInapplicableError as err:
        return BoundReport(inputs=inputs, applicable=False, reason=str(err), bounds={})
    return BoundReport(inputs=inputs, applicable=True, reason="", bounds=bounds)


def run_and_persist(cfg: ExperimentConfig) -> ExperimentResult:
    """Train, sweep, and write results CSV + summary CSV + training curve +
    policy checkpoint + metadata sidecar next to the configured output path."""
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    env = build_firm_env(cfg.model, cfg.gamma)
    policy, train_info = train_policy(cfg, env, out.with_name(out.stem + "_training.csv"))

    checkpoint = out.with_suffix(".policy.txt")
    save_policy(checkpoint, policy.config, policy.params)

    start = time.perf_counter()
    result, phase_seconds = _sweep(cfg, env, policy)
    sweep_seconds = time.perf_counter() - start

    result.write_csv(out)
    write_summary_csv(summarize(result), out.with_name(out.stem + "_summary.csv"))
    metadata = {
        "config": resolved_config_dict(cfg),
        "policy_checkpoint": checkpoint.name,
        "policy_checkpoint_hash": git_blob_hash(checkpoint),
        "train": train_info,
        "sweep_seconds": sweep_seconds,
        "mean_field_seconds": phase_seconds["mean_field"],
        "rollout_seconds": phase_seconds["rollouts"],
        "horizon": truncation_horizon(env, cfg.horizon_tol),
        "skipped_cells": [list(s) for s in result.skipped],
    }
    with open(out.with_suffix(".meta.json"), "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
    return result
