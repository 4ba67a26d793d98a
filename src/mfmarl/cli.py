"""Command line entry points.

    mfmarl run   --config cfg.json [--out results.csv] [--seeds 25]
                 [--n 10,20,50] [--sigma 1.0] [--gamma 0.9] [--threads k]
    mfmarl bound --config cfg.json [--checkpoint policy.txt]
    mfmarl train --config cfg.json --checkpoint policy.txt
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .model import build_firm_env
from .policy import SoftmaxPolicy, load_policy, save_policy


def _size(text: str):
    """One `--n` entry as an integer, or as text for parse_config to reject."""
    try:
        return int(text)
    except ValueError:
        return text


def _load(args) -> harness.ExperimentConfig:
    """The config file with the command's overrides written into it, read
    by parse_config, so that an override is checked like the file."""
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        return harness.parse_config(raw)  # rejects it, naming the config
    flags = {key: value for key, value in vars(args).items() if value is not None}
    for key in ("out", "seeds", "n_list", "threads", "gamma"):
        if key in flags:
            raw[key] = flags[key]
    model = raw.get("model")
    if isinstance(model, dict):
        if "gamma" in flags:  # --gamma replaces a model.gamma
            model.pop("gamma", None)
        if "sigma" in flags:
            model["sigma"] = flags["sigma"]
    return harness.parse_config(raw)


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = harness.run_and_persist(cfg)
    print(f"wrote {len(result.rows)} rows to {cfg.out} ({len(result.skipped)} cells skipped)")
    for row in harness.summarize(result):
        print(
            f"N={row.n}: mean error {row.mean_error:.4f}% "
            f"(std {row.std_error:.4f}, mean*sqrt(N) {row.mean_error_sqrt_n:.4f})"
        )
    return 0


def _cmd_bound(args) -> int:
    cfg = _load(args)
    env = build_firm_env(cfg.model, cfg.gamma)
    policy = None
    if args.checkpoint is not None:
        pcfg, phi = load_policy(args.checkpoint)
        policy = SoftmaxPolicy(pcfg, phi)
    report = harness.bound_report(cfg, env=env, policy=policy)
    inp = report.inputs
    print(
        f"constants: L_P={inp.lipschitz_p:.6g} L_pi={inp.lipschitz_pi:.6g} "
        f"L_R={inp.lipschitz_r:.6g} M_R={inp.reward_bound:.6g} M_F={inp.table_bound:.6g} "
        f"|b|_1={inp.action_weight_l1:.6g} S_P={inp.s_p:.6g} gamma*S_P={cfg.gamma * inp.s_p:.6g}"
    )
    print(report)
    return 0


def _cmd_train(args) -> int:
    cfg = _load(args)
    env = build_firm_env(cfg.model, cfg.gamma)
    policy, info = harness.train_policy(cfg, env)
    save_policy(args.checkpoint, policy.config, policy.params)
    print(
        f"trained {cfg.npg.j_steps} iterations in {info['train_seconds']:.1f}s; "
        f"best v_MF {info['best_v_mf']:.6g} at iterate {info['best_iterate']}; "
        f"checkpoint -> {args.checkpoint}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mfmarl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train a policy and sweep the error over N")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seeds", type=int, default=None)
    run.add_argument("--n", dest="n_list", help="comma-separated population sizes",
                     type=lambda text: [_size(entry) for entry in text.split(",")])
    run.add_argument("--sigma", type=float, default=None)
    run.add_argument("--gamma", type=float, default=None)
    run.add_argument("--threads", type=int, default=None)
    run.set_defaults(fn=_cmd_run)

    bound = sub.add_parser("bound", help="evaluate the approximation bound")
    bound.add_argument("--config", required=True)
    bound.add_argument("--checkpoint", default=None, help="reuse a trained policy")
    bound.set_defaults(fn=_cmd_bound)

    train = sub.add_parser("train", help="train a policy and save a checkpoint")
    train.add_argument("--config", required=True)
    train.add_argument("--checkpoint", required=True)
    train.set_defaults(fn=_cmd_train)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
