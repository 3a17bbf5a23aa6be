"""Sweep the realism filter threshold and report single-step accuracy vs planning.

For each threshold the loop runs a single iteration without augmentation, so
the comparison isolates the filter. Each model is evaluated as ``run-all``
evaluates it (``cli.evaluate_seed``); succ@N is its success rate at the
largest ``eval`` budget. Reports mean +- std over the seeds.

Usage:
    python scripts/filtering_sweep.py [--thresholds 0 0.5 0.8 0.9] [--seeds 1 2 3]
"""

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from retroloop.cli import build_world_data, evaluate_seed, load_config
from retroloop.improve import pretrain_models, run_self_improvement

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(ROOT / "configs" / "reference.json"))
    parser.add_argument(
        "--thresholds", type=float, nargs="+", default=[0.0, 0.5, 0.6, 0.7, 0.8, 0.9]
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    cfg, _doc = load_config(args.config)
    budget = cfg.eval.budgets[-1]
    loop_cfg = replace(cfg.loop, iterations=1, augmentation=False)
    prepared = []
    for seed in args.seeds:
        world, data = build_world_data(cfg, seed)
        pretrained = pretrain_models(world, data, cfg.pretrain, cfg.dim, seed)
        prepared.append((seed, world, data, pretrained))

    print(f"{'eps':>5} {'top1':>16} {'top10':>16} {'succ@N':>16} {'kept':>8}")
    for eps in args.thresholds:
        top1s, top10s, succs, kept = [], [], [], []
        for seed, world, data, pretrained in prepared:
            model, reports = run_self_improvement(
                replace(loop_cfg, epsilon=eps), world, data, pretrained, seed
            )
            by_budget, top1, top10 = evaluate_seed(cfg, world, data, pretrained[1], {0: model})[0]
            top1s.append(top1)
            top10s.append(top10)
            succs.append(by_budget[budget].success_rate)
            kept.append(reports[0].kept_after_filter)

        def fmt(values):
            mean = statistics.fmean(values)
            std = statistics.pstdev(values)
            return f"{mean:.4f}+-{std:.4f}"

        print(
            f"{eps:>5.2f} {fmt(top1s):>16} {fmt(top10s):>16} {fmt(succs):>16} "
            f"{statistics.fmean(kept):>8.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
