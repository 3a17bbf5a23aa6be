"""Success rate under varying model-call limits, baseline vs self-improved.

One long-budget sweep per target is enough: the search is deterministic, so a
run at budget N is a prefix of a run at any larger budget.

Usage:
    python scripts/budget_curve.py [--budgets 10 25 50 100 250 500 5000] [--seed 1]
"""

import argparse
import sys
from pathlib import Path

from retroloop import ZeroEstimator, evaluate_over_budgets, penalty_constants, run_self_improvement
from retroloop.cli import build_pretrained, build_world_data, load_config, seed_loop_config

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(ROOT / "configs" / "reference.json"))
    parser.add_argument(
        "--budgets", type=int, nargs="+", default=[10, 25, 50, 100, 250, 500, 5000]
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    budgets = sorted(args.budgets)

    cfg, _doc = load_config(args.config)
    world, data = build_world_data(cfg, args.seed)
    pretrained = build_pretrained(cfg, args.seed, world, data)
    improved, _reports = run_self_improvement(
        seed_loop_config(cfg, args.seed), world, data, pretrained
    )

    penalties = penalty_constants(data, pretrained[1], world)
    base, ours = (
        evaluate_over_budgets(
            model, ZeroEstimator(), data.targets, budgets, pretrained[1], penalties, world,
            k_expand=cfg.eval.k_expand,
        )
        for model in (pretrained[0], improved)
    )
    print(f"{'budget':>8} {'baseline':>10} {'improved':>10}")
    for budget in budgets:
        print(f"{budget:>8} {base[budget].success_rate:>10.4f} {ours[budget].success_rate:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
