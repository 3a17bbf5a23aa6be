"""Per-layer metrics of the traced run, and what each one should move.

Each entry names the function whose wrapper feeds the metric (``source``),
the end-to-end metrics a change to that layer should move (``moves``) and
the workloads on which the metric must be non-zero (``workloads``). A traced
run fails when a metric is zero on a workload listed here, naming every
module binding of its source, so a wrapper that never fires cannot go
unnoticed. Ratios read from the program's own reports (``improve.*_ratio``)
are behaviour, not speed: a performance change must leave them unchanged.
Their check is on the base of the ratio, because a measured zero is a valid
outcome there (augmentation can accept nothing on some seeds).

Names, units and directions must equal the ``per_layer`` list in
BENCHMARK.json; ``run.py`` refuses to start when they differ.
"""

REF, DEEP, ORACLE = "ref_seed", "deep_plan", "oracle_plan"

# name: (unit, better, source, moves, workloads)
PER_LAYER = {
    "cli.ensure_world_data.s": ("s", "lower", "cli.ensure_world_data", ("seed_s",), (REF,)),
    "cli.save_checkpoint.calls": ("count", "lower", "cli.save_checkpoint", ("pretrain_s", "seed_s"), (REF,)),
    "cli.save_checkpoint.s": ("s", "lower", "cli.save_checkpoint", ("pretrain_s", "seed_s"), (REF,)),
    "cli.save_checkpoint.bytes": ("bytes", "lower", "cli.save_checkpoint", ("pretrain_s", "seed_s"), (REF,)),
    "cli.run_evaluate.self_s": ("s", "lower", "cli.run_evaluate", ("seed_s",), (REF,)),
    "world.parse_ast.calls": ("count", "lower", "world.parse_ast", ("ms_per_call",), (DEEP, ORACLE)),
    "world.parse_ast.hit_ratio": ("ratio", "higher", "world.parse_ast", ("ms_per_call",), (DEEP, ORACLE)),
    "world.template_backward.calls": ("count", "lower", "world.Template.backward", ("ms_per_call", "plan_s"), (DEEP, ORACLE)),
    "world.template_backward.applicable_ratio": ("ratio", "higher", "world.Template.backward", ("ms_per_call", "plan_s"), (DEEP, ORACLE)),
    "model.featurize_molecule.calls": ("count", "lower", "model.featurize_molecule", ("ms_per_call", "seed_s"), (DEEP, REF)),
    "model.featurize_molecule.s": ("s", "lower", "model.featurize_molecule", ("ms_per_call", "seed_s"), (DEEP, REF)),
    "model.featurize_molecule.distinct_ratio": ("ratio", "higher", "model.featurize_molecule", ("ms_per_call", "seed_s"), (DEEP, REF)),
    "model.predict_topk.calls": ("count", "lower", "model.predict_topk", ("ms_per_call", "seed_s"), (DEEP, REF)),
    "model.predict_topk.s": ("s", "lower", "model.predict_topk", ("ms_per_call", "seed_s"), (DEEP, REF)),
    "model.train.calls": ("count", "lower", "model.train", ("pretrain_s", "seed_s"), (REF,)),
    "model.train.s": ("s", "lower", "model.train", ("pretrain_s", "seed_s"), (REF,)),
    "model.train.sample_epochs": ("count", "lower", "model.train", ("pretrain_s", "seed_s"), (REF,)),
    "model.topk_exact_match.s": ("s", "lower", "model.topk_exact_match", ("seed_s",), (REF,)),
    "planner.plan.calls": ("count", "lower", "planner.plan", ("plan_s",), (REF, DEEP, ORACLE)),
    "planner.plan.s": ("s", "lower", "planner.plan", ("plan_s",), (REF, DEEP, ORACLE)),
    "planner.expand.calls": ("count", "lower", "planner.SearchTree.expand", ("ms_per_call",), (DEEP,)),
    "planner.expand.self_s": ("s", "lower", "planner.SearchTree.expand", ("ms_per_call",), (DEEP,)),
    "planner.best_partial_route.calls": ("count", "lower", "planner.SearchTree.best_partial_route", ("ms_per_call", "target_ms_tail"), (DEEP,)),
    "planner.best_partial_route.s": ("s", "lower", "planner.SearchTree.best_partial_route", ("ms_per_call", "target_ms_tail"), (DEEP,)),
    "planner.tree_nodes.p50": ("nodes", "lower", "planner.SearchTree.expand", ("ms_per_call",), (DEEP,)),
    "planner.tree_nodes.max": ("nodes", "lower", "planner.SearchTree.expand", ("ms_per_call", "target_ms_tail"), (DEEP,)),
    "planner.extract_route.s": ("s", "lower", "planner.extract_route", ("plan_s",), (DEEP,)),
    "improve.plan.s": ("s", "lower", "improve.plan", ("seed_s", "plan_s"), (REF,)),
    "improve.collect_reactions.s": ("s", "lower", "improve.collect_reactions", ("seed_s",), (REF,)),
    "improve.augment.s": ("s", "lower", "improve.augment", ("seed_s",), (REF,)),
    "improve.behavioral_clone.s": ("s", "lower", "improve.behavioral_clone", ("seed_s",), (REF,)),
    "improve.plan.success_ratio": ("ratio", "higher", "cli.run_improve", (), (REF,)),
    "improve.filter.kept_ratio": ("ratio", "higher", "cli.run_improve", (), (REF,)),
    "improve.augment.accept_ratio": ("ratio", "higher", "cli.run_improve", (), (REF,)),
    "evaluate.evaluate_over_budgets.s": ("s", "lower", "evaluate.evaluate_over_budgets", ("seed_s",), (REF,)),
    "evaluate.penalty_constants.s": ("s", "lower", "evaluate.penalty_constants", ("seed_s",), (REF,)),
    "evaluate.brute_force_oracle.calls": ("count", "lower", "evaluate.brute_force_oracle", ("plan_s", "target_ms_tail"), (ORACLE,)),
    "evaluate.brute_force_oracle.s": ("s", "lower", "evaluate.brute_force_oracle", ("plan_s", "target_ms_tail"), (ORACLE,)),
    "evaluate.brute_force_oracle.explored": ("count", "lower", "evaluate.brute_force_oracle", ("plan_s", "target_ms_tail"), (ORACLE,)),
    "evaluate.oracle.useful_ratio": ("ratio", "higher", "evaluate.brute_force_oracle", ("plan_s", "target_ms_tail"), (ORACLE,)),
    # Traced minus untraced medians of the same run; measured, so it may be
    # negative when tracing costs less than the run-to-run noise.
    "trace.overhead.seed_s": ("s", "lower", None, (), ()),
    "trace.overhead.plan_s": ("s", "lower", None, (), ()),
}

# Ratios read from IterationReports: checked on their base, not their value.
RATIO_BASES = {
    "improve.plan.success_ratio": "improve.plan.attempted",
    "improve.filter.kept_ratio": "improve.filter.harvested",
    "improve.augment.accept_ratio": "improve.augment.offered",
}
