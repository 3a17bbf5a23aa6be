"""Spans and counters around the calls into retroloop's public functions.

The tracer lives in the benchmark, not in the program: it rebinds each traced
function in every ``retroloop`` module that holds it, so a function imported
by name into another module (``improve.predict_topk``, ``cli.save_checkpoint``)
is measured under that binding too. Methods are rebound on their class.

A span is (binding, start, end, parent span, trace id). Spans stay in memory
until ``write_spans``. Boundaries crossed hundreds of thousands of times are
counted, not spanned: ``Template.backward`` through a counting wrapper and
``parse_ast`` through its own ``cache_info()``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from retroloop import cli, evaluate, improve, model, planner, world

# (defining module, attribute) of every spanned function, keyed by layer name.
SPANNED = {
    "cli.ensure_world_data": (cli, "ensure_world_data"),
    "cli.run_pretrain": (cli, "run_pretrain"),
    "cli.run_improve": (cli, "run_improve"),
    "cli.run_evaluate": (cli, "run_evaluate"),
    "world.generate_world": (world, "generate_world"),
    "world.build_datasets": (world, "build_datasets"),
    "model.featurize_molecule": (model, "featurize_molecule"),
    "model.predict_topk": (model, "predict_topk"),
    "model.train": (model, "train"),
    "model.topk_exact_match": (model, "topk_exact_match"),
    "model.save_checkpoint": (model, "save_checkpoint"),
    "planner.plan": (planner, "plan"),
    "planner.extract_route": (planner, "extract_route"),
    "improve.pretrain_models": (improve, "pretrain_models"),
    "improve.run_self_improvement": (improve, "run_self_improvement"),
    "improve.collect_reactions": (improve, "collect_reactions"),
    "improve.augment": (improve, "augment"),
    "improve.behavioral_clone": (improve, "behavioral_clone"),
    "evaluate.evaluate_over_budgets": (evaluate, "evaluate_over_budgets"),
    "evaluate.penalty_constants": (evaluate, "penalty_constants"),
    "evaluate.brute_force_oracle": (evaluate, "brute_force_oracle"),
}
SPANNED_METHODS = {
    "planner.SearchTree.expand": (planner.SearchTree, "expand"),
    "planner.SearchTree.best_partial_route": (planner.SearchTree, "best_partial_route"),
}


def retroloop_bindings(original) -> list[tuple[object, str, object]]:
    """(module, attribute, value) for every attribute of a loaded retroloop
    module that is ``original`` or a wrapper of it."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name == "retroloop" or name.startswith("retroloop."):
            for attr, value in vars(mod).items():
                if getattr(value, "__wrapped__", value) is original:
                    found.append((mod, attr, value))
    return found


def _tree_size(tree) -> int:
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.trace_id = 0
        self.trace_labels: list[str] = []
        self.bindings: dict[str, list[str]] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.featurized: set[str] = set()
        self.oracle_cached: set[str] = set()
        self.tree_nodes: list[int] = []
        self._last_tree = None
        self._parse0 = self._parse1 = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded retroloop module."""
        for layer, (home, attr) in SPANNED.items():
            original = getattr(home, attr)
            for mod, name, _value in retroloop_bindings(original):
                binding = f"{mod.__name__.removeprefix('retroloop.')}.{name}"
                self._rebind(mod, name, self._span(original, binding, layer))
        for layer, (cls, attr) in SPANNED_METHODS.items():
            self._rebind(cls, attr, self._span(getattr(cls, attr), layer, layer))
        self._rebind(world.Template, "backward", self._count_backward(world.Template.backward))
        self._parse0 = world.parse_ast.cache_info()
        for layer, (home, attr) in SPANNED.items():
            if not self.bindings[layer]:
                raise RuntimeError(f"tracer: no binding of {layer} found")

    def uninstall(self) -> None:
        """Restore every binding; counting stops here."""
        self._parse1 = world.parse_ast.cache_info()
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span(self, func, binding: str, layer: str):
        self.bindings[layer].append(binding)
        after = getattr(self, "_after_" + layer.rsplit(".", 1)[-1], None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (binding, start, end, parent, self.trace_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_backward(self, func):
        counts = self.counts
        self.bindings["world.Template.backward"].append("world.Template.backward")

        def backward(template, product):
            result = func(template, product)
            counts["backward.calls"] += 1
            if result is not None:
                counts["backward.applicable"] += 1
            return result

        return backward

    # -- per-call hooks, run outside the span's own interval ---------------

    def _after_featurize_molecule(self, args, kwargs, result) -> None:
        self.featurized.add(args[0].text)

    def _after_save_checkpoint(self, args, kwargs, result) -> None:
        self.counts["checkpoint.bytes"] += Path(args[1]).stat().st_size

    def _after_train(self, args, kwargs, result) -> None:
        data, cfg = args[1], args[2]
        self.counts["train.sample_epochs"] += len(data) * cfg.epochs

    def _after_brute_force_oracle(self, args, kwargs, result) -> None:
        self.counts["oracle.explored"] += result.explored
        self.oracle_cached.update(result.costs)

    def _after_expand(self, args, kwargs, result) -> None:
        self._last_tree = args[0]

    def _after_plan(self, args, kwargs, result) -> None:
        tree, self._last_tree = self._last_tree, None
        self.tree_nodes.append(_tree_size(tree) if tree is not None else 1)

    # -- trace ids ---------------------------------------------------------

    def begin(self, label: str) -> None:
        """Start a new trace id: one per target or stage."""
        self.trace_labels.append(label)
        self.trace_id = len(self.trace_labels) - 1

    # -- results -----------------------------------------------------------

    def metrics(self, reports, seconds) -> dict[str, float]:
        """Per-layer values from the spans, the counters and the loop reports.

        ``seconds(start, end)`` gives a span's duration; the benchmark passes
        ``Speedometer.seconds``, so layer times are reference seconds like
        the end-to-end ones.
        """
        calls: Counter = Counter()
        total: Counter = Counter()
        child_time: Counter = Counter()
        by_binding: Counter = Counter()
        binding_calls: Counter = Counter()
        layer_of = {b: layer for layer, bs in self.bindings.items() for b in bs}
        durations = [seconds(start, end) for _, start, end, _, _ in self.spans]
        for (binding, _, _, parent, _), duration in zip(self.spans, durations):
            layer = layer_of[binding]
            calls[layer] += 1
            total[layer] += duration
            by_binding[binding] += duration
            binding_calls[binding] += 1
            if parent >= 0:
                child_time[parent] += duration
        self_time: Counter = Counter()
        for idx, ((binding, *_), duration) in enumerate(zip(self.spans, durations)):
            self_time[layer_of[binding]] += duration - child_time[idx]

        parse = self._parse1
        hits = parse.hits - self._parse0.hits
        parse_calls = hits + parse.misses - self._parse0.misses
        c = self.counts
        harvested = sum(r.reactions_harvested for r in reports)
        kept = sum(r.kept_after_filter for r in reports)
        attempted = sum(r.routes_attempted for r in reports)
        nodes = self.tree_nodes or [0]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "cli.ensure_world_data.s": total["cli.ensure_world_data"],
            "cli.save_checkpoint.calls": binding_calls["cli.save_checkpoint"],
            "cli.save_checkpoint.s": by_binding["cli.save_checkpoint"],
            "cli.save_checkpoint.bytes": c["checkpoint.bytes"],
            "cli.run_evaluate.self_s": self_time["cli.run_evaluate"],
            "world.parse_ast.calls": parse_calls,
            "world.parse_ast.hit_ratio": ratio(hits, parse_calls),
            "world.template_backward.calls": c["backward.calls"],
            "world.template_backward.applicable_ratio": ratio(c["backward.applicable"], c["backward.calls"]),
            "model.featurize_molecule.calls": calls["model.featurize_molecule"],
            "model.featurize_molecule.s": total["model.featurize_molecule"],
            "model.featurize_molecule.distinct_ratio": ratio(len(self.featurized), calls["model.featurize_molecule"]),
            "model.predict_topk.calls": calls["model.predict_topk"],
            "model.predict_topk.s": total["model.predict_topk"],
            "model.train.calls": calls["model.train"],
            "model.train.s": total["model.train"],
            "model.train.sample_epochs": c["train.sample_epochs"],
            "model.topk_exact_match.s": total["model.topk_exact_match"],
            "planner.plan.calls": calls["planner.plan"],
            "planner.plan.s": total["planner.plan"],
            "planner.expand.calls": calls["planner.SearchTree.expand"],
            "planner.expand.self_s": self_time["planner.SearchTree.expand"],
            "planner.best_partial_route.calls": calls["planner.SearchTree.best_partial_route"],
            "planner.best_partial_route.s": total["planner.SearchTree.best_partial_route"],
            "planner.tree_nodes.p50": statistics.median(nodes),
            "planner.tree_nodes.max": max(nodes),
            "planner.extract_route.s": total["planner.extract_route"],
            "improve.plan.s": by_binding["improve.plan"],
            "improve.collect_reactions.s": total["improve.collect_reactions"],
            "improve.augment.s": total["improve.augment"],
            "improve.behavioral_clone.s": total["improve.behavioral_clone"],
            "improve.plan.success_ratio": ratio(sum(r.routes_succeeded for r in reports), attempted),
            "improve.plan.attempted": attempted,
            "improve.filter.kept_ratio": ratio(kept, harvested),
            "improve.filter.harvested": harvested,
            "improve.augment.accept_ratio": ratio(sum(r.augmented_accepted for r in reports), kept),
            "improve.augment.offered": kept,
            "evaluate.evaluate_over_budgets.s": total["evaluate.evaluate_over_budgets"],
            "evaluate.penalty_constants.s": total["evaluate.penalty_constants"],
            "evaluate.brute_force_oracle.calls": calls["evaluate.brute_force_oracle"],
            "evaluate.brute_force_oracle.s": total["evaluate.brute_force_oracle"],
            "evaluate.brute_force_oracle.explored": c["oracle.explored"],
            "evaluate.oracle.useful_ratio": ratio(len(self.oracle_cached), c["oracle.explored"]),
        }

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for binding, start, end, parent, trace in self.spans:
                fh.write(json.dumps({
                    "name": binding, "start": start, "end": end,
                    "parent": parent, "trace": self.trace_labels[trace] if self.trace_labels else "",
                }) + "\n")
