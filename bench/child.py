"""One repetition of a workload, in a fresh interpreter with a fresh output dir.

Run by ``run.py``; not meant to be started by hand. Usage:

    python bench/child.py WORKLOAD SEED TRACE OUT_DIR SPAWNED_AT

``SPAWNED_AT`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by all processes of the machine), so
set-up time counts interpreter start-up and imports. The repetition writes
``OUT_DIR/result.json``; with TRACE=1 it also writes its spans beside it.

Every timed interval is kept as its two wall-clock reads and turned into
reference seconds by ``speed.Speedometer`` once the repetition ends; the
wall seconds of the pipeline and its plans are reported beside them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
from retroloop import cli, planner, world
from retroloop.evaluate import OracleEstimator
from retroloop.seeding import derive_seed
from speed import Speedometer
from tracer import Tracer, retroloop_bindings

REFERENCE_CONFIG = Path("configs/reference.json")

# deep_plan: targets of one term height, so that every seed plans the same
# mix of search sizes. With heights mixed, the few largest targets of a seed
# decide its whole time, and plan_s differed by 2x between seeds. Height 10
# trees reach thousands of nodes. A depth-8 route reaches height 10 through a
# composite building block; max_depth 8 rather than the dataset's 10 keeps
# the rejected candidates small and cheap to generate.
DEEP_HEIGHT = 10
DEEP_TARGETS = 40
DEEP_MAX_DEPTH = 8
DEEP_LEAF_PROB = 0.05
DEEP_BUDGET = 3000
ORACLE_BUDGET = 50
OPTIMALITY_TOL = 1e-6
REF_STAGES = ("world_s", "pretrain_s", "improve_s", "evaluate_s")


def deep_targets(w: world.World, seed: int) -> list[world.Molecule]:
    """The first DEEP_TARGETS distinct targets of height DEEP_HEIGHT.

    Candidates come one at a time from the dataset's route generator with
    leaf_prob 0.05 and child seeds of the seed's ``deep`` seed; only the
    target molecule is kept.
    """
    targets: dict[str, world.Molecule] = {}
    i = 0
    while len(targets) < DEEP_TARGETS:
        target, _route = world.sample_ground_truth_route(
            w, DEEP_MAX_DEPTH, derive_seed(derive_seed(seed, "deep"), str(i)),
            leaf_prob=DEEP_LEAF_PROB,
        )
        i += 1
        if world.parse_ast(target.text).height == DEEP_HEIGHT:
            targets.setdefault(target.text, target)
    return list(targets.values())


class PlanProbe:
    """Times each ``plan`` call made through any retroloop module binding.

    Untraced runs need per-target latencies on ref_seed, where ``plan`` is
    called from inside the stages; two clock reads per target cost nothing
    next to a plan. Like the tracer, it rebinds every module attribute that
    is ``planner.plan`` (or the tracer's wrapper of it), so no caller
    escapes. Each sample records the stage it ran in.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[tuple[float, float], object, object, str]] = []
        self.stage = ""
        original = getattr(planner.plan, "__wrapped__", planner.plan)
        for mod, attr, value in retroloop_bindings(original):
            setattr(mod, attr, self._wrap(value))

    def _wrap(self, func):
        samples, clock = self.samples, time.perf_counter

        def timed_plan(target, *args, **kwargs):
            start = clock()
            result = func(target, *args, **kwargs)
            samples.append(((start, clock()), target, result, self.stage))
            return result

        return timed_plan


def route_problems(w: world.World, result) -> list[str]:
    return world.validate_route(w, result.route) if result.success else []


def run_ref_seed(cfg, seed: int, out: Path, tracer, rep: dict) -> None:
    """The four stage functions that ``cli.run_seed`` calls, one trace id each.

    A stage that raises fails, and so do the stages after it; a stage whose
    plans return an invalid route fails.
    """
    if tracer is not None:
        tracer.install()
    probe = PlanProbe()
    seed_dir = out / f"seed_{seed}"
    times: dict[str, tuple[float, float]] = {}
    completed: list[str] = []
    w = data = reports = None
    rows: list[dict] = []

    def stage(name, fn):
        probe.stage = name
        if tracer is not None:
            tracer.begin(name)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            times[name] = (start, time.perf_counter())
        completed.append(name)
        return result

    rep["first_call"] = time.perf_counter()
    try:
        w, data = stage("world_s", lambda: cli.ensure_world_data(cfg, seed, seed_dir))
        backward, reference, forward = stage(
            "pretrain_s", lambda: cli.run_pretrain(cfg, seed, seed_dir, w, data))
        final, reports = stage("improve_s", lambda: cli.run_improve(
            cfg, seed, seed_dir, w, data, (backward, reference, forward)))
        rows = stage("evaluate_s", lambda: cli.run_evaluate(
            cfg, seed, seed_dir, w, data, reference, {0: backward, cfg.loop.iterations: final}))
    except Exception as exc:
        rep["errors"].append(f"{probe.stage}: {type(exc).__name__}: {exc}")
    rep["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    failed = set(REF_STAGES) - set(completed)
    for _iv, target, result, name in probe.samples:
        if route_problems(w, result):
            failed.add(name)
            rep["errors"].append(f"{name}: invalid route for {target.text[:40]}")
    final_rows = [r for r in rows if r["iteration"] == cfg.loop.iterations]
    rep["attempted"] = len(REF_STAGES)
    rep["failed"] = len(failed)
    rep["success_rate"] = final_rows[0]["success_rate"] if final_rows else 0.0
    rep["intervals"] = times
    rep["plans"] = [(iv, r.model_calls) for iv, _t, r, _s in probe.samples]
    rep["digest"] = digest(
        [(t.text, r.outcome, r.model_calls) for _iv, t, r, _s in probe.samples]
        + [sorted(row.items()) for row in rows])
    rep["reports"] = reports or []


def run_planning(cfg, seed: int, out: Path, tracer, rep: dict, workload: str) -> None:
    """Set-up (world, data, pretraining, targets), then plan each target."""
    seed_dir = out / f"seed_{seed}"
    clock = time.perf_counter
    start = clock()
    w, data = cli.ensure_world_data(cfg, seed, seed_dir)
    world_end = clock()
    backward, reference, _forward = cli.run_pretrain(cfg, seed, seed_dir, w, data)
    pretrain_end = clock()
    if workload == "deep_plan":
        targets = deep_targets(w, seed)
        estimator, budget = planner.ZeroEstimator(), DEEP_BUDGET
    else:
        targets = list(data.targets)
        estimator = OracleEstimator(w, reference)
        budget = ORACLE_BUDGET
    del data
    rep["intervals"] = {"world_s": (start, world_end), "pretrain_s": (world_end, pretrain_end),
                        "targets_s": (pretrain_end, clock())}
    if tracer is not None:
        tracer.install()

    results = []
    rep["first_call"] = time.perf_counter()
    for i, target in enumerate(targets):
        if tracer is not None:
            tracer.begin(f"target:{i}")
        begin = clock()
        try:
            result = planner.plan(target, backward, estimator, budget, cfg.eval.k_expand, w)
        except Exception as exc:
            rep["errors"].append(f"{target.text[:40]}: {type(exc).__name__}: {exc}")
            result = None
        results.append(((begin, clock()), target, result))
    rep["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    failed = 0
    for _iv, target, result in results:
        if result is None:
            failed += 1
        elif route_problems(w, result):
            failed += 1
            rep["errors"].append(f"invalid route for {target.text[:40]}")
        elif workload == "oracle_plan" and result.success:
            cost = planner.unfolded_route_cost(result.route, reference, w)
            best = estimator.evaluate(target)
            if abs(cost - best) > OPTIMALITY_TOL:
                failed += 1
                rep["errors"].append(f"route cost {cost} != oracle {best} for {target.text[:40]}")
    ok = [r for _iv, _t, r in results if r is not None]
    rep["attempted"] = len(targets)
    rep["failed"] = failed
    rep["success_rate"] = sum(r.success for r in ok) / len(targets)
    rep["plans"] = [(iv, r.model_calls if r is not None else 0) for iv, _t, r in results]
    rep["digest"] = digest([(t.text, r.outcome if r else "error", r.model_calls if r else 0)
                            for _iv, t, r in results])
    rep["reports"] = []


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True, default=str).encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    workload, seed, trace, out, spawned_at = argv
    seed, trace, out, spawned_at = int(seed), trace == "1", Path(out), float(spawned_at)
    speedometer = Speedometer()
    speedometer.start()
    try:
        cfg, doc = cli.load_config(REFERENCE_CONFIG)
        tracer = Tracer() if trace else None
        rep: dict = {"errors": []}
        if workload == "ref_seed":
            run_ref_seed(cfg, seed, out, tracer, rep)
        else:
            run_planning(cfg, seed, out, tracer, rep, workload)
    finally:
        speedometer.stop()

    # seed_s: the stages on ref_seed, whose plans run inside them; world,
    # pretraining, targets and then the plans on the other two.
    seconds = speedometer.seconds
    plans, intervals = rep.pop("plans"), rep.pop("intervals")
    stages = {name: seconds(*iv) for name, iv in intervals.items()}
    target_s = [seconds(*iv) for iv, _ in plans]
    plan_s = sum(target_s)
    wall_plan_s = sum(b - a for (a, b), _ in plans)
    plans_outside = 0.0 if workload == "ref_seed" else 1.0
    result = {
        "setup_s": seconds(spawned_at, rep.pop("first_call")),
        "seed_s": sum(stages.values()) + plans_outside * plan_s,
        "pretrain_s": stages.get("pretrain_s", 0.0),
        "stages": stages,
        "peak_rss_mb": rep.pop("rss") / 1024.0,
        "plan_s": plan_s,
        "calls": sum(c for _, c in plans),
        "target_ms": [1000.0 * s for s in target_s],
        "wall": {
            "seed_s": sum(b - a for a, b in intervals.values()) + plans_outside * wall_plan_s,
            "plan_s": wall_plan_s,
        },
        "kernel_ms_p50": 1000.0 * statistics.median(speedometer.kernel_s),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "config_hash": cli.config_hash(doc),
    }
    reports = rep.pop("reports")
    result.update(rep)
    if tracer is not None:
        result["layers"] = tracer.metrics(reports, seconds)
        result["bindings"] = {k: list(v) for k, v in tracer.bindings.items()}
        tracer.write_spans(out / "spans.jsonl")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
