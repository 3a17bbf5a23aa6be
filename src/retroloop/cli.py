"""Experiment driver: generation, pretraining, self-improvement, evaluation, reports.

One JSON config drives a full experiment; every stage is deterministic given
the config (all randomness flows from the config's seeds through named child
seeds, there is no global RNG). Exit codes are stable:

  2  invalid or unreadable config, or an invalid command-line argument
  3  empty train split at pretraining
  4  missing checkpoints
  5  corrupt checkpoint, world or dataset file, or a checkpoint of another
     world, feature dim or direction
  6  missing run manifest
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import NamedTuple, get_args, get_origin, get_type_hints

from .errors import CheckpointError, EmptyDataset, InvalidConfig
from .evaluate import OracleEstimator, evaluate_over_budgets, penalty_constants
from .improve import LoopConfig, pretrain_models, run_self_improvement
from .model import (
    DEFAULT_DIM,
    ROLE_BACKWARD,
    ROLE_FORWARD,
    TemplateClassifier,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    topk_exact_match,
)
from .planner import ZeroEstimator, plan, route_cost_under
from .seeding import derive_seed
from .world import (
    Dataset,
    World,
    WorldConfig,
    build_datasets,
    generate_world,
    load_dataset,
    load_world,
    parse_molecule,
    save_dataset,
    save_world,
)

CONFIG_VERSION = 1
MANIFEST_VERSION = 1

EXIT_INVALID_CONFIG = 2
EXIT_EMPTY_SPLIT = 3
EXIT_MISSING_CHECKPOINT = 4
EXIT_CORRUPT_CHECKPOINT = 5
EXIT_MISSING_MANIFEST = 6

# The planning metrics of one (model, budget), as attributes of PlanningMetrics.
PLAN_METRICS = ("success_rate", "avg_length", "avg_time", "avg_cost")
SUMMARY_COLUMNS = ("seed", "iteration", "budget", *PLAN_METRICS, "top1", "top10")


class ConfigError(Exception):
    pass


class CorruptFile(Exception):
    """A world or dataset file of a run cannot be read back."""


@dataclass(frozen=True)
class DatasetConfig:
    n_targets: int = 500
    max_depth: int = 6
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    leaf_prob: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.leaf_prob < 1.0:
            raise InvalidConfig("leaf_prob must lie in [0, 1)")


@dataclass(frozen=True)
class EvalConfig:
    budgets: tuple[int, ...] = (50,)
    estimator: str = "retro0"  # retro0 | oracle
    k_expand: int = 10

    def __post_init__(self) -> None:
        ascending = all(a < b for a, b in zip(self.budgets, self.budgets[1:]))
        if not self.budgets or not ascending or self.budgets[0] < 1:
            raise InvalidConfig("budgets must be strictly ascending positive integers")
        if self.estimator not in ("retro0", "oracle"):
            raise InvalidConfig("estimator must be 'retro0' or 'oracle'")
        if self.k_expand < 1:
            raise InvalidConfig("k_expand must be at least 1")


@dataclass(frozen=True)
class PretrainConfig:
    backward: TrainConfig = TrainConfig()
    forward: TrainConfig = TrainConfig(learning_rate=0.001, epochs=100)


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...] = (0,)
    world: WorldConfig = WorldConfig()
    dataset: DatasetConfig = DatasetConfig()
    pretrain: PretrainConfig = PretrainConfig()
    loop: LoopConfig = LoopConfig()
    eval: EvalConfig = EvalConfig()
    dim: int = DEFAULT_DIM

    def __post_init__(self) -> None:
        if not self.seeds:
            raise InvalidConfig("seeds must be a non-empty list")


def _typed(hint, value, default, where: str):
    """The JSON ``value`` as the field type ``hint``; ``default`` is the
    field's current value, which a nested config section starts from."""
    if is_dataclass(hint):
        return _build(default, value, where)
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true or false, got {value!r}")
        return value
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list")
        item = get_args(hint)[0]
        return tuple(_typed(item, v, None, f"{where}[{i}]") for i, v in enumerate(value))
    try:
        return hint(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build(default, section, where: str):
    """``default`` with the keys of the JSON object ``section`` replaced.

    Every key must name a field other than ``seed``: every seed is derived
    from the experiment seed by ``child_seeds``. The dataclass checks the
    result.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    hints = get_type_hints(type(default))
    names = {f.name for f in fields(default)}
    values = {}
    for key, value in section.items():
        if key == "seed":
            raise ConfigError(f"{where}.seed: derived from the experiment seed, not settable")
        if key not in names:
            raise ConfigError(f"{where}.{key}: unknown key")
        values[key] = _typed(hints[key], value, getattr(default, key), f"{where}.{key}")
    try:
        return replace(default, **values)
    except InvalidConfig as exc:
        # Each check's message opens with its field, so this names the key.
        raise ConfigError(f"{where}.{exc}") from exc


def parse_config(doc: dict, where: str = "config") -> ExperimentConfig:
    """The experiment a config document describes; omitted keys keep the
    dataclass defaults."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    version = doc.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"{where}.version: unsupported version {version!r}")
    return _build(ExperimentConfig(), {k: v for k, v in doc.items() if k != "version"}, where)


def load_config(path: str | Path) -> tuple[ExperimentConfig, dict]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(doc, where=str(path)), doc


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# per-seed pipeline pieces


def _seed_dir(out: Path, seed: int) -> Path:
    return out / f"seed_{seed}"


class ChildSeeds(NamedTuple):
    world: int
    dataset: int
    pretrain_backward: int
    pretrain_forward: int
    loop: int
    bc: int


def child_seeds(seed: int) -> ChildSeeds:
    """The seed-derivation policy: one named child seed per random step of
    an experiment seed. Every stage, script and test draws from here."""
    return ChildSeeds(
        world=derive_seed(seed, "world"),
        dataset=derive_seed(seed, "dataset"),
        pretrain_backward=derive_seed(seed, "pretrain-backward"),
        pretrain_forward=derive_seed(seed, "pretrain-forward"),
        loop=derive_seed(seed, "loop"),
        bc=derive_seed(seed, "bc"),
    )


def build_world_data(cfg: ExperimentConfig, seed: int) -> tuple[World, Dataset]:
    """The world and dataset of one seed, in memory."""
    seeds = child_seeds(seed)
    world = generate_world(cfg.world, seeds.world)
    data = build_datasets(
        world,
        n_targets=cfg.dataset.n_targets,
        max_depth=cfg.dataset.max_depth,
        split=cfg.dataset.split,
        seed=seeds.dataset,
        leaf_prob=cfg.dataset.leaf_prob,
    )
    return world, data


def build_pretrained(
    cfg: ExperimentConfig, seed: int, world: World, data: Dataset
) -> tuple[TemplateClassifier, TemplateClassifier, TemplateClassifier]:
    """The pretrained (backward, reference, forward) models of one seed."""
    seeds = child_seeds(seed)
    return pretrain_models(
        world,
        data,
        replace(cfg.pretrain.backward, seed=seeds.pretrain_backward),
        replace(cfg.pretrain.forward, seed=seeds.pretrain_forward),
        dim=cfg.dim,
    )


def seed_loop_config(cfg: ExperimentConfig, seed: int) -> LoopConfig:
    """The self-improvement loop settings of one seed."""
    seeds = child_seeds(seed)
    return replace(cfg.loop, seed=seeds.loop, bc=replace(cfg.loop.bc, seed=seeds.bc))


def _read(load, path: Path):
    try:
        return load(path)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def ensure_world_data(
    cfg: ExperimentConfig, seed: int, seed_dir: Path
) -> tuple[World, Dataset]:
    """Reload the world and dataset files of one seed, or build and save them."""
    world_path = seed_dir / "world.json"
    data_dir = seed_dir / "dataset"
    if world_path.exists() and (data_dir / "targets.jsonl").exists():
        return _read(load_world, world_path), _read(load_dataset, data_dir)
    world, data = build_world_data(cfg, seed)
    seed_dir.mkdir(parents=True, exist_ok=True)
    save_world(world, world_path)
    save_dataset(data, data_dir)
    return world, data


def _checkpoint_paths(seed_dir: Path) -> dict[str, Path]:
    ck = seed_dir / "checkpoints"
    return {
        "backward": ck / "backward.json",
        "forward": ck / "forward.json",
        "final": ck / "backward_final.json",
    }


def run_pretrain(
    cfg: ExperimentConfig, seed: int, seed_dir: Path, world: World, data: Dataset
) -> tuple[TemplateClassifier, TemplateClassifier, TemplateClassifier]:
    backward, reference, forward = build_pretrained(cfg, seed, world, data)
    paths = _checkpoint_paths(seed_dir)
    paths["backward"].parent.mkdir(parents=True, exist_ok=True)
    # The reference is the pretrained backward model: both read backward.json.
    save_checkpoint(backward, paths["backward"])
    save_checkpoint(forward, paths["forward"])
    if data.reactions_test:
        top1, top10 = topk_exact_match(backward, data.reactions_test, (1, 10), world)
        print(f"pretrain seed={seed} top1={top1:.6f} top10={top10:.6f}")
    return backward, reference, forward


def _load_checkpoints(needed, world: World, dim: int) -> list[TemplateClassifier]:
    """The checkpoints of the (path, role) pairs ``needed``, each of that
    role (direction) and made for ``world`` and ``dim``."""
    models = []
    for path, role in needed:
        model = load_checkpoint(path)
        if model.role != role:
            raise CheckpointError(f"checkpoint {path} holds a {model.role} model, not a {role} one")
        if model.dim != dim:
            raise CheckpointError(f"checkpoint {path} has dim {model.dim}, the config {dim}")
        if model.template_index != world.template_ids:
            raise CheckpointError(f"checkpoint {path} was not trained on this world's templates")
        models.append(model)
    return models


def run_improve(
    cfg: ExperimentConfig,
    seed: int,
    seed_dir: Path,
    world: World,
    data: Dataset,
    pretrained,
):
    reports_dir = seed_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    ck_dir = seed_dir / "checkpoints"
    ck_dir.mkdir(parents=True, exist_ok=True)

    def persist(model, report):
        save_checkpoint(model, ck_dir / f"backward_iter_{report.iteration}.json")
        (reports_dir / f"iteration_{report.iteration}.json").write_text(
            json.dumps(report.to_json(), sort_keys=True) + "\n"
        )

    final, reports = run_self_improvement(
        seed_loop_config(cfg, seed), world, data, pretrained, on_iteration=persist
    )
    save_checkpoint(final, _checkpoint_paths(seed_dir)["final"])
    return final, reports


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_target_rows(path: Path, metrics) -> None:
    rows = [[r.target, r.outcome, _fmt(r.length), r.time, _fmt(r.cost)] for r in metrics.rows]
    rows.append(["__summary__", *(_fmt(getattr(metrics, m)) for m in PLAN_METRICS)])
    _write_csv(path, ["target", "outcome", "length", "time", "cost"], rows)


def run_evaluate(
    cfg: ExperimentConfig,
    seed: int,
    seed_dir: Path,
    world: World,
    data: Dataset,
    reference: TemplateClassifier,
    models_by_iteration: dict[int, TemplateClassifier],
) -> list[dict]:
    budgets = cfg.eval.budgets
    estimator = (
        OracleEstimator(world, reference) if cfg.eval.estimator == "oracle" else ZeroEstimator()
    )
    metrics_dir = seed_dir / "metrics"
    metrics_dir.mkdir(parents=True, exist_ok=True)
    summary_rows: list[dict] = []
    per_budget: dict[int, dict[int, object]] = {}
    penalties = penalty_constants(data, reference, world)
    for iteration, model in sorted(models_by_iteration.items()):
        by_budget = evaluate_over_budgets(
            model,
            estimator,
            data.targets,
            list(budgets),
            reference,
            penalties,
            world,
            k_expand=cfg.eval.k_expand,
        )
        top1 = top10 = float("nan")
        if data.reactions_test:
            top1, top10 = topk_exact_match(model, data.reactions_test, (1, 10), world)
        for budget, metrics in by_budget.items():
            _write_target_rows(
                metrics_dir / f"targets_budget{budget}_iter{iteration}.csv", metrics
            )
            per_budget.setdefault(budget, {})[iteration] = metrics
            summary_rows.append(
                {"seed": seed, "iteration": iteration, "budget": budget}
                | {m: getattr(metrics, m) for m in PLAN_METRICS}
                | {"top1": top1, "top10": top10}
            )

    _write_csv(
        metrics_dir / "summary.csv",
        SUMMARY_COLUMNS,
        (
            [row["seed"], row["iteration"], row["budget"]]
            + [_fmt(row[c]) for c in SUMMARY_COLUMNS[3:]]
            for row in summary_rows
        ),
    )

    # Relative gains of the last iteration over iteration 0, per budget.
    iterations = sorted(models_by_iteration)
    if len(iterations) >= 2:
        gains = []
        for budget in budgets:
            base = per_budget[budget][iterations[0]]
            ours = per_budget[budget][iterations[-1]]
            for metric in PLAN_METRICS:
                b = getattr(base, metric)
                o = getattr(ours, metric)
                gain = _fmt((o - b) / b) if b else ""
                gains.append([budget, metric, _fmt(b), _fmt(o), gain])
        _write_csv(
            metrics_dir / "gains.csv", ["budget", "metric", "base", "ours", "relative_gain"], gains
        )
    return summary_rows


def run_seed(cfg: ExperimentConfig, seed: int, out: Path) -> dict:
    """Full pipeline for one seed; returns the artifact paths."""
    seed_dir = _seed_dir(out, seed)
    world, data = ensure_world_data(cfg, seed, seed_dir)
    backward, reference, forward = run_pretrain(cfg, seed, seed_dir, world, data)
    final, _reports = run_improve(
        cfg, seed, seed_dir, world, data, (backward, reference, forward)
    )
    run_evaluate(
        cfg,
        seed,
        seed_dir,
        world,
        data,
        reference,
        {0: backward, cfg.loop.iterations: final},
    )
    paths = _checkpoint_paths(seed_dir)
    return {
        "world": str(seed_dir / "world.json"),
        "dataset": str(seed_dir / "dataset"),
        "checkpoints": {k: str(v) for k, v in paths.items()},
        "metrics": str(seed_dir / "metrics" / "summary.csv"),
        "reports": [
            str(p) for p in sorted((seed_dir / "reports").glob("iteration_*.json"))
        ],
    }


# ---------------------------------------------------------------------------
# aggregation


def aggregate_report(out: Path) -> Path:
    """Merge per-seed summaries into mean/stdev rows; returns the CSV path."""
    rows: list[dict] = []
    for summary in sorted(out.glob("seed_*/metrics/summary.csv")):
        with summary.open() as fh:
            for rec in csv.DictReader(fh):
                rows.append(rec)
    grouped: dict[tuple[int, int], list[dict]] = {}
    for rec in rows:
        key = (int(rec["iteration"]), int(rec["budget"]))
        grouped.setdefault(key, []).append(rec)

    metrics = SUMMARY_COLUMNS[3:]
    header = ["iteration", "budget", "n_seeds"]
    table = []
    for m in metrics:
        header += [f"{m}_mean", f"{m}_std"]
    for (iteration, budget), recs in sorted(grouped.items()):
        row = [iteration, budget, len(recs)]
        for m in metrics:
            values = [float(r[m]) for r in recs]
            if any(math.isnan(v) for v in values):
                row += ["nan", "nan"]
            else:
                row += [_fmt(statistics.fmean(values)), _fmt(statistics.pstdev(values))]
        table.append(row)
    aggregated = out / "aggregated.csv"
    _write_csv(aggregated, header, table)
    return aggregated


def print_report(out: Path) -> None:
    aggregated = out / "aggregated.csv"
    if not aggregated.exists():
        return
    with aggregated.open() as fh:
        for rec in csv.DictReader(fh):
            print(
                f"iteration={rec['iteration']} budget={rec['budget']} "
                f"n={rec['n_seeds']} "
                f"success={float(rec['success_rate_mean']):.4f}"
                f"±{float(rec['success_rate_std']):.4f} "
                f"length={float(rec['avg_length_mean']):.3f}"
                f"±{float(rec['avg_length_std']):.3f} "
                f"time={float(rec['avg_time_mean']):.2f}"
                f"±{float(rec['avg_time_std']):.2f} "
                f"cost={float(rec['avg_cost_mean']):.3f}"
                f"±{float(rec['avg_cost_std']):.3f}"
            )


def write_manifest(out: Path, doc: dict, seed_artifacts: dict[int, dict], started: float) -> None:
    manifest = {
        "version": MANIFEST_VERSION,
        "config_hash": config_hash(doc),
        "started": started,
        "finished": time.time(),
        "config": str(out / "config.json"),
        "aggregated": str(out / "aggregated.csv"),
        "seeds": {str(seed): art for seed, art in sorted(seed_artifacts.items())},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands


def _seeds_for(args, cfg: ExperimentConfig) -> tuple[int, ...]:
    return (args.seed,) if getattr(args, "seed", None) is not None else cfg.seeds


def _seed_worlds(args, needs=lambda paths: (), cfg=None):
    """(cfg, seed, seed_dir, world, data, checkpoints) for each seed a command
    covers. ``needs`` picks, from a seed's checkpoint paths, the (path, role)
    of each checkpoint the command reads: all of them must exist before the
    seed's world is built or read. ``cfg`` defaults to the ``--config`` file."""
    if cfg is None:
        cfg, _doc = load_config(args.config)
    for seed in _seeds_for(args, cfg):
        seed_dir = _seed_dir(Path(args.out), seed)
        needed = needs(_checkpoint_paths(seed_dir))
        for path, _role in needed:
            if not Path(path).exists():
                raise FileNotFoundError(f"missing checkpoint {path}")
        world, data = ensure_world_data(cfg, seed, seed_dir)
        yield cfg, seed, seed_dir, world, data, _load_checkpoints(needed, world, cfg.dim)


def cmd_gen_world(args) -> int:
    for _cfg, seed, seed_dir, _world, _data, _ in _seed_worlds(args):
        print(f"gen-world seed={seed} out={seed_dir}")
    return 0


def cmd_pretrain(args) -> int:
    for cfg, seed, seed_dir, world, data, _ in _seed_worlds(args):
        run_pretrain(cfg, seed, seed_dir, world, data)
    return 0


def cmd_self_improve(args) -> int:
    def needs(paths):
        return ((paths["backward"], ROLE_BACKWARD), (paths["forward"], ROLE_FORWARD))

    for cfg, seed, seed_dir, world, data, (backward, forward) in _seed_worlds(args, needs):
        # The pretrained backward model is also the frozen reference.
        pretrained = (backward, backward, forward)
        _final, reports = run_improve(cfg, seed, seed_dir, world, data, pretrained)
        for report in reports:
            print(
                f"improve seed={seed} iteration={report.iteration} "
                f"succeeded={report.routes_succeeded}/{report.routes_attempted} "
                f"kept={report.kept_after_filter} augmented={report.augmented_accepted} "
                f"top1={report.top1:.6f}"
            )
    return 0


def cmd_evaluate(args) -> int:
    cfg, _doc = load_config(args.config)
    try:
        eval_cfg = replace(
            cfg.eval,
            budgets=tuple(sorted(args.budget or cfg.eval.budgets)),
            estimator=args.estimator or cfg.eval.estimator,
        )
    except InvalidConfig as exc:
        raise ConfigError(f"--budget: {exc}") from exc
    extra = (args.baseline,) if args.baseline else ()

    def needs(paths):
        chosen = (paths["backward"], args.checkpoint or paths["final"], *extra)
        return [(path, ROLE_BACKWARD) for path in chosen]

    for cfg, seed, seed_dir, world, data, (reference, model, *baseline) in _seed_worlds(
        args, needs, replace(cfg, eval=eval_cfg)
    ):
        if baseline:
            models = {0: baseline[0], cfg.loop.iterations: model}
        else:
            models = {args.iteration: model}
        rows = run_evaluate(cfg, seed, seed_dir, world, data, reference, models)
        for row in rows:
            print(
                f"evaluate seed={seed} iteration={row['iteration']} budget={row['budget']} "
                f"success={row['success_rate']:.4f} length={row['avg_length']:.3f} "
                f"time={row['avg_time']:.2f} cost={row['avg_cost']:.3f}"
            )
    return 0


def cmd_plan(args) -> int:
    if not args.target:
        raise ConfigError("--target: must be a non-empty molecule")
    if args.budget < 0:
        raise ConfigError(f"--budget: must be non-negative, got {args.budget}")
    oracle = args.estimator == "oracle"

    def needs(paths):
        chosen = (args.checkpoint or paths["final"], *((paths["backward"],) if oracle else ()))
        return [(path, ROLE_BACKWARD) for path in chosen]

    # The given seed, or the config's first.
    cfg, _seed, _seed_dir, world, _data, (model, *reference) = next(_seed_worlds(args, needs))
    estimator = OracleEstimator(world, reference[0]) if oracle else ZeroEstimator()
    target = parse_molecule(args.target)
    result = plan(
        target, model, estimator, args.budget, cfg.eval.k_expand, world,
        trace=bool(args.trace),
    )
    if args.trace:
        with Path(args.trace).open("w") as fh:
            for rec in result.trace or ():
                fh.write(
                    json.dumps(
                        {
                            "step": rec.step,
                            "molecule": rec.molecule,
                            "g_plus_h": rec.g_plus_h,
                            "applicable": rec.n_applicable,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    if not result.success:
        print(f"failure target={target.text} calls={result.model_calls}")
        return 0
    route = result.route
    assert route is not None
    # Dependency order: a reaction prints after the reactions feeding it.
    produced = set()
    remaining = {rx.product.text: rx for rx in route.reactions}
    while remaining:
        ready = sorted(
            text
            for text, rx in remaining.items()
            if all(r.text in produced or world.is_building_block(r) for r in rx.reactants)
        )
        for text in ready:
            rx = remaining.pop(text)
            print(f"{rx.product.text} <- {' + '.join(r.text for r in rx.reactants)}  [{rx.template_id}]")
            produced.add(text)
    cost = route_cost_under(route, model, world)
    print(
        f"success target={target.text} reactions={len(route.reactions)} "
        f"calls={result.model_calls} cost={cost:.6f}"
    )
    return 0


def cmd_report(args) -> int:
    out = Path(args.run)
    if not (out / "manifest.json").exists():
        print(f"error: no manifest.json in {out}", file=sys.stderr)
        return EXIT_MISSING_MANIFEST
    aggregate_report(out)
    print_report(out)
    return 0


def cmd_run_all(args) -> int:
    cfg, doc = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    started = time.time()
    seeds = _seeds_for(args, cfg)
    if args.workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run_seed, [cfg] * len(seeds), seeds, [out] * len(seeds)))
    else:
        results = [run_seed(cfg, seed, out) for seed in seeds]
    aggregate_report(out)
    write_manifest(out, doc, dict(zip(seeds, results)), started)
    print_report(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="retroloop")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=out_required, default="runs/default")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen-world", help="generate world and dataset files")
    common(p)
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("pretrain", help="supervised pretraining of the backward and forward models")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("self-improve", help="run the self-improvement loop")
    common(p)
    p.set_defaults(func=cmd_self_improve)

    p = sub.add_parser("evaluate", help="planning metrics for a checkpoint")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--baseline", default=None)
    p.add_argument("--iteration", type=int, default=0)
    p.add_argument("--budget", type=int, action="append", default=None)
    p.add_argument("--estimator", choices=("retro0", "oracle"), default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plan", help="plan a single target and print the route")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--estimator", choices=("retro0", "oracle"), default="retro0")
    p.add_argument("--trace", default=None, help="write one JSON line per expansion")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("report", help="aggregate metrics across seeds")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run-all", help="full pipeline for every seed")
    common(p)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except InvalidConfig as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except EmptyDataset as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SPLIT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_CHECKPOINT
    except (CheckpointError, CorruptFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
