"""Experiment driver: generation, pretraining, self-improvement, evaluation, reports.

One JSON config drives a full experiment; every stage is deterministic given
the config (all randomness flows from the config's seeds through named child
seeds, there is no global RNG). Exit codes are stable: ``EXIT_CODES`` maps
each error a command raises to its code, and README's exit-code table says
what each code means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import re
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable, get_args, get_origin, get_type_hints

from .errors import CheckpointError, EmptyDataset, InvalidConfig, UnknownTemplate
from .evaluate import ESTIMATORS, evaluate_over_budgets, penalty_constants
from .improve import LoopConfig, PretrainConfig, pretrain_models, run_self_improvement
from .model import (
    DEFAULT_DIM,
    MAX_DIM,
    ROLE_BACKWARD,
    ROLE_FORWARD,
    TemplateClassifier,
    check_world,
    load_checkpoint,
    save_checkpoint,
    topk_exact_match,
)
from .planner import plan, route_cost_under
from .seeding import derive_seed
from .world import (
    DATASET_FILES,
    Dataset,
    DatasetConfig,
    World,
    WorldConfig,
    build_datasets,
    generate_world,
    parse_molecule,
    save_dataset,
    save_world,
)

CONFIG_VERSION = 1
MANIFEST_VERSION = 1

# The planning metrics of one (model, budget), as attributes of PlanningMetrics.
PLAN_METRICS = ("success_rate", "avg_length", "avg_time", "avg_cost")
SUMMARY_COLUMNS = ("seed", "estimator", "iteration", "budget", *PLAN_METRICS, "top1", "top10")


class CorruptFile(Exception):
    """A world or dataset file of a run is not the one its config makes, or
    a metrics summary is not in the layout ``evaluate`` writes."""


class MissingCheckpoint(Exception):
    """A checkpoint a command reads does not exist."""


class MissingManifest(Exception):
    """``report`` was given a run directory without a manifest."""


# The exit code of each error a command raises, as ``main`` returns it.
EXIT_CODES = (
    (InvalidConfig, 2),
    (EmptyDataset, 3),
    (MissingCheckpoint, 4),
    (CheckpointError, 5),
    (CorruptFile, 5),
    (FileExistsError, 5),
    (IsADirectoryError, 5),
    (NotADirectoryError, 5),
    (MissingManifest, 6),
)


@dataclass(frozen=True)
class EvalConfig:
    budgets: tuple[int, ...] = (50,)
    estimator: str = "retro0"
    k_expand: int = 10

    def __post_init__(self) -> None:
        ascending = all(a < b for a, b in zip(self.budgets, self.budgets[1:]))
        if not self.budgets or not ascending or self.budgets[0] < 1:
            raise InvalidConfig("budgets must be strictly ascending positive integers")
        if self.estimator not in ESTIMATORS:
            raise InvalidConfig(f"estimator must be one of {', '.join(ESTIMATORS)}")
        if self.k_expand < 1:
            raise InvalidConfig("k_expand must be at least 1")


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
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise InvalidConfig("seeds must be a non-empty list of distinct seeds")
        if not 1 <= self.dim <= MAX_DIM:
            raise InvalidConfig(f"dim must lie in [1, {MAX_DIM}]")


# The JSON types a scalar setting of each field type takes, and its name.
_SCALARS = {
    int: ((int, float), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _typed(hint, value, default, where: str):
    """The JSON ``value`` as the field type ``hint``; ``default`` is the
    field's current value, which a nested config section starts from.

    No value is converted with a loss: an integer setting takes an integer
    or a float of integral value, a float setting an integer or a float,
    and neither takes a boolean or a string.
    """
    if is_dataclass(hint):
        return _build(default, value, where)
    if hint is bool:
        if not isinstance(value, bool):
            raise InvalidConfig(f"{where}: expected true or false, got {value!r}")
        return value
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise InvalidConfig(f"{where}: expected a list")
        item = get_args(hint)[0]
        return tuple(_typed(item, v, None, f"{where} item {i}") for i, v in enumerate(value))
    types, kind = _SCALARS[hint]
    lossy = hint is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or not isinstance(value, types) or lossy:
        raise InvalidConfig(f"{where} must be {kind}, got {value!r}")
    try:
        return hint(value)
    except OverflowError as exc:
        raise InvalidConfig(f"{where} must be {kind}, got {value!r}") from exc


def _build(default, section, where: str):
    """``default`` with the keys of the JSON object ``section`` replaced.

    Every key must name a field; the dataclass checks the result.
    """
    if not isinstance(section, dict):
        raise InvalidConfig(f"{where}: expected an object")
    hints = get_type_hints(type(default))
    names = {f.name for f in fields(default)}
    values = {}
    for key, value in section.items():
        if key not in names:
            raise InvalidConfig(f"{where}.{key}: unknown key")
        values[key] = _typed(hints[key], value, getattr(default, key), f"{where}.{key}")
    try:
        return replace(default, **values)
    except InvalidConfig as exc:
        # Each check's message opens with its field, so this names the key.
        raise InvalidConfig(f"{where}.{exc}") from exc


def parse_config(doc: dict, where: str = "config") -> ExperimentConfig:
    """The experiment a config document describes; omitted keys keep the
    dataclass defaults."""
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{where}: expected an object")
    version = _typed(int, doc.get("version", CONFIG_VERSION), None, f"{where}.version")
    if version != CONFIG_VERSION:
        raise InvalidConfig(f"{where}.version: unsupported version {version!r}")
    return _build(ExperimentConfig(), {k: v for k, v in doc.items() if k != "version"}, where)


def load_config(path: str | Path) -> tuple[ExperimentConfig, dict]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the decoder's limit.
        raise InvalidConfig(f"{path}: {exc}") from exc
    return parse_config(doc, where=str(path)), doc


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# per-seed pipeline pieces


def _seed_dir(out: Path, seed: int) -> Path:
    return out / f"seed_{seed}"


def build_world_data(cfg: ExperimentConfig, seed: int) -> tuple[World, Dataset]:
    """The world and dataset of one seed, in memory."""
    world = generate_world(cfg.world, derive_seed(seed, "world"))
    return world, build_datasets(world, cfg.dataset, derive_seed(seed, "dataset"))


def evaluate_seed(
    cfg: ExperimentConfig, world: World, data: Dataset, reference: TemplateClassifier, models: dict
) -> dict:
    """One seed's labelled ``models`` evaluated, in their order, as
    ``{label: (by_budget, top1, top10)}``: the planning metrics of
    ``data.targets`` at each ``eval.budgets`` entry, under ``eval.estimator``
    and ``eval.k_expand``, and top-1 and top-10 on ``reactions_test``. Every
    evaluation, of ``run-all``, the acceptance gates and the scripts, goes
    through here."""
    estimator = ESTIMATORS[cfg.eval.estimator](world, reference)
    penalties = penalty_constants(data, reference, world)
    return {
        label: (
            evaluate_over_budgets(
                model, estimator, data.targets, list(cfg.eval.budgets), reference, penalties,
                world, k_expand=cfg.eval.k_expand,
            ),
            *topk_exact_match(model, data.reactions_test, (1, 10), world),
        )
        for label, model in models.items()
    }


def ensure_world_data(
    cfg: ExperimentConfig, seed: int, seed_dir: Path
) -> tuple[World, Dataset]:
    """The world and dataset of one seed, built from the config.

    Each of their files is written if absent. One that exists must hold
    the bytes the config makes, or CorruptFile names it; every existing
    file is checked before any is written, so a mismatch writes nothing.
    """
    world, data = build_world_data(cfg, seed)
    texts = {seed_dir / "world.json": partial(save_world, world)}
    for name in DATASET_FILES:
        texts[seed_dir / "dataset" / f"{name}.jsonl"] = partial(save_dataset, data, name)
    missing = [path for path in texts if not path.exists()]
    for path in texts:
        if path in missing:
            continue
        try:
            held = path.read_bytes()
        except OSError as exc:
            raise CorruptFile(f"cannot read {path}: {exc}") from exc
        if held != texts[path]().encode():
            raise CorruptFile(f"{path} is not the file this config makes for seed {seed}")
    for path in missing:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(texts[path]())
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
    backward, reference, forward = pretrain_models(world, data, cfg.pretrain, cfg.dim, seed)
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
        try:
            check_world(model, world)
        except UnknownTemplate as exc:
            raise CheckpointError(
                f"checkpoint {path} was not trained on this world's templates"
            ) from exc
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
    final_path = _checkpoint_paths(seed_dir)["final"]
    # A new loop replaces every iteration file and the final model of an
    # earlier one, so an interrupted loop leaves no earlier final model.
    final_path.unlink(missing_ok=True)
    for stale in [*ck_dir.glob("backward_iter_*.json"), *reports_dir.glob("iteration_*.json")]:
        stale.unlink()

    def persist(model, report):
        save_checkpoint(model, ck_dir / f"backward_iter_{report.iteration}.json")
        (reports_dir / f"iteration_{report.iteration}.json").write_text(
            json.dumps(asdict(report), sort_keys=True) + "\n"
        )

    final, reports = run_self_improvement(
        cfg.loop, world, data, pretrained, seed, on_iteration=persist
    )
    # The final model is the last iteration's, whose file is already written.
    last = ck_dir / f"backward_iter_{reports[-1].iteration}.json"
    shutil.copyfile(last, final_path)
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
    metrics_dir = seed_dir / "metrics"
    metrics_dir.mkdir(parents=True, exist_ok=True)
    # A new evaluation replaces every metrics file of an earlier one.
    for pattern in ("targets_budget*_iter*.csv", "summary.csv", "gains.csv"):
        for stale in metrics_dir.glob(pattern):
            stale.unlink()
    summary_rows: list[dict] = []
    per_budget: dict[int, dict[int, object]] = {}
    models = dict(sorted(models_by_iteration.items()))
    for iteration, (by_budget, top1, top10) in evaluate_seed(
        cfg, world, data, reference, models
    ).items():
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
            [row["seed"], cfg.eval.estimator, row["iteration"], row["budget"]]
            + [_fmt(row[c]) for c in SUMMARY_COLUMNS[4:]]
            for row in summary_rows
        ),
    )

    # Relative gains of the last iteration over iteration 0, per budget.
    iterations = sorted(models_by_iteration)
    if len(iterations) >= 2:
        gains = []
        for budget in cfg.eval.budgets:
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


def _summary_rows(summary: Path) -> dict[tuple[str, int, int], list[float]]:
    """The metric values of each row of one ``summary.csv`` by its
    (estimator, iteration, budget) key. A file that cannot be read as UTF-8
    text in the layout ``evaluate`` writes, with at least one row, integer
    iterations and budgets, numeric metrics and no key twice, raises
    CorruptFile naming it."""
    metrics = SUMMARY_COLUMNS[4:]
    try:
        with summary.open(encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(SUMMARY_COLUMNS):
                columns = ",".join(SUMMARY_COLUMNS)
                raise CorruptFile(f"{summary} does not have the columns {columns}")
            rows = {}
            for rec in reader:
                if None in rec:  # DictReader's key for fields past the header's
                    raise CorruptFile(f"{summary} line {reader.line_num} has extra fields")
                key = (rec["estimator"], int(rec["iteration"]), int(rec["budget"]))
                if key in rows:
                    raise CorruptFile(
                        f"{summary} line {reader.line_num} repeats estimator {key[0]}, "
                        f"iteration {key[1]}, budget {key[2]}"
                    )
                rows[key] = [float(rec[m]) for m in metrics]
            if not rows:
                raise CorruptFile(f"{summary} holds no rows")
            return rows
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CorruptFile(f"cannot read {summary}: {exc}") from exc
    except (TypeError, ValueError) as exc:  # int(None), float("x"), ...
        raise CorruptFile(
            f"{summary} line {reader.line_num} has a missing or non-numeric field: {exc}"
        ) from exc


def aggregate_report(out: Path, seeds: Iterable[int | str]) -> list[dict]:
    """Merge the summaries of ``seeds`` under ``out`` into mean/stdev rows,
    one per estimator, iteration and budget, so rows of different estimators
    never share a mean, and write them to ``aggregated.csv``. Every summary
    is read before anything is written. Returns the rows by column,
    statistics as floats. A metric that is nan on some seed has a nan mean
    and std; one infinite on some seed has its mean and a nan std."""
    grouped: dict[tuple[str, int, int], list[list[float]]] = {}
    for summary in sorted(_seed_dir(out, seed) / "metrics" / "summary.csv" for seed in seeds):
        for key, values in _summary_rows(summary).items():
            grouped.setdefault(key, []).append(values)

    metrics = SUMMARY_COLUMNS[4:]
    header = ["estimator", "iteration", "budget", "n_seeds"]
    table = []
    for m in metrics:
        header += [f"{m}_mean", f"{m}_std"]
    for (estimator, iteration, budget), recs in sorted(grouped.items()):
        row = [estimator, iteration, budget, len(recs)]
        for values in zip(*recs):
            if all(map(math.isfinite, values)):
                row += [statistics.fmean(values), statistics.pstdev(values)]
            else:  # float addition: nan with a nan on some seed, else infinite
                row += [sum(values) / len(values), math.nan]
        table.append(row)
    _write_csv(out / "aggregated.csv", header, ([*row[:4], *map(_fmt, row[4:])] for row in table))
    return [dict(zip(header, row)) for row in table]


def print_report(rows: list[dict]) -> None:
    for rec in rows:
        print(
            f"estimator={rec['estimator']} iteration={rec['iteration']} "
            f"budget={rec['budget']} n={rec['n_seeds']} "
            f"success={rec['success_rate_mean']:.4f}±{rec['success_rate_std']:.4f} "
            f"length={rec['avg_length_mean']:.3f}±{rec['avg_length_std']:.3f} "
            f"time={rec['avg_time_mean']:.2f}±{rec['avg_time_std']:.2f} "
            f"cost={rec['avg_cost_mean']:.3f}±{rec['avg_cost_std']:.3f}"
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
    """Every ``--seed`` given, in order, or else the config's seeds; the
    given seeds must pass the config's own ``seeds`` rule."""
    if args.seed is None:
        return cfg.seeds
    try:
        return replace(cfg, seeds=tuple(args.seed)).seeds
    except InvalidConfig as exc:
        raise InvalidConfig(f"--seed: {exc}") from exc


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
                raise MissingCheckpoint(f"missing checkpoint {path}")
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


def _checkpoint_iteration(path: str | None, final: int) -> int:
    """The loop iteration of a backward checkpoint, read off the names
    ``run-all`` writes: ``backward.json`` is 0, ``backward_iter_<i>.json`` is
    i, and any other file, ``backward_final.json`` included, is ``final``."""
    name = Path(path).name if path else ""
    if name == "backward.json":
        return 0
    match = re.fullmatch(r"backward_iter_(\d+)\.json", name)
    return int(match.group(1)) if match else final


def cmd_evaluate(args) -> int:
    cfg, _doc = load_config(args.config)
    try:
        eval_cfg = replace(
            cfg.eval,
            budgets=tuple(sorted(args.budget or cfg.eval.budgets)),
            estimator=args.estimator or cfg.eval.estimator,
        )
    except InvalidConfig as exc:
        raise InvalidConfig(f"--budget: {exc}") from exc
    seeds = _seeds_for(args, cfg)
    if args.checkpoint and len(seeds) > 1:
        raise InvalidConfig(
            "--checkpoint: a checkpoint is one seed's model; give one --seed "
            f"(seeds {', '.join(map(str, seeds))})"
        )
    # Each checkpoint by its iteration; None is the default backward_final.json.
    checkpoints: dict[int, str | None] = {}
    for path in args.checkpoint or [None]:
        iteration = _checkpoint_iteration(path, cfg.loop.iterations)
        if iteration in checkpoints:
            raise InvalidConfig(
                f"--checkpoint: {checkpoints[iteration]} and {path} are both iteration {iteration}"
            )
        checkpoints[iteration] = path

    def needs(paths):
        chosen = (paths["backward"], *(path or paths["final"] for path in checkpoints.values()))
        return [(path, ROLE_BACKWARD) for path in chosen]

    for cfg, seed, seed_dir, world, data, (reference, *models) in _seed_worlds(
        args, needs, replace(cfg, eval=eval_cfg)
    ):
        # The run-level aggregate no longer matches; ``report`` rebuilds it.
        (Path(args.out) / "aggregated.csv").unlink(missing_ok=True)
        rows = run_evaluate(
            cfg, seed, seed_dir, world, data, reference, dict(zip(checkpoints, models))
        )
        for row in rows:
            print(
                f"evaluate seed={seed} iteration={row['iteration']} budget={row['budget']} "
                f"success={row['success_rate']:.4f} length={row['avg_length']:.3f} "
                f"time={row['avg_time']:.2f} cost={row['avg_cost']:.3f}"
            )
    return 0


def cmd_plan(args) -> int:
    if not args.target:
        raise InvalidConfig("--target: must be a non-empty molecule")
    try:
        target = parse_molecule(args.target)
    except RecursionError as exc:
        raise InvalidConfig(f"--target: nested too deeply to parse: {exc}") from exc
    if args.budget < 0:
        raise InvalidConfig(f"--budget: must be non-negative, got {args.budget}")
    if args.seed is not None and len(args.seed) > 1:
        raise InvalidConfig(f"--seed: plan plans one seed, got {len(args.seed)}")
    if args.trace and not Path(args.trace).parent.is_dir():
        raise InvalidConfig(f"--trace: no directory {Path(args.trace).parent}")

    def needs(paths):
        chosen = (paths["backward"], args.checkpoint or paths["final"])
        return [(path, ROLE_BACKWARD) for path in chosen]

    # The given seed, or the config's first.
    cfg, _seed, _seed_dir, world, _data, (reference, model) = next(_seed_worlds(args, needs))
    estimator = ESTIMATORS[args.estimator or cfg.eval.estimator](world, reference)
    result = plan(
        target, model, estimator, args.budget, cfg.eval.k_expand, world,
        trace=bool(args.trace),
    )
    if args.trace:
        try:
            with Path(args.trace).open("w") as fh:
                for rec in result.trace or ():
                    fh.write(json.dumps(rec._asdict(), sort_keys=True) + "\n")
        except OSError as exc:
            raise InvalidConfig(f"--trace: {exc}") from exc
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
    manifest = out / "manifest.json"
    if not manifest.exists():
        raise MissingManifest(f"no manifest.json in {out}")
    try:
        doc = json.loads(manifest.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise CorruptFile(f"cannot read {manifest}: {exc}") from exc
    seeds = doc.get("seeds") if isinstance(doc, dict) else None
    if not isinstance(seeds, dict) or not seeds:
        raise CorruptFile(f"{manifest} has no seeds object that lists a seed")
    print_report(aggregate_report(out, seeds))
    return 0


def cmd_run_all(args) -> int:
    if args.workers < 1:
        raise InvalidConfig(f"--workers: must be at least 1, got {args.workers}")
    cfg, doc = load_config(args.config)
    seeds = _seeds_for(args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    # A forked pool starts all its workers at once: one per seed at most.
    workers = min(args.workers, len(seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_seed, [cfg] * len(seeds), seeds, [out] * len(seeds)))
    else:
        results = [run_seed(cfg, seed, out) for seed in seeds]
    # Written last: a run that stops early leaves an earlier config.json as it was.
    (out / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    rows = aggregate_report(out, seeds)
    write_manifest(out, doc, dict(zip(seeds, results)), started)
    print_report(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="retroloop")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, action="append", default=None)

    p = sub.add_parser("gen-world", help="generate world and dataset files")
    common(p)
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("pretrain", help="supervised pretraining of the backward and forward models")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("self-improve", help="run the self-improvement loop")
    common(p)
    p.set_defaults(func=cmd_self_improve)

    p = sub.add_parser("evaluate", help="planning metrics for each checkpoint")
    common(p)
    p.add_argument("--checkpoint", action="append", default=None)
    p.add_argument("--budget", type=int, action="append", default=None)
    p.add_argument("--estimator", choices=tuple(ESTIMATORS), default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plan", help="plan a single target and print the route")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--estimator", choices=tuple(ESTIMATORS), default=None)
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


def _check_out(out: Path) -> None:
    """``--out`` must be a directory, or a path that mkdir can make one."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise InvalidConfig(f"--out: {path} is not a directory")
            return


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "out"):
            _check_out(Path(args.out))
        return args.func(args)
    except tuple(error for error, _code in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
