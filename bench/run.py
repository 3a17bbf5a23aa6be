"""retroloop benchmark: three closed-loop workloads, one client, no concurrency.

Run from the repository root:

    python3 bench/run.py --workload ref_seed --seed 1 --seconds 40 --trace 0

Workloads (the seed is the benchmark's; the program only sees its inputs):

  ref_seed     one seed of configs/reference.json through the four stage
               functions that ``cli.run_seed`` calls, into an empty directory
  deep_plan    retro0 planning at budget 3000 of 40 height-10 targets of the
               seed's world, with the seed's pretrained backward model
  oracle_plan  the reference targets planned with ``OracleEstimator`` at
               budget 50; each solved route must cost the oracle optimum

Every repetition runs in a fresh interpreter (``child.py``) with a fresh
output directory, so no cache (the process-wide ``parse_ast`` cache, a
reloaded ``world.json``) carries over. Repetitions start until the next one
would end after ``--seconds``; at least two run. Each metric is the median
over the repetitions; a target's latency is its median over them.

Times are in reference seconds (``speed.py``): wall seconds scaled by the
host's speed, sampled every 50 ms during the repetition with a fixed kernel
that does not depend on the program. On a shared host the same code runs up
to 2x slower from one few-second stretch to the next; scaled, that swing
mostly drops out, and a change to the program still shows in full. The
wall seconds of seed_s and plan_s, and the kernel's median time, are
printed beside them. Per-layer times are reference seconds too.

End-to-end metrics, printed with ``--trace 0`` (every one on every workload):

  setup_s        interpreter start to the first timed call: imports and the
                 config; on deep_plan and oracle_plan also world, dataset,
                 pretraining and targets
  seed_s         seconds of the seed's pipeline after the config: the
                 four stages on ref_seed; world, pretraining, targets and
                 planning on the other two
  pretrain_s     seconds of ``cli.run_pretrain`` (set-up on the others)
  plan_s         seconds inside ``plan`` calls: the target list on the
                 planning workloads, the loop and evaluation plans on ref_seed
  ms_per_call    plan_s over the backward-model calls those plans made
  target_ms_tail latency of one ``plan`` call at the highest percentile with
                 at least ten plans beyond it; the percentile, the count and
                 the median latency are printed beside it. The median is
                 printed, not gated: it follows how many model calls the
                 middle target of a seed needs, and its interquartile range
                 over ten seeds was 0.23-0.25 of its value on ref_seed and
                 oracle_plan, against the largest bound allowed, 0.25.
  success_rate   plans solved within budget over plans attempted; on
                 ref_seed the final model at budget 50
  peak_rss_mb    peak resident memory of the repetition's process

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of ``layers.py`` (medians of the traced repetitions), with
the tracing overhead on seed_s and plan_s. It fails, naming the module
bindings, when a metric is zero on a workload that ``layers.py`` says must
exercise it. Spans of the last traced repetition and a JSON report of every
run go to ``.bench_out/``.

The run exits 2 without a result when the checkout lacks the program or the
reference config, and 1 when a repetition dies without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, RATIO_BASES

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ref_seed", "deep_plan", "oracle_plan")
END_TO_END = {
    "setup_s": "s",
    "seed_s": "s",
    "pretrain_s": "s",
    "plan_s": "s",
    "ms_per_call": "ms",
    "target_ms_tail": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
# numpy's BLAS threads, pinned in every repetition. Unpinned, pretraining
# time follows whatever thread count the machine offers; on 2 CPUs, 2
# threads pretrained in 2.2-2.5 s and 1 in 2.6-3.0 s. One thread keeps all
# of a repetition's work on the thread the speedometer samples: with 2,
# the second thread ran on a CPU whose speed was not sampled, and
# pretrain_s spread 0.13 of its median over ten ref_seed seeds.
BLAS_THREADS = 1
MIN_REPS = 2
CHILD_TIMEOUT_S = 170
OUT = Path(".bench_out")


def fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def check_spec() -> str | None:
    """The BENCHMARK.json metric lists must match this file and layers.py."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != END_TO_END:
        return "BENCHMARK.json end_to_end differs from run.py"
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if layers != {k: v[:2] for k, v in PER_LAYER.items()}:
        return "BENCHMARK.json per_layer differs from layers.py"
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        return "BENCHMARK.json workloads differ from run.py"
    return None


def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")) + [Path("configs/reference.json")]:
        source.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_repetition(workload: str, seed: int, traced: bool, out: Path, env: dict) -> dict:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed),
         "1" if traced else "0", str(out), repr(spawned_at)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(
            f"repetition exited {proc.returncode} without a result:\n{proc.stderr[-2000:]}")
    rep = json.loads(result_path.read_text())
    rep["traced"] = traced
    if traced:
        shutil.copyfile(out / "spans.jsonl", OUT / f"spans_{workload}_seed{seed}.jsonl")
    shutil.rmtree(out)
    return rep


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    def med(key):
        return statistics.median(r[key] for r in reps)

    # Every repetition plans the same targets in the same order: a target's
    # latency is its median over the repetitions, which keeps a burst of
    # machine noise in one repetition out of the percentiles.
    latencies = sorted(statistics.median(ms) for ms in zip(*(r["target_ms"] for r in reps)))
    samples = len(latencies)
    p = tail_percentile(samples) or 100.0
    values = {
        "setup_s": med("setup_s"),
        "seed_s": med("seed_s"),
        "pretrain_s": med("pretrain_s"),
        "plan_s": med("plan_s"),
        "ms_per_call": statistics.median(
            1000.0 * r["plan_s"] / r["calls"] if r["calls"] else 0.0 for r in reps),
        "target_ms_tail": percentile(latencies, p) if latencies else 0.0,
        "success_rate": med("success_rate"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    extra = {"target_ms_tail": {
        "percentile": p, "samples": samples,
        "p50": statistics.median(latencies) if latencies else 0.0}}
    return values, extra


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    values = {}
    for name in PER_LAYER:
        if name.startswith("trace.overhead."):
            key = name.rsplit(".", 1)[1]
            values[name] = (statistics.median(r[key] for r in traced)
                            - statistics.median(r[key] for r in untraced))
        else:
            values[name] = statistics.median(r["layers"][name] for r in traced)
    bindings = traced[0]["bindings"]
    missing = []
    for name, (_unit, _better, source, _moves, workloads) in PER_LAYER.items():
        if workload not in workloads:
            continue
        base = RATIO_BASES.get(name)
        measured = statistics.median(r["layers"][base] for r in traced) if base else values[name]
        if not measured:
            where = ", ".join(bindings.get(source) or [source])
            missing.append(f"{name} is zero on {workload}: wrapper never fired at {where}")
    return values, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/retroloop/__init__.py", "configs/reference.json", "BENCHMARK.json"):
        if not Path(needed).is_file():
            return fail(f"{needed} not found; run from the root of a retroloop checkout", 2)
    problem = check_spec()
    if problem:
        return fail(problem, 2)

    OUT.mkdir(exist_ok=True)
    env = child_env()
    work_dir = OUT / f"run_{args.workload}_{os.getpid()}"
    reps: list[dict] = []
    started = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_repetition(args.workload, args.seed, traced, work_dir, env))
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc), 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    errors = sorted({e for r in reps for e in r["errors"]})
    if len({r["digest"] for r in reps}) != 1:
        errors.append("outputs differ between repetitions of the same inputs")
    values, extra = end_to_end(untraced)
    prov = provenance() | {k: reps[0][k] for k in ("python", "numpy", "config_hash")}

    print(f"workload={args.workload} seed={args.seed} repetitions={len(untraced)} "
          f"traced={len(traced)} seconds={time.perf_counter() - started:.1f}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("stages " + " ".join(
        f"{k}={statistics.median(r['stages'][k] for r in untraced):.4f}s"
        for k in reps[0]["stages"]))
    print("wall " + " ".join(
        f"{k}={statistics.median(r['wall'][k] for r in untraced):.4f}s"
        for k in reps[0]["wall"])
        + f" kernel_ms_p50={statistics.median(r['kernel_ms_p50'] for r in untraced):.4f}")
    for name, unit in END_TO_END.items():
        note = ""
        if name in extra:
            note = (f"  (p{extra[name]['percentile']:g} of {extra[name]['samples']} plans;"
                    f" p50 {extra[name]['p50']:.4f} ms)")
        print(f"  {name:<15} {values[name]:>12.4f} {unit}{note}")
    for e in errors:
        print(f"  check failed: {e}")

    if args.trace:
        metrics, missing = per_layer(args.workload, untraced, traced)
        for name, (unit, _b, _s, moves, workloads) in PER_LAYER.items():
            print(f"  {name:<42} {metrics[name]:>14.6g} {unit:<6} "
                  f"moves {','.join(moves) or '-'} on {','.join(workloads) or '-'}")
        if missing:
            for m in missing:
                print(f"error: {m}", file=sys.stderr)
            return 1
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics, units = values, END_TO_END

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": prov, "metrics": metrics, "extra": extra,
        "errors": errors, "repetitions": reps,
    }
    (OUT / f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
