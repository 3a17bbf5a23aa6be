import argparse
import concurrent.futures
import csv
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import pytest

import retroloop
import retroloop.cli as cli
from retroloop.cli import ExperimentConfig, build_world_data, load_config, main, parse_config
from retroloop.evaluate import ESTIMATORS, OracleEstimator
from retroloop.improve import IterationReport, pretrain_models, run_self_improvement
from retroloop.model import load_checkpoint, save_checkpoint

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
REFERENCE_CONFIG = SCRIPTS.parent / "configs" / "reference.json"

TINY = {
    "version": 1,
    "seeds": [1, 2],
    "dim": 512,
    "world": {
        "n_atoms": 4,
        "n_operators": 2,
        "n_decoys": 2,
        "bb_composites": 3,
        "bb_depth": 1,
    },
    "dataset": {"n_targets": 30, "max_depth": 3, "split": [0.8, 0.1, 0.1], "leaf_prob": 0.3},
    "pretrain": {
        "backward": {"learning_rate": 0.2, "epochs": 6, "batch_size": 64},
        "forward": {"learning_rate": 0.2, "epochs": 6, "batch_size": 64},
    },
    "loop": {
        "iterations": 2,
        "targets_per_iteration": 10,
        "budget": 25,
        "epsilon": 0.5,
        "epsilon_aug": 0.5,
        "k_expand": 8,
        "bc": {"learning_rate": 0.1, "epochs": 3, "batch_size": 64},
    },
    "eval": {"budgets": [10, 25], "estimator": "retro0", "k_expand": 8},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# Files that are no JSON document: bytes that are not UTF-8, and nesting
# deeper than the decoder's recursion limit.
UNREADABLE_JSON = [b"\xff\xfe\x00bad", b"[" * 100_000]

# A well-formed term nested deeper than the parser's recursion reaches.
DEEP_TARGET = "a"
for _ in range(600):
    DEEP_TARGET = f"({DEEP_TARGET}+b)"


def first_target(out: Path, seed: int = 1) -> str:
    """The first dataset target of a run's seed."""
    with (out / f"seed_{seed}" / "dataset" / "targets.jsonl").open() as fh:
        return json.loads(fh.readline())["target"]


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestGenWorld:
    def test_creates_files(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["gen-world", "--config", config_path, "--out", str(out)]) == 0
        for seed in (1, 2):
            assert (out / f"seed_{seed}" / "world.json").exists()
            assert (out / f"seed_{seed}" / "dataset" / "targets.jsonl").exists()
            assert (out / f"seed_{seed}" / "dataset" / "routes.jsonl").exists()

    def test_deterministic_across_directories(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-world", "--config", config_path, "--out", str(a)])
        main(["gen-world", "--config", config_path, "--out", str(b)])
        assert tree_bytes(a) == tree_bytes(b)

    def test_rerun_leaves_every_file_unchanged(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["gen-world", "--config", config_path, "--out", str(out)])
        before = tree_bytes(out)
        assert main(["gen-world", "--config", config_path, "--out", str(out)]) == 0
        assert tree_bytes(out) == before

    def test_missing_dataset_files_are_written(self, config_path, tmp_path):
        """A seed directory holding only world.json gets the dataset files a
        fresh gen-world writes."""
        fresh, out = tmp_path / "fresh", tmp_path / "run"
        main(["gen-world", "--config", config_path, "--out", str(fresh), "--seed", "1"])
        (out / "seed_1").mkdir(parents=True)
        shutil.copyfile(fresh / "seed_1" / "world.json", out / "seed_1" / "world.json")
        assert main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        assert tree_bytes(fresh).items() <= tree_bytes(out).items()

    def test_zero_atoms_exits_2(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["world"]["n_atoms"] = 0
        path = write_config(tmp_path, doc)
        assert main(["gen-world", "--config", path, "--out", str(tmp_path / "x")]) == 2

    def test_too_few_distinct_targets_exits_2_before_any_write(self, tmp_path, capsys):
        # Two atoms and one operator make 36 distinct terms of height 1 or 2.
        doc = json.loads(json.dumps(TINY))
        doc["world"] = {"n_atoms": 2, "n_operators": 1, "n_decoys": 1,
                        "bb_composites": 0, "bb_depth": 0}
        doc["dataset"].update(n_targets=500, max_depth=2)
        path = write_config(tmp_path, doc)
        out = tmp_path / "x"
        assert main(["run-all", "--config", path, "--out", str(out), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: dataset.n_targets: 500 targets asked for, but 50000 draws found only 36 "
            "distinct ones in this world\n"
        )
        assert not (out / "seed_1").exists()

    def test_unparseable_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["gen-world", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("content", UNREADABLE_JSON, ids=["undecodable", "too-deep"])
    def test_unreadable_config_exits_2_before_any_write(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        out = tmp_path / "x"
        assert main(["run-all", "--config", str(path), "--out", str(out), "--seed", "1"]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()


class TestConfig:
    def test_defaults_live_on_the_dataclasses(self):
        assert parse_config({}) == ExperimentConfig()

    @pytest.mark.parametrize("source", ["defaults", "reference"])
    def test_the_config_tree_is_the_file_schema(self, source):
        # Every field of the tree is a key a file can set, with its value.
        cfg = ExperimentConfig() if source == "defaults" else load_config(REFERENCE_CONFIG)[0]
        assert parse_config(json.loads(json.dumps(asdict(cfg)))) == cfg

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epsilom", 0.5),
            ("augmentation", "false"),
            ("mix_train_reactions", False),
            ("dedupe_collections", False),
            ("warm_start", True),
        ],
        ids=["typo", "string-boolean", "removed-knob", "removed-dedupe", "removed-warm-start"],
    )
    def test_bad_loop_key_exits_2(self, tmp_path, capsys, key, value):
        doc = json.loads(json.dumps(TINY))
        doc["loop"][key] = value
        path = write_config(tmp_path, doc)
        assert main(["gen-world", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert f"config.json.loop.{key}:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "section",
        [("pretrain", "backward"), ("pretrain", "forward"), ("loop", "bc"), ("loop",)],
        ids=lambda section: ".".join(section),
    )
    def test_seed_key_exits_2(self, tmp_path, capsys, section):
        # Every seed derives from the experiment seed; a config cannot set one.
        doc = json.loads(json.dumps(TINY))
        target = doc
        for key in section:
            target = target[key]
        target["seed"] = 12345
        path = write_config(tmp_path, doc)
        assert main(["gen-world", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert f"config.json.{'.'.join(section)}.seed:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section", ["loop", "eval"])
    def test_zero_k_expand_exits_2_before_any_write(self, tmp_path, capsys, section):
        # Caught with the config, not in the first plan after pretraining.
        doc = json.loads(json.dumps(TINY))
        doc[section]["k_expand"] = 0
        path = write_config(tmp_path, doc)
        out = tmp_path / "x"
        out.mkdir()
        assert main(["run-all", "--config", path, "--out", str(out), "--seed", "1"]) == 2
        assert f"config.json.{section}.k_expand must be at least 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "path, value",
        [
            (("dim",), 0),
            (("dim",), -4),
            (("dim",), 10**15),
            (("dataset", "n_targets"), 0),
            (("dataset", "max_depth"), -1),
            (("dataset", "split"), [0.9, 0.1]),
            (("dataset", "split"), [0.8, 0.1, 0.2]),
            (("dataset", "leaf_prob"), 1.0),
            (("dataset", "split"), [float("nan")] * 3),
            (("pretrain", "backward", "learning_rate"), float("nan")),
            (("loop", "bc", "learning_rate"), float("inf")),
            (("pretrain", "backward", "epochs"), 3.7),
            (("pretrain", "backward", "epochs"), True),
            (("pretrain", "backward", "epochs"), "4"),
            (("seeds",), [1.5]),
            (("seeds",), [1, 1]),
            (("eval", "budgets"), [10.9, 25]),
            (("pretrain", "backward", "learning_rate"), True),
            (("loop", "epsilon"), "0.5"),
            (("version",), True),
        ],
        ids=["dim-zero", "dim-negative", "dim-huge", "n_targets", "max_depth", "split-short",
             "split-sum", "leaf_prob", "split-nan", "pretrain-learning_rate-nan", "bc-learning_rate-inf",
             "epochs-float", "epochs-bool", "epochs-string", "seeds-float", "seeds-duplicate",
             "budgets-float", "learning_rate-bool", "epsilon-string", "version-bool"],
    )
    def test_bad_value_exits_2_before_any_write(self, tmp_path, capsys, path, value):
        # Checked with the config, not once the world or the models are built.
        doc = json.loads(json.dumps(TINY))
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        config = write_config(tmp_path, doc)
        out = tmp_path / "x"
        assert main(["run-all", "--config", config, "--out", str(out), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert f"config.json.{'.'.join(path)} " in err and err.count("\n") == 1
        assert not out.exists()

    def test_max_depth_past_the_bound_exits_2_before_any_write(self, tmp_path, capsys):
        # At leaf_prob 0 every path of a target is as deep as the target, so
        # generating one past the interpreter's recursion limit would fail.
        doc = json.loads(json.dumps(TINY))
        doc["dataset"].update(max_depth=2000, leaf_prob=0)
        path = write_config(tmp_path, doc)
        out = tmp_path / "x"
        assert main(["gen-world", "--config", path, "--out", str(out), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "config.json.dataset.max_depth must lie in [0, " in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, expected",
        [
            (("pretrain", "backward", "epochs"), 3.0, 3),
            (("pretrain", "backward", "learning_rate"), 1, 1.0),
            (("dataset", "leaf_prob"), 0, 0.0),
            (("eval", "budgets"), [10, 25.0], (10, 25)),
        ],
        ids=["integral-float-epochs", "integer-learning_rate", "integer-leaf_prob",
             "integral-budget"],
    )
    def test_numbers_keep_their_value(self, path, value, expected):
        # An integral float is a valid integer setting, and a JSON integer a
        # valid float setting: each keeps its value and takes the field's type.
        doc = json.loads(json.dumps(TINY))
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        got = parse_config(doc)
        for key in path:
            got = getattr(got, key)
        assert got == expected
        items = got if isinstance(got, tuple) else (got,)
        wanted = expected if isinstance(expected, tuple) else (expected,)
        assert [type(v) for v in items] == [type(v) for v in wanted]


class TestDamagedFiles:
    def gen_world(self, config_path, out):
        assert main(["gen-world", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        return out / "seed_1"

    def assert_exits_5(self, config_path, out, path, capsys, command="pretrain"):
        capsys.readouterr()
        assert main([command, "--config", config_path, "--out", str(out), "--seed", "1"]) == 5
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, shown", [("world.json", "world.json"), ("dataset/targets.jsonl", "dataset")]
    )
    def test_truncated_file_exits_5(self, config_path, tmp_path, capsys, name, shown):
        out = tmp_path / "run"
        seed_dir = self.gen_world(config_path, out)
        text = (seed_dir / name).read_text()
        (seed_dir / name).write_text(text[: len(text) // 2])
        self.assert_exits_5(config_path, out, seed_dir / shown, capsys)

    def test_world_missing_key_exits_5(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        path = self.gen_world(config_path, out) / "world.json"
        doc = json.loads(path.read_text())
        del doc["atoms"]
        path.write_text(json.dumps(doc))
        self.assert_exits_5(config_path, out, path, capsys)

    def test_dataset_missing_key_exits_5(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        path = self.gen_world(config_path, out) / "dataset"
        lines = (path / "routes.jsonl").read_text().splitlines()
        (path / "routes.jsonl").write_text("\n".join(["{}"] + lines[1:]) + "\n")
        self.assert_exits_5(config_path, out, path, capsys)

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("reactions_train", "template", "nope"),
            ("reactions_test", "reactants", ["a", "zz"]),
            ("targets", "target", "zz"),
        ],
        ids=["unknown-template", "no-route-takes-it", "target-without-route"],
    )
    def test_dataset_not_of_the_world_exits_5(
        self, config_path, tmp_path, capsys, name, field, value
    ):
        """A record that parses but names an unknown template, a reaction no
        route takes or a target without a route is caught on reading."""
        out = tmp_path / "run"
        path = self.gen_world(config_path, out) / "dataset"
        lines = (path / f"{name}.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record[field] = value
        (path / f"{name}.jsonl").write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        self.assert_exits_5(config_path, out, path, capsys)

    def test_unknown_template_kind_exits_5(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        path = self.gen_world(config_path, out) / "world.json"
        doc = json.loads(path.read_text())
        doc["templates"][0]["kind"] = "bogus"
        path.write_text(json.dumps(doc))
        self.assert_exits_5(config_path, out, path, capsys, command="run-all")

    def test_world_of_another_config_exits_5(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        seed_dir = self.gen_world(config_path, out)
        doc = json.loads(json.dumps(TINY))
        doc["world"]["n_atoms"] = 5
        other_config = write_config(tmp_path, doc, "other.json")
        self.assert_exits_5(other_config, out, seed_dir / "world.json", capsys)
        assert not (seed_dir / "checkpoints").exists()

    def test_chop_template_without_operator_exits_5(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        path = self.gen_world(config_path, out) / "world.json"
        doc = json.loads(path.read_text())
        next(t for t in doc["templates"] if t["kind"] == "chop")["op"] = None
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        self.assert_exits_5(config_path, out, path, capsys, command="run-all")

    @pytest.mark.parametrize(
        "command, name, kind",
        [
            *(
                ("run-all", name, "file")
                for name in (
                    "seed_1", "seed_1/dataset", "seed_1/checkpoints", "seed_1/reports",
                    "seed_1/metrics",
                )
            ),
            *(("run-all", name, "dir") for name in ("config.json", "aggregated.csv", "manifest.json")),
            ("report", "aggregated.csv", "dir"),
        ],
    )
    def test_path_of_the_wrong_kind_exits_5(self, tmp_path, capsys, command, name, kind):
        doc = json.loads(json.dumps(TINY))
        doc["seeds"] = [1]
        doc["dataset"]["n_targets"] = 20
        config = write_config(tmp_path, doc)
        out = tmp_path / "run"
        path = out / name
        path.parent.mkdir(parents=True)
        if kind == "file":
            path.write_text("")
        else:
            path.mkdir()
        if command == "report":
            (out / "manifest.json").write_text('{"seeds": {"1": {}}}\n')
            (out / "seed_1" / "metrics").mkdir(parents=True)
            row = [1, "retro0", 0, 25, "0.5", "3.0", "10.0", "4.0", "1.0", "1.0"]
            with (out / "seed_1" / "metrics" / "summary.csv").open("w", newline="") as fh:
                csv.writer(fh).writerows([cli.SUMMARY_COLUMNS, row])
            argv = ["report", "--run", str(out)]
        else:
            argv = ["run-all", "--config", config, "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


class TestPretrain:
    def test_backward_equals_reference_checkpoint(self, config_path, tmp_path, capsys):
        # The reference is the pretrained backward model: one file holds both.
        out = tmp_path / "run"
        assert main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        ck = out / "seed_1" / "checkpoints"
        assert sorted(p.name for p in ck.iterdir()) == ["backward.json", "forward.json"]
        assert "top1=" in capsys.readouterr().out

    def test_rerun_is_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        assert tree_bytes(a) == tree_bytes(b)

    def test_checkpoints_do_not_depend_on_blas_threads(self, tmp_path):
        """The reference pretraining writes the same checkpoints with the BLAS
        thread variables unset as with one thread. On a one-CPU host BLAS
        runs one thread either way, so there this test cannot fail."""
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = str(Path(retroloop.__file__).resolve().parent.parent)
        checkpoints = []
        for name, pinned in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            env = {k: v for k, v in os.environ.items() if k not in blas_vars}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "retroloop", "pretrain", "--config",
                 str(REFERENCE_CONFIG), "--out", str(out), "--seed", "1"],
                env=env | pinned, check=True, capture_output=True,
            )
            checkpoints.append(tree_bytes(out / "seed_1" / "checkpoints"))
        assert checkpoints[0] == checkpoints[1]
        assert sorted(checkpoints[0]) == ["backward.json", "forward.json"]

    def test_empty_train_split_exits_3(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["dataset"] = {"n_targets": 3, "max_depth": 0, "split": [0.8, 0.1, 0.1]}
        path = write_config(tmp_path, doc)
        assert main(["pretrain", "--config", path, "--out", str(tmp_path / "x")]) == 3


class TestSelfImprove:
    def test_requires_checkpoints(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["gen-world", "--config", config_path, "--out", str(out), "--seed", "1"])
        assert main(["self-improve", "--config", config_path, "--out", str(out), "--seed", "1"]) == 4

    def test_emits_reports_and_checkpoints(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        assert main(["self-improve", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        seed_dir = out / "seed_1"
        for i in (1, 2):
            assert (seed_dir / "reports" / f"iteration_{i}.json").exists()
            assert (seed_dir / "checkpoints" / f"backward_iter_{i}.json").exists()
        assert (seed_dir / "checkpoints" / "backward_final.json").exists()
        report = json.loads((seed_dir / "reports" / "iteration_1.json").read_text())
        assert report["routes_attempted"] == 10
        # A report file holds the nine counts of IterationReport and nothing else.
        assert set(report) == {f.name for f in fields(IterationReport)} == {
            "iteration", "routes_attempted", "routes_succeeded", "reactions_harvested",
            "kept_after_filter", "augmented_accepted", "duplicates_retained", "top1", "top10",
        }

    def test_rerun_reproduces_iteration_checkpoints(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        main(["self-improve", "--config", config_path, "--out", str(out), "--seed", "1"])
        ck = out / "seed_1" / "checkpoints"
        first = {p.name: p.read_bytes() for p in ck.glob("backward_iter_*.json")}
        assert first
        main(["self-improve", "--config", config_path, "--out", str(out), "--seed", "1"])
        second = {p.name: p.read_bytes() for p in ck.glob("backward_iter_*.json")}
        assert first == second


    @pytest.mark.parametrize("content", UNREADABLE_JSON, ids=["undecodable", "too-deep"])
    def test_unreadable_checkpoint_exits_5(self, config_path, tmp_path, capsys, content):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        bad = out / "seed_1" / "checkpoints" / "forward.json"
        bad.write_bytes(content)
        capsys.readouterr()
        assert main(["self-improve", "--config", config_path, "--out", str(out), "--seed", "1"]) == 5
        assert f"checkpoint {bad}" in capsys.readouterr().err


class TestEvaluate:
    def test_metrics_files_per_budget(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        main(["self-improve", "--config", config_path, "--out", str(out), "--seed", "1"])
        ck = out / "seed_1" / "checkpoints"
        code = main(
            [
                "evaluate",
                "--config",
                config_path,
                "--out",
                str(out),
                "--seed",
                "1",
                "--checkpoint",
                str(ck / "backward_final.json"),
                "--checkpoint",
                str(ck / "backward.json"),
            ]
        )
        assert code == 0
        metrics = out / "seed_1" / "metrics"
        for budget in (10, 25):
            for iteration in (0, 2):
                assert (metrics / f"targets_budget{budget}_iter{iteration}.csv").exists()
        with (metrics / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["iteration"], r["budget"]) for r in rows} == {
            ("0", "10"),
            ("0", "25"),
            ("2", "10"),
            ("2", "25"),
        }
        with (metrics / "gains.csv").open() as fh:
            gains = list(csv.DictReader(fh))
        row = next(r for r in gains if r["metric"] == "success_rate" and r["budget"] == "25")
        base, ours = float(row["base"]), float(row["ours"])
        if base:
            assert float(row["relative_gain"]) == pytest.approx((ours - base) / base)

    @pytest.mark.parametrize(
        "name, iteration",
        [("backward.json", 0), ("backward_iter_1.json", 1), ("backward_final.json", 2)],
    )
    def test_checkpoint_is_labelled_by_its_file_name(
        self, config_path, tmp_path, capsys, name, iteration
    ):
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        capsys.readouterr()
        code = main(
            ["evaluate", "--config", config_path, "--out", str(out), "--seed", "1",
             "--checkpoint", str(out / "seed_1" / "checkpoints" / name)]
        )
        assert code == 0
        metrics = out / "seed_1" / "metrics"
        assert sorted(p.name for p in metrics.iterdir()) == [
            "summary.csv",
            f"targets_budget10_iter{iteration}.csv",
            f"targets_budget25_iter{iteration}.csv",
        ]
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 and all(f" iteration={iteration} " in l for l in printed)

    def test_checkpoint_without_seed_exits_2_on_many_seeds(self, config_path, tmp_path, capsys):
        # A checkpoint is one seed's model. Without --seed it would be
        # evaluated on every seed's world and written as that seed's rows.
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out)]) == 0
        before = tree_bytes(out)
        capsys.readouterr()
        code = main(
            ["evaluate", "--config", config_path, "--out", str(out),
             "--checkpoint", str(out / "seed_1" / "checkpoints" / "backward_iter_1.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --checkpoint: ") and err.count("\n") == 1
        assert tree_bytes(out) == before  # seed_2/metrics/summary.csv included

    def test_without_checkpoint_each_seed_reads_its_own_final_model(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out)]) == 0
        assert main(["evaluate", "--config", config_path, "--out", str(out)]) == 0
        every_seed = tree_bytes(out)
        for seed in (1, 2):
            final = out / f"seed_{seed}" / "checkpoints" / "backward_final.json"
            assert main(
                ["evaluate", "--config", config_path, "--out", str(out), "--seed", str(seed),
                 "--checkpoint", str(final)]
            ) == 0
        assert tree_bytes(out) == every_seed

    def test_checkpoint_without_seed_on_one_seed(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["seeds"] = [2]
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run-all", "--config", path, "--out", str(out)]) == 0
        ck = out / "seed_2" / "checkpoints" / "backward_iter_1.json"
        assert main(["evaluate", "--config", path, "--out", str(out), "--checkpoint", str(ck)]) == 0
        with (out / "seed_2" / "metrics" / "summary.csv").open() as fh:
            assert {row["iteration"] for row in csv.DictReader(fh)} == {"1"}

    def test_two_loop_checkpoints_write_their_rows_and_gains(self, config_path, tmp_path):
        # Each checkpoint is labelled by its file name, not by its place on
        # the command line; gains compare the lower iteration with the higher.
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        ck = out / "seed_1" / "checkpoints"
        code = main(
            ["evaluate", "--config", config_path, "--out", str(out), "--seed", "1",
             "--checkpoint", str(ck / "backward_iter_2.json"),
             "--checkpoint", str(ck / "backward_iter_1.json")]
        )
        assert code == 0
        metrics = out / "seed_1" / "metrics"
        with (metrics / "summary.csv").open() as fh:
            summary = {(r["iteration"], r["budget"]): r for r in csv.DictReader(fh)}
        assert list(summary) == [("1", "10"), ("1", "25"), ("2", "10"), ("2", "25")]
        with (metrics / "gains.csv").open() as fh:
            gains = list(csv.DictReader(fh))
        assert [(g["budget"], g["metric"]) for g in gains] == [
            (budget, metric) for budget in ("10", "25") for metric in cli.PLAN_METRICS
        ]
        for g in gains:
            assert g["base"] == summary["1", g["budget"]][g["metric"]]
            assert g["ours"] == summary["2", g["budget"]][g["metric"]]

    def test_stage_commands_reproduce_run_all(self, config_path, tmp_path, capsys):
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        args = ["--config", config_path, "--out", str(staged), "--seed", "1"]
        for command in ("gen-world", "pretrain", "self-improve"):
            assert main([command, *args]) == 0
        ck = staged / "seed_1" / "checkpoints"
        code = main(
            ["evaluate", *args, "--checkpoint", str(ck / "backward.json"),
             "--checkpoint", str(ck / "backward_final.json")]
        )
        assert code == 0
        assert main(["run-all", "--config", config_path, "--out", str(whole), "--seed", "1"]) == 0
        assert tree_bytes(staged / "seed_1") == tree_bytes(whole / "seed_1")

    def test_baseline_is_an_unknown_argument(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--config", config_path, "--out", str(out), "--baseline", "b.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err
        assert not out.exists()

    def test_replaces_every_earlier_metrics_file(self, config_path, tmp_path, capsys):
        # The final checkpoint is labelled with the last loop iteration, and
        # run-all's baseline files and gains do not outlive a new evaluation.
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        capsys.readouterr()
        code = main(
            ["evaluate", "--config", config_path, "--out", str(out), "--seed", "1",
             "--estimator", "oracle"]
        )
        assert code == 0
        metrics = out / "seed_1" / "metrics"
        assert sorted(p.name for p in metrics.iterdir()) == [
            "summary.csv", "targets_budget10_iter2.csv", "targets_budget25_iter2.csv"
        ]
        with (metrics / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["iteration"], r["budget"]) for r in rows] == [("2", "10"), ("2", "25")]
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 and all(" iteration=2 " in line for line in printed)

    def test_removes_the_run_aggregate(self, config_path, tmp_path, capsys):
        # run-all's aggregated.csv lists budgets a new evaluation no longer
        # has; evaluate removes it and report rebuilds it from the summary.
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        assert (out / "aggregated.csv").exists()
        code = main(
            ["evaluate", "--config", config_path, "--out", str(out), "--seed", "1",
             "--budget", "3"]
        )
        assert code == 0
        assert not (out / "aggregated.csv").exists()
        assert main(["report", "--run", str(out)]) == 0
        with (out / "aggregated.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["iteration"], r["budget"]) for r in rows] == [("2", "3")]

    def test_corrupt_checkpoint_exits_5(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        bad = out / "seed_1" / "checkpoints" / "backward_final.json"
        bad.write_text("{]")
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    config_path,
                    "--out",
                    str(out),
                    "--seed",
                    "1",
                    "--checkpoint",
                    str(bad),
                ]
            )
            == 5
        )

    @pytest.mark.parametrize(
        "field, value",
        [("dim", "x"), ("template_index", 5), ("weights", "strings"), ("bias", None)],
        ids=["dim-string", "template_index-number", "weights-strings", "bias-null"],
    )
    def test_wrong_typed_checkpoint_field_exits_5(
        self, config_path, tmp_path, capsys, field, value
    ):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        bad = out / "seed_1" / "checkpoints" / "backward.json"
        doc = json.loads(bad.read_text())
        doc[field] = ["x"] * len(doc["weights"]) if value == "strings" else value
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(
            ["evaluate", "--config", config_path, "--out", str(out), "--seed", "1",
             "--checkpoint", str(bad)]
        )
        assert code == 5
        assert f"checkpoint {bad} " in capsys.readouterr().err

    def test_version_1_checkpoint_exits_5(self, config_path, tmp_path, capsys):
        # Version 1 held weights and bias as JSON lists of numbers.
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        old = out / "seed_1" / "checkpoints" / "backward.json"
        model = load_checkpoint(old)
        doc = json.loads(old.read_text())
        doc.update(version=1, weights=model.weights.reshape(-1).tolist(), bias=model.bias.tolist())
        old.write_text(json.dumps(doc, sort_keys=True) + "\n")
        capsys.readouterr()
        code = main(
            ["evaluate", "--config", config_path, "--out", str(out), "--seed", "1",
             "--checkpoint", str(old)]
        )
        assert code == 5
        assert f"checkpoint {old} has unsupported version 1" in capsys.readouterr().err

    def test_missing_baseline_exits_4_before_any_read(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        ck = out / "seed_1" / "checkpoints"
        (ck / "backward_final.json").write_text("{]")
        # A second checkpoint, labelled iteration 1, that is not there.
        missing = ck / "backward_iter_1.json"
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--config",
                config_path,
                "--out",
                str(out),
                "--seed",
                "1",
                "--checkpoint",
                str(ck / "backward_final.json"),
                "--checkpoint",
                str(missing),
            ]
        )
        assert code == 4
        assert f"missing checkpoint {missing}" in capsys.readouterr().err


class TestPlan:
    def test_prints_route_in_dependency_order(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        capsys.readouterr()
        world_doc = json.loads((out / "seed_1" / "world.json").read_text())
        stock = set(world_doc["building_blocks"])
        atoms = world_doc["atoms"]
        op = world_doc["operators"][0]
        target = f"(({atoms[0]}{op}{atoms[1]}){op}{atoms[2]})"
        code = main(
            [
                "plan",
                "--config",
                config_path,
                "--out",
                str(out),
                "--seed",
                "1",
                "--target",
                target,
                "--checkpoint",
                str(out / "seed_1" / "checkpoints" / "backward.json"),
                "--budget",
                "200",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("success ")
        produced = set()
        for line in lines[:-1]:
            head, rest = line.split(" <- ")
            reactants = rest.split("  [")[0].split(" + ")
            for r in reactants:
                assert r in stock or r in produced, f"{r} used before being produced"
            produced.add(head)

    def test_trace_file_has_one_record_per_expansion(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        capsys.readouterr()
        world_doc = json.loads((out / "seed_1" / "world.json").read_text())
        atoms = world_doc["atoms"]
        op = world_doc["operators"][0]
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "plan",
                "--config",
                config_path,
                "--out",
                str(out),
                "--seed",
                "1",
                "--target",
                f"({atoms[0]}{op}{atoms[1]})",
                "--checkpoint",
                str(out / "seed_1" / "checkpoints" / "backward.json"),
                "--budget",
                "50",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        calls = int(summary.split("calls=")[1].split()[0])
        records = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert len(records) == calls
        assert all({"step", "molecule", "g_plus_h", "applicable"} <= set(r) for r in records)


    def test_bad_target_or_trace_exits_2_with_checkpoints(self, config_path, tmp_path, capsys):
        # Only a missing checkpoint exits 4: a target too deep to parse, and a
        # trace into a missing directory or onto a directory, exit 2.
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        before = tree_bytes(out)
        trace = tmp_path / "missing" / "t.jsonl"
        for extra, option in (
            (["--target", DEEP_TARGET], "--target"),
            (["--target", "a", "--trace", str(trace)], "--trace"),
            (["--target", "a", "--trace", str(tmp_path)], "--trace"),
        ):
            capsys.readouterr()
            code = main(
                ["plan", "--config", config_path, "--out", str(out), "--seed", "1",
                 "--checkpoint", str(out / "seed_1" / "checkpoints" / "backward.json"), *extra]
            )
            assert code == 2, option
            err = capsys.readouterr().err
            assert err.startswith(f"error: {option}: ") and err.count("\n") == 1, err
        assert tree_bytes(out) == before
        assert not trace.parent.exists()

    def test_oracle_without_reference_exits_4(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        ck = out / "seed_1" / "checkpoints"
        model = tmp_path / "model.json"
        (ck / "backward.json").rename(model)
        atom = json.loads((out / "seed_1" / "world.json").read_text())["atoms"][0]
        capsys.readouterr()
        code = main(
            [
                "plan",
                "--config",
                config_path,
                "--out",
                str(out),
                "--seed",
                "1",
                "--target",
                atom,
                "--checkpoint",
                str(model),
                "--estimator",
                "oracle",
            ]
        )
        assert code == 4
        assert f"missing checkpoint {ck / 'backward.json'}" in capsys.readouterr().err

    def test_retro0_without_reference_exits_4(self, config_path, tmp_path, capsys):
        # plan reads the reference as evaluate does, whatever the estimator.
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        ck = out / "seed_1" / "checkpoints"
        model = tmp_path / "model.json"
        (ck / "backward.json").rename(model)
        capsys.readouterr()
        code = main(
            ["plan", "--config", config_path, "--out", str(out), "--seed", "1",
             "--target", first_target(out), "--checkpoint", str(model), "--estimator", "retro0"]
        )
        assert code == 4
        assert f"missing checkpoint {ck / 'backward.json'}" in capsys.readouterr().err

    def test_estimator_defaults_to_the_config(self, tmp_path, capsys):
        # With eval.estimator "oracle" and no --estimator, the root's g + h
        # is its oracle cost, above the zero estimate.
        doc = json.loads(json.dumps(TINY))
        doc["eval"]["estimator"] = "oracle"
        args = ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "run"),
                "--seed", "1"]
        main(["pretrain", *args])
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["plan", *args, "--target", first_target(tmp_path / "run"), "--trace", str(trace),
             "--checkpoint", str(tmp_path / "run" / "seed_1" / "checkpoints" / "backward.json")]
        )
        assert code == 0
        assert json.loads(trace.read_text().splitlines()[0])["g_plus_h"] > 0


class TestSingleHomes:
    def test_the_package_binds_only_its_submodules(self):
        # Every other name is imported from the module that defines it.
        strays = [
            name for name, value in vars(retroloop).items()
            if not name.startswith("_") and sys.modules.get(f"retroloop.{name}") is not value
        ]
        assert strays == []

    def test_importing_the_world_pins_blas_threads_without_numpy(self):
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = str(Path(retroloop.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c",
             "import os, sys, retroloop.world; "
             f"print('numpy' in sys.modules, *(os.environ[v] for v in {blas_vars!r}))"],
            env=env, check=True, capture_output=True, text=True,
        )
        assert done.stdout == "False 1 1 1\n"

    def test_both_estimator_flags_offer_the_table(self):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command in ("evaluate", "plan"):
            flag = next(a for a in sub.choices[command]._actions if a.dest == "estimator")
            assert tuple(flag.choices) == tuple(ESTIMATORS), command

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_every_estimator_plans_and_evaluates(self, config_path, tmp_path, capsys, name):
        out = tmp_path / "run"
        args = ["--config", config_path, "--out", str(out), "--seed", "1"]
        main(["pretrain", *args])
        ck = str(out / "seed_1" / "checkpoints" / "backward.json")
        capsys.readouterr()
        code = main(
            ["plan", *args, "--target", first_target(out), "--checkpoint", ck,
             "--estimator", name]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("success ")
        assert main(["evaluate", *args, "--checkpoint", ck, "--estimator", name]) == 0
        with (out / "seed_1" / "metrics" / "summary.csv").open() as fh:
            assert {r["estimator"] for r in csv.DictReader(fh)} == {name}

    def test_readme_lists_the_exit_codes_of_main(self):
        readme = (SCRIPTS.parent / "README.md").read_text()
        table = readme.split("## Exit codes")[1].split("\n## ")[0]
        listed = [int(code) for code in re.findall(r"^\| (\d+) ", table, re.M)]
        assert listed == sorted({code for _error, code in cli.EXIT_CODES})


class TestCheckpointChecks:
    @pytest.mark.parametrize(
        "command", [["self-improve"], ["evaluate"], ["plan", "--target", "a"]]
    )
    def test_missing_checkpoints_leave_out_empty(self, config_path, tmp_path, capsys, command):
        out = tmp_path / "run"
        out.mkdir()
        code = main([*command, "--config", config_path, "--out", str(out), "--seed", "1"])
        assert code == 4
        assert "missing checkpoint" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, role",
        [
            (["evaluate", "--checkpoint", "forward.json"], "forward"),
            (["evaluate", "--checkpoint", "backward.json", "--checkpoint", "forward.json"],
             "forward"),
            (["plan", "--target", "a", "--checkpoint", "forward.json"], "forward"),
            (["self-improve"], "backward"),
        ],
        ids=["evaluate-checkpoint", "evaluate-baseline", "plan-checkpoint", "self-improve"],
    )
    def test_checkpoint_of_another_direction_exits_5(
        self, config_path, tmp_path, capsys, command, role
    ):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        ck = out / "seed_1" / "checkpoints"
        forward = ck / "forward.json"
        if role == "backward":  # self-improve reads forward.json as the forward model
            forward.write_bytes((ck / "backward.json").read_bytes())
        argv = [str(ck / a) if a.endswith(".json") else a for a in command]
        capsys.readouterr()
        code = main([*argv, "--config", config_path, "--out", str(out), "--seed", "1"])
        assert code == 5
        assert f"checkpoint {forward} holds a {role} model" in capsys.readouterr().err
        assert not (out / "seed_1" / "metrics").exists()
        assert not (out / "seed_1" / "reports").exists()

    def test_checkpoint_from_another_world_exits_5(self, config_path, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY))
        doc["world"]["n_operators"] = 3
        other_config = write_config(tmp_path, doc, "other.json")
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        main(["pretrain", "--config", config_path, "--out", str(theirs), "--seed", "1"])
        main(["pretrain", "--config", other_config, "--out", str(ours), "--seed", "1"])
        foreign = theirs / "seed_1" / "checkpoints" / "backward.json"
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--config",
                other_config,
                "--out",
                str(ours),
                "--seed",
                "1",
                "--checkpoint",
                str(foreign),
            ]
        )
        assert code == 5
        assert f"checkpoint {foreign} was not trained on this world's templates" in (
            capsys.readouterr().err
        )
        assert not (ours / "seed_1" / "metrics").exists()

    def test_checkpoint_of_another_dim_exits_5(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["pretrain", "--config", config_path, "--out", str(out), "--seed", "1"])
        doc = json.loads(json.dumps(TINY))
        doc["dim"] = 256
        capsys.readouterr()
        code = main(
            ["self-improve", "--config", write_config(tmp_path, doc, "dim256.json"),
             "--out", str(out), "--seed", "1"]
        )
        assert code == 5
        backward = out / "seed_1" / "checkpoints" / "backward.json"
        assert f"checkpoint {backward} has dim 512, the config 256" in capsys.readouterr().err
        assert not (out / "seed_1" / "reports").exists()


class TestArguments:
    @pytest.mark.parametrize(
        "command, option",
        [
            (["evaluate", "--budget", "-5"], "--budget"),
            (["evaluate", "--budget", "0"], "--budget"),
            (["evaluate", "--budget", "20", "--budget", "20"], "--budget"),
            (["plan", "--target", "a", "--budget", "-1"], "--budget"),
            (["plan", "--target", ""], "--target"),
            (["plan", "--target", DEEP_TARGET], "--target"),
            (["plan", "--target", "a", "--trace", "no-such-dir/t.jsonl"], "--trace"),
            (["evaluate", "--checkpoint", "backward.json", "--checkpoint", "b/backward.json"],
             "--checkpoint"),
            (["evaluate", "--checkpoint", "a.json", "--checkpoint", "backward_final.json"],
             "--checkpoint"),
            (["run-all", "--workers", "0"], "--workers"),
            (["run-all", "--workers", "-3"], "--workers"),
            (["run-all", "--seed", "1"], "--seed"),
            (["gen-world", "--seed", "1"], "--seed"),
            (["plan", "--target", "a", "--seed", "2"], "--seed"),
            (["evaluate", "--checkpoint", "backward.json", "--seed", "2"], "--checkpoint"),
        ],
        ids=["evaluate-negative", "evaluate-zero", "evaluate-repeated", "plan-negative",
             "plan-empty-target", "plan-deep-target", "plan-trace-no-dir",
             "evaluate-two-iteration-0", "evaluate-two-final", "run-all-workers-zero",
             "run-all-workers-negative", "run-all-repeated-seed", "gen-world-repeated-seed",
             "plan-two-seeds", "evaluate-checkpoint-two-seeds"],
    )
    def test_invalid_argument_exits_2_before_any_read(
        self, config_path, tmp_path, capsys, command, option
    ):
        out = tmp_path / "run"
        out.mkdir()
        code = main([*command, "--config", config_path, "--out", str(out), "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize(
        "command",
        [["gen-world"], ["pretrain"], ["self-improve"], ["evaluate"], ["plan", "--target", "a"],
         ["run-all"]],
        ids=lambda command: command[0],
    )
    def test_out_that_is_no_directory_exits_2_before_any_write(
        self, config_path, tmp_path, capsys, command, under
    ):
        file = tmp_path / "file"
        file.write_text("kept\n")
        out = file / "sub" if under else file
        code = main([*command, "--config", config_path, "--out", str(out), "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: --out: {file} is not a directory\n"
        assert sorted(tmp_path.iterdir()) == sorted([file, Path(config_path)])
        assert file.read_text() == "kept\n"


class TestReportAndRunAll:
    def test_report_without_manifest_exits_6(self, tmp_path):
        assert main(["report", "--run", str(tmp_path / "empty")]) == 6

    def test_run_all_runs_every_seed_given(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["seeds"] = [1, 2, 3]
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        args = ["--config", path, "--out", str(out), "--seed", "1", "--seed", "2"]
        assert main(["run-all", *args]) == 0
        assert sorted(p.name for p in out.glob("seed_*")) == ["seed_1", "seed_2"]
        assert list(json.loads((out / "manifest.json").read_text())["seeds"]) == ["1", "2"]

    def test_run_all_products_and_determinism(self, config_path, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run-all", "--config", config_path, "--out", str(a)]) == 0
        assert main(["run-all", "--config", config_path, "--out", str(b)]) == 0
        manifest = json.loads((a / "manifest.json").read_text())
        from retroloop.cli import config_hash

        stored = json.loads((a / "config.json").read_text())
        assert manifest["config_hash"] == config_hash(stored)
        for seed, artifacts in manifest["seeds"].items():
            assert Path(artifacts["metrics"]).exists()
            for path in artifacts["checkpoints"].values():
                assert Path(path).exists()
        metrics_a = {
            name: data
            for name, data in tree_bytes(a).items()
            if name.endswith(".csv")
        }
        metrics_b = {
            name: data
            for name, data in tree_bytes(b).items()
            if name.endswith(".csv")
        }
        assert metrics_a == metrics_b
        assert any(name.endswith("aggregated.csv") for name in metrics_a)

    def test_run_all_of_another_world_keeps_config_json(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        before = (out / "config.json").read_bytes()
        doc = json.loads(json.dumps(TINY))
        doc["world"]["n_atoms"] = 5
        other_config = write_config(tmp_path, doc, "other.json")
        assert main(["run-all", "--config", other_config, "--out", str(out), "--seed", "1"]) == 5
        assert (out / "config.json").read_bytes() == before

    def test_loop_rerun_replaces_the_earlier_iteration_files(self, config_path, tmp_path):
        # A second run with fewer iterations keeps none of the first run's
        # loop files, so its seed directory and manifest are a fresh run's.
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        doc = json.loads(json.dumps(TINY))
        doc["loop"]["iterations"] = 1
        shorter = write_config(tmp_path, doc, "shorter.json")
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        assert (out / "seed_1" / "reports" / "iteration_2.json").exists()
        assert main(["run-all", "--config", shorter, "--out", str(out), "--seed", "1"]) == 0
        assert main(["run-all", "--config", shorter, "--out", str(fresh), "--seed", "1"]) == 0
        assert tree_bytes(out / "seed_1") == tree_bytes(fresh / "seed_1")
        reports = json.loads((out / "manifest.json").read_text())["seeds"]["1"]["reports"]
        assert [Path(r).name for r in reports] == ["iteration_1.json"]

    def test_interrupted_loop_leaves_no_earlier_final_model(
        self, config_path, tmp_path, monkeypatch
    ):
        # A loop stopped after its first iteration keeps that iteration's
        # files but not the earlier loop's final model, which evaluate would
        # otherwise score as the new loop's last iteration.
        out = tmp_path / "run"
        args = ["--config", config_path, "--out", str(out), "--seed", "1"]
        assert main(["run-all", *args]) == 0
        checkpoints = out / "seed_1" / "checkpoints"
        assert (checkpoints / "backward_final.json").exists()

        class Interrupted(Exception):
            pass

        def interrupted(loop_cfg, world, data, pretrained, seed, on_iteration):
            def stop(model, report):
                on_iteration(model, report)
                raise Interrupted

            return run_self_improvement(loop_cfg, world, data, pretrained, seed, on_iteration=stop)

        monkeypatch.setattr(cli, "run_self_improvement", interrupted)
        with pytest.raises(Interrupted):
            main(["self-improve", *args])
        assert (checkpoints / "backward_iter_1.json").exists()
        assert not (checkpoints / "backward_final.json").exists()
        assert main(["evaluate", *args]) == 4

    def test_aggregates_only_the_seeds_the_manifest_lists(self, config_path, tmp_path):
        # seed_1/ is left from a run of another loop config; the second run
        # and its report average seed 2 alone, at the iterations it ran.
        out = tmp_path / "run"
        doc = json.loads(json.dumps(TINY))
        doc["loop"].update(iterations=1, epsilon=0)
        other = write_config(tmp_path, doc, "other.json")
        assert main(["run-all", "--config", config_path, "--out", str(out)]) == 0
        assert main(["run-all", "--config", other, "--out", str(out), "--seed", "2"]) == 0
        aggregated = out / "aggregated.csv"
        with aggregated.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["iteration"], r["n_seeds"]) for r in rows} == {("0", "1"), ("1", "1")}
        written = aggregated.read_bytes()
        assert main(["report", "--run", str(out)]) == 0
        assert aggregated.read_bytes() == written
        # A listed seed without its summary is a damaged run, not one seed fewer.
        (out / "seed_2" / "metrics" / "summary.csv").unlink()
        assert main(["report", "--run", str(out)]) == 5

    @pytest.mark.parametrize(
        "text",
        ["{]", "{}\n", '{"seeds": [1]}\n', '{"seeds": {}}\n'],
        ids=["unreadable", "no-seeds", "seeds-list", "empty-seeds"],
    )
    def test_manifest_without_a_seeds_object_exits_5(self, tmp_path, capsys, text):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        assert main(["report", "--run", str(out)]) == 5
        assert str(out / "manifest.json") in capsys.readouterr().err
        assert not (out / "aggregated.csv").exists()

    def test_report_aggregates_with_stdev(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run-all", "--config", config_path, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed and all("success=" in line for line in printed)
        with (out / "aggregated.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["n_seeds"] == "2" for r in rows)
        # Each printed line shows its row of the file, rounded.
        assert printed == [
            f"estimator={r['estimator']} iteration={r['iteration']} budget={r['budget']} "
            f"n={r['n_seeds']} "
            + " ".join(
                f"{name}={float(r[m + '_mean']):.{d}f}±{float(r[m + '_std']):.{d}f}"
                for name, m, d in (
                    ("success", "success_rate", 4), ("length", "avg_length", 3),
                    ("time", "avg_time", 2), ("cost", "avg_cost", 3),
                )
            )
            for r in rows
        ]

    def test_report_never_averages_estimators(self, config_path, tmp_path, capsys):
        # Seed 1 re-evaluated with the oracle; seed 2 keeps run-all's retro0 rows.
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out)]) == 0
        code = main(
            ["evaluate", "--config", config_path, "--out", str(out), "--seed", "1",
             "--estimator", "oracle"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        with (out / "aggregated.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["estimator"], r["iteration"], r["budget"], r["n_seeds"]) for r in rows} == {
            ("oracle", "2", "10", "1"), ("oracle", "2", "25", "1"),
            ("retro0", "0", "10", "1"), ("retro0", "0", "25", "1"),
            ("retro0", "2", "10", "1"), ("retro0", "2", "25", "1"),
        }
        assert len(printed) == len(rows)
        assert sum(line.startswith("estimator=oracle iteration=2 ") for line in printed) == 2
        assert all(" n=1 " in line for line in printed)

    def test_summary_of_another_layout_exits_5(self, config_path, tmp_path, capsys):
        # A summary without the estimator column, as an older evaluate wrote it.
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        summary = out / "seed_1" / "metrics" / "summary.csv"
        with summary.open() as fh:
            rows = [r[:1] + r[2:] for r in csv.reader(fh)]
        with summary.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        assert str(summary) in capsys.readouterr().err

    def test_unreadable_or_non_numeric_summary_exits_5(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        summary = out / "seed_1" / "metrics" / "summary.csv"
        good = summary.read_bytes()
        header, first, *rest = good.decode().splitlines(keepends=True)
        columns = header.strip().split(",")

        def with_field(column, value):
            fields = first.rstrip("\r\n").split(",")
            fields[columns.index(column)] = value
            return (header + ",".join(fields) + "\r\n" + "".join(rest)).encode()

        damaged = {
            "not UTF-8": b"\xff\xfe" + good,
            "iteration": with_field("iteration", "x"),
            "budget": with_field("budget", "1.5"),
            "metric": with_field("success_rate", "x"),
            "short row": (header + first.split(",", 1)[0] + "\r\n").encode(),
            "long row": (header + first.rstrip("\r\n") + ",1\r\n" + "".join(rest)).encode(),
        }
        for what, data in damaged.items():
            summary.write_bytes(data)
            capsys.readouterr()
            assert main(["report", "--run", str(out)]) == 5, what
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(summary) in err, what
            assert err.count("\n") == 1, what
        summary.write_bytes(good)
        assert main(["report", "--run", str(out)]) == 0

    def test_repeated_summary_row_exits_5(self, config_path, tmp_path, capsys):
        # A copied row is a damaged summary, not a second seed of its key.
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        summary = out / "seed_1" / "metrics" / "summary.csv"
        lines = summary.read_text().splitlines(keepends=True)
        summary.write_text("".join(lines) + lines[1])
        written = (out / "aggregated.csv").read_bytes()
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert f"{summary} line {len(lines) + 1} repeats" in err
        assert (out / "aggregated.csv").read_bytes() == written

    def test_header_only_summary_exits_5(self, tmp_path, capsys):
        # A listed seed with no rows would leave its seeds' means short of it.
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text('{"seeds": {"1": {}, "2": {}}}\n')
        rows = {1: [[1, "retro0", 0, 25, "0.5", "3.0", "10.0", "4.0", "1.0", "1.0"]], 2: []}
        for seed, seed_rows in rows.items():
            metrics_dir = out / f"seed_{seed}" / "metrics"
            metrics_dir.mkdir(parents=True)
            with (metrics_dir / "summary.csv").open("w", newline="") as fh:
                csv.writer(fh).writerows([cli.SUMMARY_COLUMNS, *seed_rows])
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert f"{out / 'seed_2' / 'metrics' / 'summary.csv'} holds no rows" in err
        assert not (out / "aggregated.csv").exists()

    def test_infinite_metric_has_its_mean_and_a_nan_std(self, tmp_path, capsys):
        # A reaction of probability 0 costs INF, and so may a seed's avg_cost.
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text('{"seeds": {"1": {}, "2": {}}}\n')
        for seed, cost, top1 in ((1, "inf", "1.0"), (2, "4.0", "nan")):
            metrics_dir = out / f"seed_{seed}" / "metrics"
            metrics_dir.mkdir(parents=True)
            row = [seed, "retro0", 0, 25, "0.5", "3.0", "10.0", cost, top1, "1.0"]
            with (metrics_dir / "summary.csv").open("w", newline="") as fh:
                csv.writer(fh).writerows([cli.SUMMARY_COLUMNS, row])
        assert main(["report", "--run", str(out)]) == 0
        assert "cost=inf±nan" in capsys.readouterr().out
        with (out / "aggregated.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert (row["avg_cost_mean"], row["avg_cost_std"]) == ("inf", "nan")
        assert (row["top1_mean"], row["top1_std"]) == ("nan", "nan")
        assert (row["success_rate_mean"], row["success_rate_std"]) == ("0.5", "0.0")

    def test_single_seed_stdev_is_zero(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["seeds"] = [1]
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        main(["run-all", "--config", path, "--out", str(out)])
        with (out / "aggregated.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["success_rate_std"]) == 0.0

    def test_pool_has_at_most_one_worker_per_seed(self, config_path, tmp_path, monkeypatch):
        # A forked pool starts every worker at its first submit, so the pool
        # is sized to the seeds. The fake pool runs each seed inline.
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--workers", "64"]) == 0
        assert pools == [2]  # the two seeds of the config
        assert main(["run-all", "--config", config_path, "--out", str(out), "--workers", "64",
                     "--seed", "1"]) == 0
        assert pools == [2]  # one seed runs in this process

    def test_importing_the_cli_leaves_the_process_pool_unloaded(self):
        # run-all imports the pool only when it runs more than one worker.
        src = str(Path(retroloop.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, retroloop.cli; print('concurrent.futures.process' in sys.modules)"],
            env=env, check=True, capture_output=True, text=True,
        )
        assert done.stdout == "False\n"

    def test_workers_flag_produces_identical_outputs(self, config_path, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w2"
        main(["run-all", "--config", config_path, "--out", str(a)])
        main(["run-all", "--config", config_path, "--out", str(b), "--workers", "2"])
        csv_a = {n: d for n, d in tree_bytes(a).items() if n.endswith(".csv")}
        csv_b = {n: d for n, d in tree_bytes(b).items() if n.endswith(".csv")}
        assert csv_a == csv_b


class TestBuilders:
    def test_models_match_the_cli_checkpoints(self, config_path, tmp_path):
        out = tmp_path / "run"
        for command in ("pretrain", "self-improve"):
            assert main([command, "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        cfg, _doc = load_config(config_path)
        world, data = build_world_data(cfg, 1)
        pretrained = pretrain_models(world, data, cfg.pretrain, cfg.dim, 1)
        final, _reports = run_self_improvement(cfg.loop, world, data, pretrained, 1)
        ck = out / "seed_1" / "checkpoints"
        for model, name in ((pretrained[0], "backward.json"), (final, "backward_final.json")):
            save_checkpoint(model, tmp_path / name)
            assert (tmp_path / name).read_bytes() == (ck / name).read_bytes()


    def test_evaluate_seed_gives_the_run_all_summary(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["run-all", "--config", config_path, "--out", str(out), "--seed", "1"]) == 0
        cfg, _doc = load_config(config_path)
        assert len(cfg.eval.budgets) > 1
        world, data = build_world_data(cfg, 1)
        pretrained = pretrain_models(world, data, cfg.pretrain, cfg.dim, 1)
        final, _reports = run_self_improvement(cfg.loop, world, data, pretrained, 1)
        models = {0: pretrained[0], cfg.loop.iterations: final}
        evaluated = cli.evaluate_seed(cfg, world, data, pretrained[1], models)
        expected = [
            [*map(str, (1, cfg.eval.estimator, iteration, budget)),
             *(repr(getattr(metrics, m)) for m in cli.PLAN_METRICS),
             repr(top1), repr(top10)]
            for iteration, (by_budget, top1, top10) in evaluated.items()
            for budget, metrics in by_budget.items()
        ]
        with (out / "seed_1" / "metrics" / "summary.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(cli.SUMMARY_COLUMNS)
        assert len(expected) == 2 * len(cfg.eval.budgets)
        assert rows == expected

    def test_final_checkpoint_is_the_last_iteration_file(self, config_path, tmp_path, monkeypatch):
        import retroloop.cli as cli

        cfg, _doc = load_config(config_path)
        world, data = build_world_data(cfg, 1)
        pretrained = pretrain_models(world, data, cfg.pretrain, cfg.dim, 1)
        saved = []

        def counting(model, path):
            saved.append(Path(path).name)
            save_checkpoint(model, path)

        monkeypatch.setattr(cli, "save_checkpoint", counting)
        seed_dir = tmp_path / "seed_1"
        _final, reports = cli.run_improve(cfg, 1, seed_dir, world, data, pretrained)
        iterations = cfg.loop.iterations
        assert len(reports) == iterations
        assert saved == [f"backward_iter_{i}.json" for i in range(1, iterations + 1)]
        ck = seed_dir / "checkpoints"
        assert (ck / "backward_final.json").read_bytes() == (
            ck / f"backward_iter_{iterations}.json"
        ).read_bytes()


class TestScripts:
    def test_filtering_sweep_table(self, config_path, capsys):
        main_fn = runpy.run_path(str(SCRIPTS / "filtering_sweep.py"))["main"]
        assert main_fn(["--config", config_path, "--seeds", "1", "--thresholds", "0", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["eps", "top1", "top10", "succ@N", "kept"]
        rows = [line.split() for line in lines[1:]]
        assert [r[0] for r in rows] == ["0.00", "0.50"]
        for row in rows:
            for cell in row[1:4]:
                mean, std = cell.split("+-")
                assert 0.0 <= float(mean) <= 1.0 and std == "0.0000"
        # Both thresholds plan the same routes; the stricter one keeps fewer.
        assert float(rows[0][4]) >= float(rows[1][4])

    def test_filtering_sweep_evaluates_with_eval_k_expand(self, tmp_path, capsys, monkeypatch):
        doc = json.loads(json.dumps(TINY))
        doc["loop"]["k_expand"], doc["eval"]["k_expand"] = 5, 7
        path = write_config(tmp_path, doc)
        main_fn = runpy.run_path(str(SCRIPTS / "filtering_sweep.py"))["main"]
        seen = []

        def record(model, estimator, targets, budgets, *rest, k_expand):
            seen.append(k_expand)
            return {b: SimpleNamespace(success_rate=0.0) for b in budgets}

        monkeypatch.setattr(cli, "evaluate_over_budgets", record)
        assert main_fn(["--config", path, "--seeds", "1", "--thresholds", "0"]) == 0
        assert seen and set(seen) == {7}

    def test_filtering_sweep_evaluates_with_the_eval_budgets_and_estimator(
        self, tmp_path, capsys, monkeypatch
    ):
        doc = json.loads(json.dumps(TINY))
        doc["eval"]["budgets"], doc["eval"]["estimator"] = [5, 15], "oracle"
        path = write_config(tmp_path, doc)
        main_fn = runpy.run_path(str(SCRIPTS / "filtering_sweep.py"))["main"]
        seen = []

        def record(model, estimator, targets, budgets, *rest, k_expand):
            seen.append((list(budgets), type(estimator)))
            return {b: SimpleNamespace(success_rate=0.0) for b in budgets}

        monkeypatch.setattr(cli, "evaluate_over_budgets", record)
        assert main_fn(["--config", path, "--seeds", "1", "--thresholds", "0", "0.5"]) == 0
        assert seen == [([5, 15], OracleEstimator)] * 2
