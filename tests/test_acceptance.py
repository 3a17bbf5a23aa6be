"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. The heavyweight reference-configuration pipeline (five
seeds: pretraining, three improvement iterations, evaluations, ablation arms)
is built once and shared across the criteria that use it.
"""

import contextlib
import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from retroloop import (
    TrainConfig,
    WorldConfig,
    ZeroEstimator,
    brute_force_oracle,
    build_datasets,
    evaluate_over_budgets,
    featurize_molecule,
    generate_world,
    mol,
    parse_molecule,
    penalty_constants,
    plan,
    route_cost_under,
    run_self_improvement,
    topk_exact_match,
    train,
    unfolded_route_cost,
    zero_classifier,
)
from retroloop.cli import (
    build_pretrained,
    build_world_data,
    load_config,
    main,
    seed_loop_config,
)
from retroloop.improve import pretrain_models
from retroloop.model import ROLE_BACKWARD, nll_and_grad
from retroloop.world import KIND_SPLIT, Template, parse_ast

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="session")
def reference_runs():
    """Per-seed pipeline artifacts for the reference configuration."""
    cfg, _doc = load_config(REFERENCE_CONFIG)
    estimator = ZeroEstimator()
    runs = []
    started = time.time()
    budget = cfg.loop.budget
    for seed in cfg.seeds:
        world, data = build_world_data(cfg, seed)
        pretrained = build_pretrained(cfg, seed, world, data)
        backward, reference, forward = pretrained
        loop_cfg = seed_loop_config(cfg, seed)
        penalties = penalty_constants(data, reference, world)
        base = evaluate_over_budgets(
            backward, estimator, data.targets, [budget], reference, penalties, world,
            k_expand=cfg.eval.k_expand,
        )[budget]
        final, reports = run_self_improvement(loop_cfg, world, data, pretrained=pretrained)
        post = evaluate_over_budgets(
            final, estimator, data.targets, [budget], reference, penalties, world,
            k_expand=cfg.eval.k_expand,
        )[budget]
        runs.append(
            {
                "seed": seed,
                "world": world,
                "data": data,
                "pretrained": pretrained,
                "penalties": penalties,
                "loop_cfg": loop_cfg,
                "base": base,
                "post": post,
                "reports": reports,
            }
        )
    elapsed = time.time() - started
    return {"config": cfg, "runs": runs, "elapsed": elapsed}


class TestOracleOptimality:
    def test_exhaustive_search_is_optimal_on_twenty_worlds(self):
        with criterion("oracle-optimality"):
            started = time.time()
            rng = random.Random(2024)
            solvable = matched = 0
            for w in range(20):
                world = generate_world(
                    WorldConfig(
                        n_atoms=rng.randint(2, 3),
                        n_operators=rng.randint(1, 2),
                        n_decoys=rng.randint(1, 2),
                        bb_composites=rng.randint(0, 2),
                        bb_depth=1,
                    ),
                    seed=rng.randrange(2**32),
                )
                data = build_datasets(world, 8, 3, (0.8, 0.1, 0.1), rng.randrange(2**32))
                ref = zero_classifier(world.template_ids, ROLE_BACKWARD, dim=512)
                if data.reactions_train:
                    samples = [
                        (featurize_molecule(rx.product, 512), rx.template_id)
                        for rx in data.reactions_train
                    ]
                    ref = train(
                        ref, samples, TrainConfig(learning_rate=0.15, epochs=4, seed=w)
                    )
                table = brute_force_oracle(world, ref, list(data.targets), cap=200)
                assert table.explored <= 200
                for target in data.targets:
                    optimal = table.costs[target.text]
                    result = plan(target, ref, ZeroEstimator(), 100_000, 10, world)
                    if math.isinf(optimal):
                        assert not result.success
                        continue
                    solvable += 1
                    assert result.success, f"planner failed on solvable {target.text}"
                    achieved = unfolded_route_cost(result.route, ref, world)
                    assert abs(achieved - optimal) <= 1e-6
                    witness = table.witnesses[target.text]
                    assert abs(
                        route_cost_under(result.route, ref, world)
                        - route_cost_under(witness, ref, world)
                    ) <= 1e-6
                    matched += 1
            elapsed = time.time() - started
            assert solvable > 0
            assert matched == solvable
            assert elapsed < 60, f"oracle optimality took {elapsed:.1f}s"
            print(
                f"  [oracle-optimality: {matched}/{solvable} solvable targets "
                f"matched across 20 worlds in {elapsed:.1f}s]"
            )


class TestGradientCheck:
    def test_analytic_gradient_matches_finite_differences(self):
        with criterion("gradient-check"):
            rng = np.random.default_rng(7)
            world = generate_world(
                WorldConfig(n_atoms=8, n_operators=3, n_decoys=4, bb_composites=4, bb_depth=1),
                seed=5,
            )
            data = build_datasets(world, 40, 4, (0.8, 0.1, 0.1), seed=6)
            dim = 256
            base = zero_classifier(world.template_ids, ROLE_BACKWARD, dim=dim)
            h = 1e-5
            checked = 0
            for rx in data.reactions_train[:10]:
                # Moderate weight scale keeps every probability well above the
                # finite-difference noise floor at h = 1e-5.
                model = type(base)(
                    weights=0.3 * rng.normal(size=base.weights.shape),
                    bias=0.3 * rng.normal(size=base.bias.shape),
                    template_index=base.template_index,
                    role=base.role,
                )
                sample = [(featurize_molecule(rx.product, dim), rx.template_id)]
                _, grad_w, grad_b = nll_and_grad(model, sample)
                for _ in range(20):
                    t = int(rng.integers(model.n_templates))
                    d = int(rng.integers(dim))
                    for arr, grad, idx in (
                        (model.weights, grad_w, (t, d)),
                        (model.bias, grad_b, (t,)),
                    ):
                        plus, minus = arr.copy(), arr.copy()
                        plus[idx] += h
                        minus[idx] -= h
                        if arr is model.weights:
                            up = nll_and_grad(type(model)(plus, model.bias, model.template_index, model.role), sample)[0]
                            down = nll_and_grad(type(model)(minus, model.bias, model.template_index, model.role), sample)[0]
                        else:
                            up = nll_and_grad(type(model)(model.weights, plus, model.template_index, model.role), sample)[0]
                            down = nll_and_grad(type(model)(model.weights, minus, model.template_index, model.role), sample)[0]
                        fd = (up - down) / (2 * h)
                        analytic = grad[idx]
                        denom = max(abs(fd), abs(analytic), 1e-8)
                        assert abs(fd - analytic) / denom < 1e-5
                        checked += 1
            assert checked >= 200
            print(f"  [gradient-check: {checked} coordinates within 1e-5]")


class TestRoundTrip:
    def test_split_templates_invert_over_ten_thousand_molecules(self):
        with criterion("round-trip"):
            rng = random.Random(99)
            atoms = [chr(c) for c in range(ord("a"), ord("z") + 1)]
            operators = "+*^"
            templates = {
                op: Template(id=f"split:{op}", kind=KIND_SPLIT, op=op) for op in operators
            }

            def random_term(depth):
                if depth == 0 or rng.random() < 0.3:
                    return rng.choice(atoms)
                op = rng.choice(operators)
                return f"({random_term(depth - 1)}{op}{random_term(depth - 1)})"

            failures = checked = 0
            for _ in range(10_000):
                m = parse_molecule(random_term(rng.randint(1, 5)))
                ast = parse_ast(m.text)
                if ast.op is None:
                    m = parse_molecule(f"({m.text}+{rng.choice(atoms)})")
                    ast = parse_ast(m.text)
                template = templates[ast.op]
                reactants = template.backward(m)
                if reactants is None or template.forward(reactants) != m:
                    failures += 1
                checked += 1
            assert checked >= 10_000
            assert failures == 0
            print(f"  [round-trip: {checked} molecules, {failures} failures]")


class TestSelfImprovementTrend:
    def test_mean_success_strictly_improves(self, reference_runs):
        with criterion("self-improvement-trend"):
            runs = reference_runs["runs"]
            assert len(runs) == 5
            base_succ = float(np.mean([r["base"].success_rate for r in runs]))
            post_succ = float(np.mean([r["post"].success_rate for r in runs]))
            base_len = float(np.mean([r["base"].avg_length for r in runs]))
            post_len = float(np.mean([r["post"].avg_length for r in runs]))
            base_cost = float(np.mean([r["base"].avg_cost for r in runs]))
            post_cost = float(np.mean([r["post"].avg_cost for r in runs]))
            assert post_succ > base_succ, (base_succ, post_succ)
            assert post_len <= base_len, (base_len, post_len)
            assert post_cost <= base_cost, (base_cost, post_cost)
            assert reference_runs["elapsed"] < 900, reference_runs["elapsed"]
            print(
                f"  [trend: success {base_succ:.4f}->{post_succ:.4f}, "
                f"length {base_len:.2f}->{post_len:.2f}, "
                f"cost {base_cost:.3f}->{post_cost:.3f}, "
                f"pipeline {reference_runs['elapsed']:.0f}s]"
            )


class TestFilteringAblation:
    def test_disabling_the_filter_does_not_win(self, reference_runs):
        with criterion("filtering-ablation"):
            acc = {0.0: [], 0.8: []}
            for run in reference_runs["runs"]:
                for eps in (0.0, 0.8):
                    ablated = replace(
                        run["loop_cfg"], iterations=1, epsilon=eps, augmentation=False
                    )
                    model, _ = run_self_improvement(
                        ablated, run["world"], run["data"], pretrained=run["pretrained"]
                    )
                    (top1,) = topk_exact_match(
                        model, run["data"].reactions_test, (1,), run["world"]
                    )
                    acc[eps].append(top1)
            mean0 = float(np.mean(acc[0.0]))
            mean08 = float(np.mean(acc[0.8]))
            assert mean0 <= mean08 + 1e-12, (mean0, mean08)
            print(f"  [filtering: top-1 eps=0 {mean0:.4f} <= eps=0.8 {mean08:.4f}]")


class TestAugmentationAblation:
    def test_augmentation_never_costs_a_point(self, reference_runs):
        with criterion("augmentation-ablation"):
            estimator = ZeroEstimator()
            cfg = reference_runs["config"]
            rates = {True: [], False: []}
            for run in reference_runs["runs"]:
                for aug in (True, False):
                    ablated = replace(run["loop_cfg"], iterations=1, augmentation=aug)
                    model, _ = run_self_improvement(
                        ablated, run["world"], run["data"], pretrained=run["pretrained"]
                    )
                    metrics = evaluate_over_budgets(
                        model,
                        estimator,
                        run["data"].targets,
                        [cfg.loop.budget],
                        run["pretrained"][1],
                        run["penalties"],
                        run["world"],
                        k_expand=cfg.eval.k_expand,
                    )[cfg.loop.budget]
                    rates[aug].append(metrics.success_rate)
            with_aug = float(np.mean(rates[True]))
            without = float(np.mean(rates[False]))
            assert with_aug >= without - 0.01, (with_aug, without)
            print(f"  [augmentation: with {with_aug:.4f} vs without {without:.4f}]")


class TestFailureAccounting:
    def test_penalty_rows_follow_the_rule(self):
        with criterion("failure-accounting"):
            world = generate_world(
                WorldConfig(n_atoms=4, n_operators=2, n_decoys=2, bb_composites=2, bb_depth=1),
                seed=17,
            )
            data = build_datasets(world, 30, 3, (0.8, 0.1, 0.1), seed=18)
            backward, reference, _ = pretrain_models(
                world,
                data,
                TrainConfig(learning_rate=0.2, epochs=8, batch_size=64, seed=1),
                TrainConfig(learning_rate=0.2, epochs=8, batch_size=64, seed=2),
            )
            max_len = max(
                len(r.reactions) for r in data.ground_truth_routes.values()
            )
            max_cost = max(
                route_cost_under(r, reference, world)
                for r in data.ground_truth_routes.values()
            )
            budget = 37
            unsynthesizable = [mol("(a?b)"), parse_molecule("(a+"), mol("((a?b)?c)")]
            metrics = evaluate_over_budgets(
                backward,
                ZeroEstimator(),
                unsynthesizable,
                [budget],
                reference,
                penalty_constants(data, reference, world),
                world,
            )[budget]
            assert metrics.success_rate == 0.0
            for row in metrics.rows:
                assert row.outcome == "failure"
                assert row.length == 2 * max_len
                assert row.time == budget
                assert abs(row.cost - 2 * max_cost) <= 1e-9
            print(
                f"  [accounting: {len(metrics.rows)} failure rows at "
                f"length {2 * max_len}, time {budget}, cost {2 * max_cost:.4f}]"
            )


class TestBudgetHonestyAndMonotonicity:
    def test_calls_bounded_and_curve_non_decreasing(self):
        with criterion("budget-honesty"):
            rng = random.Random(41)
            checked_plans = 0
            for w in range(6):
                world = generate_world(
                    WorldConfig(
                        n_atoms=rng.randint(2, 6),
                        n_operators=rng.randint(1, 3),
                        n_decoys=rng.randint(1, 4),
                        bb_composites=rng.randint(0, 4),
                        bb_depth=1,
                    ),
                    seed=rng.randrange(2**32),
                )
                data = build_datasets(world, 12, 3, (0.8, 0.1, 0.1), rng.randrange(2**32))
                model = zero_classifier(world.template_ids, ROLE_BACKWARD, dim=512)
                if data.reactions_train:
                    samples = [
                        (featurize_molecule(rx.product, 512), rx.template_id)
                        for rx in data.reactions_train
                    ]
                    model = train(
                        model, samples, TrainConfig(learning_rate=0.1, epochs=3, seed=w)
                    )
                for target in data.targets:
                    budget = rng.randint(0, 40)
                    result = plan(target, model, ZeroEstimator(), budget, 10, world)
                    assert result.model_calls <= budget
                    checked_plans += 1
                curve = evaluate_over_budgets(
                    model, ZeroEstimator(), data.targets, [0, 5, 15, 40, 100], model,
                    penalty_constants(data, model, world), world,
                )
                rates = [metrics.success_rate for metrics in curve.values()]
                assert rates == sorted(rates), rates
            print(f"  [budget-honesty: {checked_plans} plans within budget, curves monotone]")


class TestDeterminism:
    def test_run_all_twice_is_byte_identical(self, tmp_path):
        with criterion("determinism"):
            doc = {
                "version": 1,
                "seeds": [1, 2],
                "dim": 512,
                "world": {
                    "n_atoms": 5,
                    "n_operators": 2,
                    "n_decoys": 3,
                    "bb_composites": 3,
                    "bb_depth": 1,
                },
                "dataset": {"n_targets": 25, "max_depth": 3, "split": [0.8, 0.1, 0.1]},
                "pretrain": {
                    "backward": {"learning_rate": 0.15, "epochs": 5, "batch_size": 64},
                    "forward": {"learning_rate": 0.15, "epochs": 5, "batch_size": 64},
                },
                "loop": {
                    "iterations": 2,
                    "targets_per_iteration": 10,
                    "budget": 20,
                    "epsilon": 0.5,
                    "epsilon_aug": 0.5,
                    "bc": {"learning_rate": 0.1, "epochs": 3, "batch_size": 64},
                },
                "eval": {"budgets": [10, 20], "estimator": "retro0"},
            }
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(doc))
            outs = [tmp_path / "first", tmp_path / "second"]
            for out in outs:
                assert main(["run-all", "--config", str(config_path), "--out", str(out)]) == 0
            contents = []
            for out in outs:
                contents.append(
                    {
                        str(p.relative_to(out)): p.read_bytes()
                        for p in sorted(out.rglob("*.csv"))
                    }
                )
            assert contents[0] == contents[1]
            assert any(name.endswith("summary.csv") for name in contents[0])
            print(f"  [determinism: {len(contents[0])} metrics CSVs byte-identical]")
