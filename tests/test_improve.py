from collections import Counter

import numpy as np
import pytest

from retroloop import improve
from retroloop.errors import EmptyDataset, InvalidReaction
from retroloop.improve import (
    LoopConfig,
    PretrainConfig,
    augment,
    behavioral_clone,
    collect_reactions,
    pretrain_models,
    run_self_improvement,
)
from retroloop.model import (
    DEFAULT_DIM,
    ROLE_BACKWARD,
    ROLE_FORWARD,
    TrainConfig,
    featurize_molecule,
    featurize_reactant_set,
    likelihood,
    predict_topk,
    train,
    zero_classifier,
)
from retroloop.planner import PlanResult, ZeroEstimator, plan
from retroloop.world import (
    KIND_CHOP,
    KIND_SPLIT,
    Route,
    Template,
    World,
    make_reaction,
    validate_route,
)
from retroloop.world import parse_molecule as mol


@pytest.fixture(scope="module")
def harvest(small_world, small_models, small_data):
    """Success routes from planning a couple dozen targets."""
    backward, _, _ = small_models
    routes = []
    for target in small_data.targets[:25]:
        result = plan(target, backward, ZeroEstimator(), 60, 10, small_world)
        if result.success:
            routes.append(result.route)
    assert routes
    return routes


def pure_split_world():
    return World(
        atoms=("a", "b", "c"),
        operators=("+",),
        templates=(Template(id="split:+", kind=KIND_SPLIT, op="+"),),
        building_blocks=(mol("a"), mol("b"), mol("c")),
    )


class TestCollect:
    def test_zero_threshold_keeps_everything(self, harvest, small_models, small_world):
        _, reference, _ = small_models
        collected = collect_reactions(harvest, reference, 0.0, small_world)
        assert len(collected) == sum(len(r.reactions) for r in harvest)

    def test_threshold_one_keeps_nothing(self, harvest, small_models, small_world):
        _, reference, _ = small_models
        assert len(collect_reactions(harvest, reference, 1.0, small_world)) == 0

    def test_monotone_in_threshold(self, harvest, small_models, small_world):
        _, reference, _ = small_models
        loose = Counter(rx.key for rx in collect_reactions(harvest, reference, 0.2, small_world))
        tight = Counter(rx.key for rx in collect_reactions(harvest, reference, 0.6, small_world))
        for key, count in tight.items():
            assert loose[key] >= count

    def test_duplicates_counted_per_route(self, small_models, small_world):
        _, reference, _ = small_models
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        route = Route(target=mol("(a+b)"), reactions=(rx,))
        collected = collect_reactions([route, route], reference, 0.0, small_world)
        assert Counter(r.key for r in collected)[rx.key] == 2


class TestAugment:
    def test_threshold_one_rejects_everything(self, harvest, small_models, small_world):
        _, reference, forward = small_models
        collected = collect_reactions(harvest, reference, 0.0, small_world)
        assert len(augment(collected, forward, reference, 1.0, small_world)) == 0

    def test_exact_models_reproduce_products(self):
        world = pure_split_world()
        table = [
            make_reaction(mol(t), (mol(t[1]), mol(t[3])), "split:+")
            for t in ["(a+b)", "(a+c)", "(b+c)", "(a+a)", "(b+b)"]
        ]
        samples_b = [(featurize_molecule(rx.product), rx.template_id) for rx in table]
        samples_f = [
            (featurize_reactant_set(rx.reactants), rx.template_id) for rx in table
        ]
        cfg = TrainConfig(learning_rate=0.5, epochs=50)
        reference = train(
            zero_classifier(world.template_ids, ROLE_BACKWARD), samples_b, cfg, 0
        )
        forward = train(
            zero_classifier(world.template_ids, ROLE_FORWARD), samples_f, cfg, 0
        )
        augmented = augment(table, forward, reference, 0.8, world)
        assert len(augmented) == len(table)
        for original, new in zip(table, augmented):
            assert new.product == original.product
            assert new.reactants == original.reactants

    def test_backward_argmax_disagreement_rejects(self):
        split = Template(id="split:+", kind=KIND_SPLIT, op="+")
        chop = Template(id="chop:+:whole", kind=KIND_CHOP, op="+", variant="whole")
        world = World(
            atoms=("a", "b", "c"),
            operators=("+",),
            templates=(split, chop),
            building_blocks=(mol("a"), mol("b"), mol("c")),
        )
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        collection = (rx,)
        forward = zero_classifier(world.template_ids, ROLE_FORWARD)
        # the uniform forward model proposes the + join at probability 1/2

        rigged = zero_classifier(world.template_ids, ROLE_BACKWARD)
        favour_chop = type(rigged)(
            weights=rigged.weights,
            bias=np.array([0.0, 5.0]),
            template_index=rigged.template_index,
            role=rigged.role,
        )
        assert len(augment(collection, forward, favour_chop, 0.4, world)) == 0

        favour_split = type(rigged)(
            weights=rigged.weights,
            bias=np.array([5.0, 0.0]),
            template_index=rigged.template_index,
            role=rigged.role,
        )
        assert len(augment(collection, forward, favour_split, 0.4, world)) == 1

    def test_accepted_entries_satisfy_both_checks(
        self, harvest, small_models, small_world
    ):
        _, reference, forward = small_models
        collected = collect_reactions(harvest, reference, 0.0, small_world)
        augmented = augment(collected, forward, reference, 0.2, small_world)
        for rx in augmented:
            proposals = predict_topk(forward, rx.reactants, 1, small_world)
            tid, probability, product = proposals[0]
            assert tid == rx.template_id
            assert probability > 0.2
            assert product == rx.product
            backs = predict_topk(reference, rx.product, 1, small_world)
            back_tid, _, reactants = backs[0]
            assert back_tid == rx.template_id
            assert reactants == rx.reactants


class TestBehavioralClone:
    def test_single_reaction_to_confidence(self, small_world):
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        model = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        cloned = behavioral_clone(model, (rx,), TrainConfig(learning_rate=0.1, epochs=500), 0)
        assert likelihood(cloned, rx, small_world) > 0.99

    def test_multiset_weighting_matches_repeats(self, small_world):
        rx1 = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        rx2 = make_reaction(mol("(c*d)"), (mol("c"), mol("d")), "split:*")
        model = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16)
        doubled = behavioral_clone(model, (rx1, rx1, rx2), cfg, 4)
        weighted = train(
            model,
            [
                (featurize_molecule(rx1.product), rx1.template_id, 2.0),
                (featurize_molecule(rx2.product), rx2.template_id, 1.0),
            ],
            cfg,
            4,
        )
        assert np.array_equal(doubled.weights, weighted.weights)

    def test_empty_collection_rejected(self, small_world):
        model = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        with pytest.raises(EmptyDataset):
            behavioral_clone(model, (), TrainConfig(), 0)


class TestLoop:
    def test_defaults_mirror_reference_settings(self):
        cfg = LoopConfig()
        assert cfg.iterations == 3
        assert cfg.epsilon == 0.8
        assert cfg.epsilon_aug == 0.8

    def test_zero_budget_leaves_model_unchanged(
        self, small_world, small_data, small_models, monkeypatch
    ):
        planned = []

        def recording(target, *args, **kwargs):
            result = plan(target, *args, **kwargs)
            planned.append((target, result))
            return result

        monkeypatch.setattr(improve, "plan", recording)
        cfg = LoopConfig(iterations=2, targets_per_iteration=5, budget=0)
        backward, reference, forward = small_models
        final, reports = run_self_improvement(
            cfg, small_world, small_data, pretrained=small_models, seed=3
        )
        assert np.array_equal(final.weights, backward.weights)
        # Budget 0 expands nothing, so only a target already in stock is
        # solved, by a route without reactions. small_data holds one such
        # target, (a+d), which ground truth should never have drawn.
        assert len(planned) == 10
        for target, result in planned:
            assert result.model_calls == 0
            assert result.success == small_world.is_building_block(target)
        assert sum(r.routes_succeeded for r in reports) == sum(r.success for _, r in planned)
        for report in reports:
            assert report.reactions_harvested == 0
            assert report.kept_after_filter == 0

    def test_reference_and_forward_stay_frozen(self, small_world, small_data, small_models):
        backward, reference, forward = small_models
        ref_w = reference.weights.copy()
        fwd_w = forward.weights.copy()
        cfg = LoopConfig(
            iterations=2,
            targets_per_iteration=15,
            budget=40,
            epsilon=0.1,
            bc=TrainConfig(learning_rate=0.05, epochs=3),
        )
        run_self_improvement(cfg, small_world, small_data, pretrained=small_models, seed=5)
        assert np.array_equal(reference.weights, ref_w)
        assert np.array_equal(forward.weights, fwd_w)

    def test_report_count_invariants(self, small_world, small_data, small_models):
        cfg = LoopConfig(
            iterations=2,
            targets_per_iteration=20,
            budget=40,
            epsilon=0.3,
            bc=TrainConfig(learning_rate=0.05, epochs=3),
        )
        final, reports = run_self_improvement(
            cfg, small_world, small_data, pretrained=small_models, seed=8
        )
        assert len(reports) == cfg.iterations
        for report in reports:
            assert report.routes_succeeded <= report.routes_attempted
            assert report.kept_after_filter <= report.reactions_harvested
            assert report.augmented_accepted <= report.kept_after_filter
            assert report.duplicates_retained <= report.augmented_accepted

    def test_kept_reactions_come_from_valid_harvested_routes(
        self, small_world, small_data, small_models, monkeypatch
    ):
        _, reference, _ = small_models
        harvests = []

        def recording(routes, ref, epsilon, world):
            kept = collect_reactions(routes, ref, epsilon, world)
            harvests.append((tuple(routes), kept))
            return kept

        monkeypatch.setattr(improve, "collect_reactions", recording)
        cfg = LoopConfig(
            iterations=1,
            targets_per_iteration=20,
            budget=40,
            epsilon=0.8,  # high enough that the filter drops some reactions
            bc=TrainConfig(learning_rate=0.05, epochs=3),
        )
        _, reports = run_self_improvement(
            cfg, small_world, small_data, pretrained=small_models, seed=8
        )
        [report] = reports
        [(routes, kept)] = harvests
        assert 0 < len(kept) < report.reactions_harvested
        assert len(routes) == report.routes_succeeded
        assert sum(len(route.reactions) for route in routes) == report.reactions_harvested
        assert len(kept) == report.kept_after_filter
        for route in routes:
            assert not validate_route(small_world, route)
        for rx in kept:
            assert any(rx.key in {r.key for r in route.reactions} for route in routes)
            assert likelihood(reference, rx, small_world) > cfg.epsilon

    def test_an_invalid_route_raises_naming_its_target(
        self, small_world, small_data, small_models, monkeypatch
    ):
        # A raised error, not an assert, so that ``python -O`` keeps the check.
        block = small_world.building_blocks[0]
        planned = []

        def wrong_plan(target, *args, **kwargs):
            planned.append(target)
            rx = make_reaction(target, (block,), "identity")
            return PlanResult("success", Route(target=target, reactions=(rx,)), 1)

        monkeypatch.setattr(improve, "plan", wrong_plan)
        cfg = LoopConfig(iterations=1, targets_per_iteration=3, budget=10)
        with pytest.raises(InvalidReaction) as info:
            run_self_improvement(cfg, small_world, small_data, pretrained=small_models, seed=8)
        [target] = planned
        assert str(info.value) == (
            f"route for {target.text}: template identity does not map {target.text} "
            "to the stated reactants"
        )

    def test_deterministic(self, small_world, small_data, small_models):
        cfg = LoopConfig(
            iterations=2,
            targets_per_iteration=15,
            budget=40,
            epsilon=0.3,
            bc=TrainConfig(learning_rate=0.05, epochs=3),
        )
        a, reports_a = run_self_improvement(
            cfg, small_world, small_data, pretrained=small_models, seed=13
        )
        b, reports_b = run_self_improvement(
            cfg, small_world, small_data, pretrained=small_models, seed=13
        )
        assert np.array_equal(a.weights, b.weights)
        assert reports_a == reports_b


class TestPretrainModels:
    def test_backward_initialized_to_reference(self, small_world, small_data):
        quick = TrainConfig(learning_rate=0.1, epochs=3)
        backward, reference, forward = pretrain_models(
            small_world, small_data, PretrainConfig(quick, quick), DEFAULT_DIM, 1
        )
        assert np.array_equal(backward.weights, reference.weights)
        assert np.array_equal(backward.bias, reference.bias)
        assert backward.role == ROLE_BACKWARD
        assert reference.role == ROLE_BACKWARD
        assert forward.role == ROLE_FORWARD
