import gc
import hashlib
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import retroloop.model as model_module
from retroloop import (
    InvalidInput,
    Molecule,
    NotSolved,
    Template,
    TrainConfig,
    World,
    WorldConfig,
    ZeroEstimator,
    build_datasets,
    extract_route,
    featurize_molecule,
    generate_world,
    likelihood,
    make_reaction,
    mol,
    parse_molecule,
    plan,
    route_cost_under,
    train,
    unfolded_route_cost,
    validate_route,
    zero_classifier,
)
from retroloop.model import ROLE_BACKWARD
from retroloop.planner import (
    DEAD,
    EXPANDED,
    OPEN,
    SOLVED_LEAF,
    MolNode,
    ReactionNode,
    SearchTree,
)
from retroloop.world import KIND_IDENTITY, KIND_SPLIT


def single_split_world():
    return World(
        atoms=("a", "b"),
        operators=("+",),
        templates=(Template(id="split:+", kind=KIND_SPLIT, op="+"),),
        building_blocks=(mol("a"), mol("b")),
    )


def recompute_all_values(tree):
    """Fresh bottom-up values for every row, keyed by ("mol" | "rxn", row)."""
    values = {}

    def walk(node):
        if node.status == SOLVED_LEAF:
            v = 0.0
        elif node.status == OPEN:
            v = float(tree.estimator.evaluate(node.molecule))
        else:
            v = math.inf
            for r in node.children:
                total = r.cost + sum(walk(c) for c in r.children)
                values[("rxn", r.row)] = total
                v = min(v, total)
        values[("mol", node.row)] = v
        return v

    walk(tree.root)
    return values


def check_columns(tree):
    """Row links point both ways, child ranges tile the rows without
    overlapping, each reaction's children are the distinct reactants its
    template derives, with their g, and no column holds a list, a tuple or
    a node object, apart from the ``(float, row)`` keys of ``mol_best``."""
    n_mol, n_rxn = len(tree.mol_molecule), len(tree.rxn_cost)
    columns = {name: col for name, col in vars(tree).items() if name.startswith(("mol_", "rxn_"))}
    assert len(columns) == 11
    for name, col in columns.items():
        assert len(col) == (n_mol if name.startswith("mol_") else n_rxn), name
        for cell in col:
            if name == "mol_best" and cell is not None:
                assert type(cell) is tuple and list(map(type, cell)) == [float, int], cell
            else:
                # Node views are tuples too.
                assert not isinstance(cell, (list, tuple, MolNode, ReactionNode)), name
    assert tree.mol_parent[0] is None
    # Molecule rows 1.. are the children of reactions 0.., in row order.
    child_end = 1
    for r in range(n_rxn):
        first, end = tree.rxn_first[r], tree.rxn_end[r]
        assert first == child_end and first < end
        child_end = end
        product_row = tree.rxn_parent[r]
        reactants = tree.world.template_by_id[tree.rxn_template[r]].backward(
            tree.mol_molecule[product_row]
        )
        texts = sorted(m.text for m in reactants)
        for c in range(first, end):
            assert tree.mol_parent[c] == r
            # The molecule column holds the objects the template hands out.
            assert any(m is tree.mol_molecule[c] for m in reactants)
        assert [tree.mol_molecule[c].text for c in range(first, end)] == list(dict.fromkeys(texts))
        above = tree.mol_parent[product_row]
        g = 0.0 if above is None else tree.rxn_g[above]
        assert tree.rxn_g[r] == g + tree.rxn_cost[r]
    assert child_end == n_mol
    # Reaction rows are the reactions of expanded molecules, one range each,
    # and only expanded molecules have a range. An expanded molecule with no
    # reaction is dead, and a dead molecule has no key.
    rxn_end = 0
    for m in sorted(tree.expanded, key=tree.expanded.__getitem__):
        first, end = tree.expanded[m]
        status = MolNode(tree, m).status
        assert first == rxn_end
        assert status == DEAD or first < end
        assert status == EXPANDED or tree.mol_best[m] is None
        rxn_end = end
        for r in range(first, end):
            assert tree.rxn_parent[r] == m
    assert rxn_end == n_rxn


def reference_extract_route(tree):
    """Route reaction keys, in route order, from a backward pass over every
    molecule row; None when the root has no solved subtree."""
    statuses = [MolNode(tree, row).status for row in range(len(tree.mol_molecule))]
    # By molecule row: (cost, first cheapest reaction row) of the molecule's
    # cheapest solved subtree, (0.0, None) for a building block, None if it
    # has none. Children come after their parents, so a backwards pass
    # settles every child before its parent.
    solved = [None] * len(statuses)
    for row in range(len(statuses) - 1, -1, -1):
        status = statuses[row]
        if status == SOLVED_LEAF:
            solved[row] = (0.0, None)
        elif status == EXPANDED:
            result = None
            for r in range(*tree.expanded[row]):
                total = tree.rxn_cost[r]
                for child in range(tree.rxn_first[r], tree.rxn_end[r]):
                    sub = solved[child]
                    if sub is None:
                        break
                    total += sub[0]
                else:
                    if result is None or total < result[0]:
                        result = (total, r)
            solved[row] = result
    if solved[0] is None:
        return None
    keys = []
    stack = [0]
    while stack:  # pre-order, children left to right
        row = stack.pop()
        r = solved[row][1]
        if r is None:
            continue
        product, tid = tree.mol_molecule[row], tree.rxn_template[r]
        reactants = tree.world.template_by_id[tid].backward(product)
        keys.append(make_reaction(product, reactants, tid).key)
        stack.extend(range(tree.rxn_end[r] - 1, tree.rxn_first[r] - 1, -1))
    return list(dict.fromkeys(keys))


def search(target, model, estimator, budget, k_expand, world):
    """The tree that ``plan`` grows for these arguments, left as it stops."""
    tree = SearchTree(target, model, estimator, k_expand, world)
    while (step := tree.best_partial_route()) and tree.call_count < budget:
        tree.expand(step[0][0])
    return tree


def append_row(tree, prefix, **cells):
    """Append one row to the ``prefix`` columns of a hand-built tree."""
    for name, cell in cells.items():
        getattr(tree, f"{prefix}_{name}").append(cell)


def walk_best_partial_route(tree):
    """Reference selection: every open molecule on the minimum-value partial
    route with its g, by a walk from the root (None: dead, []: complete)."""
    if tree.root.value == math.inf:
        return None
    open_nodes = []
    stack = [(tree.root, 0.0)]
    while stack:
        node, g = stack.pop()
        if node.status == SOLVED_LEAF:
            continue
        if node.status == OPEN:
            open_nodes.append((node, g))
            continue
        best = None
        for r in node.children:  # first strict minimum = insertion order
            if best is None or r.value < best.value:
                best = r
        if best is None or best.value == math.inf:
            return None
        for child in best.children:
            stack.append((child, g + best.cost))
    return open_nodes


class LengthEstimator:
    """A non-zero cost-to-go, so that scores add g and value."""

    kind = "length"

    def evaluate(self, molecule):
        return 0.05 * len(molecule.text)


class TestPlanBasics:
    def test_stock_target_succeeds_without_calls(self, small_world, small_models):
        backward, _, _ = small_models
        result = plan(mol("a"), backward, ZeroEstimator(), 10, 5, small_world)
        assert result.success
        assert result.route.reactions == ()
        assert result.model_calls == 0

    def test_zero_budget_fails_without_calls(self, small_world, small_models):
        backward, _, _ = small_models
        result = plan(mol("(a+b)"), backward, ZeroEstimator(), 0, 5, small_world)
        assert not result.success
        assert result.model_calls == 0

    def test_single_expansion_trace(self):
        world = single_split_world()
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        result = plan(mol("(a+b)"), clf, ZeroEstimator(), 10, 5, world, trace=True)
        assert result.success
        assert result.model_calls == 1
        route = result.route
        assert len(route.reactions) == 1
        rx = route.reactions[0]
        assert rx.product == mol("(a+b)")
        assert rx.reactants == (mol("a"), mol("b"))
        assert rx.template_id == "split:+"
        # with a single template the softmax is exactly 1, so the cost is 0
        expected = -math.log(likelihood(clf, rx, world))
        assert route_cost_under(route, clf, world) == pytest.approx(expected)
        assert len(result.trace) == 1
        assert result.trace[0].molecule == "(a+b)"

    def test_cost_matches_negative_log_probability(self, small_world, small_models):
        backward, _, _ = small_models
        result = plan(mol("(a+b)"), backward, ZeroEstimator(), 10, 5, small_world)
        assert result.success
        rx = result.route.reactions[0]
        expected = -math.log(likelihood(backward, rx, small_world))
        assert route_cost_under(result.route, backward, small_world) == pytest.approx(expected)

    def test_malformed_target_dies_after_one_call(self, small_world, small_models):
        backward, _, _ = small_models
        result = plan(parse_molecule("(a+"), backward, ZeroEstimator(), 10, 5, small_world)
        assert not result.success
        assert result.model_calls == 1

    def test_invalid_arguments(self, small_world, small_models):
        backward, _, _ = small_models
        with pytest.raises(InvalidInput):
            plan(mol("a"), backward, ZeroEstimator(), -1, 5, small_world)
        with pytest.raises(InvalidInput):
            plan(mol("a"), backward, ZeroEstimator(), 5, 0, small_world)

    def test_identity_candidates_are_rejected_as_cycles(self):
        world = World(
            atoms=("a", "b"),
            operators=("+",),
            templates=(
                Template(id="split:+", kind=KIND_SPLIT, op="+"),
                Template(id="identity", kind=KIND_IDENTITY),
            ),
            building_blocks=(mol("a"), mol("b")),
        )
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        tree = SearchTree(mol("(a+b)"), clf, ZeroEstimator(), 5, world)
        tree.expand(tree.root)
        assert [r.template_id for r in tree.root.children] == ["split:+"]


class TestExtractRoute:
    def test_solved_leaf_root_gives_empty_route(self, small_world, small_models):
        backward, _, _ = small_models
        tree = SearchTree(mol("a"), backward, ZeroEstimator(), 5, small_world)
        route = extract_route(tree)
        assert route.reactions == ()

    def test_unsolved_root_raises(self, small_world, small_models):
        backward, _, _ = small_models
        tree = SearchTree(mol("(a+b)"), backward, ZeroEstimator(), 5, small_world)
        with pytest.raises(NotSolved):
            extract_route(tree)

    @staticmethod
    def _alternatives(costs, open_tid=None):
        """Hand-built tree: one reaction under the root per (cost, template
        id), in that order, with the reactants the template derives as its
        children, open at value 0 for ``open_tid`` and solved otherwise. The
        root's value and key are set by the search's upward pass."""
        world = World(
            atoms=("a", "b"),
            operators=("+",),
            templates=(
                Template(id="split:+", kind=KIND_SPLIT, op="+"),
                Template(id="identity", kind=KIND_IDENTITY),
            ),
            building_blocks=(mol("a"), mol("b")),
        )
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        tree = SearchTree(mol("(a+b)"), clf, ZeroEstimator(), 5, world)
        tree.expanded[0] = (0, len(costs))
        for i, (cost, tid) in enumerate(costs):
            start = len(tree.mol_molecule)
            for m in world.template_by_id[tid].backward(tree.mol_molecule[0]):
                key = (cost, len(tree.mol_molecule)) if tid == open_tid else None
                append_row(tree, "mol", molecule=m, parent=i, value=0.0, best=key)
            append_row(
                tree, "rxn", template=tid, cost=cost, g=cost, parent=0, first=start,
                end=len(tree.mol_molecule), value=cost,
            )
        tree._update(0)
        check_columns(tree)
        return tree

    def test_min_cost_reaction_wins(self, small_world):
        # Two solved alternatives under the root at costs 0.3 and 0.7;
        # extraction must take the 0.3 reaction.
        route = extract_route(self._alternatives([(0.7, "split:+"), (0.3, "identity")]))
        assert len(route.reactions) == 1
        assert route.reactions[0].template_id == "identity"
        # Extraction derives the reactants from the template.
        assert route.reactions[0].reactants == (mol("(a+b)"),)

    def test_unfinished_route_raises_despite_a_solved_alternative(self):
        # The 0.7 reaction is solved, but the best partial route takes the
        # 0.3 one, whose reactant is still open: no route is finished.
        tree = self._alternatives([(0.7, "split:+"), (0.3, "identity")], open_tid="identity")
        assert tree.root.value == 0.3 and tree.best_partial_route()
        with pytest.raises(NotSolved):
            extract_route(tree)

    @pytest.mark.parametrize("first", ["split:+", "identity"])
    def test_first_of_equal_cost_reactions_wins(self, first):
        second = "identity" if first == "split:+" else "split:+"
        route = extract_route(self._alternatives([(0.5, first), (0.5, second)]))
        assert [rx.template_id for rx in route.reactions] == [first]

    @staticmethod
    def _check_against_reference(world, clf, estimator, targets, budget, k_expand):
        solved = 0
        for target in targets:
            tree = search(target, clf, estimator, budget, k_expand, world)
            result = plan(target, clf, estimator, budget, k_expand, world)
            expected = reference_extract_route(tree)
            assert result.success == (expected is not None and tree.best_partial_route() == [])
            if result.success:
                solved += 1
                route = extract_route(tree)
                assert route == result.route
                assert [rx.key for rx in route.reactions] == expected
        return solved

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_backward_pass_on_property_worlds(self, seed):
        world, data, clf = TestSearchProperties._random_setup(seed)
        solved = self._check_against_reference(world, clf, ZeroEstimator(), data.targets, 60, 10)
        assert solved > 0

    @pytest.mark.parametrize("estimator", [ZeroEstimator(), LengthEstimator()])
    def test_matches_full_backward_pass_on_golden_worlds(self, estimator):
        world, clf, targets = golden_setup()
        solved = self._check_against_reference(world, clf, estimator, targets, 60, 8)
        assert solved > 0


class TestTreeLifetime:
    def test_plans_leave_no_cyclic_garbage(self, small_world, small_models, small_data):
        # A finished tree must be freed by reference counting alone, so a
        # collection after solved, unsolved and traced plans finds nothing.
        backward, _, _ = small_models
        targets = sorted(small_data.targets, key=lambda t: (-len(t.text), t.text))
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            results = [
                plan(targets[0], backward, ZeroEstimator(), 40, 10, small_world),
                plan(targets[0], backward, ZeroEstimator(), 2, 10, small_world),
                plan(targets[1], backward, ZeroEstimator(), 40, 10, small_world, trace=True),
            ]
            found = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert [r.outcome for r in results] == ["success", "failure", "success"]
        assert results[1].model_calls == 2
        assert found == 0


class TestPlanStartScoring:
    def test_expansions_read_the_scores_of_one_batch(
        self, small_world, small_models, small_data, monkeypatch
    ):
        # ``plan`` scores the target's expandable subterms in one kernel
        # call, featurized through the module-level ``featurize_molecule``
        # that the benchmark's tracer wraps; its expansions then make no
        # kernel call of their own.
        batches, featurized = [], []
        kernel, featurize = model_module._proba_rows, model_module.featurize_molecule

        def counting_kernel(model, fvs):
            batches.append(len(fvs))
            return kernel(model, fvs)

        def counting_featurize(m, dim):
            featurized.append(m.text)
            return featurize(m, dim)

        monkeypatch.setattr(model_module, "_proba_rows", counting_kernel)
        monkeypatch.setattr(model_module, "featurize_molecule", counting_featurize)
        targets = sorted(small_data.targets, key=lambda t: (-len(t.text), t.text))[:15]
        for target in targets:
            model = replace(small_models[0])  # an empty memo
            batches.clear()
            featurized.clear()
            result = plan(target, model, ZeroEstimator(), 60, 10, small_world, trace=True)
            scored = list(model._proba_memo)
            assert batches == [len(scored)] and sorted(featurized) == sorted(scored)
            assert {e.molecule for e in result.trace} <= set(scored)
            for text in scored:
                assert not parse_molecule(text).malformed
                assert text not in small_world.stock
                assert text in target.text

    def test_plans_without_expansions_score_nothing(self, small_world, small_models, small_data):
        block = small_world.building_blocks[-1]
        target = max(small_data.targets, key=lambda t: len(t.text))
        for t, budget in ((target, 0), (block, 10), (Molecule(target.text, malformed=True), 10)):
            model = replace(small_models[0])
            plan(t, model, ZeroEstimator(), budget, 10, small_world)
            assert model._proba_memo == {}


class TestRouteCost:
    def test_empty_route_costs_nothing(self, small_models, small_world):
        backward, _, _ = small_models
        from retroloop import Route

        assert route_cost_under(Route(target=mol("a")), backward, small_world) == 0.0

    def test_probability_one_costs_nothing(self):
        world = single_split_world()
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        from retroloop import Route

        route = Route(
            target=mol("(a+b)"),
            reactions=(make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+"),),
        )
        assert route_cost_under(route, clf, world) == 0.0

    def test_probability_half_costs_ln_two(self):
        world = World(
            atoms=("a", "b"),
            operators=("+",),
            templates=(
                Template(id="split:+", kind=KIND_SPLIT, op="+"),
                Template(id="identity", kind=KIND_IDENTITY),
            ),
            building_blocks=(mol("a"), mol("b")),
        )
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        from retroloop import Route

        route = Route(
            target=mol("(a+b)"),
            reactions=(make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+"),),
        )
        assert route_cost_under(route, clf, world) == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("cost", [route_cost_under, unfolded_route_cost])
    def test_route_is_scored_in_one_batch(
        self, small_world, small_models, small_data, monkeypatch, cost
    ):
        reference = small_models[1]
        route = max(small_data.ground_truth_routes.values(), key=lambda r: len(r.reactions))
        assert len({rx.product.text for rx in route.reactions}) >= 3
        # Each product scored alone fills the memo a row at a time.
        warm = replace(reference)
        for rx in route.reactions:
            model_module.product_proba(warm, rx.product)
        calls = []
        proba_rows = model_module._proba_rows
        monkeypatch.setattr(
            model_module, "_proba_rows", lambda *args: calls.append(args) or proba_rows(*args)
        )
        got = cost(route, replace(reference), small_world)
        assert len(calls) == 1
        assert got == cost(route, warm, small_world)
        assert len(calls) == 1


class TestSearchProperties:
    @staticmethod
    def _random_setup(seed):
        rng = random.Random(seed)
        cfg = WorldConfig(
            n_atoms=rng.randint(2, 5),
            n_operators=rng.randint(1, 2),
            n_decoys=rng.randint(1, 3),
            bb_composites=rng.randint(0, 3),
            bb_depth=1,
        )
        world = generate_world(cfg, rng.randrange(2**32))
        data = build_datasets(world, 15, 3, (0.8, 0.1, 0.1), rng.randrange(2**32))
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        if data.reactions_train:
            samples = [
                (featurize_molecule(rx.product), rx.template_id)
                for rx in data.reactions_train
            ]
            clf = train(clf, samples, TrainConfig(learning_rate=0.1, epochs=4, seed=seed))
        return world, data, clf

    @pytest.mark.parametrize("seed", range(8))
    def test_budget_honesty_and_soundness(self, seed):
        world, data, clf = self._random_setup(seed)
        for i, target in enumerate(data.targets):
            budget = (7 * i + seed) % 30
            result = plan(target, clf, ZeroEstimator(), budget, 10, world)
            assert result.model_calls <= budget
            if result.success:
                assert not validate_route(world, result.route)

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_success_in_budget(self, seed):
        world, data, clf = self._random_setup(seed)
        for target in data.targets[:8]:
            small = plan(target, clf, ZeroEstimator(), 12, 10, world)
            big = plan(target, clf, ZeroEstimator(), 60, 10, world)
            if small.success:
                assert big.success
                assert big.model_calls == small.model_calls
                assert big.route == small.route

    @staticmethod
    def _expand_and_check(tree, steps=25):
        """Expand the selected molecule ``steps`` times, checking selection
        against a full walk and values against a recomputation each time."""
        for _ in range(steps):
            # Selection must be exactly the minimum over a full walk.
            walked = walk_best_partial_route(tree)
            selected = tree.best_partial_route()
            if not walked:
                assert selected == walked
                break
            node, g = min(walked, key=lambda it: (it[1] + it[0].value, it[0].row))
            assert len(selected) == 1
            assert selected[0][0].row == node.row
            assert selected[0][1] == g
            tree.expand(node)
            check_columns(tree)
            fresh = recompute_all_values(tree)

            def check(m):
                assert abs(fresh[("mol", m.row)] - m.value) < 1e-9 or (
                    math.isinf(fresh[("mol", m.row)]) and math.isinf(m.value)
                )
                for r in m.children:
                    assert abs(fresh[("rxn", r.row)] - r.value) < 1e-9 or (
                        math.isinf(fresh[("rxn", r.row)]) and math.isinf(r.value)
                    )
                    for c in r.children:
                        check(c)

            check(tree.root)

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_values_match_recomputation(self, seed):
        world, data, clf = self._random_setup(seed)
        target = max(data.targets, key=lambda t: len(t.text))
        self._expand_and_check(SearchTree(target, clf, ZeroEstimator(), 10, world))

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_selection_with_ties(self, seed):
        # A uniform model gives every reaction the same cost, so reactions
        # tie and the first minimum must decide as in the walk.
        world, data, _ = self._random_setup(seed)
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        target = max(data.targets, key=lambda t: len(t.text))
        self._expand_and_check(SearchTree(target, clf, ZeroEstimator(), 10, world))

    @pytest.mark.parametrize("seed", range(5))
    def test_exhaustive_search_matches_oracle(self, seed):
        from retroloop import brute_force_oracle

        world, data, clf = self._random_setup(seed)
        table = brute_force_oracle(world, clf, list(data.targets), cap=300)
        for target in data.targets:
            optimal = table.costs[target.text]
            result = plan(target, clf, ZeroEstimator(), 50_000, 10, world)
            if math.isinf(optimal):
                assert not result.success
                continue
            assert result.success
            achieved = unfolded_route_cost(result.route, clf, world)
            assert achieved == pytest.approx(optimal, abs=1e-6)


class TestDeterminism:
    def test_identical_plans(self, small_world, small_models, small_data):
        backward, _, _ = small_models
        for target in small_data.targets[:10]:
            a = plan(target, backward, ZeroEstimator(), 40, 10, small_world, trace=True)
            b = plan(target, backward, ZeroEstimator(), 40, 10, small_world, trace=True)
            assert a.outcome == b.outcome
            assert a.model_calls == b.model_calls
            assert a.trace == b.trace
            assert a.route == b.route


def golden_setup():
    """A seeded world, a model with seeded random weights over it, and the
    world's four longest targets."""
    world = generate_world(
        WorldConfig(n_atoms=6, n_operators=3, n_decoys=5, bb_composites=6, bb_depth=1),
        seed=11,
    )
    data = build_datasets(world, 40, 6, (0.8, 0.1, 0.1), seed=5)
    rng = random.Random(17)
    dim = 256
    clf = zero_classifier(world.template_ids, ROLE_BACKWARD, dim)
    clf = replace(
        clf,
        weights=np.array(
            [[rng.uniform(-2.0, 2.0) for _ in range(dim)] for _ in world.template_ids]
        ),
    )
    targets = sorted(data.targets, key=lambda t: (-len(t.text), t.text))[:4]
    return world, clf, targets


def golden_plan_records():
    """Traced plans of the golden targets, with both estimators."""
    world, clf, targets = golden_setup()
    records = []
    for estimator in (ZeroEstimator(), LengthEstimator()):
        for target in targets:
            result = plan(target, clf, estimator, 60, 8, world, trace=True)
            records.append(
                [
                    target.text,
                    result.outcome,
                    result.model_calls,
                    [
                        [e.step, e.molecule, f"{e.g_plus_h:.9g}", e.applicable]
                        for e in result.trace
                    ],
                    None
                    if result.route is None
                    else sorted(rx.key for rx in result.route.reactions),
                ]
            )
    return records


class TestGoldenPlans:
    # Digest of golden_plan_records() under the walk-based selection, the
    # unindexed template scan and the unmemoised featurizer that preceded
    # the incremental versions; any change to an expansion changes it.
    DIGEST = "a892224b9b7f0867"

    def test_traced_plans_are_unchanged(self):
        records = golden_plan_records()
        assert sum(r[2] for r in records) > 200
        text = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.DIGEST
