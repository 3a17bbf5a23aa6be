import math
import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroloop.evaluate as evaluate_module
import retroloop.model as model_module
from retroloop import (
    CapExceeded,
    Dataset,
    EmptyDataset,
    OracleEstimator,
    Template,
    TrainConfig,
    UnknownTemplate,
    World,
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
    predict_topk,
    train,
    zero_classifier,
)
from retroloop.errors import InvalidInput
from retroloop.model import ROLE_BACKWARD, predict_proba, product_proba
from retroloop.world import KIND_IDENTITY, KIND_SPLIT, WorldConfig, subterms


def plus_identity_world():
    return World(
        atoms=("a", "b"),
        operators=("+",),
        templates=(
            Template(id="split:+", kind=KIND_SPLIT, op="+"),
            Template(id="identity", kind=KIND_IDENTITY),
        ),
        building_blocks=(mol("a"), mol("b")),
    )


def naive_min_cost(world, clf, molecule, visited=frozenset()):
    """Independent recursive enumerator of the additive minimum route cost."""
    if world.is_building_block(molecule):
        return 0.0
    if molecule.malformed or molecule.text in visited:
        return math.inf
    probs = predict_proba(clf, featurize_molecule(molecule, clf.dim))
    best = math.inf
    for i, template in enumerate(world.templates):
        reactants = template.backward(molecule)
        if reactants is None:
            continue
        texts = {r.text for r in reactants}
        if molecule.text in texts:
            continue
        total = -math.log(probs[i])
        for text in sorted(texts):
            total += naive_min_cost(
                world, clf, parse_molecule(text), visited | {molecule.text}
            )
        best = min(best, total)
    return best


def reachable(world, roots, known):
    """Breadth-first over ``world.applications`` from ``roots``, identity
    skipped: every molecule found and not in ``known``, by text. Building
    blocks and ``known`` molecules are not expanded."""
    found = {m.text: m for m in roots if m.text not in known}
    queue = deque(found.values())
    while queue:
        m = queue.popleft()
        if world.is_building_block(m):
            continue
        for _, reactants in world.applications(m):
            if m.text in {r.text for r in reactants}:
                continue
            for r in reactants:
                if r.text not in known and r.text not in found:
                    found[r.text] = r
                    queue.append(r)
    return found


def sign_bits(costs):
    """Costs with the sign of each value, so that 0.0 and -0.0 differ."""
    return {text: (v, math.copysign(1.0, v)) for text, v in costs.items()}


class TestEvaluatePlanning:
    def test_stock_targets_are_free(self, small_world, small_models, small_penalties):
        backward, reference, _ = small_models
        targets = [mol(a) for a in small_world.atoms]
        metrics = evaluate_over_budgets(
            backward, ZeroEstimator(), targets, [50], reference, small_penalties, small_world
        )[50]
        assert metrics.success_rate == 1.0
        assert metrics.avg_length == 0.0
        assert metrics.avg_time == 0.0
        assert metrics.avg_cost == 0.0

    def test_failure_penalty_rows(self):
        world = plus_identity_world()
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        data = build_datasets(world, 12, 3, (0.8, 0.1, 0.1), seed=5)
        max_len = max(len(r.reactions) for r in data.ground_truth_routes.values())
        # every reaction costs exactly ln 2 under the uniform two-template model
        max_cost = max_len * math.log(2.0)
        unsynth = [mol("(a*b)"), parse_molecule("(a+")]
        metrics = evaluate_over_budgets(
            clf, ZeroEstimator(), unsynth, [50], clf, penalty_constants(data, clf, world), world
        )[50]
        assert metrics.success_rate == 0.0
        for row in metrics.rows:
            assert row.outcome == "failure"
            assert row.length == 2 * max_len
            assert row.time == 50
            assert row.cost == pytest.approx(2 * max_cost, abs=1e-9)

    def test_mixed_targets_accounting(self, small_world, small_models, small_data, small_penalties):
        backward, reference, _ = small_models
        targets = list(small_data.targets[:10]) + [mol("(a?b)")]
        metrics = evaluate_over_budgets(
            backward, ZeroEstimator(), targets, [40], reference, small_penalties, small_world
        )[40]
        assert len(metrics.rows) == len(targets)
        wins = sum(1 for r in metrics.rows if r.outcome == "success")
        fails = sum(1 for r in metrics.rows if r.outcome == "failure")
        assert wins + fails == len(targets)
        assert metrics.success_rate == wins / len(targets)
        assert all(r.cost >= 0 for r in metrics.rows)
        assert metrics.avg_time <= 40

    def test_deterministic(self, small_world, small_models, small_data, small_penalties):
        backward, reference, _ = small_models
        a = evaluate_over_budgets(
            backward, ZeroEstimator(), small_data.targets[:15], [30], reference, small_penalties,
            small_world,
        )
        b = evaluate_over_budgets(
            backward, ZeroEstimator(), small_data.targets[:15], [30], reference, small_penalties,
            small_world,
        )
        assert a == b

    def test_empty_targets_rejected(self, small_world, small_models, small_penalties):
        backward, reference, _ = small_models
        with pytest.raises(EmptyDataset):
            evaluate_over_budgets(
                backward, ZeroEstimator(), [], [10], reference, small_penalties, small_world
            )

    def test_multi_budget_consistency(self, small_world, small_models, small_data, small_penalties):
        backward, reference, _ = small_models
        targets = small_data.targets[:15]
        multi = evaluate_over_budgets(
            backward, ZeroEstimator(), targets, [10, 40], reference, small_penalties, small_world
        )
        for budget in (10, 40):
            single = evaluate_over_budgets(
                backward, ZeroEstimator(), targets, [budget], reference, small_penalties, small_world
            )
            assert multi[budget] == single[budget]


class TestOracle:
    def test_stock_molecule_is_free(self, small_world, small_models):
        _, reference, _ = small_models
        table = brute_force_oracle(small_world, reference, [mol("a")], cap=100)
        assert table.costs["a"] == 0.0

    def test_single_option_cost(self):
        world = plus_identity_world()
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        table = brute_force_oracle(world, clf, [mol("(a+b)")], cap=100)
        q = predict_proba(clf, featurize_molecule(mol("(a+b)")))[0]
        assert table.costs["(a+b)"] == pytest.approx(-math.log(q))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_enumeration(self, seed):
        world = generate_world(
            WorldConfig(n_atoms=3, n_operators=2, n_decoys=2, bb_composites=1, bb_depth=1),
            seed=seed,
        )
        data = build_datasets(world, 8, 2, (0.8, 0.1, 0.1), seed=seed + 50)
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        if data.reactions_train:
            samples = [
                (featurize_molecule(rx.product), rx.template_id)
                for rx in data.reactions_train
            ]
            clf = train(clf, samples, TrainConfig(learning_rate=0.2, epochs=5, seed=seed))
        table = brute_force_oracle(world, clf, list(data.targets), cap=400)
        assert table.explored <= 400
        for target in data.targets:
            expected = naive_min_cost(world, clf, target)
            got = table.costs[target.text]
            if math.isinf(expected):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, abs=1e-9)

    def test_cap_exceeded(self, small_world, small_models, small_data):
        _, reference, _ = small_models
        big = max(small_data.targets, key=lambda t: len(t.text))
        with pytest.raises(CapExceeded):
            brute_force_oracle(small_world, reference, [big], cap=2)

    def test_unsynthesizable_is_infinite(self, small_world, small_models):
        _, reference, _ = small_models
        table = brute_force_oracle(small_world, reference, [mol("(a?b)")], cap=100)
        assert math.isinf(table.costs["(a?b)"])

    def test_model_without_an_applicable_template_is_rejected(self):
        world = plus_identity_world()
        clf = zero_classifier(("identity",), ROLE_BACKWARD)
        with pytest.raises(UnknownTemplate):
            brute_force_oracle(world, clf, [mol("(a+b)")], cap=100)

    def test_cap_counts_only_molecules_not_yet_costed(self):
        world = plus_identity_world()
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        with pytest.raises(CapExceeded):
            brute_force_oracle(world, clf, [mol("((a+b)+a)")], cap=1)
        known = {"(a+b)": math.log(2.0), "a": 0.0, "b": 0.0}
        table = brute_force_oracle(world, clf, [mol("((a+b)+a)")], cap=1, known=known)
        assert table.explored == 1
        assert table.costs == {"((a+b)+a)": 2 * math.log(2.0)}

    @pytest.mark.parametrize("seed", range(4))
    def test_table_holds_every_reachable_molecule(self, seed):
        """Chop decoys leave malformed fragments: each is explored, costed
        INF and counted toward ``explored`` and ``cap``."""
        world = generate_world(
            WorldConfig(n_atoms=3, n_operators=2, n_decoys=4, bb_composites=1, bb_depth=1),
            seed=seed,
        )
        data = build_datasets(world, 12, 3, (0.8, 0.1, 0.1), seed=seed + 50)
        clf = zero_classifier(world.template_ids, ROLE_BACKWARD)
        roots = list(data.targets)
        first = brute_force_oracle(world, clf, roots[: len(roots) // 2], cap=10_000)
        for known in ({}, first.costs):
            found = reachable(world, roots, known)
            table = brute_force_oracle(world, clf, roots, cap=len(found), known=known)
            assert table.costs.keys() == found.keys()
            assert table.explored == len(table.costs)
            malformed = [m for m in found.values() if m.malformed]
            blocks = [m for m in found.values() if world.is_building_block(m)]
            if not known:
                assert malformed and blocks
            assert all(table.costs[m.text] == math.inf for m in malformed)
            assert all(sign_bits(table.costs)[m.text] == (0.0, 1.0) for m in blocks)
            if len(found) > len(roots):
                with pytest.raises(CapExceeded):
                    brute_force_oracle(world, clf, roots, cap=len(found) - 1, known=known)


# Well-formed products over the small world's operators and one it lacks.
oracle_products = st.recursive(
    st.sampled_from("abcz"),
    lambda kids: st.builds(lambda l, o, r: f"({l}{o}{r})", kids, st.sampled_from("+*^"), kids),
    max_leaves=6,
).map(mol)


class TestOracleMemo:
    @given(st.lists(oracle_products, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_warm_memo_prices_as_a_cold_model(self, small_world, small_models, products):
        reference = small_models[1]
        warm = replace(reference)
        for product in products:
            predict_topk(warm, product, 10, small_world)
        estimator = OracleEstimator(small_world, warm)
        for product in products:
            cold = replace(reference)
            costs = brute_force_oracle(small_world, cold, [product], cap=50_000).costs
            assert brute_force_oracle(small_world, warm, [product], cap=50_000).costs == costs
            assert estimator.evaluate(product) == costs[product.text]

    def test_one_scoring_batch_per_call(self, small_world, small_models, small_data, monkeypatch):
        reference = small_models[1]
        product = max(small_data.targets, key=lambda t: t.height)
        warm = replace(reference)
        explored = brute_force_oracle(small_world, warm, [product], cap=50_000).costs
        scored = [m for m in subterms(product) if m.text in warm._proba_memo]
        assert len(scored) >= 3
        # Each product scored alone fills the memo a row at a time.
        warm = replace(reference)
        for m in scored:
            product_proba(warm, m)
        calls = []
        proba_rows = model_module._proba_rows
        monkeypatch.setattr(
            model_module, "_proba_rows", lambda *args: calls.append(args) or proba_rows(*args)
        )
        cold = replace(reference)
        costs = brute_force_oracle(small_world, cold, [product], cap=50_000).costs
        assert len(calls) == 1
        assert sorted(cold._proba_memo) == sorted(m.text for m in scored)
        warm_costs = brute_force_oracle(small_world, warm, [product], cap=50_000).costs
        assert len(calls) == 1
        assert sign_bits(costs) == sign_bits(warm_costs) == sign_bits(explored)


class TestOracleEstimator:
    def test_never_needs_more_calls_than_zero(self, small_world, small_models, small_data):
        backward, reference, _ = small_models
        oracle_est = OracleEstimator(small_world, reference)
        zero_est = ZeroEstimator()
        for target in small_data.targets[:12]:
            z = plan(target, reference, zero_est, 100_000, 10, small_world)
            o = plan(target, reference, oracle_est, 100_000, 10, small_world)
            if z.success:
                assert o.success
                assert o.model_calls <= z.model_calls

    @pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
    def test_each_molecule_is_costed_once_and_exactly(
        self, small_world, small_models, small_data, monkeypatch, order
    ):
        _, reference, _ = small_models
        molecules = list(
            {m.text: m for target in small_data.targets for m in subterms(target)}.values()
        )
        if order == "reverse":
            molecules.reverse()
        elif order == "shuffled":
            random.Random(0).shuffle(molecules)
        from_scratch = brute_force_oracle
        tables = []

        def recording(*args, **kwargs):
            tables.append(from_scratch(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(evaluate_module, "brute_force_oracle", recording)
        est = OracleEstimator(small_world, reference)
        estimates = [est.evaluate(m) for m in molecules]
        monkeypatch.undo()
        for m, estimate in zip(molecules, estimates):
            alone = from_scratch(small_world, reference, [m], cap=50_000)
            assert estimate == alone.costs[m.text], m.text
        costed = set().union(*(table.costs for table in tables))
        assert len(tables) < len(molecules)
        assert sum(table.explored for table in tables) == len(costed)

    def test_estimates_match_table(self, small_world, small_models):
        _, reference, _ = small_models
        est = OracleEstimator(small_world, reference)
        table = brute_force_oracle(small_world, reference, [mol("(a+b)")], cap=50_000)
        assert est.evaluate(mol("(a+b)")) == pytest.approx(table.costs["(a+b)"])


class TestSuccessCurve:
    def test_zero_budget_point(self, small_world, small_models, small_data, small_penalties):
        backward, reference, _ = small_models
        targets = [t for t in small_data.targets if not small_world.is_building_block(t)]
        curve = evaluate_over_budgets(
            backward, ZeroEstimator(), targets[:5], [0], reference, small_penalties, small_world
        )
        assert list(curve) == [0]
        assert curve[0].success_rate == 0.0

    def test_non_decreasing(self, small_world, small_models, small_data, small_penalties):
        backward, reference, _ = small_models
        curve = evaluate_over_budgets(
            backward, ZeroEstimator(), small_data.targets[:20], [0, 5, 10, 25, 50],
            reference, small_penalties, small_world,
        )
        rates = [m.success_rate for m in curve.values()]
        assert rates == sorted(rates)

    def test_budget_pair_format(self, small_world, small_models, small_data, small_penalties):
        backward, reference, _ = small_models
        curve = evaluate_over_budgets(
            backward, ZeroEstimator(), small_data.targets[:5], [50, 500],
            reference, small_penalties, small_world,
        )
        assert list(curve) == [50, 500]
        assert [m.budget for m in curve.values()] == [50, 500]
        assert all(0.0 <= m.success_rate <= 1.0 for m in curve.values())

    def test_unsorted_budgets_rejected(self, small_world, small_models, small_data, small_penalties):
        backward, reference, _ = small_models
        with pytest.raises(InvalidInput):
            evaluate_over_budgets(
                backward, ZeroEstimator(), small_data.targets[:3], [50, 10],
                reference, small_penalties, small_world,
            )
