import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroloop.model as model_module
from retroloop import (
    DEFAULT_DIM,
    EmptyDataset,
    InvalidInput,
    InvalidReaction,
    Molecule,
    Template,
    TrainConfig,
    UnknownTemplate,
    World,
    ZeroEstimator,
    brute_force_oracle,
    featurize_molecule,
    featurize_reactant_set,
    likelihood,
    load_checkpoint,
    make_reaction,
    mol,
    parse_molecule,
    plan,
    predict_topk,
    save_checkpoint,
    topk_exact_match,
    train,
    zero_classifier,
)
from retroloop.errors import CheckpointError
from retroloop.model import (
    ROLE_BACKWARD,
    ROLE_FORWARD,
    FeatureVector,
    _feature_hash,
    mean_nll,
    nll_and_grad,
    predict_proba,
)
from retroloop.world import KIND_CHOP, KIND_SPLIT, parse_ast, subterm_nodes


def two_template_world(decoy_first=False):
    """One operator; a chop decoy and the true split both apply to every composite."""
    split = Template(id="split:+", kind=KIND_SPLIT, op="+")
    chop = Template(id="chop:+:whole", kind=KIND_CHOP, op="+", variant="whole")
    templates = (chop, split) if decoy_first else (split, chop)
    atoms = ("a", "b", "c")
    return World(
        atoms=atoms,
        operators=("+",),
        templates=templates,
        building_blocks=tuple(mol(a) for a in atoms),
    )


def direct_features(m, dim):
    """Reference featurizer: hash every subterm of height <= 2 and the root
    operator, or the character 3-grams of a malformed text."""
    ast = None if m.malformed else parse_ast(m.text)
    if ast is None:
        text = m.text
        if len(text) < 3:
            features = {"#" + text}
        else:
            features = {"#" + text[i : i + 3] for i in range(len(text) - 2)}
    else:
        features = {node.text for node in subterm_nodes(ast) if node.height <= 2}
        if ast.op is not None:
            features.add("op:" + ast.op)
    digests = (hashlib.blake2b(f.encode(), digest_size=8).digest() for f in features)
    return tuple(sorted({int.from_bytes(d, "little") % dim for d in digests}))


def well_formed_terms(max_leaves=40):
    return st.recursive(
        st.sampled_from(["a", "b", "c1", "z"]),
        lambda kids: st.builds(
            lambda l, o, r: f"({l}{o}{r})", kids, st.sampled_from(["+", "*", "^"]), kids
        ),
        max_leaves=max_leaves,
    )


class TestFeaturization:
    @pytest.mark.parametrize("dim", [64, DEFAULT_DIM])
    @given(
        text=st.one_of(
            well_formed_terms(),
            st.text(alphabet="ab1+*()", min_size=1, max_size=16),
            st.text(alphabet="ab+()", min_size=1, max_size=2),
        ),
        flagged=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_composed_features_equal_direct_definition(self, dim, text, flagged):
        m = Molecule(text, malformed=True) if flagged else parse_molecule(text)
        assert featurize_molecule(m, dim) == FeatureVector(dim, direct_features(m, dim))

    def test_atom_sets_a_bit(self):
        assert len(featurize_molecule(mol("a")).indices) >= 1

    def test_deterministic(self):
        m = mol("((a+b)*c)")
        assert featurize_molecule(m) == featurize_molecule(m)

    def test_atom_alphabet_collision_free(self, small_world):
        # The hash must separate every atom in a 26-letter alphabet at D=2048.
        letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
        vectors = {featurize_molecule(mol(a)).indices for a in letters}
        assert len(vectors) == len(letters)
        for a in small_world.atoms:
            for b in small_world.atoms:
                if a != b:
                    assert featurize_molecule(mol(a)) != featurize_molecule(mol(b))

    def test_length_is_dim(self):
        fv = featurize_molecule(mol("(a+b)"), dim=64)
        assert fv.dim == 64
        assert fv.toarray().shape == (64,)
        assert all(0 <= i < 64 for i in fv.indices)

    def test_malformed_uses_trigram_fallback(self):
        fv = featurize_molecule(parse_molecule("(a+b"))
        assert len(fv.indices) >= 1

    def test_root_operator_distinguishes(self):
        assert featurize_molecule(mol("(a+b)")) != featurize_molecule(mol("(a*b)"))

    def test_reactant_set_singleton(self):
        assert featurize_reactant_set([mol("a")]) == featurize_molecule(mol("a"))

    def test_reactant_set_order_invariant(self):
        a, b = mol("a"), mol("(b*c)")
        assert featurize_reactant_set([a, b]) == featurize_reactant_set([b, a])

    def test_reactant_set_is_union(self):
        a, b = mol("a"), mol("(b*c)")
        union = set(featurize_molecule(a).indices) | set(featurize_molecule(b).indices)
        assert set(featurize_reactant_set([a, b]).indices) == union

    @pytest.mark.parametrize("text, flagged_first", [("(x+y)", False), ("(y*x)", True)])
    def test_memo_keeps_malformed_flag_apart(self, text, flagged_first):
        well, flagged = parse_molecule(text), Molecule(text, malformed=True)
        first, second = (flagged, well) if flagged_first else (well, flagged)
        vectors = {m.malformed: featurize_molecule(m) for m in (first, second)}
        grams = {_feature_hash("#" + text[i : i + 3], DEFAULT_DIM) for i in range(len(text) - 2)}
        assert vectors[True].indices == tuple(sorted(grams))
        assert vectors[False] != vectors[True]
        assert vectors[False] == featurize_molecule(mol(text))

    def test_empty_reactant_set_rejected(self):
        with pytest.raises(InvalidInput):
            featurize_reactant_set([])


class TestPrediction:
    def test_zero_model_is_uniform(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        probs = predict_proba(clf, featurize_molecule(mol("(a+b)")))
        assert np.allclose(probs, 1.0 / len(small_world.templates))
        assert abs(probs.sum() - 1.0) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_softmax_normalized_for_random_weights(self, seed, small_world):
        rng = np.random.default_rng(seed)
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD, dim=128)
        clf = type(clf)(
            weights=rng.normal(size=clf.weights.shape) * 3,
            bias=rng.normal(size=clf.bias.shape),
            template_index=clf.template_index,
            role=clf.role,
        )
        probs = predict_proba(clf, featurize_molecule(mol("((a+b)*c)"), dim=128))
        assert abs(probs.sum() - 1.0) < 1e-9
        assert ((probs > 0) & (probs < 1)).all()

    def test_topk_uniform_over_applicable(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        t = len(small_world.templates)
        preds = predict_topk(clf, mol("(a+b)"), t, small_world)
        # identity applies, the + split applies, and the +-gated chops apply
        applicable = [
            tmpl
            for tmpl in small_world.templates
            if tmpl.backward(mol("(a+b)")) is not None
        ]
        assert len(preds) == len(applicable)
        for p in preds:
            assert p.probability == pytest.approx(1.0 / t)

    def test_topk_probabilities_non_increasing(self, small_models, small_world):
        backward, _, _ = small_models
        preds = predict_topk(backward, mol("((a+b)*c)"), 10, small_world)
        probs = [p.probability for p in preds]
        assert probs == sorted(probs, reverse=True)

    def test_topk_monotone_in_k(self, small_models, small_world):
        backward, _, _ = small_models
        p3 = predict_topk(backward, mol("((a+b)*c)"), 3, small_world)
        p6 = predict_topk(backward, mol("((a+b)*c)"), 6, small_world)
        assert p6[:3] == p3

    def test_topk_skips_inapplicable_on_atom(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        preds = predict_topk(clf, mol("a"), len(small_world.templates), small_world)
        assert [p.template_id for p in preds] == ["identity"]

    def test_topk_k_below_one_rejected(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        with pytest.raises(InvalidInput):
            predict_topk(clf, mol("a"), 0, small_world)

    def test_trained_model_puts_its_reaction_first(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        sample = [(featurize_molecule(rx.product), rx.template_id)]
        trained = train(clf, sample, TrainConfig(learning_rate=0.1, epochs=200, seed=0))
        preds = predict_topk(trained, rx.product, 1, small_world)
        assert preds[0].template_id == "split:+"
        assert preds[0].outcome == rx.reactants

    def test_forward_model_joins(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_FORWARD)
        preds = predict_topk(clf, (mol("a"), mol("b")), 10, small_world)
        products = {p.outcome.text for p in preds}
        assert products == {"(a+b)", "(a*b)", "a"} or "(a+b)" in products


def unfiltered_topk(model, inp, k, world):
    """Reference top-k: tries every template in probability order, ties by
    template index, with no index of which templates can fire."""
    if model.role == ROLE_FORWARD:
        fv = featurize_reactant_set(inp, model.dim)
    else:
        fv = featurize_molecule(inp, model.dim)
    probs = predict_proba(model, fv)
    order = sorted(range(model.n_templates), key=lambda i: (-probs[i], i))
    results = []
    for i in order:
        if len(results) >= k:
            break
        tid = model.template_index[i]
        template = world.template_by_id[tid]
        if model.role == ROLE_FORWARD:
            outcome = template.forward(inp)
        else:
            outcome = template.backward(inp)
            if outcome is not None:
                outcome = tuple(sorted(outcome, key=lambda m: m.text))
        if outcome is not None:
            results.append((tid, float(probs[i]), outcome))
    return results


def topk(model, inp, k, world):
    return [tuple(p) for p in predict_topk(model, inp, k, world)]


# Atoms, both world operators (+, *), an operator of the pool the world did
# not draw (^), one no world draws (/), and malformed molecules.
TOPK_PRODUCTS = (
    mol("a"),
    mol("c"),
    mol("(a+b)"),
    mol("(a*a)"),
    mol("((a+b)*c)"),
    mol("(a^b)"),
    mol("((a*b)/c)"),
    parse_molecule("(a+"),
    Molecule("(a+b)", malformed=True),
)


def classifier_like(base, weights=None, bias=None, template_index=None):
    return type(base)(
        weights=base.weights if weights is None else weights,
        bias=base.bias if bias is None else bias,
        template_index=base.template_index if template_index is None else template_index,
        role=base.role,
    )


class TestTopkAgainstUnfiltered:
    def _models(self, small_world, small_models):
        zero = zero_classifier(small_world.template_ids, ROLE_BACKWARD, dim=128)
        rng = np.random.default_rng(5)
        noisy = classifier_like(zero, weights=rng.normal(size=zero.weights.shape))
        return [zero, noisy, small_models[0]]

    def test_backward_matches_reference(self, small_world, small_models):
        for model in self._models(small_world, small_models):
            for product in TOPK_PRODUCTS:
                for k in range(1, model.n_templates + 2):
                    expected = unfiltered_topk(model, product, k, small_world)
                    assert topk(model, product, k, small_world) == expected

    def test_forward_matches_reference(self, small_world, small_models):
        forward = small_models[2]
        for reactants in ((mol("a"), mol("b")), (mol("(a+b)"),), (mol("a"), parse_molecule("(a"))):
            for k in range(1, forward.n_templates + 2):
                expected = unfiltered_topk(forward, reactants, k, small_world)
                assert topk(forward, reactants, k, small_world) == expected

    @pytest.mark.parametrize("ghost_at", [0, 3, None])
    @pytest.mark.parametrize("ghost_bias", [-5.0, 0.0, 5.0])
    def test_unknown_template_matches_reference(self, small_world, small_models, ghost_at, ghost_bias):
        """A ghost row is refused wherever it sits and however it ranks,
        for every product and k; without it the model matches the
        unfiltered reference."""
        base = small_models[0]
        ids = list(base.template_index)
        at = len(ids) if ghost_at is None else ghost_at
        ids.insert(at, "ghost")
        weights = np.insert(base.weights, at, 0.0, axis=0)
        bias = np.insert(base.bias, at, ghost_bias)
        model = classifier_like(base, weights=weights, bias=bias, template_index=tuple(ids))
        for product in TOPK_PRODUCTS:
            for k in range(1, model.n_templates + 2):
                with pytest.raises(UnknownTemplate):
                    predict_topk(model, product, k, small_world)
                expected = unfiltered_topk(base, product, k, small_world)
                assert topk(base, product, k, small_world) == expected

    def test_unknown_template_raises(self, small_world):
        ids = small_world.template_ids + ("ghost",)
        zero = zero_classifier(ids, ROLE_BACKWARD)
        top = classifier_like(zero, bias=np.array([0.0] * (len(ids) - 1) + [1.0]))
        with pytest.raises(UnknownTemplate):
            predict_topk(top, mol("(a+b)"), 1, small_world)
        # ranked last, the ghost is refused too, even where k templates fire
        # before it is reached
        for model_input, k in ((mol("(a+b)"), 1), (mol("a"), 2), (parse_molecule("(a+"), 1)):
            with pytest.raises(UnknownTemplate):
                predict_topk(zero, model_input, k, small_world)


class TestOneWorld:
    @pytest.mark.parametrize("mismatch", ["ghost", "missing", "permuted"])
    def test_model_of_another_world_raises(self, small_world, mismatch):
        """A model whose templates are not exactly the world's, in its
        order, is refused by every function that reads it with the world,
        whatever it would rank first."""
        ids = small_world.template_ids
        ids = {"ghost": ids + ("ghost",), "missing": ids[:-1], "permuted": ids[::-1]}[mismatch]
        backward = zero_classifier(ids, ROLE_BACKWARD, dim=128)
        forward = zero_classifier(ids, ROLE_FORWARD, dim=128)
        product = mol("((a+b)*c)")
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        calls = [
            lambda: predict_topk(backward, product, 1, small_world),
            lambda: predict_topk(forward, (mol("a"), mol("b")), 1, small_world),
            lambda: likelihood(backward, rx, small_world),
            lambda: likelihood(forward, rx, small_world),
            lambda: brute_force_oracle(small_world, backward, [product], cap=100),
            lambda: plan(product, backward, ZeroEstimator(), 10, 1, small_world),
        ]
        for call in calls:
            with pytest.raises(UnknownTemplate):
                call()


class TestDeadEndsAreNotScored:
    def test_no_application_means_no_featurization(self, monkeypatch):
        world = two_template_world()  # split:+ and chop:+:whole, no identity
        model = zero_classifier(world.template_ids, ROLE_BACKWARD)

        def refuse(*args, **kwargs):
            raise AssertionError("a product no template fires on was featurized")

        monkeypatch.setattr(model_module, "featurize_molecule", refuse)
        for product in (parse_molecule("(a+"), Molecule("(a+b)", malformed=True), mol("(a*b)")):
            assert predict_topk(model, product, 3, world) == []

    def test_missing_template_still_raises(self):
        world = two_template_world()
        ghost = zero_classifier(world.template_ids + ("ghost",), ROLE_BACKWARD)
        for product in (parse_molecule("(a+"), mol("(a*b)")):
            with pytest.raises(UnknownTemplate):
                predict_topk(ghost, product, 1, world)


class TestLikelihood:
    def test_zero_model_gives_uniform(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        assert likelihood(clf, rx, small_world) == pytest.approx(
            1.0 / len(small_world.templates)
        )

    def test_distribution_sums_to_one(self, small_models, small_world):
        backward, _, _ = small_models
        probs = predict_proba(backward, featurize_molecule(mol("((a+b)*c)")))
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_trained_single_reaction_exceeds_99(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        sample = [(featurize_molecule(rx.product), rx.template_id)]
        trained = train(clf, sample, TrainConfig(learning_rate=0.1, epochs=500, seed=0))
        assert likelihood(trained, rx, small_world) > 0.99

    def test_unknown_template(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:%")
        with pytest.raises(UnknownTemplate):
            likelihood(clf, rx, small_world)

    def test_mismatched_reaction(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("c")), "split:+")
        with pytest.raises(InvalidReaction):
            likelihood(clf, rx, small_world)

    def test_never_mutates_model(self, small_models, small_world):
        backward, _, _ = small_models
        before_w = backward.weights.copy()
        rx = make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:+")
        likelihood(backward, rx, small_world)
        predict_topk(backward, mol("((a+b)*c)"), 5, small_world)
        assert np.array_equal(backward.weights, before_w)


# Well-formed products over the small world's operators and one it lacks,
# malformed strings, and well-formed texts flagged malformed.
memo_products = st.one_of(
    well_formed_terms(max_leaves=8).map(parse_molecule),
    st.text(alphabet="ab+*()", min_size=1, max_size=8).map(parse_molecule),
    well_formed_terms(max_leaves=4).map(lambda t: Molecule(t, malformed=True)),
)


class TestProbabilityMemo:
    @given(st.lists(memo_products, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_warm_memo_answers_as_a_cold_model(self, small_world, small_models, products):
        warm = classifier_like(small_models[0])
        for product in products:
            predict_topk(warm, product, 3, small_world)
        for product in products:
            for k in (1, warm.n_templates):
                cold = classifier_like(small_models[0])
                assert predict_topk(warm, product, k, small_world) == predict_topk(
                    cold, product, k, small_world
                )
            for tid, reactants in small_world.applications(product):
                rx = make_reaction(product, reactants, tid)
                cold = classifier_like(small_models[0])
                assert likelihood(warm, rx, small_world) == likelihood(cold, rx, small_world)

    def test_new_models_start_with_an_empty_memo(self, small_world, tmp_path):
        model = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        product = mol("((a+b)*c)")
        predict_topk(model, product, 3, small_world)
        assert list(model._proba_memo) == [product.text]
        sample = [(featurize_molecule(product), "split:*")]
        save_checkpoint(model, tmp_path / "model.json")
        others = (
            train(model, sample, TrainConfig(learning_rate=0.5, epochs=5, seed=0)),
            replace(model, bias=model.bias + np.arange(model.n_templates)),
            load_checkpoint(tmp_path / "model.json"),
        )
        for other in others:
            assert other._proba_memo == {}
            expected = predict_proba(other, featurize_molecule(product))
            assert np.array_equal(model_module.product_proba(other, product), expected)

    def test_memo_rows_are_read_only(self, small_world, small_models):
        model = classifier_like(small_models[0])
        product = mol("((a+b)*c)")
        predict_topk(model, product, 3, small_world)
        row = model._proba_memo[product.text]
        assert model_module.product_proba(model, product) is row
        with pytest.raises(ValueError):
            row[0] = 1.0

    def test_flagged_text_is_not_served_the_well_formed_row(self, small_models):
        model = classifier_like(small_models[0])
        well, flagged = mol("((a+b)*c)"), Molecule("((a+b)*c)", malformed=True)
        for first, second in ((well, flagged), (flagged, well)):
            for m in (first, second):
                expected = predict_proba(model, featurize_molecule(m))
                assert np.array_equal(model_module.product_proba(model, m), expected)
        assert not np.array_equal(
            model_module.product_proba(model, well), model_module.product_proba(model, flagged)
        )
        assert list(model._proba_memo) == [well.text]

    def test_forward_models_keep_no_memo(self, small_models):
        forward = classifier_like(small_models[2])
        model_module.product_proba(forward, mol("(a+b)"))
        assert forward._proba_memo == {}


def random_model_and_samples(world, data, dim=256):
    """A classifier with random weights, and weighted samples of the train
    reactions plus one sample without any feature."""
    rng = np.random.default_rng(5)
    clf = classifier_like(
        zero_classifier(world.template_ids, ROLE_BACKWARD, dim),
        weights=rng.normal(size=(len(world.template_ids), dim)) * 0.5,
        bias=rng.normal(size=len(world.template_ids)) * 0.5,
    )
    samples = [
        (featurize_molecule(rx.product, dim), rx.template_id, float(rng.integers(1, 4)))
        for rx in data.reactions_train
    ]
    samples.append((FeatureVector(dim=dim, indices=()), data.reactions_train[0].template_id))
    return clf, samples


class TestScoreSummationOrder:
    def test_scores_are_left_to_right_sums(self, small_world, small_data):
        # Every memoised probability and golden digest rests on this order.
        # A C-ordered gather such as ``weights.take(idx, axis=1)`` is summed
        # pairwise and fails here.
        clf, _ = random_model_and_samples(small_world, small_data)
        splits = (small_data.reactions_train, small_data.reactions_val, small_data.reactions_test)
        molecules = {
            m.text: m for reactions in splits for rx in reactions for m in (rx.product, *rx.reactants)
        }
        assert len(molecules) > 100
        for m in molecules.values():
            fv = featurize_molecule(m, clf.dim)
            idx = np.array(fv.indices, dtype=np.intp)
            expected = np.add.reduce(clf.weights.T[idx], axis=0) + clf.bias
            assert np.array_equal(model_module._scores(clf, fv), expected), m.text


# The dense training path the sparse one replaced: every sample is a full
# 0/1 row of length dim.


def dense_arrays(model, samples):
    x = np.array([fv.toarray() for fv, *_ in samples], dtype=np.float64)
    y = np.array([model.template_index.index(s[1]) for s in samples])
    w = np.array([s[2] if len(s) > 2 else 1.0 for s in samples], dtype=np.float64)
    return x, y, w


def dense_nll_grad(weights, bias, x, y, w):
    logits = x @ weights.T + bias
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    z = e.sum(axis=1, keepdims=True)
    rows = np.arange(len(y))
    logp = logits[rows, y] - np.log(z[:, 0])
    resid = e / z
    resid[rows, y] -= 1.0
    resid *= w[:, None]
    return logp, resid.T @ x, resid.sum(axis=0)


def dense_train(model, samples, cfg):
    x, y, w = dense_arrays(model, samples)
    weights, bias = model.weights.copy(), model.bias.copy()
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            _, grad_w, grad_b = dense_nll_grad(weights, bias, x[idx], y[idx], w[idx])
            weights -= cfg.learning_rate / len(idx) * grad_w
            bias -= cfg.learning_rate / len(idx) * grad_b
    return weights, bias


class TestTraining:
    def _samples(self, world, data):
        return [
            (featurize_molecule(rx.product), rx.template_id)
            for rx in data.reactions_train
        ]

    def test_nll_decreases(self, small_world, small_data):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        samples = self._samples(small_world, small_data)
        before = mean_nll(clf, samples)
        trained = train(clf, samples, TrainConfig(learning_rate=1e-3, epochs=20, seed=0))
        assert mean_nll(trained, samples) < before

    def test_gradient_matches_finite_differences(self, small_world, small_data):
        rng = np.random.default_rng(0)
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD, dim=256)
        clf = type(clf)(
            weights=rng.normal(size=clf.weights.shape) * 0.5,
            bias=rng.normal(size=clf.bias.shape) * 0.5,
            template_index=clf.template_index,
            role=clf.role,
        )
        h = 1e-5
        for rx in small_data.reactions_train[:10]:
            sample = [(featurize_molecule(rx.product, 256), rx.template_id)]
            _, grad_w, grad_b = nll_and_grad(clf, sample)
            for _ in range(20):
                t = int(rng.integers(clf.n_templates))
                d = int(rng.integers(clf.dim))
                w_plus = clf.weights.copy()
                w_plus[t, d] += h
                w_minus = clf.weights.copy()
                w_minus[t, d] -= h
                up = nll_and_grad(type(clf)(w_plus, clf.bias, clf.template_index, clf.role), sample)[0]
                down = nll_and_grad(type(clf)(w_minus, clf.bias, clf.template_index, clf.role), sample)[0]
                fd = (up - down) / (2 * h)
                analytic = grad_w[t, d]
                denom = max(abs(fd), abs(analytic), 1e-8)
                assert abs(fd - analytic) / denom < 1e-5

    def test_full_batch_epoch_steps_along_nll_gradient(self, small_world, small_data):
        # train and nll_and_grad share one gradient, so the finite-difference
        # check above covers the gradient that training follows.
        rng = np.random.default_rng(1)
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD, dim=256)
        clf = type(clf)(
            weights=rng.normal(size=clf.weights.shape) * 0.5,
            bias=rng.normal(size=clf.bias.shape) * 0.5,
            template_index=clf.template_index,
            role=clf.role,
        )
        samples = [
            (featurize_molecule(rx.product, 256), rx.template_id, float(rng.integers(1, 4)))
            for rx in small_data.reactions_train
        ]
        n, lr = len(samples), 0.05
        stepped = train(clf, samples, TrainConfig(learning_rate=lr, epochs=1, batch_size=n))
        _, grad_w, grad_b = nll_and_grad(clf, samples)
        np.testing.assert_allclose(stepped.weights, clf.weights - lr / n * grad_w, rtol=1e-12)
        np.testing.assert_allclose(stepped.bias, clf.bias - lr / n * grad_b, rtol=1e-12)

    @pytest.mark.parametrize("batch_size", [7, 1000], ids=["partial-last-batch", "batch-over-n"])
    def test_sparse_training_matches_dense_reference(self, small_world, small_data, batch_size):
        clf, samples = random_model_and_samples(small_world, small_data)
        assert len(samples) % 7 and len(samples) < 1000
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=batch_size, seed=4)
        trained = train(clf, samples, cfg)
        weights, bias = dense_train(clf, samples, cfg)
        np.testing.assert_allclose(trained.weights, weights, rtol=1e-12)
        np.testing.assert_allclose(trained.bias, bias, rtol=1e-12)

    def test_nll_and_grad_match_dense_reference(self, small_world, small_data):
        clf, samples = random_model_and_samples(small_world, small_data)
        x, y, w = dense_arrays(clf, samples)
        logp, grad_w, grad_b = dense_nll_grad(clf.weights, clf.bias, x, y, w)
        total, sparse_w, sparse_b = nll_and_grad(clf, samples)
        np.testing.assert_allclose(total, -(w * logp).sum(), rtol=1e-12)
        np.testing.assert_allclose(sparse_w, grad_w, rtol=1e-12)
        np.testing.assert_allclose(sparse_b, grad_b, rtol=1e-12)

    def test_sample_without_features_trains(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD, dim=64)
        empty = FeatureVector(dim=64, indices=())
        trained = train(clf, [(empty, "split:+")], TrainConfig(learning_rate=0.5, epochs=2))
        assert not trained.weights.any()
        assert np.argmax(trained.bias) == clf._row_of["split:+"]

    def test_inactive_columns_keep_their_weights(self, small_world, small_data):
        clf, samples = random_model_and_samples(small_world, small_data)
        active = sorted({i for fv, *_ in samples for i in fv.indices})
        inactive = np.setdiff1d(np.arange(clf.dim), active)
        assert len(inactive)
        trained = train(clf, samples, TrainConfig(learning_rate=0.05, epochs=3, batch_size=16))
        assert np.array_equal(trained.weights[:, inactive], clf.weights[:, inactive])
        assert not np.array_equal(trained.weights[:, active], clf.weights[:, active])

    @pytest.mark.parametrize("fv_dim", [128, 512])
    def test_feature_dim_must_match_model(self, small_world, fv_dim):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD, dim=256)
        sample = (featurize_molecule(mol("((a+b)*c)"), fv_dim), "split:+")
        with pytest.raises(InvalidInput):
            train(clf, [sample], TrainConfig())
        with pytest.raises(InvalidInput):
            nll_and_grad(clf, [sample])

    def test_empty_data_rejected(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        with pytest.raises(EmptyDataset):
            train(clf, [], TrainConfig())

    def test_unknown_template_rejected(self, small_world):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        with pytest.raises(UnknownTemplate):
            train(clf, [(featurize_molecule(mol("a")), "nope")], TrainConfig())

    def test_training_is_bit_deterministic(self, small_world, small_data):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        samples = self._samples(small_world, small_data)
        cfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=32, seed=9)
        a = train(clf, samples, cfg)
        b = train(clf, samples, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_input_model_untouched(self, small_world, small_data):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        train(clf, self._samples(small_world, small_data), TrainConfig(epochs=1))
        assert not clf.weights.any()
        assert not clf.bias.any()

    def test_weight_doubles_gradient(self, small_world):
        rng = np.random.default_rng(3)
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD, dim=128)
        clf = type(clf)(
            weights=rng.normal(size=clf.weights.shape),
            bias=rng.normal(size=clf.bias.shape),
            template_index=clf.template_index,
            role=clf.role,
        )
        fv = featurize_molecule(mol("((a+b)*c)"), 128)
        _, g1w, g1b = nll_and_grad(clf, [(fv, "split:+", 1.0)])
        _, g2w, g2b = nll_and_grad(clf, [(fv, "split:+", 2.0)])
        assert np.array_equal(g2w, 2.0 * g1w)
        assert np.array_equal(g2b, 2.0 * g1b)

    def test_validation_of_train_config(self):
        from retroloop.errors import InvalidConfig

        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=0)
        with pytest.raises(InvalidConfig):
            TrainConfig(batch_size=0)


# The batch builder before the per-epoch gather: each batch gathers its own
# samples' CSR rows and finds its columns with np.unique. Training with it and
# the out-of-place dense_nll_grad is the reference that train and nll_and_grad
# must equal bit for bit.


def unique_batch(rows, idx):
    starts = rows.indptr[idx]
    lengths = rows.indptr[idx + 1] - starts
    owner = np.repeat(np.arange(len(idx)), lengths)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    cols, col_of = np.unique(rows.indices[starts[owner] + rank], return_inverse=True)
    xs = np.zeros((len(idx), len(cols)), dtype=np.float64)
    xs[owner, col_of] = 1.0
    return cols, xs


def unique_train(model, samples, cfg):
    rows = model_module._as_rows(model, samples)
    n = len(rows.y)
    weights, bias = model.weights.copy(), model.bias.copy()
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            cols, xs = unique_batch(rows, idx)
            active = weights[:, cols]
            _, grad_w, grad_b = dense_nll_grad(active, bias, xs, rows.y[idx], rows.w[idx])
            scale = cfg.learning_rate / len(idx)
            weights[:, cols] = active - scale * grad_w
            bias -= scale * grad_b
    return weights, bias


def unique_nll_and_grad(model, samples):
    rows = model_module._as_rows(model, samples)
    cols, xs = unique_batch(rows, np.arange(len(rows.y)))
    logp, grad_u, grad_b = dense_nll_grad(model.weights[:, cols], model.bias, xs, rows.y, rows.w)
    grad_w = np.zeros_like(model.weights)
    grad_w[:, cols] = grad_u
    return float(-(rows.w * logp).sum()), grad_w, grad_b


class TestPerEpochGather:
    """Every sample set here has weights and one sample without features."""

    @pytest.mark.parametrize(
        "dim, batch_size",
        [(64, 7), (2048, 7), (256, 1), (256, 1000)],
        ids=["dim64-partial-last-batch", "dim2048-partial-last-batch", "batch-size-1", "batch-over-n"],
    )
    def test_train_equals_per_batch_reference(self, small_world, small_data, dim, batch_size):
        clf, samples = random_model_and_samples(small_world, small_data, dim)
        assert len(samples) % 7 and len(samples) < 1000
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=batch_size, seed=4)
        trained = train(clf, samples, cfg)
        weights, bias = unique_train(clf, samples, cfg)
        assert np.array_equal(trained.weights, weights)
        assert np.array_equal(trained.bias, bias)

    @pytest.mark.parametrize("dim", [64, 2048])
    def test_nll_and_grad_equal_per_batch_reference(self, small_world, small_data, dim):
        clf, samples = random_model_and_samples(small_world, small_data, dim)
        total, grad_w, grad_b = nll_and_grad(clf, samples)
        ref_total, ref_w, ref_b = unique_nll_and_grad(clf, samples)
        assert total == ref_total
        assert np.array_equal(grad_w, ref_w)
        assert np.array_equal(grad_b, ref_b)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 300),
        batches=st.lists(st.lists(st.integers(0, 299), max_size=40), min_size=1, max_size=5),
    )
    def test_column_index_equals_unique(self, dim, batches):
        # One builder answers batch after batch, as within a training run.
        builder = model_module._Batches(dim)
        for bits in batches:
            bits = np.array([b % dim for b in bits], dtype=np.intp)
            cols, col_of = builder.columns(bits)
            ref_cols, ref_of = np.unique(bits, return_inverse=True)
            assert np.array_equal(cols, ref_cols)
            assert np.array_equal(col_of, ref_of)


class TestExactMatch:
    def test_monotone_in_k(self, small_models, small_data, small_world):
        backward, _, _ = small_models
        acc1, acc10 = topk_exact_match(backward, small_data.reactions_test, (1, 10), small_world)
        assert acc1 <= acc10

    def test_perfect_model_hits_everything(self, small_world, small_data):
        clf = zero_classifier(small_world.template_ids, ROLE_BACKWARD)
        samples = [
            (featurize_molecule(rx.product), rx.template_id)
            for rx in small_data.reactions_train
        ]
        trained = train(clf, samples, TrainConfig(learning_rate=0.3, epochs=40, seed=1))
        k = len(small_world.templates)
        assert topk_exact_match(trained, small_data.reactions_train, (k,), small_world) == (1.0,)

    def test_zero_model_tie_break_decides_top1(self):
        # With zero weights every template is equally likely, so the template
        # index order decides top-1: a decoy listed first wins every tie.
        reactions = [
            make_reaction(mol(f"({a}+{b})"), (mol(a), mol(b)), "split:+")
            for a, b in [("a", "b"), ("a", "c"), ("b", "c"), ("a", "a"), ("c", "c")]
        ]
        decoy_first = two_template_world(decoy_first=True)
        clf = zero_classifier(decoy_first.template_ids, ROLE_BACKWARD)
        assert topk_exact_match(clf, reactions, (1, 2), decoy_first) == (0.0, 1.0)

        split_first = two_template_world(decoy_first=False)
        clf = zero_classifier(split_first.template_ids, ROLE_BACKWARD)
        assert topk_exact_match(clf, reactions, (1,), split_first) == (1.0,)

    def test_empty_test_set_rejected(self, small_models, small_world):
        backward, _, _ = small_models
        with pytest.raises(EmptyDataset):
            topk_exact_match(backward, [], (1,), small_world)


class TestCheckpoints:
    def test_round_trip(self, small_models, tmp_path):
        backward, _, _ = small_models
        path = tmp_path / "model.json"
        save_checkpoint(backward, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.weights, backward.weights)
        assert np.array_equal(loaded.bias, backward.bias)
        assert loaded.template_index == backward.template_index
        assert loaded.role == backward.role

    def test_rewrite_is_byte_stable(self, small_models, tmp_path):
        backward, _, _ = small_models
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(backward, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dim", [0, 1, 64])
    def test_bytes_equal_one_json_document(self, tmp_path, dim):
        model = zero_classifier(("split:+", "identity", "chop:+:left"), ROLE_BACKWARD, dim=dim)
        weights = np.random.default_rng(3).normal(size=model.weights.shape)
        weights.flat[: min(3, weights.size)] = [np.nan, np.inf, -np.inf][: weights.size]
        model = replace(model, weights=weights, bias=np.array([0.5, -np.inf, 1e-300]))
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        doc = {
            "version": 1,
            "role": model.role,
            "dim": dim,
            "template_index": list(model.template_index),
            "weights": weights.reshape(-1).tolist(),
            "bias": model.bias.tolist(),
        }
        assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"

    def test_unreadable_checkpoint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_dimension_mismatch(self, small_models, tmp_path):
        backward, _, _ = small_models
        path = tmp_path / "model.json"
        save_checkpoint(backward, path)
        doc = json.loads(path.read_text())
        doc["weights"] = doc["weights"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
