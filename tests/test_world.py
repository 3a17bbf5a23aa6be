import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retroloop.cli import build_world_data, load_config
from retroloop.errors import InvalidConfig, InvalidInput
from retroloop.model import featurize_molecule
from retroloop.world import (
    ATOM_CHARS,
    DATASET_FILES,
    KIND_CHOP,
    KIND_IDENTITY,
    KIND_SPLIT,
    OPERATOR_CHARS,
    OPERATOR_POOL,
    DatasetConfig,
    Molecule,
    Route,
    Template,
    World,
    WorldConfig,
    build_datasets,
    compose,
    generate_world,
    make_reaction,
    parse_ast,
    parse_molecule,
    sample_ground_truth_route,
    save_dataset,
    save_world,
    subterms,
    validate_route,
)
from retroloop.world import parse_molecule as mol


def terms(atoms="abc", ops="+*", max_leaves=8):
    atom = st.sampled_from(list(atoms))
    return st.recursive(
        atom,
        lambda kids: st.builds(
            lambda l, o, r: f"({l}{o}{r})", kids, st.sampled_from(list(ops)), kids
        ),
        max_leaves=max_leaves,
    )


def _scan_term(text, i):
    """Reference recursive-descent parser: the shape (see ``shape``) of one
    term from ``i`` and the index after it, or None."""
    n = len(text)
    if i >= n:
        return None
    if text[i] == "(":
        left = _scan_term(text, i + 1)
        if left is None:
            return None
        lshape, j = left
        if j >= n or text[j] not in OPERATOR_CHARS:
            return None
        op = text[j]
        right = _scan_term(text, j + 1)
        if right is None:
            return None
        rshape, k = right
        if k >= n or text[k] != ")":
            return None
        height = 1 + max(lshape[3], rshape[3])
        return (text[i : k + 1], False, op, height, lshape, rshape), k + 1
    j = i
    while j < n and text[j] in ATOM_CHARS:
        j += 1
    if j == i:
        return None
    return (text[i:j], False, None, 0, None, None), j


def reference_parse(text):
    result = _scan_term(text, 0)
    if result is None:
        return None
    found, end = result
    return found if end == len(text) else None


def shape(m):
    """``(text, malformed, op, height, left shape, right shape)`` of ``m``,
    down to its atoms; ``==`` of molecules reads only the first two."""
    if m is None:
        return None
    return (m.text, m.malformed, m.op, m.height, shape(m.left), shape(m.right))


# Atoms, world and non-world operators, parens, and a character that is neither.
PARSE_ALPHABET = "ab1+*/()A"


@st.composite
def mutated_terms(draw):
    text = draw(terms(atoms="ab1", ops="+*/"))
    pos = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(PARSE_ALPHABET))
    edit = draw(st.sampled_from(("insert", "delete", "replace", "none")))
    if edit == "insert":
        return text[:pos] + char + text[pos:]
    if edit == "delete":
        return text[:pos] + text[pos + 1 :]
    if edit == "replace":
        return text[:pos] + char + text[pos + 1 :]
    return text


class TestParsing:
    def test_composite_is_well_formed(self):
        assert not parse_molecule("(a+b)").malformed

    def test_atom_is_well_formed(self):
        assert not parse_molecule("a").malformed

    def test_unbalanced_is_malformed(self):
        assert parse_molecule("(a+").malformed

    def test_trailing_garbage_is_malformed(self):
        assert parse_molecule("(a+b))").malformed

    def test_empty_raises(self):
        with pytest.raises(InvalidInput):
            parse_molecule("")

    def test_equality_is_by_text(self):
        assert mol("(a+b)") == mol("(a+b)")
        assert mol("(a+b)") != mol("(b+a)")

    def test_only_the_parser_builds_composites(self):
        with pytest.raises(InvalidInput):
            Molecule("(a+b)")
        with pytest.raises(InvalidInput):
            Molecule("")
        assert Molecule("a") == mol("a") and hash(Molecule("a")) == hash(mol("a"))
        assert Molecule("(a+", malformed=True) == mol("(a+")

    @given(terms())
    def test_generated_terms_parse(self, text):
        ast = parse_ast(text)
        assert ast is not None
        assert ast.text == text

    @given(terms())
    def test_prefixed_paren_breaks_parsing(self, text):
        assert parse_molecule("(" + text).malformed

    @given(st.one_of(st.text(PARSE_ALPHABET, max_size=16), terms(ops="+*/"), mutated_terms()))
    @settings(max_examples=500)
    def test_agrees_with_reference_parser(self, text):
        ref = reference_parse(text)
        ast = parse_ast(text)
        assert shape(ast) == ref
        if text:
            if ast is None:
                assert parse_molecule(text).malformed
            else:
                assert parse_molecule(text) is ast

    def test_cached_trees_share_subtrees(self):
        ast = parse_ast("((a+b)*c)")
        assert ast.left is parse_ast("(a+b)")
        assert ast.right is parse_ast("c")


_FRESH = itertools.count()


def fresh_atoms(text):
    """``text`` with each atom renamed to one no earlier call made, so neither
    the parse cache nor the term table has seen any of its terms."""
    n = next(_FRESH)
    return "".join(f"{c}t{n}" if c in ATOM_CHARS else c for c in text)


class TestTermTable:
    @given(terms(), st.sampled_from("+*/"), terms(), st.booleans())
    def test_compose_and_parse_give_one_object(self, left, op, right, compose_first):
        left, right = fresh_atoms(left), fresh_atoms(right)
        text = f"({left}{op}{right})"
        if compose_first:
            term = compose(parse_ast(left), op, parse_ast(right))
            assert parse_ast(text) is term
        else:
            term = parse_ast(text)
            assert compose(parse_ast(left), op, parse_ast(right)) is term
        assert parse_molecule(text) is term
        assert (term.text, term.op, term.left, term.right) == (text, op, mol(left), mol(right))
        assert term.left is parse_ast(left) and term.right is parse_ast(right)
        assert term.height == 1 + max(term.left.height, term.right.height)
        assert shape(term) == reference_parse(text)

    def test_a_cleared_parse_cache_keeps_one_object_per_text(self):
        term = compose(mol("u9"), "+", compose(mol("v9"), "*", mol("w9")))
        parse_ast.cache_clear()
        assert parse_ast("(u9+(v9*w9))") is term
        assert parse_ast("(v9*w9)") is term.right and parse_ast("u9") is term.left

    @pytest.mark.parametrize(
        "left, op, right",
        [("a", "x", "b"), ("a", "++", "b"), ("(a+", "+", "b"), ("a", "+", "(a+")],
    )
    def test_malformed_operands_and_non_operators_are_rejected(self, left, op, right):
        with pytest.raises(InvalidInput):
            compose(mol(left), op, mol(right))

    @given(terms(), st.sampled_from("+*"), terms())
    def test_split_forward_gives_the_table_term(self, left, op, right):
        left, right = fresh_atoms(left), fresh_atoms(right)
        split = Template(id=f"split:{op}", kind=KIND_SPLIT, op=op)
        product = split.forward((mol(left), mol(right)))
        assert product.text == f"({left}{op}{right})"
        assert product is parse_ast(product.text)

    def test_generation_parses_nothing(self, small_world):
        before = parse_ast.cache_info()
        build_datasets(small_world, DatasetConfig(60, 6), seed=3)
        for seed in range(20):
            sample_ground_truth_route(small_world, seed % 5, seed, leaf_prob=0.1)
        after = parse_ast.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


class TestTemplates:
    split_plus = Template(id="split:+", kind=KIND_SPLIT, op="+")
    split_star = Template(id="split:*", kind=KIND_SPLIT, op="*")

    def test_split_backward(self):
        assert self.split_plus.backward(mol("(a+b)")) == (mol("a"), mol("b"))

    def test_split_backward_operator_mismatch(self):
        assert self.split_plus.backward(mol("(a*b)")) is None

    def test_split_backward_nested(self):
        assert self.split_star.backward(mol("((a+b)*c)")) == (mol("(a+b)"), mol("c"))

    def test_split_backward_malformed(self):
        assert self.split_plus.backward(parse_molecule("(a+")) is None

    def test_split_backward_atom(self):
        assert self.split_plus.backward(mol("a")) is None

    def test_join_forward(self):
        assert self.split_plus.forward((mol("a"), mol("b"))) == mol("(a+b)")

    def test_forward_arity_mismatch(self):
        assert self.split_plus.forward((mol("a"), mol("b"), mol("c"))) is None

    def test_round_trip_single(self):
        m = mol("(x*y)")
        assert self.split_star.forward(self.split_star.backward(m)) == m

    @given(terms(max_leaves=12))
    @settings(max_examples=200)
    def test_round_trip_property(self, text):
        m = mol(text)
        ast = parse_ast(text)
        if ast.op is None:
            return
        template = Template(id=f"split:{ast.op}", kind=KIND_SPLIT, op=ast.op)
        reactants = template.backward(m)
        assert reactants is not None
        assert template.forward(reactants) == m

    def test_round_trip_duplicate_sides(self):
        m = mol("(a+a)")
        reactants = self.split_plus.backward(m)
        assert reactants == (mol("a"), mol("a"))
        assert self.split_plus.forward(reactants) == m

    def test_identity_backward_returns_self(self):
        t = Template(id="identity", kind=KIND_IDENTITY)
        assert t.backward(mol("(a+b)")) == (mol("(a+b)"),)

    @pytest.mark.parametrize("variant", ["left", "right", "whole"])
    def test_chop_output_contains_malformed(self, variant):
        t = Template(id="chop", kind=KIND_CHOP, op="+", variant=variant)
        out = t.backward(mol("((a*b)+c)"))
        assert out is not None
        assert any(m.malformed for m in out)

    def test_chop_forward_never_applicable(self):
        t = Template(id="chop", kind=KIND_CHOP, op="+", variant="left")
        assert t.forward((mol("a"), mol("b"))) is None

    @pytest.mark.parametrize(
        "kind, op, variant",
        [
            (KIND_SPLIT, None, None),
            (KIND_CHOP, None, "left"),
            (KIND_IDENTITY, "+", None),
            (KIND_CHOP, "+", None),
            (KIND_CHOP, "+", "x"),
            (KIND_SPLIT, "+", "left"),
            (KIND_IDENTITY, None, "whole"),
        ],
    )
    def test_fields_its_kind_does_not_have_are_rejected(self, kind, op, variant):
        with pytest.raises(InvalidInput, match="'bad:template'"):
            Template(id="bad:template", kind=kind, op=op, variant=variant)


def reparsed_backward(template, product):
    """Reference backward: every reactant, chop fragments included, is built
    by parsing its text afresh."""
    ast = None if product.malformed else parse_ast(product.text)
    if ast is None:
        return None
    if template.kind == KIND_IDENTITY:
        return (product,)
    if ast.op != template.op:
        return None
    left, right = ast.left.text, ast.right.text
    if template.kind == KIND_SPLIT:
        return (parse_molecule(left), parse_molecule(right))
    if template.variant == "left":
        return (parse_molecule("(" + left), parse_molecule(right))
    if template.variant == "right":
        return (parse_molecule(left), parse_molecule("(" + right))
    return (parse_molecule("(" + product.text),)


# Identity first and the splits last, so template order differs from kind order.
BACKWARD_WORLD = World(
    atoms=("a", "b", "1"),
    operators=("+", "*"),
    templates=(
        Template(id="identity", kind=KIND_IDENTITY),
        Template(id="chop:+:left", kind=KIND_CHOP, op="+", variant="left"),
        Template(id="chop:*:right", kind=KIND_CHOP, op="*", variant="right"),
        Template(id="chop:+:whole", kind=KIND_CHOP, op="+", variant="whole"),
        Template(id="split:*", kind=KIND_SPLIT, op="*"),
        Template(id="split:+", kind=KIND_SPLIT, op="+"),
    ),
    building_blocks=(mol("a"), mol("b"), mol("1")),
)

# Well-formed terms over world and non-world operators, atoms, mutated
# strings (mostly malformed), and well-formed texts flagged malformed.
backward_products = st.one_of(
    terms(atoms="ab1", ops="+*/", max_leaves=10).map(parse_molecule),
    st.sampled_from("ab1").map(parse_molecule),
    mutated_terms().filter(bool).map(parse_molecule),
    terms(atoms="ab1", ops="+*").map(lambda t: Molecule(t, malformed=True)),
)


class TestBackwardFromParseTree:
    @given(backward_products)
    @settings(max_examples=400)
    def test_reactants_equal_their_parse(self, product):
        for template in BACKWARD_WORLD.templates:
            out = template.backward(product)
            assert out == reparsed_backward(template, product)
            if out is not None:
                # Molecule equality compares the malformed flag too.
                assert out == tuple(parse_molecule(m.text) for m in out)

    @given(backward_products)
    @settings(max_examples=400)
    def test_applications_match_every_template_in_order(self, product):
        expected = []
        for template in BACKWARD_WORLD.templates:
            reactants = reparsed_backward(template, product)
            if reactants is not None:
                expected.append((template.id, tuple(sorted(reactants, key=lambda m: m.text))))
        assert BACKWARD_WORLD.applications(product) == expected

    @given(terms(atoms="ab1", ops="+*", max_leaves=10))
    def test_chop_fragments_stay_out_of_the_parse_cache(self, text):
        product = mol(text)  # parses the product and caches its subtrees
        before = parse_ast.cache_info()
        for template in BACKWARD_WORLD.templates:
            if template.kind == KIND_CHOP:
                template.backward(product)
        after = parse_ast.cache_info()
        # Misses count a fragment parse even when the cache is full.
        assert (after.currsize, after.misses) == (before.currsize, before.misses)


class TestSharedOperands:
    @given(terms(atoms="ab1", ops="+*", max_leaves=10).filter(lambda t: t[0] == "("))
    def test_split_and_chop_outputs_are_the_parse_tree_molecules(self, text):
        product = mol(text)
        left, right = product.left, product.right
        expected = {
            "split": (left, right),
            "left": (left.fragment(), right),
            "right": (left, right.fragment()),
            "whole": (product.fragment(),),
        }
        for template in BACKWARD_WORLD.templates:
            if template.kind == KIND_IDENTITY or template.op != product.op:
                continue
            out = template.backward(product)
            shared = expected[template.variant or template.kind]
            assert len(out) == len(shared)
            assert all(a is b for a, b in zip(out, shared))

    def test_each_node_builds_its_fragment_once(self):
        # Atoms no other test uses, so no earlier test built the fragment.
        chop = Template(id="chop:+:left", kind=KIND_CHOP, op="+", variant="left")
        left = parse_ast("((q7*r7)+s7)").left
        assert left._fragment is None  # built on first use
        first = chop.backward(mol("((q7*r7)+s7)"))[0]
        assert first == Molecule("((q7*r7)", malformed=True)
        assert left._fragment is first
        # Another product with the same left operand reuses the fragment.
        assert chop.backward(mol("((q7*r7)+q7)"))[0] is first
        assert left.fragment() is first

    def test_value_objects_have_no_instance_dict(self):
        m = mol("((a+b)*c)")
        objects = (
            m,
            m.fragment(),
            make_reaction(m, (m.left, m.right), "split:*"),
            featurize_molecule(m),
        )
        for obj in objects:
            assert not hasattr(obj, "__dict__"), type(obj).__name__


@st.composite
def worlds_and_products(draw):
    """A generated world and products to apply its templates to: its
    building blocks, atoms, dataset targets, random terms over every operator a
    molecule may parse with, a mutated string, and all their subterms."""
    cfg = WorldConfig(
        n_atoms=draw(st.integers(1, 6)),
        n_operators=draw(st.integers(1, len(OPERATOR_POOL))),
        n_decoys=draw(st.integers(1, 25)),
        bb_composites=draw(st.integers(0, 6)),
        bb_depth=draw(st.integers(0, 2)),
    )
    world = generate_world(cfg, draw(st.integers(0, 2**16)))
    data = build_datasets(world, DatasetConfig(5, 3), seed=draw(st.integers(0, 2**16)))
    ops = OPERATOR_POOL + "/"  # "/" parses but no world has it
    randoms = draw(st.lists(terms(atoms=world.atoms, ops=ops, max_leaves=8), max_size=4))
    roots = [*world.building_blocks, *map(mol, world.atoms), *data.targets, *map(mol, randoms)]
    products = [s for m in roots for s in subterms(m)]
    products.append(parse_molecule(draw(mutated_terms().filter(bool))))
    return world, products


class TestHeightInvariant:
    """What ``Template`` states: identity gives back its product; every other
    reactant is a strict subterm of the product or malformed."""

    @given(worlds_and_products())
    @settings(max_examples=60, deadline=None)
    def test_reactions_only_go_down_in_height(self, case):
        world, products = case
        for product in products:
            below = {s.text for s in subterms(product)} - {product.text}
            for tid, reactants in world.applications(product):
                if world.template_by_id[tid].kind == KIND_IDENTITY:
                    assert reactants == (product,), tid
                    continue
                for r in reactants:
                    if r.malformed:
                        assert r.height == 0 and world.applications(r) == [], (tid, r)
                    else:
                        assert r.text in below and r.height < product.height, (tid, r)


class TestReactantCount:
    @given(worlds_and_products())
    @settings(max_examples=60, deadline=None)
    def test_every_application_has_one_or_two_sorted_reactants(self, case):
        # World.applications sorts reactants with one comparison, which sorts
        # only up to two; the planner's repeated-reactant skip and
        # topk_exact_match's comparison rely on that order.
        world, products = case
        for product in products:
            for tid, reactants in world.applications(product):
                texts = [r.text for r in reactants]
                assert len(texts) in (1, 2), (
                    f"{tid} gives {len(texts)} reactants: World.applications' sort "
                    "orders at most two"
                )
                assert texts == sorted(texts), tid


class TestGenerateWorld:
    def test_determinism(self):
        cfg = WorldConfig(n_atoms=26, n_operators=3, n_decoys=5, bb_composites=8, bb_depth=2)
        assert save_world(generate_world(cfg, 7)) == save_world(generate_world(cfg, 7))

    def test_seed_changes_world(self):
        cfg = WorldConfig(n_atoms=5, n_operators=2, n_decoys=2, bb_composites=6, bb_depth=2)
        w1, w2 = generate_world(cfg, 1), generate_world(cfg, 2)
        assert w1.building_blocks != w2.building_blocks

    def test_count_floor(self):
        w = generate_world(WorldConfig(2, 1, 1, 0, 0), seed=0)
        assert len(w.templates) >= 2

    def test_atoms_are_building_blocks(self):
        w = generate_world(WorldConfig(), seed=1)
        for atom in w.atoms:
            assert w.is_building_block(mol(atom))

    def test_split_per_operator_and_a_decoy(self):
        w = generate_world(WorldConfig(4, 3, 2, 0, 0), seed=5)
        kinds = {(t.kind, t.op) for t in w.templates}
        for op in w.operators:
            assert (KIND_SPLIT, op) in kinds
        assert any(t.kind in (KIND_CHOP, KIND_IDENTITY) for t in w.templates)

    def test_template_ids_unique(self):
        w = generate_world(WorldConfig(4, 2, 25, 0, 0), seed=5)
        ids = [t.id for t in w.templates]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("cfg", [{"n_atoms": 0}, {"n_operators": 0}])
    def test_zero_counts_rejected(self, cfg):
        with pytest.raises(InvalidConfig):
            generate_world(WorldConfig(**cfg), 0)

    def test_dead_end_soundness(self, small_world):
        rng = random.Random(0)
        chops = [t for t in small_world.templates if t.kind == KIND_CHOP]
        assert chops
        for _ in range(200):
            target, _ = sample_ground_truth_route(small_world, 3, rng.randrange(2**32))
            for chop in chops:
                out = chop.backward(target)
                if out is None:
                    continue
                dead = [
                    m
                    for m in out
                    if not small_world.is_building_block(m)
                    and all(t.backward(m) is None for t in small_world.templates)
                ]
                assert dead, f"chop {chop.id} produced no dead end for {target.text}"


class TestRoutes:
    def test_depth_zero(self, small_world):
        target, route = sample_ground_truth_route(small_world, 0, seed=4)
        assert route.reactions == ()
        assert small_world.is_building_block(target)
        assert not validate_route(small_world, route)

    def test_depth_two_sizes(self, small_world):
        target, route = sample_ground_truth_route(small_world, 2, seed=11)
        assert 1 <= len(route.reactions) <= 3
        assert not validate_route(small_world, route)
        assert route.target == target

    def test_determinism(self, small_world):
        a = sample_ground_truth_route(small_world, 4, seed=99)
        b = sample_ground_truth_route(small_world, 4, seed=99)
        assert a == b

    def test_generator_output_always_validates(self, small_world):
        for seed in range(120):
            _, route = sample_ground_truth_route(small_world, 5, seed)
            assert not validate_route(small_world, route)

    def test_validator_rejects_unknown_reactant(self, small_world):
        # (a+b) -> {a, b} is fine, but a route whose reactant (c*c) is never
        # produced and is not stock must fail condition B.
        bad = Route(
            target=mol("((c*c)+a)"),
            reactions=(
                make_reaction(mol("((c*c)+a)"), (mol("(c*c)"), mol("a")), "split:+"),
            ),
        )
        problems = validate_route(small_world, bad)
        assert any("neither a building block nor a product" in p for p in problems)

    def test_validator_rejects_wrong_template(self, small_world):
        bad = Route(
            target=mol("(a+b)"),
            reactions=(make_reaction(mol("(a+b)"), (mol("a"), mol("b")), "split:*"),),
        )
        assert validate_route(small_world, bad)

    def test_validator_rejects_missing_target_reaction(self, small_world):
        bad = Route(
            target=mol("(a+b)"),
            reactions=(make_reaction(mol("(b+b)"), (mol("b"), mol("b")), "split:+"),),
        )
        assert validate_route(small_world, bad)


class TestDatasets:
    def test_partition(self, small_world):
        data = build_datasets(small_world, DatasetConfig(100, 4), seed=5)
        pool = set()
        for split in (data.reactions_train, data.reactions_val, data.reactions_test):
            for rx in split:
                assert rx.key not in pool, "splits overlap"
                pool.add(rx.key)
        total = len(data.reactions_train) + len(data.reactions_val) + len(data.reactions_test)
        assert total == len(pool)

    def test_single_stock_target(self, small_world):
        data = build_datasets(small_world, DatasetConfig(1, 0), seed=5)
        assert len(data.targets) == 1
        assert data.reactions_train == ()
        assert data.reactions_val == ()
        assert data.reactions_test == ()

    def test_determinism(self, small_world):
        a = build_datasets(small_world, DatasetConfig(40, 4), seed=5)
        b = build_datasets(small_world, DatasetConfig(40, 4), seed=5)
        assert a == b

    def test_ground_truth_routes_validate(self, small_data, small_world):
        for target in small_data.targets:
            route = small_data.ground_truth_routes[target.text]
            assert not validate_route(small_world, route)

    def test_bad_fractions_rejected(self):
        with pytest.raises(InvalidConfig):
            DatasetConfig(5, 2, (0.5, 0.2, 0.2))
        with pytest.raises(InvalidConfig):
            DatasetConfig(0, 2)


class TestGoldenGeneration:
    """The bytes of ``world.json`` and of every dataset file that
    ``cli.build_world_data`` makes for ``configs/reference.json``. Generation
    may get faster but must not change them; ROADMAP item 1, which stops
    ground truth from splitting composites that are building blocks, updates
    these digests on purpose."""

    DIGESTS = {
        1: {
            "world": "ee4ff8465df9e744",
            "targets": "624c7db17a203367",
            "reactions_train": "83e3fca0d87b32a7",
            "reactions_val": "0e794ab84d453629",
            "reactions_test": "b9832cea8ba9fb20",
            "routes": "8902f9f5f5b36a9c",
        },
        2: {
            "world": "1e5048c6f9ee80a9",
            "targets": "2952513d1dc61f0c",
            "reactions_train": "8c9bd67dd09a2ce6",
            "reactions_val": "e1bcade1f3d8a6c5",
            "reactions_test": "a117dce878ea471b",
            "routes": "cd96061691df2ae7",
        },
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_reference_world_and_dataset_bytes(self, seed):
        cfg, _doc = load_config(Path(__file__).resolve().parent.parent / "configs/reference.json")
        world, data = build_world_data(cfg, seed)
        texts = {"world": save_world(world)}
        texts.update((name, save_dataset(data, name)) for name in DATASET_FILES)
        digests = {
            name: hashlib.sha256(text.encode()).hexdigest()[:16] for name, text in texts.items()
        }
        assert digests == self.DIGESTS[seed]
