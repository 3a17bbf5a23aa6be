"""Synthetic reaction universe: term molecules, rewrite templates, worlds, routes, datasets.

Molecules are fully parenthesized binary infix terms over a finite atom
alphabet, e.g. ``((a+b)*c)``. The literal string is the canonical form: two
molecules are equal iff their texts are byte-identical. One object is one
term: a well-formed ``Molecule`` is its own parse tree, holding its root
operator and its operands. Composites come from one unbounded term table:
``compose(left, op, right)`` returns the table's molecule of
``(left op right)``, built on first use, and the parser builds its composites
through ``compose`` and looks a text up in the table before scanning it. So
one text is one object, each subterm is shared between the terms that
contain it, and generation and forward templates build terms without
parsing. Templates are bidirectional rewrite rules; the backward direction
splits a product into reactants, the forward direction joins reactants into
a product. Decoy templates are applicable to well-formed molecules but
produce at least one malformed fragment, so they can never appear in a
completed route.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import InvalidConfig, InvalidInput

ATOM_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
# Single-character operators a parser accepts; worlds draw from the ordered pool.
OPERATOR_POOL = "+*^%&@!~<>=?"
OPERATOR_CHARS = frozenset(OPERATOR_POOL + "/:;.,|$#-")

WORLD_FILE_VERSION = 1

# Leaf probability when growing random subterms; 0.35 keeps route sizes spread
# between single reactions and full binary trees at the configured depth.
LEAF_PROB = 0.35

# A generated target is at most max_depth + bb_depth high, and a target must
# stay within the nesting ``plan --target`` parses (about 490 levels).
MAX_DEPTH = 400


# ---------------------------------------------------------------------------
# molecules and parsing


@dataclass(frozen=True, slots=True)
class Molecule:
    """One term: a string, and, if it parses, its parse tree.

    ``malformed`` marks strings that do not parse. Equality, hashing and
    ``repr`` read only ``text`` and ``malformed``. A well-formed molecule is
    its own parse-tree node: ``op`` is its root operator (None for an atom),
    ``left`` and ``right`` are its operands, shared molecules, and
    ``height`` is 0 for an atom. Only ``compose`` builds composites, each one
    the term table's, and the parser goes through it: a molecule built by
    hand as well-formed must be an atom. Backward applications hand out the
    operands and ``fragment()`` instead of building new molecules.
    """

    text: str
    malformed: bool = False
    op: str | None = field(default=None, compare=False, repr=False)
    left: Molecule | None = field(default=None, compare=False, repr=False)
    right: Molecule | None = field(default=None, compare=False, repr=False)
    height: int = field(default=0, compare=False, repr=False)
    _fragment: Molecule | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atom = self.text and ATOM_CHARS.issuperset(self.text)
        if not (self.malformed or self.op is not None or atom):
            raise InvalidInput(f"well-formed molecule {self.text!r} must be composed, not built")

    def fragment(self) -> Molecule:
        """The malformed ``"(" + text``: prepending "(" to a balanced term
        always unbalances it, so the fragment is a guaranteed dead end."""
        if self._fragment is None:
            object.__setattr__(self, "_fragment", Molecule("(" + self.text, malformed=True))
        return self._fragment  # type: ignore[return-value]


# Every well-formed term built so far, by text: the atoms the parser made
# and the composites ``compose`` made. It is never evicted; neither is the
# parse cache in any run so far: planning 40 height-10 targets of one
# reference seed holds 14,485 terms, against the cache's limit of 262,144.
_TERMS: dict[str, Molecule] = {}


def compose(left: Molecule, op: str, right: Molecule) -> Molecule:
    """The term table's molecule of ``(left op right)``, built on first use.

    The operands are well-formed and ``op`` is an operator character; the
    result holds them as its operands if it is new.
    """
    if left.malformed or right.malformed or op not in OPERATOR_CHARS:
        raise InvalidInput(f"cannot compose {left.text!r} {op!r} {right.text!r}")
    text = "(" + left.text + op + right.text + ")"
    term = _TERMS.get(text)
    if term is None:
        term = _TERMS[text] = Molecule(
            text, op=op, left=left, right=right, height=1 + max(left.height, right.height)
        )
    return term


@lru_cache(maxsize=1 << 18)
def parse_ast(text: str) -> Molecule | None:
    """Full parse of ``text``; None if it is not a well-formed term.

    A text the term table holds is its molecule there. Otherwise a composite
    ``(A o B)`` is split at its top-level operator, both operands are parsed
    through this cached function, and ``compose`` joins them, so parsed trees
    share their subtrees with every term that holds them.
    """
    term = _TERMS.get(text)
    if term is not None:
        return term
    if not text:
        return None
    if text[0] != "(":
        if not ATOM_CHARS.issuperset(text):
            return None
        term = _TERMS[text] = Molecule(text)
        return term
    if text[-1] != ")":
        return None
    # The left operand ends at the paren closing its opening one, or, for an
    # atom, at the first character that is not an atom character.
    n = len(text) - 1
    j = 1
    if text[1] == "(":
        depth = 0
        while j < n:
            depth += (text[j] == "(") - (text[j] == ")")
            j += 1
            if depth == 0:
                break
        else:
            return None
    else:
        while j < n and text[j] in ATOM_CHARS:
            j += 1
    if j >= n or text[j] not in OPERATOR_CHARS:
        return None
    left = parse_ast(text[1:j])
    right = parse_ast(text[j + 1 : n]) if left is not None else None
    if right is None:
        return None
    return compose(left, text[j], right)


def parse_molecule(text: str) -> Molecule:
    """The parsed Molecule of ``text``, or a malformed one if it does not parse."""
    if not text:
        raise InvalidInput("molecule text must be non-empty")
    return parse_ast(text) or Molecule(text, malformed=True)


def subterms(m: Molecule) -> Iterable[Molecule]:
    """All subterms of the well-formed ``m``, including itself."""
    stack = [m]
    while stack:
        cur = stack.pop()
        yield cur
        if cur.op is not None:
            stack.append(cur.right)  # type: ignore[arg-type]
            stack.append(cur.left)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# templates

KIND_SPLIT = "split"
KIND_CHOP = "chop"
KIND_IDENTITY = "identity"
CHOP_VARIANTS = ("left", "right", "whole")


@dataclass(frozen=True, slots=True)
class Template:
    """A named bidirectional rewrite rule.

    kinds:
      split    -- backward splits ``(A o B)`` into the ordered pair (A, B);
                  forward joins an ordered pair back into ``(A o B)``.
      chop     -- decoy gated on operator ``op``; backward mangles one side
                  into a malformed fragment, forward is never applicable.
      identity -- decoy mapping a molecule to itself; forward restores a
                  singleton reactant.

    Reactions only go down in term height. Backward identity gives
    ``(product,)``; every other kind gives reactants that are each a strict
    subterm of the product, so of lower ``height``, or malformed (height 0,
    and no template fires on them). So the one cycle in the reaction graph is
    identity's self-loop: the planner's cycle check, the molecules a plan may
    expand and the oracle's settle order all rest on this, and
    ``test_world.py::TestHeightInvariant`` checks it for every template kind.
    """

    id: str
    kind: str
    op: str | None = None
    variant: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SPLIT, KIND_CHOP, KIND_IDENTITY):
            raise InvalidInput(f"template {self.id!r} has unknown kind {self.kind!r}")
        if (self.op is None) != (self.kind == KIND_IDENTITY):
            raise InvalidInput(f"template {self.id!r}: only identity has no operator")
        if self.kind == KIND_CHOP and self.variant not in CHOP_VARIANTS:
            raise InvalidInput(
                f"template {self.id!r}: a chop's variant is one of {', '.join(CHOP_VARIANTS)}"
            )
        if self.kind != KIND_CHOP and self.variant is not None:
            raise InvalidInput(f"template {self.id!r}: only a chop has a variant")

    def backward(self, product: Molecule) -> tuple[Molecule, ...] | None:
        """Reactants produced by applying this rule to ``product``, or None."""
        if product.malformed:
            return None
        if self.kind == KIND_IDENTITY:
            return (product,)
        if product.op != self.op:
            return None
        # The operands are the product's own subterms and their fragments.
        left, right = product.left, product.right
        if self.kind == KIND_SPLIT:
            return (left, right)  # type: ignore[return-value]
        if self.variant == "left":
            return (left.fragment(), right)  # type: ignore[union-attr,return-value]
        if self.variant == "right":
            return (left, right.fragment())  # type: ignore[union-attr,return-value]
        return (product.fragment(),)

    def yields(self, product: Molecule, reactants: Sequence[Molecule]) -> bool:
        """Whether ``backward(product)`` gives ``reactants``, sorted by text."""
        produced = self.backward(product)
        return produced is not None and sorted(m.text for m in produced) == [
            r.text for r in reactants
        ]

    def forward(self, reactants: Sequence[Molecule]) -> Molecule | None:
        """Product obtained by joining ``reactants`` with this rule, or None."""
        if self.kind == KIND_SPLIT:
            if len(reactants) != 2:
                return None
            a, b = reactants
            if a.malformed or b.malformed:
                return None
            return compose(a, self.op, b)  # type: ignore[arg-type]
        if self.kind == KIND_IDENTITY:
            if len(reactants) != 1 or reactants[0].malformed:
                return None
            return reactants[0]
        return None


# ---------------------------------------------------------------------------
# reactions and routes


@dataclass(frozen=True, slots=True)
class Reaction:
    """(product, reactant tuple, template id); reactants sorted by text.

    Sorting makes set equality byte-comparable; duplicate reactants (from
    products like ``(a+a)``) are preserved so the pair survives a round trip.
    """

    product: Molecule
    reactants: tuple[Molecule, ...]
    template_id: str

    @property
    def key(self) -> tuple[str, tuple[str, ...], str]:
        return (self.product.text, tuple(r.text for r in self.reactants), self.template_id)


def make_reaction(
    product: Molecule, reactants: Sequence[Molecule], template_id: str
) -> Reaction:
    if not reactants:
        raise InvalidInput("a reaction needs at least one reactant")
    ordered = tuple(sorted(reactants, key=lambda m: m.text))
    return Reaction(product=product, reactants=ordered, template_id=template_id)


@dataclass(frozen=True)
class Route:
    """An acyclic set of reactions synthesizing ``target`` from building blocks."""

    target: Molecule
    reactions: tuple[Reaction, ...] = ()


def validate_route(world: "World", route: Route) -> list[str]:
    """Return a list of human-readable problems; empty means the route is valid."""
    problems: list[str] = []
    if not route.reactions:
        if not world.is_building_block(route.target):
            problems.append("empty route but target is not a building block")
        return problems

    by_product: dict[str, Reaction] = {}
    for rx in route.reactions:
        if rx.product.text in by_product:
            problems.append(f"two reactions produce {rx.product.text}")
        by_product[rx.product.text] = rx
        if not rx.reactants:
            problems.append(f"reaction for {rx.product.text} has no reactants")
        if any(r.text == rx.product.text for r in rx.reactants):
            problems.append(f"product {rx.product.text} appears among its reactants")
        template = world.template_by_id.get(rx.template_id)
        if template is None:
            problems.append(f"unknown template {rx.template_id}")
        elif not template.yields(rx.product, rx.reactants):
            problems.append(
                f"template {rx.template_id} does not map {rx.product.text} "
                "to the stated reactants"
            )

    if route.target.text not in by_product:
        problems.append("target is not the product of any reaction")

    for rx in route.reactions:
        for r in rx.reactants:
            if not world.is_building_block(r) and r.text not in by_product:
                problems.append(
                    f"reactant {r.text} is neither a building block nor a product"
                )

    # Acyclicity and reachability over the product -> reactant dependency graph.
    state: dict[str, int] = {}

    def visit(text: str) -> None:
        if state.get(text) == 1:
            problems.append(f"dependency cycle through {text}")
            return
        if state.get(text) == 2 or text not in by_product:
            return
        state[text] = 1
        for r in by_product[text].reactants:
            visit(r.text)
        state[text] = 2

    visit(route.target.text)
    unreachable = set(by_product) - {t for t, s in state.items() if s == 2}
    for text in sorted(unreachable):
        problems.append(f"reaction for {text} is not reachable from the target")
    return problems


# ---------------------------------------------------------------------------
# worlds


@dataclass(frozen=True)
class WorldConfig:
    n_atoms: int = 26
    n_operators: int = 3
    n_decoys: int = 5
    bb_composites: int = 40
    bb_depth: int = 2

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise InvalidConfig("n_atoms must be at least 1")
        if self.n_operators < 1:
            raise InvalidConfig("n_operators must be at least 1")
        if self.n_operators > len(OPERATOR_POOL):
            raise InvalidConfig(f"n_operators must be at most {len(OPERATOR_POOL)}")
        if self.n_decoys < 1:
            raise InvalidConfig("n_decoys must be at least 1")
        if self.bb_depth < 0 or self.bb_composites < 0:
            raise InvalidConfig("bb_depth and bb_composites must be non-negative")


@dataclass(frozen=True)
class DatasetConfig:
    n_targets: int = 500
    max_depth: int = 6
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    leaf_prob: float = LEAF_PROB

    def __post_init__(self) -> None:
        # Each message opens with its key.
        if self.n_targets < 1:
            raise InvalidConfig("n_targets must be at least 1")
        if not 0 <= self.max_depth <= MAX_DEPTH:
            raise InvalidConfig(f"max_depth must lie in [0, {MAX_DEPTH}]")
        if len(self.split) != 3 or not all(0.0 < f < math.inf for f in self.split):
            raise InvalidConfig("split must be three positive finite fractions")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise InvalidConfig("split fractions must sum to 1")
        if not 0.0 <= self.leaf_prob < 1.0:
            raise InvalidConfig("leaf_prob must lie in [0, 1)")


@dataclass(frozen=True)
class World:
    """The reaction universe: alphabets, templates (index = class label), stock."""

    atoms: tuple[str, ...]
    operators: tuple[str, ...]
    templates: tuple[Template, ...]
    building_blocks: tuple[Molecule, ...]
    rng_seed: int = 0

    @cached_property
    def template_by_id(self) -> dict[str, Template]:
        return {t.id: t for t in self.templates}

    @cached_property
    def template_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.templates)

    @cached_property
    def backward_templates_by_op(self) -> dict[str | None, tuple[Template, ...]]:
        """The templates whose ``backward`` can fire on a well-formed molecule,
        keyed by its root operator (None for an atom), in ``templates`` order.

        Every operator a molecule can parse with is a key. Split and chop
        templates fire only on their own operator; identity fires on all.
        """
        return {
            op: tuple(t for t in self.templates if t.kind == KIND_IDENTITY or t.op == op)
            for op in (None, *OPERATOR_CHARS)
        }

    def applications(self, product: Molecule) -> list[tuple[str, tuple[Molecule, ...]]]:
        """``(template id, reactants sorted by text)`` for every template that
        fires on ``product``, in ``templates`` order; none for a malformed one."""
        if product.malformed:
            return []
        apps = []
        for template in self.backward_templates_by_op[product.op]:
            reactants = template.backward(product)
            if reactants is not None:
                # At most two reactants: one comparison sorts them, and a
                # tie keeps their order, as a stable sort would.
                if len(reactants) == 2 and reactants[1].text < reactants[0].text:
                    reactants = (reactants[1], reactants[0])
                apps.append((template.id, reactants))
        return apps

    @cached_property
    def stock(self) -> frozenset[str]:
        """Texts of the building blocks."""
        return frozenset(m.text for m in self.building_blocks)

    def is_building_block(self, m: Molecule) -> bool:
        return not m.malformed and m.text in self.stock


def _atom_names(n: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    names = []
    for i in range(n):
        suffix = i // 26
        names.append(letters[i % 26] + (str(suffix) if suffix else ""))
    return names


def _random_term(
    rng: random.Random,
    depth: int,
    leaves: Sequence[Molecule],
    operators: Sequence[str],
    compose_root: bool,
    composites: list[Molecule],
    leaf_prob: float = LEAF_PROB,
) -> Molecule:
    """A random term over ``leaves`` of height at most ``depth``, built with
    ``compose``. Each composite it generates is appended to ``composites``, in
    post-order: operands before the terms that hold them."""
    if depth <= 0 or (not compose_root and rng.random() < leaf_prob):
        return rng.choice(leaves)
    op = rng.choice(operators)
    left = _random_term(rng, depth - 1, leaves, operators, False, composites, leaf_prob)
    right = _random_term(rng, depth - 1, leaves, operators, False, composites, leaf_prob)
    term = compose(left, op, right)
    composites.append(term)
    return term


def generate_world(config: WorldConfig, seed: int) -> World:
    """Deterministically build a World from (config, seed)."""
    atoms = tuple(_atom_names(config.n_atoms))
    operators = tuple(OPERATOR_POOL[: config.n_operators])

    templates: list[Template] = [
        Template(id=f"split:{op}", kind=KIND_SPLIT, op=op) for op in operators
    ]
    n_chops = config.n_decoys - 1 if config.n_decoys >= 2 else config.n_decoys
    seen_ids = {t.id for t in templates}
    for i in range(n_chops):
        op = operators[i % len(operators)]
        variant = CHOP_VARIANTS[(i // len(operators)) % len(CHOP_VARIANTS)]
        tid = f"chop:{op}:{variant}"
        while tid in seen_ids:
            tid += "+"
        seen_ids.add(tid)
        templates.append(Template(id=tid, kind=KIND_CHOP, op=op, variant=variant))
    if config.n_decoys >= 2:
        templates.append(Template(id="identity", kind=KIND_IDENTITY))

    rng = random.Random(seed)
    stock: dict[str, Molecule] = {a: parse_molecule(a) for a in atoms}
    if config.bb_depth >= 1:
        leaves = tuple(stock.values())
        attempts = 0
        wanted = len(atoms) + config.bb_composites
        while len(stock) < wanted and attempts < 50 * max(1, config.bb_composites):
            attempts += 1
            term = _random_term(rng, config.bb_depth, leaves, operators, True, [])
            stock.setdefault(term.text, term)

    return World(
        atoms=atoms,
        operators=operators,
        templates=tuple(templates),
        building_blocks=tuple(stock.values()),
        rng_seed=seed,
    )


# ---------------------------------------------------------------------------
# ground-truth routes and datasets


def sample_ground_truth_route(
    world: World, max_depth: int, seed: int, leaf_prob: float = LEAF_PROB
) -> tuple[Molecule, Route]:
    """Grow a random synthesizable target together with one valid route.

    Only split templates are used, so every generated route validates. Leaves
    are drawn from the full stock, composites included, which makes routes of
    different lengths to the same target possible. ``leaf_prob`` shapes the
    depth distribution: lower values grow bushier targets. The route is read
    off the composites ``_random_term`` records: each one's split, in the
    order they were first generated.
    """
    rng = random.Random(seed)
    if max_depth == 0:
        target = rng.choice(world.building_blocks)
        return target, Route(target=target, reactions=())

    composites: list[Molecule] = []
    depth = rng.randint(1, max_depth)
    target = _random_term(
        rng, depth, world.building_blocks, world.operators, True, composites, leaf_prob
    )
    # A split's product text determines its reaction, so the first
    # occurrence of each composite gives the route's reactions in order.
    reactions = []
    for m in dict.fromkeys(composites):
        # One comparison sorts the reactants by text; a tie keeps their order.
        left, right = m.left, m.right
        pair = (right, left) if right.text < left.text else (left, right)  # type: ignore
        reactions.append(Reaction(m, pair, f"split:{m.op}"))
    return target, Route(target=target, reactions=tuple(reactions))


@dataclass(frozen=True)
class Dataset:
    targets: tuple[Molecule, ...]
    reactions_train: tuple[Reaction, ...]
    reactions_val: tuple[Reaction, ...]
    reactions_test: tuple[Reaction, ...]
    ground_truth_routes: Mapping[str, Route]


def build_datasets(world: World, config: DatasetConfig, seed: int) -> Dataset:
    """Sample ``config.n_targets`` distinct targets with ground-truth routes and
    split the pooled reactions; InvalidConfig if 100 draws a target find fewer."""
    rng = random.Random(seed)
    targets: list[Molecule] = []
    routes: dict[str, Route] = {}
    attempts = 0
    while len(targets) < config.n_targets and attempts < 100 * config.n_targets:
        attempts += 1
        target, route = sample_ground_truth_route(
            world, config.max_depth, rng.randrange(2**62), leaf_prob=config.leaf_prob
        )
        if target.text in routes:
            continue
        targets.append(target)
        routes[target.text] = route
    if len(targets) < config.n_targets:
        raise InvalidConfig(
            f"dataset.n_targets: {config.n_targets} targets asked for, but {attempts} draws "
            f"found only {len(targets)} distinct ones in this world"
        )

    pool: dict[tuple, Reaction] = {}
    for target in targets:
        for rx in routes[target.text].reactions:
            pool.setdefault(rx.key, rx)
    unique = list(pool.values())
    rng.shuffle(unique)
    n = len(unique)
    n_train = int(config.split[0] * n)
    n_val = int(config.split[1] * n)
    return Dataset(
        targets=tuple(targets),
        reactions_train=tuple(unique[:n_train]),
        reactions_val=tuple(unique[n_train : n_train + n_val]),
        reactions_test=tuple(unique[n_train + n_val :]),
        ground_truth_routes=routes,
    )


# ---------------------------------------------------------------------------
# file formats

# The files of a dataset, each ``<name>.jsonl`` with one JSON record a line.
DATASET_FILES = ("targets", "reactions_train", "reactions_val", "reactions_test", "routes")


def save_world(world: World) -> str:
    """The text of a world's ``world.json``."""
    doc = {
        "version": WORLD_FILE_VERSION,
        "atoms": list(world.atoms),
        "operators": list(world.operators),
        "templates": [
            {"id": t.id, "kind": t.kind, "op": t.op, "variant": t.variant}
            for t in world.templates
        ],
        "building_blocks": [m.text for m in world.building_blocks],
        "rng_seed": world.rng_seed,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ``json.dumps(rec, sort_keys=True)`` builds an encoder per call; one shared
# encoder writes the same bytes.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def _reaction_record(rx: Reaction) -> dict:
    return {
        "product": rx.product.text,
        "reactants": [r.text for r in rx.reactants],
        "template": rx.template_id,
    }


def save_dataset(dataset: Dataset, name: str) -> str:
    """The text of the dataset file ``<name>.jsonl``, ``name`` one of
    ``DATASET_FILES``."""
    if name == "targets":
        records = ({"target": t.text} for t in dataset.targets)
    elif name == "routes":
        records = (
            {
                "target": t.text,
                "reactions": [
                    _reaction_record(rx)
                    for rx in dataset.ground_truth_routes[t.text].reactions
                ],
            }
            for t in dataset.targets
        )
    else:
        records = (_reaction_record(rx) for rx in getattr(dataset, name))
    return "".join(_RECORD_ENCODER.encode(rec) + "\n" for rec in records)
