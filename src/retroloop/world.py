"""Synthetic reaction universe: term molecules, rewrite templates, worlds, routes, datasets.

Molecules are fully parenthesized binary infix terms over a finite atom
alphabet, e.g. ``((a+b)*c)``. The literal string is the canonical form: two
molecules are equal iff their texts are byte-identical. Templates are
bidirectional rewrite rules; the backward direction splits a product into
reactants, the forward direction joins reactants into a product. Decoy
templates are applicable to well-formed molecules but produce at least one
malformed fragment, so they can never appear in a completed route.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import InvalidConfig, InvalidInput

ATOM_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
# Single-character operators a parser accepts; worlds draw from the ordered pool.
OPERATOR_POOL = "+*^%&@!~<>=?"
OPERATOR_CHARS = frozenset(OPERATOR_POOL + "/:;.,|$#-")

WORLD_FILE_VERSION = 1
DATASET_FILE_VERSION = 1

# Leaf probability when growing random subterms; 0.35 keeps route sizes spread
# between single reactions and full binary trees at the configured depth.
_LEAF_PROB = 0.35


# ---------------------------------------------------------------------------
# molecules and parsing


@dataclass(frozen=True, slots=True)
class Molecule:
    """A term string; ``malformed`` marks strings that do not parse."""

    text: str
    malformed: bool = False


@dataclass(frozen=True, slots=True)
class Node:
    """Parse-tree node. ``op is None`` for atoms.

    A node owns the well-formed ``Molecule`` of its text, built with the
    node, and the malformed fragment ``"(" + text`` that chop templates
    produce, built on first use by ``fragment``. Backward applications
    hand out these shared objects instead of building new ones.
    """

    text: str
    op: str | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    height: int = 0
    molecule: Molecule = field(init=False, repr=False, compare=False)
    _fragment: Molecule | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "molecule", Molecule(self.text))

    def fragment(self) -> Molecule:
        """The malformed ``"(" + text``: prepending "(" to a balanced term
        always unbalances it, so the fragment is a guaranteed dead end."""
        if self._fragment is None:
            object.__setattr__(self, "_fragment", Molecule("(" + self.text, malformed=True))
        return self._fragment  # type: ignore[return-value]


@lru_cache(maxsize=1 << 18)
def parse_ast(text: str) -> Node | None:
    """Full parse of ``text``; None if it is not a well-formed term.

    A composite ``(A o B)`` is split at its top-level operator and both
    operands are parsed through this cached function, so cached trees share
    their subtrees and parsing a product caches its reactants too.
    """
    if not text:
        return None
    if text[0] != "(":
        return Node(text=text) if ATOM_CHARS.issuperset(text) else None
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
    return Node(
        text=text,
        op=text[j],
        left=left,
        right=right,
        height=1 + max(left.height, right.height),
    )


def parse_molecule(text: str) -> Molecule:
    """Parse ``text`` into a Molecule, flagging it malformed if it does not parse."""
    if not text:
        raise InvalidInput("molecule text must be non-empty")
    return Molecule(text=text, malformed=parse_ast(text) is None)


def mol(text: str) -> Molecule:
    """Shorthand constructor used throughout the package and tests."""
    return parse_molecule(text)


def subterm_nodes(node: Node) -> Iterable[Node]:
    """All parse-tree nodes of ``node``, including itself."""
    stack = [node]
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


@dataclass(frozen=True)
class Template:
    """A named bidirectional rewrite rule.

    kinds:
      split    -- backward splits ``(A o B)`` into the ordered pair (A, B);
                  forward joins an ordered pair back into ``(A o B)``.
      chop     -- decoy gated on operator ``op``; backward mangles one side
                  into a malformed fragment, forward is never applicable.
      identity -- decoy mapping a molecule to itself; forward restores a
                  singleton reactant.
    """

    id: str
    kind: str
    op: str | None = None
    variant: str | None = None

    def backward(self, product: Molecule) -> tuple[Molecule, ...] | None:
        """Reactants produced by applying this rule to ``product``, or None."""
        if product.malformed:
            return None
        ast = parse_ast(product.text)
        if ast is None:
            return None
        if self.kind == KIND_IDENTITY:
            return (product,)
        if ast.op != self.op:
            return None
        # The operands are subtrees of the product's parse: their molecules
        # and fragments are the ones those nodes own.
        left, right = ast.left, ast.right
        if self.kind == KIND_SPLIT:
            return (left.molecule, right.molecule)  # type: ignore[union-attr]
        if self.kind == KIND_CHOP:
            if self.variant == "left":
                return (left.fragment(), right.molecule)  # type: ignore[union-attr]
            if self.variant == "right":
                return (left.molecule, right.fragment())  # type: ignore[union-attr]
            return (ast.fragment(),)
        return None

    def forward(self, reactants: Sequence[Molecule]) -> Molecule | None:
        """Product obtained by joining ``reactants`` with this rule, or None."""
        if self.kind == KIND_SPLIT:
            if len(reactants) != 2:
                return None
            a, b = reactants
            if a.malformed or b.malformed:
                return None
            return parse_molecule("(" + a.text + str(self.op) + b.text + ")")
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
        else:
            produced = template.backward(rx.product)
            if produced is None or tuple(
                sorted(m.text for m in produced)
            ) != tuple(r.text for r in rx.reactants):
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
            op: tuple(
                t
                for t in self.templates
                if t.kind == KIND_IDENTITY or (t.kind in (KIND_SPLIT, KIND_CHOP) and t.op == op)
            )
            for op in (None, *OPERATOR_CHARS)
        }

    def applications(self, product: Molecule) -> list[tuple[str, tuple[Molecule, ...]]]:
        """``(template id, reactants sorted by text)`` for every template that
        fires on ``product``, in ``templates`` order; none for a malformed one."""
        ast = None if product.malformed else parse_ast(product.text)
        if ast is None:
            return []
        apps = []
        for template in self.backward_templates_by_op[ast.op]:
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
    leaves: Sequence[str],
    operators: Sequence[str],
    compose_root: bool,
) -> str:
    if depth <= 0 or (not compose_root and rng.random() < _LEAF_PROB):
        return rng.choice(leaves)
    op = rng.choice(operators)
    left = _random_term(rng, depth - 1, leaves, operators, False)
    right = _random_term(rng, depth - 1, leaves, operators, False)
    return "(" + left + op + right + ")"


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
        attempts = 0
        wanted = len(atoms) + config.bb_composites
        while len(stock) < wanted and attempts < 50 * max(1, config.bb_composites):
            attempts += 1
            text = _random_term(rng, config.bb_depth, atoms, operators, True)
            if text not in stock:
                stock[text] = parse_molecule(text)

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
    world: World, max_depth: int, seed: int, leaf_prob: float = _LEAF_PROB
) -> tuple[Molecule, Route]:
    """Grow a random synthesizable target together with one valid route.

    Only split templates are used, so every generated route validates. Leaves
    are drawn from the full stock, composites included, which makes routes of
    different lengths to the same target possible. ``leaf_prob`` shapes the
    depth distribution: lower values grow bushier targets.
    """
    rng = random.Random(seed)
    stock_texts = [m.text for m in world.building_blocks]
    if max_depth == 0:
        target = parse_molecule(rng.choice(stock_texts))
        return target, Route(target=target, reactions=())

    reactions: dict[tuple, Reaction] = {}

    def grow(depth: int, compose: bool) -> str:
        if depth <= 0 or (not compose and rng.random() < leaf_prob):
            return rng.choice(stock_texts)
        op = rng.choice(world.operators)
        left = grow(depth - 1, False)
        right = grow(depth - 1, False)
        text = "(" + left + op + right + ")"
        rx = make_reaction(
            parse_molecule(text),
            (parse_molecule(left), parse_molecule(right)),
            f"split:{op}",
        )
        reactions.setdefault(rx.key, rx)
        return text

    depth = rng.randint(1, max_depth)
    target = parse_molecule(grow(depth, True))
    return target, Route(target=target, reactions=tuple(reactions.values()))


def check_dataset_settings(
    n_targets: int, max_depth: int, split: tuple[float, ...], leaf_prob: float
) -> None:
    """The rules a dataset's settings obey; each message opens with its key."""
    if n_targets < 1:
        raise InvalidConfig("n_targets must be at least 1")
    if max_depth < 0:
        raise InvalidConfig("max_depth must be non-negative")
    if len(split) != 3 or any(f <= 0 for f in split):
        raise InvalidConfig("split must be three positive fractions")
    if abs(sum(split) - 1.0) > 1e-9:
        raise InvalidConfig("split fractions must sum to 1")
    if not 0.0 <= leaf_prob < 1.0:
        raise InvalidConfig("leaf_prob must lie in [0, 1)")


@dataclass(frozen=True)
class Dataset:
    targets: tuple[Molecule, ...]
    reactions_train: tuple[Reaction, ...]
    reactions_val: tuple[Reaction, ...]
    reactions_test: tuple[Reaction, ...]
    ground_truth_routes: Mapping[str, Route] = field(default_factory=dict)


def build_datasets(
    world: World,
    n_targets: int,
    max_depth: int,
    split: tuple[float, float, float],
    seed: int,
    leaf_prob: float = _LEAF_PROB,
) -> Dataset:
    """Sample targets with ground-truth routes and split the pooled reactions."""
    fractions = tuple(split)
    check_dataset_settings(n_targets, max_depth, fractions, leaf_prob)

    rng = random.Random(seed)
    targets: list[Molecule] = []
    routes: dict[str, Route] = {}
    attempts = 0
    while len(targets) < n_targets and attempts < 100 * n_targets:
        attempts += 1
        target, route = sample_ground_truth_route(
            world, max_depth, rng.randrange(2**62), leaf_prob=leaf_prob
        )
        if target.text in routes:
            continue
        targets.append(target)
        routes[target.text] = route

    pool: dict[tuple, Reaction] = {}
    for target in targets:
        for rx in routes[target.text].reactions:
            pool.setdefault(rx.key, rx)
    unique = list(pool.values())
    rng.shuffle(unique)
    n = len(unique)
    n_train = int(fractions[0] * n)
    n_val = int(fractions[1] * n)
    return Dataset(
        targets=tuple(targets),
        reactions_train=tuple(unique[:n_train]),
        reactions_val=tuple(unique[n_train : n_train + n_val]),
        reactions_test=tuple(unique[n_train + n_val :]),
        ground_truth_routes=routes,
    )


# ---------------------------------------------------------------------------
# file formats


def save_world(world: World, path: str | Path) -> None:
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
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_world(path: str | Path) -> World:
    doc = json.loads(Path(path).read_text())
    if doc.get("version") != WORLD_FILE_VERSION:
        raise InvalidInput(f"unsupported world file version {doc.get('version')!r}")
    return World(
        atoms=tuple(doc["atoms"]),
        operators=tuple(doc["operators"]),
        templates=tuple(
            Template(id=t["id"], kind=t["kind"], op=t.get("op"), variant=t.get("variant"))
            for t in doc["templates"]
        ),
        building_blocks=tuple(parse_molecule(t) for t in doc["building_blocks"]),
        rng_seed=doc["rng_seed"],
    )


def _reaction_record(rx: Reaction) -> dict:
    return {
        "product": rx.product.text,
        "reactants": [r.text for r in rx.reactants],
        "template": rx.template_id,
    }


def _reaction_from_record(rec: dict) -> Reaction:
    return make_reaction(
        parse_molecule(rec["product"]),
        tuple(parse_molecule(t) for t in rec["reactants"]),
        rec["template"],
    )


def save_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write targets/reaction splits/routes as one-record-per-line JSON files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    def dump(name: str, records: Iterable[dict]) -> None:
        path = out / f"{name}.jsonl"
        with path.open("w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        paths[name] = path

    dump("targets", ({"target": t.text} for t in dataset.targets))
    for name, rxs in (
        ("reactions_train", dataset.reactions_train),
        ("reactions_val", dataset.reactions_val),
        ("reactions_test", dataset.reactions_test),
    ):
        dump(name, (_reaction_record(rx) for rx in rxs))
    dump(
        "routes",
        (
            {
                "target": t.text,
                "reactions": [
                    _reaction_record(rx)
                    for rx in dataset.ground_truth_routes[t.text].reactions
                ],
            }
            for t in dataset.targets
        ),
    )
    return paths


def load_dataset(out_dir: str | Path) -> Dataset:
    out = Path(out_dir)

    def records(name: str) -> list[dict]:
        path = out / f"{name}.jsonl"
        if not path.exists():
            raise InvalidInput(f"missing dataset file {path}")
        return [json.loads(line) for line in path.read_text().splitlines() if line]

    targets = tuple(parse_molecule(r["target"]) for r in records("targets"))
    splits = {
        name: tuple(_reaction_from_record(r) for r in records(name))
        for name in ("reactions_train", "reactions_val", "reactions_test")
    }
    routes = {
        r["target"]: Route(
            target=parse_molecule(r["target"]),
            reactions=tuple(_reaction_from_record(x) for x in r["reactions"]),
        )
        for r in records("routes")
    }
    return Dataset(
        targets=targets,
        reactions_train=splits["reactions_train"],
        reactions_val=splits["reactions_val"],
        reactions_test=splits["reactions_test"],
        ground_truth_routes=routes,
    )
