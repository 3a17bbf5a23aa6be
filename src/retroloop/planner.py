"""Best-first AND-OR search over backward template applications.

Molecule (OR) nodes alternate with reaction (AND) nodes. A reaction's cost is
the negative log probability its template received from the backward model;
the planner repeatedly expands the open molecule on the cheapest partial
route, where a partial route prices open molecules with a cost-to-go
estimator. With an estimator that never overestimates (the zero estimator in
particular) the first completed route is also the cheapest one in the tree.
Reactions only go down in term height (``world.Template``), so the one cycle
is identity's, and a prediction whose reactants include its product is
skipped.

Selection is incremental, in the style of Retro* (Chen et al., ICML 2020): a
reaction knows its g (the reaction costs from the root down to its
reactants) from the moment it is created, and every molecule keeps the key
``(g + value, row)`` of the best open leaf on its own best partial subroute.
An expansion changes values only on the path from the expanded molecule to
the root, and one upward pass along that path (``_update``) recomputes, at
each molecule, its value and key from its reactions, and then the value of
the reaction above it. So picking the next molecule costs O(1) and an
expansion O(depth x branching). The keys are the exact quantities a walk of
the best partial route would compute: g is the same float additions in the
same order, and the best reaction is the same first minimum. The search
stops when that route is complete (the root's key is None), and that route,
read off the same first minima, is the one ``extract_route`` returns.

A tree is stored as columns: parallel lists with one entry per molecule row
(``mol_*``: molecule, parent reaction, value, key) and per reaction
row (``rxn_*``: template, cost, g, parent molecule, child range, value),
plus ``expanded``, the reaction rows ``[first, end)`` of each expanded
molecule. Every link is a row number, so a tree holds no node objects and
no reference cycles: reference counting frees it as soon as ``plan``
returns. Nor does it store the reactant tuples of its reactions: the
molecule column holds the reactants' own ``Molecule`` objects, and
``extract_route`` derives the reactants of the few reactions on the route
again with ``Template.backward``. So the objects a live tree makes are
floats, ints and the ``(float, row)`` keys, which the garbage collector
stops tracking at its first pass over them. One ``expand`` appends all the
reactions of a molecule, and each reaction's children right after it, so
the children of a row are contiguous rows; a child's row is always larger
than its parent's.

``MolNode`` and ``ReactionNode`` are read-only ``(tree, row)`` views with the
attribute names of a node, built only when read: ``tree.root``,
``best_partial_route()`` and ``.children`` return views, and ``expand``
takes one.

One plan invocation owns its tree and only reads the world. Before its
search, it scores every molecule it may expand, the target's subterms down
to the building blocks, in one batch (``model.score_products``), so each
expansion reads its product's scores from the model's memo. That writes many
memo entries, but each is written once and holds a value equal to what a
later call would compute, so many plans may still run concurrently against
shared instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol

from .errors import InvalidInput, NotSolved
from .model import TemplateClassifier, likelihood, predict_topk, score_products
from .world import Molecule, Reaction, Route, World, make_reaction

OPEN = "open"
EXPANDED = "expanded"
SOLVED_LEAF = "solved-leaf"
DEAD = "dead"

INF = math.inf


class ValueEstimator(Protocol):
    def evaluate(self, molecule: Molecule) -> float: ...


class ZeroEstimator:
    """Estimates every molecule at zero cost-to-go (the value-free variant)."""

    def evaluate(self, molecule: Molecule) -> float:
        return 0.0


def _column(name: str) -> property:
    """A view attribute: the view's row of the tree column ``name``."""
    return property(lambda view: getattr(view.tree, name)[view.row])


class MolNode(NamedTuple):
    """Molecule row ``row`` of ``tree``, read through its columns."""

    tree: "SearchTree"
    row: int

    molecule = _column("mol_molecule")
    value = _column("mol_value")

    @property
    def status(self) -> str:
        """Expanded: DEAD at infinite value, else EXPANDED. Unexpanded: a
        building block is a SOLVED_LEAF, the only molecule with no key;
        any other is OPEN."""
        tree, row = self.tree, self.row
        if row in tree.expanded:
            return DEAD if tree.mol_value[row] == INF else EXPANDED
        return SOLVED_LEAF if tree.mol_best[row] is None else OPEN

    @property
    def g(self) -> float:
        """Reaction costs from the root down to this molecule."""
        parent = self.tree.mol_parent[self.row]
        return 0.0 if parent is None else self.tree.rxn_g[parent]

    @property
    def children(self) -> list[ReactionNode]:
        first, end = self.tree.expanded.get(self.row, (0, 0))
        return [ReactionNode(self.tree, r) for r in range(first, end)]


class ReactionNode(NamedTuple):
    """Reaction row ``row`` of ``tree``, read through its columns."""

    tree: "SearchTree"
    row: int

    template_id = _column("rxn_template")
    cost = _column("rxn_cost")
    value = _column("rxn_value")

    @property
    def children(self) -> list[MolNode]:
        return [
            MolNode(self.tree, c)
            for c in range(self.tree.rxn_first[self.row], self.tree.rxn_end[self.row])
        ]


class ExpansionRecord(NamedTuple):
    step: int
    molecule: str
    g_plus_h: float
    applicable: int


@dataclass
class PlanResult:
    outcome: str  # "success" | "failure"
    route: Route | None
    model_calls: int
    trace: tuple[ExpansionRecord, ...] | None = None

    @property
    def success(self) -> bool:
        return self.outcome == "success"


class SearchTree:
    """AND-OR tree in columns, with incrementally maintained values."""

    def __init__(
        self,
        target: Molecule,
        model: TemplateClassifier,
        estimator: ValueEstimator,
        k_expand: int,
        world: World,
    ):
        self.world = world
        self.model = model
        self.estimator = estimator
        self.k_expand = k_expand
        self.call_count = 0
        # Molecule columns, row 0 the target.
        self.mol_molecule: list[Molecule] = [target]
        self.mol_parent: list[int | None] = [None]
        self.mol_value: list[float]
        self.mol_best: list[tuple[float, int] | None]
        if world.is_building_block(target):
            self.mol_value, self.mol_best = [0.0], [None]
        else:
            value = float(estimator.evaluate(target))
            self.mol_value, self.mol_best = [value], [(value, 0)]
        # Reaction columns. A reaction's children are the molecule rows
        # [rxn_first, rxn_end), one per distinct reactant, and rxn_g is
        # their g.
        self.rxn_template: list[str] = []
        self.rxn_cost: list[float] = []
        self.rxn_g: list[float] = []
        self.rxn_parent: list[int] = []
        self.rxn_first: list[int] = []
        self.rxn_end: list[int] = []
        self.rxn_value: list[float] = []
        # By expanded molecule row: its reaction rows [first, end), empty
        # for a molecule that no template could expand.
        self.expanded: dict[int, tuple[int, int]] = {}

    @property
    def root(self) -> MolNode:
        return MolNode(self, 0)

    def expand(self, node: MolNode) -> int:
        """One backward-model call; returns the number of applicable templates."""
        row = node.row
        if row in self.expanded or self.mol_best[row] is None:
            raise InvalidInput("only open molecules can be expanded")
        self.call_count += 1
        preds = predict_topk(self.model, self.mol_molecule[row], self.k_expand, self.world)
        product_text = self.mol_molecule[row].text
        stock = self.world.stock
        evaluate = self.estimator.evaluate
        add_molecule, add_parent = self.mol_molecule.append, self.mol_parent.append
        add_value, add_best = self.mol_value.append, self.mol_best.append
        add_template, add_cost = self.rxn_template.append, self.rxn_cost.append
        add_g, add_rxn_parent = self.rxn_g.append, self.rxn_parent.append
        add_rxn_value = self.rxn_value.append
        add_rxn_first, add_rxn_end = self.rxn_first.append, self.rxn_end.append
        parent = self.mol_parent[row]
        g_row = 0.0 if parent is None else self.rxn_g[parent]
        # The next reaction row and the next molecule row.
        first = rxn = len(self.rxn_cost)
        child = len(self.mol_molecule)
        for template_id, probability, reactants in preds:
            # reactants: a sorted tuple. Only a reactant equal to the
            # product cycles (world.Template).
            for r in reactants:
                if r.text == product_text:
                    break
            else:
                cost = INF if probability <= 0.0 else -math.log(probability)
                g = g_row + cost
                start = child
                # The children's values, added in row order from int 0 as
                # sum() adds them.
                total = 0
                previous = None
                for r in reactants:
                    text = r.text
                    if text == previous:  # sorted, so a repeated reactant is adjacent
                        continue
                    previous = text
                    add_molecule(r)
                    add_parent(rxn)
                    if not r.malformed and text in stock:
                        value = 0.0
                        add_best(None)
                    else:
                        value = float(evaluate(r))
                        add_best((g + value, child))
                    add_value(value)
                    total += value
                    child += 1
                add_template(template_id)
                add_cost(cost)
                add_g(g)
                add_rxn_parent(row)
                add_rxn_first(start)
                add_rxn_end(child)
                add_rxn_value(cost + total)
                rxn += 1
        self.expanded[row] = (first, rxn)
        self._update(row)
        return len(preds)

    def _update(self, row: int) -> None:
        """One pass from the expanded molecule ``row`` up to the root.

        At each molecule: its value is the least value of its reactions, its
        best reaction the first that has it (ties go to the earlier
        reaction), and its key the least key among that reaction's children,
        None when the value is infinite. Then the value of the reaction that
        produced it is its cost plus its children's values.
        """
        expanded, mol_parent = self.expanded, self.mol_parent
        values, bests = self.mol_value, self.mol_best
        rxn_values, costs = self.rxn_value, self.rxn_cost
        rxn_parent, child_first, child_end = self.rxn_parent, self.rxn_first, self.rxn_end
        while True:
            first, end = expanded[row]
            options = rxn_values[first:end]
            value = min(options) if options else INF
            values[row] = value
            if value == INF:
                bests[row] = None
            else:
                best = first + options.index(value)
                key = None
                for k in bests[child_first[best] : child_end[best]]:
                    if k is not None and (key is None or k < key):
                        key = k
                bests[row] = key
            parent = mol_parent[row]
            if parent is None:
                return
            rxn_values[parent] = costs[parent] + sum(
                values[child_first[parent] : child_end[parent]]
            )
            row = rxn_parent[parent]

    def best_partial_route(self) -> list[tuple[MolNode, float]] | None:
        """The open molecule to expand next on the minimum-value partial route.

        The partial route takes the first minimum-value reaction at every
        expanded molecule; among its open molecules the one with the least
        ``(g + value, row)`` is next, where g is the sum of reaction costs
        from the root to the molecule. Returns None when the root is dead, []
        when the route is complete (all leaves solved), and otherwise the
        one-element list ``[(molecule, g)]``.

        O(1): the root holds that molecule's key (see the module docstring).
        """
        if self.mol_value[0] == INF:
            return None
        key = self.mol_best[0]
        if key is None:
            return []
        node = MolNode(self, key[1])
        return [(node, node.g)]


def _expandable(target: Molecule, world: World) -> list[Molecule]:
    """Every molecule a plan of ``target`` may expand: the well-formed
    subterms of ``target``, from the root down, stopping at building blocks.
    No other molecule a template fires on reaches the frontier
    (``world.Template``)."""
    stock = world.stock
    found: dict[str, Molecule] = {}
    stack = [] if target.malformed else [target]
    while stack:
        m = stack.pop()
        if m.text in stock or m.text in found:
            continue
        found[m.text] = m
        if m.op is not None:
            stack += (m.right, m.left)  # type: ignore[list-item]
    return list(found.values())


def plan(
    target: Molecule,
    model: TemplateClassifier,
    estimator: ValueEstimator,
    budget: int,
    k_expand: int,
    world: World,
    trace: bool = False,
) -> PlanResult:
    """Search for a route to ``target`` within ``budget`` model calls.

    Before the search, the model scores every molecule the plan may expand
    in one batch (``score_products``), so each expansion reads its scores
    from the model's memo.
    """
    if budget < 0:
        raise InvalidInput("budget must be non-negative")
    if k_expand < 1:
        raise InvalidInput("k_expand must be at least 1")
    if budget:
        score_products(model, _expandable(target, world))
    tree = SearchTree(target, model, estimator, k_expand, world)
    records: list[ExpansionRecord] = []
    # None: the root is dead; []: the best route is complete.
    while (open_nodes := tree.best_partial_route()) and tree.call_count < budget:
        node, g = open_nodes[0]
        score = g + node.value if trace else None  # the value before expansion
        applicable = tree.expand(node)
        if trace:
            records.append(
                ExpansionRecord(tree.call_count, node.molecule.text, score, applicable)
            )
    solved = open_nodes == []
    return PlanResult(
        "success" if solved else "failure",
        extract_route(tree) if solved else None,
        tree.call_count,
        tuple(records) if trace else None,
    )


def extract_route(tree: SearchTree) -> Route:
    """The completed best partial route of the tree, as a Route.

    It takes each expanded molecule's first least-value reaction from the
    target down, as ``_update`` does. NotSolved is raised unless the
    target's value is finite and its key None, the test ``plan`` stops on.
    Each route reaction's reactants are derived again from its template
    (``Template.backward``), as the expansion derived them.
    """
    target = tree.mol_molecule[0]
    if tree.mol_value[0] == INF or tree.mol_best[0] is not None:
        raise NotSolved(f"no solved route for {target.text}")
    expanded, rxn_values = tree.expanded, tree.rxn_value
    # A product and a template determine the reactants, so a reaction met
    # again under another row is derived once.
    templates = tree.world.template_by_id
    reactions: dict[tuple[str, str], Reaction] = {}
    stack = [0]
    while stack:  # pre-order, children left to right
        row = stack.pop()
        if row not in expanded:  # a building block
            continue
        first, end = expanded[row]
        options = rxn_values[first:end]
        r = first + options.index(min(options))
        product, tid = tree.mol_molecule[row], tree.rxn_template[r]
        if (product.text, tid) not in reactions:
            reactants = templates[tid].backward(product)
            reactions[product.text, tid] = make_reaction(product, reactants, tid)  # type: ignore[arg-type]
        stack.extend(range(tree.rxn_end[r] - 1, tree.rxn_first[r] - 1, -1))
    return Route(target=target, reactions=tuple(reactions.values()))


def _reaction_cost(model: TemplateClassifier, rx: Reaction, world: World) -> float:
    """A reaction's negative log-likelihood: INF at probability 0, as
    ``SearchTree.expand`` and the oracle price it."""
    p = likelihood(model, rx, world)
    return INF if p <= 0.0 else -math.log(p)


def route_cost_under(
    route: Route, model: TemplateClassifier, world: World
) -> float:
    """Sum of negative log-likelihoods over the route's reaction set.

    The route's products are scored in one batch first (``score_products``).
    """
    score_products(model, [rx.product for rx in route.reactions])
    return sum(_reaction_cost(model, rx, world) for rx in route.reactions)


def unfolded_route_cost(
    route: Route, model: TemplateClassifier, world: World
) -> float:
    """Route cost counting a shared intermediate once per consuming reaction.

    This is the additive objective the tree search and the exhaustive oracle
    both minimize: a reaction's cost is added once per reaction that needs its
    product (reactant sets are sets, so a reactant repeated inside one
    reaction counts once). It equals ``route_cost_under`` whenever no
    intermediate is consumed by two different reactions. The route's
    products are scored in one batch first, as in ``route_cost_under``.
    """
    score_products(model, [rx.product for rx in route.reactions])
    by_product = {rx.product.text: rx for rx in route.reactions}

    def cost(text: str) -> float:
        rx = by_product.get(text)
        if rx is None:
            return 0.0
        total = _reaction_cost(model, rx, world)
        for r_text in dict.fromkeys(r.text for r in rx.reactants):
            total += cost(r_text)
        return total

    return cost(route.target.text)
