"""Best-first AND-OR search over backward template applications.

Molecule (OR) nodes alternate with reaction (AND) nodes. A reaction's cost is
the negative log probability its template received from the backward model;
the planner repeatedly expands the open molecule on the cheapest partial
route, where a partial route prices open molecules with a cost-to-go
estimator. With an estimator that never overestimates (the zero estimator in
particular) the first completed route is also the cheapest one in the tree.

Selection is incremental, in the style of Retro* (Chen et al., ICML 2020): a
molecule knows its g (the reaction costs from the root down to it) from the
moment it is created, and every molecule keeps the key ``(g + value, row)``
of the best open leaf on its own best partial subroute. An expansion changes
values only on the path from the expanded molecule to the root, and
``_refresh`` recomputes the key of each molecule on that path from its
children, so picking the next molecule costs O(1) and an expansion
O(depth x branching). The keys are the exact quantities a walk of the best
partial route would compute: g is the same float additions in the same
order, and the best reaction is the same first minimum.

A tree is stored as columns: parallel lists with one entry per molecule row
(``mol_*``) and per reaction row (``rxn_*``). Every link is a row number, so
a tree holds no node objects and no reference cycles: reference counting
frees it as soon as ``plan`` returns, and the garbage collector has few
objects to trace while it lives. One ``expand`` appends all the reactions of
a molecule, and each reaction's children right after it, so the children of
a row are the contiguous rows ``[first, end)``; a child's row is always
larger than its parent's. The molecule column holds the very ``Molecule``
objects of the reactant tuples, which routes then share.

``MolNode`` and ``ReactionNode`` are read-only ``(tree, row)`` views with the
attribute names of a node, built only when read: ``tree.root``,
``best_partial_route()`` and ``.children`` return views, and ``expand``
takes one.

One plan invocation owns its tree and only reads the world. It writes the
model's memo of product scores (``model.product_proba``), but only one dict
entry of an equal value per product, so many plans may still run
concurrently against shared instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol

from .errors import InvalidInput, NotSolved
from .model import TemplateClassifier, likelihood, predict_topk
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


def _column(name: str, doc: str | None = None) -> property:
    """A view attribute: the view's row of the tree column ``name``."""
    return property(lambda view: getattr(view.tree, name)[view.row], doc=doc)


@dataclass(frozen=True, slots=True)
class MolNode:
    """Molecule row ``row`` of ``tree``, read through its columns."""

    tree: "SearchTree"
    row: int

    molecule = _column("mol_molecule")
    parent = _column("mol_parent", "Row of the producing reaction; None at the root.")
    status = _column("mol_status")
    value = _column("mol_value")
    g = _column("mol_g", "Reaction costs from the root down to this molecule.")
    best = _column(
        "mol_best",
        "``(g + value, row)`` of the open molecule to expand next in this "
        "molecule's best partial subroute; None when that has none open.",
    )

    @property
    def children(self) -> list[ReactionNode]:
        first = self.tree.mol_first[self.row]
        return [
            ReactionNode(self.tree, r) for r in range(first, first + self.tree.mol_nrxn[self.row])
        ]


@dataclass(frozen=True, slots=True)
class ReactionNode:
    """Reaction row ``row`` of ``tree``, read through its columns."""

    tree: "SearchTree"
    row: int

    template_id = _column("rxn_template")
    cost = _column("rxn_cost")
    reactants = _column("rxn_reactants")
    parent = _column("rxn_parent", "Row of the expanded molecule.")
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
        # Molecule columns, row 0 the target. A molecule's reactions are the
        # rows [mol_first, mol_first + mol_nrxn); (0, 0) until it is expanded.
        self.mol_molecule: list[Molecule] = [target]
        self.mol_parent: list[int | None] = [None]
        self.mol_g: list[float] = [0.0]
        self.mol_first: list[int] = [0]
        self.mol_nrxn: list[int] = [0]
        self.mol_status: list[str]
        self.mol_value: list[float]
        self.mol_best: list[tuple[float, int] | None]
        if world.is_building_block(target):
            self.mol_status, self.mol_value, self.mol_best = [SOLVED_LEAF], [0.0], [None]
        else:
            value = float(estimator.evaluate(target))
            self.mol_status, self.mol_value, self.mol_best = [OPEN], [value], [(value, 0)]
        # Reaction columns. A reaction's children are the molecule rows
        # [rxn_first, rxn_end), one per distinct reactant.
        self.rxn_template: list[str] = []
        self.rxn_cost: list[float] = []
        self.rxn_reactants: list[tuple[Molecule, ...]] = []
        self.rxn_parent: list[int] = []
        self.rxn_first: list[int] = []
        self.rxn_end: list[int] = []
        self.rxn_value: list[float] = []

    @property
    def root(self) -> MolNode:
        return MolNode(self, 0)

    def _path_texts(self, row: int) -> set[str]:
        texts = {self.mol_molecule[row].text}
        parent = self.mol_parent[row]
        while parent is not None:
            row = self.rxn_parent[parent]
            texts.add(self.mol_molecule[row].text)
            parent = self.mol_parent[row]
        return texts

    def expand(self, node: MolNode) -> int:
        """One backward-model call; returns the number of applicable templates."""
        row = node.row
        if self.mol_status[row] != OPEN:
            raise InvalidInput("only open molecules can be expanded")
        self.call_count += 1
        preds = predict_topk(self.model, self.mol_molecule[row], self.k_expand, self.world)
        path = self._path_texts(row)
        stock = self.world.stock
        evaluate = self.estimator.evaluate
        molecules, values, costs = self.mol_molecule, self.mol_value, self.rxn_cost
        add_molecule, add_parent, add_g = molecules.append, self.mol_parent.append, self.mol_g.append
        add_first, add_nrxn = self.mol_first.append, self.mol_nrxn.append
        add_status, add_value, add_best = self.mol_status.append, values.append, self.mol_best.append
        add_template, add_cost = self.rxn_template.append, costs.append
        add_reactants, add_rxn_parent = self.rxn_reactants.append, self.rxn_parent.append
        add_rxn_first, add_rxn_end = self.rxn_first.append, self.rxn_end.append
        add_rxn_value = self.rxn_value.append
        g_row = self.mol_g[row]
        first = len(costs)
        for pred in preds:
            reactants = pred.outcome  # sorted tuple of molecules
            # A reactant equal to any molecule on the root path would cycle.
            for r in reactants:
                if r.text in path:
                    break
            else:
                cost = INF if pred.probability <= 0.0 else -math.log(pred.probability)
                g = g_row + cost
                rxn = len(costs)
                start = len(molecules)
                previous = None
                for r in reactants:
                    text = r.text
                    if text == previous:  # sorted, so a repeated reactant is adjacent
                        continue
                    previous = text
                    child = len(molecules)
                    add_molecule(r)
                    add_parent(rxn)
                    add_g(g)
                    add_first(0)
                    add_nrxn(0)
                    if not r.malformed and text in stock:
                        add_status(SOLVED_LEAF)
                        add_value(0.0)
                        add_best(None)
                    else:
                        value = float(evaluate(r))
                        add_status(OPEN)
                        add_value(value)
                        add_best((g + value, child))
                end = len(molecules)
                add_template(pred.template_id)
                add_cost(cost)
                add_reactants(reactants)
                add_rxn_parent(row)
                add_rxn_first(start)
                add_rxn_end(end)
                add_rxn_value(cost + sum(values[start:end]))
        n_rxn = len(costs) - first
        self.mol_first[row], self.mol_nrxn[row] = first, n_rxn
        self.mol_status[row] = EXPANDED if n_rxn else DEAD
        self._refresh(row)
        self._propagate(row)
        return len(preds)

    def _refresh(self, row: int) -> None:
        if self.mol_status[row] in (SOLVED_LEAF, OPEN):
            return
        first = self.mol_first[row]
        # The first strict minimum: ties go to the earlier reaction.
        best = min(
            range(first, first + self.mol_nrxn[row]), key=self.rxn_value.__getitem__, default=None
        )
        value = INF if best is None else self.rxn_value[best]
        self.mol_value[row] = value
        if value == INF:
            self.mol_status[row], self.mol_best[row] = DEAD, None
            return
        self.mol_status[row] = EXPANDED
        key = None
        bests = self.mol_best
        for c in range(self.rxn_first[best], self.rxn_end[best]):
            k = bests[c]
            if k is not None and (key is None or k < key):
                key = k
        bests[row] = key

    def _propagate(self, row: int) -> None:
        parent = self.mol_parent[row]
        while parent is not None:
            self.rxn_value[parent] = self.rxn_cost[parent] + sum(
                self.mol_value[self.rxn_first[parent] : self.rxn_end[parent]]
            )
            row = self.rxn_parent[parent]
            self._refresh(row)
            parent = self.mol_parent[row]

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
        row = key[1]
        return [(MolNode(self, row), self.mol_g[row])]


def plan(
    target: Molecule,
    model: TemplateClassifier,
    estimator: ValueEstimator,
    budget: int,
    k_expand: int,
    world: World,
    trace: bool = False,
) -> PlanResult:
    """Search for a route to ``target`` within ``budget`` model calls."""
    if budget < 0:
        raise InvalidInput("budget must be non-negative")
    if k_expand < 1:
        raise InvalidInput("k_expand must be at least 1")
    tree = SearchTree(target, model, estimator, k_expand, world)
    records: list[ExpansionRecord] = []
    while True:
        open_nodes = tree.best_partial_route()
        if open_nodes is None:
            return PlanResult(
                "failure", None, tree.call_count, tuple(records) if trace else None
            )
        if not open_nodes:
            return PlanResult(
                "success",
                extract_route(tree),
                tree.call_count,
                tuple(records) if trace else None,
            )
        if tree.call_count >= budget:
            return PlanResult(
                "failure", None, tree.call_count, tuple(records) if trace else None
            )
        node, g = open_nodes[0]
        score = g + node.value
        applicable = tree.expand(node)
        if trace:
            records.append(
                ExpansionRecord(tree.call_count, node.molecule.text, score, applicable)
            )


def extract_route(tree: SearchTree) -> Route:
    """The minimum-cost fully solved subtree of the tree, as a Route."""
    # By molecule row: (cost, first cheapest reaction row) of the molecule's
    # cheapest solved subtree, (0.0, None) for a building block, None if it
    # has none. Children come after their parents, so a backwards pass
    # settles every child before its parent.
    statuses, firsts, counts = tree.mol_status, tree.mol_first, tree.mol_nrxn
    costs, child_first, child_end = tree.rxn_cost, tree.rxn_first, tree.rxn_end
    solved: list[tuple[float, int | None] | None] = [None] * len(statuses)
    for row in range(len(statuses) - 1, -1, -1):
        status = statuses[row]
        if status == SOLVED_LEAF:
            solved[row] = (0.0, None)
        elif status == EXPANDED:
            result: tuple[float, int | None] | None = None
            for r in range(firsts[row], firsts[row] + counts[row]):
                total = costs[r]
                for child in range(child_first[r], child_end[r]):
                    sub = solved[child]
                    if sub is None:
                        break
                    total += sub[0]
                else:
                    if result is None or total < result[0]:
                        result = (total, r)
            solved[row] = result

    target = tree.mol_molecule[0]
    if solved[0] is None:
        raise NotSolved(f"no solved route for {target.text}")

    reactions: dict[tuple, Reaction] = {}
    stack = [0]
    while stack:  # pre-order, children left to right
        row = stack.pop()
        r = solved[row][1]  # type: ignore[index]
        if r is None:
            continue
        rx = make_reaction(tree.mol_molecule[row], tree.rxn_reactants[r], tree.rxn_template[r])
        reactions.setdefault(rx.key, rx)
        stack.extend(range(child_end[r] - 1, child_first[r] - 1, -1))
    return Route(target=target, reactions=tuple(reactions.values()))


def route_cost_under(
    route: Route, model: TemplateClassifier, world: World
) -> float:
    """Sum of negative log-likelihoods over the route's reaction set."""
    return sum(-math.log(likelihood(model, rx, world)) for rx in route.reactions)


def unfolded_route_cost(
    route: Route, model: TemplateClassifier, world: World
) -> float:
    """Route cost counting a shared intermediate once per consuming reaction.

    This is the additive objective the tree search and the exhaustive oracle
    both minimize: a reaction's cost is added once per reaction that needs its
    product (reactant sets are sets, so a reactant repeated inside one
    reaction counts once). It equals ``route_cost_under`` whenever no
    intermediate is consumed by two different reactions.
    """
    by_product = {rx.product.text: rx for rx in route.reactions}

    def cost(text: str) -> float:
        rx = by_product.get(text)
        if rx is None:
            return 0.0
        total = -math.log(likelihood(model, rx, world))
        for r_text in dict.fromkeys(r.text for r in rx.reactants):
            total += cost(r_text)
        return total

    return cost(route.target.text)
