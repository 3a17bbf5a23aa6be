"""Best-first AND-OR search over backward template applications.

Molecule (OR) nodes alternate with reaction (AND) nodes. A reaction's cost is
the negative log probability its template received from the backward model;
the planner repeatedly expands the open molecule on the cheapest partial
route, where a partial route prices open molecules with a cost-to-go
estimator. With an estimator that never overestimates (the zero estimator in
particular) the first completed route is also the cheapest one in the tree.

Selection is incremental, in the style of Retro* (Chen et al., ICML 2020): a
molecule knows its g (the reaction costs from the root down to it) from the
moment it is created, and every molecule keeps the key ``(g + value, order)``
of the best open leaf on its own best partial subroute. An expansion changes
values only on the path from the expanded molecule to the root, and
``_refresh`` recomputes the key of each molecule on that path from its
children, so picking the next molecule costs O(1) and an expansion
O(depth x branching). The keys are the exact quantities a walk of the best
partial route would compute: g is the same float additions in the same
order, and the best reaction is the same first minimum.

A tree keeps its nodes in two lists, ``mols`` and ``rxns``, and every parent
link is an index into the other list, so links point only downwards and a
tree has no reference cycles: reference counting frees it as soon as
``plan`` returns, and the cyclic garbage collector never has to trace a
finished tree. A molecule's ``order`` is its index in ``mols``; as children
are created after their parents, every child has a larger index.

One plan invocation owns its tree; the model, estimator and world are only
read, so many plans may run concurrently against shared instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

from .errors import InvalidInput, NotSolved
from .model import TemplateClassifier, predict_topk
from .world import Molecule, Reaction, Route, World, make_reaction

OPEN = "open"
EXPANDED = "expanded"
SOLVED_LEAF = "solved-leaf"
DEAD = "dead"

INF = math.inf


class ValueEstimator(Protocol):
    kind: str

    def evaluate(self, molecule: Molecule) -> float: ...


class ZeroEstimator:
    """Estimates every molecule at zero cost-to-go (the value-free variant)."""

    kind = "zero"

    def evaluate(self, molecule: Molecule) -> float:
        return 0.0


@dataclass(slots=True)
class ReactionNode:
    template_id: str
    cost: float
    reactants: tuple[Molecule, ...]
    # Index of the expanded molecule in SearchTree.mols.
    parent: int
    children: "list[MolNode]" = field(default_factory=list)
    value: float = INF


@dataclass(slots=True)
class MolNode:
    molecule: Molecule
    # Index of the producing reaction in SearchTree.rxns; None at the root.
    parent: int | None
    # Index in SearchTree.mols.
    order: int
    status: str
    value: float
    # Shared empty tuple until the molecule is expanded: most never are.
    children: "list[ReactionNode] | tuple[()]" = ()
    # Reaction costs from the root down to this molecule.
    g: float = 0.0
    # (g + value, order) of the open molecule to expand next in this
    # molecule's best partial subroute; None when that has none open.
    best: tuple[float, int] | None = None


class ExpansionRecord(NamedTuple):
    step: int
    molecule: str
    g_plus_h: float
    n_applicable: int


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
    """AND-OR tree with incrementally maintained node values."""

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
        self.mols: list[MolNode] = []
        self.rxns: list[ReactionNode] = []
        self.root = self._new_mol_node(target, None, 0.0)

    def _new_mol_node(self, molecule: Molecule, parent: int | None, g: float) -> MolNode:
        order = len(self.mols)
        if self.world.is_building_block(molecule):
            node = MolNode(molecule, parent, order, SOLVED_LEAF, 0.0, g=g)
        else:
            value = float(self.estimator.evaluate(molecule))
            node = MolNode(molecule, parent, order, OPEN, value, g=g, best=(g + value, order))
        self.mols.append(node)
        return node

    def _path_texts(self, node: MolNode) -> set[str]:
        texts = {node.molecule.text}
        while node.parent is not None:
            node = self.mols[self.rxns[node.parent].parent]
            texts.add(node.molecule.text)
        return texts

    def expand(self, node: MolNode) -> int:
        """One backward-model call; returns the number of applicable templates."""
        if node.status != OPEN:
            raise InvalidInput("only open molecules can be expanded")
        self.call_count += 1
        preds = predict_topk(self.model, node.molecule, self.k_expand, self.world)
        path = self._path_texts(node)
        node.children = []
        for pred in preds:
            reactants = pred.outcome  # sorted tuple of molecules
            # A reactant equal to any molecule on the root path would cycle.
            if any(r.text in path for r in reactants):
                continue
            rnode = ReactionNode(
                template_id=pred.template_id,
                cost=INF if pred.probability <= 0.0 else -math.log(pred.probability),
                reactants=reactants,  # type: ignore[arg-type]
                parent=node.order,
            )
            index = len(self.rxns)
            self.rxns.append(rnode)
            g = node.g + rnode.cost
            seen: set[str] = set()
            for r in reactants:
                if r.text not in seen:
                    seen.add(r.text)
                    rnode.children.append(self._new_mol_node(r, index, g))
            rnode.value = rnode.cost + sum(c.value for c in rnode.children)
            node.children.append(rnode)
        node.status = EXPANDED if node.children else DEAD
        self._refresh(node)
        self._propagate(node)
        return len(preds)

    def _refresh(self, node: MolNode) -> None:
        if node.status in (SOLVED_LEAF, OPEN):
            return
        best: ReactionNode | None = None
        for r in node.children:  # first strict minimum = insertion order
            if best is None or r.value < best.value:
                best = r
        node.value = INF if best is None else best.value
        if node.value == INF:
            node.status, node.best = DEAD, None
            return
        node.status = EXPANDED
        keys = [c.best for c in best.children if c.best is not None]  # type: ignore[union-attr]
        node.best = min(keys) if keys else None

    def _propagate(self, node: MolNode) -> None:
        while node.parent is not None:
            rnode = self.rxns[node.parent]
            rnode.value = rnode.cost + sum(c.value for c in rnode.children)
            node = self.mols[rnode.parent]
            self._refresh(node)

    def best_partial_route(self) -> list[tuple[MolNode, float]] | None:
        """The open molecule to expand next on the minimum-value partial route.

        The partial route takes the first minimum-value reaction at every
        expanded molecule; among its open molecules the one with the least
        ``(g + value, order)`` is next, where g is the sum of reaction costs
        from the root to the molecule. Returns None when the root is dead, []
        when the route is complete (all leaves solved), and otherwise the
        one-element list ``[(molecule, g)]``.

        O(1): the root holds that molecule's key (see the module docstring).
        """
        if self.root.value == INF:
            return None
        if self.root.best is None:
            return []
        node = self.mols[self.root.best[1]]
        return [(node, node.g)]


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
        n_applicable = tree.expand(node)
        if trace:
            records.append(
                ExpansionRecord(tree.call_count, node.molecule.text, score, n_applicable)
            )


def extract_route(tree: SearchTree) -> Route:
    """The minimum-cost fully solved subtree of the tree, as a Route."""
    # By molecule order: (cost, first cheapest reaction) of the molecule's
    # cheapest solved subtree, (0.0, None) for a building block, None if it
    # has none. Children come after their parents in ``tree.mols``, so a
    # backwards pass settles every child before its parent.
    solved: list[tuple[float, ReactionNode | None] | None] = [None] * len(tree.mols)
    for node in reversed(tree.mols):
        if node.status == SOLVED_LEAF:
            solved[node.order] = (0.0, None)
        elif node.status == EXPANDED:
            result: tuple[float, ReactionNode | None] | None = None
            for r in node.children:
                total = r.cost
                for child in r.children:
                    sub = solved[child.order]
                    if sub is None:
                        break
                    total += sub[0]
                else:
                    if result is None or total < result[0]:
                        result = (total, r)
            solved[node.order] = result

    if solved[tree.root.order] is None:
        raise NotSolved(f"no solved route for {tree.root.molecule.text}")

    reactions: dict[tuple, Reaction] = {}
    stack = [tree.root]
    while stack:  # pre-order, children left to right
        node = stack.pop()
        best_r = solved[node.order][1]  # type: ignore[index]
        if best_r is None:
            continue
        rx = make_reaction(node.molecule, best_r.reactants, best_r.template_id)
        reactions.setdefault(rx.key, rx)
        stack.extend(reversed(best_r.children))
    return Route(target=tree.root.molecule, reactions=tuple(reactions.values()))


def route_cost_under(
    route: Route, model: TemplateClassifier, world: World
) -> float:
    """Sum of negative log-likelihoods over the route's reaction set."""
    from .model import likelihood

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
    from .model import likelihood

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
