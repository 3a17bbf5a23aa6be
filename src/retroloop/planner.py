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
    parent: "MolNode"
    children: "list[MolNode]" = field(default_factory=list)
    value: float = INF


@dataclass(slots=True)
class MolNode:
    molecule: Molecule
    parent: ReactionNode | None
    order: int
    status: str
    value: float
    children: list[ReactionNode] = field(default_factory=list)
    # Reaction costs from the root down to this molecule.
    g: float = 0.0
    # (g + value, order, molecule) of the open molecule to expand next in
    # this molecule's best partial subroute; None when that has none open.
    best: "tuple[float, int, MolNode] | None" = None


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
        self._counter = 0
        self.root = self._new_mol_node(target, None)

    def _new_mol_node(self, molecule: Molecule, parent: ReactionNode | None) -> MolNode:
        order = self._counter
        self._counter += 1
        g = 0.0 if parent is None else parent.parent.g + parent.cost
        if self.world.is_building_block(molecule):
            return MolNode(molecule, parent, order, SOLVED_LEAF, 0.0, g=g)
        value = float(self.estimator.evaluate(molecule))
        node = MolNode(molecule, parent, order, OPEN, value, g=g)
        node.best = (g + value, order, node)
        return node

    def _path_texts(self, node: MolNode) -> set[str]:
        texts = set()
        cur: MolNode | None = node
        while cur is not None:
            texts.add(cur.molecule.text)
            cur = cur.parent.parent if cur.parent is not None else None
        return texts

    def expand(self, node: MolNode) -> int:
        """One backward-model call; returns the number of applicable templates."""
        if node.status != OPEN:
            raise InvalidInput("only open molecules can be expanded")
        self.call_count += 1
        preds = predict_topk(self.model, node.molecule, self.k_expand, self.world)
        path = self._path_texts(node)
        for pred in preds:
            reactants = pred.outcome  # sorted tuple of molecules
            # A reactant equal to any molecule on the root path would cycle.
            if any(r.text in path for r in reactants):
                continue
            rnode = ReactionNode(
                template_id=pred.template_id,
                cost=INF if pred.probability <= 0.0 else -math.log(pred.probability),
                reactants=reactants,  # type: ignore[arg-type]
                parent=node,
            )
            seen: set[str] = set()
            for r in reactants:
                if r.text not in seen:
                    seen.add(r.text)
                    rnode.children.append(self._new_mol_node(r, rnode))
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
        rnode = node.parent
        while rnode is not None:
            rnode.value = rnode.cost + sum(c.value for c in rnode.children)
            parent = rnode.parent
            self._refresh(parent)
            rnode = parent.parent

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
        node = self.root.best[2]
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
    # id(molecule node) -> (cost, first cheapest reaction) of its cheapest
    # solved subtree: (0.0, None) for a building block, None if it has none.
    memo: dict[int, tuple[float, ReactionNode | None] | None] = {}

    def solved(node: MolNode) -> tuple[float, ReactionNode | None] | None:
        if id(node) in memo:
            return memo[id(node)]
        result: tuple[float, ReactionNode | None] | None = None
        if node.status == SOLVED_LEAF:
            result = (0.0, None)
        elif node.status == EXPANDED:
            for r in node.children:
                total = r.cost
                for child in r.children:
                    sub = solved(child)
                    if sub is None:
                        break
                    total += sub[0]
                else:
                    if result is None or total < result[0]:
                        result = (total, r)
        memo[id(node)] = result
        return result

    if solved(tree.root) is None:
        raise NotSolved(f"no solved route for {tree.root.molecule.text}")

    reactions: dict[tuple, Reaction] = {}

    def collect(node: MolNode) -> None:
        best_r = memo[id(node)][1]
        if best_r is None:
            return
        rx = make_reaction(node.molecule, best_r.reactants, best_r.template_id)
        reactions.setdefault(rx.key, rx)
        for child in best_r.children:
            collect(child)

    collect(tree.root)
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


def recompute_all_values(tree: SearchTree) -> dict[int, float]:
    """Fresh bottom-up values for every node, keyed by id(); for verification."""
    values: dict[int, float] = {}

    def walk(node: MolNode) -> float:
        if node.status == SOLVED_LEAF:
            v = 0.0
        elif node.status == OPEN:
            v = float(tree.estimator.evaluate(node.molecule))
        else:
            v = INF
            for r in node.children:
                total = r.cost + sum(walk(c) for c in r.children)
                values[id(r)] = total
                v = min(v, total)
        values[id(node)] = v
        return v

    walk(tree.root)
    return values
