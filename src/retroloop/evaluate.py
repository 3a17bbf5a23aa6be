"""Planning-quality metrics and the exhaustive minimum-cost oracle.

Failed plans are scored with penalty rows: length and cost are twice the
maxima over the dataset's ground-truth routes (under the reference model) and
time is the full call budget. Time is always measured in backward-model
calls, never wall clock. The oracle explores breadth-first and settles each
dead end, a malformed molecule or a building block, when it finds it; it
scores the molecules left in one batch and settles them in one pass in
ascending term height.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import CapExceeded, EmptyDataset, InvalidInput
from .model import TemplateClassifier, check_world, product_proba, score_products
from .planner import ValueEstimator, plan, route_cost_under
from .world import Dataset, Molecule, Route, World

INF = math.inf
# How many new molecules one OracleEstimator call may explore.
ORACLE_CAP = 100_000


@dataclass(frozen=True)
class TargetRow:
    target: str
    outcome: str  # "success" | "failure"
    length: float
    time: int
    cost: float


@dataclass(frozen=True)
class PlanningMetrics:
    budget: int
    success_rate: float
    avg_length: float
    avg_time: float
    avg_cost: float
    rows: tuple[TargetRow, ...]


def penalty_constants(
    data: Dataset, ref: TemplateClassifier, world: World
) -> tuple[int, float]:
    """Maximum ground-truth route length and reference cost over the targets."""
    max_len, max_cost = 0, 0.0
    for target in data.targets:
        route = data.ground_truth_routes[target.text]
        max_len = max(max_len, len(route.reactions))
        max_cost = max(max_cost, route_cost_under(route, ref, world))
    return max_len, max_cost


def _metrics_at_budget(
    outcomes: list[tuple[Molecule, int | None, Route | None]],
    budget: int,
    ref: TemplateClassifier,
    world: World,
    max_len: int,
    max_cost: float,
) -> PlanningMetrics:
    rows = []
    for target, calls, route in outcomes:
        if calls is not None and calls <= budget:
            rows.append(
                TargetRow(
                    target=target.text,
                    outcome="success",
                    length=float(len(route.reactions)),  # type: ignore[union-attr]
                    time=calls,
                    cost=route_cost_under(route, ref, world),  # type: ignore[arg-type]
                )
            )
        else:
            rows.append(
                TargetRow(
                    target=target.text,
                    outcome="failure",
                    length=2.0 * max_len,
                    time=budget,
                    cost=2.0 * max_cost,
                )
            )
    n = len(rows)
    successes = sum(1 for r in rows if r.outcome == "success")
    return PlanningMetrics(
        budget=budget,
        success_rate=successes / n,
        avg_length=sum(r.length for r in rows) / n,
        avg_time=sum(r.time for r in rows) / n,
        avg_cost=sum(r.cost for r in rows) / n,
        rows=tuple(rows),
    )


def evaluate_over_budgets(
    model: TemplateClassifier,
    estimator: ValueEstimator,
    targets: "tuple[Molecule, ...] | list[Molecule]",
    budgets: "list[int]",
    ref: TemplateClassifier,
    penalties: tuple[int, float],
    world: World,
    k_expand: int = 10,
) -> dict[int, PlanningMetrics]:
    """Metrics per budget, from one run per target at the largest budget.

    The search is deterministic and a budget only truncates it, so a run at
    budget N is a prefix of the run at any larger budget: smaller budgets are
    read off the same runs, and success rates are non-decreasing in budget.
    ``penalties`` is ``penalty_constants`` of the dataset, which callers
    compute once for every model they evaluate on it.
    """
    if not targets:
        raise EmptyDataset("no targets to evaluate")
    if not budgets or sorted(budgets) != list(budgets):
        raise InvalidInput("budgets must be non-empty and ascending")
    max_len, max_cost = penalties
    outcomes = []  # (target, calls at success or None, route)
    for target in targets:
        result = plan(target, model, estimator, budgets[-1], k_expand, world)
        if result.success:
            outcomes.append((target, result.model_calls, result.route))
        else:
            outcomes.append((target, None, None))
    return {
        budget: _metrics_at_budget(outcomes, budget, ref, world, max_len, max_cost)
        for budget in budgets
    }


# ---------------------------------------------------------------------------
# exhaustive oracle

# A live application of a template: its row in the reference model and its
# distinct reactant texts, sorted.
Application = tuple[int, tuple[str, ...]]


@dataclass
class OracleTable:
    """What one oracle call settled: the minimal additive route cost of each
    molecule it newly explored (INF when unsynthesizable), and their count."""

    costs: dict[str, float]
    explored: int


def _found(m: Molecule, stock: frozenset[str], costs: dict[str, float], queue: deque) -> None:
    """Record the newly explored ``m``. A dead end is settled at once: a
    malformed molecule, on which no template fires, at INF, and a building
    block at 0.0. Any other molecule is queued for its applications and
    holds INF until one of them is priced."""
    if m.malformed:
        costs[m.text] = INF
    elif m.text in stock:
        costs[m.text] = 0.0
    else:
        costs[m.text] = INF
        queue.append(m)


def brute_force_oracle(
    world: World,
    ref: TemplateClassifier,
    roots: "list[Molecule] | tuple[Molecule, ...]",
    cap: int,
    known: "Mapping[str, float] | None" = None,
) -> OracleTable:
    """Exhaustive minimum-cost computation over everything reachable from roots.

    value(m) = 0 for building blocks, otherwise the cheapest applicable
    template application: its negative log probability under the reference
    model plus the values of its distinct reactants. Identity's application,
    the one cycle (``world.Template``), is skipped. The reference model must
    be made for ``world`` (``check_world``), or UnknownTemplate is raised.

    ``known`` holds costs settled by earlier calls. They are final, because
    a call settles everything reachable from what it explores, so they are
    leaves here, and ``known`` must hold everything reachable from its
    molecules, as the union of earlier calls' costs does. The call explores,
    scores and settles only the molecules not in ``known``; ``cap`` bounds
    how many of those it may explore (``CapExceeded``), and ``explored``
    counts them, dead ends included.

    Exploration is breadth-first, and dead ends are settled when they are
    found (``_found``): a malformed molecule costs INF and a building block
    0.0, and neither is expanded. An application with a malformed reactant
    can never be finite, so it is dropped once its reactants are recorded.
    The molecules left with a live application are scored in one batch
    (``score_products``), then priced from the model's memo. Every reactant
    is lower in height than its product or malformed (``world.Template``),
    so one pass over them in ascending height settles each after its
    reactants; a molecule with no live application stays INF.
    """
    check_world(ref, world)
    known = {} if known is None else known
    stock = world.stock
    row_of = ref._row_of
    costs: dict[str, float] = {}
    queue: deque[Molecule] = deque()
    for m in roots:
        if m.text not in known and m.text not in costs:
            _found(m, stock, costs, queue)
    live: list[tuple[Molecule, list[Application]]] = []
    while queue:
        m = queue.popleft()
        apps = []
        for tid, reactants in world.applications(m):
            dead = False
            for r in reactants:
                dead = dead or r.malformed
                if r.text not in costs and r.text not in known:
                    if len(costs) >= cap:
                        raise CapExceeded(
                            f"oracle exploration exceeded cap of {cap} molecules"
                        )
                    _found(r, stock, costs, queue)
            if dead:
                continue
            # Reactants come sorted by text, so their distinct texts do too.
            texts = tuple(dict.fromkeys([r.text for r in reactants]))
            if m.text not in texts:  # identity's is the one cycle
                apps.append((row_of[tid], texts))
        if apps:
            live.append((m, apps))

    score_products(ref, [m for m, _ in live])
    live.sort(key=lambda entry: entry[0].height)
    for m, apps in live:
        probs = product_proba(ref, m).tolist()
        costs[m.text] = min(
            (
                (INF if probs[row] <= 0.0 else -math.log(probs[row]))
                + sum(costs[t] if t in costs else known[t] for t in texts)
                for row, texts in apps
            ),
            default=INF,
        )
    return OracleTable(costs=costs, explored=len(costs))


class OracleEstimator:
    """Cost-to-go estimator backed by the exhaustive oracle, lazily extended.

    It keeps only the costs its oracle calls settled, not their graphs, and
    passes them to each call as ``known``, so every molecule is explored
    and costed once over the estimator's life.
    """

    def __init__(self, world: World, ref: TemplateClassifier):
        self.world = world
        self.ref = ref
        self._costs: dict[str, float] = {}

    def evaluate(self, molecule: Molecule) -> float:
        cost = self._costs.get(molecule.text)
        if cost is None:
            table = brute_force_oracle(
                self.world, self.ref, [molecule], ORACLE_CAP, known=self._costs
            )
            self._costs.update(table.costs)
            cost = self._costs[molecule.text]
        return cost
