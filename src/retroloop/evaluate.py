"""Planning-quality metrics and the exhaustive minimum-cost oracle.

Failed plans are scored with penalty rows: length and cost are twice the
maxima over the dataset's ground-truth routes (under the reference model) and
time is the full call budget. Time is always measured in backward-model
calls, never wall clock. The oracle explores breadth-first and settles its
costs in one pass in ascending term height.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import CapExceeded, EmptyDataset, InvalidInput
from .model import TemplateClassifier, check_world, product_proba
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

# (cost under the reference model, reactants sorted by text, distinct
# reactant texts sorted)
Application = tuple[float, tuple[Molecule, ...], tuple[str, ...]]


@dataclass
class OracleTable:
    """What one oracle call settled: the minimal additive route cost of each
    molecule it newly explored (INF when unsynthesizable), and their count."""

    costs: dict[str, float]
    explored: int


def _applications(m: Molecule, world: World, ref: TemplateClassifier) -> list[Application]:
    """The template applications to ``m`` in template order, but identity's,
    the one cycle (``world.Template``), each priced at its negative log
    probability under ``ref``. The model is asked only when some template
    applies, through its memo (``product_proba``), so a product the planner
    or the filter scored is not scored again."""
    fired = []
    for tid, reactants in world.applications(m):
        texts = tuple(sorted({r.text for r in reactants}))
        if m.text in texts:
            continue  # identity
        fired.append((ref._row_of[tid], reactants, texts))
    if not fired:
        return []
    probs = product_proba(ref, m)
    apps = []
    for row, reactants, texts in fired:
        p = float(probs[row])
        apps.append((INF if p <= 0.0 else -math.log(p), reactants, texts))
    return apps


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
    model plus the values of the distinct reactants (``_applications``).
    The reference model must be made for ``world`` (``check_world``), or
    UnknownTemplate is raised.

    ``known`` holds costs settled by earlier calls. They are final, because
    a call settles everything reachable from what it explores, so they are
    leaves here, and ``known`` must hold everything reachable from its
    molecules, as the union of earlier calls' costs does. The call explores,
    scores and settles only the molecules not in ``known``; ``cap`` bounds
    how many of those it may explore (``CapExceeded``), and ``explored``
    counts them. Building blocks are leaves as well. Every reactant is
    lower in height than its product or malformed (``world.Template``), so
    one pass in ascending height settles each molecule after its reactants;
    one with no finite application is unsynthesizable (INF).
    """
    check_world(ref, world)
    known = {} if known is None else known
    molecules: dict[str, Molecule] = {}
    queue = deque()
    for m in roots:
        if m.text not in known and m.text not in molecules:
            molecules[m.text] = m
            queue.append(m)
    apps: dict[str, list[Application]] = {}
    while queue:
        m = queue.popleft()
        if world.is_building_block(m):
            continue
        apps[m.text] = _applications(m, world, ref)
        for _, ordered, _ in apps[m.text]:
            for r in ordered:
                if r.text not in known and r.text not in molecules:
                    if len(molecules) >= cap:
                        raise CapExceeded(
                            f"oracle exploration exceeded cap of {cap} molecules"
                        )
                    molecules[r.text] = r
                    queue.append(r)

    costs: dict[str, float] = {}
    for m in sorted(molecules.values(), key=lambda m: m.height):
        if world.is_building_block(m):
            costs[m.text] = 0.0
            continue
        costs[m.text] = min(
            (
                cost + sum(costs[t] if t in costs else known[t] for t in texts)
                for cost, _, texts in apps[m.text]
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
        if molecule.text not in self._costs:
            table = brute_force_oracle(
                self.world, self.ref, [molecule], ORACLE_CAP, known=self._costs
            )
            self._costs.update(table.costs)
        return self._costs[molecule.text]
