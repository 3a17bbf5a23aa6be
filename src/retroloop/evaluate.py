"""Planning-quality metrics and the exhaustive minimum-cost oracle.

Failed plans are scored with penalty rows: length and cost are twice the
maxima over the dataset's ground-truth routes (under the reference model) and
time is the full call budget. Time is always measured in backward-model
calls, never wall clock.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import CapExceeded, EmptyDataset, InvalidInput, UnknownTemplate
from .model import TemplateClassifier, featurize_molecule, predict_proba
from .planner import ValueEstimator, plan, route_cost_under
from .world import Dataset, Molecule, Reaction, Route, World, make_reaction

INF = math.inf


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
    data: Dataset,
    world: World,
    k_expand: int = 10,
) -> dict[int, PlanningMetrics]:
    """Metrics per budget, from one run per target at the largest budget.

    The search is deterministic and a budget only truncates it, so a run at
    budget N is a prefix of the run at any larger budget: smaller budgets are
    read off the same runs, and success rates are non-decreasing in budget.
    """
    if not targets:
        raise EmptyDataset("no targets to evaluate")
    if not budgets or sorted(budgets) != list(budgets):
        raise InvalidInput("budgets must be non-empty and ascending")
    max_len, max_cost = penalty_constants(data, ref, world)
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


@dataclass
class OracleTable:
    """Minimal additive route cost and a witness route per explored molecule."""

    costs: dict[str, float]
    witnesses: dict[str, Route]
    explored: int
    cap: int


def brute_force_oracle(
    world: World,
    ref: TemplateClassifier,
    roots: "list[Molecule] | tuple[Molecule, ...]",
    cap: int,
) -> OracleTable:
    """Exhaustive minimum-cost computation over everything reachable from roots.

    value(m) = 0 for building blocks, otherwise the cheapest applicable
    template application: its negative log probability under the reference
    model plus the values of the distinct reactants. Computed by fixed-point
    iteration from above; molecules that never become finite are
    unsynthesizable. Self-reproducing applications are skipped as cyclic.
    """
    molecules: dict[str, Molecule] = {}
    queue = deque()
    for m in roots:
        if m.text not in molecules:
            molecules[m.text] = m
            queue.append(m)

    apps: dict[str, list[tuple[str, float, tuple[Molecule, ...], tuple[str, ...]]]] = {}
    row_of = {tid: i for i, tid in enumerate(ref.template_index)}
    while queue:
        m = queue.popleft()
        entry = []
        probs = predict_proba(ref, featurize_molecule(m, ref.dim))
        for template in world.templates:
            reactants = template.backward(m)
            if reactants is None:
                continue
            texts = tuple(sorted({r.text for r in reactants}))
            if m.text in texts:
                continue  # cyclic application
            row = row_of.get(template.id)
            if row is None:
                raise UnknownTemplate(template.id)
            p = float(probs[row])
            cost = INF if p <= 0.0 else -math.log(p)
            ordered = tuple(sorted(reactants, key=lambda r: r.text))
            entry.append((template.id, cost, ordered, texts))
            for r in ordered:
                if r.text not in molecules:
                    if len(molecules) >= cap:
                        raise CapExceeded(
                            f"oracle exploration exceeded cap of {cap} molecules"
                        )
                    molecules[r.text] = r
                    queue.append(r)
        apps[m.text] = entry

    values = {
        text: 0.0 if world.is_building_block(m) else INF
        for text, m in molecules.items()
    }
    changed = True
    while changed:
        changed = False
        for text, m in molecules.items():
            if world.is_building_block(m):
                continue
            best = INF
            for _, cost, _, child_texts in apps[text]:
                total = cost + sum(values[t] for t in child_texts)
                if total < best:
                    best = total
            if best < values[text] - 1e-12:
                values[text] = best
                changed = True

    def argmin_app(text: str):
        best = None
        for app in apps[text]:
            total = app[1] + sum(values[t] for t in app[3])
            if best is None or total < best[0]:
                best = (total, app)
        return best[1] if best is not None else None

    witnesses: dict[str, Route] = {}
    for text, m in molecules.items():
        if values[text] == INF:
            continue
        if world.is_building_block(m):
            witnesses[text] = Route(target=m, reactions=())
            continue
        reactions: dict[tuple, Reaction] = {}
        pending = [text]
        seen = set()
        while pending:
            cur = pending.pop()
            if cur in seen or world.is_building_block(molecules[cur]):
                continue
            seen.add(cur)
            app = argmin_app(cur)
            assert app is not None
            tid, _, ordered, child_texts = app
            rx = make_reaction(molecules[cur], ordered, tid)
            reactions.setdefault(rx.key, rx)
            pending.extend(child_texts)
        witnesses[text] = Route(target=m, reactions=tuple(reactions.values()))

    return OracleTable(
        costs=values, witnesses=witnesses, explored=len(molecules), cap=cap
    )


class OracleEstimator:
    """Cost-to-go estimator backed by the exhaustive oracle, lazily extended."""

    kind = "oracle"

    def __init__(self, world: World, ref: TemplateClassifier, cap: int = 100_000):
        self.world = world
        self.ref = ref
        self.cap = cap
        self._costs: dict[str, float] = {}

    def evaluate(self, molecule: Molecule) -> float:
        if molecule.text not in self._costs:
            table = brute_force_oracle(self.world, self.ref, [molecule], self.cap)
            self._costs.update(table.costs)
        return self._costs[molecule.text]
