"""Planning-quality metrics and the exhaustive minimum-cost oracle.

Failed plans are scored with penalty rows: length and cost are twice the
maxima over the dataset's ground-truth routes (under the reference model) and
time is the full call budget. Time is always measured in backward-model
calls, never wall clock.
"""

from __future__ import annotations

import heapq
import math
from collections import ChainMap, deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from .errors import CapExceeded, EmptyDataset, InvalidInput, UnknownTemplate
from .model import TemplateClassifier, product_proba
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

# (template id, cost under the reference model, reactants sorted by text,
# distinct reactant texts sorted)
Application = tuple[str, float, tuple[Molecule, ...], tuple[str, ...]]


@dataclass
class OracleTable:
    """What one oracle call settled: the minimal additive route cost of each
    molecule it newly explored (INF when unsynthesizable), and a witness
    route for each root of finite cost.

    The witnesses are built when ``witnesses`` is first read, so a caller
    that wants only the costs, as ``OracleEstimator`` does, builds none.
    """

    costs: dict[str, float]
    explored: int
    _build_witnesses: Callable[[], dict[str, Route]] = field(repr=False)

    @cached_property
    def witnesses(self) -> dict[str, Route]:
        return self._build_witnesses()


def _applications(
    m: Molecule, world: World, ref: TemplateClassifier, row_of: dict[str, int]
) -> list[Application]:
    """The non-cyclic template applications to ``m`` in template order, each
    priced at its negative log probability under ``ref``. The model is asked
    only when some template applies, through its memo (``product_proba``),
    so a product the planner or the filter scored is not scored again."""
    fired = []
    for tid, reactants in world.applications(m):
        texts = tuple(sorted({r.text for r in reactants}))
        if m.text in texts:
            continue  # cyclic application
        row = row_of.get(tid)
        if row is None:
            raise UnknownTemplate(tid)
        fired.append((tid, row, reactants, texts))
    if not fired:
        return []
    probs = product_proba(ref, m)
    apps = []
    for tid, row, reactants, texts in fired:
        p = float(probs[row])
        apps.append((tid, INF if p <= 0.0 else -math.log(p), reactants, texts))
    return apps


def _settle(
    world: World,
    ref: TemplateClassifier,
    roots: "list[Molecule] | tuple[Molecule, ...]",
    cap: int,
    known: Mapping[str, float],
    row_of: dict[str, int],
) -> tuple[dict[str, float], dict[str, list[Application]]]:
    """The costs of every molecule reachable from ``roots`` and not in
    ``known``, and the applications of those that are not building blocks."""
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
        apps[m.text] = _applications(m, world, ref, row_of)
        for _, _, ordered, _ in apps[m.text]:
            for r in ordered:
                if r.text not in known and r.text not in molecules:
                    if len(molecules) >= cap:
                        raise CapExceeded(
                            f"oracle exploration exceeded cap of {cap} molecules"
                        )
                    molecules[r.text] = r
                    queue.append(r)

    # values holds the known costs this call reads, then each settled one.
    values: dict[str, float] = {}
    heap = [(0.0, text) for text, m in molecules.items() if world.is_building_block(m)]
    waiting: dict[str, list[list]] = {}  # unsettled text -> its applications
    for text, entry in apps.items():
        for _, cost, _, texts in entry:
            app = [0, text, cost, texts]  # [unsettled reactants, product, ...]
            for t in texts:
                if t in known:
                    values[t] = known[t]
                else:
                    app[0] += 1
                    waiting.setdefault(t, []).append(app)
            if not app[0]:
                heap.append((cost + sum(values[t] for t in texts), text))
    heapq.heapify(heap)
    while heap:
        value, text = heapq.heappop(heap)
        if text in values:
            continue
        values[text] = value
        for app in waiting.pop(text, ()):
            app[0] -= 1
            if app[0] == 0 and app[1] not in values:
                _, parent, cost, texts = app
                heapq.heappush(heap, (cost + sum(values[t] for t in texts), parent))
    return {text: values.get(text, INF) for text in molecules}, apps


def _witnesses(
    world: World,
    ref: TemplateClassifier,
    roots: "list[Molecule] | tuple[Molecule, ...]",
    row_of: dict[str, int],
    apps: dict[str, list[Application]],
    final: Mapping[str, float],
) -> dict[str, Route]:
    """A witness route for each root of finite ``final`` cost, built
    top-down: each route molecule takes the first application, in
    ``world.templates`` order, of strictly least cost. Applications not in
    ``apps`` (of molecules costed by earlier calls) are derived again."""
    witnesses: dict[str, Route] = {}
    for root in roots:
        if root.text in witnesses or final[root.text] == INF:
            continue
        reactions: dict[tuple, Reaction] = {}
        pending = [root]
        seen = set()
        while pending:
            m = pending.pop()
            if m.text in seen or world.is_building_block(m):
                continue
            seen.add(m.text)
            if m.text in apps:
                entry = apps[m.text]
            else:
                entry = _applications(m, world, ref, row_of)
            best = None
            for app in entry:
                total = app[1] + sum(final[t] for t in app[3])
                if best is None or total < best[0]:
                    best = (total, app)
            assert best is not None
            tid, _, ordered, _ = best[1]
            rx = make_reaction(m, ordered, tid)
            reactions.setdefault(rx.key, rx)
            pending.extend(ordered)
        witnesses[root.text] = Route(target=root, reactions=tuple(reactions.values()))
    return witnesses


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
    model plus the values of the distinct reactants. Self-reproducing
    applications are skipped as cyclic.

    ``known`` holds costs settled by earlier calls. They are final, because
    a call settles everything reachable from what it explores, so they are
    leaves here, and ``known`` must hold everything reachable from its
    molecules, as the union of earlier calls' costs does. The call explores,
    scores and settles only the molecules not in ``known``; ``cap`` bounds
    how many of those it may explore (``CapExceeded``), and ``explored``
    counts them. Building blocks are leaves as well. The settling is
    Knuth's generalised Dijkstra (Knuth 1977, Inf. Proc. Letters 6(1)):
    costs are non-negative and additive, so an application is priced once
    its last reactant is settled, and the cheapest priced molecule is
    settled next. Molecules never settled are unsynthesizable (INF).

    A witness route is built for each root of finite cost, top-down from the
    final costs, when ``witnesses`` is first read. It reads ``known`` as it
    is then; costs added to it in between change no witness.
    """
    known = {} if known is None else known
    row_of = {tid: i for i, tid in enumerate(ref.template_index)}
    costs, apps = _settle(world, ref, roots, cap, known, row_of)
    return OracleTable(
        costs=costs,
        explored=len(costs),
        _build_witnesses=partial(
            _witnesses, world, ref, tuple(roots), row_of, apps, ChainMap(costs, known)
        ),
    )


class OracleEstimator:
    """Cost-to-go estimator backed by the exhaustive oracle, lazily extended.

    It keeps only the costs its oracle calls settled, not their graphs, and
    passes them to each call as ``known``, so every molecule is explored
    and costed once over the estimator's life.
    """

    kind = "oracle"

    def __init__(self, world: World, ref: TemplateClassifier, cap: int = 100_000):
        self.world = world
        self.ref = ref
        self.cap = cap
        self._costs: dict[str, float] = {}

    def evaluate(self, molecule: Molecule) -> float:
        if molecule.text not in self._costs:
            table = brute_force_oracle(
                self.world, self.ref, [molecule], self.cap, known=self._costs
            )
            self._costs.update(table.costs)
        return self._costs[molecule.text]
