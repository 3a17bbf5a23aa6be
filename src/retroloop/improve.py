"""Self-improvement loop for the backward model.

Each iteration plans a batch of sampled targets with the current backward
model, harvests the reactions of the successful routes, discards those the
frozen reference model finds unlikely (probability <= epsilon), augments the
survivors through the forward model under a double acceptance check, and
behavior-clones the backward model on the combined multiset. Failed planning
attempts contribute nothing. The reference and forward models are trained
once and never change.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyDataset, InvalidConfig, InvalidReaction
from .model import (
    ROLE_BACKWARD,
    ROLE_FORWARD,
    TemplateClassifier,
    TrainConfig,
    featurize_molecule,
    featurize_reactant_set,
    likelihood,
    predict_topk,
    score_products,
    topk_exact_match,
    train,
    zero_classifier,
)
from .planner import ZeroEstimator, plan
from .seeding import derive_seed
from .world import Dataset, Reaction, Route, World, validate_route


def collect_reactions(
    routes: Sequence[Route],
    ref: TemplateClassifier,
    epsilon: float,
    world: World,
) -> tuple[Reaction, ...]:
    """Reactions of all routes whose reference likelihood strictly exceeds
    epsilon; a reaction on several routes is kept once per route. The
    products are scored under the reference together, in one
    ``score_products`` call."""
    harvested = [rx for route in routes for rx in route.reactions]
    score_products(ref, [rx.product for rx in harvested])
    return tuple(rx for rx in harvested if likelihood(ref, rx, world) > epsilon)


def augment(
    reactions: Sequence[Reaction],
    fwd: TemplateClassifier,
    ref: TemplateClassifier,
    epsilon_aug: float,
    world: World,
) -> tuple[Reaction, ...]:
    """Replace each product with the forward model's proposal, doubly checked.

    An augmented reaction (m', R) is kept only when the forward model is
    confident (probability > epsilon_aug) and the reference backward model's
    top applicable template on m' is the same template and reproduces R.
    Proposals identical to the original product are retained on purpose.
    """
    accepted: list[Reaction] = []
    for rx in reactions:
        proposals = predict_topk(fwd, rx.reactants, 1, world)
        if not proposals:
            continue
        tid, prob, product = proposals[0]
        if not prob > epsilon_aug:
            continue
        backs = predict_topk(ref, product, 1, world)  # type: ignore[arg-type]
        if not backs:
            continue
        back_tid, _back_prob, reactants = backs[0]
        if back_tid != tid:
            continue
        reproduced = tuple(m.text for m in reactants)  # type: ignore[union-attr]
        if reproduced != tuple(r.text for r in rx.reactants):
            continue
        accepted.append(Reaction(product=product, reactants=rx.reactants, template_id=tid))  # type: ignore[arg-type]
    return tuple(accepted)


def behavioral_clone(
    model: TemplateClassifier,
    reactions: Sequence[Reaction],
    cfg: TrainConfig,
    seed: int,
) -> TemplateClassifier:
    """Maximum-likelihood imitation of the multiset: each distinct
    (product, template) pair is one sample, weighted by its multiplicity."""
    counts = Counter((rx.product, rx.template_id) for rx in reactions)
    samples = [(featurize_molecule(p, model.dim), tid, float(n)) for (p, tid), n in counts.items()]
    return train(model, samples, cfg, seed)


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class LoopConfig:
    iterations: int = 3
    targets_per_iteration: int = 100
    budget: int = 50
    epsilon: float = 0.8
    epsilon_aug: float = 0.8
    k_expand: int = 10
    bc: TrainConfig = TrainConfig()
    augmentation: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise InvalidConfig("iterations must be at least 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidConfig("epsilon must lie in [0, 1]")
        if not 0.0 <= self.epsilon_aug <= 1.0:
            raise InvalidConfig("epsilon_aug must lie in [0, 1]")
        if self.targets_per_iteration < 1:
            raise InvalidConfig("targets_per_iteration must be at least 1")
        if self.budget < 0:
            raise InvalidConfig("budget must be non-negative")
        if self.k_expand < 1:
            raise InvalidConfig("k_expand must be at least 1")


@dataclass(frozen=True)
class IterationReport:
    """The counts of one iteration, as written to its report file."""

    iteration: int
    routes_attempted: int
    routes_succeeded: int
    reactions_harvested: int
    kept_after_filter: int
    augmented_accepted: int
    duplicates_retained: int
    top1: float
    top10: float


@dataclass(frozen=True)
class PretrainConfig:
    backward: TrainConfig = TrainConfig()
    forward: TrainConfig = TrainConfig(learning_rate=0.001, epochs=100)


def pretrain_models(
    world: World, data: Dataset, cfg: PretrainConfig, dim: int, seed: int
) -> tuple[TemplateClassifier, TemplateClassifier, TemplateClassifier]:
    """Supervised pretraining on the reaction dataset, each model with its
    own child of the experiment ``seed``.

    Returns (backward, reference, forward). The reference is the pretrained
    backward model itself, so the loop's backward model starts from it.
    """
    if not data.reactions_train:
        raise EmptyDataset("pretraining needs a non-empty train split")
    backward_samples = [
        (featurize_molecule(rx.product, dim), rx.template_id)
        for rx in data.reactions_train
    ]
    forward_samples = [
        (featurize_reactant_set(rx.reactants, dim), rx.template_id)
        for rx in data.reactions_train
    ]
    backward = train(
        zero_classifier(world.template_ids, ROLE_BACKWARD, dim),
        backward_samples,
        cfg.backward,
        derive_seed(seed, "pretrain-backward"),
    )
    forward = train(
        zero_classifier(world.template_ids, ROLE_FORWARD, dim),
        forward_samples,
        cfg.forward,
        derive_seed(seed, "pretrain-forward"),
    )
    return backward, backward, forward


def run_self_improvement(
    cfg: LoopConfig,
    world: World,
    data: Dataset,
    pretrained: tuple[TemplateClassifier, TemplateClassifier, TemplateClassifier],
    seed: int,
    on_iteration=None,
) -> tuple[TemplateClassifier, list[IterationReport]]:
    """Run the full loop from the pretrained (backward, reference, forward) models.

    Iteration i samples its targets and clones with children of the
    experiment ``seed``'s ``loop`` and ``bc`` seeds. Returns the final
    backward model and one report per iteration. ``on_iteration(model,
    report)`` is invoked after each iteration, e.g. to persist intermediate
    checkpoints.
    """
    backward, reference, forward = pretrained

    estimator = ZeroEstimator()
    targets = list(data.targets)
    reports: list[IterationReport] = []
    loop_seed, bc_seed = derive_seed(seed, "loop"), derive_seed(seed, "bc")

    for i in range(1, cfg.iterations + 1):
        rng = random.Random(derive_seed(loop_seed, f"targets-{i}"))
        sampled = rng.sample(targets, min(cfg.targets_per_iteration, len(targets)))
        routes: list[Route] = []
        for target in sampled:
            result = plan(target, backward, estimator, cfg.budget, cfg.k_expand, world)
            if result.route is not None:
                problems = validate_route(world, result.route)
                if problems:
                    raise InvalidReaction(f"route for {target.text}: {problems[0]}")
                routes.append(result.route)

        harvested = sum(len(r.reactions) for r in routes)
        collected = collect_reactions(routes, reference, cfg.epsilon, world)
        augmented: tuple[Reaction, ...] = ()
        if cfg.augmentation:
            augmented = augment(collected, forward, reference, cfg.epsilon_aug, world)
        collected_keys = {rx.key for rx in collected}
        duplicates = sum(1 for rx in augmented if rx.key in collected_keys)

        union = collected + augmented
        if union:
            backward = behavioral_clone(backward, union, cfg.bc, derive_seed(bc_seed, f"bc-{i}"))

        top1, top10 = topk_exact_match(backward, data.reactions_test, (1, 10), world)

        report = IterationReport(
            iteration=i,
            routes_attempted=len(sampled),
            routes_succeeded=len(routes),
            reactions_harvested=harvested,
            kept_after_filter=len(collected),
            augmented_accepted=len(augmented),
            duplicates_retained=duplicates,
            top1=top1,
            top10=top10,
        )
        reports.append(report)
        if on_iteration is not None:
            on_iteration(backward, report)
    return backward, reports
