"""Self-improving retrosynthetic planning on a synthetic reaction universe."""

from .errors import (
    CapExceeded,
    CheckpointError,
    EmptyCollection,
    EmptyDataset,
    InvalidConfig,
    InvalidInput,
    InvalidReaction,
    NotSolved,
    RetroloopError,
    UnknownTemplate,
)
from .evaluate import (
    OracleEstimator,
    OracleTable,
    PlanningMetrics,
    TargetRow,
    brute_force_oracle,
    evaluate_over_budgets,
    penalty_constants,
)
from .improve import (
    IterationReport,
    LoopConfig,
    ReactionCollection,
    augment,
    behavioral_clone,
    collect_reactions,
    pretrain_models,
    run_self_improvement,
)
from .model import (
    DEFAULT_DIM,
    FeatureVector,
    TemplateClassifier,
    TrainConfig,
    featurize_molecule,
    featurize_reactant_set,
    likelihood,
    load_checkpoint,
    predict_topk,
    save_checkpoint,
    topk_exact_match,
    train,
    zero_classifier,
)
from .planner import (
    PlanResult,
    SearchTree,
    ZeroEstimator,
    extract_route,
    plan,
    route_cost_under,
    unfolded_route_cost,
)
from .world import (
    Dataset,
    Molecule,
    Reaction,
    Route,
    Template,
    World,
    WorldConfig,
    build_datasets,
    generate_world,
    load_dataset,
    load_world,
    make_reaction,
    mol,
    parse_molecule,
    sample_ground_truth_route,
    save_dataset,
    save_world,
    validate_route,
)

__version__ = "0.1.0"
