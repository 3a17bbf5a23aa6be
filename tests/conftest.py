import pytest

from retroloop.evaluate import penalty_constants
from retroloop.improve import PretrainConfig, pretrain_models
from retroloop.model import DEFAULT_DIM, TrainConfig
from retroloop.world import DatasetConfig, WorldConfig, build_datasets, generate_world


@pytest.fixture(scope="session")
def small_world():
    return generate_world(
        WorldConfig(n_atoms=6, n_operators=2, n_decoys=3, bb_composites=5, bb_depth=1),
        seed=7,
    )


@pytest.fixture(scope="session")
def small_data(small_world):
    return build_datasets(small_world, DatasetConfig(60, 4), seed=3)


@pytest.fixture(scope="session")
def small_models(small_world, small_data):
    """(backward, reference, forward) trained enough to be strongly non-uniform."""
    cfg = TrainConfig(learning_rate=0.2, epochs=12, batch_size=64)
    return pretrain_models(small_world, small_data, PretrainConfig(cfg, cfg), DEFAULT_DIM, 1)


@pytest.fixture(scope="session")
def small_penalties(small_world, small_data, small_models):
    """Failure penalties of ``small_data`` under the reference model."""
    return penalty_constants(small_data, small_models[1], small_world)
