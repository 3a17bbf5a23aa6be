import pytest

from retroloop import TrainConfig, WorldConfig, build_datasets, generate_world, penalty_constants
from retroloop.improve import pretrain_models


@pytest.fixture(scope="session")
def small_world():
    return generate_world(
        WorldConfig(n_atoms=6, n_operators=2, n_decoys=3, bb_composites=5, bb_depth=1),
        seed=7,
    )


@pytest.fixture(scope="session")
def small_data(small_world):
    return build_datasets(small_world, 60, 4, (0.8, 0.1, 0.1), seed=3)


@pytest.fixture(scope="session")
def small_models(small_world, small_data):
    """(backward, reference, forward) trained enough to be strongly non-uniform."""
    return pretrain_models(
        small_world,
        small_data,
        TrainConfig(learning_rate=0.2, epochs=12, batch_size=64, seed=1),
        TrainConfig(learning_rate=0.2, epochs=12, batch_size=64, seed=2),
    )


@pytest.fixture(scope="session")
def small_penalties(small_world, small_data, small_models):
    """Failure penalties of ``small_data`` under the reference model."""
    return penalty_constants(small_data, small_models[1], small_world)
