"""Shared fixtures: planted models and a fixed scene corpus.

Model construction and scene sampling are deterministic, so these are
safe to share across the whole session; tests must not mutate them.

Every run loads the ``vgalab`` hypothesis profile: a failing property
prints the blob that ``@reproduce_failure`` replays, so a failure seen on
another machine (whose BLAS may round otherwise) can be replayed here.
Example counts, deadlines and the example database are the default
profile's.
"""
import pytest
from hypothesis import settings

from vgalab.evalkit import SceneParams, make_scenes
from vgalab.mllm import PlantedSpec, build_planted_model, build_random_model

settings.register_profile("vgalab", print_blob=True)
settings.load_profile("vgalab")

MODEL_SEED = 7
SCENE_SEED = 11
NOISE_SIGMA = 6.0


@pytest.fixture(scope="session")
def clean_model():
    """Planted model without key noise: behavior is exact by construction."""
    return build_planted_model(PlantedSpec(), seed=MODEL_SEED)


@pytest.fixture(scope="session")
def noisy_model():
    """Planted model with key noise high enough that routing degrades."""
    return build_planted_model(PlantedSpec(sigma=NOISE_SIGMA), seed=MODEL_SEED)


@pytest.fixture(scope="session")
def tiny_model():
    """Small unstructured model for machinery tests."""
    return build_random_model(3)


@pytest.fixture(scope="session")
def scenes125():
    """125 scenes x 4 balanced questions = 500 questions."""
    return make_scenes(SceneParams(n_scenes=125), seed=SCENE_SEED)


@pytest.fixture(scope="session")
def scenes12(scenes125):
    return scenes125[:12]
