"""Concept-drift ensemble learning toolkit.

Implements DTEL: CART base learners, a diversity-maintained archive of
historical trees (Yule's Q-statistic), structure-preserving tree transfer to
each new data chunk, and weighted soft voting. Ships with a SEA-style
baseline, two ablations, seeded synthetic drift-stream generators, paired and
prequential evaluation protocols, and a reproducible benchmark CLI.
"""

from .baselines import ALGORITHMS, make_learner, sea_process_chunk
from .cart import (
    StoppingParams,
    Tree,
    predict_chunk,
    route_forest,
    train_cart,
    tree_to_text,
)
from .core import (
    Chunk,
    FeatureDescriptor,
    Schema,
    class_prior,
    make_rng,
)
from .diversity import CorrectnessVector, correctness, div, q_statistic, select_removal
from .dtel import (
    Archive,
    DtelConfig,
    DtelLearner,
    WeightedEnsemble,
    mse_model,
    mse_random,
    process_chunk,
    weight_adapted,
    weight_new,
)
from .evaluation import (
    RunResult,
    Summary,
    rank_sum_test,
    run_prequential,
    run_synthetic,
    summarize,
)
from .streams import (
    ChunkPair,
    DriftSchedule,
    DriftStreamConfig,
    PRESETS,
    add_noise,
    make_stream,
    preset_config,
)
from .transfer import AdaptedTree, adapted_training_accuracy, transfer_tree, transfer_trees

__version__ = "0.1.0"
