"""Metamorphic relations of whole runs: a change of every chunk that must
change a learner's state in a known way, checked at every step of a stream.

* Every training row twice. Each node's class counts double, and so does
  every split score's numerator and denominator: 2 is a power of two, so no
  float rounds otherwise. So every member tree is the same tree with its
  counts doubled, the archive keeps the same origins, and the member
  weights, the vote's posteriors and the predictions on the same test
  chunks are the same to the bit. The doubled chunks repeat every row, so
  they grow on weighted (row, label) entries where the originals may not.
  The copy follows the whole chunk, rather than each row its own: a member's
  squared error is a mean over the rows, which numpy adds pairwise, and a
  chunk of 200 rows followed by its copy is added as two halves that are
  each added as the chunk itself, so the mean is the same to the bit.
* Numeric features times 2**3 or 2**-3, in training and test chunks alike.
  Split scores do not read feature values and midpoints scale exactly, so
  every tree is the same tree with its thresholds scaled, and the vote is
  the same to the bit.
* Training rows permuted. Growth sorts each node's entries by (value, row),
  so the rows of equal values change places, which is where a bin of equal
  values with two labels keeps its cuts. Class counts are integers, so every
  tree and archive origin is the same, and so are the predictions. A
  member's squared error is a mean over its training rows in row order,
  added pairwise. On SEA200A every row is distinct, transfer regrows each
  reached leaf to purity, and every term is 0, so the weights are the same
  to the bit. STAGGER repeats rows under conflicting labels, whose impure
  leaves add terms that round otherwise in another order: a weight may
  differ by up to ``PERMUTED_WEIGHT_ULPS`` ulps (measured: 1 ulp, at 3 of 40
  steps of dtel on STA200A). The vote's posteriors then differ too, and are
  not compared.
"""

import numpy as np
import pytest

from driftel.baselines import make_learner
from driftel.core import Chunk
from driftel.dtel import ensemble_posteriors
from driftel.streams import make_stream, preset_config

STEPS = 40
NODE_ARRAYS = ("feature", "categories", "left", "right")
PERMUTED_WEIGHT_ULPS = 4


def twice(chunk: Chunk) -> Chunk:
    return Chunk(chunk.index, chunk.schema, np.vstack([chunk.X, chunk.X]), np.concatenate([chunk.y, chunk.y]))


def scaled(factor: float):
    def scale(chunk: Chunk) -> Chunk:
        assert not any(fd.is_categorical for fd in chunk.schema.features)
        return Chunk(chunk.index, chunk.schema, chunk.X * factor, chunk.y)

    return scale


def same(chunk: Chunk) -> Chunk:
    return chunk


def permuted(chunk: Chunk) -> Chunk:
    order = np.random.default_rng(chunk.index).permutation(len(chunk))
    return Chunk(chunk.index, chunk.schema, chunk.X[order], chunk.y[order])


def models(learner) -> tuple[list, list]:
    """The archived trees and the trees that vote, in order."""
    if learner.name == "sea":
        return list(learner.state.models), list(learner.state.models)
    return list(learner.archive.models), [m.tree for m in learner.ensemble.members]


def assert_mapped(tree, image, counts: int, thresholds: float):
    """``image`` is ``tree`` with its counts times ``counts`` and its
    thresholds times ``thresholds``."""
    for name in NODE_ARRAYS:
        assert np.array_equal(getattr(image, name), getattr(tree, name))
    assert np.array_equal(image.counts, tree.counts * counts)
    assert np.array_equal(image.threshold, tree.threshold * thresholds, equal_nan=True)
    assert image.origin_chunk_index == tree.origin_chunk_index


def run_related(preset: str, algorithm: str, train_map, test_map, counts: int, thresholds: float, ulps: int = 0):
    """Run one learner on a stream and another on its mapped chunks, and
    compare them after every step: dtel's weights to the bit, or within
    ``ulps`` ulps, and then not the vote's posteriors."""
    learner, image = make_learner(algorithm), make_learner(algorithm)
    for pair in make_stream(preset_config(preset, seed=1, n_steps=STEPS)):
        learner.update(pair.train)
        image.update(train_map(pair.train))
        for trees, images in zip(models(learner), models(image)):
            assert len(trees) == len(images)
            for tree, mapped in zip(trees, images):
                assert_mapped(tree, mapped, counts, thresholds)
        test = test_map(pair.test)
        assert learner.predict_chunk(pair.test).tobytes() == image.predict_chunk(test).tobytes()
        if algorithm == "dtel":
            ens, mapped = learner.ensemble, image.ensemble
            assert [m.kind for m in ens.members] == [m.kind for m in mapped.members]
            if ulps:
                weights, images = (np.array([m.weight for m in e.members]) for e in (ens, mapped))
                assert (np.abs(images - weights) <= ulps * np.spacing(weights)).all()
            else:
                assert [m.weight.hex() for m in ens.members] == [m.weight.hex() for m in mapped.members]
                assert ensemble_posteriors(ens, pair.test).tobytes() == ensemble_posteriors(mapped, test).tobytes()


@pytest.mark.parametrize("algorithm", ["dtel", "sea"])
@pytest.mark.parametrize("preset", ["SEA200A", "STA200A"])
def test_every_training_row_twice_doubles_the_counts(preset, algorithm):
    run_related(preset, algorithm, twice, same, counts=2, thresholds=1.0)


@pytest.mark.parametrize("algorithm", ["dtel", "sea"])
@pytest.mark.parametrize("factor", [2.0**3, 2.0**-3])
def test_numeric_features_times_a_power_of_two_scale_the_thresholds(factor, algorithm):
    run_related("SEA200A", algorithm, scaled(factor), scaled(factor), counts=1, thresholds=factor)


@pytest.mark.parametrize("algorithm", ["dtel", "sea"])
@pytest.mark.parametrize("preset", ["SEA200A", "STA200A"])
def test_permuted_training_rows_grow_the_same_trees(preset, algorithm):
    ulps = PERMUTED_WEIGHT_ULPS if preset == "STA200A" else 0
    run_related(preset, algorithm, permuted, same, counts=1, thresholds=1.0, ulps=ulps)
