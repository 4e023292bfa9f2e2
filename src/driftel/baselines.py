"""Comparison systems runnable under the same harness.

* ``sea``: an accuracy-driven ensemble in the style of the Streaming Ensemble
  Algorithm: unweighted majority voting, and the new tree replaces the single
  archived tree whose replacement most improves majority-vote accuracy on the
  current chunk (only when it strictly beats the unmodified ensemble).
* ``dtel-no-transfer``: the full engine with tree adaptation disabled; the
  original archived trees are weighted and voted directly.
* ``dtel-acc-archive``: the full engine with the diversity replacement rule
  swapped for "drop the least accurate model on the current chunk".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import Tree, predict_forest, train_cart
from .core import Chunk, Instance
from .dtel import (
    REMOVAL_ACCURACY,
    Archive,
    DtelConfig,
    DtelLearner,
    WeightedEnsemble,
    _step,
)


@dataclass(frozen=True, eq=False)
class SeaEnsemble:
    models: tuple[Tree, ...]
    capacity: int

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if len(self.models) > self.capacity:
            raise ValueError("ensemble over capacity")

    def __len__(self) -> int:
        return len(self.models)

    @classmethod
    def empty(cls, capacity: int) -> "SeaEnsemble":
        return cls((), capacity)


def _vote_counts(predictions, num_classes: int) -> np.ndarray:
    """(instances x classes) vote counts of a (models x instances) label matrix."""
    labels = np.asarray(predictions)
    n = labels.shape[1]
    cells = (labels + num_classes * np.arange(n)).ravel()
    return np.bincount(cells, minlength=n * num_classes).reshape(n, num_classes)


def majority_vote(predictions, num_classes: int) -> np.ndarray:
    """Unweighted majority vote over per-model label vectors (a list, or the
    rows of a models x instances matrix); ties take the lowest class index."""
    return np.argmax(_vote_counts(predictions, num_classes), axis=1)


def sea_predict_chunk(state: SeaEnsemble, chunk: Chunk) -> np.ndarray:
    return majority_vote(predict_forest(state.models, chunk), chunk.schema.num_classes)


def best_swap(preds: np.ndarray, new_pred: np.ndarray, y: np.ndarray, num_classes: int) -> int | None:
    """The slot whose label row, replaced by ``new_pred``, most raises the
    majority vote's count of correct instances, or None when no swap
    strictly beats the unchanged ensemble. Ties take the lowest (oldest)
    slot. All swaps are scored at once from one vote-count matrix."""
    slots, n = preds.shape
    rows = np.arange(n)
    votes = _vote_counts(preds, num_classes)
    base = np.count_nonzero(np.argmax(votes, axis=1) == y)
    swapped = np.repeat(votes[None], slots, axis=0)
    swapped[:, rows, new_pred] += 1
    swapped[np.arange(slots)[:, None], rows, preds] -= 1
    correct = np.count_nonzero(np.argmax(swapped, axis=2) == y, axis=1)
    slot = int(np.argmax(correct))
    return slot if correct[slot] > base else None


def sea_process_chunk(state: SeaEnsemble, chunk: Chunk, cfg: DtelConfig) -> SeaEnsemble:
    """Train on the chunk and return the updated ensemble.

    Under capacity the new tree is appended. At capacity, each single
    replacement of an archived tree by the new tree is scored by
    majority-vote accuracy on the chunk; the best one is committed only if it
    strictly beats the unmodified ensemble (ties keep the ensemble
    unmodified; ties between replacements take the oldest slot). The archived
    trees and the new tree are routed in one forest pass.
    """
    new_tree = train_cart(chunk, cfg.stopping)
    if len(state) < state.capacity:
        return SeaEnsemble(state.models + (new_tree,), state.capacity)
    preds = predict_forest(state.models + (new_tree,), chunk)
    slot = best_swap(preds[:-1], preds[-1], chunk.y, chunk.schema.num_classes)
    if slot is None:
        return state
    models = state.models[:slot] + (new_tree,) + state.models[slot + 1 :]
    return SeaEnsemble(models, state.capacity)


def dtel_no_transfer(archive: Archive, chunk: Chunk, cfg: DtelConfig) -> tuple[WeightedEnsemble, Archive]:
    """Ablation: the per-chunk step without tree adaptation."""
    return _step(archive, chunk, cfg, adapt=False)


def dtel_accuracy_archive(archive: Archive, chunk: Chunk, cfg: DtelConfig) -> tuple[WeightedEnsemble, Archive]:
    """Ablation: archive replacement by lowest current-chunk accuracy."""
    return _step(archive, chunk, cfg, removal=REMOVAL_ACCURACY)


class SeaLearner:
    name = "sea"

    def __init__(self, cfg: DtelConfig | None = None):
        self.cfg = cfg or DtelConfig()
        self.state = SeaEnsemble.empty(self.cfg.m)

    def update(self, chunk: Chunk) -> None:
        self.state = sea_process_chunk(self.state, chunk, self.cfg)

    def predict_chunk(self, chunk: Chunk) -> np.ndarray:
        if not len(self.state):
            raise ValueError("learner has not been trained yet")
        return sea_predict_chunk(self.state, chunk)

    def predict(self, instance: Instance) -> int:
        if not len(self.state):
            raise ValueError("learner has not been trained yet")
        schema = self.state.models[0].schema
        chunk = Chunk(0, schema, schema.encode_features(instance.features)[None, :], np.zeros(1, dtype=np.int64))
        return int(self.predict_chunk(chunk)[0])


class _DtelVariantLearner(DtelLearner):
    _step_fn = None

    def update(self, chunk: Chunk) -> None:
        self.ensemble, self.archive = type(self)._step_fn(self.archive, chunk, self.cfg)


class NoTransferLearner(_DtelVariantLearner):
    name = "dtel-no-transfer"
    _step_fn = staticmethod(dtel_no_transfer)


class AccuracyArchiveLearner(_DtelVariantLearner):
    name = "dtel-acc-archive"
    _step_fn = staticmethod(dtel_accuracy_archive)


ALGORITHMS = {
    "dtel": DtelLearner,
    "sea": SeaLearner,
    "dtel-no-transfer": NoTransferLearner,
    "dtel-acc-archive": AccuracyArchiveLearner,
}


def make_learner(name: str, cfg: DtelConfig | None = None):
    """Instantiate a registered algorithm by its stable name."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; registered: {', '.join(sorted(ALGORITHMS))}"
        ) from None
    return factory(cfg)
