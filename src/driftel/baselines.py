"""Comparison systems runnable under the same harness.

* ``sea``: an accuracy-driven ensemble in the style of the Streaming Ensemble
  Algorithm: unweighted majority voting, and the new tree replaces the single
  archived tree whose replacement most improves majority-vote accuracy on the
  current chunk (only when it strictly beats the unmodified ensemble).
  Its ensemble is a ``dtel.Archive`` of the trees it votes with.
* ``dtel-no-transfer``: ``dtel.process_chunk`` with ``adapt=False``; the
  original archived trees are weighted and voted directly.
* ``dtel-acc-archive``: ``dtel.process_chunk`` with ``diverse=False``; the
  diversity replacement rule is swapped for "drop the least accurate model on
  the current chunk".

Each ablation is a ``DtelLearner`` subclass that sets one of its two flags.
"""

from __future__ import annotations

import numpy as np

from .cart import predict_forest, train_cart
from .core import Chunk
from .dtel import Archive, DtelConfig, DtelLearner


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


def sea_predict_chunk(state: Archive, chunk: Chunk) -> np.ndarray:
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


def sea_process_chunk(state: Archive, chunk: Chunk, cfg: DtelConfig) -> Archive:
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
        return Archive(state.models + (new_tree,), state.capacity)
    preds = predict_forest(state.models + (new_tree,), chunk)
    slot = best_swap(preds[:-1], preds[-1], chunk.y, chunk.schema.num_classes)
    if slot is None:
        return state
    models = state.models[:slot] + (new_tree,) + state.models[slot + 1 :]
    return Archive(models, state.capacity)


class SeaLearner:
    name = "sea"

    def __init__(self, cfg: DtelConfig | None = None):
        self.cfg = cfg or DtelConfig()
        self.state = Archive.empty(self.cfg.m)

    def update(self, chunk: Chunk) -> None:
        self.state = sea_process_chunk(self.state, chunk, self.cfg)

    def predict_chunk(self, chunk: Chunk) -> np.ndarray:
        if not len(self.state):
            raise ValueError("learner has not been trained yet")
        return sea_predict_chunk(self.state, chunk)


class NoTransferLearner(DtelLearner):
    name = "dtel-no-transfer"
    adapt = False


class AccuracyArchiveLearner(DtelLearner):
    name = "dtel-acc-archive"
    diverse = False


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
