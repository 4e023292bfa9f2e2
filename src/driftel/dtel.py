"""Per-chunk ensemble engine.

Each step trains a fresh tree on the arriving chunk and adapts every
archived tree to the chunk in archive order. It weights all members by the
inverse of their squared error plus the squared error of a prior-sampling
random classifier, and predicts by weighted soft voting over member
posteriors. The archive of original (never adapted) trees is kept at
capacity by dropping the model whose removal leaves the most diverse set.

The training chunk is routed through all archived trees and a one-leaf
tree that has learned nothing in one forest pass, and every reached leaf
regrows in one growth call; the regrown one-leaf tree is the new tree (see
``transfer.grow_step``). The pass yields the archived trees' correctness
bits, for the archive update; the growth yields the new tree's bits, the
adapted trees' true-class posteriors, for their squared errors (``_mse``,
the one squared error, which ``mse_model`` computes too), and the
forest of the adapted trees and the new tree, which the ensemble votes with.
The ensemble builds its vote's tables when the update makes it: each forest
node's posterior times its tree's weight, and the weight total. A
prediction then only routes the test chunk through the forest in one pass
and sums the reached rows, once per distinct row (``Chunk.distinct``).

The ablations run the same step with one of its two design choices switched
off: ``process_chunk(..., adapt=False)`` regrows only the one-leaf tree and
votes with the archived trees as they are, and ``process_chunk(...,
diverse=False)`` keeps the archive by accuracy instead of diversity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cart import StoppingParams, Tree, _check_schema, _Forest, _route_distinct, posterior_chunk
from .core import Chunk, class_prior
from .diversity import NEW_MODEL, CorrectnessVector, select_least_accurate, select_removal
from .transfer import grow_step

ADAPTED = "adapted"
NEW = "new"


@dataclass(frozen=True)
class DtelConfig:
    """Engine parameters: archive capacity, weight guard, tree growth limits."""

    m: int = 25
    epsilon: float = 1e-10
    stopping: StoppingParams = field(default_factory=StoppingParams)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("archive capacity m must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True, eq=False)
class Archive:
    """Bounded set of preserved historical trees, oldest first."""

    models: tuple[Tree, ...]
    capacity: int

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if self.capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        if len(self.models) > self.capacity:
            raise ValueError("archive over capacity")

    def __len__(self) -> int:
        return len(self.models)

    @classmethod
    def empty(cls, capacity: int) -> "Archive":
        return cls((), capacity)


@dataclass(frozen=True, eq=False)
class EnsembleMember:
    tree: Tree
    weight: float
    kind: str  # "adapted" | "new"


@dataclass(frozen=True, eq=False)
class WeightedEnsemble:
    """The members that vote on a chunk, in voting order, with their
    weights, their trees' forest in member order (``forest``, from
    ``transfer.grow_step`` or ``cart._Forest.of``), and the vote's tables,
    built once with the ensemble: each forest node's posterior times its
    tree's weight (``weighted``, see
    ``cart._Forest.weighted_posteriors``) and the weights' total, added in
    member order (``total``)."""

    members: tuple[EnsembleMember, ...]
    forest: _Forest = field(repr=False)
    weighted: np.ndarray = field(init=False, repr=False)
    total: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if sum(1 for m in self.members if m.kind == NEW) != 1:
            raise ValueError("ensemble needs exactly one new member")
        if any(not np.isfinite(m.weight) or m.weight <= 0 for m in self.members):
            raise ValueError("weights must be finite and positive")
        if list(map(id, self.forest.trees)) != [id(m.tree) for m in self.members]:
            raise ValueError("the forest must hold the members' trees, in member order")
        weights = np.array([m.weight for m in self.members])
        object.__setattr__(self, "weighted", self.forest.weighted_posteriors(weights))
        object.__setattr__(self, "total", np.add.accumulate(weights)[-1])


def _mse(p_true: np.ndarray) -> np.ndarray:
    """The one squared error of a member: the mean of ``(1 - p)^2`` over the
    last axis of its rows' true-class posteriors ``p_true``."""
    return np.mean((1.0 - p_true) ** 2, axis=-1)


def mse_model(model: Tree, chunk: Chunk) -> float:
    """Mean squared error of a model's posterior on the true labels."""
    return float(_mse(posterior_chunk(model, chunk)[np.arange(len(chunk)), chunk.y]))


def mse_random(chunk: Chunk) -> float:
    """Squared error of a classifier sampling labels from the chunk's prior."""
    p = class_prior(chunk)
    return float(np.sum(p * (1.0 - p) ** 2))


def weight_adapted(mse_r: float, mse_i: float, epsilon: float) -> float:
    return 1.0 / (mse_r + mse_i + epsilon)


def weight_new(mse_r: float, epsilon: float) -> float:
    return 1.0 / (mse_r + epsilon)


def ensemble_posteriors(ens: WeightedEnsemble, chunk: Chunk) -> np.ndarray:
    """Weighted mean of member posteriors, rows normalized to sum to 1.

    The weighted posteriors and the weight total are built with the
    ensemble, so a call only routes and sums: the members' forest routes the
    chunk's distinct rows in one pass, their leaves' weighted posteriors are
    added in member order over the distinct rows, divided by the total and
    spread to every row. Each weighted posterior is the product a
    per-member vote forms, and an accumulation adds one member at a time,
    so each row sees the same float operations as when every row is voted
    on member by member, and the result is the same to the bit."""
    _check_schema(ens.forest.trees, chunk.schema)
    leaves, inverse = _route_distinct(ens.forest, chunk)
    acc = np.add.accumulate(ens.weighted[leaves])[-1]
    acc /= ens.total
    return acc if inverse is None else acc[inverse]


def predict_ensemble_chunk(ens: WeightedEnsemble, chunk: Chunk) -> np.ndarray:
    return np.argmax(ensemble_posteriors(ens, chunk), axis=1)


def _update_archive(
    archive: Archive, new_tree: Tree, new_bits: np.ndarray, diverse: bool, bits: list[np.ndarray]
) -> Archive:
    # bits[slot]: the archived model's correctness on the chunk; new_bits:
    # the new tree's.
    if len(archive) < archive.capacity:
        return Archive(archive.models + (new_tree,), archive.capacity)
    if diverse and archive.capacity == 1:
        # Two candidates cannot carry a pairwise diversity score; ties prefer
        # recency, so the single archived model is replaced.
        return Archive((new_tree,), 1)
    candidates = [
        CorrectnessVector(b, slot, f.origin_chunk_index)
        for slot, (f, b) in enumerate(zip(archive.models, bits))
    ]
    candidates.append(CorrectnessVector(new_bits, NEW_MODEL, new_tree.origin_chunk_index))
    removed = select_removal(candidates) if diverse else select_least_accurate(candidates)
    if removed == NEW_MODEL:
        return archive
    models = tuple(f for slot, f in enumerate(archive.models) if slot != removed)
    return Archive(models + (new_tree,), archive.capacity)


def process_chunk(
    archive: Archive, chunk: Chunk, cfg: DtelConfig, adapt: bool = True, diverse: bool = True
) -> tuple[WeightedEnsemble, Archive]:
    """One full learning step.

    Grow the new tree and adapt every archived tree to the chunk together
    (``transfer.grow_step``), with the archived models' and the new tree's
    correctness bits and the adapted trees' true-class posteriors. Update
    the archive (once at capacity, drop the model whose removal leaves the
    most diverse set, judged on the correctness bits), then weight the
    adapted trees, by the squared error of those posteriors, plus the new
    tree. The ensemble holds all models archived at the start of the step
    and votes with the growth's forest; the archive update only affects
    future steps, and adapted trees are never archived.

    Each flag switches off one of DTEL's two design choices, for the
    ablations. ``adapt=False`` skips transfer: the step regrows only the
    new tree's one leaf, and the archived trees are weighted by their own
    posteriors and vote as they are. ``diverse=False`` drops the model least
    accurate on the chunk instead (``select_least_accurate``), also when the
    archive holds one model.
    """
    forest, bits, p_true = grow_step(archive.models, chunk, cfg.stopping, adapt)
    new_tree = forest.trees[-1]
    updated = _update_archive(archive, new_tree, bits[-1], diverse, bits[:-1])
    mse_r = mse_random(chunk)
    mse = _mse(p_true[:-1])
    members = tuple(
        EnsembleMember(t, weight_adapted(mse_r, e, cfg.epsilon), ADAPTED)
        for t, e in zip(forest.trees, mse.tolist())
    ) + (EnsembleMember(new_tree, weight_new(mse_r, cfg.epsilon), NEW),)
    return WeightedEnsemble(members, forest), updated


class DtelLearner:
    """Incremental learner interface around :func:`process_chunk`. The
    ablations are subclasses that switch off ``adapt`` or ``diverse``."""

    name = "dtel"
    adapt = True
    diverse = True

    def __init__(self, cfg: DtelConfig | None = None):
        self.cfg = cfg or DtelConfig()
        self.archive = Archive.empty(self.cfg.m)
        self.ensemble: WeightedEnsemble | None = None

    def update(self, chunk: Chunk) -> None:
        self.ensemble, self.archive = process_chunk(
            self.archive, chunk, self.cfg, self.adapt, self.diverse
        )

    def predict_chunk(self, chunk: Chunk) -> np.ndarray:
        if self.ensemble is None:
            raise ValueError("learner has not been trained yet")
        return predict_ensemble_chunk(self.ensemble, chunk)
