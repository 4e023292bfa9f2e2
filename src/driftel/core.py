"""Shared data model: feature schemas, chunks, a chunk's class prior, and the
seeded random source used by every stochastic component.

All types here are immutable after construction and safe to share across
threads. Random generators are single-owner: fork a fresh one per consumer
with :func:`make_rng` instead of sharing generator state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"


def make_rng(seed: int, *subkeys: int) -> np.random.Generator:
    """Return a PCG64 generator keyed by ``(seed, *subkeys)``.

    PCG64 seeded through ``numpy.random.SeedSequence`` is the single PRNG
    used throughout the package; identical keys give identical output
    sequences on every platform. Subkeys fork independent streams (e.g. one
    per time step) deterministically, so work can be re-ordered or run
    concurrently without changing any draw.
    """
    keys = [int(seed), *map(int, subkeys)]
    if any(k < 0 for k in keys):
        raise ValueError("rng keys must be non-negative integers")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FeatureDescriptor:
    """One feature slot: numeric, or categorical over a fixed symbol domain."""

    kind: str
    domain: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown feature kind: {self.kind!r}")
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.kind == CATEGORICAL:
            if not self.domain:
                raise ValueError("categorical feature requires a non-empty domain")
            if len(set(self.domain)) != len(self.domain):
                raise ValueError("categorical domain contains duplicates")
        elif self.domain:
            raise ValueError("numeric feature must not declare a domain")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


@dataclass(frozen=True)
class Schema:
    """Ordered feature descriptors plus the size of the dense label space."""

    features: tuple[FeatureDescriptor, ...]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ValueError("schema needs at least one feature")
        if self.num_classes < 2:
            raise ValueError("schema needs num_classes >= 2")

    @property
    def n_features(self) -> int:
        return len(self.features)


@dataclass(frozen=True, eq=False)
class Chunk:
    """An ordered batch of examples arriving at one time step.

    Features are stored encoded: an (n, d) float64 matrix where categorical
    columns hold domain indices. Labels are an (n,) int64 vector. Both arrays
    are read-only.

    Two views are computed at first use and shared by every tree that routes
    the chunk: ``columns``, the features column-major, and ``distinct``, the
    distinct feature rows with each row's index into them. Forest passes
    (transfer, the vote, correctness and member scoring) route only the
    distinct rows, and ``cart.grow_leaves`` grows every site on the chunk's
    distinct (row, label) pairs, weighted.
    """

    index: int
    schema: Schema
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("chunk arrays must be (n, d) features and (n,) labels")
        if X.shape[0] == 0:
            raise ValueError("chunk must be non-empty")
        if X.shape[1] != self.schema.n_features:
            raise ValueError(
                f"chunk has {X.shape[1]} features, schema expects {self.schema.n_features}"
            )
        if y.min() < 0 or y.max() >= self.schema.num_classes:
            raise ValueError("labels out of range for schema")
        for j, fd in enumerate(self.schema.features):
            col = X[:, j]
            if not np.all(np.isfinite(col)):
                raise ValueError(f"feature {j} has non-finite values")
            if fd.is_categorical:
                if np.any(col != np.floor(col)) or col.min() < 0 or col.max() >= len(fd.domain):
                    raise ValueError(f"feature {j} has codes outside its domain")
        object.__setattr__(self, "X", _readonly(X))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "index", int(self.index))

    def __len__(self) -> int:
        return self.X.shape[0]

    @cached_property
    def columns(self) -> np.ndarray:
        """The features column-major, shape (d, n), so each feature's values
        are one contiguous row; computed once and shared by every tree that
        routes this chunk."""
        return _readonly(np.ascontiguousarray(self.X.T))

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The distinct feature rows, or None when every row is distinct.

        Otherwise ``(columns, inverse)``: the distinct rows column-major,
        shape (d, u), in lexicographic order, and each row's index into
        them, shape (n,), so ``columns[:, inverse]`` equals ``self.columns``
        under ``==``. Rows are equal when all their values are equal under
        ``==``, so +0.0 and -0.0 merge; no tree test (``<=`` a threshold,
        ``==`` a code) tells them apart, so equal rows reach the same leaf
        and a forest pass routes each distinct row once (see ``cart``).
        Computed at first use, once per chunk, and never at construction, so
        stream generation does not pay for it.
        """
        columns = self.columns
        numeric = [j for j, fd in enumerate(self.schema.features) if not fd.is_categorical]
        if numeric:
            # One sort: a numeric column without equal values parts all rows.
            col = np.sort(columns[numeric[0]])
            if np.all(col[1:] != col[:-1]):
                return None
        order = np.lexsort(columns)
        ranked = columns[:, order]
        head = np.ones(ranked.shape[1], dtype=bool)  # a row unlike its predecessor
        head[1:] = ranked[0, 1:] != ranked[0, :-1]
        for col in ranked[1:]:
            head[1:] |= col[1:] != col[:-1]
        if head.all():
            return None
        inverse = np.empty(head.size, dtype=np.int64)
        inverse[order] = np.cumsum(head) - 1
        return _readonly(ranked[:, head]), _readonly(inverse)

    def with_labels(self, y: np.ndarray) -> "Chunk":
        """New chunk sharing this chunk's features with replaced labels."""
        return Chunk(self.index, self.schema, self.X, y)


def class_prior(chunk: Chunk) -> np.ndarray:
    """Empirical label distribution of a chunk: its class counts over their
    total, one entry per class."""
    counts = np.bincount(chunk.y, minlength=chunk.schema.num_classes)
    return counts / counts.sum()
