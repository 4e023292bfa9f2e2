"""Seeded synthetic drift-stream generators.

Five families, each emitting one (train, test) chunk pair per step, both
drawn from the step's active concept. Label noise (replacing a label with a
uniformly chosen different one) touches only training chunks; test chunks
satisfy the concept rule exactly.

* SEA: x1, x2, x3 uniform on [0, 10]; label 1 iff x1 + x2 <= theta, with
  theta stepping through a fixed schedule (x3 carries no signal).
* ROT: six equal-prior Gaussian clusters (sigma 0.15) centered on the unit
  circle around the origin; every step rotates all points by a cumulative
  angle, so cluster positions drift smoothly while labels stay attached.
* CIR: x1, x2 uniform on [-5, 5]; label 1 iff x1^2 + x2^2 <= radius^2 with
  the radius stepping through a schedule; a third uniform feature carries no
  signal.
* SIN: x1, x2 uniform on [-5, 5]; label 1 iff sin(x1 + theta) <= x2 with a
  cumulative phase shift per step.
* STA: STAGGER-style categorical features color/shape/size sampled uniformly;
  the label is a two-literal rule over color and shape (the size feature
  carries no signal) stepping through a schedule of rules.

Variant "A" drifts more dramatically than variant "G". Scheduled families
(SEA, CIR, STA) switch concepts abruptly every ``n_steps / len(segments)``
steps; cumulative families (ROT, SIN) advance their angle every step.

Every family is one draw of noise-free rows for a concept, and one recipe
turns it into a step's pair. The rng order is part of the stream: the step's
own rng (``make_rng(seed, step)``) draws the train rows, then the test rows,
then the training-label noise. Reordering these draws changes every stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CATEGORICAL, NUMERIC, Chunk, FeatureDescriptor, Schema, make_rng

FAMILIES = ("SEA", "ROT", "CIR", "SIN", "STA")
VARIANTS = ("A", "G")

SEA_THETA = {
    "A": (10.0, 7.0, 3.0, 7.0, 10.0, 13.0, 16.0, 13.0),
    "G": (10.0, 8.0, 6.0, 8.0, 10.0, 12.0, 14.0, 12.0),
}
CIR_RADIUS = {
    "A": (3.0, 2.0, 1.0, 2.0, 3.0, 4.0, 5.0, 4.0),
    "G": (3.0, 2.5, 2.0, 2.5, 3.0, 3.5, 4.0, 3.5),
}
ROT_DELTA = {"A": math.pi / 30, "G": math.pi / 60}
SIN_DELTA = {"A": math.pi / 30, "G": math.pi / 60}

STA_COLORS = ("R", "B", "G")
STA_SHAPES = ("C", "S", "T")
STA_SIZES = ("S", "M", "L")
# Each rule is (color symbol, connective, shape symbol): label 1 iff
# (color == a) <and/or> (shape == b). The size feature never enters a rule.
STA_RULES = {
    "A": (
        ("R", "and", "C"),
        ("B", "or", "C"),
        ("G", "or", "S"),
        ("G", "and", "T"),
        ("G", "or", "C"),
        ("R", "or", "S"),
    ),
    "G": (
        ("R", "and", "C"),
        ("B", "and", "C"),
        ("B", "or", "C"),
        ("B", "or", "S"),
        ("B", "and", "S"),
        ("G", "and", "S"),
    ),
}

ROT_CLASSES = 6
ROT_SIGMA = 0.15


@dataclass(frozen=True)
class DriftSchedule:
    """Per-concept parameter settings and how many chunks each one lasts."""

    segments: tuple
    chunks_per_segment: int

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        if self.chunks_per_segment < 1:
            raise ValueError("chunks_per_segment must be >= 1")

    def value_at(self, step: int):
        seg = min(step // self.chunks_per_segment, len(self.segments) - 1)
        return self.segments[seg]


@dataclass(frozen=True)
class DriftStreamConfig:
    family: str
    variant: str
    chunk_size: int
    n_steps: int = 120
    noise_rate: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; one of {FAMILIES}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class ChunkPair:
    """Same-concept train/test chunks for one step; only train carries noise.
    It unpacks as ``train, test``."""

    train: Chunk
    test: Chunk

    def __post_init__(self):
        if self.train.index != self.test.index:
            raise ValueError("train/test chunks must share a step index")

    def __iter__(self):
        return iter((self.train, self.test))


def _numeric_schema(n_features: int, num_classes: int) -> Schema:
    return Schema(tuple(FeatureDescriptor(NUMERIC) for _ in range(n_features)), num_classes)


# One schema object per family, shared by all its chunks, so a schema check
# between a tree and a chunk of one stream is an identity test.
_SCHEMAS = {
    "SEA": _numeric_schema(3, 2),
    "ROT": _numeric_schema(2, ROT_CLASSES),
    "CIR": _numeric_schema(3, 2),
    "SIN": _numeric_schema(2, 2),
    "STA": Schema(
        (
            FeatureDescriptor(CATEGORICAL, STA_COLORS),
            FeatureDescriptor(CATEGORICAL, STA_SHAPES),
            FeatureDescriptor(CATEGORICAL, STA_SIZES),
        ),
        2,
    ),
}


def schema_for(family: str) -> Schema:
    try:
        return _SCHEMAS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


# The segment values of the abruptly switching families, per variant.
_SEGMENTS = {"SEA": SEA_THETA, "CIR": CIR_RADIUS, "STA": STA_RULES}
# The per-step angle of the cumulative families, per variant.
_DELTAS = {"ROT": ROT_DELTA, "SIN": SIN_DELTA}


def schedule_for(family: str, variant: str, n_steps: int) -> DriftSchedule | None:
    """Segment schedule for the abruptly switching families; None for the
    cumulative-angle families (ROT, SIN)."""
    if family not in _SEGMENTS:
        return None
    segments = _SEGMENTS[family][variant]
    return DriftSchedule(segments, max(1, n_steps // len(segments)))


def sea_label(x1: np.ndarray, x2: np.ndarray, theta: float) -> np.ndarray:
    return (x1 + x2 <= theta).astype(np.int64)


def cir_label(x1: np.ndarray, x2: np.ndarray, radius: float) -> np.ndarray:
    return (x1 * x1 + x2 * x2 <= radius * radius).astype(np.int64)


def sin_label(x1: np.ndarray, x2: np.ndarray, theta: float) -> np.ndarray:
    return (np.sin(x1 + theta) <= x2).astype(np.int64)


def sta_label(color_codes: np.ndarray, shape_codes: np.ndarray, rule) -> np.ndarray:
    a, op, b = rule
    color_hit = color_codes == STA_COLORS.index(a)
    shape_hit = shape_codes == STA_SHAPES.index(b)
    hit = np.logical_and(color_hit, shape_hit) if op == "and" else np.logical_or(color_hit, shape_hit)
    return hit.astype(np.int64)


def rotate_points(x1: np.ndarray, x2: np.ndarray, theta: float, a: float = 0.0, b: float = 0.0):
    """Standard plane rotation by ``theta`` about (a, b)."""
    c, s = math.cos(theta), math.sin(theta)
    return (x1 - a) * c - (x2 - b) * s + a, (x1 - a) * s + (x2 - b) * c + b


def add_noise(chunk: Chunk, rate: float, rng: np.random.Generator) -> Chunk:
    """Replace the labels of a uniformly chosen ``floor(rate * n)`` subset
    with uniformly chosen different labels."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("noise rate must lie in [0, 1]")
    k = int(rate * len(chunk))
    if k == 0:
        return chunk
    K = chunk.schema.num_classes
    picks = rng.choice(len(chunk), size=k, replace=False)
    r = rng.integers(0, K - 1, size=k)
    y = np.array(chunk.y)
    y[picks] = r + (r >= y[picks])
    return chunk.with_labels(y)


def _uniform(low: float, high: float, d: int, label):
    """Draw of ``n`` rows uniform on ``[low, high)^d``, labelled by
    ``label(x1, x2, concept)``."""

    def draw(rng, n: int, concept):
        X = rng.uniform(low, high, (n, d))
        return X, label(X[:, 0], X[:, 1], concept)

    return draw


def _rot_draw(rng, n: int, theta: float):
    labels = rng.integers(0, ROT_CLASSES, size=n)
    angles = labels * (math.pi / 3.0)
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = centers + rng.normal(0.0, ROT_SIGMA, (n, 2))
    x1, x2 = rotate_points(pts[:, 0], pts[:, 1], theta)
    return np.stack([x1, x2], axis=1), labels.astype(np.int64)


def _sta_draw(rng, n: int, rule):
    X = rng.integers(0, 3, (n, 3)).astype(np.float64)
    return X, sta_label(X[:, 0], X[:, 1], rule)


# ``draw(rng, n, concept) -> (X, y)`` per family: ``n`` noise-free rows of
# the concept.
_DRAWS = {
    "SEA": _uniform(0.0, 10.0, 3, sea_label),
    "ROT": _rot_draw,
    "CIR": _uniform(-5.0, 5.0, 3, cir_label),
    "SIN": _uniform(-5.0, 5.0, 2, sin_label),
    "STA": _sta_draw,
}


def generate_pair(cfg: DriftStreamConfig, step: int) -> ChunkPair:
    if not 0 <= step < cfg.n_steps:
        raise ValueError(f"step {step} outside [0, {cfg.n_steps})")
    schedule = schedule_for(cfg.family, cfg.variant, cfg.n_steps)
    if schedule is None:
        concept = step * _DELTAS[cfg.family][cfg.variant]
    else:
        concept = schedule.value_at(step)
    rng = make_rng(cfg.seed, step)
    draw, schema = _DRAWS[cfg.family], schema_for(cfg.family)
    train = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))
    test = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))
    return ChunkPair(add_noise(train, cfg.noise_rate, rng), test)


def make_stream(cfg: DriftStreamConfig) -> list[ChunkPair]:
    """All chunk pairs of a stream. Each step draws from its own forked rng,
    so the result is identical no matter how steps are ordered or batched."""
    return [generate_pair(cfg, step) for step in range(cfg.n_steps)]


# Named stream presets: family + chunk size + drift variant. "A" variants
# drift more dramatically than "G" variants; 500-size presets use 500
# instances per chunk. All run 120 steps with 10% training-label noise.
PRESETS = {
    f"{family}{size}{variant}": (family, variant, size)
    for family in FAMILIES
    for size, variant in ((200, "A"), (200, "G"), (500, "G"))
}


def preset_config(name: str, seed: int = 0, **overrides) -> DriftStreamConfig:
    """Config for a named preset; keyword overrides replace any field."""
    try:
        family, variant, chunk_size = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}"
        ) from None
    fields = dict(family=family, variant=variant, chunk_size=chunk_size, seed=seed)
    fields.update(overrides)
    return DriftStreamConfig(**fields)
