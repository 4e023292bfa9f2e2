"""Yule's Q-statistic diversity over classifier correctness patterns, and the
archive replacement rules: the one that keeps the most diverse model set,
and the accuracy rule of the ablation that drops the least accurate model.
Both break ties the same way.

Q for a pair of classifiers is computed from the 2x2 contingency of their
per-instance correctness: Q = (N11*N00 - N01*N10) / (N11*N00 + N01*N10),
with Q := 0 when the denominator is zero (the value of statistical
independence). Set diversity is 1 minus the mean pairwise Q.

All pairwise contingencies come from one product of the stacked
correctness bits, taken in floats and exact as integers. The replacement
decision compares Q row sums as floats and settles the rows near the maximum
with exact rational arithmetic, so that mathematically tied candidates
compare equal and the deterministic tie rule (drop the oldest model; the new
model survives ties) always applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cart import Tree, predict_chunk
from .core import Chunk

NEW_MODEL = "new"

# Float row sums of Q are within this of their exact values: each Q and each
# addition rounds once, and a row of k terms errs by about k*k*2**-53, which
# stays below it for archives of up to a thousand models.
NEAR_TIE = 1e-9


@dataclass(frozen=True, eq=False)
class CorrectnessVector:
    """Per-instance correctness bits of one model on one evaluation chunk."""

    bits: np.ndarray  # bool, one entry per instance
    model_id: int | str  # archive slot, or "new"
    origin: int  # chunk index the model was trained on

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.bits, dtype=bool))
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @property
    def is_new(self) -> bool:
        return self.model_id == NEW_MODEL


def correctness(model: Tree, chunk: Chunk, model_id: int | str | None = None) -> CorrectnessVector:
    """Evaluate a model on a chunk and record which instances it gets right."""
    bits = predict_chunk(model, chunk) == chunk.y
    if model_id is None:
        model_id = model.origin_chunk_index
    return CorrectnessVector(bits, model_id, model.origin_chunk_index)


def _contingency_table(vectors) -> tuple[np.ndarray, ...]:
    """(N11, N10, N01, N00) for every ordered pair of ``vectors``, as (k, k)
    int64 matrices: N11 from one product of the stacked 0/1 bits, the rest
    from its diagonal, each vector's count of correct instances. The product
    is taken in float64, several times faster than in int64, and is exact:
    each count is a sum of ones below 2**53."""
    vectors = list(vectors)
    n = vectors[0].bits.size
    if any(v.bits.size != n for v in vectors):
        raise ValueError("correctness vectors must have equal length")
    B = np.array([v.bits for v in vectors], dtype=np.float64)
    n11 = (B @ B.T).astype(np.int64)
    right = np.diag(n11)
    n10 = right[:, None] - n11
    n01 = right[None, :] - n11
    n00 = n - n11 - n10 - n01
    return n11, n10, n01, n00


def _q_terms(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Integer numerators and denominators of Q for every ordered pair; the
    int64 products are exact for evaluation chunks below 3e9 instances."""
    n11, n10, n01, n00 = _contingency_table(vectors)
    agree, differ = n11 * n00, n01 * n10
    return agree - differ, agree + differ


def _q_fraction(num: np.ndarray, den: np.ndarray, i: int, j: int) -> Fraction:
    d = int(den[i, j])
    return Fraction(int(num[i, j]), d) if d else Fraction(0)


def contingency(ci: CorrectnessVector, cj: CorrectnessVector) -> tuple[int, int, int, int]:
    """(N11, N10, N01, N00) correctness contingency counts."""
    return tuple(int(m[0, 1]) for m in _contingency_table([ci, cj]))


def q_statistic(ci: CorrectnessVector, cj: CorrectnessVector) -> float:
    num, den = _q_terms([ci, cj])
    d = int(den[0, 1])
    return int(num[0, 1]) / d if d else 0.0


def div(vectors) -> float:
    """Set diversity: 1 minus the mean Q over all ordered pairs.

    Q is symmetric, so this equals 1 minus the unordered-pair mean.
    """
    vectors = list(vectors)
    if len(vectors) < 2:
        raise ValueError("div needs at least two correctness vectors")
    num, den = _q_terms(vectors)
    k = len(vectors)
    total = sum(_q_fraction(num, den, i, j) for i in range(k) for j in range(k) if i != j)
    return float(1 - total / (k * (k - 1)))


def _removal_priority(c: CorrectnessVector) -> tuple[int, int]:
    # Oldest models are preferred for removal on ties; "new" survives ties.
    return (1 if c.is_new else 0, c.origin)


def select_removal(candidates) -> int | str:
    """Pick the candidate whose removal maximizes the diversity of the rest.

    Because Q is symmetric, removing candidate c changes the ordered-pair sum
    by exactly twice c's summed Q against the others, so the removal that
    maximizes remaining diversity is the one with the largest row sum. Row
    sums are compared as floats; the rows within ``NEAR_TIE`` of the largest,
    which include every exact maximum, are compared again as exact rationals,
    once per distinct correctness column. Candidates with equal bits have
    equal rows, so when the near rows share one column, as at most steps of
    a stream, no rational is needed and priority order alone decides.
    Ties drop the candidate with the smallest origin chunk index, and the new
    model only when it is the sole argmax.
    """
    candidates = list(candidates)
    if len(candidates) < 3:
        raise ValueError("select_removal needs at least three candidates")
    num, den = _q_terms(candidates)
    q = np.divide(num, den, out=np.zeros(num.shape), where=den != 0)
    np.fill_diagonal(q, 0.0)
    rows = q.sum(axis=1)
    near = np.flatnonzero(rows >= rows.max() - NEAR_TIE).tolist()
    order = sorted(near, key=lambda i: _removal_priority(candidates[i]))
    if len({candidates[i].bits.tobytes() for i in near}) == 1:
        return candidates[order[0]].model_id
    # Candidates with equal bits have equal Q rows, so each distinct column
    # is summed exactly once.
    exact: dict[bytes, Fraction] = {}

    def exact_row(i: int) -> Fraction:
        key = candidates[i].bits.tobytes()
        if key not in exact:
            exact[key] = sum(_q_fraction(num, den, i, j) for j in range(len(candidates)) if j != i)
        return exact[key]

    # max keeps the first of equal rows, so priority order decides ties.
    return candidates[max(order, key=exact_row)].model_id


def select_least_accurate(candidates) -> int | str:
    """Pick the candidate with the fewest correct instances on the chunk.

    Ties follow ``select_removal``'s rule: drop the oldest model, and the new
    model only when it alone is least accurate.
    """
    ordered = sorted(candidates, key=_removal_priority)
    # min keeps the first of equal counts, so priority order decides ties.
    return min(ordered, key=lambda c: np.count_nonzero(c.bits)).model_id
