from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftel import diversity
from driftel.cart import StoppingParams, train_cart
from driftel.diversity import (
    NEW_MODEL,
    CorrectnessVector,
    contingency,
    correctness,
    div,
    q_statistic,
    select_least_accurate,
    select_removal,
)
from helpers import (
    numeric_chunk,
    reference_accuracy_removal,
    reference_contingency,
    reference_div,
    reference_q_fraction,
    reference_select_removal,
)


def vec(bits, model_id=0, origin=0):
    return CorrectnessVector(np.asarray(bits, dtype=bool), model_id, origin)


def cells(n11, n10, n01, n00):
    a = [True] * n11 + [True] * n10 + [False] * n01 + [False] * n00
    b = [True] * n11 + [False] * n10 + [True] * n01 + [False] * n00
    return vec(a), vec(b)


def test_correctness_bits():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    tree = train_cart(chunk, StoppingParams())
    assert correctness(tree, chunk).bits.all()
    stump = train_cart(chunk, StoppingParams(max_depth=0))
    bits = correctness(stump, chunk).bits
    assert np.array_equal(bits, chunk.y == stump.labels[0])
    again = correctness(stump, chunk).bits
    assert np.array_equal(bits, again)


def test_q_statistic_identical_and_complementary():
    a = vec([True, True, False, False])
    assert q_statistic(a, a) == 1.0
    comp = vec([False, False, True, True])
    assert q_statistic(a, comp) == -1.0


def test_q_statistic_frozen_contingency_fixture():
    # 100-bit pair with cells N11=40, N00=30, N01=20, N10=10
    a, b = cells(40, 10, 20, 30)
    assert a.bits.size == 100
    assert q_statistic(a, b) == pytest.approx(5 / 7, abs=1e-12)
    assert q_statistic(a, b) == (1200 - 200) / (1200 + 200)


def test_q_statistic_degenerate_denominator_is_zero():
    all_true = vec([True, True, True])
    mixed = vec([True, False, True])
    assert q_statistic(all_true, mixed) == 0.0
    assert q_statistic(all_true, all_true) == 0.0


def test_q_statistic_length_mismatch():
    with pytest.raises(ValueError):
        q_statistic(vec([True]), vec([True, False]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.booleans(), min_size=1, max_size=40),
    st.lists(st.booleans(), min_size=1, max_size=40),
)
def test_q_statistic_symmetric(a_bits, b_bits):
    n = min(len(a_bits), len(b_bits))
    a, b = vec(a_bits[:n]), vec(b_bits[:n])
    assert q_statistic(a, b) == q_statistic(b, a)
    assert -1.0 <= q_statistic(a, b) <= 1.0


@given(st.lists(st.booleans(), min_size=2, max_size=40).filter(lambda b: any(b) and not all(b)))
def test_q_self_is_one_for_mixed_vectors(bits):
    a = vec(bits)
    assert q_statistic(a, a) == 1.0


def test_div_examples():
    a = vec([True, True, False, False])
    assert div([a, vec(a.bits)]) == 0.0
    assert div([a, vec(~np.asarray(a.bits))]) == 2.0
    with pytest.raises(ValueError):
        div([a])


def test_div_three_vectors_with_q_one_zero_minus_one():
    # frozen 8-bit construction with pairwise Q = {1, 0, -1}
    v1 = vec([1, 1, 1, 1, 0, 0, 0, 0], model_id=0)
    v2 = vec([1, 1, 0, 0, 0, 0, 0, 0], model_id=1)
    v3 = vec([0, 0, 1, 1, 1, 1, 0, 0], model_id=2)
    assert q_statistic(v1, v2) == 1.0
    assert q_statistic(v1, v3) == 0.0
    assert q_statistic(v2, v3) == -1.0
    assert div([v1, v2, v3]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_div_permutation_invariant(data):
    n = data.draw(st.integers(2, 5))
    length = data.draw(st.integers(1, 16))
    vectors = [
        vec(data.draw(st.lists(st.booleans(), min_size=length, max_size=length)), model_id=i)
        for i in range(n)
    ]
    perm = data.draw(st.permutations(vectors))
    assert div(vectors) == div(perm)


def test_select_removal_tie_drops_oldest():
    # archived pair complementary, new identical to archived #0:
    # removing #0 or new both leave div = 2; the older one goes
    a = vec([True, True, False, False], model_id=0, origin=0)
    b = vec([False, False, True, True], model_id=1, origin=1)
    new = vec([True, True, False, False], model_id=NEW_MODEL, origin=2)
    assert select_removal([a, b, new]) == 0


def test_select_removal_keeps_the_complementary_model():
    trio_bits = [True, False, True, False]
    comp_bits = [False, True, False, True]
    cands = [
        vec(trio_bits, model_id=0, origin=0),
        vec(trio_bits, model_id=1, origin=1),
        vec(trio_bits, model_id=2, origin=2),
        vec(comp_bits, model_id=NEW_MODEL, origin=3),
    ]
    assert select_removal(cands) == 0


def test_select_removal_all_identical_drops_oldest():
    cands = [vec([True, False], model_id=i, origin=i) for i in range(3)]
    assert select_removal(cands) == 0


def test_select_removal_new_removed_when_strictly_most_redundant():
    # Q(a,b) = -1, Q(a,new) = 0, Q(b,new) = 1: dropping new keeps the
    # complementary pair (div 2), strictly better than the alternatives
    a = vec([0, 0, 1, 1, 1, 1, 0, 0], model_id=0, origin=0)
    b = vec([1, 1, 0, 0, 0, 0, 0, 0], model_id=1, origin=1)
    new = vec([1, 1, 1, 1, 0, 0, 0, 0], model_id=NEW_MODEL, origin=2)
    assert select_removal([a, b, new]) == NEW_MODEL


def test_select_removal_input_validation():
    a = vec([True, False], model_id=0, origin=0)
    b = vec([False, True], model_id=1, origin=1)
    with pytest.raises(ValueError):
        select_removal([a, b])
    with pytest.raises(ValueError):
        select_removal([a, b, vec([True], model_id=2, origin=2)])


def brute_force_removal(cands):
    """Literal definition: enumerate removals, recompute div exactly."""

    def q_exact(x, y):
        n11 = int(np.count_nonzero(x.bits & y.bits))
        n10 = int(np.count_nonzero(x.bits & ~y.bits))
        n01 = int(np.count_nonzero(~x.bits & y.bits))
        n00 = x.bits.size - n11 - n10 - n01
        den = n11 * n00 + n01 * n10
        return Fraction(0) if den == 0 else Fraction(n11 * n00 - n01 * n10, den)

    def div_exact(vectors):
        total, pairs = Fraction(0), 0
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                if i != j:
                    total += q_exact(a, b)
                    pairs += 1
        return 1 - total / pairs

    ordered = sorted(cands, key=lambda c: (1 if c.model_id == NEW_MODEL else 0, c.origin))
    best, best_div = None, None
    for cand in ordered:
        rest = [c for c in cands if c is not cand]
        d = div_exact(rest)
        if best is None or d > best_div:
            best, best_div = cand, d
    return best.model_id


def test_select_removal_matches_brute_force_random():
    rng = np.random.default_rng(101)
    for trial in range(120):
        m = int(rng.integers(2, 9))
        length = int(rng.integers(2, 24))
        cands = [
            vec(rng.random(length) < rng.random(), model_id=i, origin=i) for i in range(m)
        ] + [vec(rng.random(length) < rng.random(), model_id=NEW_MODEL, origin=m)]
        assert select_removal(cands) == brute_force_removal(cands)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_q_table_matches_rational_loops(data):
    # select_removal compares float row sums and settles near ties exactly;
    # div sums from the integer table. Both must agree with the rational pair
    # loops they replaced. Duplicated and complemented columns force exact
    # ties whose float sums may differ in the last bits; all-true and
    # all-false columns have a zero Q denominator against every column.
    # With ``shared``, most columns copy one of the first two, so many
    # near-maximal rows share a column and are settled by one exact sum.
    length = data.draw(st.integers(1, 24))
    k = data.draw(st.integers(3, 14))
    shared = data.draw(st.booleans())
    kinds = ["free", "copy", "complement", "all", "none"]
    columns = []
    for _ in range(k):
        kind = data.draw(st.sampled_from(["copy"] * 4 + kinds if shared else kinds))
        if kind in ("copy", "complement") and columns:
            pick = st.integers(0, min(len(columns), 2 if shared else len(columns)) - 1)
            base = columns[data.draw(pick)]
            columns.append(base if kind == "copy" else ~base)
        elif kind == "all":
            columns.append(np.ones(length, dtype=bool))
        elif kind == "none":
            columns.append(np.zeros(length, dtype=bool))
        else:
            bits = data.draw(st.lists(st.booleans(), min_size=length, max_size=length))
            columns.append(np.asarray(bits, dtype=bool))
    origins = data.draw(st.permutations(range(k - 1)))
    cands = [vec(b, model_id=slot, origin=o) for slot, (b, o) in enumerate(zip(columns, origins))]
    cands.append(vec(columns[-1], model_id=NEW_MODEL, origin=k - 1))
    assert select_removal(cands) == reference_select_removal(cands)
    assert div(cands) == reference_div(cands)
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    assert contingency(cands[i], cands[j]) == reference_contingency(cands[i], cands[j])
    assert q_statistic(cands[i], cands[j]) == float(reference_q_fraction(cands[i], cands[j]))


def draw_candidates(data, length: int, k: int):
    """k candidates of ``length`` bits, the last one new, with shuffled
    origins. Their counts of correct instances take at most two values, so
    columns with equal counts but different bits are common."""
    counts = data.draw(st.lists(st.integers(0, length), min_size=1, max_size=2))
    columns = []
    for _ in range(k):
        bits = np.zeros(length, dtype=bool)
        order = data.draw(st.permutations(range(length)))
        bits[list(order[: data.draw(st.sampled_from(counts))])] = True
        columns.append(bits)
    origins = data.draw(st.permutations(range(k - 1)))
    cands = [vec(b, model_id=slot, origin=o) for slot, (b, o) in enumerate(zip(columns, origins))]
    cands.append(vec(columns[-1], model_id=NEW_MODEL, origin=k - 1))
    return cands


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_rows_are_kept_apart_per_column(data):
    # With NEAR_TIE infinite every row is settled exactly, so each distinct
    # column must get its own exact row sum, also columns that share their
    # count of correct instances. hypothesis rejects function-scoped
    # fixtures, so the patch is a context manager in the test body.
    cands = draw_candidates(data, data.draw(st.integers(2, 12)), data.draw(st.integers(3, 8)))
    with mock.patch.object(diversity, "NEAR_TIE", np.inf):
        assert select_removal(cands) == reference_select_removal(cands)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_select_least_accurate_matches_loop(data):
    cands = draw_candidates(data, data.draw(st.integers(1, 12)), data.draw(st.integers(2, 8)))
    assert select_least_accurate(cands) == reference_accuracy_removal(cands)
