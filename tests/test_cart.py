import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftel
from driftel import cart
from driftel.cart import (
    SplitCandidate,
    StoppingParams,
    Tree,
    _Forest,
    _route_rows,
    best_split,
    grow_leaves,
    grow_sites,
    one_leaf,
    posterior_chunk,
    predict_chunk,
    predict_forest,
    route_forest,
    train_cart,
    tree_to_text,
)
from driftel.core import (
    CATEGORICAL,
    NUMERIC,
    Chunk,
    FeatureDescriptor,
    Schema,
    make_rng,
)
from driftel.transfer import transfer_tree, transfer_trees
from helpers import (
    NO_SHRINK,
    WALK_SCHEMA,
    GraphTree,
    assert_structure_above_leaves_preserved,
    collapse,
    duplicate_rows,
    graph_posterior_chunk,
    graph_to_text,
    graph_train,
    graph_transfer,
    node_categories,
    numeric_chunk,
    one_row,
    random_chunk,
    random_consistent_chunk,
    random_schema,
    reference_best_split,
    reference_grow_sites,
    reference_grow_subtree,
    reference_numeric_splits,
    reference_transfer,
    row_site_grow_leaves,
    straight_line_route,
    tree_leaves,
    walk_rows,
)

UNBOUNDED = StoppingParams()


def test_single_split_on_separable_1d():
    # brute force over all midpoint thresholds puts the best split in [2, 8)
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    tree = train_cart(chunk, UNBOUNDED)
    left, right = tree.left[0], tree.right[0]
    assert tree.feature[0] == 0
    assert 2.0 <= tree.threshold[0] < 8.0
    assert tree.feature[left] < 0 and tree.feature[right] < 0
    assert tree.labels[left] == 0 and tree.labels[right] == 1
    assert np.array_equal(tree.counts[left], [2, 0])
    assert np.array_equal(tree.counts[right], [0, 2])


def test_pure_chunk_gives_single_leaf():
    tree = train_cart(numeric_chunk([1, 2, 3], [1, 1, 1]), UNBOUNDED)
    assert tree.n_nodes == 1 and tree.feature[0] < 0
    assert tree.labels[0] == 1


def test_pure_chunk_best_split_is_its_first_cut():
    # Every cut of a pure chunk gains 0, so the first in the documented
    # order wins. No cut there is a boundary cut: a pure node keeps them all.
    chunk = numeric_chunk([(3, 5), (1, 4), (2, 4)], [1, 1, 1])
    assert best_split(chunk) == SplitCandidate(0, 0.0, 1.5, None)


def test_xor_pattern_needs_zero_gain_splits():
    # exhaustive enumeration on 4 points: all root candidates have zero gain,
    # but a depth-2 tree classifies the pattern perfectly
    chunk = numeric_chunk([(0, 0), (1, 1), (0, 1), (1, 0)], [0, 0, 1, 1])
    tree = train_cart(chunk, UNBOUNDED)
    assert np.mean(predict_chunk(tree, chunk) == chunk.y) == 1.0
    assert tree.depth[tree_leaves(tree)].max() == 2


def test_route_boundary_is_inclusive():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    # force the threshold to exactly 5.0
    tree = train_cart(chunk, UNBOUNDED)
    assert tree.threshold[0] == 5.0
    assert route_forest([tree], one_row(tree.schema, 5.0)).tolist() == [[tree.left[0]]]
    assert route_forest([tree], one_row(tree.schema, 5.01)).tolist() == [[tree.right[0]]]
    single = train_cart(numeric_chunk([3.0], [1], num_classes=2), UNBOUNDED)
    assert route_forest([single], one_row(single.schema, 123.0)).tolist() == [[0]]


def test_code_test_sends_the_go_left_codes_left():
    # A hand-built categorical stump checks the node test without growth:
    # codes 0 and 2 go left, 1 and 3 go right.
    schema = Schema((FeatureDescriptor(CATEGORICAL, ("a", "b", "c", "d")),), 2)
    tree = Tree(
        np.array([0, -1, -1]), np.full(3, np.nan), np.array([[0, 2, -1], [-1, -1, -1], [-1, -1, -1]]),
        np.array([1, -1, -1]), np.array([2, -1, -1]), np.array([[3, 3], [3, 0], [0, 3]]), schema, 0,
    )
    chunk = Chunk(0, schema, np.array([[0.0], [1.0], [2.0], [3.0]]), np.zeros(4, dtype=np.int64))
    assert route_forest([tree], chunk).tolist() == [[1, 2, 1, 2]]


def test_growth_fails_on_a_split_that_parts_nothing(monkeypatch):
    # A node test that sends every value left leaves each split's right child
    # empty; growth must raise rather than split the same entries forever.
    # The fake test stops a growth that does not fail after 100 levels.
    calls = []

    def all_left(values, threshold, codes, node):
        calls.append(node.size)
        assert len(calls) < 100, "growth split the same entries forever"
        return np.ones(values.shape, dtype=bool)

    monkeypatch.setattr(driftel.cart, "_goes_left", all_left)
    with pytest.raises(RuntimeError, match="without entries"):
        train_cart(numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1]), UNBOUNDED)


def test_predict_and_posterior_examples():
    tree = train_cart(numeric_chunk([1, 2, 3, 4], [0, 0, 0, 1]), StoppingParams(max_depth=0))
    assert np.array_equal(tree.counts[0], [3, 1])
    assert np.allclose(tree.probabilities[0], [0.75, 0.25])
    # majority-count leaf (3 vs 1) predicts the majority
    row = one_row(tree.schema, 2.0)
    assert predict_chunk(tree, row).tolist() == [0]
    assert np.allclose(posterior_chunk(tree, row), [[0.75, 0.25]])
    tie = train_cart(numeric_chunk([1, 2, 3, 4], [0, 0, 1, 1]), StoppingParams(max_depth=0))
    assert predict_chunk(tie, row).tolist() == [0]  # tie -> lowest class index
    three = train_cart(
        numeric_chunk([1, 2, 3, 4], [0, 1, 2, 2], num_classes=3), StoppingParams(max_depth=0)
    )
    assert np.allclose(posterior_chunk(three, one_row(three.schema, 1.0)), [[0.25, 0.25, 0.5]])


def test_pure_leaf_posterior():
    tree = train_cart(numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1]), UNBOUNDED)
    assert np.allclose(posterior_chunk(tree, one_row(tree.schema, 1.0)), [[1.0, 0.0]])


def test_stopping_max_depth_and_min_samples():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    stump = train_cart(chunk, StoppingParams(max_depth=0))
    assert stump.n_nodes == 1
    small = train_cart(chunk, StoppingParams(min_samples_split=5))
    assert small.n_nodes == 1
    gated = train_cart(
        numeric_chunk([(0, 0), (1, 1), (0, 1), (1, 0)], [0, 0, 1, 1]),
        StoppingParams(min_impurity_decrease=0.01),
    )
    # all candidates on the xor pattern have zero gain, below the gate
    assert gated.n_nodes == 1


def test_stopping_params_validation():
    with pytest.raises(ValueError):
        StoppingParams(min_samples_split=1)
    with pytest.raises(ValueError):
        StoppingParams(max_depth=-1)
    with pytest.raises(ValueError):
        StoppingParams(min_impurity_decrease=-0.1)


def test_schema_mismatch_rejected():
    chunk = numeric_chunk([1, 2], [0, 1])
    other = numeric_chunk([(1, 1), (2, 2)], [0, 1])
    with pytest.raises(ValueError):
        train_cart(chunk, UNBOUNDED, schema=other.schema)
    tree = train_cart(chunk, UNBOUNDED)
    with pytest.raises(ValueError):
        predict_chunk(tree, other)


def test_categorical_split_and_unseen_symbol_routes_right():
    schema = Schema((FeatureDescriptor(CATEGORICAL, ("a", "b", "c")),), 2)
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1, 1, 0, 0])
    tree = train_cart(Chunk(0, schema, X, y), UNBOUNDED)
    assert tree.feature[0] >= 0 and node_categories(tree, 0) is not None
    # symbol "c" (code 2) appears in no training partition -> routes right
    assert route_forest([tree], one_row(schema, 2.0)).tolist() == [[tree.right[0]]]
    assert predict_chunk(tree, one_row(schema, 0.0)).tolist() == [1]
    assert predict_chunk(tree, one_row(schema, 1.0)).tolist() == [0]


def test_split_tie_breaks_lowest_feature_then_threshold():
    # both features separate the labels equally well -> feature 0 wins
    chunk = numeric_chunk([(0, 0), (0, 0), (1, 1), (1, 1)], [0, 0, 1, 1])
    tree = train_cart(chunk, UNBOUNDED)
    assert tree.feature[0] == 0
    # On 0 1 1 0 the cuts at 1.5 and 3.5 score the same on both features;
    # the middle cut scores less. Feature 0 at 1.5 wins.
    tied = numeric_chunk([(1, 1), (2, 2), (3, 3), (4, 4)], [0, 1, 1, 0])
    assert brute_force_best(tied) == (Fraction(1, 6), 0, 1.5, None)
    tree = train_cart(tied, UNBOUNDED)
    assert (tree.feature[0], tree.threshold[0]) == (0, 1.5)
    split = best_split(tied)
    assert (split.feature_index, split.threshold) == (0, 1.5)


def test_tree_text_golden_and_depth_invariant():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    tree = train_cart(chunk, UNBOUNDED)
    assert tree_to_text(tree) == (
        "node depth=0 x0<=5.0\n"
        "leaf depth=1 counts=2,0 label=0\n"
        "leaf depth=1 counts=0,2 label=1\n"
    )
    for node in np.flatnonzero(tree.feature >= 0):
        assert tree.depth[tree.left[node]] == tree.depth[node] + 1
        assert tree.depth[tree.right[node]] == tree.depth[node] + 1


# ---------------------------------------------------------------------------
# randomized invariants

def brute_force_best(chunk: Chunk):
    """Textbook Gini gain maximized over every candidate, straight-line, in
    exact rationals: (gain, feature, threshold, subset) of the first
    maximum in the documented order (lowest feature, then lowest threshold
    or earliest subset), or None when no candidate parts the chunk."""

    def gini(labels):
        if len(labels) == 0:
            return Fraction(0)
        _, counts = np.unique(labels, return_counts=True)
        return 1 - sum(Fraction(int(c), len(labels)) ** 2 for c in counts)

    X, y = chunk.X, chunk.y
    n = len(chunk)
    parent = gini(y)
    best = None

    def consider(mask, f, threshold, cats):
        nonlocal best
        nl = int(mask.sum())
        if nl in (0, n):
            return
        gain = parent - Fraction(nl, n) * gini(y[mask]) - Fraction(n - nl, n) * gini(y[~mask])
        if best is None or gain > best[0]:
            best = (gain, f, threshold, cats)

    for f, fd in enumerate(chunk.schema.features):
        col = X[:, f]
        if fd.is_categorical:
            k = len(fd.domain)
            if k <= 6:
                subsets = [
                    tuple(c for c in range(k - 1) if (mask >> c) & 1)
                    for mask in range(1, 1 << (k - 1))
                ]
            else:
                subsets = [(c,) for c in range(k)]
            for cats in subsets:
                consider(np.isin(col.astype(int), cats), f, None, cats)
        else:
            values = np.unique(col)
            for lo, hi in zip(values[:-1], values[1:]):
                thr = (lo + hi) / 2.0
                consider(col <= thr, f, float(thr), None)
    return best


def test_best_split_matches_brute_force_small():
    rng = make_rng(11)
    for trial in range(30):
        schema = random_schema(rng)
        chunk = random_consistent_chunk(rng, schema, int(rng.integers(3, 30)), index=trial)
        found = best_split(chunk)
        expected = brute_force_best(chunk)
        if expected is None:
            assert found is None or found.gain <= 0
        else:
            assert found is not None
            assert found.gain == pytest.approx(float(expected[0]), abs=1e-9)
            assert (found.feature_index, found.threshold, found.categories) == expected[1:]


def test_training_accuracy_perfect_on_consistent_chunks():
    rng = make_rng(13)
    for trial in range(20):
        schema = random_schema(rng)
        chunk = random_consistent_chunk(rng, schema, int(rng.integers(2, 60)), index=trial)
        tree = train_cart(chunk, UNBOUNDED)
        assert np.mean(predict_chunk(tree, chunk) == chunk.y) == 1.0


def test_leaf_counts_sum_to_chunk_size():
    rng = make_rng(17)
    for trial in range(10):
        schema = random_schema(rng)
        chunk = random_consistent_chunk(rng, schema, int(rng.integers(2, 80)), index=trial)
        tree = train_cart(chunk, UNBOUNDED)
        total = int(tree.counts[tree_leaves(tree)].sum())
        assert total == len(chunk)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_predict_equals_argmax_posterior(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rng = make_rng(data.draw(st.integers(0, 10_000)))
    chunk = numeric_chunk(rng.uniform(0, 10, (n, 2)), labels, num_classes=3)
    tree = train_cart(chunk, StoppingParams(min_samples_split=max(2, n // 3)))
    post = posterior_chunk(tree, chunk)
    assert np.array_equal(predict_chunk(tree, chunk), np.argmax(post, axis=1))


@pytest.mark.parametrize("copies", [1, 33])  # one row per value; runs of 33 equal values
@pytest.mark.parametrize(
    "lo, hi",
    [
        (1 + 2**-52, 1 + 2**-51),  # adjacent doubles: the midpoint rounds onto hi
        (1.5e308, 1.7e308),  # the sum overflows to inf
        (-1.7e308, -1.5e308),  # the sum overflows to -inf
    ],
)
def test_threshold_is_lower_value_when_midpoint_leaves_the_gap(lo, hi, copies):
    assert not lo <= (lo + hi) / 2 < hi
    chunk = numeric_chunk([lo] * copies + [hi] * copies, [0] * copies + [1] * copies)
    tree = train_cart(chunk, UNBOUNDED)
    assert tree.threshold[0] == lo
    assert np.array_equal(predict_chunk(tree, chunk), chunk.y)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chunk_routing_matches_straight_line_route(data):
    # Training sees only a prefix of each categorical domain, so test rows
    # carrying the later codes reach nodes where no training partition had
    # them. Test rows repeat the training rows and add rows on the half-integer
    # lattice, where the midpoints between integer training values lie.
    seen = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8)))
    n = data.draw(st.integers(2, 90))
    X = walk_rows(data, n, seen, grid=1.0)
    y = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    max_depth = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    tree = train_cart(Chunk(0, WALK_SCHEMA, X, y), StoppingParams(max_depth=max_depth))
    # A second test chunk repeats a few rows many times, and may hold two
    # twins that differ only in the sign of a zero: routing merges equal
    # rows (Chunk.distinct), and every copy must reach its own leaf.
    X_test = np.vstack([X, walk_rows(data, data.draw(st.integers(0, 40)), (4, 8), grid=0.5)])
    X_dup = duplicate_rows(data, data.draw(st.integers(1, 60)))
    for index, rows in ((1, X_test), (2, X_dup)):
        test = Chunk(index, WALK_SCHEMA, rows, np.zeros(len(rows), dtype=np.int64))
        labels = predict_chunk(tree, test)
        post = posterior_chunk(tree, test)
        leaves = route_forest([tree, tree], test)
        for i, x in enumerate(test.X):
            leaf = straight_line_route(tree, x)
            assert labels[i] == tree.labels[leaf]
            assert post[i].tobytes() == tree.probabilities[leaf].tobytes()
            assert leaves[0, i] == leaves[1, i] == leaf


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_growth_matches_reference_grower(data):
    # helpers keeps a numpy array grower, recursive, one split search per
    # node. New trees, transferred trees (regrown by the reference in
    # helpers.reference_transfer) and root splits must be identical. Labels
    # are drawn freely, so identical rows with different labels occur. The
    # third chunk copies a few rows many times, under conflicting labels:
    # train_cart grows it on weighted (row, label) entries.
    seen = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8)))
    chunks = []
    for index in range(3):
        n = data.draw(st.integers(1, 150 if index < 2 else 60))
        X = walk_rows(data, n, seen, grid=1.0) if index < 2 else duplicate_rows(data, n)
        y = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        chunks.append(Chunk(index, WALK_SCHEMA, X, y))
    params = StoppingParams(
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 8))),
        min_samples_split=data.draw(st.integers(2, 5)),
        min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.01, 0.1])),
    )

    def grown(chunk):
        rows = np.arange(len(chunk))
        tree = train_cart(chunk, params)
        reference = GraphTree(
            reference_grow_subtree(chunk.X, chunk.y, rows, 0, WALK_SCHEMA, params), WALK_SCHEMA, params, chunk.index
        )
        assert tree_to_text(tree) == graph_to_text(reference)
        assert best_split(chunk) == reference_best_split(chunk.X, chunk.y, rows, WALK_SCHEMA)
        return tree, reference

    grown(chunks[2])
    tree, reference = grown(chunks[0])
    adapted = transfer_tree(tree, chunks[1], params).tree
    reference_adapted = reference_transfer(reference, chunks[1], params, reference_grow_subtree)
    assert tree_to_text(adapted) == graph_to_text(reference_adapted)


def test_import_leaves_recursion_limit_unchanged():
    src = str(Path(driftel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; before = sys.getrecursionlimit(); import driftel; "
        "print(before, sys.getrecursionlimit())"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert before == after


def test_tree_deeper_than_the_recursion_limit():
    # Alternating labels on a line make every best split peel off the lowest
    # point, so the fully grown tree is a chain of depth n - 1.
    n = sys.getrecursionlimit() + 100
    chunk = numeric_chunk(np.arange(n, dtype=np.float64), np.arange(n) % 2)
    tree = train_cart(chunk, UNBOUNDED)
    assert tree.depth.max() == n - 1
    assert np.array_equal(predict_chunk(tree, chunk), chunk.y)
    # Shifted rows reach the same leaves, each with the other label.
    target = numeric_chunk(np.arange(n) + 0.25, (np.arange(n) + 1) % 2, index=1)
    adapted = transfer_tree(tree, target, UNBOUNDED).tree
    assert_structure_above_leaves_preserved(tree, adapted)
    leaves = route_forest([tree, adapted], target)
    assert np.array_equal(leaves[0], leaves[1])
    for i in (0, n // 2, n - 1):
        assert leaves[1, i] == straight_line_route(adapted, target.X[i])
    assert np.array_equal(adapted.labels[leaves[1]], target.y)
    text = tree_to_text(adapted).splitlines()
    assert len(text) == adapted.n_nodes
    assert max(int(line.split()[1].split("=")[1]) for line in text) == n - 1


def test_categorical_domain_beyond_64_codes():
    # Domains above 6 symbols split one code against the rest, so codes of
    # 64 and more must be representable in a split test.
    schema = Schema(
        (
            FeatureDescriptor(NUMERIC),
            FeatureDescriptor(CATEGORICAL, tuple(f"s{i}" for i in range(130))),
        ),
        2,
    )
    rng = make_rng(64)
    codes = np.concatenate([np.arange(130), rng.integers(0, 130, 70)])
    X = np.column_stack([rng.uniform(0, 1, codes.size), codes]).astype(np.float64)
    first = Chunk(0, schema, X, (codes == 100).astype(np.int64))
    second = Chunk(1, schema, X[::-1], np.isin(codes[::-1], (70, 100, 129)).astype(np.int64))
    tree = train_cart(first, UNBOUNDED)
    twin = graph_train(first, UNBOUNDED)
    assert tree_to_text(tree) == graph_to_text(twin)
    assert node_categories(tree, 0) == (100,)
    adapted = transfer_tree(tree, second, UNBOUNDED)
    reference, bits, p_true = graph_transfer(twin, second, UNBOUNDED, {})
    assert tree_to_text(adapted.tree) == graph_to_text(reference)
    assert any(c >= 64 for n in range(adapted.tree.n_nodes) for c in node_categories(adapted.tree, n) or ())
    assert np.array_equal(adapted.source_correct, bits)
    assert adapted.p_true.tobytes() == p_true.tobytes()
    leaves = route_forest([tree, adapted.tree], second)
    for row, x in enumerate(second.X):
        assert leaves[0, row] == straight_line_route(tree, x)
        assert leaves[1, row] == straight_line_route(adapted.tree, x)
    assert np.array_equal(adapted.tree.labels[leaves[1]], second.y)
    assert posterior_chunk(adapted.tree, second).tobytes() == graph_posterior_chunk(reference, second).tobytes()


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_grow_sites_matches_the_five_array_grower(data):
    # Each growth level is the positions of its entries in one entry table.
    # The grower that carried every entry's node, row, label, position and
    # weight side by side (helpers.reference_grow_sites) must grow the same
    # nodes, posteriors and bits: on distinct rows, and on a few rows copied
    # many times, whose arbitrary row sites helpers.collapse turns into
    # weighted (row, label) entries.
    n = data.draw(st.integers(1, 80))
    X = walk_rows(data, n, (4, 8), grid=1.0) if data.draw(st.booleans()) else duplicate_rows(data, n)
    y = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    chunk = Chunk(0, WALK_SCHEMA, X, y)
    site = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    sites = data.draw(st.lists(site, min_size=1, max_size=12))
    rows = np.concatenate(sites).astype(np.int64)
    bounds = np.cumsum([0] + [len(s) for s in sites])
    depths = np.asarray(data.draw(st.lists(st.integers(0, 6), min_size=len(sites), max_size=len(sites))))
    params = StoppingParams(
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 8))),
        min_samples_split=data.draw(st.integers(2, 5)),
        min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.01, 0.1])),
    )
    labels, weight = y[rows], None
    if chunk.distinct is not None:
        rows, labels, weight, bounds = collapse(chunk, rows, labels, bounds)[:4]
    grown, p_true, right = grow_sites(chunk, rows, labels, weight, bounds, depths, params)
    ref_grown, ref_p_true, ref_right = reference_grow_sites(chunk, rows, labels, weight, bounds, depths, params)
    for a, b in zip(grown, ref_grown):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert p_true.dtype == ref_p_true.dtype and p_true.tobytes() == ref_p_true.tobytes()
    assert np.array_equal(right, ref_right)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_pair_entries_match_collapsed_row_sites(data):
    # On a chunk that repeats rows, grow_leaves finds the chunk's weighted
    # (distinct row, label) pairs once and forms every site from them.
    # helpers.row_site_grow_leaves groups the rows by leaf and collapses each
    # site on its own: the entries handed to grow_sites, the grown nodes,
    # the posteriors and the bits must all match to the byte. Forests of
    # 1-4 trees and a one-leaf tree, with every site or, as the ablation
    # grows, the one-leaf tree's alone; chunks of a few rows copied many
    # times, +0.0 and -0.0 twins and conflicting labels among them.
    params = StoppingParams(
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 8))),
        min_samples_split=data.draw(st.integers(2, 5)),
        min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.01, 0.1])),
    )

    def draw_chunk(index: int, repeats: bool) -> Chunk:
        n = data.draw(st.integers(1, 60))
        X = duplicate_rows(data, n) if repeats else walk_rows(data, n, (4, 8), grid=0.5)
        y = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        return Chunk(index, WALK_SCHEMA, X, y)

    n_trees = data.draw(st.integers(1, 4))
    trees = [train_cart(draw_chunk(i, data.draw(st.booleans())), params) for i in range(n_trees)]
    chunk = draw_chunk(n_trees, True)
    forest = _Forest.of(trees + [one_leaf(WALK_SCHEMA, chunk.index)])
    leaves = _route_rows(forest, chunk)
    leaves = (leaves if data.draw(st.booleans()) else leaves[-1:]).ravel()
    entries = []

    def recorded(chunk, rows, labels, weight, bounds, depth, params):
        entries.append((rows, labels, weight, bounds))
        return grow_sites(chunk, rows, labels, weight, bounds, depth, params)

    with mock.patch.object(cart, "grow_sites", recorded):
        reached, grown, p_true, right = grow_leaves(forest, leaves, chunk, params)
    *expected, expected_entries = row_site_grow_leaves(forest, leaves, chunk, params)
    for a, b in zip(entries[0], expected_entries):  # rows, labels, weights (None on distinct rows), bounds
        assert (a is None) == (b is None)
        assert a is None or (a.dtype == b.dtype and a.tobytes() == b.tobytes())
    assert reached.tobytes() == expected[0].tobytes()
    for a, b in zip(grown, expected[1]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert p_true.dtype == expected[2].dtype and p_true.tobytes() == expected[2].tobytes()
    assert right.dtype == expected[3].dtype and np.array_equal(right, expected[3])


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_boundary_cuts_match_scoring_every_cut(data):
    # The numeric search scores only boundary cuts; helpers keeps the search
    # that scored every cut. At every search of train_cart and
    # transfer_trees both must write the same gain and threshold bytes: on
    # integer values with many ties and mixed labels, and on a few rows
    # copied many times under conflicting labels, which grow as weighted
    # (row, label) entries whose equal values hold several labels.
    num_classes = data.draw(st.sampled_from([2, 3, 6]))
    schema = Schema((*WALK_SCHEMA.features, FeatureDescriptor(NUMERIC)), num_classes)
    chunks = []
    for index in range(3):
        if index < 2:
            n = data.draw(st.integers(1, 150))
            high = data.draw(st.integers(1, 6))
            X = walk_rows(data, n, (4, 8), grid=1.0)
            X[:, 0] = data.draw(st.lists(st.integers(0, high), min_size=n, max_size=n))
        else:
            n = data.draw(st.integers(1, 60))
            X = duplicate_rows(data, n)
        # A second numeric feature, a function of the row: copies stay copies.
        X = np.hstack([X, (X[:, 1] - X[:, 2])[:, None]])
        y = np.asarray(data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n)))
        chunks.append(Chunk(index, schema, X, y))
    params = StoppingParams(
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 8))),
        min_samples_split=data.draw(st.integers(2, 5)),
        min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.01, 0.1])),
    )
    numeric_splits = cart._numeric_splits

    def both(tables, node, rows, labels, weight, totals, n, size, parent_score, gain, threshold):
        expected = gain.copy(), threshold.copy()
        reference_numeric_splits(tables, node, rows, labels, weight, totals, n, size, parent_score, *expected)
        numeric_splits(tables, node, rows, labels, weight, totals, n, size, parent_score, gain, threshold)
        assert gain.tobytes() == expected[0].tobytes()
        assert threshold.tobytes() == expected[1].tobytes()

    with mock.patch.object(cart, "_numeric_splits", both):
        trees = [train_cart(chunks[0], params), train_cart(chunks[2], params)]
        transfer_trees(trees, chunks[1], params)
        transfer_trees(trees, chunks[2], params)


def _mixed_trees(seed: int):
    """Fully grown, depth-limited and adapted trees on one random schema,
    and a one-leaf tree, whose counts are all zero; and a test chunk."""
    rng = make_rng(seed)
    schema = random_schema(rng)
    chunks = [random_chunk(rng, schema, int(rng.integers(1, 120)), index) for index in range(3)]
    full = train_cart(chunks[0], UNBOUNDED)
    trees = [
        full,
        one_leaf(schema, 1),
        train_cart(chunks[1], StoppingParams(max_depth=2)),
        transfer_tree(full, chunks[1], UNBOUNDED).tree,
    ]
    return trees, chunks[2]


@pytest.mark.parametrize("seed", range(6))
def test_forest_leaf_rule_is_each_trees_own(seed):
    trees, _chunk = _mixed_trees(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the one-leaf tree's 0 / 0 warns nowhere
        forest = _Forest.of(trees)
        for name in ("labels", "probabilities"):
            joined = getattr(forest, name)
            assert not joined.flags.writeable
            for tree, a in zip(trees, forest.starts.tolist()):
                own = getattr(tree, name)
                assert not own.flags.writeable
                assert joined[a:a + tree.n_nodes].tobytes() == own.tobytes()
    assert np.isnan(trees[1].probabilities).all() and trees[1].labels.tolist() == [0]


@pytest.mark.parametrize("seed", range(6))
def test_predict_forest_equals_each_trees_predictions(seed):
    trees, chunk = _mixed_trees(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = predict_forest(trees, chunk)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.stack([predict_chunk(tree, chunk) for tree in trees]))
        assert (labels[1] == 0).all()  # the one-leaf tree: lowest class on its tie of zeros
        empty = predict_forest([], chunk)
    assert empty.shape == (0, len(chunk)) and empty.dtype == np.int64
