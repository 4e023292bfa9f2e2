"""Shared fixtures-in-code for the test suite: tiny chunk builders, random
consistent datasets, tree walkers, a straight-line router, and the replaced
implementations kept as differential oracles: a numpy reference grower, the
unfused transfer walk and the rational Q loops."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from driftel.cart import (
    Internal,
    Leaf,
    SplitCandidate,
    Tree,
    _left_mask,
    _threshold,
    categorical_split_subsets,
    grow_subtree,
)
from driftel.core import (
    CATEGORICAL,
    NUMERIC,
    Chunk,
    FeatureDescriptor,
    Schema,
)
from driftel.diversity import NEW_MODEL


def numeric_schema(n_features: int = 1, num_classes: int = 2) -> Schema:
    return Schema(tuple(FeatureDescriptor(NUMERIC) for _ in range(n_features)), num_classes)


def numeric_chunk(points, labels, num_classes: int = 2, index: int = 0) -> Chunk:
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if X.shape[0] == 1 and np.asarray(labels).size > 1:
        X = X.T
    schema = numeric_schema(X.shape[1], num_classes)
    return Chunk(index, schema, X, np.asarray(labels, dtype=np.int64))


def random_schema(rng: np.random.Generator, max_features: int = 3, num_classes: int | None = None) -> Schema:
    """Random mixed schema with at least one numeric feature, so feature
    vectors are almost surely distinct (labelings stay consistent)."""
    n_extra = int(rng.integers(0, max_features))
    feats = [FeatureDescriptor(NUMERIC)]
    for _ in range(n_extra):
        if rng.random() < 0.5:
            feats.append(FeatureDescriptor(NUMERIC))
        else:
            k = int(rng.integers(2, 5))
            feats.append(FeatureDescriptor(CATEGORICAL, tuple(f"c{i}" for i in range(k))))
    if num_classes is None:
        num_classes = int(rng.integers(2, 4))
    return Schema(tuple(feats), num_classes)


def random_chunk(rng: np.random.Generator, schema: Schema, n: int, index: int = 0) -> Chunk:
    X = np.empty((n, schema.n_features))
    for j, fd in enumerate(schema.features):
        if fd.is_categorical:
            X[:, j] = rng.integers(0, len(fd.domain), n)
        else:
            X[:, j] = rng.uniform(0, 10, n)
    y = rng.integers(0, schema.num_classes, n)
    return Chunk(index, schema, X, y.astype(np.int64))


def random_consistent_chunk(rng: np.random.Generator, schema: Schema, n: int, index: int = 0) -> Chunk:
    """Random chunk whose labels are a function of the feature vector, so
    duplicate rows never disagree."""
    chunk = random_chunk(rng, schema, n, index)
    table: dict[tuple, int] = {}
    y = np.empty(n, dtype=np.int64)
    for i, row in enumerate(map(tuple, chunk.X)):
        if row not in table:
            table[row] = int(rng.integers(0, schema.num_classes))
        y[i] = table[row]
    return chunk.with_labels(y)


def walk_nodes(tree: Tree):
    def rec(node):
        yield node
        if isinstance(node, Internal):
            yield from rec(node.left)
            yield from rec(node.right)

    yield from rec(tree.root)


def tree_leaves(tree: Tree) -> list[Leaf]:
    return [n for n in walk_nodes(tree) if isinstance(n, Leaf)]


def straight_line_route(tree: Tree, x) -> Leaf:
    """Route one encoded feature row to its leaf, one node test at a time."""
    node = tree.root
    while isinstance(node, Internal):
        v = x[node.feature_index]
        left = v <= node.threshold if node.threshold is not None else int(v) in node.categories
        node = node.left if left else node.right
    return node


def assert_structure_above_leaves_preserved(src, adp):
    """Every internal node of the source appears unchanged (same feature,
    same test, same depth) at the same position of the adapted tree."""
    if isinstance(src, Internal):
        assert isinstance(adp, Internal)
        assert adp.feature_index == src.feature_index
        assert adp.threshold == src.threshold
        assert adp.categories == src.categories
        assert adp.depth == src.depth
        assert_structure_above_leaves_preserved(src.left, adp.left)
        assert_structure_above_leaves_preserved(src.right, adp.right)
    # source leaves may be replaced by relabeled leaves or grown subtrees


def reference_best_split(X, y, idx, schema: Schema) -> SplitCandidate | None:
    """Gini split search on numpy arrays: a vectorised cumulative-count sweep
    per numeric feature and a subset loop per categorical one. It is the
    array implementation that ``cart``'s list-based search replaced, kept as
    a differential oracle."""
    n = idx.size
    y_sub = y[idx]
    K = schema.num_classes
    totals = np.bincount(y_sub, minlength=K)
    parent_score = int((totals**2).sum()) / n
    best = None
    for f, fd in enumerate(schema.features):
        col = X[idx, f]
        if fd.is_categorical:
            k = len(fd.domain)
            cat_class = np.bincount(col.astype(np.int64) * K + y_sub, minlength=k * K)
            cat_class = cat_class.reshape(k, K)
            for cats in categorical_split_subsets(k):
                left = cat_class[list(cats)].sum(axis=0)
                nl = int(left.sum())
                if nl == 0 or nl == n:
                    continue
                right = totals - left
                sl, sr = int((left**2).sum()), int((right**2).sum())
                gain = (sl / nl + sr / (n - nl) - parent_score) / n
                if best is None or gain > best.gain:
                    best = SplitCandidate(f, gain, None, cats)
            continue
        order = np.argsort(col)
        sv = col[order]
        cuts = np.flatnonzero(sv[1:] != sv[:-1])
        if cuts.size == 0:
            continue
        onehot = np.zeros((n, K), dtype=np.float64)
        onehot[np.arange(n), y_sub[order]] = 1.0
        left = np.cumsum(onehot, axis=0)[cuts]
        right = totals.astype(np.float64) - left
        nl = (cuts + 1).astype(np.float64)
        score = (left * left).sum(axis=1) / nl + (right * right).sum(axis=1) / (n - nl)
        gains = (score - parent_score) / n
        j = int(np.argmax(gains))  # first max = lowest threshold
        if best is None or float(gains[j]) > best.gain:
            cut = int(cuts[j])
            threshold = _threshold(float(sv[cut]), float(sv[cut + 1]))
            best = SplitCandidate(f, float(gains[j]), threshold, None)
    return best


def reference_grow_subtree(X, y, idx, depth, schema: Schema, params):
    """Recursive CART growth on index arrays with ``reference_best_split``;
    same signature as ``cart.grow_subtree``."""
    counts = np.bincount(y[idx], minlength=schema.num_classes)
    if (
        int((counts > 0).sum()) <= 1
        or idx.size < params.min_samples_split
        or (params.max_depth is not None and depth >= params.max_depth)
    ):
        return Leaf(counts, int(np.argmax(counts)), depth)
    split = reference_best_split(X, y, idx, schema)
    if split is None or split.gain < params.min_impurity_decrease:
        return Leaf(counts, int(np.argmax(counts)), depth)
    col = X[idx, split.feature_index]
    if split.threshold is not None:
        mask = col <= split.threshold
    else:
        mask = np.isin(col.astype(np.int64), split.categories)
    return Internal(
        split.feature_index,
        depth,
        split.threshold,
        split.categories,
        reference_grow_subtree(X, y, idx[mask], depth + 1, schema, params),
        reference_grow_subtree(X, y, idx[~mask], depth + 1, schema, params),
    )


def reference_adapt(node, idx, chunk: Chunk, params, grow=grow_subtree):
    """The transfer walk before scoring was fused into it: route the chunk,
    keep unreached subtrees, and relabel or regrow each reached leaf with
    ``grow`` (the signature of ``cart.grow_subtree``)."""
    if idx.size == 0:
        return node
    if isinstance(node, Internal):
        mask = _left_mask(node, chunk.columns[node.feature_index][idx])
        return Internal(
            node.feature_index,
            node.depth,
            node.threshold,
            node.categories,
            reference_adapt(node.left, idx[mask], chunk, params, grow),
            reference_adapt(node.right, idx[~mask], chunk, params, grow),
        )
    return grow(chunk.X, chunk.y, idx, node.depth, chunk.schema, params)


def reference_transfer(source: Tree, chunk: Chunk, params, grow=grow_subtree) -> Tree:
    """The adapted tree of ``reference_adapt``, with no scores."""
    root = reference_adapt(source.root, np.arange(len(chunk)), chunk, params, grow)
    return Tree(root, source.schema, params, source.origin_chunk_index)


WALK_SCHEMA = Schema(
    (
        FeatureDescriptor(NUMERIC),
        FeatureDescriptor(CATEGORICAL, tuple("abcd")),  # exhaustive subsets
        FeatureDescriptor(CATEGORICAL, tuple("abcdefgh")),  # one-vs-rest
    ),
    3,
)


def walk_rows(data, n: int, seen: tuple[int, int], grid: float) -> np.ndarray:
    """Hypothesis-drawn ``WALK_SCHEMA`` rows whose categorical codes stay below
    ``seen`` (one bound per categorical feature). Numeric values mix free
    floats with a ``grid`` lattice, so ties occur and, on the half lattice,
    rows hit thresholds."""
    numeric = st.one_of(st.integers(-6, 6).map(lambda k: k * grid), st.floats(-10, 10))
    rows = data.draw(
        st.lists(
            st.tuples(numeric, st.integers(0, seen[0] - 1), st.integers(0, seen[1] - 1)),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(rows, dtype=np.float64).reshape(n, 3)


def reference_contingency(ci, cj) -> tuple[int, int, int, int]:
    """(N11, N10, N01, N00) of two correctness vectors, counted bit by bit."""
    a, b = ci.bits, cj.bits
    n11 = int(np.count_nonzero(a & b))
    n10 = int(np.count_nonzero(a & ~b))
    n01 = int(np.count_nonzero(~a & b))
    return n11, n10, n01, a.size - n11 - n10 - n01


def reference_q_fraction(ci, cj) -> Fraction:
    """Yule's Q of two correctness vectors as an exact rational, 0 when the
    denominator is 0."""
    n11, n10, n01, n00 = reference_contingency(ci, cj)
    den = n11 * n00 + n01 * n10
    if den == 0:
        return Fraction(0)
    return Fraction(n11 * n00 - n01 * n10, den)


def reference_div(vectors) -> float:
    """Set diversity from a rational sum over every ordered pair."""
    total = Fraction(0)
    pairs = 0
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j:
                total += reference_q_fraction(a, b)
                pairs += 1
    return float(1 - total / pairs)


def reference_select_removal(candidates):
    """The removal rule with every Q row sum taken as an exact rational;
    ties drop the oldest model and spare the new one."""
    rows = []
    for i, a in enumerate(candidates):
        row = Fraction(0)
        for j, b in enumerate(candidates):
            if i != j:
                row += reference_q_fraction(a, b)
        rows.append(row)
    order = sorted(
        range(len(candidates)),
        key=lambda i: (1 if candidates[i].model_id == NEW_MODEL else 0, candidates[i].origin),
    )
    best = order[0]
    for i in order[1:]:
        if rows[i] > rows[best]:
            best = i
    return candidates[best].model_id
