"""Shared fixtures-in-code for the test suite: tiny chunk builders, random
consistent datasets, tree walkers, a straight-line router, and the replaced
implementations kept as differential oracles: the list grower (one tree
node by node on Python lists), which ``cart`` no longer holds since one
batched grower builds every tree; the object-graph trees with their
recursive grower, fused transfer walk and per-tree router; a numpy
reference grower; the unfused transfer walk; the per-site regrowth loop;
the splice that re-laid grown subtrees in pre-order and renumbered the
trees around them; the batched grower that carried each level as five
parallel arrays; the site grouping that collapsed each site's repeated
rows into weighted (row, label) entries on its own; the numeric split
search that scored every cut; the ``dtel-no-transfer`` step that grew its
new tree alone and scored the archived trees from their own arrays; the
per-row soft vote, the rational Q loops, the accuracy removal loop, the
sea swap loop and the five per-family stream generators. ``pre_order``
gives any tree a canonical node order for byte comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress
from unittest import mock

import numpy as np
from hypothesis import Phase
from hypothesis import strategies as st

from driftel import dtel, transfer
from driftel.cart import (
    SplitCandidate,
    StoppingParams,
    Tree,
    _Forest,
    _heads,
    _level_splits,
    _SearchTables,
    _split_score,
    categorical_split_subsets,
    category_width,
    grow_sites,
    route_forest,
)
from driftel.core import (
    CATEGORICAL,
    NUMERIC,
    Chunk,
    FeatureDescriptor,
    Schema,
    make_rng,
)
from driftel.diversity import NEW_MODEL, correctness
from driftel.dtel import ADAPTED, NEW, EnsembleMember, WeightedEnsemble, mse_random, weight_adapted, weight_new
from driftel.streams import (
    ROT_CLASSES,
    ROT_DELTA,
    ROT_SIGMA,
    SIN_DELTA,
    ChunkPair,
    DriftStreamConfig,
    add_noise,
    cir_label,
    rotate_points,
    schedule_for,
    schema_for,
    sea_label,
    sin_label,
    sta_label,
)


# Hypothesis settings for growth tests: a failing example is reported as
# found, since shrinking one can take minutes, which makes a broken grower
# look like a hung suite.
NO_SHRINK = [p for p in Phase if p is not Phase.shrink]


def numeric_schema(n_features: int = 1, num_classes: int = 2) -> Schema:
    return Schema(tuple(FeatureDescriptor(NUMERIC) for _ in range(n_features)), num_classes)


def numeric_chunk(points, labels, num_classes: int = 2, index: int = 0) -> Chunk:
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if X.shape[0] == 1 and np.asarray(labels).size > 1:
        X = X.T
    schema = numeric_schema(X.shape[1], num_classes)
    return Chunk(index, schema, X, np.asarray(labels, dtype=np.int64))


def one_row(schema: Schema, *values: float, index: int = 0) -> Chunk:
    """A one-row chunk of encoded feature values, labelled 0."""
    return Chunk(index, schema, np.array([values], dtype=np.float64), np.zeros(1, dtype=np.int64))


def decoded_chunk(chunk: Chunk) -> tuple:
    """A chunk as raw values, for comparing chunks whose categorical domains
    may list their symbols in another order: its step index, its feature
    kinds, its rows with each categorical code as its symbol
    (``fd.domain[int(code)]``) and each numeric value as a float, and its
    labels."""
    features = chunk.schema.features
    rows = [
        tuple(fd.domain[int(v)] if fd.is_categorical else v for fd, v in zip(features, row))
        for row in chunk.X.tolist()
    ]
    return chunk.index, [fd.kind for fd in features], rows, chunk.y.tolist()


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


def tree_leaves(tree: Tree) -> list[int]:
    """Leaf ids of a flat tree."""
    return np.flatnonzero(tree.feature < 0).tolist()


def node_categories(tree: Tree, node: int) -> tuple[int, ...] | None:
    """Go-left codes of a categorical test, or None for a numeric test."""
    if tree.threshold[node] == tree.threshold[node]:
        return None
    return tuple(int(c) for c in tree.categories[node] if c >= 0)


def straight_line_route(tree: Tree, x) -> int:
    """Route one encoded feature row to its leaf id, one node test at a time."""
    node = 0
    while tree.feature[node] >= 0:
        v = x[tree.feature[node]]
        cats = node_categories(tree, node)
        left = v <= tree.threshold[node] if cats is None else int(v) in cats
        node = int(tree.left[node] if left else tree.right[node])
    return node


def assert_structure_above_leaves_preserved(src: Tree, adp: Tree):
    """Every internal node of the source appears unchanged (same feature,
    same test, same depth) at the same position of the adapted tree."""
    stack = [(0, 0)]
    while stack:
        s, a = stack.pop()
        if src.feature[s] < 0:
            continue  # source leaves may be replaced by relabeled leaves or grown subtrees
        assert adp.feature[a] == src.feature[s]
        assert adp.threshold[a].tobytes() == src.threshold[s].tobytes()
        assert node_categories(adp, a) == node_categories(src, s)
        assert adp.depth[a] == src.depth[s]
        stack.append((int(src.left[s]), int(adp.left[a])))
        stack.append((int(src.right[s]), int(adp.right[a])))


# ---------------------------------------------------------------------------
# The list grower that ``cart`` replaced by its batched search: one tree node
# by node on Python lists with an explicit stack, the split search an
# integer sweep per numeric feature and a subset loop per categorical one.
# It backs the object-graph grower and the per-site regrowth loop below.


def _threshold(lo: float, hi: float) -> float:
    """Numeric threshold between consecutive distinct sorted values ``lo < hi``.

    The midpoint, unless rounding (adjacent doubles) or overflow puts it
    outside ``[lo, hi)``; then ``lo``, so ``value <= threshold`` still sends
    ``lo`` left and ``hi`` right.
    """
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


def _numeric_candidate(col, labels: list[int], totals: list[int], total_sq: int):
    """Sweep over sorted values; returns (score, threshold) of the best cut
    or None. The counts and sums of squares are exact ints, but each score
    divides them in floats, so rational ties can round apart as in ``cart``
    (ROADMAP item 17)."""
    n = len(col)
    left = [0] * len(totals)
    right = list(totals)
    sum_left_sq = 0
    sum_right_sq = total_sq
    best_score = None
    order = sorted(range(n), key=col.__getitem__)
    prev = col[order[0]]
    nl = 0  # instances below the value being visited
    for i in order:
        v = col[i]
        if v != prev:
            score = sum_left_sq / nl + sum_right_sq / (n - nl)
            if best_score is None or score > best_score:
                best_score = score
                lo, hi = prev, v
            prev = v
        c = labels[i]
        sum_left_sq += 2 * left[c] + 1
        left[c] += 1
        sum_right_sq -= 2 * right[c] - 1
        right[c] -= 1
        nl += 1
    if best_score is None:
        return None
    return best_score, _threshold(lo, hi)


def _split_rows(rows: list[list[float]], labels: list[int], totals: list[int], schema: Schema):
    """Best split of a node held as Python lists of feature rows, labels and
    class totals. Python lists beat numpy here: most nodes hold a handful of
    instances, where numpy's per-call overhead dominates."""
    n = len(labels)
    K = schema.num_classes
    total_sq = sum(c * c for c in totals)
    parent_score = total_sq / n
    best: SplitCandidate | None = None
    for (f, fd), col in zip(enumerate(schema.features), zip(*rows)):
        if not fd.is_categorical:
            found = _numeric_candidate(col, labels, totals, total_sq)
            if found is None:
                continue
            score, threshold = found
            gain = (score - parent_score) / n
            if best is None or gain > best.gain:
                best = SplitCandidate(f, gain, float(threshold), None)
            continue
        cat_class = [[0] * K for _ in fd.domain]
        for v, c in zip(col, labels):
            cat_class[int(v)][c] += 1
        for cats in categorical_split_subsets(len(fd.domain)):
            left = [0] * K
            for c in cats:
                row = cat_class[c]
                for j in range(K):
                    left[j] += row[j]
            nl = sum(left)
            if nl == 0 or nl == n:
                continue
            nr = n - nl
            sl = sr = 0
            for j in range(K):
                sl += left[j] * left[j]
                r = totals[j] - left[j]
                sr += r * r
            gain = (sl / nl + sr / nr - parent_score) / n
            if best is None or gain > best.gain:
                best = SplitCandidate(f, gain, None, cats)
    return best


class _Nodes:
    """A tree or subtree under construction: one entry per node in each list,
    in pre-order (a node's left child follows it), child ids local."""

    __slots__ = ("feature", "threshold", "categories", "left", "right", "counts", "no_codes")

    def __init__(self, width: int):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.categories: list[tuple[int, ...]] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[list[int]] = []
        self.no_codes = (-1,) * width

    def to_tree(self, schema: Schema, origin_chunk_index: int) -> Tree:
        n = len(self.feature)
        return Tree(
            np.array(self.feature, dtype=np.int64),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.categories, dtype=np.int64).reshape(n, len(self.no_codes)),
            np.array(self.left, dtype=np.int64),
            np.array(self.right, dtype=np.int64),
            np.array(self.counts, dtype=np.int64).reshape(n, schema.num_classes),
            schema,
            origin_chunk_index,
        )


def _grow_rows(
    nodes: _Nodes,
    rows: list[list[float]],
    labels: list[int],
    depth: int,
    schema: Schema,
    params: StoppingParams,
) -> None:
    """Append the (sub)tree grown on ``rows`` and ``labels``, its root at
    ``depth``, to ``nodes`` in pre-order, with an explicit stack."""
    K = schema.num_classes
    max_depth = params.max_depth
    feature, threshold, categories = nodes.feature, nodes.threshold, nodes.categories
    left, right, node_counts, no_codes = nodes.left, nodes.right, nodes.counts, nodes.no_codes
    # Entries: (rows, labels, depth, id of the parent whose right child this
    # is, or -1). The left child is pushed last, so it is placed next.
    stack = [(rows, labels, depth, -1)]
    while stack:
        rows, labels, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        n = len(labels)
        counts = [labels.count(c) for c in range(K)]
        node_counts.append(counts)
        split = None
        if not (
            max(counts) == n
            or n < params.min_samples_split
            or (max_depth is not None and depth >= max_depth)
            or rows.count(rows[0]) == n  # identical feature rows admit no split
        ):
            split = _split_rows(rows, labels, counts, schema)
            if split is not None and split.gain < params.min_impurity_decrease:
                split = None
        if split is None:
            feature.append(-1)
            threshold.append(np.nan)
            categories.append(no_codes)
            left.append(-1)
            right.append(-1)
            continue
        f = split.feature_index
        feature.append(f)
        if split.threshold is not None:
            threshold.append(split.threshold)
            categories.append(no_codes)
            go = [r[f] <= split.threshold for r in rows]
        else:
            cats = split.categories
            threshold.append(np.nan)
            categories.append(cats + no_codes[len(cats):])
            go = [int(r[f]) in cats for r in rows]
        left.append(node + 1)
        right.append(-1)  # set when the right child is placed
        back = [not g for g in go]
        for side, link in ((back, node), (go, -1)):
            stack.append((list(compress(rows, side)), list(compress(labels, side)), depth + 1, link))


def list_train_cart(chunk: Chunk, params: StoppingParams) -> Tree:
    """A CART tree trained on one chunk by the list grower."""
    nodes = _Nodes(category_width(chunk.schema))
    _grow_rows(nodes, chunk.X.tolist(), chunk.y.tolist(), 0, chunk.schema, params)
    return nodes.to_tree(chunk.schema, chunk.index)


# ---------------------------------------------------------------------------
# The object-graph trees that the flat arrays replaced, with their grower,
# fused transfer walk, router and serializer, kept as oracles. They recurse,
# so they serve small trees only.


@dataclass(frozen=True, eq=False)
class Leaf:
    class_counts: np.ndarray  # int64 label counts of the training instances here
    predicted_label: int
    depth: int

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.class_counts, dtype=np.int64))
        c.setflags(write=False)
        object.__setattr__(self, "class_counts", c)

    @cached_property
    def probabilities(self) -> np.ndarray:
        return self.class_counts / int(self.class_counts.sum())


@dataclass(frozen=True, eq=False)
class Internal:
    feature_index: int
    depth: int
    threshold: float | None  # numeric test: value <= threshold goes left
    categories: tuple[int, ...] | None  # categorical test: code in categories goes left
    left: "Leaf | Internal"
    right: "Leaf | Internal"

    def __post_init__(self):
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(sorted(self.categories)))


@dataclass(frozen=True, eq=False)
class GraphTree:
    root: Leaf | Internal
    schema: object
    params: StoppingParams
    origin_chunk_index: int


def graph_grow_rows(rows, labels, depth, schema, params, ids=None, p_true=None):
    """The recursive list grower of the object graph; with ``ids`` and
    ``p_true``, each leaf writes its posterior of its rows' labels."""
    n = len(labels)
    counts = [labels.count(c) for c in range(schema.num_classes)]
    top = max(counts)

    def leaf():
        if p_true is not None:
            for i, c in zip(ids, labels):
                p_true[i] = counts[c] / n
        return Leaf(np.array(counts, dtype=np.int64), counts.index(top), depth)

    if (
        top == n
        or n < params.min_samples_split
        or (params.max_depth is not None and depth >= params.max_depth)
        or rows.count(rows[0]) == n
    ):
        return leaf()
    split = _split_rows(rows, labels, counts, schema)
    if split is None or split.gain < params.min_impurity_decrease:
        return leaf()
    f = split.feature_index
    if split.threshold is not None:
        left = [r[f] <= split.threshold for r in rows]
    else:
        left = [int(r[f]) in split.categories for r in rows]
    right = [not g for g in left]
    children = [
        graph_grow_rows(
            list(compress(rows, side)),
            list(compress(labels, side)),
            depth + 1,
            schema,
            params,
            None if ids is None else list(compress(ids, side)),
            p_true,
        )
        for side in (left, right)
    ]
    return Internal(f, depth, split.threshold, split.categories, *children)


def graph_grow_subtree(X, y, idx, depth, schema, params):
    """``graph_grow_rows`` on the rows selected by ``idx``; the signature of
    ``reference_grow_subtree``."""
    return graph_grow_rows(X[idx].tolist(), y[idx].tolist(), depth, schema, params)


def graph_train(chunk: Chunk, params) -> GraphTree:
    root = graph_grow_rows(chunk.X.tolist(), chunk.y.tolist(), 0, chunk.schema, params)
    return GraphTree(root, chunk.schema, params, chunk.index)


def graph_left_mask(node: Internal, col: np.ndarray) -> np.ndarray:
    if node.threshold is not None:
        return col <= node.threshold
    codes = col.astype(np.int64)
    mask = np.zeros(codes.shape, dtype=bool)
    for c in node.categories:
        mask |= codes == c
    return mask


def graph_leaf_groups(root, columns: np.ndarray):
    """Yield ``(leaf, row indices)`` for every leaf the rows reach, given the
    features column-major: the per-tree walk the forest pass replaced."""
    stack = [(root, np.arange(columns.shape[1]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            yield node, idx
            continue
        mask = graph_left_mask(node, columns[node.feature_index][idx])
        left_idx = idx[mask]
        if left_idx.size == idx.size:
            stack.append((node.left, idx))
        elif left_idx.size == 0:
            stack.append((node.right, idx))
        else:
            stack.append((node.left, left_idx))
            stack.append((node.right, idx[~mask]))


def graph_posterior_chunk(tree: GraphTree, chunk: Chunk) -> np.ndarray:
    out = np.empty((len(chunk), tree.schema.num_classes), dtype=np.float64)
    for leaf, idx in graph_leaf_groups(tree.root, chunk.columns):
        out[idx] = leaf.probabilities
    return out


def graph_predict_chunk(tree: GraphTree, chunk: Chunk) -> np.ndarray:
    out = np.empty(len(chunk), dtype=np.int64)
    for leaf, idx in graph_leaf_groups(tree.root, chunk.columns):
        out[idx] = leaf.predicted_label
    return out


def _graph_adapt(node, idx, chunk, params, memo, source_labels, p_true):
    if idx.size == 0:
        return node
    if isinstance(node, Internal):
        mask = graph_left_mask(node, chunk.columns[node.feature_index][idx])
        return Internal(
            node.feature_index,
            node.depth,
            node.threshold,
            node.categories,
            _graph_adapt(node.left, idx[mask], chunk, params, memo, source_labels, p_true),
            _graph_adapt(node.right, idx[~mask], chunk, params, memo, source_labels, p_true),
        )
    source_labels[idx] = node.predicted_label
    key = (idx.tobytes(), node.depth)
    grown = memo.get(key)
    if grown is None:
        scores = [0.0] * idx.size
        root = graph_grow_rows(
            chunk.X[idx].tolist(), chunk.y[idx].tolist(), node.depth, chunk.schema, params,
            list(range(idx.size)), scores,
        )
        grown = memo[key] = (root, np.array(scores))
    p_true[idx] = grown[1]
    return grown[0]


def graph_transfer(source: GraphTree, chunk: Chunk, params, memo: dict):
    """The fused object-graph transfer walk: (adapted tree, source
    correctness bits, adapted true-class posteriors)."""
    n = len(chunk)
    source_labels = np.empty(n, dtype=np.int64)
    p_true = np.empty(n, dtype=np.float64)
    root = _graph_adapt(source.root, np.arange(n), chunk, params, memo, source_labels, p_true)
    tree = GraphTree(root, source.schema, params, source.origin_chunk_index)
    return tree, source_labels == chunk.y, p_true


def graph_to_text(tree: GraphTree) -> str:
    """``tree_to_text`` of an object-graph tree: pre-order, one node a line."""
    lines: list[str] = []

    def rec(node):
        if isinstance(node, Leaf):
            counts = ",".join(str(int(c)) for c in node.class_counts)
            lines.append(f"leaf depth={node.depth} counts={counts} label={node.predicted_label}")
            return
        if node.threshold is not None:
            test = f"x{node.feature_index}<={node.threshold!r}"
        else:
            test = f"x{node.feature_index}in{{{','.join(map(str, node.categories))}}}"
        lines.append(f"node depth={node.depth} {test}")
        rec(node.left)
        rec(node.right)

    rec(tree.root)
    return "\n".join(lines) + "\n"


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
    """Recursive CART growth on index arrays with ``reference_best_split``,
    into object-graph nodes."""
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


def reference_adapt(node, idx, chunk: Chunk, params, grow=graph_grow_subtree):
    """The transfer walk before scoring was fused into it: route the chunk,
    keep unreached subtrees, and relabel or regrow each reached leaf with
    ``grow`` (the signature of ``graph_grow_subtree``)."""
    if idx.size == 0:
        return node
    if isinstance(node, Internal):
        mask = graph_left_mask(node, chunk.columns[node.feature_index][idx])
        return Internal(
            node.feature_index,
            node.depth,
            node.threshold,
            node.categories,
            reference_adapt(node.left, idx[mask], chunk, params, grow),
            reference_adapt(node.right, idx[~mask], chunk, params, grow),
        )
    return grow(chunk.X, chunk.y, idx, node.depth, chunk.schema, params)


def reference_transfer(source: GraphTree, chunk: Chunk, params, grow=graph_grow_subtree) -> GraphTree:
    """The adapted tree of ``reference_adapt``, with no scores."""
    root = reference_adapt(source.root, np.arange(len(chunk)), chunk, params, grow)
    return GraphTree(root, source.schema, params, source.origin_chunk_index)


def _block_score(nodes: _Nodes, row, label: int) -> tuple[float, bool]:
    """The posterior of ``label`` at the leaf of ``nodes`` that ``row``
    reaches, ``counts[label] / n``, walked straight-line, and whether the
    leaf's label (its first most frequent class) is ``label``."""
    node = 0
    while nodes.feature[node] >= 0:
        f, t = nodes.feature[node], nodes.threshold[node]
        go = row[f] <= t if t == t else int(row[f]) in nodes.categories[node]
        node = nodes.left[node] if go else nodes.right[node]
    counts = nodes.counts[node]
    return counts[label] / sum(counts), counts.index(max(counts)) == label


def reference_regrow(forest: _Forest, leaves, chunk: Chunk, params):
    """The regrowth loop that transfer ran before its sites were grown
    together: one list-grower call (``_grow_rows``) per (tree, leaf)
    row group of the forest pass ``leaves`` over ``forest``, shared through
    a memo keyed by (rows, depth), each rooted at its leaf's depth. Returns
    the reached leaves, their subtrees' nodes in growth order
    (``growth_order``), and the regrown trees' true-class posterior and
    correctness bit of every (tree, row) pair, as ``cart.grow_leaves``
    does."""
    order = np.argsort(leaves, kind="stable")  # rows stay ascending in each group
    ranked = leaves[order]
    first = np.flatnonzero(np.diff(ranked, prepend=-1))
    reached = ranked[first]
    depths = np.concatenate([t.depth for t in forest.trees])[reached].tolist()
    rows = (order % len(chunk)).tolist()
    bounds = first.tolist() + [len(rows)]
    X, y = chunk.X.tolist(), chunk.y.tolist()
    memo = {}
    blocks, scored = [], []
    for a, b, depth in zip(bounds, bounds[1:], depths):
        ids = tuple(rows[a:b])
        key = (ids, depth)
        grown = memo.get(key)
        if grown is None:
            nodes = _Nodes(category_width(chunk.schema))
            sub_rows, sub_labels = [X[i] for i in ids], [y[i] for i in ids]
            _grow_rows(nodes, sub_rows, sub_labels, depth, chunk.schema, params)
            scores = [_block_score(nodes, r, c) for r, c in zip(sub_rows, sub_labels)]
            grown = memo[key] = (nodes, scores)
        blocks.append(grown[0])
        scored.extend(grown[1])
    p_true = np.empty(leaves.size, dtype=np.float64)
    right = np.empty(leaves.size, dtype=bool)
    p_true[order], right[order] = zip(*scored)
    return reached, growth_order(blocks, chunk.schema), p_true, right


def growth_order(blocks, schema: Schema):
    """The nodes of the subtrees ``blocks`` (``_Nodes``, one per site) as
    ``cart.grow_sites`` hands them over: breadth first over all sites, the
    roots first and then each level's split nodes' children in pairs, left
    first, as ``(feature, threshold, categories, counts, site)``."""
    nodes = []
    level = [(s, 0) for s in range(len(blocks))]
    while level:
        nodes += level
        level = [
            (s, child)
            for s, node in level
            if blocks[s].feature[node] >= 0
            for child in (blocks[s].left[node], blocks[s].right[node])
        ]
    n, width, K = len(nodes), category_width(schema), schema.num_classes

    def column(name, dtype, *shape):
        return np.array([getattr(blocks[s], name)[node] for s, node in nodes], dtype=dtype).reshape(n, *shape)

    return (
        column("feature", np.int64),
        column("threshold", np.float64),
        column("categories", np.int64, width),
        column("counts", np.int64, K),
        np.array([s for s, _node in nodes], dtype=np.int64),
    )


def collapse(chunk: Chunk, rows, labels, bounds):
    """Each site's rows as its distinct (feature row, label) pairs, given
    that the chunk repeats rows (``Chunk.distinct``): one entry per pair,
    grouped by site, in (distinct row, label) order, the pair's first row in
    the site standing for it, weighted by its number of rows there. Returns
    the entries' rows, labels and weights, the new site bounds, and each
    input row's entry. ``cart.grow_sites`` collapsed every site so before
    ``cart.grow_leaves`` found the chunk's pairs once."""
    columns, inverse = chunk.distinct
    per_site = columns.shape[1] * chunk.schema.num_classes
    site = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    key = site * per_site + inverse[rows] * chunk.schema.num_classes + labels
    order = np.argsort(key, kind="stable")
    head = _heads(key[order])  # the first row of each pair
    spread = np.empty(key.size, dtype=np.int64)
    spread[order] = np.cumsum(head) - 1
    first = order[head]
    weight = np.diff(np.append(np.flatnonzero(head), key.size))
    bounds = np.searchsorted(key[first] // per_site, np.arange(bounds.size))
    return rows[first], labels[first], weight, bounds, spread


def row_site_grow_leaves(forest: _Forest, leaves, chunk: Chunk, params):
    """``cart.grow_leaves`` as it was before it found a chunk's (distinct
    row, label) pairs once: each reached leaf's rows, in row order, are one
    site; on a chunk that repeats rows, ``collapse`` turns every site into
    its weighted pair entries, and the posteriors and bits of
    ``cart.grow_sites`` are spread back to the rows. Returns what
    ``cart.grow_leaves`` returns, then the entries it grew on: ``(rows,
    labels, weight, bounds)``."""
    order = np.argsort(leaves, kind="stable")  # rows stay ascending in each site
    ranked = leaves[order]
    first = np.flatnonzero(np.diff(ranked, prepend=-1))
    reached = ranked[first]
    depths = None if params.max_depth is None else np.concatenate([t.depth for t in forest.trees])[reached]
    rows = order % len(chunk)
    labels, weight, bounds, spread = chunk.y[rows], None, np.append(first, leaves.size), None
    if chunk.distinct is not None:
        rows, labels, weight, bounds, spread = collapse(chunk, rows, labels, bounds)
    grown, p_sorted, right_sorted = grow_sites(chunk, rows, labels, weight, bounds, depths, params)
    if spread is not None:
        p_sorted, right_sorted = p_sorted[spread], right_sorted[spread]
    p_true, right = np.empty(leaves.size, dtype=np.float64), np.empty(leaves.size, dtype=bool)
    p_true[order], right[order] = p_sorted, right_sorted
    return reached, grown, p_true, right, (rows, labels, weight, bounds)


def reference_grow_sites(
    chunk: Chunk, rows: np.ndarray, labels: np.ndarray, weight, bounds: np.ndarray, depths: np.ndarray, params
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """``cart.grow_sites`` as it was before each level became positions in
    one entry table: each level carries its entries' nodes, rows, labels,
    positions and weights side by side, and the posteriors and bits are
    divided and compared here. Its contract is ``cart.grow_sites``'s.
    """
    K = chunk.schema.num_classes
    tables = _SearchTables(chunk)
    width = tables.width
    max_depth, min_gain = params.max_depth, params.min_impurity_decrease
    entry_label = labels
    entry_leaf = np.empty(rows.size, dtype=np.int64)  # each entry's deepest node so far
    # The open level: each entry is a (node, row, label) triple with a
    # weight, grouped by node, the entries of a node in their order in
    # ``rows``; ``pos`` is the entry's position there. Nodes are numbered
    # breadth first over all sites. Array methods and ufuncs stand in for
    # their ``np`` wrappers throughout: a level of a small site is a few
    # hundred calls on a few hundred entries, and the wrappers' Python
    # frames would cost about a fifth of its time.
    size = np.diff(bounds)  # entries per node
    node = np.repeat(np.arange(size.size), size)
    pos = np.arange(rows.size)
    depth = np.asarray(depths, dtype=np.int64)
    site = np.arange(size.size)  # each node's site
    levels = []  # per level: class-major counts, feature, threshold, codes, site
    first_id = 0  # id of the level's first node
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            m = size.size
            counts = np.bincount(labels * m + node, weight, K * m).astype(np.int64, copy=False).reshape(K, m)
            n = np.add.reduce(counts)  # rows per node
            grow = (np.maximum.reduce(counts) < n) & (n >= params.min_samples_split)
            if max_depth is not None:
                grow &= depth < max_depth
            entry_leaf[pos] = node + first_id
            first_id += m
            growing = np.count_nonzero(grow)
            if not growing:
                leaves = np.full(m, -1, dtype=np.int64), np.full(m, np.nan), np.full((m, width), -1, dtype=np.int64)
                levels.append((counts, *leaves, site))
                break
            if growing < m:  # only the growing nodes' entries are searched
                keep = grow[node]
                node, rows, labels, pos = node[keep], rows[keep], labels[keep], pos[keep]
                if weight is not None:
                    weight = weight[keep]
                size = np.where(grow, size, 0)
            _gain, feature, threshold, codes = _level_splits(
                tables, node, rows, labels, weight, counts, n, size, min_gain
            )
            levels.append((counts, feature, threshold, codes, site))
            internal = feature >= 0
            splits = np.count_nonzero(internal)
            if not splits:
                break
            # The next level: each split node's entries, stably divided into
            # its left child (2 * rank) and right child (2 * rank + 1).
            if splits < growing:  # a growing node found no split
                keep = internal[node]
                node, rows, labels, pos = node[keep], rows[keep], labels[keep], pos[keep]
                if weight is not None:
                    weight = weight[keep]
            values = chunk.X[rows, feature[node]]
            go = values <= threshold[node]  # NaN thresholds: categorical tests
            if width:
                go |= (np.where(codes >= 0, codes, np.nan)[node] == values[:, None]).any(axis=1)
            child = (2 * internal.cumsum() - 1)[node] - go
            order = child.argsort(kind="stable")
            node, rows, labels, pos = child[order], rows[order], labels[order], pos[order]
            if weight is not None:
                weight = weight[order]
            size = np.bincount(node, None, 2 * splits)
            site = site[internal].repeat(2)
            if max_depth is not None:
                depth = np.repeat(depth[internal] + 1, 2)
    counts = np.concatenate([lv[0] for lv in levels], axis=1)  # (classes, nodes)
    p_true = counts[entry_label, entry_leaf] / np.add.reduce(counts)[entry_leaf]
    right = counts.argmax(axis=0)[entry_leaf] == entry_label
    feature, threshold, categories, site = (np.concatenate(a) for a in list(zip(*levels))[1:])
    return (feature, threshold, categories, counts.T, site), p_true, right


def reference_numeric_splits(tables, node, rows, labels, weight, totals, n, size, parent_score, gain, threshold):
    """``cart._numeric_splits`` as it was before it kept only boundary cuts:
    every cut of every segment is scored. Its contract is
    ``cart._numeric_splits``'s."""
    m, e = totals.shape[1], node.size
    order = (node * tables.ranks.shape[1] + tables.ranks.take(rows, axis=1)).argsort(axis=1)
    values = tables.flat.take(rows[order] + tables.offset).ravel()
    onehot = tables.classes == labels[order].ravel()
    if weight is not None:
        onehot = onehot * weight[order].reshape(-1)
    segment = (node + m * tables.numeric[:, None]).ravel()
    cut = ((values[1:] != values[:-1]) & (segment[1:] == segment[:-1])).nonzero()[0]
    if not cut.size:
        return
    at = segment[cut]
    owner = at % m
    before = np.zeros((onehot.shape[0], onehot.shape[1] + 1), dtype=np.int64)
    onehot.cumsum(axis=1, out=before[:, 1:])
    left = before.take(cut + 1, axis=1)
    left -= before.take(cut - cut % e + (size.cumsum() - size)[owner], axis=1)  # less the counts before the segment
    score = _split_score(left, totals.take(owner, axis=1), n[owner])
    head = _heads(at)
    group = head.cumsum() - 1
    hit = (score == np.maximum.reduceat(score, head.nonzero()[0])[group]).nonzero()[0]
    hit = hit[_heads(group[hit])]
    at, cut, owner = at[hit], cut[hit], owner[hit]
    lo, hi = values[cut], values[cut + 1]
    mid = (lo + hi) / 2.0
    threshold[at] = np.where((lo <= mid) & (mid < hi), mid, lo)
    gain[at] = (score[hit] - parent_score[owner]) / n[owner]


def reference_grow_step(sources, chunk: Chunk, params, adapt: bool = True):
    """``transfer.grow_step`` with its regrowth, the new tree's included,
    done by ``reference_regrow`` in place of ``cart.grow_leaves``."""
    with mock.patch.object(transfer, "grow_leaves", reference_regrow):
        return transfer.grow_step(sources, chunk, params, adapt)


def pre_order(tree: Tree) -> Tree:
    """``tree`` with its nodes relabelled in pre-order, left subtree first:
    a canonical form, in which two trees of the same structure have the
    same arrays whatever order their nodes were laid out in."""
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if tree.feature[node] >= 0:
            stack += [int(tree.right[node]), int(tree.left[node])]
    order = np.array(order, dtype=np.int64)
    new_id = np.full(tree.n_nodes, -1, dtype=np.int64)
    new_id[order] = np.arange(order.size)

    def child(ids):
        return np.where(ids >= 0, new_id[ids], -1)

    return Tree(
        tree.feature[order],
        tree.threshold[order],
        tree.categories[order],
        child(tree.left[order]),
        child(tree.right[order]),
        tree.counts[order],
        tree.schema,
        tree.origin_chunk_index,
    )


# ---------------------------------------------------------------------------
# The placement that ``_Forest.splice`` replaced: growth's nodes re-laid as
# one pre-order subtree per site (``_pre_order``), then spliced in by moving
# every node after a reached leaf up by its subtree's size.


def _pre_order(feature, threshold, categories, counts, level_sizes, n_sites: int) -> _Forest:
    """The nodes of ``grow_sites``, numbered breadth first over all sites
    (``level_sizes`` nodes a level), as a forest of one tree per site, its
    nodes in pre-order, left subtree first. The children of a level's split
    nodes are the next level's nodes, in pairs, so subtree sizes are summed
    bottom-up and pre-order ids handed out top-down, a level at a time on
    slices."""
    internal = feature >= 0
    ends = np.cumsum([0] + level_sizes).tolist()
    spans = list(zip(ends, ends[1:], ends[2:]))  # a level's ids, then its children's
    subtree = np.ones(feature.size, dtype=np.int64)
    for a, b, c in reversed(spans):
        subtree[a:b][internal[a:b]] += subtree[b:c:2] + subtree[b + 1 : c : 2]
    sizes = subtree[:n_sites]
    pre = np.empty(feature.size, dtype=np.int64)
    pre[:n_sites] = sizes.cumsum() - sizes
    for a, b, c in spans:
        pre[b:c:2] = pre[a:b][internal[a:b]] + 1
        pre[b + 1 : c : 2] = pre[b:c:2] + subtree[b:c:2]
    root = np.repeat(pre[:n_sites], sizes)  # at each new id, its tree's first id

    def placed(a):
        out = np.empty(a.shape, dtype=a.dtype)
        out[pre] = a
        return out

    feature, subtree = placed(feature), placed(subtree)
    internal = feature >= 0
    left = np.where(internal, np.arange(feature.size) - root + 1, -1)
    right = np.where(internal, left + np.append(subtree[1:], 0), -1)  # past the left subtree
    return _Forest(feature, placed(threshold), placed(categories), left, right, placed(counts), sizes, None)


def _renumbering_splice(self: _Forest, reached: np.ndarray, grown: _Forest) -> _Forest:
    """The forest with each leaf of ``reached`` (global ids, ascending)
    replaced by its tree of ``grown`` (from ``_pre_order``), every
    other node copied, all in one set of array ops. A tree with no reached
    leaf stays the same ``Tree``; every other becomes one that views the
    new arrays, with its source's schema and origin chunk."""
    sizes = grown.sizes
    extra = np.zeros(self.size, dtype=np.int64)
    extra[reached] = sizes - 1
    # A node's new id: its old id plus the growth of the reached leaves
    # before it. A reached leaf's new id is the first node of its tree.
    new_id = np.arange(self.size) + np.cumsum(extra) - extra
    total = self.size + int(extra.sum())
    kept = np.ones(self.size, dtype=bool)
    kept[reached] = False
    dest = new_id[kept]
    placed = np.ones(total, dtype=bool)
    placed[dest] = False  # grown nodes fill the remaining ids, in order

    def column(src, grown_values):
        out = np.empty((total, *src.shape[1:]), dtype=src.dtype)
        out[dest] = src[kept]
        out[placed] = grown_values
        return out

    names = ("feature", "threshold", "categories", "counts")
    feature, threshold, categories, counts = (column(getattr(self, a), getattr(grown, a)) for a in names)
    internal = self.feature[kept] >= 0
    base = np.repeat(new_id[reached], sizes)
    starts = new_id[self.starts]
    tree_sizes = np.diff(np.append(starts, total))
    rebase = np.repeat(starts, tree_sizes)
    children = []  # child ids go global, move with the growth and go local again
    for src, local in ((self.kids[1::2], grown.left), (self.kids[0::2], grown.right)):
        child = np.empty(total, dtype=np.int64)
        child[dest] = np.where(internal, new_id[src[kept]], -1)
        child[placed] = np.where(local >= 0, local + base, -1)
        children.append(np.where(child >= 0, child - rebase, -1))
    columns = (feature, threshold, categories, *children, counts)
    touched = set((np.searchsorted(self.starts, reached, side="right") - 1).tolist())
    trees = [
        Tree(*(c[a:a + k] for c in columns), source.schema, source.origin_chunk_index) if t in touched else source
        for t, (source, a, k) in enumerate(zip(self.trees, starts.tolist(), tree_sizes.tolist()))
    ]
    return _Forest(*columns, tree_sizes, trees)


def reference_splice(self: _Forest, reached: np.ndarray, grown) -> _Forest:
    """``_Forest.splice`` as it was: growth's nodes (``grow_sites``' growth
    order) re-laid in pre-order by ``_pre_order``, its level sizes read off
    the split nodes, then spliced in by ``_renumbering_splice``."""
    feature, threshold, categories, counts, _site = grown
    level_sizes, first, m = [], 0, reached.size
    while m:
        level_sizes.append(m)
        first, m = first + m, 2 * int(np.count_nonzero(feature[first:first + m] >= 0))
    subtrees = _pre_order(feature, threshold, categories, counts, level_sizes, reached.size)
    return _renumbering_splice(self, reached, subtrees)


def reference_splice_step(sources, chunk: Chunk, params, adapt: bool = True):
    """``transfer.grow_step`` with its splice done by ``reference_splice``."""
    with mock.patch.object(_Forest, "splice", reference_splice):
        return transfer.grow_step(sources, chunk, params, adapt)


def reference_transfer_trees(sources, chunk: Chunk, params):
    """``transfer.transfer_trees`` with its regrowth done by
    ``reference_regrow`` in place of ``cart.grow_leaves``."""
    with mock.patch.object(transfer, "grow_leaves", reference_regrow):
        return transfer.transfer_trees(sources, chunk, params)


def hand_ensemble(members) -> WeightedEnsemble:
    """An ensemble of ``members`` built by hand: their trees' forest is
    ``_Forest.of`` them."""
    members = tuple(members)
    return WeightedEnsemble(members, _Forest.of(m.tree for m in members))


def reference_no_transfer_step(archive, chunk: Chunk, cfg, diverse: bool = True):
    """``dtel.process_chunk(..., adapt=False)`` as it ran beside the
    transfer step: the new tree grown alone (``list_train_cart``) with its
    bits from ``diversity.correctness``, and the archived trees scored from
    one ``route_forest`` pass, each row's true-class posterior
    ``t.probabilities[leaf, y]`` and bit ``t.labels[leaf] == y``. Returns
    the hand-built ensemble and the updated archive."""
    new_tree = list_train_cart(chunk, cfg.stopping)
    trees = list(archive.models)
    leaves = route_forest(trees, chunk)
    p_true = [t.probabilities[leaf, chunk.y] for t, leaf in zip(trees, leaves)]
    bits = [t.labels[leaf] == chunk.y for t, leaf in zip(trees, leaves)]
    updated = dtel._update_archive(archive, new_tree, correctness(new_tree, chunk).bits, diverse, bits)
    mse_r = mse_random(chunk)
    mse = np.mean((1.0 - np.reshape(p_true, (len(trees), len(chunk)))) ** 2, axis=1)
    members = tuple(
        EnsembleMember(t, weight_adapted(mse_r, e, cfg.epsilon), ADAPTED) for t, e in zip(trees, mse.tolist())
    ) + (EnsembleMember(new_tree, weight_new(mse_r, cfg.epsilon), NEW),)
    return hand_ensemble(members), updated


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


def duplicate_rows(data, n: int) -> np.ndarray:
    """``n`` hypothesis-drawn ``WALK_SCHEMA`` rows, each a copy of one row of
    a pool of at most 5: up to 3 rows with any code of each domain and
    numeric values on the half lattice, and, when drawn, two twins equal
    but for the sign of a zero numeric value."""
    pool = walk_rows(data, data.draw(st.integers(1, 3)), (4, 8), grid=0.5)
    if data.draw(st.booleans()):
        twin = pool[:1].copy()
        twin[0, 0] = 0.0
        pool = np.vstack([pool, twin, twin * [-1.0, 1.0, 1.0]])  # +0.0 and -0.0
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return pool[picks].reshape(n, 3)


def reference_ensemble_posteriors(ens, chunk: Chunk) -> np.ndarray:
    """The weighted soft vote one row at a time: each member's leaf found by
    ``straight_line_route``, its posterior weighted and added in member
    order, and the sum divided by the total weight."""
    total = 0.0
    for member in ens.members:
        total += member.weight
    out = np.empty((len(chunk), chunk.schema.num_classes))
    for i, x in enumerate(chunk.X):
        acc = np.zeros(chunk.schema.num_classes)
        for member in ens.members:
            acc += member.weight * member.tree.probabilities[straight_line_route(member.tree, x)]
        out[i] = acc / total
    return out


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


def reference_accuracy_removal(candidates):
    """The accuracy-archive removal rule as a loop over the candidates in
    tie order (oldest first, the new model last): the first candidate of
    lowest accuracy goes."""
    order = sorted(
        range(len(candidates)),
        key=lambda i: (1 if candidates[i].model_id == NEW_MODEL else 0, candidates[i].origin),
    )
    worst = order[0]
    for i in order[1:]:
        if candidates[i].bits.mean() < candidates[worst].bits.mean():
            worst = i
    return candidates[worst].model_id


def reference_majority_vote(predictions, num_classes):
    """Majority vote counted model by model; ties take the lowest class."""
    n = predictions[0].shape[0]
    votes = np.zeros((n, num_classes), dtype=np.int64)
    rows = np.arange(n)
    for pred in predictions:
        votes[rows, pred] += 1
    return np.argmax(votes, axis=1)


def reference_sea_swap(preds, new_pred, y, num_classes):
    """The sea swap rule as one majority vote per candidate ensemble: the
    slot whose swap gives the highest accuracy, ties to the oldest slot, or
    None unless it strictly beats the unchanged ensemble."""
    preds = list(preds)
    base_acc = float(np.mean(reference_majority_vote(preds, num_classes) == y))
    best_slot, best_acc = None, base_acc
    for slot in range(len(preds)):
        swapped = preds[:slot] + [new_pred] + preds[slot + 1 :]
        acc = float(np.mean(reference_majority_vote(swapped, num_classes) == y))
        if acc > best_acc:
            best_slot, best_acc = slot, acc
    return best_slot


# The per-family stream generators that ``streams.generate_pair`` replaced,
# each drawing train rows, test rows and then training noise from its step's rng.
def _pair(cfg: DriftStreamConfig, step: int, schema: Schema, Xtr, ytr, Xte, yte, rng) -> ChunkPair:
    train = add_noise(Chunk(step, schema, Xtr, ytr), cfg.noise_rate, rng)
    test = Chunk(step, schema, Xte, yte)
    return ChunkPair(train, test)


def gen_sea(cfg: DriftStreamConfig, step: int) -> ChunkPair:
    rng = make_rng(cfg.seed, step)
    schema = schema_for("SEA")
    theta = schedule_for("SEA", cfg.variant, cfg.n_steps).value_at(step)
    Xtr = rng.uniform(0.0, 10.0, (cfg.chunk_size, 3))
    Xte = rng.uniform(0.0, 10.0, (cfg.chunk_size, 3))
    return _pair(
        cfg, step, schema,
        Xtr, sea_label(Xtr[:, 0], Xtr[:, 1], theta),
        Xte, sea_label(Xte[:, 0], Xte[:, 1], theta),
        rng,
    )


def _rot_draw(rng, n: int, theta: float):
    labels = rng.integers(0, ROT_CLASSES, size=n)
    angles = labels * (math.pi / 3.0)
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = centers + rng.normal(0.0, ROT_SIGMA, (n, 2))
    x1, x2 = rotate_points(pts[:, 0], pts[:, 1], theta)
    return np.stack([x1, x2], axis=1), labels.astype(np.int64)


def gen_rot(cfg: DriftStreamConfig, step: int) -> ChunkPair:
    rng = make_rng(cfg.seed, step)
    schema = schema_for("ROT")
    theta = step * ROT_DELTA[cfg.variant]
    Xtr, ytr = _rot_draw(rng, cfg.chunk_size, theta)
    Xte, yte = _rot_draw(rng, cfg.chunk_size, theta)
    return _pair(cfg, step, schema, Xtr, ytr, Xte, yte, rng)


def gen_cir(cfg: DriftStreamConfig, step: int) -> ChunkPair:
    rng = make_rng(cfg.seed, step)
    schema = schema_for("CIR")
    radius = schedule_for("CIR", cfg.variant, cfg.n_steps).value_at(step)
    Xtr = rng.uniform(-5.0, 5.0, (cfg.chunk_size, 3))
    Xte = rng.uniform(-5.0, 5.0, (cfg.chunk_size, 3))
    return _pair(
        cfg, step, schema,
        Xtr, cir_label(Xtr[:, 0], Xtr[:, 1], radius),
        Xte, cir_label(Xte[:, 0], Xte[:, 1], radius),
        rng,
    )


def gen_sin(cfg: DriftStreamConfig, step: int) -> ChunkPair:
    rng = make_rng(cfg.seed, step)
    schema = schema_for("SIN")
    theta = step * SIN_DELTA[cfg.variant]
    Xtr = rng.uniform(-5.0, 5.0, (cfg.chunk_size, 2))
    Xte = rng.uniform(-5.0, 5.0, (cfg.chunk_size, 2))
    return _pair(
        cfg, step, schema,
        Xtr, sin_label(Xtr[:, 0], Xtr[:, 1], theta),
        Xte, sin_label(Xte[:, 0], Xte[:, 1], theta),
        rng,
    )


def gen_sta(cfg: DriftStreamConfig, step: int) -> ChunkPair:
    rng = make_rng(cfg.seed, step)
    rule = schedule_for("STA", cfg.variant, cfg.n_steps).value_at(step)
    Xtr = rng.integers(0, 3, (cfg.chunk_size, 3)).astype(np.float64)
    Xte = rng.integers(0, 3, (cfg.chunk_size, 3)).astype(np.float64)
    return _pair(
        cfg, step, schema_for("STA"),
        Xtr, sta_label(Xtr[:, 0], Xtr[:, 1], rule),
        Xte, sta_label(Xte[:, 0], Xte[:, 1], rule),
        rng,
    )


_GENERATORS = {
    "SEA": gen_sea,
    "ROT": gen_rot,
    "CIR": gen_cir,
    "SIN": gen_sin,
    "STA": gen_sta,
}


def reference_generate_pair(cfg: DriftStreamConfig, step: int) -> ChunkPair:
    return _GENERATORS[cfg.family](cfg, step)
