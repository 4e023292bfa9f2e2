"""Batch CART classifier with exact per-leaf class counts.

Trees grow top-down by greedy binary Gini splits, with no pruning. Numeric
tests send a value left iff ``value <= threshold`` (thresholds are midpoints
between consecutive distinct sorted values, except where the midpoint rounds
or overflows out of ``[lower, upper)``; there the threshold is the lower
value itself); categorical tests send a value left iff its domain code
belongs to the split subset. Growth at a node stops when the node is pure,
has fewer than ``min_samples_split`` samples, sits at ``max_depth``, or no
candidate split reaches ``min_impurity_decrease``.

Split ties are broken deterministically: lowest feature index first, then
lowest threshold (for categorical features, earliest subset in the documented
enumeration order). Leaf labels are the argmax of the leaf's class counts,
lowest class index on ties.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .core import Chunk, ClassDistribution, Instance, Schema

# Fully grown trees on noisy chunks can be deep. Growth, ``transfer._adapt``
# and ``_node_lines`` recurse; routing does not.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 30000))


@dataclass(frozen=True)
class StoppingParams:
    """Growth limits for tree training. Defaults grow the tree fully."""

    max_depth: int | None = None
    min_samples_split: int = 2
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")


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
        total = int(self.class_counts.sum())
        if total <= 0:
            raise ValueError("leaf has no training counts")
        p = self.class_counts / total
        p.setflags(write=False)
        return p


@dataclass(frozen=True, eq=False)
class Internal:
    feature_index: int
    depth: int
    threshold: float | None  # numeric test: value <= threshold goes left
    categories: tuple[int, ...] | None  # categorical test: code in categories goes left
    left: "TreeNode"
    right: "TreeNode"

    def __post_init__(self):
        if (self.threshold is None) == (self.categories is None):
            raise ValueError("internal node needs exactly one of threshold/categories")
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(sorted(self.categories)))


TreeNode = Leaf | Internal


@dataclass(frozen=True, eq=False)
class Tree:
    root: TreeNode
    schema: Schema
    params: StoppingParams
    origin_chunk_index: int


@dataclass(frozen=True)
class SplitCandidate:
    feature_index: int
    gain: float  # Gini impurity decrease
    threshold: float | None
    categories: tuple[int, ...] | None


def categorical_split_subsets(domain_size: int):
    """Candidate go-left code subsets for a categorical feature.

    Domains of up to 6 symbols are searched exhaustively: one representative
    per complementary pair, enumerated by ascending bitmask over the codes
    below ``domain_size - 1``. Larger domains fall back to one-vs-rest
    singletons in code order.
    """
    if domain_size <= 6:
        for mask in range(1, 1 << (domain_size - 1)):
            yield tuple(c for c in range(domain_size - 1) if (mask >> c) & 1)
    else:
        for c in range(domain_size):
            yield (c,)


def _threshold(lo: float, hi: float) -> float:
    """Numeric threshold between consecutive distinct sorted values ``lo < hi``.

    The midpoint, unless rounding (adjacent doubles) or overflow puts it
    outside ``[lo, hi)``; then ``lo``, so ``value <= threshold`` still sends
    ``lo`` left and ``hi`` right.
    """
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


def _numeric_candidate(col, labels: list[int], totals: list[int], total_sq: int):
    """Integer-arithmetic sweep over sorted values; returns (score, threshold)
    of the best cut or None. Exact: all intermediate sums are ints."""
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


def best_split_indices(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, schema: Schema
) -> SplitCandidate | None:
    """Greedy best Gini split over the instances selected by ``idx``.

    Returns None when no candidate produces two non-empty sides. The gain of
    a split is computed from integer class counts, so mathematically tied
    candidates evaluate to identical floats and the documented tie order
    (lowest feature, lowest threshold / earliest subset) decides.
    """
    y_sub = y[idx]
    totals = np.bincount(y_sub, minlength=schema.num_classes).tolist()
    return _split_rows(X[idx].tolist(), y_sub.tolist(), totals, schema)


def best_split(chunk: Chunk) -> SplitCandidate | None:
    """Best root split for a whole chunk (exposed for split-enumeration checks)."""
    return best_split_indices(chunk.X, chunk.y, np.arange(len(chunk)), chunk.schema)


def _new_leaf(counts: list[int], top: int, depth: int, labels, ids, p_true) -> Leaf:
    leaf = Leaf(np.array(counts, dtype=np.int64), counts.index(top), depth)
    if p_true is not None:
        # Scored growth. The leaf's posterior is taken from the counts held
        # here: the same quotients as ``Leaf.probabilities``, stored in its
        # cache before the leaf votes, without a numpy sum per leaf.
        n = len(labels)
        share = [c / n for c in counts]
        p = np.array(share)
        p.setflags(write=False)
        leaf.__dict__["probabilities"] = p
        for i, c in zip(ids, labels):
            p_true[i] = share[c]
    return leaf


def _grow_rows(
    rows: list[list[float]],
    labels: list[int],
    depth: int,
    schema: Schema,
    params: StoppingParams,
    ids: list[int] | None = None,
    p_true: list[float] | None = None,
) -> TreeNode:
    # With ``ids`` (the rows' positions) and ``p_true``, every leaf writes
    # its posterior of each of its rows' labels to ``p_true`` at that position.
    n = len(labels)
    counts = [labels.count(c) for c in range(schema.num_classes)]
    top = max(counts)
    if (
        top == n
        or n < params.min_samples_split
        or (params.max_depth is not None and depth >= params.max_depth)
        or rows.count(rows[0]) == n  # identical feature rows admit no split
    ):
        return _new_leaf(counts, top, depth, labels, ids, p_true)
    split = _split_rows(rows, labels, counts, schema)
    if split is None or split.gain < params.min_impurity_decrease:
        return _new_leaf(counts, top, depth, labels, ids, p_true)
    f = split.feature_index
    if split.threshold is not None:
        left = [r[f] <= split.threshold for r in rows]
    else:
        left = [int(r[f]) in split.categories for r in rows]
    right = [not g for g in left]
    children = [
        _grow_rows(
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


def grow_subtree(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    schema: Schema,
    params: StoppingParams,
) -> TreeNode:
    """Grow a (sub)tree over the instances selected by ``idx`` starting at ``depth``."""
    return _grow_rows(X[idx].tolist(), y[idx].tolist(), depth, schema, params)


def grow_subtree_scored(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    schema: Schema,
    params: StoppingParams,
) -> tuple[TreeNode, np.ndarray]:
    """``grow_subtree`` plus the grown subtree's posterior of each selected
    instance's label, in ``idx`` order. Each leaf writes the entries of its
    own instances while it holds their counts, so nothing is routed again;
    the leaves come with ``probabilities`` already filled."""
    p_true = [0.0] * idx.size
    node = _grow_rows(
        X[idx].tolist(), y[idx].tolist(), depth, schema, params, list(range(idx.size)), p_true
    )
    return node, np.array(p_true)


def train_cart(chunk: Chunk, params: StoppingParams, schema: Schema | None = None) -> Tree:
    """Train a CART tree on one chunk."""
    if schema is not None and schema != chunk.schema:
        raise ValueError("schema does not match the chunk's schema")
    root = grow_subtree(
        chunk.X, chunk.y, np.arange(len(chunk)), 0, chunk.schema, params
    )
    return Tree(root, chunk.schema, params, chunk.index)


def _left_mask(node: Internal, col: np.ndarray) -> np.ndarray:
    # Codes never seen in any training partition are absent from the subset
    # and therefore route right. Trained subsets hold at most five codes (see
    # categorical_split_subsets), so a few equality tests beat np.isin.
    if node.threshold is not None:
        return col <= node.threshold
    codes = col.astype(np.int64)
    mask = np.zeros(codes.shape, dtype=bool)
    for c in node.categories:
        mask |= codes == c
    return mask


def _leaf_groups(root: TreeNode, columns: np.ndarray):
    """Yield ``(leaf, row indices)`` for every leaf that the rows reach, given
    the features column-major (``Chunk.columns``, shape (d, n)).

    The walk is iterative, so tree depth is not bounded by the call stack.
    """
    stack = [(root, np.arange(columns.shape[1]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            yield node, idx
            continue
        mask = _left_mask(node, columns[node.feature_index][idx])
        left_idx = idx[mask]
        if left_idx.size == idx.size:
            stack.append((node.left, idx))
        elif left_idx.size == 0:
            stack.append((node.right, idx))
        else:
            stack.append((node.left, left_idx))
            stack.append((node.right, idx[~mask]))


def route_to_leaf(tree: Tree, instance: Instance) -> Leaf:
    """Deterministically route one instance to its leaf."""
    x = tree.schema.encode_features(instance.features)
    leaf, _ = next(_leaf_groups(tree.root, x[:, None]))
    return leaf


def predict(tree: Tree, instance: Instance) -> int:
    return route_to_leaf(tree, instance).predicted_label


def posterior(tree: Tree, instance: Instance) -> ClassDistribution:
    """Class distribution of the routed leaf: per-class count ratios."""
    return ClassDistribution(route_to_leaf(tree, instance).probabilities)


def posterior_chunk(tree: Tree, chunk: Chunk) -> np.ndarray:
    """Per-instance posterior matrix, shape (len(chunk), num_classes)."""
    if chunk.schema != tree.schema:
        raise ValueError("chunk schema does not match the tree's schema")
    out = np.empty((len(chunk), tree.schema.num_classes), dtype=np.float64)
    for leaf, idx in _leaf_groups(tree.root, chunk.columns):
        out[idx] = leaf.probabilities
    return out


def predict_chunk(tree: Tree, chunk: Chunk) -> np.ndarray:
    """Predicted labels for every instance of a chunk."""
    if chunk.schema != tree.schema:
        raise ValueError("chunk schema does not match the tree's schema")
    out = np.empty(len(chunk), dtype=np.int64)
    for leaf, idx in _leaf_groups(tree.root, chunk.columns):
        out[idx] = leaf.predicted_label
    return out


def _node_lines(node: TreeNode, lines: list[str]):
    if isinstance(node, Leaf):
        counts = ",".join(str(int(c)) for c in node.class_counts)
        lines.append(
            f"leaf depth={node.depth} counts={counts} label={node.predicted_label}"
        )
        return
    if node.threshold is not None:
        test = f"x{node.feature_index}<={node.threshold!r}"
    else:
        test = f"x{node.feature_index}in{{{','.join(map(str, node.categories))}}}"
    lines.append(f"node depth={node.depth} {test}")
    _node_lines(node.left, lines)
    _node_lines(node.right, lines)


def tree_to_text(tree: Tree) -> str:
    """Stable text serialization: pre-order, one node per line."""
    lines: list[str] = []
    _node_lines(tree.root, lines)
    return "\n".join(lines) + "\n"

