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
enumeration order). A leaf's label is the argmax of its class counts, lowest
class index on ties.

A tree is a set of flat per-node arrays (see :class:`Tree`). Two growers
build them, and grow the same tree node for node, bit for bit:

- :func:`grow_sites` grows many subtrees together, breadth first, one set
  of numpy rounds per level over every open node of every subtree. It
  serves each DTEL step (``transfer.grow_step``), in one call: the step's
  new tree is one site, and the ~600 small row groups per step that
  transfer regrows on SEA200A are the others. One Python growth per group
  took 2.3-3.5x as long. The new tree shares the groups' rounds: on
  SEA200A, whose chunks repeat no row, a cell's growth fell from 1.07 s
  (the new tree grown on lists, the groups here) to 0.92 s (seed 1,
  medians of 3 runs).
- :func:`train_cart` grows one tree node by node on Python lists with an
  explicit stack (``_grow_rows``) and converts it to numpy once. It serves
  ``sea``, whose step grows its new tree alone: over the 120 training
  chunks (200 rows) of SEA200A, one tree per chunk grew 1.3x faster this
  way than by ``grow_sites`` on its own.

Every traversal goes through one forest pass, :func:`route_forest`, which
moves all (tree, row) pairs of a list of trees down one level per numpy
round; the per-tree views (``posterior_chunk``, ``predict_chunk``,
``route_to_leaf``) route a forest of one tree. Transfer splices the grown
subtrees into its trees through the forest too (``_Forest.splice``), so this
module alone knows the node layout.

A forest pass over a chunk routes each distinct feature row once
(``Chunk.distinct``) and spreads the leaves to the rows: transfer's pass,
the vote (:func:`posterior_distinct`, which also leaves the sum to the
distinct rows), and every ``route_forest`` caller (correctness bits, member
scoring, ``dtel-no-transfer`` and ``sea``). Merging is exact: every node
test is ``<=`` against a threshold or ``==`` against a code, and neither
tells +0.0 from -0.0 or any two values equal under ``==``, so equal rows
reach the same leaf. A STAGGER chunk of 200 rows holds at most 27 distinct
rows; chunks of the numeric streams hold none twice and are routed as they
are. ``grow_sites`` grows the same way: on a chunk with repeated rows, each
site grows on its distinct (feature row, label) pairs, each weighted by its
number of rows, and the posteriors and bits are spread back to the rows.
The list grower works on rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .core import Chunk, ClassDistribution, Instance, Schema


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
class Tree:
    """A trained tree as flat, read-only per-node arrays; node 0 is the root.

    ``feature`` is the tested feature index, -1 at leaves. A numeric test
    sends a value left iff ``value <= threshold``; a categorical test has a
    NaN threshold and sends a value left iff its code is in the node's row of
    ``categories``: the go-left codes in ascending order, padded with -1 to
    the schema's ``category_width``. ``left`` and ``right`` are child node
    ids, -1 at leaves. ``counts`` (nodes x classes) holds the class counts of
    the training instances each node was grown on; those of the leaves give
    the posteriors and labels. Depth is derived from the structure.
    """

    feature: np.ndarray
    threshold: np.ndarray
    categories: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    schema: Schema
    origin_chunk_index: int

    def __post_init__(self):
        for a in (self.feature, self.threshold, self.categories, self.left, self.right, self.counts):
            a.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Per-node class distribution: counts over their total, one division."""
        p = self.counts / self.counts.sum(axis=1, keepdims=True)
        p.setflags(write=False)
        return p

    @cached_property
    def labels(self) -> np.ndarray:
        """Per-node label: the argmax of the counts, lowest class on ties."""
        lab = np.argmax(self.counts, axis=1)
        lab.setflags(write=False)
        return lab

    @cached_property
    def depth(self) -> np.ndarray:
        """Per-node depth, the root at 0, found one level at a time."""
        depth = np.empty(self.n_nodes, dtype=np.int64)
        level, d = np.zeros(1, dtype=np.int64), 0
        while level.size:
            depth[level] = d
            level = level[self.feature[level] >= 0]
            level = np.concatenate([self.left[level], self.right[level]])
            d += 1
        depth.setflags(write=False)
        return depth


def category_width(schema: Schema) -> int:
    """Most codes in any go-left subset that ``categorical_split_subsets``
    yields for the schema's features: the width of ``Tree.categories``."""
    return max(
        (
            len(fd.domain) - 1 if len(fd.domain) <= 6 else 1
            for fd in schema.features
            if fd.is_categorical
        ),
        default=0,
    )


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


def best_split(chunk: Chunk) -> SplitCandidate | None:
    """Greedy best Gini split of a whole chunk, for split-enumeration checks.

    Returns None when no candidate produces two non-empty sides. The gain of
    a split is computed from integer class counts, so mathematically tied
    candidates evaluate to identical floats and the documented tie order
    (lowest feature, lowest threshold / earliest subset) decides.
    """
    totals = np.bincount(chunk.y, minlength=chunk.schema.num_classes).tolist()
    return _split_rows(chunk.X.tolist(), chunk.y.tolist(), totals, chunk.schema)


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


def train_cart(chunk: Chunk, params: StoppingParams, schema: Schema | None = None) -> Tree:
    """Train a CART tree on one chunk."""
    if schema is not None and schema != chunk.schema:
        raise ValueError("schema does not match the chunk's schema")
    nodes = _Nodes(category_width(chunk.schema))
    _grow_rows(nodes, chunk.X.tolist(), chunk.y.tolist(), 0, chunk.schema, params)
    return nodes.to_tree(chunk.schema, chunk.index)


class _Blocks:
    """Subtrees for :meth:`_Forest.splice`, concatenated: the per-node arrays
    of ``Tree``, each block in pre-order with child ids local to the block
    (its root is 0), and each block's node count. A plain class: a frozen
    dataclass would add ~1 ms to every import of the package."""

    __slots__ = ("feature", "threshold", "categories", "left", "right", "counts", "sizes")

    def __init__(self, feature, threshold, categories, left, right, counts, sizes):
        self.feature, self.threshold, self.categories = feature, threshold, categories
        self.left, self.right, self.counts, self.sizes = left, right, counts, sizes

    def split_first(self, schema: Schema, origin_chunk_index: int) -> tuple[Tree, "_Blocks"]:
        """The first block as a tree and the other blocks. The tree owns
        copies of its nodes, so keeping it keeps none of the other blocks."""
        k = int(self.sizes[0])
        arrays = (self.feature, self.threshold, self.categories, self.left, self.right, self.counts)
        tree = Tree(*(a[:k].copy() for a in arrays), schema, origin_chunk_index)
        return tree, _Blocks(*(a[k:] for a in arrays), self.sizes[1:])


class _SearchTables:
    """What the split search of one chunk needs beyond the level's entries,
    built once per :func:`grow_sites` call: the numeric features, their
    columns and each row's rank in the stable sort of each column; and the
    categorical features, searched together. For those it holds each row's
    codes, each offset by its feature's first code in one numbering of all
    their codes (``codes``, rows x features), the 0/1 block-diagonal
    (codes x subsets) matrix of their ``categorical_split_subsets``
    (``member``), each subset's feature (``owner``), each feature's first
    subset (``first_subset``), and each subset's go-left codes padded with
    -1 to ``category_width`` (``padded``). A feature of one category has no
    subsets and is left out: it never splits, as in ``_split_rows``."""

    def __init__(self, chunk: Chunk):
        schema, n = chunk.schema, len(chunk)
        self.n_features = schema.n_features
        self.width = category_width(schema)
        self.numeric = [f for f, fd in enumerate(schema.features) if not fd.is_categorical]
        self.values = chunk.columns[self.numeric]
        self.ranks = np.empty(self.values.shape, dtype=np.int64)
        for rank, col in zip(self.ranks, self.values):
            rank[np.argsort(col, kind="stable")] = np.arange(n)
        subsets = {
            f: list(categorical_split_subsets(len(fd.domain)))
            for f, fd in enumerate(schema.features)
            if fd.is_categorical
        }
        self.categorical = [f for f, s in subsets.items() if s]
        domains = [len(schema.features[f].domain) for f in self.categorical]
        first_code = np.cumsum([0] + domains[:-1], dtype=np.int64)
        self.codes = chunk.X[:, self.categorical].astype(np.int64) + first_code
        listed = [(c, f, cats) for c, f in enumerate(self.categorical) for cats in subsets[f]]
        self.member = np.zeros((sum(domains), len(listed)))
        self.owner = np.array([f for _c, f, _cats in listed], dtype=np.int64)
        self.first_subset = np.flatnonzero(_heads(self.owner))
        self.padded = np.full((len(listed), self.width), -1, dtype=np.int64)
        for s, (c, _f, cats) in enumerate(listed):
            self.member[first_code[c] + np.array(cats), s] = 1.0
            self.padded[s, : len(cats)] = cats


def _heads(a: np.ndarray) -> np.ndarray:
    """True where a sorted array's value differs from its predecessor."""
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def _collapse(chunk: Chunk, rows, labels, bounds):
    """Each site's rows as its distinct (feature row, label) pairs, given
    that the chunk repeats rows (``Chunk.distinct``): one entry per pair,
    grouped by site, a row of the pair standing for it, weighted by its
    number of rows. Returns the entries' rows, labels and weights, the new
    site bounds, and each input row's entry."""
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


def grow_sites(
    chunk: Chunk, rows: np.ndarray, bounds: np.ndarray, depths: np.ndarray, params: StoppingParams
) -> tuple[_Blocks, np.ndarray, np.ndarray]:
    """Grow one subtree per site, all sites together, breadth first: each
    round of numpy calls grows every open node of every site by one level.

    Site ``s`` holds the chunk rows ``rows[bounds[s]:bounds[s + 1]]`` and
    its root sits at depth ``depths[s]``. Returns the subtrees as blocks in
    site order and, aligned with ``rows``, each row's posterior of its own
    label at its leaf, ``counts[label] / n``, and whether the leaf's label,
    the argmax of its counts (lowest class on ties), is the row's.

    A node stops when it is pure, has fewer than ``min_samples_split`` rows,
    sits at ``max_depth``, or its best split gains less than
    ``min_impurity_decrease``. Identical feature rows need no test of their
    own: they admit no cut, so the search finds no split there.

    When the chunk repeats rows (``Chunk.distinct``), each site grows on its
    distinct (feature row, label) pairs, weighted by their numbers of rows
    (see ``_collapse``), and the posteriors and bits are spread back to the
    rows. Class counts, node sizes, the numeric sweep's cumulative counts
    and the categorical counts all add weights, so they count rows exactly
    as on the rows themselves; a cut falls only between distinct values,
    and the rows of a pair share their leaf. Chunks whose rows are all
    distinct grow on the rows, unweighted.

    The subtrees equal ``_grow_rows``'s node for node, bit for bit. Class
    counts are integers, and the Gini score of a cut, ``sl / nl + sr / nr``
    from integer sums, is the same float expression as in ``_split_rows``.
    Each numeric feature sorts a node's entries by (node, value, row), so
    the node's cuts come in the order of its sweep and the first maximum of
    the score wins, as there. The sweep takes ``lo`` from the first row of a
    run of equal values and this search from the last; they differ at most
    in the sign of a zero, which no threshold of ``_threshold`` shows.
    Features and subsets are compared by gain, the first maximum in schema
    and enumeration order winning, as with the sweep's strict ``>``.
    """
    K = chunk.schema.num_classes
    tables = _SearchTables(chunk)
    width = tables.width
    max_depth, min_gain = params.max_depth, params.min_impurity_decrease
    labels = chunk.y[rows]
    weight = spread = None
    if chunk.distinct is not None:
        rows, labels, weight, bounds, spread = _collapse(chunk, rows, labels, bounds)
    p_true = np.empty(rows.size, dtype=np.float64)
    right = np.empty(rows.size, dtype=bool)
    # The open level: each entry is a (node, row, label) triple with a
    # weight, grouped by node, the entries of a node in their order in
    # ``rows``; ``pos`` is the entry's position there.
    size = np.diff(bounds)  # entries per node
    node = np.repeat(np.arange(size.size), size)
    pos = np.arange(rows.size)
    depth = np.asarray(depths, dtype=np.int64)
    levels = []  # per level: feature, threshold, categories, counts, left, right
    first_id = 0  # breadth-first id of the level's first node
    while size.size:
        m = size.size
        counts = np.bincount(node * K + labels, weight, m * K).astype(np.int64, copy=False).reshape(m, K)
        n = counts.sum(axis=1)  # rows per node
        grow = (counts.max(axis=1) < n) & (n >= params.min_samples_split)
        if max_depth is not None:
            grow &= depth < max_depth
        feature = np.full(m, -1, dtype=np.int64)
        threshold = np.full(m, np.nan)
        categories = np.full((m, width), -1, dtype=np.int64)
        if grow.any():
            gain, *found = _level_splits(
                tables, grow, node, rows, labels, weight, counts[grow], n[grow], size[grow]
            )
            won = gain >= min_gain
            split = np.flatnonzero(grow)[won]
            feature[split], threshold[split], categories[split] = (a[won] for a in found)
        internal = feature >= 0
        rank = np.cumsum(internal) - 1
        left = np.where(internal, first_id + m + 2 * rank, -1)
        levels.append((feature, threshold, categories, counts, left, np.where(internal, left + 1, -1)))
        first_id += m
        at_leaf = ~internal[node]
        leaf, own, done = node[at_leaf], labels[at_leaf], pos[at_leaf]
        p_true[done] = counts[leaf, own] / n[leaf]
        right[done] = counts.argmax(axis=1)[leaf] == own
        # The next level: each split node's entries, stably divided into its
        # left child (2 * rank) and right child (2 * rank + 1).
        moving = ~at_leaf
        parent, rows, labels, pos = node[moving], rows[moving], labels[moving], pos[moving]
        values = chunk.X[rows, feature[parent]]
        go = values <= threshold[parent]  # NaN thresholds: categorical tests
        if width:
            codes = np.where(categories >= 0, categories, np.nan)[parent]
            go |= (codes == values[:, None]).any(axis=1)
        child = 2 * rank[parent] + ~go
        order = np.argsort(child, kind="stable")
        node, rows, labels, pos = child[order], rows[order], labels[order], pos[order]
        if weight is not None:
            weight = weight[moving][order]
        size = np.bincount(node, minlength=2 * int(internal.sum()))
        depth = np.repeat(depth[internal] + 1, 2)
    if spread is not None:
        p_true, right = p_true[spread], right[spread]
    return _pre_order(levels, bounds.size - 1), p_true, right


def _level_splits(tables: _SearchTables, grow, node, rows, labels, weight, totals, n, size):
    """Best split of every growing node of one level, from the level's
    entries (``node``, ``rows``, ``labels``, ``weight``) and the growing
    nodes' class counts, rows and entries (``totals``, ``n``, ``size``): its
    gain, feature, threshold and padded go-left codes, with gain -inf where
    no cut parts its rows."""
    entry = grow[node]
    node = (np.cumsum(grow) - 1)[node[entry]]  # numbered among growing nodes
    rows, labels = rows[entry], labels[entry]
    if weight is not None:
        weight = weight[entry]
    m = totals.shape[0]
    everyone = np.arange(m)
    parent_score = (totals * totals).sum(axis=1) / n
    gain = np.full((tables.n_features, m), -np.inf)
    threshold = np.full((tables.n_features, m), np.nan)
    if tables.numeric:
        start = np.cumsum(size) - size  # each node's first entry
        gain[tables.numeric], threshold[tables.numeric] = _numeric_splits(
            tables, node, rows, labels, weight, totals, n, start, parent_score
        )
    codes = np.full((m, tables.width), -1, dtype=np.int64)
    if tables.categorical:
        subset_gain = _subset_gains(tables, node, rows, labels, weight, totals, n, parent_score)
        # Each feature's best gain; the first maximum picks its subset below.
        gain[tables.categorical] = np.maximum.reduceat(subset_gain, tables.first_subset, axis=1).T
    feature = gain.argmax(axis=0)  # the first maximum: the lowest feature
    if tables.categorical:
        own = tables.owner == feature[:, None]  # (nodes, subsets): the chosen feature's
        pick = np.where(own, subset_gain, -np.inf).argmax(axis=1)  # enumeration order
        chosen = own.any(axis=1)
        codes[chosen] = tables.padded[pick[chosen]]
    return gain[feature, everyone], feature, threshold[feature, everyone], codes


def _subset_gains(tables: _SearchTables, node, rows, labels, weight, totals, n, parent_score):
    """The gain of every (growing node, subset) pair, over the subsets of
    all categorical features together, shape (nodes, subsets); -inf where
    a subset does not part a node's rows. One count of (class, node, code)
    triples and one product with the block-diagonal subset matrix give
    every subset's class counts. Counts stay exact integers in floats."""
    m, K = totals.shape
    n_codes = tables.member.shape[0]
    index = (((labels * m + node) * n_codes)[:, None] + tables.codes[rows]).ravel()
    if weight is not None:
        weight = np.repeat(weight, len(tables.categorical))
    cc = np.bincount(index, weight, K * m * n_codes)
    left = cc.reshape(K, m, n_codes) @ tables.member  # (classes, nodes, subsets)
    right = totals.T[:, :, None] - left
    nl = left.sum(axis=0)
    nr = n[:, None] - nl
    with np.errstate(divide="ignore", invalid="ignore"):
        sl, sr = (left * left).sum(axis=0), (right * right).sum(axis=0)
        g = (sl / nl + sr / nr - parent_score[:, None]) / n[:, None]
    g[(nl == 0) | (nr == 0)] = -np.inf
    return g


def _numeric_splits(tables: _SearchTables, node, rows, labels, weight, totals, n, start, parent_score):
    """(gain, threshold) of the best cut of every (numeric feature, growing
    node) pair, shape (numeric features, nodes); gain -inf where a node's
    values of a feature are all equal. All features are swept together:
    entry (f, i) belongs to segment ``f * m + node[i]``. Class counts are
    kept one class at a time in 1-d arrays, which numpy indexes fastest,
    and updated in place, so that few arrays of one entry per cut are
    alive at once. With weights, every count left of a cut adds them."""
    m, K = totals.shape
    n_features, e = len(tables.numeric), node.size
    order = np.argsort(node * tables.ranks.shape[1] + np.take(tables.ranks, rows, axis=1), axis=1)
    values = np.take_along_axis(np.take(tables.values, rows, axis=1), order, axis=1).ravel()
    labels = labels[order].ravel()  # (node, value, row) order: keys are distinct
    if weight is not None:
        weight = weight[order].ravel()
    del order
    segment = (node + m * np.arange(n_features)[:, None]).ravel()
    # The last entry left of each cut: a value differs from the next one in
    # the same segment.
    cut = np.flatnonzero((values[1:] != values[:-1]) & (segment[1:] == segment[:-1]))
    gain = np.full(n_features * m, -np.inf)
    threshold = np.full(n_features * m, np.nan)
    if not cut.size:
        return gain.reshape(n_features, m), threshold.reshape(n_features, m)
    at = segment[cut]
    del segment
    first = (start + e * np.arange(n_features)[:, None]).ravel()  # of each segment
    before = np.zeros(labels.size + 1, dtype=np.int64)  # count before each entry
    if weight is None:
        nl = cut + 1 - first[at]
    else:
        np.cumsum(weight, out=before[1:])
        nl = before[cut + 1] - before[first[at]]
    nr = np.tile(n, n_features)[at] - nl
    # Squared class counts summed left (sl) and right (sr) of each cut; the
    # last class's counts (ml, mr) are what the others leave.
    sl, sr = np.zeros(cut.size, dtype=np.int64), np.zeros(cut.size, dtype=np.int64)
    ml, mr = nl.copy(), nr.copy()
    for k in range(K - 1):
        np.cumsum(labels == k if weight is None else (labels == k) * weight, out=before[1:])
        left = before[cut + 1]
        left -= before[first][at]
        right = np.tile(totals[:, k], n_features)[at]
        right -= left
        ml -= left
        mr -= right
        left *= left
        sl += left
        right *= right
        sr += right
    del before
    ml *= ml
    sl += ml
    mr *= mr
    sr += mr
    del ml, mr
    score = sl / nl
    score += sr / nr
    del sl, sr, nl, nr
    # The first maximum of each segment's scores, in sweep order.
    head = _heads(at)
    group = np.cumsum(head) - 1
    hit = np.flatnonzero(score == np.maximum.reduceat(score, np.flatnonzero(head))[group])
    hit = hit[_heads(group[hit])]
    at, cut = at[hit], cut[hit]
    owner = at % m
    lo, hi = values[cut], values[cut + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (lo + hi) / 2.0
    threshold[at] = np.where((lo <= mid) & (mid < hi), mid, lo)  # see ``_threshold``
    gain[at] = (score[hit] - parent_score[owner]) / n[owner]
    return gain.reshape(n_features, m), threshold.reshape(n_features, m)


def _pre_order(levels, n_sites: int) -> _Blocks:
    """The breadth-first levels of ``grow_sites`` as one block per site:
    nodes numbered in pre-order, left subtree first, from subtree sizes
    summed bottom-up and ids handed out top-down."""
    feature, threshold, categories, counts, left, right = (np.concatenate(c) for c in zip(*levels))
    starts = np.cumsum([0] + [lv[0].size for lv in levels[:-1]])
    inner = [a + np.flatnonzero(lv[0] >= 0) for a, lv in zip(starts, levels)]
    subtree = np.ones(feature.size, dtype=np.int64)
    for i in reversed(inner):
        subtree[i] += subtree[left[i]] + subtree[right[i]]
    sizes = subtree[:n_sites]
    pre = np.empty(feature.size, dtype=np.int64)
    pre[:n_sites] = np.cumsum(sizes) - sizes
    for i in inner:
        pre[left[i]] = pre[i] + 1
        pre[right[i]] = pre[i] + 1 + subtree[left[i]]
    root = np.repeat(pre[:n_sites], sizes)  # at each new id, its block's first id

    def placed(a):
        out = np.empty_like(a)
        out[pre] = a
        return out

    def kids(a):
        out = placed(np.where(a >= 0, pre[a], -1))
        return np.where(out >= 0, out - root, -1)

    return _Blocks(
        placed(feature), placed(threshold), placed(categories), kids(left), kids(right), placed(counts), sizes
    )


class _Forest:
    """The node arrays of several trees, concatenated, with global node ids.

    ``kids`` holds each node's right and left child at ``2*node`` and
    ``2*node + 1``, so a go-left bit picks the child by offset. ``codes``
    holds the go-left codes column by column as floats, NaN where a node has
    no such code, so a code test is an equality that NaN never meets.
    """

    def __init__(self, trees):
        self.trees = trees = list(trees)
        sizes = [t.n_nodes for t in trees]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.size = sum(sizes)
        shift = np.repeat(self.starts, sizes)
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.categories = np.concatenate([t.categories for t in trees])
        self.left = np.concatenate([t.left for t in trees]) + shift
        self.right = np.concatenate([t.right for t in trees]) + shift
        self.kids = np.empty(2 * self.size, dtype=np.int64)
        self.kids[0::2] = self.right
        self.kids[1::2] = self.left
        cats = np.ascontiguousarray(self.categories.T)
        used = cats >= 0
        self.codes = np.where(used, cats, np.nan)[used.any(axis=1)]

    def splice(self, reached: np.ndarray, blocks: _Blocks) -> list[Tree]:
        """The forest's trees with each leaf of ``reached`` (global ids,
        ascending) replaced by its block of ``blocks`` (from
        :func:`grow_sites`), every other node copied, all in one set of array
        ops. Each tree keeps its source's schema and origin chunk."""
        sizes = blocks.sizes
        extra = np.zeros(self.size, dtype=np.int64)
        extra[reached] = sizes - 1
        # A node's new id: its old id plus the growth of the reached leaves
        # before it. A reached leaf's new id is the first node of its block.
        new_id = np.arange(self.size) + np.cumsum(extra) - extra
        total = self.size + int(extra.sum())
        kept = np.ones(self.size, dtype=bool)
        kept[reached] = False
        dest = new_id[kept]
        grown = np.ones(total, dtype=bool)
        grown[dest] = False  # block nodes fill the remaining ids, in block order

        def column(src, block_values):
            out = np.empty((total, *src.shape[1:]), dtype=src.dtype)
            out[dest] = src[kept]
            out[grown] = block_values
            return out

        counts_all = np.concatenate([t.counts for t in self.trees])
        columns = [
            column(self.feature, blocks.feature),
            column(self.threshold, blocks.threshold),
            column(self.categories, blocks.categories),
        ]
        internal = self.feature[kept] >= 0
        base = np.repeat(new_id[reached], sizes)
        starts = np.append(new_id[self.starts], total)
        rebase = np.repeat(starts[:-1], np.diff(starts))
        for src, local in ((self.left, blocks.left), (self.right, blocks.right)):
            child = np.empty(total, dtype=np.int64)
            child[dest] = np.where(internal, new_id[src[kept]], -1)
            child[grown] = np.where(local >= 0, local + base, -1)
            columns.append(np.where(child >= 0, child - rebase, -1))
        columns.append(column(counts_all, blocks.counts))
        return [
            Tree(*(c[a:b] for c in columns), source.schema, source.origin_chunk_index)
            for source, a, b in zip(self.trees, starts[:-1], starts[1:])
        ]

    def route(self, columns: np.ndarray) -> np.ndarray:
        """Global leaf id of every (tree, row) pair, tree-major, given the
        features column-major (``Chunk.columns``, shape (d, n)).

        Each round moves every pair that is not yet at a leaf down one
        level, so the loop runs once per level of the deepest tree. Codes no
        training partition saw are in no subset and go right.
        """
        n = columns.shape[1]
        values = columns.ravel()
        offset = self.feature * n  # a node's feature row in ``values``; < 0 at leaves
        out = np.repeat(self.starts, n)
        pair = np.arange(out.size)
        row = np.tile(np.arange(n), len(self.trees))
        node = out
        f = offset[node]
        while True:
            live = f >= 0
            if not live.all():
                node, pair, row, f = node[live], pair[live], row[live], f[live]
                if not node.size:
                    return out
            v = values[f + row]
            go = v <= self.threshold[node]  # NaN thresholds: categorical tests
            for codes in self.codes:
                go |= codes[node] == v
            node = self.kids[2 * node + go]
            out[pair] = node
            f = offset[node]


def _check_schema(trees, schema: Schema):
    for t in trees:
        if t.schema is not schema and t.schema != schema:
            raise ValueError("chunk schema does not match the tree's schema")


def _route_distinct(forest: _Forest, chunk: Chunk) -> tuple[np.ndarray, np.ndarray | None]:
    """One forest pass over the chunk's distinct rows (``Chunk.distinct``):
    the global leaf id of every (tree, distinct row) pair, shape
    (trees, distinct rows), and each row's index into the distinct rows, or
    None when every row is distinct and the pass took the rows themselves."""
    distinct = chunk.distinct
    columns, inverse = (chunk.columns, None) if distinct is None else distinct
    return forest.route(columns).reshape(len(forest.trees), -1), inverse


def _route_rows(forest: _Forest, chunk: Chunk) -> np.ndarray:
    """The global leaf id of every (tree, row) pair, shape (trees, rows):
    the leaves of the distinct rows' forest pass, spread to every row."""
    leaves, inverse = _route_distinct(forest, chunk)
    return leaves if inverse is None else leaves[:, inverse]


def route_forest(trees, chunk: Chunk) -> np.ndarray:
    """The leaf id of every (tree, row) pair, shape (len(trees), len(chunk)),
    from one forest pass over the chunk's distinct rows; ids index each
    tree's own node arrays."""
    trees = list(trees)
    _check_schema(trees, chunk.schema)
    if not trees:
        return np.empty((0, len(chunk)), dtype=np.int64)
    forest = _Forest(trees)
    return _route_rows(forest, chunk) - forest.starts[:, None]


def posterior_distinct(trees, chunk: Chunk) -> tuple[np.ndarray, np.ndarray | None]:
    """The posterior of every (tree, distinct row) pair, shape (len(trees),
    distinct rows, classes), from one forest pass, and each row's index into
    the distinct rows, or None when every row is distinct. Each posterior is
    its leaf's row of ``Tree.probabilities``, to the bit: the reached
    leaves' counts over their totals, one division each. Needs one tree or
    more."""
    trees = list(trees)
    _check_schema(trees, chunk.schema)
    leaves, inverse = _route_distinct(_Forest(trees), chunk)
    counts = np.concatenate([t.counts for t in trees])[leaves]
    return counts / counts.sum(axis=2, keepdims=True), inverse


def predict_forest(trees, chunk: Chunk) -> np.ndarray:
    """Predicted label of every (tree, row) pair, shape (len(trees), len(chunk))."""
    trees = list(trees)
    leaves = route_forest(trees, chunk)
    out = np.empty(leaves.shape, dtype=np.int64)
    for t, tree in enumerate(trees):
        out[t] = tree.labels[leaves[t]]
    return out


def route_to_leaf(tree: Tree, instance: Instance) -> int:
    """Deterministically route one instance to its leaf; returns the leaf id."""
    x = tree.schema.encode_features(instance.features)
    return int(_Forest([tree]).route(x[:, None])[0])


def predict(tree: Tree, instance: Instance) -> int:
    return int(tree.labels[route_to_leaf(tree, instance)])


def posterior(tree: Tree, instance: Instance) -> ClassDistribution:
    """Class distribution of the routed leaf: per-class count ratios."""
    return ClassDistribution(tree.probabilities[route_to_leaf(tree, instance)])


def posterior_chunk(tree: Tree, chunk: Chunk) -> np.ndarray:
    """Per-instance posterior matrix, shape (len(chunk), num_classes)."""
    return tree.probabilities[route_forest([tree], chunk)[0]]


def predict_chunk(tree: Tree, chunk: Chunk) -> np.ndarray:
    """Predicted labels for every instance of a chunk."""
    return tree.labels[route_forest([tree], chunk)[0]]


def tree_to_text(tree: Tree) -> str:
    """Stable text serialization: pre-order, one node per line."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    categories, counts, labels = tree.categories.tolist(), tree.counts.tolist(), tree.labels.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    lines: list[str] = []
    stack = [(0, 0)]
    while stack:
        node, depth = stack.pop()
        f = feature[node]
        if f < 0:
            c = ",".join(map(str, counts[node]))
            lines.append(f"leaf depth={depth} counts={c} label={labels[node]}")
            continue
        t = threshold[node]
        if t == t:
            test = f"x{f}<={t!r}"
        else:
            codes = ",".join(str(c) for c in categories[node] if c >= 0)
            test = f"x{f}in{{{codes}}}"
        lines.append(f"node depth={depth} {test}")
        stack.append((right[node], depth + 1))
        stack.append((left[node], depth + 1))
    return "\n".join(lines) + "\n"
