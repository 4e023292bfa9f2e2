"""Batch CART classifier with exact per-leaf class counts.

Trees grow top-down by greedy binary Gini splits, with no pruning. Numeric
tests send a value left iff ``value <= threshold`` (thresholds are midpoints
between consecutive distinct sorted values, except where the midpoint rounds
or overflows out of ``[lower, upper)``; there the threshold is the lower
value itself); categorical tests send a value left iff its domain code
belongs to the split subset. Growth at a node stops when the node is pure,
has fewer than ``min_samples_split`` samples, sits at ``max_depth``, or no
candidate split reaches ``min_impurity_decrease``.

Split ties are broken deterministically among equal float scores: lowest
feature index first, then lowest threshold (for categorical features,
earliest subset in the documented enumeration order); rational ties can
round apart (see :func:`grow_sites`, and ROADMAP item 17). The numeric
search scores only boundary cuts, those whose neighbouring labels or bins
of equal values hold two labels: no other cut can score the maximum, so the
split is the one that scoring every cut finds (``_numeric_splits``). Each
node rule is written once: the leaf rule (``_LeafRule``: label and
posterior), for trees, forests and growth; the split score
(``_split_score``); and the node test (``_goes_left``, on the code table
``_code_columns``), by which the forest pass routes rows and growth parts
each level's entries.

A tree is a set of flat per-node arrays (see :class:`Tree`); several trees
are one :class:`_Forest`, their arrays concatenated, the only such
container. One grower builds every tree: :func:`grow_sites` grows many
subtrees together, breadth first, one set of numpy rounds per level over
every open node of every subtree, and hands its nodes over in the order it
grows them; ``_Forest.splice`` grows them in place of their leaves, so an
adapted tree is its source's arrays, extended. One site grouping,
:func:`grow_leaves`, turns the (tree, row) pairs of a forest pass into the
grower's sites, one per reached leaf. Each DTEL step
(``transfer.grow_step``) calls it once, on the leaves its forest pass
reaches: the ~600 small row groups per step that the archived trees regrow
on SEA200A, and the leaf of a tree that has learned nothing
(:func:`one_leaf`), which every row reaches and which regrows from depth 0
into the step's new tree. :func:`train_cart` grows that leaf alone, one
site, the whole chunk, and :func:`best_split` is the search on that site's
root.

Every traversal goes through one forest pass, :func:`route_forest`, which
moves all (tree, row) pairs of a list of trees down one level per numpy
round; the per-tree views (``posterior_chunk``, ``predict_chunk``) route a
forest of one tree. One forest runs from growth to vote: the forest
``_Forest.splice`` returns, the adapted trees and then the new tree, is the
one the ensemble votes with, each node's posterior weighted
(``_Forest.weighted_posteriors``, see ``dtel``), and ``sea`` takes its
labels in one gather (``predict_forest``). So this module alone knows the
node layout.

A forest pass over a chunk routes each distinct feature row once
(``Chunk.distinct``) and spreads the leaves to the rows: transfer's pass,
the vote (``dtel.ensemble_posteriors``, which also leaves the sum to the
distinct rows), and every ``route_forest`` caller (correctness bits, member
scoring, ``dtel-no-transfer`` and ``sea``). Merging is exact: every node
test is ``<=`` against a threshold or ``==`` against a code, and neither
tells +0.0 from -0.0 or any two values equal under ``==``, so equal rows
reach the same leaf. A STAGGER chunk of 200 rows holds at most 27 distinct
rows; chunks of the numeric streams hold none twice and are routed as they
are. Growth merges the same way: on a chunk with repeated rows,
``grow_leaves`` finds the chunk's distinct (feature row, label) pairs once,
each weighted by its number of rows, and every site grows on the pairs
that reach its leaf (about 40 of a STAGGER chunk's 200 rows); the
posteriors and bits are spread back to the rows through each row's pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Chunk, Schema, _readonly


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


class _LeafRule:
    """The leaf rule of trees, forests and growth, from ``counts`` (nodes x
    classes), each part computed on first use and read-only: ``labels``, the
    argmax (lowest class on ties), and ``probabilities``, counts over their
    total (NaN, without a warning, for a one-leaf tree's zero counts)."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts

    @cached_property
    def labels(self) -> np.ndarray:
        return _readonly(self.counts.argmax(axis=1))

    @cached_property
    def probabilities(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return _readonly(self.counts / self.counts.sum(axis=1, keepdims=True))


@dataclass(frozen=True, eq=False)
class Tree(_LeafRule):
    """A trained tree as flat, read-only per-node arrays; node 0 is the root.
    A tree grown from a leaf is laid out breadth first; an adapted tree keeps
    its source's node ids and appends what it grows (``_Forest.splice``).

    ``feature`` is the tested feature index, -1 at leaves. A numeric test
    sends a value left iff ``value <= threshold``; a categorical test has a
    NaN threshold and sends a value left iff its code is in the node's row of
    ``categories``: the go-left codes in ascending order, padded with -1 to
    the schema's ``category_width``. ``left`` and ``right`` are child node
    ids, -1 at leaves. ``counts`` (nodes x classes) holds the class counts of
    the training instances each node was grown on; those of the leaves give
    the posteriors and labels (``_LeafRule``). Depth is derived from the
    structure.
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
    def depth(self) -> np.ndarray:
        """Per-node depth, the root at 0, found one level at a time."""
        depth = np.empty(self.n_nodes, dtype=np.int64)
        level, d = np.zeros(1, dtype=np.int64), 0
        while level.size:
            depth[level] = d
            level = level[self.feature[level] >= 0]
            level = np.concatenate([self.left[level], self.right[level]])
            d += 1
        return _readonly(depth)


_NODE_ARRAYS = ("feature", "threshold", "categories", "left", "right", "counts")  # Tree's, in order


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


def best_split(chunk: Chunk) -> SplitCandidate | None:
    """Greedy best Gini split of a whole chunk, for split-enumeration checks:
    the root level of the batched search, one node that holds every row.

    Returns None when no candidate produces two non-empty sides. Equal float
    scores go by the documented order (lowest feature, lowest threshold /
    earliest subset); candidates that tie as rationals can round apart (see
    :func:`grow_sites`, and ROADMAP item 17).
    """
    n = len(chunk)
    counts = np.bincount(chunk.y, minlength=chunk.schema.num_classes).reshape(-1, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain, feature, threshold, codes = _level_splits(
            _SearchTables(chunk), np.zeros(n, dtype=np.int64), np.arange(n), chunk.y, None,
            counts, np.array([n]), np.array([n]), -np.inf,
        )
    if gain[0] == -np.inf:
        return None
    if threshold[0] == threshold[0]:
        return SplitCandidate(int(feature[0]), float(gain[0]), float(threshold[0]), None)
    return SplitCandidate(int(feature[0]), float(gain[0]), None, tuple(c for c in codes[0].tolist() if c >= 0))


def train_cart(chunk: Chunk, params: StoppingParams, schema: Schema | None = None) -> Tree:
    """Train a CART tree on one chunk: every row reaches a one-leaf tree's
    leaf, which regrows (:func:`grow_leaves`) and is spliced in place, as a
    DTEL step places its new tree."""
    if schema is not None and schema != chunk.schema:
        raise ValueError("schema does not match the chunk's schema")
    forest = _Forest.of([one_leaf(chunk.schema, chunk.index)])
    reached, grown = grow_leaves(forest, np.zeros(len(chunk), dtype=np.int64), chunk, params)[:2]
    return forest.splice(reached, grown).trees[0]


def one_leaf(schema: Schema, origin_chunk_index: int) -> Tree:
    """A tree that has learned nothing: one leaf with no counts. Adapted to
    a chunk, it is the tree :func:`train_cart` grows there."""
    none, codes = np.full(1, -1), np.full((1, category_width(schema)), -1)
    counts = np.zeros((1, schema.num_classes), dtype=np.int64)
    return Tree(none, np.full(1, np.nan), codes, none, none, counts, schema, origin_chunk_index)


class _SearchTables:
    """What the split search of one chunk needs beyond the level's entries,
    built once per :func:`grow_sites` call.

    For the numeric features (``numeric``, schema indices): their columns,
    end to end (``flat``), each column's offset there (``offset``), and each
    row's rank in the stable sort of each column (``ranks``). The categorical features are searched together:
    each row's codes, each offset by its feature's first code in one
    numbering of all their codes (``codes``, rows x features), the 0/1
    block-diagonal (codes x subsets) matrix of their
    ``categorical_split_subsets`` (``member``), each subset's feature
    (``owner``), each feature's first subset (``first_subset``), and each
    subset's go-left codes padded with -1 to ``category_width``
    (``padded``). A feature of one category has no subsets and is left out:
    it never splits."""

    def __init__(self, chunk: Chunk):
        schema, n = chunk.schema, len(chunk)
        self.n_features = schema.n_features
        self.width = category_width(schema)
        self.classes = np.arange(schema.num_classes)[:, None]
        self.numeric = np.array([f for f, fd in enumerate(schema.features) if not fd.is_categorical], dtype=np.int64)
        values = chunk.columns[self.numeric]
        self.flat = values.reshape(-1)
        self.offset = (n * np.arange(self.numeric.size))[:, None]
        self.ranks = np.empty(values.shape, dtype=np.int64)
        for rank, col in zip(self.ranks, values):
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


def grow_leaves(forest: _Forest, leaves: np.ndarray, chunk: Chunk, params: StoppingParams):
    """The one site grouping: regrow every leaf of ``forest`` that the
    (tree, row) pairs ``leaves`` (global ids, tree-major, every row of each
    tree) reach, in one :func:`grow_sites` call, one site per leaf rooted at
    the leaf's depth (read only under ``max_depth``). A site's entries are
    its rows, in row order. On a chunk that repeats rows
    (``Chunk.distinct``) they are its (distinct row, label) pairs instead,
    in that order, each weighted by its rows. The chunk's pairs are found
    once; equal rows reach the same leaf, so each tree's leaf is read at
    each pair's first row, which stands for the pair: +0.0 and -0.0 merge
    into one distinct row, and a threshold that falls back to the lower
    value keeps that row's sign. Returns the reached leaves (ascending), the
    grown nodes (what ``_Forest.splice`` takes), and, aligned with
    ``leaves``, each (tree, row) pair's true-class posterior at its regrown
    leaf and whether that leaf's label is the row's."""
    n = len(chunk)
    pair_rows, weight, spread = np.arange(n), None, None  # each row its own entry, unweighted
    if chunk.distinct is not None:
        key = chunk.distinct[1] * chunk.schema.num_classes + chunk.y
        pair_rows, spread, weight = np.unique(key, return_index=True, return_inverse=True, return_counts=True)[1:]
        leaves = leaves.reshape(-1, n).take(pair_rows, axis=1).ravel()  # each (tree, pair)'s leaf
    order = np.argsort(leaves, kind="stable")  # entries stay in row or pair order in each site
    ranked = leaves[order]
    first = np.flatnonzero(np.diff(ranked, prepend=-1))
    reached = ranked[first]
    depths = None if params.max_depth is None else np.concatenate([t.depth for t in forest.trees])[reached]
    entry = order % pair_rows.size
    rows, bounds = pair_rows[entry], np.append(first, leaves.size)
    grown, p_sorted, right_sorted = grow_sites(
        chunk, rows, chunk.y[rows], None if weight is None else weight[entry], bounds, depths, params
    )
    p_true, right = np.empty(leaves.size, dtype=np.float64), np.empty(leaves.size, dtype=bool)
    p_true[order], right[order] = p_sorted, right_sorted
    if spread is not None:  # each pair's to each of its rows
        p_true, right = (a.reshape(-1, pair_rows.size).take(spread, axis=1).ravel() for a in (p_true, right))
    return reached, grown, p_true, right


def grow_sites(
    chunk: Chunk, rows: np.ndarray, labels: np.ndarray, weight: np.ndarray | None, bounds: np.ndarray,
    depth: np.ndarray | None, params: StoppingParams,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Grow one subtree per site, all sites together, breadth first: each
    round of numpy calls grows every open node of every site by one level.

    Site ``s`` holds the entries ``bounds[s]:bounds[s + 1]`` of one table:
    each a chunk row (``rows``), its label (``labels``) and, unless
    ``weight`` is None, the number of rows it stands for. Its root sits at
    depth ``depth[s]`` (read only under ``max_depth``).
    Returns the grown nodes in growth order, the sites' roots first, as
    ``(feature, threshold, categories, counts, site)``: ``Tree``'s node
    arrays but the child ids, and each node's site. Each level's nodes are its split nodes' children in pairs,
    so the children of the k-th split node of all are nodes ``n_sites + 2k``
    (left) and ``n_sites + 2k + 1`` (right); ``_Forest.splice`` puts them in
    place. Also returns, aligned with the entries, each entry's posterior of
    its own label at its leaf and whether the leaf's label is its label,
    both by the leaf rule (``_LeafRule``) on the grown counts.

    A node stops when it is pure, has fewer than ``min_samples_split`` rows,
    sits at ``max_depth``, or its best split gains less than
    ``min_impurity_decrease``. Identical feature rows need no test of their
    own: they admit no cut, so the search finds no split there.

    Weighted entries are a site's distinct (feature row, label) pairs, as
    ``grow_leaves`` gives them on a chunk that repeats rows. Class counts,
    node sizes, the numeric sweep's cumulative counts and the categorical
    counts all add weights, so they count rows exactly as on the rows
    themselves; a cut falls only between distinct values, and the rows of a
    pair share their leaf. A level is its entries' positions in the table
    (``pos``) and their nodes (``node``).

    Every categorical subset is scored by one float expression
    (``_split_score``), and so is every numeric boundary cut: one whose
    neighbouring entries, or the equal values on either side of it, hold two
    labels. No other cut can score a node's maximum (see
    ``_numeric_splits``). Each numeric feature sorts a node's entries by
    (node, value, row), so the node's cuts come in ascending order and the
    first maximum of the score wins. Features and subsets are compared by
    gain, the first maximum in schema and enumeration order winning.
    Rational ties need not tie as floats: with x = 0, 1, ..., 7 and
    y = [1, 0, 1, 1, 1, 0, 1, 1], the cuts at 1.5 and 5.5 both score 16/3,
    rounded to 5.333333333333333 and 5.333333333333334, so the node splits
    at 5.5 (ROADMAP item 17).
    """
    K = chunk.schema.num_classes
    tables = _SearchTables(chunk)
    max_depth, min_gain = params.max_depth, params.min_impurity_decrease
    weigh = (lambda pos: None) if weight is None else weight.take  # the entries' weights
    entry_leaf = np.empty(rows.size, dtype=np.int64)  # each entry's deepest node so far
    # The open level: its entries grouped by node, a node's in table order.
    # Nodes are numbered breadth first over all sites. Array methods and
    # ufuncs stand in for their ``np`` wrappers throughout: a level of a
    # small site is a few hundred calls on a few hundred entries, and the
    # wrappers' Python frames would cost about a fifth of its time.
    size = np.diff(bounds)  # entries per node
    node = np.repeat(np.arange(size.size), size)
    pos = np.arange(rows.size)
    site = np.arange(size.size)  # each node's site
    levels = []  # per level: class-major counts, feature, threshold, codes, site
    first_id = 0  # id of the level's first node
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            m = size.size
            counts = np.bincount(labels[pos] * m + node, weigh(pos), K * m).astype(np.int64, copy=False).reshape(K, m)
            n = np.add.reduce(counts)  # rows per node
            grow = (np.maximum.reduce(counts) < n) & (n >= params.min_samples_split)
            if max_depth is not None:
                grow &= depth < max_depth
            entry_leaf[pos] = node + first_id
            first_id += m
            growing = np.count_nonzero(grow)
            if not growing:
                leaves = np.full(m, -1, dtype=np.int64), np.full(m, np.nan), np.full((m, tables.width), -1, dtype=np.int64)
                levels.append((counts, *leaves, site))
                break
            if growing < m:  # only the growing nodes' entries are searched
                keep = grow[node]
                node, pos = node[keep], pos[keep]
                size = np.where(grow, size, 0)
            _gain, feature, threshold, codes = _level_splits(
                tables, node, rows[pos], labels[pos], weigh(pos), counts, n, size, min_gain
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
                node, pos = node[keep], pos[keep]
            table = _code_columns(codes) if tables.width else ()  # a numeric schema's is empty: skip its calls
            go = _goes_left(chunk.X[rows[pos], feature[node]], threshold, table, node)
            child = (2 * internal.cumsum() - 1)[node] - go
            order = child.argsort(kind="stable")
            node, pos = child[order], pos[order]
            size = np.bincount(node, None, 2 * splits)
            if not size.all():  # a chosen split always parts its entries
                raise RuntimeError("a split left a child without entries")
            site = site[internal].repeat(2)
            if max_depth is not None:
                depth = np.repeat(depth[internal] + 1, 2)
    grown = _LeafRule(np.concatenate([lv[0] for lv in levels], axis=1).T)  # (nodes, classes)
    p_true = grown.probabilities[entry_leaf, labels]
    right = grown.labels[entry_leaf] == labels
    feature, threshold, categories, site = (np.concatenate(a) for a in list(zip(*levels))[1:])
    return (feature, threshold, categories, grown.counts, site), p_true, right


def _level_splits(tables: _SearchTables, node, rows, labels, weight, totals, n, size, min_gain):
    """Best split of every node of one level, from the entries of the nodes
    that grow (``node``, ``rows``, ``labels``, ``weight``) and every node's
    class counts, class-major, rows and searched entries (``totals``, ``n``,
    ``size``): its gain, -inf where no cut parts its entries, and, where the
    gain reaches ``min_gain``, its feature, threshold and padded go-left
    codes; elsewhere -1, NaN and -1."""
    m = totals.shape[1]
    everyone = np.arange(m)
    parent_score = np.add.reduce(totals * totals) / n
    gain = np.empty((tables.n_features, m))
    gain.fill(-np.inf)
    threshold = np.empty((tables.n_features, m))
    threshold.fill(np.nan)
    if tables.numeric.size:
        _numeric_splits(
            tables, node, rows, labels, weight, totals, n, size, parent_score, gain.reshape(-1), threshold.reshape(-1)
        )
    if tables.categorical:
        subset_gain = _subset_gains(tables, node, rows, labels, weight, totals, n, parent_score)
        # Each feature's best gain; the first maximum picks its subset below.
        gain[tables.categorical] = np.maximum.reduceat(subset_gain, tables.first_subset, axis=1).T
    feature = gain.argmax(axis=0)  # the first maximum: the lowest feature
    gain = gain[feature, everyone]
    won = gain >= min_gain
    threshold = np.where(won, threshold[feature, everyone], np.nan)
    feature = np.where(won, feature, -1)
    codes = np.empty((m, tables.width), dtype=np.int64)
    codes.fill(-1)
    if tables.categorical:
        own = tables.owner == feature[:, None]  # (nodes, subsets): the chosen feature's
        pick = np.where(own, subset_gain, -np.inf).argmax(axis=1)  # enumeration order
        chosen = own.any(axis=1)
        codes[chosen] = tables.padded[pick[chosen]]
    return gain, feature, threshold, codes


def _subset_gains(tables: _SearchTables, node, rows, labels, weight, totals, n, parent_score):
    """The gain of every (node, subset) pair, over the subsets of all
    categorical features together, shape (nodes, subsets); -inf where a
    subset does not part a node's entries. One count of (class, node, code)
    triples and one product with the block-diagonal subset matrix give
    every subset's class counts. Counts stay exact integers in floats; an
    empty side's 0 / 0 marks -inf."""
    K, m = totals.shape
    n_codes = tables.member.shape[0]
    index = (((labels * m + node) * n_codes)[:, None] + tables.codes[rows]).ravel()
    if weight is not None:
        weight = np.repeat(weight, len(tables.categorical))
    cc = np.bincount(index, weight, K * m * n_codes)
    left = cc.reshape(K, m, n_codes) @ tables.member  # (classes, nodes, subsets)
    g = (_split_score(left, totals[:, :, None], n[:, None]) - parent_score[:, None]) / n[:, None]
    g[g != g] = -np.inf
    return g


def _split_score(left, total, n):
    """``sl / nl + sr / nr``, the Gini score of numeric cuts and categorical
    subsets alike, from each cut's class counts on its left, class-major
    (squared in place), and its node's class counts ``total`` and rows ``n``."""
    right = total - left
    nl = np.add.reduce(left)
    left *= left
    right *= right
    return np.add.reduce(left) / nl + np.add.reduce(right) / (n - nl)


def _numeric_splits(tables: _SearchTables, node, rows, labels, weight, totals, n, size, parent_score, gain, threshold):
    """The best cut of every (numeric feature, node) pair whose entries hold
    two distinct values: its gain and threshold, written to ``gain`` and
    ``threshold`` (flat, feature-major: the pair (f, node) at ``f * m +
    node``). All features are swept together: entry (f, i) belongs to
    segment ``numeric[f] * m + node[i]``; ``size`` is each node's searched
    entries, 0 at a node that is not searched. Class counts are
    class-major, so that sums over classes add whole rows. With weights,
    every count left of a cut adds them.

    Only boundary cuts are scored (Fayyad and Irani, Machine Learning 8,
    1992; Elomaa and Rousu, Machine Learning 36, 1999): a cut whose two
    neighbouring entries have different labels, or whose bin of equal values
    on either side holds two labels. Any other cut lies inside a run of
    entries of one class c. Moving a cut by t rows of c moves each side's
    size u by t, and each side's term of ``sl / nl + sr / nr`` is then
    u + const + k / u with k >= 0, so the score is convex in t (in
    cumulative weight, with weights), and its maximum over the run lies at
    one of the run's ends, strictly unless both sides hold c alone, that is
    unless the node is pure. A segment's first run has the no-split score
    at its outer end, which no cut scores below, so its maximum is at its
    inner end, a boundary cut. So no dropped cut is a maximum. Exact
    scores differ by at least 16 / n**4, far above the rounding of the
    float scores, and the kept cuts stay in ascending order, so the first
    maximum and its threshold are those of scoring every cut (ROADMAP item
    16). In a pure node every cut ties, so all its cuts are kept: growth
    never searches one, but ``best_split`` does."""
    m, e = totals.shape[1], node.size
    order = (node * tables.ranks.shape[1] + tables.ranks.take(rows, axis=1)).argsort(axis=1)
    values = tables.flat.take(rows[order] + tables.offset).ravel()
    # Class counts before each entry, one row per class, in (node, value,
    # row) order: keys are distinct.
    label = labels[order].ravel()
    onehot = tables.classes == label
    if weight is not None:
        onehot = onehot * weight[order].reshape(-1)
    del order
    segment = (node + m * tables.numeric[:, None]).ravel()
    # The boundary cuts, as the last entry left of each: a value differs
    # from the next one in the same segment, and so does the label, unless
    # two equal values with two labels or a pure node keep more. Cuts kept
    # in excess (marked across a segment's end) change nothing.
    differs = values[1:] != values[:-1]
    boundary = label[1:] != label[:-1]
    mixed = (boundary & ~differs).nonzero()[0]  # inside a bin of equal values
    if mixed.size:
        walls = differs.nonzero()[0]
        after = walls.searchsorted(mixed)  # the first value change right of each
        boundary[walls[after[after < walls.size]]] = True
        boundary[walls[after[after > 0] - 1]] = True
    pure = (np.maximum.reduce(totals) == n) & (size > 0)  # searched pure nodes: best_split's alone
    if pure.any():
        boundary |= np.tile(pure[node], tables.numeric.size)[:-1]  # by the node of each pair's left entry
    cut = (boundary & differs & (segment[1:] == segment[:-1])).nonzero()[0]
    if not cut.size:
        return
    at = segment[cut]
    del segment
    owner = at % m
    before = np.zeros((onehot.shape[0], onehot.shape[1] + 1), dtype=np.int64)
    onehot.cumsum(axis=1, out=before[:, 1:])
    del onehot
    left = before.take(cut + 1, axis=1)
    left -= before.take(cut - cut % e + (size.cumsum() - size)[owner], axis=1)  # less the counts before the segment
    del before
    score = _split_score(left, totals.take(owner, axis=1), n[owner])
    del left
    # The first maximum of each segment's scores, in sweep order.
    head = _heads(at)
    group = head.cumsum() - 1
    hit = (score == np.maximum.reduceat(score, head.nonzero()[0])[group]).nonzero()[0]
    hit = hit[_heads(group[hit])]
    at, cut, owner = at[hit], cut[hit], owner[hit]
    lo, hi = values[cut], values[cut + 1]
    # The midpoint, unless rounding (adjacent doubles) or overflow puts it
    # outside [lo, hi); then lo, so ``value <= threshold`` still parts them.
    mid = (lo + hi) / 2.0
    threshold[at] = np.where((lo <= mid) & (mid < hi), mid, lo)
    gain[at] = (score[hit] - parent_score[owner]) / n[owner]


def _code_columns(categories: np.ndarray) -> np.ndarray:
    """The code table of the node test: the go-left codes of ``categories``
    column by column as floats, NaN where a node has no such code (an
    equality that NaN never meets), without the columns no node uses."""
    cats = np.ascontiguousarray(categories.T)
    used = cats >= 0
    return np.where(used, cats, np.nan)[used.any(axis=1)]


def _goes_left(values: np.ndarray, threshold: np.ndarray, codes: np.ndarray, node: np.ndarray) -> np.ndarray:
    """The one node test, of routing and growth alike: a value goes left at
    its node iff ``value <= threshold`` (never at a categorical node, whose
    threshold is NaN) or it equals one of the node's go-left ``codes``."""
    go = values <= threshold[node]
    for column in codes:
        go |= column[node] == values
    return go


class _Forest(_LeafRule):
    """Several trees' per-node arrays of ``Tree``, concatenated, child ids
    local to each tree; each tree's node count (``sizes``) and first global
    id (``starts``); and the trees as ``Tree`` objects (``trees``). A plain
    class: a frozen dataclass would add ~1 ms to every import of the
    package.

    The routing tables are built with the forest. ``kids`` holds each node's
    right and left child, as global ids, at ``2*node`` and ``2*node + 1``,
    so a go-left bit picks the child by offset, and ``codes`` is the code
    table of the node test (``_code_columns``).
    """

    def __init__(self, feature, threshold, categories, left, right, counts, sizes, trees):
        self.feature, self.threshold, self.categories = feature, threshold, categories
        self.left, self.right, self.counts = left, right, counts
        self.sizes, self.trees = sizes, trees
        self.starts = np.cumsum(sizes) - sizes
        self.size = feature.size
        shift = np.repeat(self.starts, sizes)
        self.kids = np.empty(2 * self.size, dtype=np.int64)
        self.kids[0::2] = right + shift
        self.kids[1::2] = left + shift
        self.codes = _code_columns(categories)

    @classmethod
    def of(cls, trees) -> "_Forest":
        """The forest of ``trees``: their node arrays, concatenated."""
        trees = list(trees)
        columns = (np.concatenate([getattr(t, name) for t in trees]) for name in _NODE_ARRAYS)
        return cls(*columns, np.array([t.n_nodes for t in trees]), trees)

    def tree(self, t: int, schema: Schema, origin_chunk_index: int) -> Tree:
        """Tree ``t`` as a ``Tree`` that owns copies of its nodes, so keeping
        it keeps none of the forest."""
        a, b = self.starts[t], self.starts[t] + self.sizes[t]
        return Tree(*(getattr(self, name)[a:b].copy() for name in _NODE_ARRAYS), schema, origin_chunk_index)

    def splice(self, reached: np.ndarray, grown) -> "_Forest":
        """The forest with each leaf of ``reached`` (global ids, ascending,
        one per site) grown in place from its site of ``grown`` (the nodes of
        :func:`grow_sites`): the leaf's row takes its site's root, and the
        site's other nodes follow the nodes of the leaf's tree, in growth
        order. No node of a tree changes its id within the tree, so the
        trees' child ids are kept and only their starts move. A tree with no
        reached leaf stays the same ``Tree``; every other becomes one that
        views the new arrays, with its source's schema and origin chunk."""
        feature, threshold, categories, counts, site = grown
        n_sites = reached.size
        owner = np.searchsorted(self.starts, reached, side="right") - 1  # each site's tree
        tree = owner[site[n_sites:]]  # each appended node's tree
        sizes = self.sizes + np.bincount(tree, minlength=self.sizes.size)
        starts = np.cumsum(sizes) - sizes
        shift = starts - self.starts
        # Appended nodes, ranked by tree and then growth order, follow their
        # tree's own nodes: the p-th of all lands p past its tree's old end,
        # that is its rank in the tree plus the growth of the trees before.
        order = tree.argsort(kind="stable")
        appended = np.empty(tree.size, dtype=np.int64)
        appended[order] = (self.starts + self.sizes)[tree[order]] + np.arange(tree.size)
        at = np.concatenate([reached + shift[owner], appended])  # every grown node's new id
        local = at - starts[np.concatenate([owner, tree])]
        # The children of the k-th split node are grown nodes n_sites + 2k and n_sites + 2k + 1.
        left, right = np.full((2, feature.size), -1)
        left[feature >= 0], right[feature >= 0] = local[n_sites:].reshape(-1, 2).T
        total = self.size + tree.size
        kept = np.arange(self.size) + np.repeat(shift, self.sizes)

        def column(own, new):
            out = np.empty((total, *own.shape[1:]), dtype=own.dtype)
            out[kept] = own
            out[at] = new  # a reached leaf's row takes its site's root
            return out

        new = (feature, threshold, categories, left, right, counts)
        columns = [column(getattr(self, name), g) for name, g in zip(_NODE_ARRAYS, new)]
        touched = set(owner.tolist())
        trees = [
            Tree(*(c[a:a + k] for c in columns), source.schema, source.origin_chunk_index) if t in touched else source
            for t, (source, a, k) in enumerate(zip(self.trees, starts.tolist(), sizes.tolist()))
        ]
        return _Forest(*columns, sizes, trees)

    def weighted_posteriors(self, weights: np.ndarray) -> np.ndarray:
        """Every node's posterior times its tree's weight, shape (nodes,
        classes): ``weights[t] * trees[t].probabilities``, to the bit."""
        return self.probabilities * np.repeat(weights, self.sizes)[:, None]

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
        row = np.tile(np.arange(n), self.sizes.size)
        node = out
        f = offset[node]
        while True:
            live = f >= 0
            if not live.all():
                node, pair, row, f = node[live], pair[live], row[live], f[live]
                if not node.size:
                    return out
            go = _goes_left(values[f + row], self.threshold, self.codes, node)
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
    return forest.route(columns).reshape(forest.sizes.size, -1), inverse


def _route_rows(forest: _Forest, chunk: Chunk) -> np.ndarray:
    """The global leaf id of every (tree, row) pair, shape (trees, rows):
    the leaves of the distinct rows' forest pass, spread to every row, in C
    order (``leaves[:, inverse]`` would be F-ordered, and a float reduction
    over the rows of an array gathered through it adds in another order)."""
    leaves, inverse = _route_distinct(forest, chunk)
    return leaves if inverse is None else leaves.take(inverse, axis=1)


def _route_trees(trees, chunk: Chunk) -> tuple[_Forest | None, np.ndarray]:
    """The forest of ``trees`` (None for no tree) and the global leaf id of
    every (tree, row) pair, shape (len(trees), len(chunk)): one forest pass."""
    trees = list(trees)
    _check_schema(trees, chunk.schema)
    if not trees:
        return None, np.empty((0, len(chunk)), dtype=np.int64)
    forest = _Forest.of(trees)
    return forest, _route_rows(forest, chunk)


def route_forest(trees, chunk: Chunk) -> np.ndarray:
    """The leaf id of every (tree, row) pair, shape (len(trees), len(chunk));
    ids index each tree's own node arrays."""
    forest, leaves = _route_trees(trees, chunk)
    return leaves if forest is None else leaves - forest.starts[:, None]


def predict_forest(trees, chunk: Chunk) -> np.ndarray:
    """Predicted label of every (tree, row) pair, shape (len(trees),
    len(chunk)): one gather of the forest's labels."""
    forest, leaves = _route_trees(trees, chunk)
    return leaves if forest is None else forest.labels[leaves]


def posterior_chunk(tree: Tree, chunk: Chunk) -> np.ndarray:
    """Posterior of every row of a chunk, shape (len(chunk), num_classes)."""
    return tree.probabilities[route_forest([tree], chunk)[0]]


def predict_chunk(tree: Tree, chunk: Chunk) -> np.ndarray:
    """Predicted label of every row of a chunk."""
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
