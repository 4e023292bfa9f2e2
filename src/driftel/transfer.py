"""Structure-preserving adaptation of trained trees to a new chunk.

The new chunk is routed through the existing split structure. Every leaf that
receives instances has its class counts and label replaced by those of the
routed instances, and a fresh CART subtree is grown in place of the leaf when
the routed instances still violate the stopping criteria (subtree depths
continue from the hosting leaf's depth, so ``max_depth`` bounds the whole
adapted tree). A leaf that receives no instances keeps its historical counts
and label, so the adapted tree blends current and historical knowledge and
its posterior is defined everywhere. The source tree is never modified.

All trees transferred to one chunk are routed together in one forest pass
over the chunk's distinct rows, whose leaves are spread to every row (see
``cart``). The pass groups the chunk's rows by (tree, leaf);
each group is regrown in row order, and each adapted tree is assembled from
its source's node arrays with the regrown subtrees spliced in at their
leaves. The same pass scores both trees of every transfer, since the adapted
tree keeps the source's splits above its leaves:

- the source tree's correctness bits: each source leaf's label for the
  instances it receives (what ``diversity.correctness`` computes);
- the adapted tree's posterior of each instance's true class: each leaf that
  the regrowth creates writes it for its own instances (what
  ``dtel.mse_model`` reads), so the regrown subtrees are never routed again.

A DTEL step grows everything in one ``cart.grow_sites`` call
(``grow_step``): the step's new tree is one site, every chunk row from
depth 0, and each row group of all transfers is one more: one set of numpy
rounds per tree level rather than one Python growth per group or tree. The
same call gives the new tree's correctness bits, so it is never routed
either. On chunks that repeat rows, as STAGGER's do, each site grows on its
distinct (row, label) pairs, weighted by their rows (see ``cart``). Groups
that repeat another's rows and depth are grown again rather than looked up:
on SEA200A they are 2-3% of a step's groups, too few to pay for finding
them. ``cart`` owns the node layout: it grows the subtrees and splices them
into the adapted trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import StoppingParams, Tree, _check_schema, _Forest, _route_rows, grow_sites, predict_chunk
from .core import Chunk


@dataclass(frozen=True, eq=False)
class AdaptedTree:
    """A historical tree re-fitted to a target chunk; discarded after the step."""

    tree: Tree
    source: Tree
    target_chunk_index: int
    source_correct: np.ndarray  # bool per chunk instance: the source tree is right
    p_true: np.ndarray  # per chunk instance: the adapted tree's true-class posterior


def _grow(leaves: np.ndarray, depth: np.ndarray, chunk: Chunk, params: StoppingParams):
    """The growth of one step, in one ``cart.grow_sites`` call. Site 0 is
    the new tree: every chunk row, its root at depth 0. Then each (tree,
    leaf) row group of the forest pass ``leaves`` is one site, its root at
    its leaf's depth (``depth`` holds every forest node's depth); both are
    empty when no tree is transferred.

    Returns the new tree, its correctness bits, the reached leaves (global
    ids, ascending), their regrown subtrees, and the regrown trees'
    true-class posterior of every (tree, row) pair, tree-major.
    """
    n = len(chunk)
    order = np.argsort(leaves, kind="stable")  # rows stay ascending in each group
    ranked = leaves[order]
    first = np.flatnonzero(np.diff(ranked, prepend=-1))
    reached = ranked[first]
    rows = np.concatenate([np.arange(n), order % n])
    bounds = np.concatenate([[0], first + n, [rows.size]])
    depths = np.concatenate([[0], depth[reached]])
    blocks, p_sorted, right = grow_sites(chunk, rows, bounds, depths, params)
    new_tree, blocks = blocks.split_first(chunk.schema, chunk.index)
    p_true = np.empty(leaves.size, dtype=np.float64)
    p_true[order] = p_sorted[n:]
    return new_tree, right[:n], reached, blocks, p_true


def grow_step(sources, chunk: Chunk, params: StoppingParams) -> tuple[Tree, np.ndarray, list[AdaptedTree]]:
    """The growth of one DTEL step: the new tree trained on ``chunk``, its
    correctness bits on it, and every tree of ``sources`` adapted to it
    through one forest pass, all grown together by ``_grow``. One grower
    builds every tree, so the new tree is the one ``cart.train_cart(chunk,
    params)`` grows on its own; the sources stay untouched."""
    sources = list(sources)
    _check_schema(sources, chunk.schema)
    leaves = depth = np.empty(0, dtype=np.int64)
    if sources:
        forest = _Forest(sources)
        leaves = _route_rows(forest, chunk).ravel()
        depth = np.concatenate([t.depth for t in sources])
    new_tree, new_correct, reached, blocks, p_true = _grow(leaves, depth, chunk, params)
    if not sources:
        return new_tree, new_correct, []
    n = len(chunk)
    labels = np.concatenate([t.labels for t in sources])
    correct = (labels[leaves] == np.tile(chunk.y, len(sources))).reshape(len(sources), n)
    p_true = p_true.reshape(len(sources), n)
    trees = forest.splice(reached, blocks)
    return new_tree, new_correct, [
        AdaptedTree(tree, source, chunk.index, correct[t], p_true[t])
        for t, (tree, source) in enumerate(zip(trees, sources))
    ]


def transfer_trees(sources, chunk: Chunk, params: StoppingParams) -> list[AdaptedTree]:
    """Adapt every tree of ``sources`` to ``chunk``: ``grow_step`` without
    its new tree."""
    return grow_step(sources, chunk, params)[2]


def transfer_tree(source: Tree, chunk: Chunk, params: StoppingParams) -> AdaptedTree:
    """Adapt ``source`` to ``chunk``: ``transfer_trees`` on one tree."""
    return transfer_trees([source], chunk, params)[0]


def adapted_training_accuracy(adapted: AdaptedTree, chunk: Chunk) -> float:
    """Accuracy of the adapted tree on a chunk (its fit to the target data)."""
    return float(np.mean(predict_chunk(adapted.tree, chunk) == chunk.y))
