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

The row groups of all transfers of one ``transfer_trees`` call are grown
together by ``cart.grow_sites``, each group as one site: one set of numpy
rounds per tree level rather than one Python growth per group. Groups that
repeat another's rows and depth are grown again rather than looked up: on
SEA200A they are 2-3% of a step's groups, too few to pay for finding them.
(New trees keep ``cart.train_cart``'s list grower; see ``cart``.) ``cart``
owns the node layout: it grows the subtrees and splices them into the
adapted trees.
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


def _regrow(forest: _Forest, leaves: np.ndarray, chunk: Chunk, params: StoppingParams):
    """Regrow every (tree, leaf) row group of the forest pass ``leaves``, all
    of them together, each as one site of ``cart.grow_sites``.

    Returns the reached leaves (global ids, ascending), their regrown
    subtrees, and the regrown trees' true-class posterior of every
    (tree, row) pair, tree-major.
    """
    order = np.argsort(leaves, kind="stable")  # rows stay ascending in each group
    ranked = leaves[order]
    first = np.flatnonzero(np.diff(ranked, prepend=-1))
    reached = ranked[first]
    depths = np.concatenate([t.depth for t in forest.trees])[reached]
    rows = order % len(chunk)
    blocks, p_sorted = grow_sites(chunk, rows, np.append(first, rows.size), depths, params)
    p_true = np.empty(leaves.size, dtype=np.float64)
    p_true[order] = p_sorted
    return reached, blocks, p_true


def transfer_trees(sources, chunk: Chunk, params: StoppingParams) -> list[AdaptedTree]:
    """Adapt every tree of ``sources`` to ``chunk`` through one forest pass,
    leaving the sources untouched."""
    sources = list(sources)
    _check_schema(sources, chunk.schema)
    if not sources:
        return []
    forest = _Forest(sources)
    n = len(chunk)
    leaves = _route_rows(forest, chunk).ravel()
    labels = np.concatenate([t.labels for t in sources])
    correct = (labels[leaves] == np.tile(chunk.y, len(sources))).reshape(len(sources), n)
    reached, blocks, p_true = _regrow(forest, leaves, chunk, params)
    p_true = p_true.reshape(len(sources), n)
    trees = forest.splice(reached, blocks)
    return [
        AdaptedTree(tree, source, chunk.index, correct[t], p_true[t])
        for t, (tree, source) in enumerate(zip(trees, sources))
    ]


def transfer_tree(source: Tree, chunk: Chunk, params: StoppingParams) -> AdaptedTree:
    """Adapt ``source`` to ``chunk``: ``transfer_trees`` on one tree."""
    return transfer_trees([source], chunk, params)[0]


def adapted_training_accuracy(adapted: AdaptedTree, chunk: Chunk) -> float:
    """Accuracy of the adapted tree on a chunk (its fit to the target data)."""
    return float(np.mean(predict_chunk(adapted.tree, chunk) == chunk.y))
