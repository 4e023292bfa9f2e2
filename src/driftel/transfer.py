"""Structure-preserving adaptation of a trained tree to a new chunk.

The new chunk is routed through the existing split structure. Every leaf that
receives instances has its class counts and label replaced by those of the
routed instances, and a fresh CART subtree is grown in place of the leaf when
the routed instances still violate the stopping criteria (subtree depths
continue from the hosting leaf's depth, so ``max_depth`` bounds the whole
adapted tree). A leaf that receives no instances keeps its historical counts
and label, so the adapted tree blends current and historical knowledge and
its posterior is defined everywhere. The source tree is never modified.

The one walk that adapts the tree also scores both trees on the chunk, since
the adapted tree keeps the source's splits above its leaves:

- the source tree's correctness bits: each source leaf records its label for
  the instances it receives (what ``diversity.correctness`` computes);
- the adapted tree's posterior of each instance's true class: each leaf that
  the regrowth creates writes it for its own instances (what
  ``dtel.mse_model`` reads), so the regrown subtrees are never routed again.

A regrown subtree depends only on the chunk, the stopping parameters, the
routed instances and the depth. Transfers of one step may therefore share a
``memo`` dict keyed by (instance ids, depth) that holds each regrown subtree
and its posteriors. The memo lives for one step only: it is valid for one
chunk and one set of stopping parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import (
    Internal,
    StoppingParams,
    Tree,
    TreeNode,
    _left_mask,
    grow_subtree_scored,
    predict_chunk,
)
from .core import Chunk


@dataclass(frozen=True, eq=False)
class AdaptedTree:
    """A historical tree re-fitted to a target chunk; discarded after the step."""

    tree: Tree
    source: Tree
    target_chunk_index: int
    source_correct: np.ndarray  # bool per chunk instance: the source tree is right
    p_true: np.ndarray  # per chunk instance: the adapted tree's true-class posterior


def _adapt(
    node: TreeNode,
    idx: np.ndarray,
    chunk: Chunk,
    params: StoppingParams,
    memo: dict,
    source_labels: np.ndarray,
    p_true: np.ndarray,
) -> TreeNode:
    if idx.size == 0:
        # No routed instances anywhere below: every leaf keeps its historical
        # counts and label, so the subtree adapts to itself. Nodes are
        # immutable and safe to share.
        return node
    if isinstance(node, Internal):
        mask = _left_mask(node, chunk.columns[node.feature_index][idx])
        return Internal(
            node.feature_index,
            node.depth,
            node.threshold,
            node.categories,
            _adapt(node.left, idx[mask], chunk, params, memo, source_labels, p_true),
            _adapt(node.right, idx[~mask], chunk, params, memo, source_labels, p_true),
        )
    source_labels[idx] = node.predicted_label
    # The grower re-checks the stopping criteria at the leaf's depth, so it
    # returns a relabeled leaf when they hold and a fresh subtree otherwise.
    key = (idx.tobytes(), node.depth)
    grown = memo.get(key)
    if grown is None:
        grown = memo[key] = grow_subtree_scored(
            chunk.X, chunk.y, idx, node.depth, chunk.schema, params
        )
    p_true[idx] = grown[1]
    return grown[0]


def transfer_tree(
    source: Tree, chunk: Chunk, params: StoppingParams, memo: dict | None = None
) -> AdaptedTree:
    """Adapt ``source`` to ``chunk``, leaving ``source`` untouched.

    ``memo`` may be shared by the transfers of one step (same chunk, same
    ``params``); by default each call regrows on its own.
    """
    if chunk.schema != source.schema:
        raise ValueError("chunk schema does not match the source tree's schema")
    n = len(chunk)
    source_labels = np.empty(n, dtype=np.int64)
    p_true = np.empty(n, dtype=np.float64)
    memo = {} if memo is None else memo
    root = _adapt(source.root, np.arange(n), chunk, params, memo, source_labels, p_true)
    adapted = Tree(root, source.schema, params, source.origin_chunk_index)
    return AdaptedTree(adapted, source, chunk.index, source_labels == chunk.y, p_true)


def adapted_training_accuracy(adapted: AdaptedTree, chunk: Chunk) -> float:
    """Accuracy of the adapted tree on a chunk (its fit to the target data)."""
    return float(np.mean(predict_chunk(adapted.tree, chunk) == chunk.y))
