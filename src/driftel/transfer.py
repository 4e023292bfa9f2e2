"""Structure-preserving adaptation of a trained tree to a new chunk.

The new chunk is routed through the existing split structure. Every leaf that
receives instances has its class counts and label replaced by those of the
routed instances, and a fresh CART subtree is grown in place of the leaf when
the routed instances still violate the stopping criteria (subtree depths
continue from the hosting leaf's depth, so ``max_depth`` bounds the whole
adapted tree). A leaf that receives no instances keeps its historical counts
and label, so the adapted tree blends current and historical knowledge and
its posterior is defined everywhere. The source tree is never modified.
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
    grow_subtree,
    predict_chunk,
)
from .core import Chunk


@dataclass(frozen=True, eq=False)
class AdaptedTree:
    """A historical tree re-fitted to a target chunk; discarded after the step."""

    tree: Tree
    source: Tree
    target_chunk_index: int


def _adapt(
    node: TreeNode,
    idx: np.ndarray,
    chunk: Chunk,
    params: StoppingParams,
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
            _adapt(node.left, idx[mask], chunk, params),
            _adapt(node.right, idx[~mask], chunk, params),
        )
    # grow_subtree re-checks the stopping criteria at the leaf's depth, so it
    # returns a relabeled leaf when they hold and a fresh subtree otherwise.
    return grow_subtree(chunk.X, chunk.y, idx, node.depth, chunk.schema, params)


def transfer_tree(source: Tree, chunk: Chunk, params: StoppingParams) -> AdaptedTree:
    """Adapt ``source`` to ``chunk``, leaving ``source`` untouched."""
    if chunk.schema != source.schema:
        raise ValueError("chunk schema does not match the source tree's schema")
    root = _adapt(source.root, np.arange(len(chunk)), chunk, params)
    adapted = Tree(root, source.schema, params, source.origin_chunk_index)
    return AdaptedTree(adapted, source, chunk.index)


def adapted_training_accuracy(adapted: AdaptedTree, chunk: Chunk) -> float:
    """Accuracy of the adapted tree on a chunk (its fit to the target data)."""
    return float(np.mean(predict_chunk(adapted.tree, chunk) == chunk.y))
