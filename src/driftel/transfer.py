"""Structure-preserving adaptation of trained trees to a new chunk.

The new chunk is routed through the existing split structure. Every leaf that
receives instances has its class counts and label replaced by those of the
routed instances, and a fresh CART subtree is grown in place of the leaf when
the routed instances still violate the stopping criteria (subtree depths
continue from the hosting leaf's depth, so ``max_depth`` limits the whole
adapted tree). A leaf that receives no instances keeps its historical counts
and label, so the adapted tree blends current and historical knowledge and
its posterior is defined everywhere. The source tree is never modified.

All trees transferred to one chunk are routed together in one forest pass
over the chunk's distinct rows, whose leaves are spread to every row (see
``cart``). ``cart.grow_leaves``, the one site grouping, regrows every
reached leaf from its rows, in row order, in one set of numpy rounds per
tree level, parting rows by the node test the pass routes them by; a call
of its own (``cart._Forest.splice``) then grows each leaf in place: no
source node changes its id, and a tree that no row reaches stays the same
object. The pass yields the source trees' correctness bits (each leaf's
label for the rows it receives) and the growth the adapted trees'
true-class posteriors (what ``dtel.mse_model`` reads), so no regrown
subtree is routed again. Labels, posteriors and depths are ``cart``'s.

A DTEL step (``grow_step``) adapts one more tree: the paper trains "each
preserved historical model as an initial model" on the new chunk, and the
new model starts from a one-leaf tree that has learned nothing
(``cart.one_leaf``). Every row reaches its leaf, which regrows from depth 0
into the tree ``cart.train_cart`` grows on the chunk, breadth first, with
its correctness bits; the splice puts it last in the forest the ensemble
votes with. The ``dtel-no-transfer`` ablation regrows only that leaf. On
chunks that repeat rows, as STAGGER's do, the step finds the chunk's
distinct (row, label) pairs once, and every site grows on the pairs that
reach its leaf, each weighted by its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import StoppingParams, Tree, _check_schema, _Forest, _route_rows, grow_leaves, one_leaf, predict_chunk
from .core import Chunk


@dataclass(frozen=True, eq=False)
class AdaptedTree:
    """A historical tree re-fitted to a target chunk; discarded after the step."""

    tree: Tree
    source: Tree
    target_chunk_index: int
    source_correct: np.ndarray  # bool per chunk instance: the source tree is right
    p_true: np.ndarray  # per chunk instance: the adapted tree's true-class posterior


def grow_step(
    sources, chunk: Chunk, params: StoppingParams, adapt: bool = True
) -> tuple[_Forest, np.ndarray, np.ndarray]:
    """One DTEL step's growth: ``sources`` and a one-leaf tree
    (``cart.one_leaf``) routed in one forest pass, and every reached leaf,
    or with ``adapt=False`` only the one-leaf tree's, regrown
    (``cart.grow_leaves``) and spliced in place.

    Returns the members' forest (each source adapted, or as it is, then the
    new tree, which owns its nodes so that the archive can keep it alone)
    and, shape (trees, rows), each source's correctness bits as archived and
    the new tree's, and each member's true-class posteriors."""
    sources = list(sources)
    _check_schema(sources, chunk.schema)
    trees = sources + [one_leaf(chunk.schema, chunk.index)]
    forest = _Forest.of(trees)
    leaves = _route_rows(forest, chunk)  # (trees, rows)
    sites = leaves if adapt else leaves[-1:]
    reached, grown, p_grown, right = grow_leaves(forest, sites.ravel(), chunk, params)
    members = forest.splice(reached, grown)
    members.trees[-1] = members.tree(-1, chunk.schema, chunk.index)
    bits = forest.labels[leaves] == chunk.y
    bits[-1] = right[-len(chunk):]  # the new tree as grown: its source learned nothing
    p_true = p_grown.reshape(len(sites), -1)
    if not adapt:  # each source's posterior at the leaf its rows reach
        p_true = np.concatenate([forest.probabilities[leaves[:-1], chunk.y], p_true])
    return members, bits, p_true


def transfer_trees(sources, chunk: Chunk, params: StoppingParams) -> list[AdaptedTree]:
    """Adapt every tree of ``sources`` to ``chunk``: ``grow_step`` without
    its new tree."""
    sources = list(sources)
    members, bits, p_true = grow_step(sources, chunk, params)
    scored = zip(members.trees, sources, bits, p_true)
    return [AdaptedTree(tree, source, chunk.index, b, p) for tree, source, b, p in scored]


def transfer_tree(source: Tree, chunk: Chunk, params: StoppingParams) -> AdaptedTree:
    """Adapt ``source`` to ``chunk``: ``transfer_trees`` on one tree."""
    return transfer_trees([source], chunk, params)[0]


def adapted_training_accuracy(adapted: AdaptedTree, chunk: Chunk) -> float:
    """Accuracy of the adapted tree on a chunk (its fit to the target data)."""
    return float(np.mean(predict_chunk(adapted.tree, chunk) == chunk.y))
