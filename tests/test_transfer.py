import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftel.cart import (
    Internal,
    Leaf,
    StoppingParams,
    _leaf_groups,
    posterior_chunk,
    train_cart,
    tree_to_text,
)
from driftel.core import Chunk, make_rng
from driftel.diversity import correctness
from driftel.dtel import _mse, mse_model
from driftel.transfer import adapted_training_accuracy, transfer_tree
from helpers import (
    WALK_SCHEMA,
    assert_structure_above_leaves_preserved,
    numeric_chunk,
    random_consistent_chunk,
    random_schema,
    reference_transfer,
    tree_leaves,
    walk_rows,
)

UNBOUNDED = StoppingParams()


def test_transfer_to_training_chunk_is_identity():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    source = train_cart(chunk, UNBOUNDED)
    adapted = transfer_tree(source, chunk, UNBOUNDED)
    # leaves are already pure under the same chunk, so nothing grows
    assert tree_to_text(adapted.tree) == tree_to_text(source)
    assert adapted_training_accuracy(adapted, chunk) == 1.0
    assert adapted.source is source
    assert adapted.target_chunk_index == chunk.index


def test_label_inversion_flips_leaves_without_growth():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    source = train_cart(chunk, UNBOUNDED)
    inverted = chunk.with_labels(1 - np.asarray(chunk.y))
    adapted = transfer_tree(source, inverted, UNBOUNDED)
    root = adapted.tree.root
    assert isinstance(root, Internal)
    assert root.threshold == source.root.threshold
    assert isinstance(root.left, Leaf) and isinstance(root.right, Leaf)
    assert root.left.predicted_label == 1
    assert root.right.predicted_label == 0
    assert adapted_training_accuracy(adapted, inverted) == 1.0


def test_empty_leaf_keeps_historical_counts_and_label():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    source = train_cart(chunk, UNBOUNDED)
    # every new instance routes right; the left leaf sees nothing
    right_only = numeric_chunk([7, 8, 9], [1, 1, 1])
    adapted = transfer_tree(source, right_only, UNBOUNDED)
    left = adapted.tree.root.left
    assert isinstance(left, Leaf)
    assert np.array_equal(left.class_counts, source.root.left.class_counts)
    assert left.predicted_label == source.root.left.predicted_label


def test_leaf_regrows_subtree_when_impure():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    source = train_cart(chunk, UNBOUNDED)
    # the right region (x > 5) now contains a finer split
    target = numeric_chunk([1, 6, 7, 9, 9.5], [0, 0, 0, 1, 1])
    adapted = transfer_tree(source, target, UNBOUNDED)
    assert adapted_training_accuracy(adapted, target) == 1.0
    assert isinstance(adapted.tree.root.right, Internal)
    # depths continue from the hosting leaf
    for leaf in tree_leaves(adapted.tree):
        assert leaf.depth >= 1


def test_max_depth_bounds_adapted_tree():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    params = StoppingParams(max_depth=1)
    source = train_cart(chunk, params)
    target = numeric_chunk([1, 6, 7, 9, 9.5], [0, 0, 0, 1, 1])
    adapted = transfer_tree(source, target, params)
    assert all(leaf.depth <= 1 for leaf in tree_leaves(adapted.tree))


def test_schema_mismatch_rejected():
    source = train_cart(numeric_chunk([1, 2], [0, 1]), UNBOUNDED)
    with pytest.raises(ValueError):
        transfer_tree(source, numeric_chunk([(1, 2), (3, 4)], [0, 1]), UNBOUNDED)


def test_source_never_mutated_and_structure_preserved():
    rng = make_rng(23)
    for trial in range(25):
        schema = random_schema(rng)
        source_chunk = random_consistent_chunk(rng, schema, int(rng.integers(4, 50)), index=0)
        target_chunk = random_consistent_chunk(rng, schema, int(rng.integers(4, 50)), index=1)
        source = train_cart(source_chunk, UNBOUNDED)
        before = tree_to_text(source)
        adapted = transfer_tree(source, target_chunk, UNBOUNDED)
        assert tree_to_text(source) == before
        assert_structure_above_leaves_preserved(source.root, adapted.tree.root)
        assert adapted_training_accuracy(adapted, target_chunk) == 1.0


def test_transfer_idempotent_on_same_chunk():
    rng = make_rng(29)
    for trial in range(10):
        schema = random_schema(rng)
        source_chunk = random_consistent_chunk(rng, schema, int(rng.integers(4, 40)), index=0)
        target_chunk = random_consistent_chunk(rng, schema, int(rng.integers(4, 40)), index=1)
        source = train_cart(source_chunk, UNBOUNDED)
        once = transfer_tree(source, target_chunk, UNBOUNDED)
        twice = transfer_tree(once.tree, target_chunk, UNBOUNDED)
        assert tree_to_text(twice.tree) == tree_to_text(once.tree)


def test_adapted_accuracy_measures_fit():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    source = train_cart(chunk, UNBOUNDED)
    frozen = StoppingParams(max_depth=0)
    stump_source = train_cart(chunk, frozen)
    mixed = numeric_chunk([1, 2, 8, 9], [0, 1, 1, 0])
    adapted = transfer_tree(stump_source, mixed, frozen)
    assert adapted_training_accuracy(adapted, mixed) == 0.5
    perfect = transfer_tree(source, chunk, UNBOUNDED)
    assert adapted_training_accuracy(perfect, chunk) == 1.0


def _pooled_chunk(data, pool: np.ndarray, index: int) -> Chunk:
    # Rows are drawn from a small pool under free labels, so duplicated
    # feature rows with conflicting labels occur: the only way a fully grown
    # adapted tree misfits its chunk.
    n = data.draw(st.integers(1, 80))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    y = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Chunk(index, WALK_SCHEMA, pool[picks], np.asarray(y, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fused_transfer_matches_unfused_reference(data):
    # transfer_tree scores both trees in the walk that adapts the source. The
    # oracle adapts with the unfused walk, then routes the chunk again
    # through the source (correctness) and the adapted tree (mse_model).
    # Several sources transfer to one chunk through one memo, as in a step;
    # trained on the same pool, they often route equal row sets to leaves.
    params = StoppingParams(
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 6))),
        min_samples_split=data.draw(st.integers(2, 5)),
        min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.01, 0.1])),
    )
    pool = walk_rows(data, data.draw(st.integers(1, 12)), (4, 8), grid=1.0)
    n_sources = data.draw(st.integers(1, 4))
    sources = [train_cart(_pooled_chunk(data, pool, i), params) for i in range(n_sources)]
    chunk = _pooled_chunk(data, pool, n_sources)
    rows = np.arange(len(chunk))
    memo = {}
    for source in sources:
        before = tree_to_text(source)
        fused = transfer_tree(source, chunk, params, memo)
        reference = reference_transfer(source, chunk, params)
        assert tree_to_text(fused.tree) == tree_to_text(reference)
        assert tree_to_text(source) == before
        assert np.array_equal(fused.source_correct, correctness(source, chunk).bits)
        expected = posterior_chunk(reference, chunk)[rows, chunk.y]
        assert fused.p_true.tobytes() == expected.tobytes()
        assert _mse(fused.p_true).hex() == mse_model(reference, chunk).hex()
        # Leaves the chunk reaches were grown by the transfer, which fills
        # their posteriors before they vote.
        for leaf, _idx in _leaf_groups(fused.tree.root, chunk.columns):
            filled = vars(leaf)["probabilities"]
            assert filled.tobytes() == (leaf.class_counts / leaf.class_counts.sum()).tobytes()
