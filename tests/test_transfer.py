import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftel.cart import (
    StoppingParams,
    _Forest,
    route_forest,
    train_cart,
    tree_to_text,
)
from driftel.core import CATEGORICAL, NUMERIC, Chunk, FeatureDescriptor, Schema, make_rng
from driftel.diversity import correctness
from driftel.dtel import _mse
from driftel.transfer import adapted_training_accuracy, grow_step, transfer_tree, transfer_trees
from helpers import (
    NO_SHRINK,
    WALK_SCHEMA,
    assert_structure_above_leaves_preserved,
    duplicate_rows,
    graph_posterior_chunk,
    graph_predict_chunk,
    graph_to_text,
    graph_train,
    graph_transfer,
    list_train_cart,
    numeric_chunk,
    pre_order,
    random_chunk,
    random_consistent_chunk,
    random_schema,
    reference_grow_step,
    reference_splice_step,
    reference_transfer,
    reference_transfer_trees,
    straight_line_route,
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
    tree = adapted.tree
    assert tree.feature[0] >= 0
    assert tree.threshold[0] == source.threshold[0]
    assert tree.feature[tree.left[0]] < 0 and tree.feature[tree.right[0]] < 0
    assert tree.labels[tree.left[0]] == 1
    assert tree.labels[tree.right[0]] == 0
    assert adapted_training_accuracy(adapted, inverted) == 1.0


def test_empty_leaf_keeps_historical_counts_and_label():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    source = train_cart(chunk, UNBOUNDED)
    # every new instance routes right; the left leaf sees nothing
    right_only = numeric_chunk([7, 8, 9], [1, 1, 1])
    adapted = transfer_tree(source, right_only, UNBOUNDED)
    tree, left = adapted.tree, adapted.tree.left[0]
    assert tree.feature[left] < 0
    assert np.array_equal(tree.counts[left], source.counts[source.left[0]])
    assert tree.labels[left] == source.labels[source.left[0]]


def test_leaf_regrows_subtree_when_impure():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    source = train_cart(chunk, UNBOUNDED)
    # the right region (x > 5) now contains a finer split
    target = numeric_chunk([1, 6, 7, 9, 9.5], [0, 0, 0, 1, 1])
    adapted = transfer_tree(source, target, UNBOUNDED)
    assert adapted_training_accuracy(adapted, target) == 1.0
    tree = adapted.tree
    assert tree.feature[tree.right[0]] >= 0
    # depths continue from the hosting leaf
    assert all(tree.depth[leaf] >= 1 for leaf in tree_leaves(tree))


def test_max_depth_bounds_adapted_tree():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    params = StoppingParams(max_depth=1)
    source = train_cart(chunk, params)
    target = numeric_chunk([1, 6, 7, 9, 9.5], [0, 0, 0, 1, 1])
    adapted = transfer_tree(source, target, params)
    assert all(adapted.tree.depth[leaf] <= 1 for leaf in tree_leaves(adapted.tree))


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
        assert_structure_above_leaves_preserved(source, adapted.tree)
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
    # transfer_trees scores both trees in the pass that adapts the source. The
    # oracle adapts the object-graph twin of the source with the unfused
    # walk, then routes the chunk again through the source (correctness) and
    # the adapted tree (the posteriors mse_model reads). Several sources
    # transfer to one chunk in one transfer_trees call, as in a step, so they
    # share its memo; trained on the same pool, they often route equal row
    # sets to leaves.
    params = StoppingParams(
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 6))),
        min_samples_split=data.draw(st.integers(2, 5)),
        min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.01, 0.1])),
    )
    pool = walk_rows(data, data.draw(st.integers(1, 12)), (4, 8), grid=1.0)
    n_sources = data.draw(st.integers(1, 4))
    trained = [_pooled_chunk(data, pool, i) for i in range(n_sources)]
    chunk = _pooled_chunk(data, pool, n_sources)
    rows = np.arange(len(chunk))
    sources = [train_cart(c, params) for c in trained]
    twins = [graph_train(c, params) for c in trained]
    before = [tree_to_text(source) for source in sources]
    adapted = transfer_trees(sources, chunk, params)
    for source, twin, text, fused in zip(sources, twins, before, adapted):
        assert text == graph_to_text(twin)
        reference = reference_transfer(twin, chunk, params)
        assert tree_to_text(fused.tree) == graph_to_text(reference)
        assert tree_to_text(source) == text
        assert np.array_equal(fused.source_correct, graph_predict_chunk(twin, chunk) == chunk.y)
        assert np.array_equal(fused.source_correct, correctness(source, chunk).bits)
        expected = graph_posterior_chunk(reference, chunk)[rows, chunk.y]
        assert fused.p_true.tobytes() == expected.tobytes()
        assert _mse(fused.p_true).hex() == _mse(expected).hex()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_flat_forest_matches_object_graph(data):
    # The object-graph grower, fused transfer walk and per-tree router are
    # kept in helpers as the oracle. Sources are trained on mixed numeric and
    # categorical chunks under random stopping limits and transferred
    # together in one call, as in a step; then every tree, source and
    # adapted, is routed in one forest pass over a test chunk that holds
    # codes no training chunk saw and rows on the thresholds.
    params = StoppingParams(
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 6))),
        min_samples_split=data.draw(st.integers(2, 5)),
        min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.01, 0.1])),
    )
    seen = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8)))
    pool = walk_rows(data, data.draw(st.integers(1, 16)), seen, grid=1.0)
    n_sources = data.draw(st.integers(1, 5))
    trained = [_pooled_chunk(data, pool, i) for i in range(n_sources)]
    chunk = _pooled_chunk(data, pool, n_sources)
    sources = [train_cart(c, params) for c in trained]
    twins = [graph_train(c, params) for c in trained]
    adapted = transfer_trees(sources, chunk, params)
    memo = {}
    rows = np.arange(len(chunk))
    references = []
    for source, twin, fused in zip(sources, twins, adapted):
        assert tree_to_text(source) == graph_to_text(twin)
        reference, bits, p_true = graph_transfer(twin, chunk, params, memo)
        references.append(reference)
        assert tree_to_text(fused.tree) == graph_to_text(reference)
        assert np.array_equal(fused.source_correct, bits)
        assert fused.p_true.tobytes() == p_true.tobytes()
        assert fused.p_true.tobytes() == graph_posterior_chunk(reference, chunk)[rows, chunk.y].tobytes()
    n_test = data.draw(st.integers(1, 40))
    test = Chunk(
        n_sources + 1,
        WALK_SCHEMA,
        np.vstack([chunk.X, walk_rows(data, n_test, (4, 8), grid=0.5)]),
        np.zeros(len(chunk) + n_test, dtype=np.int64),
    )
    trees = sources + [a.tree for a in adapted]
    leaves = route_forest(trees, test)
    for tree, graph, leaf in zip(trees, twins + references, leaves):
        assert tree.probabilities[leaf].tobytes() == graph_posterior_chunk(graph, test).tobytes()
        assert np.array_equal(tree.labels[leaf], graph_predict_chunk(graph, test))
        assert leaf.tolist() == [straight_line_route(tree, x) for x in test.X]


def test_memo_keeps_depths_apart():
    # Both sources send every target row to one leaf: the stump's root at
    # depth 0 and the split tree's left leaf at depth 1. The row sets are
    # equal, but under max_depth the regrown subtrees are not.
    params = StoppingParams(max_depth=2)
    stump = numeric_chunk([1, 2], [1, 1], index=0)
    split = numeric_chunk([0, 10], [0, 1], index=1)
    target = numeric_chunk([1, 2, 3, 4], [0, 1, 0, 1], index=2)
    sources = [train_cart(stump, params), train_cart(split, params)]
    adapted = transfer_trees(sources, target, params)
    for chunk, fused in zip((stump, split), adapted):
        reference, bits, p_true = graph_transfer(graph_train(chunk, params), target, params, {})
        assert tree_to_text(fused.tree) == graph_to_text(reference)
        assert fused.p_true.tobytes() == p_true.tobytes()
        assert fused.tree.depth.max() <= 2


def test_regrowth_breaks_ties_like_the_list_grower():
    # Both features cut the target alike, and on each the cuts at 1.5 and
    # 3.5 score the same: the regrown root takes feature 0 at 1.5, the
    # lowest feature and then the lowest threshold.
    target = numeric_chunk([(1, 1), (2, 2), (3, 3), (4, 4)], [0, 1, 1, 0], index=2)
    stump = train_cart(numeric_chunk([(0, 0), (5, 5)], [1, 1], index=0), UNBOUNDED)
    split = train_cart(numeric_chunk([(0, 0), (9, 9)], [0, 1], index=1), UNBOUNDED)
    adapted = transfer_trees([stump, split], target, UNBOUNDED)
    regrown = adapted[0].tree
    assert (regrown.feature[0], regrown.threshold[0]) == (0, 1.5)
    assert tree_to_text(regrown) == tree_to_text(list_train_cart(target, UNBOUNDED))
    host = adapted[1].tree.left[0]  # every target row reaches the left leaf
    assert (adapted[1].tree.feature[host], adapted[1].tree.threshold[host]) == (0, 1.5)


MIXED_SCHEMA = Schema(
    (
        FeatureDescriptor(NUMERIC),
        FeatureDescriptor(CATEGORICAL, tuple("abcd")),  # exhaustive subsets
        FeatureDescriptor(CATEGORICAL, ("a",)),  # no subsets: never splits
        FeatureDescriptor(NUMERIC),
        FeatureDescriptor(CATEGORICAL, tuple("abcdefgh")),  # one-vs-rest
    ),
    3,
)
# Values whose neighbours leave no midpoint: adjacent doubles, signed zeros
# and the smallest subnormals, and pairs whose sum overflows to +-inf.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1.0, 1 + 2**-52, 1 + 2**-51,
    1.5e308, 1.7e308, -1.5e308, -1.7e308,
]


def _mixed_pool(data, n: int) -> np.ndarray:
    numeric = st.one_of(
        st.integers(-3, 3).map(float), st.sampled_from(EDGE_VALUES), st.floats(-10, 10)
    )
    rows = data.draw(
        st.lists(
            st.tuples(numeric, st.integers(0, 3), st.just(0), numeric, st.integers(0, 7)),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(rows, dtype=np.float64).reshape(n, 5)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_batched_regrowth_matches_per_site_loop(data):
    # transfer_trees grows every regrowth site of the call together, level
    # by level; the oracle grows one site at a time with the list grower,
    # as transfer did before. Rows come from a small pool under free labels,
    # so duplicated rows carry conflicting labels, and the sources are often
    # shallow, so their leaves host large sites.
    def stopping():
        return StoppingParams(
            max_depth=data.draw(st.one_of(st.none(), st.integers(0, 6))),
            min_samples_split=data.draw(st.integers(2, 5)),
            min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.005, 0.02, 0.1])),
        )

    pool = _mixed_pool(data, data.draw(st.integers(1, 24)))

    def chunk(index):
        n = data.draw(st.integers(1, 90))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        y = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return Chunk(index, MIXED_SCHEMA, pool[picks], np.asarray(y, dtype=np.int64))

    n_sources = data.draw(st.integers(1, 5))
    sources = [train_cart(chunk(i), stopping()) for i in range(n_sources)]
    target, params = chunk(n_sources), stopping()
    adapted = transfer_trees(sources, target, params)
    expected = reference_transfer_trees(sources, target, params)
    for fused, reference in zip(adapted, expected):
        _assert_same_tree(fused.tree, reference.tree)
        assert fused.p_true.tobytes() == reference.p_true.tobytes()
        assert np.array_equal(fused.source_correct, reference.source_correct)


TREE_ARRAYS = ("feature", "threshold", "categories", "left", "right", "counts")
GROWN_ARRAYS = ("feature", "threshold", "categories", "counts")  # grow_sites' nodes, with their sites
# WALK_SCHEMA and a feature of one category: no subsets, so it never splits.
STEP_SCHEMA = Schema(WALK_SCHEMA.features + (FeatureDescriptor(CATEGORICAL, ("a",)),), 3)


def _draw_step(data, min_sources: int):
    """A drawn DTEL step: ``min_sources`` to 4 sources trained on chunks of
    copied rows (``duplicate_rows``) under free labels, each with its own
    random stopping limits; the target chunk, its limits, and ``adapt``."""

    def chunk(index):
        n = data.draw(st.integers(1, 60))
        X = np.hstack([duplicate_rows(data, n), np.zeros((n, 1))])
        y = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return Chunk(index, STEP_SCHEMA, X, np.asarray(y, dtype=np.int64))

    def stopping(n):
        return StoppingParams(
            max_depth=data.draw(st.one_of(st.none(), st.integers(0, 4))),
            min_samples_split=data.draw(st.integers(2, max(2, n))),
            min_impurity_decrease=data.draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1))),
        )

    trained = [chunk(i) for i in range(data.draw(st.integers(min_sources, 4)))]
    sources = [train_cart(c, stopping(len(c))) for c in trained]
    target = chunk(len(sources))
    return sources, target, stopping(len(target)), data.draw(st.booleans())


def _assert_same_tree(tree, expected):
    # Node order is a layout choice (growth order, pre-order): the trees'
    # canonical forms must agree in all six arrays, byte for byte.
    assert tree_to_text(tree) == tree_to_text(expected)
    canonical, expected = pre_order(tree), pre_order(expected)
    for name in TREE_ARRAYS:
        assert getattr(canonical, name).tobytes() == getattr(expected, name).tobytes()


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_step_growth_matches_train_cart_and_per_site_loop(data):
    # grow_step regrows every reached leaf of the sources and of a one-leaf
    # tree in one call, each site on its distinct (row, label) pairs
    # weighted by their numbers of rows; the regrown one-leaf tree is the new
    # tree. The oracles: the list grower trains the new tree, its bits come
    # from a forest pass (correctness), and the regrowth runs one site at a
    # time. Chunks copy rows from a pool of at most 5 under free labels, so
    # equal rows carry conflicting labels and limited trees have tied leaves;
    # min_samples_split is drawn up to the chunk size, so the weighted node
    # sizes decide where growth stops. With adapt=False only the one-leaf
    # tree regrows and the sources stay the same objects.
    sources, target, params, adapt = _draw_step(data, min_sources=0)
    forest, bits, p_true = grow_step(sources, target, params, adapt)
    expected, expected_bits, expected_p = reference_grow_step(sources, target, params, adapt)
    new_tree = forest.trees[-1]
    reference_tree = list_train_cart(target, params)
    _assert_same_tree(new_tree, reference_tree)
    assert (new_tree.schema, new_tree.origin_chunk_index) == (STEP_SCHEMA, target.index)
    assert all(getattr(new_tree, name).base is None for name in TREE_ARRAYS)  # owns its nodes
    assert np.array_equal(bits[-1], correctness(reference_tree, target).bits)
    assert np.array_equal(bits[-1], correctness(new_tree, target).bits)
    assert len(forest.trees) == len(expected.trees) == len(sources) + 1
    for tree, reference in zip(forest.trees, expected.trees):
        _assert_same_tree(tree, reference)
    assert p_true.tobytes() == expected_p.tobytes()
    assert np.array_equal(bits, expected_bits)
    for source, tree, correct in zip(sources, forest.trees, bits):
        assert np.array_equal(correct, correctness(source, target).bits)
        if not adapt:
            assert tree is source
    # The forest's columns hold every member's nodes, in member order.
    for t, tree in enumerate(forest.trees):
        a, b = forest.starts[t], forest.starts[t] + forest.sizes[t]
        for name in TREE_ARRAYS:
            assert getattr(forest, name)[a:b].tobytes() == getattr(tree, name).tobytes()


def test_step_growth_when_the_only_categorical_feature_has_one_category():
    # The categorical search then has no subset to score at all.
    schema = Schema((FeatureDescriptor(NUMERIC), FeatureDescriptor(CATEGORICAL, ("a",))), 2)
    source = train_cart(Chunk(0, schema, [[1, 0], [9, 0]], [0, 1]), UNBOUNDED)
    target = Chunk(1, schema, [[1, 0], [1, 0], [2, 0], [3, 0], [8, 0], [9, 0]], [0, 1, 0, 1, 1, 0])
    forest, bits, _p_true = grow_step([source], target, UNBOUNDED)
    adapted, new_tree = forest.trees
    _assert_same_tree(new_tree, list_train_cart(target, UNBOUNDED))
    assert np.array_equal(bits[-1], correctness(new_tree, target).bits)
    _assert_same_tree(adapted, reference_transfer_trees([source], target, UNBOUNDED)[0].tree)


def test_forest_of_trees_round_trips_and_an_empty_splice_keeps_the_trees():
    rng = make_rng(5)
    schema = random_schema(rng, max_features=3, num_classes=3)
    trees = [train_cart(random_consistent_chunk(rng, schema, n, index=n), UNBOUNDED) for n in (1, 8, 30)]
    forest = _Forest.of(trees)
    assert forest.trees == trees and forest.sizes.tolist() == [t.n_nodes for t in trees]
    for t, tree in enumerate(trees):
        copy = forest.tree(t, tree.schema, tree.origin_chunk_index)
        for name in TREE_ARRAYS:  # the same layout, not only the same structure
            assert getattr(copy, name).tobytes() == getattr(tree, name).tobytes()
        assert not any(np.shares_memory(getattr(copy, name), getattr(forest, name)) for name in TREE_ARRAYS)
    nothing = tuple(getattr(forest, name)[:0] for name in GROWN_ARRAYS) + (np.zeros(0, dtype=np.int64),)
    spliced = forest.splice(np.zeros(0, dtype=np.int64), nothing)
    assert all(a is b for a, b in zip(spliced.trees, trees)) and len(spliced.trees) == len(trees)
    for name in (*TREE_ARRAYS, "sizes", "starts", "kids", "codes"):
        assert np.array_equal(getattr(spliced, name), getattr(forest, name), equal_nan=True)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_step_splice_matches_the_renumbering_splice(data):
    # grow_step grows each reached leaf in place: the leaf's row takes its
    # site's root and the site's other nodes follow the tree's own. The
    # oracle is the splice it replaced, which re-laid growth's nodes in
    # pre-order and moved every node after a reached leaf. Node ids differ
    # between the two, so the trees are compared in canonical form; the
    # bits and posteriors come from growth and must not change at all.
    sources, target, params, adapt = _draw_step(data, min_sources=1)
    forest, bits, p_true = grow_step(sources, target, params, adapt)
    expected, expected_bits, expected_p = reference_splice_step(sources, target, params, adapt)
    assert len(forest.trees) == len(expected.trees) == len(sources) + 1
    for t, (tree, reference) in enumerate(zip(forest.trees, expected.trees)):
        _assert_same_tree(tree, reference)
        assert (tree.schema, tree.origin_chunk_index) == (reference.schema, reference.origin_chunk_index)
        if t < len(sources):
            assert (tree is sources[t]) == (reference is sources[t])
        a, b = forest.starts[t], forest.starts[t] + forest.sizes[t]
        for name in TREE_ARRAYS:
            assert getattr(forest, name)[a:b].tobytes() == getattr(tree, name).tobytes()
    assert forest.sizes.tolist() == expected.sizes.tolist()
    assert np.array_equal(bits, expected_bits)
    assert p_true.tobytes() == expected_p.tobytes()


def test_adapted_trees_keep_every_unreached_source_node_in_place():
    # An adapted tree is its source's arrays, extended: every node but the
    # reached leaves keeps its id and its row, and a reached leaf keeps its
    # id. Here only the left leaf of [1, 2 | 8, 9] is reached, and it
    # regrows; the right leaf, after it in the source, must not move.
    source = train_cart(numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1]), UNBOUNDED)
    target = numeric_chunk([1, 2, 3, 4], [0, 1, 0, 1], index=1)
    adapted = transfer_tree(source, target, UNBOUNDED).tree
    assert adapted.n_nodes > source.n_nodes
    for name in TREE_ARRAYS:
        assert getattr(adapted, name)[2].tobytes() == getattr(source, name)[2].tobytes()
    rng = make_rng(41)
    grew = 0
    for trial in range(25):
        schema = random_schema(rng)
        sources = [
            train_cart(random_consistent_chunk(rng, schema, int(rng.integers(2, 30)), index=i), UNBOUNDED)
            for i in range(3)
        ]
        target = random_chunk(rng, schema, int(rng.integers(1, 40)), index=3)
        adapted = transfer_trees(sources, target, StoppingParams(max_depth=int(rng.integers(1, 8))))
        for source, leaves, fused in zip(sources, route_forest(sources, target), adapted):
            tree = fused.tree
            assert tree.n_nodes >= source.n_nodes
            grew += tree.n_nodes > source.n_nodes
            unreached = np.setdiff1d(np.arange(source.n_nodes), leaves)
            for name in TREE_ARRAYS:
                assert getattr(tree, name)[unreached].tobytes() == getattr(source, name)[unreached].tobytes()
            # Each row passes its source leaf's id: it stops there, or goes
            # on into that leaf's appended nodes.
            reached = route_forest([tree], target)[0]
            assert np.where(tree.feature[leaves] < 0, reached == leaves, reached >= source.n_nodes).all()
    assert grew  # some source grew, so its later nodes would have moved
