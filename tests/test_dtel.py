import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftel import dtel
from driftel.cart import StoppingParams, _Forest, train_cart, tree_to_text
from driftel.core import Chunk, make_rng
from driftel.diversity import correctness
from driftel.dtel import (
    Archive,
    DtelConfig,
    DtelLearner,
    EnsembleMember,
    WeightedEnsemble,
    ensemble_posteriors,
    mse_model,
    mse_random,
    predict_ensemble_chunk,
    process_chunk,
    weight_adapted,
    weight_new,
)
from helpers import (
    NO_SHRINK,
    WALK_SCHEMA,
    duplicate_rows,
    hand_ensemble,
    numeric_chunk,
    one_row,
    random_chunk,
    random_consistent_chunk,
    random_schema,
    reference_ensemble_posteriors,
    reference_no_transfer_step,
    walk_rows,
)

UNBOUNDED = StoppingParams()


def test_mse_model_examples():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    perfect = train_cart(chunk, UNBOUNDED)
    assert mse_model(perfect, chunk) == 0.0
    half = train_cart(numeric_chunk([1, 2, 8, 9], [0, 1, 0, 1]), StoppingParams(max_depth=0))
    # posterior 0.5 on the true label everywhere -> (1 - 0.5)^2
    assert mse_model(half, numeric_chunk([1, 2, 8, 9], [0, 1, 0, 1])) == pytest.approx(0.25)
    stump = train_cart(numeric_chunk([1.0, 2.0], [0, 0]), UNBOUNDED)
    two = numeric_chunk([1.0, 2.0], [0, 1])
    # p(true) = {1.0, 0.0} -> mean of 0 and 1
    assert mse_model(stump, two) == pytest.approx(0.5)


def test_mse_random_examples():
    assert mse_random(numeric_chunk([1, 2, 3, 4], [0, 0, 1, 1])) == pytest.approx(0.25)
    assert mse_random(numeric_chunk([1, 2], [0, 0])) == 0.0
    uniform3 = numeric_chunk([1, 2, 3], [0, 1, 2], num_classes=3)
    assert mse_random(uniform3) == pytest.approx(4 / 9, abs=1e-12)


def test_weight_examples():
    assert weight_adapted(0.25, 0.25, 1e-10) == pytest.approx(2.0, rel=1e-9)
    assert weight_adapted(0.25, 0.0, 1e-10) == weight_new(0.25, 1e-10)
    assert weight_adapted(0.0, 0.0, 1e-10) == pytest.approx(1e10)
    assert weight_new(0.25, 1e-10) == pytest.approx(4.0, rel=1e-9)
    assert weight_new(4 / 9, 1e-10) == pytest.approx(2.25, rel=1e-9)
    assert weight_new(0.0, 1e-10) == pytest.approx(1e10)


def _member(points, labels, weight, kind="adapted", params=UNBOUNDED):
    tree = train_cart(numeric_chunk(points, labels), params)
    return EnsembleMember(tree, weight, kind)


def test_predict_ensemble_single_member_identity():
    tree = train_cart(numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1]), UNBOUNDED)
    ens = hand_ensemble((EnsembleMember(tree, 3.0, "new"),))
    row = one_row(tree.schema, 1.0)
    assert predict_ensemble_chunk(ens, row).tolist() == [0]
    assert np.allclose(ensemble_posteriors(ens, row), [[1.0, 0.0]])


def test_predict_ensemble_weighted_mean():
    # two members with opposite pure posteriors, weights 2 and 1
    m1 = _member([1, 2], [0, 0], 2.0)
    m2 = _member([1, 2], [1, 1], 1.0, kind="new")
    ens = hand_ensemble((m1, m2))
    row = one_row(m1.tree.schema, 1.5)
    dist = ensemble_posteriors(ens, row)[0]
    assert np.allclose(dist, [2 / 3, 1 / 3], atol=1e-12)
    assert predict_ensemble_chunk(ens, row).tolist() == [0]
    # brute-force oracle: weighted mean of the member posteriors
    oracle = (2.0 * np.array([1.0, 0.0]) + 1.0 * np.array([0.0, 1.0])) / 3.0
    assert np.allclose(dist, oracle)


def test_predict_ensemble_agreement_is_weight_free():
    m1 = _member([1, 2], [1, 1], 0.1)
    m2 = _member([3, 4], [1, 1], 7.0, kind="new")
    ens = hand_ensemble((m1, m2))
    row = one_row(m1.tree.schema, 2.0)
    assert predict_ensemble_chunk(ens, row).tolist() == [1]
    assert np.allclose(ensemble_posteriors(ens, row), [[0.0, 1.0]])


def test_weighted_ensemble_invariants():
    m1 = _member([1, 2], [0, 1], 1.0)
    with pytest.raises(ValueError):
        hand_ensemble((m1,))  # no new member
    m2 = _member([1, 2], [0, 1], -1.0, kind="new")
    with pytest.raises(ValueError):
        hand_ensemble((m1, m2))
    m2 = _member([1, 2], [0, 1], 1.0, kind="new")
    for trees in ([m1.tree], [m2.tree, m1.tree], [m1.tree, _member([1, 2], [0, 1], 1.0).tree]):
        with pytest.raises(ValueError):  # the forest must hold the members' own trees, in order
            WeightedEnsemble((m1, m2), _Forest.of(trees))


def test_first_chunk_warm_up():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1], index=0)
    ens, archive = process_chunk(Archive.empty(3), chunk, DtelConfig(m=3))
    assert len(archive) == 1
    assert len(ens.members) == 1
    assert ens.members[0].kind == "new"
    assert archive.models[0].origin_chunk_index == 0


def test_archive_growth_then_capacity():
    rng = make_rng(31)
    schema = random_schema(rng, max_features=2, num_classes=2)
    cfg = DtelConfig(m=3)
    archive = Archive.empty(cfg.m)
    sizes = []
    for t in range(6):
        chunk = random_consistent_chunk(rng, schema, 20, index=t)
        ens, archive = process_chunk(archive, chunk, cfg)
        sizes.append(len(archive))
        assert len(ens.members) == min(t, cfg.m) + 1
    assert sizes == [1, 2, 3, 3, 3, 3]


def test_capacity_replacement_keeps_complementary_pair():
    cfg = DtelConfig(m=2, stopping=StoppingParams(max_depth=0))
    archive = Archive.empty(2)
    ones = numeric_chunk([1, 2, 3, 4, 5], [1, 1, 1, 1, 1], index=0)
    zeros = numeric_chunk([1, 2, 3, 4, 5], [0, 0, 0, 0, 0], index=1)
    _, archive = process_chunk(archive, ones, cfg)
    _, archive = process_chunk(archive, zeros, cfg)
    assert [t.origin_chunk_index for t in archive.models] == [0, 1]
    # 60% ones: the new stump predicts 1, matching the origin-0 model exactly;
    # the tie drops the older twin and keeps the complementary pair
    mixed = numeric_chunk([1, 2, 3, 4, 5], [1, 1, 1, 0, 0], index=2)
    _, archive = process_chunk(archive, mixed, cfg)
    assert [t.origin_chunk_index for t in archive.models] == [1, 2]


def test_stationary_stream_adapted_weights_equal_new_weight():
    rng = make_rng(37)
    schema = random_schema(rng, max_features=2, num_classes=2)
    cfg = DtelConfig(m=4)
    archive = Archive.empty(cfg.m)
    chunk0 = random_consistent_chunk(rng, schema, 30, index=0)
    ens = None
    for t in range(4):
        # same data every step: every adapted tree fits it perfectly
        ens, archive = process_chunk(archive, chunk0, cfg)
    mse_r = mse_random(chunk0)
    expected_new = weight_new(mse_r, cfg.epsilon)
    for member in ens.members:
        assert member.weight == pytest.approx(expected_new, rel=1e-12)


def test_weights_match_direct_reevaluation():
    rng = make_rng(41)
    schema = random_schema(rng, max_features=2, num_classes=3)
    cfg = DtelConfig(m=3)
    archive = Archive.empty(cfg.m)
    for t in range(5):
        chunk = random_consistent_chunk(rng, schema, 25, index=t)
        ens, archive = process_chunk(archive, chunk, cfg)
        mse_r = mse_random(chunk)
        for member in ens.members:
            if member.kind == "new":
                expected = 1.0 / (mse_r + cfg.epsilon)
            else:
                expected = 1.0 / (mse_r + mse_model(member.tree, chunk) + cfg.epsilon)
            assert abs(member.weight - expected) <= 1e-12


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_vote_on_distinct_rows_matches_per_row_vote(data):
    # The vote adds member posteriors once per distinct row and spreads the
    # sums to the rows; helpers keeps the row-by-row vote, routed node by
    # node. Test chunks repeat a few rows, hold codes no training chunk saw
    # and may hold +0.0 and -0.0 twins, which must vote alike.
    seen = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8)))
    cfg = DtelConfig(m=3, stopping=StoppingParams(max_depth=data.draw(st.one_of(st.none(), st.integers(0, 6)))))
    archive = Archive.empty(cfg.m)
    for index in range(data.draw(st.integers(1, 5))):
        n = data.draw(st.integers(1, 40))
        X = walk_rows(data, n, seen, grid=1.0)
        y = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        ens, archive = process_chunk(archive, Chunk(index, WALK_SCHEMA, X, y), cfg)
    rows = duplicate_rows(data, data.draw(st.integers(1, 60)))
    test = Chunk(9, WALK_SCHEMA, rows, np.zeros(len(rows), dtype=np.int64))
    expected = reference_ensemble_posteriors(ens, test)
    assert ensemble_posteriors(ens, test).tobytes() == expected.tobytes()
    assert np.array_equal(predict_ensemble_chunk(ens, test), np.argmax(expected, axis=1))


TREE_ARRAYS = ("feature", "threshold", "categories", "left", "right", "counts")


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_vote_tables_match_per_row_vote_under_every_setting(data):
    # Every ensemble builds its vote's tables once, when it is made: the
    # members' forest, each node's weighted posterior and the weight total.
    # The ensembles process_chunk returns, and one built by hand with its
    # members reordered and reweighted, must vote like helpers' row by row
    # vote, to the bit, on chunks and on one-row chunks, under every
    # adapt/diverse setting and archive size; training chunks repeat rows,
    # so transfer and growth run on weighted entries.
    adapt, diverse = data.draw(st.booleans()), data.draw(st.booleans())
    max_depth = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    cfg = DtelConfig(m=data.draw(st.integers(1, 4)), stopping=StoppingParams(max_depth=max_depth))
    archive = Archive.empty(cfg.m)
    for index in range(data.draw(st.integers(1, 6))):
        n = data.draw(st.integers(1, 30))
        X = duplicate_rows(data, n)
        y = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        ens, archive = process_chunk(archive, Chunk(index, WALK_SCHEMA, X, y), cfg, adapt, diverse)
        assert all(t is m.tree for t, m in zip(ens.forest.trees, ens.members))
        assert len(ens.forest.trees) == len(ens.members)
        # The new tree, which the archive may keep, owns its arrays, so the
        # archive never keeps a step's vote tables alive.
        forest = ens.forest
        tables = [getattr(forest, name) for name in TREE_ARRAYS[:-1]] + [forest.kids, forest.codes, ens.weighted]
        new_tree = ens.members[-1].tree
        assert not any(np.shares_memory(getattr(new_tree, name), t) for name in TREE_ARRAYS for t in tables)
    order = data.draw(st.permutations(range(len(ens.members))))
    weights = data.draw(st.lists(st.floats(0.01, 100.0), min_size=len(order), max_size=len(order)))
    by_hand = hand_ensemble(
        EnsembleMember(ens.members[i].tree, w, ens.members[i].kind) for i, w in zip(order, weights)
    )
    if data.draw(st.booleans()):
        rows = duplicate_rows(data, data.draw(st.integers(1, 40)))
    else:
        rows = walk_rows(data, data.draw(st.integers(1, 40)), (4, 8), grid=0.5)
    test = Chunk(9, WALK_SCHEMA, rows, np.zeros(len(rows), dtype=np.int64))
    for e in (ens, by_hand):
        expected = reference_ensemble_posteriors(e, test)
        assert ensemble_posteriors(e, test).tobytes() == expected.tobytes()
        assert np.array_equal(predict_ensemble_chunk(e, test), np.argmax(expected, axis=1))
        # A one-row chunk merges no rows: the bits of its row in the merged vote.
        for row, want in zip(rows[:5], expected):
            single = one_row(WALK_SCHEMA, *row)
            assert ensemble_posteriors(e, single)[0].tobytes() == want.tobytes()
            assert predict_ensemble_chunk(e, single).tolist() == [np.argmax(want)]


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_no_transfer_step_matches_the_step_it_replaced(data):
    # process_chunk(adapt=False) takes the transfer step's one path and
    # regrows only the one-leaf tree's leaf. helpers keeps the step it
    # replaced: the new tree grown alone and the archived trees scored from
    # their own arrays after a route_forest pass. Step by step, the members,
    # their weights, the archive and the vote must match to the bit, on
    # duplicate-heavy chunks under random stopping limits and archive sizes.
    stopping = StoppingParams(
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 4))),
        min_samples_split=data.draw(st.integers(2, 6)),
        min_impurity_decrease=data.draw(st.sampled_from([0.0, 0.01, 0.1])),
    )
    cfg = DtelConfig(m=data.draw(st.integers(1, 4)), stopping=stopping)
    diverse = data.draw(st.booleans())
    archive = expected_archive = Archive.empty(cfg.m)
    for index in range(data.draw(st.integers(1, 7))):
        n = data.draw(st.integers(1, 30))
        y = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        chunk = Chunk(index, WALK_SCHEMA, duplicate_rows(data, n), y)
        ens, archive = process_chunk(archive, chunk, cfg, adapt=False, diverse=diverse)
        expected, expected_archive = reference_no_transfer_step(expected_archive, chunk, cfg, diverse)
        assert [tree_to_text(m.tree) for m in ens.members] == [tree_to_text(m.tree) for m in expected.members]
        assert [m.weight.hex() for m in ens.members] == [m.weight.hex() for m in expected.members]
        assert [m.kind for m in ens.members] == [m.kind for m in expected.members]
        assert [t.origin_chunk_index for t in archive.models] == [
            t.origin_chunk_index for t in expected_archive.models
        ]
        assert [tree_to_text(t) for t in archive.models] == [tree_to_text(t) for t in expected_archive.models]
        rows = duplicate_rows(data, data.draw(st.integers(1, 20)))
        test = Chunk(index, WALK_SCHEMA, rows, np.zeros(len(rows), dtype=np.int64))
        assert ensemble_posteriors(ens, test).tobytes() == reference_ensemble_posteriors(expected, test).tobytes()


def test_vote_tables_hold_each_members_weighted_posteriors():
    m1 = _member([1, 2, 8, 9], [0, 0, 1, 1], 2.0)
    m2 = _member([1, 2, 3, 9], [0, 1, 1, 1], 1.0, kind="new")
    ens = hand_ensemble((m1, m2))
    assert ens.forest.trees == [m1.tree, m2.tree]
    assert ens.total == 3.0
    expected = np.concatenate([2.0 * m1.tree.probabilities, 1.0 * m2.tree.probabilities])
    assert ens.weighted.tobytes() == expected.tobytes()


def test_ensemble_distribution_sums_to_one():
    rng = make_rng(43)
    schema = random_schema(rng, max_features=2, num_classes=3)
    cfg = DtelConfig(m=3)
    archive = Archive.empty(cfg.m)
    for t in range(4):
        chunk = random_consistent_chunk(rng, schema, 20, index=t)
        ens, archive = process_chunk(archive, chunk, cfg)
    post = ensemble_posteriors(ens, chunk)
    assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)


def test_archive_never_contains_adapted_trees():
    rng = make_rng(47)
    schema = random_schema(rng, max_features=2, num_classes=2)
    cfg = DtelConfig(m=2)
    archive = Archive.empty(cfg.m)
    trained = {}
    for t in range(5):
        chunk = random_consistent_chunk(rng, schema, 15, index=t)
        ens, archive = process_chunk(archive, chunk, cfg)
        new = [m for m in ens.members if m.kind == "new"][0].tree
        trained[t] = new
    for model in archive.models:
        assert model is trained[model.origin_chunk_index]


def test_capacity_one_archive_keeps_newest():
    rng = make_rng(53)
    schema = random_schema(rng, max_features=1, num_classes=2)
    cfg = DtelConfig(m=1)
    archive = Archive.empty(1)
    for t in range(3):
        chunk = random_consistent_chunk(rng, schema, 10, index=t)
        ens, archive = process_chunk(archive, chunk, cfg)
        assert len(archive) == 1
        assert archive.models[0].origin_chunk_index == t


@pytest.mark.parametrize("adapt", [True, False])
@pytest.mark.parametrize("diverse", [True, False])
def test_archive_rule_sees_each_models_correctness(monkeypatch, adapt, diverse):
    # Under full growth the new tree is right on most of its chunk, and an
    # all-true column has Q = 0 against every column, so the diversity rule
    # cannot notice wrong archived bits. Instead, record the candidates the
    # step hands to its rule, at the module attributes it looks up when
    # called, and check every column against a direct evaluation. Under
    # max_depth=1 the new tree misfits its chunk too, so its column must
    # hold false bits where it is wrong.
    calls = {"select_removal": [], "select_least_accurate": []}
    for name, seen in calls.items():

        def record(candidates, rule=getattr(dtel, name), seen=seen):
            seen.append(candidates)
            return rule(candidates)

        monkeypatch.setattr(dtel, name, record)
    used = calls["select_removal" if diverse else "select_least_accurate"]
    for stopping in (UNBOUNDED, StoppingParams(max_depth=1)):
        for seen in calls.values():
            seen.clear()
        rng = make_rng(59)
        schema = random_schema(rng, max_features=2, num_classes=3)
        cfg = DtelConfig(m=3, stopping=stopping)
        archive = Archive.empty(cfg.m)
        new_wrong = 0
        for t in range(8):
            chunk = random_chunk(rng, schema, 30, index=t)
            before, made = archive.models, len(used)
            ens, archive = process_chunk(archive, chunk, cfg, adapt, diverse)
            if len(before) < cfg.m:
                assert len(used) == made
                continue
            assert len(used) == made + 1
            new_tree = ens.members[-1].tree
            for c in used[-1]:
                model = new_tree if c.is_new else before[c.model_id]
                assert np.array_equal(c.bits, correctness(model, chunk).bits)
                new_wrong += c.is_new and not c.bits.all()
        if stopping.max_depth is not None:
            assert new_wrong == 5
        assert len(used) == 5
        assert sum(map(len, calls.values())) == 5  # the other rule is never called


def test_capacity_one_accuracy_rule_keeps_the_more_accurate_model():
    # A split must gain 0.45. The archived tree cuts its chunk cleanly
    # (gain 0.5); on the second chunk no cut gains more than 0.25, so the new
    # tree is a stump with a 3:3 tie, labelled 0: right on 3 of 6 rows,
    # where the archived tree is right on 5. The accuracy rule keeps the
    # archived tree; the diversity rule cannot score two candidates and
    # takes the new one.
    cfg = DtelConfig(m=1, stopping=StoppingParams(min_impurity_decrease=0.45))
    first = numeric_chunk([1, 2, 3, 4], [0, 0, 1, 1], index=0)
    second = numeric_chunk([1, 2, 3, 4, 5, 6], [0, 0, 1, 1, 1, 0], index=1)
    for diverse, kept in ((False, 0), (True, 1)):
        _, archive = process_chunk(Archive.empty(1), first, cfg, diverse=diverse)
        assert archive.models[0].n_nodes == 3
        ens, archive = process_chunk(archive, second, cfg, diverse=diverse)
        assert ens.members[-1].tree.n_nodes == 1
        assert [t.origin_chunk_index for t in archive.models] == [kept]


def test_learner_interface():
    learner = DtelLearner(DtelConfig(m=2))
    with pytest.raises(ValueError):
        learner.predict_chunk(numeric_chunk([1.0], [0]))
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1])
    learner.update(chunk)
    assert learner.predict_chunk(one_row(chunk.schema, 1.0)).tolist() == [0]
    assert np.array_equal(learner.predict_chunk(chunk), chunk.y)


def test_config_validation():
    with pytest.raises(ValueError):
        DtelConfig(m=0)
    with pytest.raises(ValueError):
        DtelConfig(epsilon=0.0)
