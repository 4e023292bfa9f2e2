import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftel.baselines import (
    ALGORITHMS,
    best_swap,
    majority_vote,
    make_learner,
    sea_predict_chunk,
    sea_process_chunk,
)
from driftel.cart import StoppingParams, predict_chunk, train_cart
from driftel.core import make_rng
from driftel.diversity import NEW_MODEL, correctness, select_removal
from driftel.dtel import (
    Archive,
    DtelConfig,
    mse_model,
    mse_random,
    process_chunk,
    weight_adapted,
)
from helpers import (
    numeric_chunk,
    random_consistent_chunk,
    random_schema,
    reference_majority_vote,
    random_chunk,
    reference_sea_swap,
)

UNBOUNDED = StoppingParams()


def test_registry_names():
    assert set(ALGORITHMS) == {"sea", "dtel", "dtel-no-transfer", "dtel-acc-archive"}
    for name in ALGORITHMS:
        learner = make_learner(name, DtelConfig(m=2))
        assert learner.name == name
    with pytest.raises(ValueError):
        make_learner("nope")


def test_majority_vote_tie_takes_lowest_class():
    preds = [np.array([0, 1]), np.array([1, 1]), np.array([0, 0]), np.array([1, 0])]
    assert np.array_equal(majority_vote(preds, 2), [0, 0])


def test_sea_appends_under_capacity():
    cfg = DtelConfig(m=3)
    state = Archive.empty(3)
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1], index=0)
    state = sea_process_chunk(state, chunk, cfg)
    assert len(state) == 1
    assert np.array_equal(sea_predict_chunk(state, chunk), chunk.y)


def test_sea_no_replacement_when_new_tree_is_equivalent():
    cfg = DtelConfig(m=2)
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1], index=0)
    state = Archive.empty(2)
    state = sea_process_chunk(state, chunk, cfg)
    state = sea_process_chunk(state, chunk.with_labels(chunk.y), cfg)
    before = state.models
    # a third identical chunk trains an equivalent tree; no accuracy gain
    state = sea_process_chunk(state, chunk.with_labels(chunk.y), cfg)
    assert state.models == before


def test_sea_replaces_the_always_wrong_model():
    cfg = DtelConfig(m=2)
    base = numeric_chunk([1, 2, 3, 8, 9, 10, 1.5, 2.5, 8.5, 9.5], [0, 0, 0, 1, 1, 1, 0, 0, 1, 1], index=0)
    inverted = base.with_labels(1 - np.asarray(base.y))
    wrong = train_cart(inverted, UNBOUNDED)  # wrong on every instance of base
    right = train_cart(base, UNBOUNDED)
    state = Archive((wrong, right), 2)
    updated = sea_process_chunk(state, base, cfg)
    assert wrong not in updated.models
    assert right in updated.models
    # brute-force over both replacements confirms slot 0 was the best swap
    new_tree = [t for t in updated.models if t is not right][0]
    accs = []
    for slot in range(2):
        models = list(state.models)
        models[slot] = new_tree
        preds = [predict_chunk(t, base) for t in models]
        accs.append(np.mean(majority_vote(preds, 2) == base.y))
    assert accs[0] == max(accs)


def brute_force_sea_replacement(state, new_tree, chunk):
    """Straight-line re-statement of the replacement rule."""
    K = chunk.schema.num_classes

    def vote_accuracy(models):
        votes = np.zeros((len(chunk), K))
        for t in models:
            p = predict_chunk(t, chunk)
            for i, c in enumerate(p):
                votes[i, c] += 1
        return float(np.mean(np.argmax(votes, axis=1) == chunk.y))

    base = vote_accuracy(state.models)
    best_slot, best_acc = None, base
    for slot in range(len(state.models)):
        models = list(state.models)
        models[slot] = new_tree
        acc = vote_accuracy(models)
        if acc > best_acc:
            best_slot, best_acc = slot, acc
    return best_slot


def test_sea_replacement_matches_brute_force_random():
    rng = make_rng(61)
    cfg = DtelConfig(m=4)
    for trial in range(40):
        schema = random_schema(rng, max_features=2, num_classes=2)
        state = Archive(
            tuple(
                train_cart(random_consistent_chunk(rng, schema, 12, index=t), UNBOUNDED)
                for t in range(4)
            ),
            4,
        )
        chunk = random_consistent_chunk(rng, schema, 12, index=9)
        new_tree = train_cart(chunk, UNBOUNDED)
        expected_slot = brute_force_sea_replacement(state, new_tree, chunk)
        updated = sea_process_chunk(state, chunk, cfg)
        if expected_slot is None:
            assert updated.models == state.models
        else:
            expected = list(state.models)
            expected[expected_slot] = updated.models[expected_slot]
            assert updated.models[expected_slot] is not state.models[expected_slot]
            assert [
                a is b for a, b in zip(updated.models, state.models)
            ].count(False) == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_swap_scoring_matches_majority_vote_loop(data):
    # best_swap scores every single swap from one vote-count matrix; the
    # oracle runs one majority vote per candidate ensemble. Few classes, few
    # slots and short chunks make vote ties, equal swaps and swaps that only
    # tie the unchanged ensemble common.
    K = data.draw(st.integers(2, 4))
    slots = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 12))
    label = st.integers(0, K - 1)
    row = st.lists(label, min_size=n, max_size=n)
    preds = np.array(data.draw(st.lists(row, min_size=slots, max_size=slots)), dtype=np.int64)
    if data.draw(st.booleans()):
        preds[1::2] = preds[0::2][: preds[1::2].shape[0]]  # duplicated members force ties
    new_pred = np.array(data.draw(row), dtype=np.int64)
    y = np.array(data.draw(row), dtype=np.int64)
    assert best_swap(preds, new_pred, y, K) == reference_sea_swap(preds, new_pred, y, K)
    assert np.array_equal(majority_vote(preds, K), reference_majority_vote(list(preds), K))


def test_no_transfer_equals_dtel_on_stationary_stream():
    rng = make_rng(67)
    schema = random_schema(rng, max_features=2, num_classes=2)
    chunk0 = random_consistent_chunk(rng, schema, 30, index=0)
    test_chunk = random_consistent_chunk(rng, schema, 50, index=99)
    cfg = DtelConfig(m=3)
    a1 = Archive.empty(3)
    a2 = Archive.empty(3)
    for t in range(4):
        e1, a1 = process_chunk(a1, chunk0, cfg)
        e2, a2 = process_chunk(a2, chunk0, cfg, adapt=False)
        from driftel.dtel import predict_ensemble_chunk

        assert np.array_equal(
            predict_ensemble_chunk(e1, test_chunk), predict_ensemble_chunk(e2, test_chunk)
        )


def test_no_transfer_weights_and_archive_follow_direct_evaluation():
    # The ablation takes each archived tree's weight and correctness bits
    # from one forest pass; both must equal a direct evaluation of the tree.
    # Shallow trees misfit their own chunk, so the new model's bits are not
    # all true and the archive rule depends on every model's bits.
    rng = make_rng(83)
    schema = random_schema(rng, max_features=2, num_classes=3)
    cfg = DtelConfig(m=3, stopping=StoppingParams(max_depth=2))
    archive = Archive.empty(3)
    for t in range(10):
        chunk = random_chunk(rng, schema, 30, index=t)
        new_tree = train_cart(chunk, cfg.stopping)
        ensemble, updated = process_chunk(archive, chunk, cfg, adapt=False)
        for member, tree in zip(ensemble.members, archive.models):
            mse = mse_model(tree, chunk)
            assert member.weight == weight_adapted(mse_random(chunk), mse, cfg.epsilon)
        origins = [f.origin_chunk_index for f in archive.models]
        if len(archive) == archive.capacity:
            candidates = [correctness(f, chunk, slot) for slot, f in enumerate(archive.models)]
            removed = select_removal(candidates + [correctness(new_tree, chunk, NEW_MODEL)])
            if removed != NEW_MODEL:
                origins = origins[:removed] + origins[removed + 1 :] + [t]
        else:
            origins.append(t)
        assert [f.origin_chunk_index for f in updated.models] == origins
        archive = updated


def test_no_transfer_suffers_on_abrupt_inversion():
    from driftel.dtel import predict_ensemble_chunk

    rng = make_rng(71)
    schema = random_schema(rng, max_features=1, num_classes=2)
    cfg = DtelConfig(m=4)
    base = [random_consistent_chunk(rng, schema, 40, index=t) for t in range(8)]
    # abrupt concept change: labels invert at step 4
    chunks = [c if t < 4 else c.with_labels(1 - np.asarray(c.y)) for t, c in enumerate(base)]
    a_full, a_nt = Archive.empty(4), Archive.empty(4)
    full_acc, nt_acc = [], []
    for t, chunk in enumerate(chunks):
        e_full, a_full = process_chunk(a_full, chunk, cfg)
        e_nt, a_nt = process_chunk(a_nt, chunk, cfg, adapt=False)
        if t >= 4:
            probe = chunks[t]
            full_acc.append(np.mean(predict_ensemble_chunk(e_full, probe) == probe.y))
            nt_acc.append(np.mean(predict_ensemble_chunk(e_nt, probe) == probe.y))
    assert np.mean(full_acc) > np.mean(nt_acc)


def test_accuracy_archive_examples():
    rng = make_rng(73)
    schema = random_schema(rng, max_features=1, num_classes=2)
    cfg = DtelConfig(m=2)
    archive = Archive.empty(2)
    # all candidates equally accurate -> oldest removed
    chunk0 = random_consistent_chunk(rng, schema, 20, index=0)
    for t in range(3):
        chunk = chunk0.with_labels(chunk0.y)
        object.__setattr__(chunk, "index", t)
        _, archive = process_chunk(archive, chunk, cfg, diverse=False)
    assert [m.origin_chunk_index for m in archive.models] == [1, 2]


def test_accuracy_archive_removes_zero_accuracy_model():
    cfg = DtelConfig(m=2)
    base = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1], index=5)
    inverted_tree = train_cart(base.with_labels(1 - np.asarray(base.y)), UNBOUNDED)
    object.__setattr__(inverted_tree, "origin_chunk_index", 3)
    good_tree = train_cart(base, UNBOUNDED)
    object.__setattr__(good_tree, "origin_chunk_index", 4)
    archive = Archive((inverted_tree, good_tree), 2)
    _, updated = process_chunk(archive, base, cfg, diverse=False)
    assert inverted_tree not in updated.models
    assert good_tree in updated.models


def test_accuracy_archive_diverges_from_diversity_archive():
    # candidates where the least accurate model contributes the most
    # diversity: constant predictors on a 60%-ones chunk
    cfg = DtelConfig(m=2, stopping=StoppingParams(max_depth=0))
    ones = numeric_chunk([1, 2, 3, 4, 5], [1, 1, 1, 1, 1], index=0)
    zeros = numeric_chunk([1, 2, 3, 4, 5], [0, 0, 0, 0, 0], index=1)
    mixed = numeric_chunk([1, 2, 3, 4, 5], [1, 1, 1, 0, 0], index=2)

    div_archive = Archive.empty(2)
    _, div_archive = process_chunk(div_archive, ones, cfg)
    _, div_archive = process_chunk(div_archive, zeros, cfg)
    _, div_archive = process_chunk(div_archive, mixed, cfg)

    acc_archive = Archive.empty(2)
    _, acc_archive = process_chunk(acc_archive, ones, cfg, diverse=False)
    _, acc_archive = process_chunk(acc_archive, zeros, cfg, diverse=False)
    _, acc_archive = process_chunk(acc_archive, mixed, cfg, diverse=False)

    # diversity keeps the all-zeros model (complementary); accuracy drops it
    assert [m.origin_chunk_index for m in div_archive.models] == [1, 2]
    assert [m.origin_chunk_index for m in acc_archive.models] == [0, 2]


def test_baselines_respect_capacity_and_determinism():
    rng = make_rng(79)
    schema = random_schema(rng, max_features=2, num_classes=2)
    chunks = [random_consistent_chunk(rng, schema, 20, index=t) for t in range(6)]
    probe = random_consistent_chunk(rng, schema, 30, index=50)
    for name in ALGORITHMS:
        preds = []
        for _ in range(2):
            learner = make_learner(name, DtelConfig(m=2))
            for chunk in chunks:
                learner.update(chunk)
            preds.append(learner.predict_chunk(probe))
        assert np.array_equal(preds[0], preds[1])
