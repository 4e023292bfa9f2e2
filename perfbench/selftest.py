"""Self-test of the benchmark's checks: each must pass on the program's real
output and fail on a corrupted copy of it.

    python3 perfbench/selftest.py

Runs a few steps of dtel and sea with a small capacity (3) on SEA200A, so
that archive replacement happens within seconds, and exits 1 if any check
misses its corruption or rejects a clean output.
"""

from __future__ import annotations

import sys

import run

CAPACITY = 3
STEPS = 40


def main() -> int:
    driftel = run.load_driftel()
    import checks
    import numpy as np

    cart = driftel.cart
    stream = driftel.make_stream(driftel.preset_config("SEA200A", seed=1))[:STEPS]
    outcomes = []

    def expect(what, clean, corrupted):
        ok = not clean and bool(corrupted)
        outcomes.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}: clean -> {clean or 'holds'}; "
              f"corrupted -> {corrupted or 'holds'}")

    # dtel: the first step that evicts an archived model.
    learner = driftel.make_learner("dtel", driftel.DtelConfig(m=CAPACITY))
    dtel_checker = checks.DtelStepChecker(cart, "SEA200A", CAPACITY, learner.cfg.epsilon)
    for step, pair in enumerate(stream):
        before = dtel_checker.before(learner)
        learner.update(pair.train)
        pred = learner.predict_chunk(pair.test)
        clean = dtel_checker.check(step, pair, learner, before, pred)
        if clean:
            print(f"FAIL dtel step {step} rejected: {clean}")
            return 1
        after = learner.archive.models
        if len(before) == CAPACITY and after[-1] is not before[-1] and len(after) == CAPACITY:
            break
    else:
        print("FAIL no dtel eviction within the self-test steps")
        return 1
    train, test = pair.train, pair.test
    K = train.schema.num_classes
    members = learner.ensemble.members
    weights = [m.weight for m in members]
    posts = [cart.posterior_chunk(m.tree, test) for m in members]

    score = sum(w * p for w, p in zip(weights, posts))
    row = int(np.argmax(np.abs(score[:, 0] - score[:, 1])))
    flipped = pred.copy()
    flipped[row] = 1 - flipped[row]
    expect("dtel flipped prediction", checks.check_vote(pred, weights, posts),
           checks.check_vote(flipped, weights, posts))

    new_w = next(m.weight for m in members if m.kind == "new")
    adapted_w = [m.weight for m in members if m.kind == "adapted"]
    expect("perturbed new-member weight",
           checks.check_weights(new_w, adapted_w, train.y, K, learner.cfg.epsilon),
           checks.check_weights(new_w * (1 + 1e-6), adapted_w, train.y, K, learner.cfg.epsilon))
    expect("adapted weight above the new member's",
           checks.check_weights(new_w, adapted_w, train.y, K, learner.cfg.epsilon),
           checks.check_weights(new_w, adapted_w[:-1] + [new_w * 1.01], train.y, K,
                                learner.cfg.epsilon))

    new_tree = after[-1]
    bits = np.stack([cart.predict_chunk(t, train) == train.y for t in (*before, new_tree)], axis=1)
    dropped = checks.removed_index(before, new_tree, after)
    other = (dropped + 1) % CAPACITY
    wrong = before[:other] + before[other + 1:] + (new_tree,)
    expect("wrong eviction", checks.check_removal(before, new_tree, after, bits),
           checks.check_removal(before, new_tree, wrong, bits))
    expect("new model kept out instead of the eviction",
           checks.check_removal(before, new_tree, after, bits),
           checks.check_removal(before, new_tree, before, bits))
    expect("archive size", checks.check_archive_size(step, len(after), CAPACITY),
           checks.check_archive_size(step, len(after) - 1, CAPACITY))

    relabeled = test.y.copy()
    relabeled[0] = 1 - relabeled[0]
    rule_test = checks.concept_labels("SEA200A", step, test.X)
    expect("relabeled test row", checks.check_test_labels(rule_test, test.y),
           checks.check_test_labels(rule_test, relabeled))
    noisy = train.y.copy()
    rule_train = checks.concept_labels("SEA200A", step, train.X)
    clean_row = int(np.flatnonzero(noisy == rule_train)[0])
    noisy[clean_row] = 1 - noisy[clean_row]
    expect("one extra noisy training label", checks.check_noise(rule_train, train.y),
           checks.check_noise(rule_train, noisy))

    bound = checks.fit_bound(train.X, train.y, K)
    stump = cart.train_cart(train, cart.StoppingParams(max_depth=1))
    expect("tree short of the full-growth fit",
           checks.check_fit("new tree", cart.predict_chunk(new_tree, train), train.y, bound),
           checks.check_fit("stump", cart.predict_chunk(stump, train), train.y, bound))

    # sea: the first step that swaps the new tree in.
    learner = driftel.make_learner("sea", driftel.DtelConfig(m=CAPACITY))
    sea_checker = checks.SeaStepChecker(cart, "SEA200A", CAPACITY)
    for step, pair in enumerate(stream):
        before = sea_checker.before(learner)
        learner.update(pair.train)
        pred = learner.predict_chunk(pair.test)
        clean = sea_checker.check(step, pair, learner, before, pred)
        if clean:
            print(f"FAIL sea step {step} rejected: {clean}")
            return 1
        after = learner.state.models
        if len(before) == CAPACITY and any(a is not b for a, b in zip(after, before)):
            break
    else:
        print("FAIL no sea swap within the self-test steps")
        return 1
    train, test = pair.train, pair.test
    member_test = [cart.predict_chunk(t, test) for t in after]
    flipped = pred.copy()
    flipped[0] = 1 - flipped[0]
    expect("sea flipped prediction", checks.check_majority(pred, member_test, K),
           checks.check_majority(flipped, member_test, K))
    slot = next(s for s, (a, b) in enumerate(zip(after, before)) if a is not b)
    new_tree = after[slot]
    new_pred = cart.predict_chunk(new_tree, train)
    old_preds = [cart.predict_chunk(t, train) for t in before]
    clean = checks.check_sea_swap(before, after, old_preds, new_pred, train.y, K)
    expect("sea keeps its ensemble although a swap gains", clean,
           checks.check_sea_swap(before, before, old_preds, new_pred, train.y, K))
    # Any other slot is wrong: it gains less, or as much but is not the oldest.
    other = (slot + 1) % CAPACITY
    elsewhere = before[:other] + (new_tree,) + before[other + 1:]
    expect("sea swaps at the wrong slot", clean,
           checks.check_sea_swap(before, elsewhere, old_preds, new_pred, train.y, K))

    print(f"{sum(outcomes)} of {len(outcomes)} corruptions caught")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
