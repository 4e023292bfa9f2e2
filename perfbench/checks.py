"""Per-step correctness checks for the benchmark workloads.

Every check compares what the program produced against a computation made
here, from the inputs alone, or against a property the method must have.
None compares against stored output. The pure functions take plain arrays so
that ``selftest.py`` can feed them corrupted outputs; the ``*StepChecker``
classes pull those arrays out of a learner after each step.

Each function returns a list of problems; an empty list means the check held.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

# The documented concepts of the two presets the workloads use, written out
# here instead of read from the generator. SEA: label 1 iff x0 + x1 <= theta.
SEA_A_THETA = (10.0, 7.0, 3.0, 7.0, 10.0, 13.0, 16.0, 13.0)
# STAGGER: label 1 iff (color == a) <and|or> (shape == b); codes follow the
# domain order, color (R, B, G) and shape (C, S, T).
R, B, G = 0, 1, 2
C, S, T = 0, 1, 2
STA_A_RULES = (
    (R, "and", C),
    (B, "or", C),
    (G, "or", S),
    (G, "and", T),
    (G, "or", C),
    (R, "or", S),
)
N_STEPS = 120
NOISE_RATE = 0.10

# Relative slack for float comparisons whose two sides sum in another order.
REL_TOL = 1e-9


def concept_labels(preset: str, step: int, X: np.ndarray) -> np.ndarray:
    """Noise-free labels of ``X`` under the concept active at ``step``."""
    if preset == "SEA200A":
        theta = SEA_A_THETA[min(step // (N_STEPS // len(SEA_A_THETA)), len(SEA_A_THETA) - 1)]
        return (X[:, 0] + X[:, 1] <= theta).astype(np.int64)
    if preset == "STA200A":
        a, op, b = STA_A_RULES[min(step // (N_STEPS // len(STA_A_RULES)), len(STA_A_RULES) - 1)]
        color, shape = X[:, 0] == a, X[:, 1] == b
        hit = (color & shape) if op == "and" else (color | shape)
        return hit.astype(np.int64)
    raise ValueError(f"no concept written out for preset {preset!r}")


def check_test_labels(expected: np.ndarray, y_test: np.ndarray) -> list[str]:
    wrong = int(np.count_nonzero(expected != y_test))
    return [f"{wrong} test labels break the concept rule"] if wrong else []


def check_noise(expected: np.ndarray, y_train: np.ndarray) -> list[str]:
    flipped = int(np.count_nonzero(expected != y_train))
    want = int(NOISE_RATE * y_train.size)
    if flipped != want:
        return [f"{flipped} training labels differ from the concept rule, expected {want}"]
    return []


def check_stream(preset: str, step: int, pair) -> list[str]:
    return (check_test_labels(concept_labels(preset, step, pair.test.X), pair.test.y)
            + check_noise(concept_labels(preset, step, pair.train.X), pair.train.y))


def fit_bound(X: np.ndarray, y: np.ndarray, num_classes: int) -> int:
    """Training instances a fully grown CART gets right: for every distinct
    feature row, the count of its majority label."""
    _, row = np.unique(X, axis=0, return_inverse=True)
    row = row.reshape(-1)
    counts = np.bincount(row * num_classes + y, minlength=(row.max() + 1) * num_classes)
    return int(counts.reshape(-1, num_classes).max(axis=1).sum())


def check_fit(what: str, pred_train: np.ndarray, y_train: np.ndarray, bound: int) -> list[str]:
    correct = int(np.count_nonzero(pred_train == y_train))
    if correct != bound:
        return [f"{what} fits {correct} training instances, a fully grown tree fits {bound}"]
    return []


def mse_random(y: np.ndarray, num_classes: int) -> float:
    p = np.bincount(y, minlength=num_classes) / y.size
    return float(np.sum(p * (1.0 - p) ** 2))


def check_weights(new_weight: float, adapted_weights, y_train: np.ndarray,
                  num_classes: int, epsilon: float) -> list[str]:
    problems = []
    want = 1.0 / (mse_random(y_train, num_classes) + epsilon)
    if abs(new_weight - want) > REL_TOL * want:
        problems.append(f"new member weight {new_weight!r}, expected 1/(mse_r+eps) = {want!r}")
    over = [w for w in adapted_weights if not w <= new_weight]
    if over:
        problems.append(f"{len(over)} adapted weights exceed the new member's weight")
    return problems


def check_vote(pred: np.ndarray, weights, posteriors) -> list[str]:
    """The prediction must be an argmax of sum_i w_i * posterior_i. Classes
    within REL_TOL of a row's maximum are accepted, since a tie can fall either
    way under another summation order."""
    score = sum(w * p for w, p in zip(weights, posteriors))
    top = score.max(axis=1)
    got = score[np.arange(pred.size), pred]
    wrong = int(np.count_nonzero(got < top - REL_TOL * np.abs(top)))
    return [f"{wrong} predictions are not the weighted soft-vote argmax"] if wrong else []


def vote_counts(preds, num_classes: int) -> np.ndarray:
    """Per-class vote counts of per-model label vectors; their argmax is the
    majority vote with ties to the lowest class."""
    n = preds[0].size
    counts = np.zeros((n, num_classes), dtype=np.int64)
    for p in preds:
        counts[np.arange(n), p] += 1
    return counts


def check_majority(pred: np.ndarray, member_preds, num_classes: int) -> list[str]:
    wrong = int(np.count_nonzero(pred != vote_counts(member_preds, num_classes).argmax(axis=1)))
    return [f"{wrong} predictions differ from the majority vote"] if wrong else []


def check_appended(before, after, new_model) -> list[str]:
    """Under capacity the step appends the new model and changes nothing else."""
    if (len(after) == len(before) + 1 and after[-1] is new_model
            and all(a is b for a, b in zip(after, before))):
        return []
    return ["under capacity the new tree was not simply appended"]


def check_archive_size(step: int, size: int, capacity: int) -> list[str]:
    want = min(step + 1, capacity)
    return [f"archive holds {size} models after step {step}, expected {want}"] if size != want else []


def q_matrix(bits: np.ndarray):
    """Yule's Q for every pair of columns of an (n, k) 0/1 correctness matrix,
    as integer numerators and denominators (Q := 0 where the denominator is 0)."""
    b = bits.astype(np.int64)
    n = b.shape[0]
    n11 = b.T @ b
    right = b.sum(axis=0)
    n10 = right[:, None] - n11
    n01 = right[None, :] - n11
    n00 = n - n11 - n10 - n01
    return n11 * n00 - n01 * n10, n11 * n00 + n01 * n10


def expected_removal(bits: np.ndarray) -> int:
    """Column of ``bits`` (oldest archived model first, the new model last)
    whose removal leaves the most diverse set, by brute force over every
    candidate. Diversity is 1 minus the mean pairwise Q of the rest. Ties drop
    the oldest archived model; the new model goes only as the sole best."""
    num, den = q_matrix(bits)
    k = bits.shape[1]
    q = np.divide(num, den, out=np.zeros(num.shape), where=den != 0)
    pairs = comb(k - 1, 2)
    div = np.empty(k)
    for c in range(k):
        rest = np.delete(np.arange(k), c)
        sub = q[np.ix_(rest, rest)]
        div[c] = 1.0 - np.triu(sub, 1).sum() / pairs
    near = np.flatnonzero(div >= div.max() - REL_TOL)
    if near.size > 1:
        # Settle close calls with exact sums of the rest's pairwise Q (the
        # smallest sum is the most diverse rest). Equal columns score equally.
        rest_q = {}
        for c in near:
            key = bits[:, c].tobytes()
            if key not in rest_q:
                rest = [i for i in range(k) if i != c]
                rest_q[key] = sum(
                    (Fraction(int(num[i, j]), int(den[i, j]))
                     for a, i in enumerate(rest) for j in rest[a + 1:] if den[i, j]),
                    Fraction(0),
                )
        best = min(rest_q.values())
        near = [c for c in near if rest_q[bits[:, c].tobytes()] == best]
    return int(near[0])  # columns run oldest first, the new model last


def removed_index(before, new_model, after) -> int | None:
    """Which candidate the program dropped, as a column of ``expected_removal``
    (``len(before)`` for the new model); None if ``after`` is no such result."""
    if len(after) == len(before) and all(a is b for a, b in zip(after, before)):
        return len(before)
    if len(after) != len(before) or after[-1] is not new_model:
        return None
    kept = list(after[:-1])
    for slot in range(len(before)):
        rest = before[:slot] + before[slot + 1:]
        if len(rest) == len(kept) and all(a is b for a, b in zip(rest, kept)):
            return slot
    return None


def check_removal(before, new_model, after, bits: np.ndarray) -> list[str]:
    got = removed_index(before, new_model, after)
    if got is None:
        return ["archive after the step is not the old archive with one candidate dropped"]
    want = expected_removal(bits)
    if got != want:
        return [f"archive dropped candidate {got}, the most diverse rest drops {want}"]
    return []


def check_sea_swap(before, after, before_train_preds, new_train_pred,
                   y_train: np.ndarray, num_classes: int) -> list[str]:
    """At capacity the ensemble changes only by the single swap of an old tree
    for the new one that most raises majority-vote accuracy on the chunk (the
    oldest slot on ties), and only when that strictly beats the unchanged
    ensemble."""
    if len(after) != len(before):
        return ["at capacity the ensemble changed size"]
    base = vote_counts(before_train_preds, num_classes)
    base_correct = int(np.count_nonzero(base.argmax(axis=1) == y_train))
    rows = np.arange(y_train.size)
    swap_correct = []
    for p in before_train_preds:
        counts = base.copy()
        counts[rows, p] -= 1
        counts[rows, new_train_pred] += 1
        swap_correct.append(int(np.count_nonzero(counts.argmax(axis=1) == y_train)))
    best = max(swap_correct)
    changed = [s for s, (a, b) in enumerate(zip(after, before)) if a is not b]
    if not changed:
        if best > base_correct:
            return [f"ensemble kept although a swap raises vote accuracy {base_correct} -> {best}"]
        return []
    if len(changed) != 1:
        return [f"{len(changed)} ensemble slots changed in one step"]
    slot = changed[0]
    if swap_correct[slot] <= base_correct:
        return [f"swap at slot {slot} does not raise vote accuracy ({base_correct} -> {swap_correct[slot]})"]
    if slot != swap_correct.index(best):
        return [f"swap at slot {slot}, the best swap is slot {swap_correct.index(best)}"]
    return []


class DtelStepChecker:
    """Checks one dtel step from the learner's ensemble and archive."""

    def __init__(self, cart, preset: str, capacity: int, epsilon: float):
        self.cart = cart
        self.preset = preset
        self.capacity = capacity
        self.epsilon = epsilon

    def before(self, learner):
        return learner.archive.models

    def check(self, step, pair, learner, before, pred) -> list[str]:
        train, test = pair.train, pair.test
        K = train.schema.num_classes
        problems = check_stream(self.preset, step, pair)
        members = learner.ensemble.members
        new = [m for m in members if m.kind == "new"]
        adapted = [m for m in members if m.kind == "adapted"]
        if len(new) != 1 or len(adapted) != len(before):
            return problems + [f"{len(new)} new and {len(adapted)} adapted members "
                               f"for an archive of {len(before)}"]
        new_tree = new[0].tree
        bound = fit_bound(train.X, train.y, K)
        train_pred = {}
        for m in members:
            train_pred[id(m.tree)] = self.cart.predict_chunk(m.tree, train)
            problems += check_fit(f"{m.kind} member", train_pred[id(m.tree)], train.y, bound)
        problems += check_weights(new[0].weight, [m.weight for m in adapted], train.y, K, self.epsilon)
        problems += check_vote(pred, [m.weight for m in members],
                               [self.cart.posterior_chunk(m.tree, test) for m in members])
        after = learner.archive.models
        problems += check_archive_size(step, len(after), self.capacity)
        if len(before) < self.capacity:
            problems += check_appended(before, after, new_tree)
        else:
            preds = [self.cart.predict_chunk(t, train) for t in before] + [train_pred[id(new_tree)]]
            bits = np.stack([p == train.y for p in preds], axis=1)
            problems += check_removal(before, new_tree, after, bits)
        return problems


class SeaStepChecker:
    """Checks one step of the ``sea`` baseline from its ensemble."""

    def __init__(self, cart, preset: str, capacity: int):
        self.cart = cart
        self.preset = preset
        self.capacity = capacity

    def before(self, learner):
        return learner.state.models

    def check(self, step, pair, learner, before, pred) -> list[str]:
        train, test = pair.train, pair.test
        K = train.schema.num_classes
        problems = check_stream(self.preset, step, pair)
        after = learner.state.models
        problems += check_majority(pred, [self.cart.predict_chunk(t, test) for t in after], K)
        fresh = [t for t in after if not any(t is b for b in before)]
        # A discarded new tree is not in the ensemble; train_cart is
        # deterministic, so training again on the chunk gives the same tree.
        new_tree = fresh[0] if fresh else self.cart.train_cart(train, learner.cfg.stopping)
        new_pred = self.cart.predict_chunk(new_tree, train)
        problems += check_fit("new tree", new_pred, train.y, fit_bound(train.X, train.y, K))
        if len(before) < self.capacity:
            return problems + check_appended(before, after, new_tree)
        return problems + check_sea_swap(before, after,
                                         [self.cart.predict_chunk(t, train) for t in before],
                                         new_pred, train.y, K)
