import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from driftel.baselines import make_learner
from driftel.core import make_rng
from driftel import evaluation
from driftel.dtel import DtelConfig
from driftel.evaluation import (
    A_BETTER,
    B_BETTER,
    TIE,
    RunResult,
    rank_sum_test,
    read_results_csv,
    run_prequential,
    run_synthetic,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from driftel.streams import ChunkPair
from helpers import numeric_chunk, random_consistent_chunk, random_schema


class ConstantLearner:
    name = "constant"

    def __init__(self, label=0):
        self.label = label

    def update(self, chunk):
        pass

    def predict_chunk(self, chunk):
        return np.full(len(chunk), self.label, dtype=np.int64)


class SpyLearner:
    """Records every chunk handed to update()."""

    name = "spy"

    def __init__(self):
        self.seen = []

    def update(self, chunk):
        self.seen.append(chunk)

    def predict_chunk(self, chunk):
        return np.zeros(len(chunk), dtype=np.int64)


def stationary_pairs(n_steps=4, n=30, seed=83):
    rng = make_rng(seed)
    schema = random_schema(rng, max_features=2, num_classes=2)
    pairs = []
    for t in range(n_steps):
        train = random_consistent_chunk(rng, schema, n, index=t)
        pairs.append(ChunkPair(train, train.with_labels(train.y)))
    return pairs


def test_run_synthetic_perfect_learner_scores_one():
    pairs = stationary_pairs()
    learner = make_learner("dtel", DtelConfig(m=2))
    result = run_synthetic(learner, pairs, stream_id="toy", seed=0)
    # each test chunk equals its own train chunk, so the fit is exact
    assert np.all(result.per_chunk_accuracy == 1.0)
    assert result.run_id == "dtel__toy__s0"
    assert result.per_chunk_accuracy.shape == (4,)


def test_run_synthetic_constant_learner_near_prior():
    pairs = [
        ChunkPair(
            numeric_chunk([1, 2, 3, 4], [0, 1, 0, 1], index=t),
            numeric_chunk([5, 6, 7, 8], [0, 1, 0, 1], index=t),
        )
        for t in range(3)
    ]
    result = run_synthetic(ConstantLearner(0), pairs, stream_id="balanced", seed=0)
    assert np.allclose(result.per_chunk_accuracy, 0.5)


def test_run_synthetic_never_shows_test_chunks_to_update():
    pairs = stationary_pairs()
    spy = SpyLearner()
    run_synthetic(spy, pairs, stream_id="spy", seed=0)
    assert spy.seen == [p.train for p in pairs]


def test_run_synthetic_reports_failing_step():
    class Exploder(ConstantLearner):
        name = "boom"

        def update(self, chunk):
            if chunk.index == 2:
                raise RuntimeError("bad split")

    pairs = stationary_pairs()
    with pytest.raises(RuntimeError, match="step 2"):
        run_synthetic(Exploder(), pairs, stream_id="x", seed=0)


def test_run_prequential_single_chunk_yields_no_accuracy():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1], index=0)
    learner = make_learner("dtel", DtelConfig(m=2))
    result = run_prequential(learner, [chunk], stream_id="one", seed=0)
    assert result.per_chunk_accuracy.size == 0
    assert result.seconds.size == 0  # one wall time per accuracy


def test_a_prequential_rows_seconds_are_its_update_and_the_next_prediction(tmp_path, monkeypatch):
    # A fake clock that the learner advances: updating on chunk k takes
    # k + 1 seconds and predicting chunk k takes 100 (k + 1). Row k scores
    # chunk k + 1 with the model updated on chunk k, so its seconds are
    # (k + 1) + 100 (k + 2); the last update is not timed, and the CSV
    # gives back the run that was written.
    clock = [0.0]
    monkeypatch.setattr(evaluation.time, "perf_counter", lambda: clock[0])

    class Ticking(ConstantLearner):
        def update(self, chunk):
            clock[0] += chunk.index + 1

        def predict_chunk(self, chunk):
            clock[0] += 100 * (chunk.index + 1)
            return super().predict_chunk(chunk)

    chunks = [numeric_chunk([1, 2, 3, 4], [0, 0, 0, k % 2], index=k) for k in range(4)]
    result = run_prequential(Ticking(0), chunks, stream_id="tick", seed=3)
    assert result.per_chunk_accuracy.tolist() == [0.75, 1.0, 0.75]
    assert result.seconds.tolist() == [201.0, 302.0, 403.0]
    assert clock[0] == 1 + 2 + 3 + 4 + 200 + 300 + 400
    path = tmp_path / "results.csv"
    write_results_csv([result], path)
    [back] = read_results_csv(path)
    assert back.per_chunk_accuracy.tolist() == result.per_chunk_accuracy.tolist()
    assert back.seconds.tolist() == result.seconds.tolist()


def test_run_result_needs_one_wall_time_per_accuracy():
    with pytest.raises(ValueError, match="one wall time per accuracy"):
        RunResult("a", "s", 0, [0.5, 0.75], [1.0])
    with pytest.raises(ValueError, match="one wall time per accuracy"):
        RunResult("a", "s", 0, [], [1.0])


def test_run_prequential_identical_chunks_score_one_then():
    chunk = numeric_chunk([1, 2, 8, 9], [0, 0, 1, 1], index=0)
    chunks = [chunk, chunk.with_labels(chunk.y)]
    learner = make_learner("dtel", DtelConfig(m=2))
    result = run_prequential(learner, chunks, stream_id="two", seed=0)
    assert np.array_equal(result.per_chunk_accuracy, [1.0])


def test_run_prequential_inverted_concepts_depress_accuracy():
    base = numeric_chunk(np.linspace(0, 10, 40), (np.linspace(0, 10, 40) > 5).astype(int), index=0)
    chunks = []
    for t in range(4):
        labels = base.y if t % 2 == 0 else 1 - np.asarray(base.y)
        c = base.with_labels(labels)
        object.__setattr__(c, "index", t)
        chunks.append(c)
    learner = make_learner("dtel", DtelConfig(m=4))
    result = run_prequential(learner, chunks, stream_id="flip", seed=0)
    # the previous-step model is always wrong about the flipped concept
    assert np.all(result.per_chunk_accuracy < 0.5)


def test_summarize_examples():
    s0 = summarize(np.array([0.9, 0.9]))
    assert s0.mean == pytest.approx(0.9) and s0.std == 0.0
    s = summarize(np.array([1.0, 0.0]))
    assert s.mean == 0.5 and s.std == pytest.approx(np.sqrt(0.5), abs=1e-12)
    s3 = summarize(np.array([0.8, 0.9, 1.0]))
    assert s3.mean == pytest.approx(0.9) and s3.std == pytest.approx(0.1, abs=1e-12)
    assert summarize(np.array([0.7])).std == 0.0


def test_summary_mean_bounded_by_extremes():
    rng = np.random.default_rng(3)
    v = rng.uniform(size=25)
    s = summarize(v)
    assert v.min() <= s.mean <= v.max()


def test_rank_sum_examples():
    assert rank_sum_test([0.5, 0.5, 0.5], [0.5, 0.5, 0.5]).direction == TIE
    res = rank_sum_test([0.9] * 30, [0.1] * 30)
    assert res.direction == A_BETTER
    res = rank_sum_test([1, 2, 3], [4, 5, 6])
    assert res.u_a == 0.0  # all nine pairwise comparisons favor b
    assert res.direction == B_BETTER


def test_rank_sum_matches_scipy_normal_approximation():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n1, n2 = rng.integers(3, 30, size=2)
        a = rng.normal(size=n1).round(1)  # rounding forces ties
        b = rng.normal(loc=rng.normal(), size=n2).round(1)
        ours = rank_sum_test(a, b)
        ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic", use_continuity=False)
        assert ours.u_a == pytest.approx(ref.statistic)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=25),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=25),
)
def test_rank_sum_antisymmetric(a, b):
    fwd = rank_sum_test(a, b)
    rev = rank_sum_test(b, a)
    if fwd.direction == TIE:
        assert rev.direction == TIE
    else:
        assert {fwd.direction, rev.direction} == {A_BETTER, B_BETTER}


def test_results_csv_roundtrip(tmp_path):
    r1 = RunResult("dtel", "SEA200A", 1, [0.5, 0.75], [0.1, 0.2])
    r2 = RunResult("sea", "SEA200A", 1, [0.25, 0.5], [0.0, 0.0])
    path = tmp_path / "results.csv"
    write_results_csv([r1, r2], path)
    loaded = sorted(read_results_csv(path), key=lambda r: r.algorithm)
    assert [r.algorithm for r in loaded] == ["dtel", "sea"]
    assert np.array_equal(loaded[0].per_chunk_accuracy, r1.per_chunk_accuracy)
    assert loaded[0].seed == 1
    summary_path = tmp_path / "summary.csv"
    write_summary_csv([r1, r2], summary_path)
    text = summary_path.read_text()
    assert text.splitlines()[0] == "algorithm,stream,mean_accuracy,std_accuracy,n_chunks"
    assert "dtel,SEA200A,0.625," in text


def test_run_result_validation():
    with pytest.raises(ValueError):
        RunResult("a", "s", 0, [1.5], [0.0])
