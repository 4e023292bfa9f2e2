"""Run algorithms over streams, score per-chunk accuracy, summarize, and
compare with the Wilcoxon rank-sum test.

One scoring loop, ``run_synthetic``, serves two protocols:
* paired synthetic: at each step the learner trains on the pair's train chunk
  and is then scored on the same step's test chunk (the learner never sees a
  test chunk through its update interface);
* prequential: each chunk first scores the model from the previous step, then
  updates it; step 0 only trains, so it contributes no accuracy record. Step
  k of a prequential run is the loop's step on chunks k and k + 1.

A step's seconds are the update and the prediction behind its accuracy.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import _readonly

A_BETTER = "a_better"
B_BETTER = "b_better"
TIE = "tie"


@dataclass(frozen=True, eq=False)
class RunResult:
    algorithm: str
    stream: str
    seed: int
    per_chunk_accuracy: np.ndarray
    seconds: np.ndarray  # wall time per accuracy (zeros when timing is disabled)

    def __post_init__(self):
        acc = _readonly(np.asarray(self.per_chunk_accuracy, dtype=np.float64))
        sec = _readonly(np.asarray(self.seconds, dtype=np.float64))
        if acc.size and (acc.min() < 0.0 or acc.max() > 1.0):
            raise ValueError("accuracies must lie in [0, 1]")
        if acc.shape != sec.shape:
            raise ValueError("a run needs one wall time per accuracy")
        object.__setattr__(self, "per_chunk_accuracy", acc)
        object.__setattr__(self, "seconds", sec)

    @property
    def run_id(self) -> str:
        return f"{self.algorithm}__{self.stream}__s{self.seed}"


@dataclass(frozen=True)
class Summary:
    mean: float
    std: float  # sample (n-1) standard deviation over chunks


def run_synthetic(learner, stream, *, stream_id: str = "", seed: int = 0, record_wall_time: bool = True) -> RunResult:
    """The scoring loop: at each step, update on ``train`` and score the
    result on ``test``, for every (train, test) pair of ``stream``."""
    accs, secs = [], []
    for step, (train, test) in enumerate(stream):
        t0 = time.perf_counter()
        try:
            learner.update(train)
            pred = learner.predict_chunk(test)
        except Exception as exc:
            raise RuntimeError(f"algorithm failed at step {step}: {exc}") from exc
        elapsed = time.perf_counter() - t0
        accs.append(float(np.mean(pred == test.y)))
        secs.append(elapsed if record_wall_time else 0.0)
    return RunResult(getattr(learner, "name", "unknown"), stream_id, seed, accs, secs)


def run_prequential(learner, chunks, *, stream_id: str = "", seed: int = 0, record_wall_time: bool = True) -> RunResult:
    """Test-then-train protocol over bare chunks: ``run_synthetic`` on each
    chunk and the next, then an untimed update on the last chunk, so that
    the learner ends trained on every chunk."""
    chunks = list(chunks)
    result = run_synthetic(learner, zip(chunks, chunks[1:]), stream_id=stream_id, seed=seed,
                           record_wall_time=record_wall_time)
    if chunks:
        try:
            learner.update(chunks[-1])
        except Exception as exc:
            raise RuntimeError(f"algorithm failed at step {len(chunks) - 1}: {exc}") from exc
    return result


def summarize(result: RunResult | np.ndarray) -> Summary:
    v = result.per_chunk_accuracy if isinstance(result, RunResult) else np.asarray(result, dtype=np.float64)
    if v.size == 0:
        raise ValueError("nothing to summarize")
    std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
    return Summary(float(np.mean(v)), std)


@dataclass(frozen=True)
class RankSumResult:
    direction: str  # "a_better" | "b_better" | "tie"
    u_a: float  # Mann-Whitney U of the first sample
    z: float
    p_value: float


def _midranks(values: np.ndarray) -> np.ndarray:
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    avg_rank = cum - (counts - 1) / 2.0
    return avg_rank[inverse]


def rank_sum_test(a, b, alpha: float = 0.05) -> RankSumResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney) with midrank ties and the
    tie-corrected normal approximation. Direction follows the mean ranks."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise ValueError("rank_sum_test needs non-empty samples")
    n1, n2 = x.size, y.size
    combined = np.concatenate([x, y])
    ranks = _midranks(combined)
    r_a = float(ranks[:n1].sum())
    u_a = r_a - n1 * (n1 + 1) / 2.0
    _, counts = np.unique(combined, return_counts=True)
    n = n1 + n2
    tie_term = float(((counts**3 - counts).sum())) / (n * (n - 1))
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var_u <= 0:
        return RankSumResult(TIE, u_a, 0.0, 1.0)
    z = (u_a - n1 * n2 / 2.0) / math.sqrt(var_u)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    if p >= alpha:
        return RankSumResult(TIE, u_a, z, p)
    return RankSumResult(A_BETTER if u_a > n1 * n2 / 2.0 else B_BETTER, u_a, z, p)


RESULT_COLUMNS = ("run_id", "algorithm", "stream", "step", "accuracy", "seconds")
SUMMARY_COLUMNS = ("algorithm", "stream", "mean_accuracy", "std_accuracy", "n_chunks")


def write_results_csv(results, path) -> None:
    """One row per evaluated step, full-precision accuracy."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for res in results:
            for step, (acc, sec) in enumerate(zip(res.per_chunk_accuracy, res.seconds)):
                writer.writerow(
                    [res.run_id, res.algorithm, res.stream, step, repr(float(acc)), f"{sec:.6f}"]
                )


def pool_accuracies(results) -> dict[tuple[str, str], list[float]]:
    """Per-chunk accuracies pooled over seeds per (algorithm, stream)."""
    pooled: dict[tuple[str, str], list[float]] = {}
    for res in results:
        pooled.setdefault((res.algorithm, res.stream), []).extend(res.per_chunk_accuracy)
    return pooled


def write_summary_csv(results, path) -> None:
    """Mean/std of per-chunk accuracy pooled per (algorithm, stream)."""
    pooled = pool_accuracies(results)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for (alg, stream) in sorted(pooled):
            s = summarize(np.asarray(pooled[(alg, stream)]))
            writer.writerow([alg, stream, repr(s.mean), repr(s.std), len(pooled[(alg, stream)])])


def read_results_csv(path) -> list[RunResult]:
    """Reassemble run results from a results CSV (grouped by run_id)."""
    grouped: dict[str, dict] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != RESULT_COLUMNS:
            raise ValueError(f"{path}: expected columns {','.join(RESULT_COLUMNS)}")
        for row in reader:
            g = grouped.setdefault(
                row["run_id"],
                {"algorithm": row["algorithm"], "stream": row["stream"], "rows": []},
            )
            g["rows"].append((int(row["step"]), float(row["accuracy"]), float(row["seconds"])))
    out = []
    for run_id, g in grouped.items():
        _steps, accs, secs = zip(*sorted(g["rows"]))
        seed = int(run_id.rsplit("__s", 1)[1]) if "__s" in run_id else 0
        out.append(RunResult(g["algorithm"], g["stream"], seed, accs, secs))
    return out
