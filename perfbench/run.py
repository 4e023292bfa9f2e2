"""Step-latency benchmark of the driftel learners on drifting streams.

    python3 perfbench/run.py --workload dtel-sea200a --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                  # every workload, each in a fresh process

A run drives the public learner API the way a user does: ``make_learner``,
then ``learner.update(train)`` and ``learner.predict_chunk(test)`` on each of
the 120 steps of a preset stream, timing each call from outside. One
operation is one step: its update, its prediction and its checks, which run
between the timed calls. A run repeats whole 120-step rounds until
``--seconds`` have passed, and always runs at least one.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
traced round. See README.md for the metrics, the workloads and reference
figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# workload -> (algorithm, preset)
WORKLOADS = {
    "dtel-sea200a": ("dtel", "SEA200A"),
    "dtel-sta200a": ("dtel", "STA200A"),
    "sea-sea200a": ("sea", "SEA200A"),
}
M = 25
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "cell_s": "s",
    "update_ms_p50": "ms",
    "update_ms_p90": "ms",
    "predict_ms_p50": "ms",
    "accuracy_pct": "%",
    "peak_rss_mb": "MB",
}

# Run in a fresh interpreter: what a user waits for before the first step.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import driftel
driftel.make_stream(driftel.preset_config(sys.argv[1], seed=int(sys.argv[2])))
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here (program missing or broken)."""


def load_driftel():
    """Import driftel from this checkout's ``src`` and nowhere else."""
    for var in THREAD_VARS:  # before numpy starts its thread pools
        os.environ[var] = "1"
    if not (SRC / "driftel" / "__init__.py").is_file():
        raise BenchError(f"no driftel package under {SRC}")
    sys.path.insert(0, str(SRC))
    import driftel

    if SRC not in Path(driftel.__file__).resolve().parents:
        raise BenchError(f"driftel imported from {driftel.__file__}, not from {SRC}")
    return driftel


def setup_seconds(preset: str, seed: int) -> float:
    """Median over fresh interpreters of importing driftel and generating the
    stream."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, preset, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up process failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Round:
    """One pass over the stream. Times and accuracies are of the operations
    that did not fail; ``wrong`` counts those failed by a check, not by an
    exception."""

    updates: list = field(default_factory=list)
    predicts: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0

    @property
    def cell_s(self) -> float:
        return sum(self.updates) + sum(self.predicts)


def run_round(driftel, algorithm, stream, checker, tracer=None, each_step=None) -> Round:
    """One pass over the stream with a fresh learner. ``each_step(pair)``, if
    given, runs before each step's timed calls."""
    learner = driftel.make_learner(algorithm, driftel.DtelConfig(m=M))
    r = Round()
    for step, pair in enumerate(stream):
        try:
            if each_step is not None:
                each_step(pair)
            before = checker.before(learner)
            if tracer is not None:
                tracer.step, tracer.phase = step, "update"
            t0 = time.perf_counter()
            learner.update(pair.train)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.phase = "predict"
            pred = learner.predict_chunk(pair.test)
            t2 = time.perf_counter()
            if tracer is not None:
                tracer.phase = None
                tracer.after_step(learner)
            problems = checker.check(step, pair, learner, before, pred)
            r.wrong += bool(problems)
        except Exception:
            if tracer is not None:
                tracer.phase = None
            problems = [traceback.format_exc()]
        if problems:
            r.failed += 1
            print(f"step {step} FAILED: " + "; ".join(problems), file=sys.stderr)
            continue
        r.updates.append(t1 - t0)
        r.predicts.append(t2 - t1)
        r.accuracy.append(float((pred == pair.test.y).mean()))
    if tracer is not None:
        tracer.finish(learner)
    return r


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    algorithm, preset = WORKLOADS[name]
    driftel = load_driftel()
    import checks

    cart = driftel.cart
    if algorithm == "dtel":
        checker = checks.DtelStepChecker(cart, preset, M, driftel.DtelConfig().epsilon)
    else:
        checker = checks.SeaStepChecker(cart, preset, M)
    config = driftel.preset_config(preset, seed=seed)
    if trace:
        return run_traced(driftel, name, algorithm, config, checker, seed)

    setup_s = setup_seconds(preset, seed)
    stream = driftel.make_stream(config)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(driftel, algorithm, stream, checker))
    updates = [u for r in rounds for u in r.updates]
    predicts = [p for r in rounds for p in r.predicts]
    if not updates:
        raise BenchError("every operation failed")
    values = {
        "setup_s": setup_s,
        "cell_s": statistics.median(r.cell_s for r in rounds),
        "update_ms_p50": 1e3 * statistics.median(updates),
        "update_ms_p90": 1e3 * nearest_rank(updates, 0.9),
        "predict_ms_p50": 1e3 * statistics.median(predicts),
        "accuracy_pct": 100.0 * statistics.fmean(a for r in rounds for a in r.accuracy),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{name} seed {seed}: {len(rounds)} round(s) of {len(stream)} steps")
    return result(rounds, len(stream), values, END_TO_END)


def run_traced(driftel, name, algorithm, config, checker, seed) -> dict:
    """One traced and checked round. Before each traced step a second,
    untraced learner takes the same step, so the tracing overhead compares
    the two under the same machine conditions."""
    import layertrace

    untraced = driftel.make_learner(algorithm, driftel.DtelConfig(m=M))
    untraced_s = []

    def untraced_step(pair):
        t0 = time.perf_counter()
        untraced.update(pair.train)
        untraced.predict_chunk(pair.test)
        untraced_s.append(time.perf_counter() - t0)

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        stream = driftel.streams.make_stream(config)
        tracer.phase = None
        traced = run_round(driftel, algorithm, stream, checker, tracer, untraced_step)
    finally:
        tracer.uninstall()
    if not traced.updates:
        raise BenchError("every operation failed")
    timing, counts, absent = tracer.summary(traced.cell_s, sum(untraced_s))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{name}-s{seed}", timing, counts, absent)
    for metric in absent:
        print(f"layer metric {metric}: absent (its traced function no longer exists)")
    units = {m: u for m, (u, _needs) in {**layertrace.TIMING, **layertrace.COUNTS}.items()}
    print(f"{name} seed {seed}: spans written to {OUT.relative_to(ROOT)}/{name}-s{seed}.*")
    return result([traced], len(stream), {**timing, **counts}, units)


def result(rounds, steps, values, units) -> dict:
    """The run's result line: ``correct`` is false if any check found a wrong
    output; ``failed`` also counts operations that raised."""
    for metric, value in values.items():
        print(f"{metric} = {value!r} {units[metric]}")
    return {
        "correct": not any(r.wrong for r in rounds),
        "attempted": len(rounds) * steps,
        "failed": sum(r.failed for r in rounds),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        one = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
