"""Interleaved parent/change runs of the perfbench workloads, written to a
BENCH file.

    python scripts/bench_pairs.py --parent ../parent --change . --pairs 5 --tag fused_transfer

Each checkout is run with its own ``perfbench/run.py --workload W --seconds 0``
(one 120-step round per run), so each side imports its own ``src``. Every
run starts from a fresh temporary copy of its side's ``src/``, ``perfbench/``
and ``BENCHMARK.json``, without ``__pycache__``: both sides then compile
their modules alike, and a stale ``.pyc`` in one checkout cannot add its
compilation to that side's ``setup_s`` only. Pairs
alternate the order, parent first in odd pairs and change first in even
pairs, so a drift in machine speed falls on both sides alike. After the
pairs, each side gets one ``--trace 1`` run for the per-layer metrics.

The summary marks a metric ``unresolved``, and a warning is printed, when
either side's quartile spread, (q3 - q1) / median, exceeds the metric's
bound in ``BENCHMARK.json``: the runs are then too noisy to judge it. A
warning is also printed for a per-layer metric that reads 0 on the change
but not on the parent (a renamed or bypassed traced function, most often),
and for a ``trace.coverage`` below 0.9.

The result goes to ``BENCH_<tag>.json`` under ``--comparison`` (default
``parent_vs_change``); other comparisons already in the file are kept, so one
file can hold, say, a parent/change comparison and an ablation. Per workload
it records every run's end-to-end metrics, each side's median and quartiles,
the change/parent ratio of each pair and of the medians, the number of pairs
the change wins (by the ``better`` direction in the change's
``BENCHMARK.json``), the traced runs, and the Python and numpy versions and
CPU count.

``--lockstep R`` adds an in-process comparison, which resolves smaller
gains than the pairs on a machine whose speed drifts (``--pairs 0`` runs it
alone):

    python scripts/bench_pairs.py --parent ../parent --change . --pairs 0 --lockstep 8 --tag topic

Both checkouts' ``driftel`` are imported into this process, the ``driftel``
modules cleared between the two loads, with numpy limited to one thread as
in ``perfbench/run.py``. Per workload, R cells a side run step by step,
each side on its own stream and learner (``perfbench/run.py``'s algorithm,
preset and m). At every step both sides update and predict, and the side
that goes first alternates by step and by cell, so a drift in machine speed
falls on both alike. Per cell it records ``update_ms_p50``,
``update_ms_p90`` (nearest rank, as ``perfbench/run.py``) and
``predict_ms_p50``; per metric, each side's median over the cells, the
ratio of the medians and the cells the change wins; the median and
quartiles of the per-step change/parent update-time ratios; and whether the
two sides predicted the same labels at every step. The result goes under
``lockstep`` in the comparison, next to the pairs. The two sides share the
allocator and the caches, so the lockstep adds evidence but replaces
neither the pairs nor their bounds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

SIDES = ("parent", "change")
COPIED = ("src", "perfbench", "BENCHMARK.json")  # what a run reads from its checkout
COVERAGE_FLOOR = 0.9
LOCKSTEP_METRICS = ("update_ms_p50", "update_ms_p90", "predict_ms_p50")


def fresh_copy(checkout: Path, into: Path) -> None:
    """Copy what a benchmark run reads from ``checkout`` into ``into``,
    leaving out ``__pycache__`` and the benchmark's own output."""
    for name in COPIED:
        source = checkout / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
        else:
            shutil.copy2(source, into / name)


def run_bench(checkout: Path, workload: str, trace: int, seed: int) -> dict:
    """One ``perfbench/run.py`` process in a fresh copy of ``checkout``; its
    last output line is the result."""
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        fresh_copy(checkout, Path(tmp))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace)],
            cwd=tmp, capture_output=True, text=True, timeout=1800,
        )
    if done.returncode != 0:
        raise SystemExit(f"{checkout} {workload} exited {done.returncode}:\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m: v["value"] for m, v in out["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def relative_spread(side: dict) -> float:
    """(q3 - q1) / median; inf when the median is 0 but the quartiles differ."""
    width = side["q3"] - side["q1"]
    if side["median"]:
        return width / abs(side["median"])
    return float("inf") if width else 0.0


def summarize(runs: dict, better: dict, bounds: dict) -> dict:
    """Per metric: each side's spread, the per-pair and median ratios, the
    pairs the change wins, and whether the runs are too noisy to judge it
    against its bound (``unresolved``)."""
    out = {}
    for metric in runs["parent"][0]["metrics"]:
        values = {s: [r["metrics"][metric] for r in runs[s]] for s in SIDES}
        entry = {s: spread(values[s]) for s in SIDES}
        bound = bounds.get(metric)
        if bound is not None:
            entry["unresolved"] = any(relative_spread(entry[s]) > bound for s in SIDES)
        pairs = list(zip(values["parent"], values["change"]))
        entry["pair_ratios"] = [c / p if p else None for p, c in pairs]
        p50 = entry["parent"]["median"]
        entry["median_ratio"] = entry["change"]["median"] / p50 if p50 else None
        direction = better.get(metric)
        if direction is not None:
            entry["better"] = direction
            entry["change_wins"] = sum(
                (c < p) if direction == "lower" else (c > p) for p, c in pairs
            )
        out[metric] = entry
    return out


def trace_warnings(traced: dict) -> list[str]:
    """Per-layer metrics that read 0 on the change but not on the parent,
    and a change ``trace.coverage`` below ``COVERAGE_FLOOR``."""
    parent, change = traced["parent"]["metrics"], traced["change"]["metrics"]
    warnings = [
        f"{metric} reads 0 on the change but {parent[metric]} on the parent"
        for metric, value in change.items()
        if value == 0 and parent.get(metric)
    ]
    coverage = change.get("trace.coverage")
    if coverage is not None and coverage < COVERAGE_FLOOR:
        warnings.append(f"trace.coverage {coverage:.2f} is below {COVERAGE_FLOOR}")
    return warnings


def run_pairs(checkouts: dict, workloads: list[str], pairs: int, seed: int, better: dict, bounds: dict) -> dict:
    """The alternating subprocess pairs of every workload, then one traced
    run a side: the runs, their summary and the warnings."""
    results = {}
    for workload in workloads:
        runs = {s: [] for s in SIDES}
        for pair in range(1, pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_bench(checkouts[side], workload, 0, seed))
                m = runs[side][-1]["metrics"]
                print(f"{workload} pair {pair} {side}: update_ms_p50 {m['update_ms_p50']:.2f} "
                      f"cell_s {m['cell_s']:.2f}", flush=True)
        traced = {s: run_bench(checkouts[s], workload, 1, seed) for s in SIDES}
        summary = summarize(runs, better, bounds)
        warnings = [
            f"{metric} unresolved: a side's (q3 - q1) / median exceeds the bound {bounds[metric]}"
            for metric, entry in summary.items() if entry.get("unresolved")
        ] + trace_warnings(traced)
        for warning in warnings:
            print(f"WARNING {workload}: {warning}", flush=True)
        results[workload] = {
            "order": "parent first in odd pairs, change first in even pairs",
            "runs": runs,
            "summary": summary,
            "trace": traced,
            "warnings": warnings,
        }
    return results


def load_driftel(checkout: Path):
    """``driftel`` imported from ``checkout``'s ``src``, after clearing the
    ``driftel`` modules an earlier load left in ``sys.modules``."""
    for name in [m for m in sys.modules if m == "driftel" or m.startswith("driftel.")]:
        del sys.modules[name]
    src = checkout / "src"
    sys.path.insert(0, str(src))
    try:
        import driftel
    finally:
        sys.path.remove(str(src))
    if src not in Path(driftel.__file__).resolve().parents:
        raise SystemExit(f"driftel imported from {driftel.__file__}, not from {src}")
    return driftel


def load_perfbench(checkout: Path):
    """``checkout``'s ``perfbench/run.py`` as a module, for its workload
    table (name -> algorithm, preset), archive size ``M``, ``THREAD_VARS``
    and ``nearest_rank``. It imports no numpy."""
    spec = importlib.util.spec_from_file_location("perfbench_run", checkout / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
    return run


def lockstep(sides: dict, bench_run, workload: str, cells: int, seed: int) -> dict:
    """``cells`` lockstep cells a side of one workload (see the module
    docstring)."""
    algorithm, preset = bench_run.WORKLOADS[workload]
    streams = {s: list(d.make_stream(d.preset_config(preset, seed=seed))) for s, d in sides.items()}
    per_cell = {s: [] for s in SIDES}
    step_ratios = []
    same_predictions = True
    for cell in range(cells):
        learners = {s: d.make_learner(algorithm, d.DtelConfig(m=bench_run.M)) for s, d in sides.items()}
        update = {s: [] for s in SIDES}
        predict = {s: [] for s in SIDES}
        for step in range(len(streams["parent"])):
            labels = {}
            for s in SIDES if (step + cell) % 2 == 0 else SIDES[::-1]:
                pair = streams[s][step]
                t0 = time.perf_counter()
                learners[s].update(pair.train)
                t1 = time.perf_counter()
                labels[s] = learners[s].predict_chunk(pair.test)
                predict[s].append(time.perf_counter() - t1)
                update[s].append(t1 - t0)
            same_predictions &= labels["parent"].tobytes() == labels["change"].tobytes()
        step_ratios += [c / p for p, c in zip(update["parent"], update["change"])]
        for s in SIDES:
            per_cell[s].append({
                "update_ms_p50": 1e3 * statistics.median(update[s]),
                "update_ms_p90": 1e3 * bench_run.nearest_rank(update[s], 0.9),
                "predict_ms_p50": 1e3 * statistics.median(predict[s]),
            })
        print(f"lockstep {algorithm} {preset} cell {cell + 1}: update_ms_p50 "
              f"parent {per_cell['parent'][-1]['update_ms_p50']:.2f} "
              f"change {per_cell['change'][-1]['update_ms_p50']:.2f}", flush=True)
    summary = {"update_step_ratio": spread(step_ratios), "same_predictions": same_predictions}
    for metric in LOCKSTEP_METRICS:
        values = {s: [c[metric] for c in per_cell[s]] for s in SIDES}
        medians = {s: statistics.median(values[s]) for s in SIDES}
        summary[metric] = {
            **values,
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "ratio_of_medians": medians["change"] / medians["parent"],
            "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "cells": cells,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--lockstep", type=int, default=0, metavar="R",
                        help="also run R in-process lockstep cells a side per workload")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--comparison", default="parent_vs_change",
                        help="key of this comparison in the file")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the BENCH file")
    args = parser.parse_args(argv)
    if args.pairs < 0 or args.lockstep < 0 or not args.pairs + args.lockstep:
        parser.error("--pairs and --lockstep must be >= 0, and one of them >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"] if "bound" in m}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in declared["workloads"]])

    path = args.out / f"BENCH_{args.tag}.json"
    bench = json.loads(path.read_text()) if path.is_file() else {"tag": args.tag, "comparisons": {}}
    comparison = bench["comparisons"].setdefault(args.comparison, {})
    comparison["environment"] = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
    if args.pairs:
        comparison.update(
            pairs=args.pairs,
            seed=args.seed,
            checkouts="each run in a fresh temporary copy of its side's "
                      f"{', '.join(COPIED)}, without __pycache__",
            workloads=run_pairs(checkouts, workloads, args.pairs, args.seed, better, bounds),
        )
    if args.lockstep:
        bench_run = load_perfbench(checkouts["change"])
        for var in bench_run.THREAD_VARS:  # before either side imports numpy
            os.environ[var] = "1"
        sides = {s: load_driftel(checkouts[s]) for s in SIDES}
        comparison["lockstep"] = {
            "cells": args.lockstep,
            "seed": args.seed,
            "order": "the side that steps first alternates by step and by cell",
            "workloads": {w: lockstep(sides, bench_run, w, args.lockstep, args.seed) for w in workloads},
        }
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
