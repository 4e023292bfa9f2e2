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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
COPIED = ("src", "perfbench", "BENCHMARK.json")  # what a run reads from its checkout
COVERAGE_FLOOR = 0.9


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--comparison", default="parent_vs_change",
                        help="key of this comparison in the file")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("."), help="directory of the BENCH file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"] if "bound" in m}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in declared["workloads"]])

    results = {}
    for workload in workloads:
        runs = {s: [] for s in SIDES}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_bench(checkouts[side], workload, 0, args.seed))
                m = runs[side][-1]["metrics"]
                print(f"{workload} pair {pair} {side}: update_ms_p50 {m['update_ms_p50']:.2f} "
                      f"cell_s {m['cell_s']:.2f}", flush=True)
        traced = {s: run_bench(checkouts[s], workload, 1, args.seed) for s in SIDES}
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

    path = args.out / f"BENCH_{args.tag}.json"
    bench = json.loads(path.read_text()) if path.is_file() else {"tag": args.tag, "comparisons": {}}
    bench["comparisons"][args.comparison] = {
        "pairs": args.pairs,
        "seed": args.seed,
        "checkouts": "each run in a fresh temporary copy of its side's "
                     f"{', '.join(COPIED)}, without __pycache__",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": results,
    }
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
