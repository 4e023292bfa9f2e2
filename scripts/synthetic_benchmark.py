#!/usr/bin/env python3
"""Run the synthetic benchmark grid and print the summary report.

Defaults reproduce the desk-scale comparison: all four algorithms over the
five headline streams, five seeds, archive size 25. Results land in the
output directory as per-cell CSVs plus combined results.csv / summary.csv.

    python3 scripts/synthetic_benchmark.py --out-dir results/synthetic
    python3 scripts/synthetic_benchmark.py --streams SEA200A,SIN200A --seeds 1,2
"""

import argparse
import sys
import time

from driftel.cli import RunSpec, run_spec, main as cli_main

DEFAULT_STREAMS = ["SEA200A", "SEA500G", "CIR200A", "SIN200A", "STA200A", "ROT200A"]
DEFAULT_ALGORITHMS = ["dtel", "sea", "dtel-no-transfer", "dtel-acc-archive"]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--streams", default=",".join(DEFAULT_STREAMS))
    parser.add_argument("--algorithms", default=",".join(DEFAULT_ALGORITHMS))
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--m", type=int, default=25)
    parser.add_argument("--out-dir", default="results/synthetic")
    return parser.parse_args()


def main():
    args = parse_args()
    spec = RunSpec(
        algorithms=args.algorithms.split(","),
        streams=args.streams.split(","),
        seeds=[int(s) for s in args.seeds.split(",")],
        m=args.m,
        out_dir=args.out_dir,
    )
    t0 = time.time()
    run_spec(spec)
    print(f"benchmark finished in {(time.time() - t0) / 60:.1f} min\n")
    return cli_main(["report", "--results", args.out_dir, "--reference", "dtel"])


if __name__ == "__main__":
    sys.exit(main())
