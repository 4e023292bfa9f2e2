"""Byte-identity check of two checkouts: same result CSVs, same posteriors.

    python scripts/same_outputs.py --parent ../parent --change .

For each checkout, with that checkout's ``src/`` on ``PYTHONPATH``, the
script runs ``driftel run --no-wall-time`` over all four algorithms, the
presets SEA200A, STA200A and CIR200A and seeds 1 and 7, once per setting:

- ``default``: the default growth and archive size;
- ``limited``: ``--max-depth 4 --min-samples-split 5 --m 3``;
- ``m1`` and ``m2``: ``--m 1`` and ``--m 2``.

It also runs every cell of the matrix step by step and writes, one line a
step, the sha256 of the ``tree_to_text`` of every archived tree and, for the
three dtel variants, of every ensemble member, and of the
``ensemble_posteriors`` bytes on the step's test chunk. ``tree_to_text``
walks the structure, so a change of node order passes and a change of
structure does not. It also writes the sha256 of every chunk (features,
labels, their dtypes and the step index of the train and the test chunk) of
all 15 stream presets, for seeds 1 and 7 and all 120 steps. Both sides run
at the same time, each its own commands one after the other. Then ``diff -r`` compares the two
output trees (under ``--out``, by default a temporary directory that is
removed; give it an empty or new directory). The exit status is 0 when
every file is byte-identical, 1 on any difference and 2 when a run fails.
The whole matrix took about 3 minutes on a 2-core x86_64 VM.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ALGORITHMS = ("dtel", "dtel-no-transfer", "dtel-acc-archive", "sea")
STREAMS = ("SEA200A", "STA200A", "CIR200A")
SEEDS = (1, 7)
SETTINGS = {
    "default": {},
    "limited": {"max_depth": 4, "min_samples_split": 5, "m": 3},
    "m1": {"m": 1},
    "m2": {"m": 2},
}

# Run with the checkout's src/ on the path: argv[1] is the setting as JSON,
# argv[2] and argv[3] the output files of the posterior and tree hashes.
HASH_STEPS = """
import hashlib, json, sys
from driftel.baselines import make_learner
from driftel.cart import StoppingParams, tree_to_text
from driftel.dtel import DtelConfig, ensemble_posteriors
from driftel.streams import make_stream, preset_config


def trees_digest(trees):
    return hashlib.sha256("".join(tree_to_text(t) + "\\n" for t in trees).encode()).hexdigest()


setting = json.loads(sys.argv[1])
stopping = StoppingParams(
    max_depth=setting.get("max_depth"), min_samples_split=setting.get("min_samples_split", 2)
)
cfg = DtelConfig(m=setting.get("m", 25), stopping=stopping)
with open(sys.argv[2], "w") as posteriors, open(sys.argv[3], "w") as trees:
    for algorithm in setting["algorithms"]:
        for stream in setting["streams"]:
            for seed in setting["seeds"]:
                learner = make_learner(algorithm, cfg)
                for step, pair in enumerate(make_stream(preset_config(stream, seed=seed))):
                    learner.update(pair.train)
                    cell = f"{algorithm} {stream} {seed} {step}"
                    if algorithm == "sea":
                        trees.write(f"{cell} {trees_digest(learner.state.models)}\\n")
                        continue
                    members = trees_digest(m.tree for m in learner.ensemble.members)
                    trees.write(f"{cell} {trees_digest(learner.archive.models)} {members}\\n")
                    digest = hashlib.sha256(ensemble_posteriors(learner.ensemble, pair.test).tobytes())
                    posteriors.write(f"{cell} {digest.hexdigest()}\\n")
"""


# Run with the checkout's src/ on the path: argv[1] is the seeds as JSON,
# argv[2] the output file of the chunk hashes.
HASH_STREAMS = """
import hashlib, json, sys
from driftel.streams import PRESETS, make_stream, preset_config

with open(sys.argv[2], "w") as out:
    for preset in sorted(PRESETS):
        for seed in json.loads(sys.argv[1]):
            for step, pair in enumerate(make_stream(preset_config(preset, seed=seed))):
                digest = hashlib.sha256()
                for chunk in (pair.train, pair.test):
                    for array in (chunk.X, chunk.y):
                        digest.update(str(array.dtype).encode() + array.tobytes())
                    digest.update(str(chunk.index).encode())
                out.write(f"{preset} {seed} {step} {digest.hexdigest()}\\n")
"""


def run_flags(setting: dict) -> list[str]:
    """``driftel run`` flags of one setting."""
    flags = []
    for name, value in setting.items():
        flags += [f"--{name.replace('_', '-')}", str(value)]
    return flags


def run_side(checkout: Path, out: Path) -> list[str]:
    """Every run of one checkout into ``out``; returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    out.mkdir(parents=True, exist_ok=True)
    streams = [sys.executable, "-c", HASH_STREAMS, json.dumps(SEEDS), str(out / "presets.streams.sha256")]
    done = subprocess.run(streams, env=env, capture_output=True, text=True)
    failures = [f"{checkout} streams: exit {done.returncode}: {done.stderr.strip()[-500:]}"] if done.returncode else []
    for name, setting in SETTINGS.items():
        cli = [sys.executable, "-m", "driftel.cli", "run", "--no-wall-time", "--out-dir", str(out / name)]
        for flag, values in (("--algorithms", ALGORITHMS), ("--streams", STREAMS), ("--seeds", SEEDS)):
            for value in values:
                cli += [flag, str(value)]
        spec = dict(setting, algorithms=ALGORITHMS, streams=STREAMS, seeds=SEEDS)
        hashes = [sys.executable, "-c", HASH_STEPS, json.dumps(spec),
                  str(out / f"{name}.posteriors.sha256"), str(out / f"{name}.trees.sha256")]
        for command in (cli + run_flags(setting), hashes):
            done = subprocess.run(command, env=env, capture_output=True, text=True)
            if done.returncode:
                failures.append(f"{checkout} {name}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, help="keep both output trees here (default: a removed temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        sides = {side: out / side for side in ("parent", "change")}
        with ThreadPoolExecutor(max_workers=2) as pool:
            failures = [f for fs in pool.map(run_side, (args.parent.resolve(), args.change.resolve()), sides.values())
                        for f in fs]
        if failures:
            print("\n".join(failures))
            return 2
        files = sorted(p.relative_to(sides["parent"]) for p in sides["parent"].rglob("*") if p.is_file())
        diff = subprocess.run(["diff", "-r", str(sides["parent"]), str(sides["change"])], capture_output=True, text=True)
        kinds = ("posteriors", "trees", "streams")
        hashed = {kind: [f for f in files if f.name.endswith(f".{kind}.sha256")] for kind in kinds}
        lines = {kind: sum(len((sides["parent"] / f).read_text().splitlines()) for f in fs)
                 for kind, fs in hashed.items()}
        print(f"{len(files) - sum(map(len, hashed.values()))} result files, "
              f"{lines['posteriors']} posterior hashes and {lines['trees']} tree hash lines "
              f"({len(SETTINGS)} settings) and {lines['streams']} stream chunk hashes compared")
        if diff.returncode:
            print(diff.stdout[-4000:] or diff.stderr)
            print("DIFFERENT")
            return 1
        print("byte-identical")
        return 0


if __name__ == "__main__":
    sys.exit(main())
