"""Command-line entry point.

Subcommands:
  generate  write a synthetic stream preset to the dataset CSV format
  run       run algorithms over streams (presets or dataset CSVs), write
            per-cell result CSVs plus combined results.csv / summary.csv
  sweep     archive-size sensitivity sweep for dtel on one preset
  report    render a mean +/- std table and rank-sum win/tie/loss lines from
            a results directory

Every command is fully seeded: rerunning with the same spec reproduces the
same result bytes (wall-clock timings are the one exception; disable them
with --no-wall-time for byte-identical reruns).

Each optional flag of ``generate``, ``run`` and ``sweep`` sets the field of
its name, dashes read as underscores (``--noise-rate`` sets ``noise_rate``);
``--steps`` sets ``n_steps`` and ``--no-wall-time`` sets ``record_wall_time``
to false. A flag that is not given leaves its field as it was. ``run``'s
fields are those of ``RunSpec``, which are also the keys of its JSON spec
file (--spec); a flag overrides its key. ``generate`` and ``sweep`` set
fields of the preset's ``streams.DriftStreamConfig``. List flags (--algorithms,
--streams, --seeds, --m-values) take comma-separated values and may repeat;
``run`` and ``sweep`` run each distinct value once, in first-seen order.

Exit codes: 0 success (and --help), 1 input error (a usage error, or a bad
value, spec, path or dataset CSV), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .baselines import ALGORITHMS, make_learner
from .cart import StoppingParams
from .datasets import read_stream_csv, write_stream_csv
from .dtel import DtelConfig
from .evaluation import (
    RunResult,
    pool_accuracies,
    rank_sum_test,
    read_results_csv,
    run_prequential,
    run_synthetic,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from .streams import PRESETS, ChunkPair, DriftStreamConfig, make_stream, preset_config

PROTOCOLS = ("auto", "synthetic", "prequential")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# What each spec key's annotation admits in JSON, and how to say it.
_SPEC_TYPES = {
    "list[str]": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of strings"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "float | None": (lambda v: v is None or _is_int(v) or isinstance(v, float), "a number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class RunSpec:
    algorithms: list[str] = field(default_factory=lambda: ["dtel"])
    streams: list[str] = field(default_factory=list)  # preset names and/or dataset CSV paths
    seeds: list[int] = field(default_factory=lambda: [0])
    m: int = DtelConfig.m
    epsilon: float = DtelConfig.epsilon
    max_depth: int | None = StoppingParams.max_depth
    min_samples_split: int = StoppingParams.min_samples_split
    min_impurity_decrease: float = StoppingParams.min_impurity_decrease
    noise_rate: float | None = None  # of the presets; None: DriftStreamConfig's
    n_steps: int | None = None  # of the presets; None: DriftStreamConfig's
    protocol: str = "auto"  # one of PROTOCOLS
    out_dir: str = "results"
    record_wall_time: bool = True

    @classmethod
    def from_json(cls, path) -> "RunSpec":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: a spec must be a JSON object")
        known = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown spec keys: {', '.join(sorted(unknown))}")
        for key, value in data.items():
            admits, kind = _SPEC_TYPES[known[key]]
            if not admits(value):
                raise ValueError(f"spec key {key!r} must be {kind}, not {json.dumps(value)}")
        return cls(**data)

    def validate(self) -> None:
        for key in ("algorithms", "streams", "seeds"):
            if not getattr(self, key):
                raise ValueError(f"no {key} given")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {name!r}; registered: {', '.join(sorted(ALGORITHMS))}"
                )
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {', '.join(PROTOCOLS)}")
        labels = {}
        for name in self.streams:
            other = labels.setdefault(_stream_label(name), name)
            if other != name:
                raise ValueError(f"streams {other} and {name} share the label {_stream_label(name)!r}")
        if not any(name in PRESETS for name in self.streams):
            for key, flag in (("n_steps", "--steps"), ("noise_rate", "--noise-rate")):
                if getattr(self, key) is not None:
                    raise ValueError(f"{flag} ({key}) sets the presets, and no stream of this run is a preset")

    def learner_config(self) -> DtelConfig:
        return DtelConfig(
            m=self.m,
            epsilon=self.epsilon,
            stopping=StoppingParams(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_impurity_decrease=self.min_impurity_decrease,
            ),
        )


def _atomic_write(path: Path, write_fn):
    """``write_fn(tmp)`` into a temporary file, moved to ``path`` when it
    returns; its parent directories are made. Returns what it returns."""
    if path.is_dir():
        raise ValueError(f"{path} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        written = write_fn(tmp)
        os.replace(tmp, path)
        return written
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stream_label(name: str) -> str:
    return Path(name).stem if name not in PRESETS else name


def _protocol(name: str, paired: bool, n_steps: int, protocol: str):
    """The runner of a stream's protocol (``auto`` resolved) and whether it
    takes the train chunks of the stream's pairs; a stream that would score
    no step is an input error."""
    if protocol == "synthetic" or (protocol == "auto" and paired):
        if not paired:
            raise ValueError(f"stream {name} has no test chunks for the synthetic protocol")
        return run_synthetic, False
    if n_steps < 2:
        raise ValueError(f"stream {name} has no step to score: prequential scoring starts at its second chunk")
    return run_prequential, paired


def run_spec(spec: RunSpec) -> list[RunResult]:
    """Execute every distinct (algorithm, stream, seed) cell and write all
    CSVs. Every stream is checked before any cell runs, a dataset CSV read
    once for all seeds (its seed column is the run's). A preset's stream is
    generated when its seed's cells start and dropped when they end."""
    spec.validate()
    algorithms, streams, seeds = (dict.fromkeys(v) for v in (spec.algorithms, spec.streams, spec.seeds))
    files = {name: read_stream_csv(name) for name in streams if name not in PRESETS}
    preset = {key: getattr(spec, key) for key in ("noise_rate", "n_steps") if getattr(spec, key) is not None}
    checked = {}  # (stream, seed): its rows or preset config, its runner, whether it takes train chunks
    for name, seed in product(streams, seeds):
        if name in files:
            source = files[name]
            paired, n_steps = isinstance(source[0], ChunkPair), len(source)
        else:
            source = preset_config(name, seed=seed, **preset)
            paired, n_steps = True, source.n_steps
        checked[name, seed] = (source, *_protocol(name, paired, n_steps, spec.protocol))
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for (stream_name, seed), (source, run, trains) in checked.items():
        items = source if stream_name in files else make_stream(source)
        if trains:
            items = [p.train for p in items]
        for alg in algorithms:
            learner = make_learner(alg, spec.learner_config())
            result = run(learner, items, stream_id=_stream_label(stream_name), seed=seed,
                         record_wall_time=spec.record_wall_time)
            _atomic_write(out_dir / f"{result.run_id}.csv", lambda tmp: write_results_csv([result], tmp))
            results.append(result)
        del items

    results.sort(key=lambda r: (r.algorithm, r.stream, r.seed))
    _atomic_write(out_dir / "results.csv", lambda tmp: write_results_csv(results, tmp))
    _atomic_write(out_dir / "summary.csv", lambda tmp: write_summary_csv(results, tmp))
    return results


def _given(args, cls) -> dict:
    """The fields of dataclass ``cls`` that flags given on the command line
    set; a flag that was not given is absent from ``args``."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _cmd_generate(args) -> int:
    cfg = preset_config(args.preset, **_given(args, DriftStreamConfig))
    stream = make_stream(cfg)
    out = Path(args.out)
    rows = _atomic_write(out, lambda tmp: write_stream_csv(stream, tmp))
    print(f"wrote {rows} rows ({cfg.n_steps} steps x 2 chunks x {cfg.chunk_size}) to {out}")
    return 0


def _cmd_run(args) -> int:
    spec = RunSpec.from_json(args.spec) if args.spec else RunSpec()
    spec = replace(spec, **_given(args, RunSpec))
    results = run_spec(spec)
    for res in results:
        s = summarize(res)
        print(f"{res.run_id}: mean={100 * s.mean:.2f}% std={100 * s.std:.2f}%")
    print(f"wrote {len(results)} runs to {spec.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    m_values = sorted(set(args.m_values))
    if not m_values:
        raise ValueError("no archive sizes given")
    seeds = dict.fromkeys(vars(args).get("seeds", [0]))
    if not seeds:
        raise ValueError("no seeds given")
    out = Path(args.out)
    if out.is_dir():  # before the sweep runs
        raise ValueError(f"{out} is a directory")
    accs = {m: [] for m in m_values}
    for seed in seeds:  # each stream generated once, for every m
        stream = make_stream(preset_config(args.preset, seed=seed, **_given(args, DriftStreamConfig)))
        for m in m_values:
            result = run_synthetic(make_learner("dtel", DtelConfig(m=m)), stream, stream_id=args.preset, seed=seed,
                                   record_wall_time=False)
            accs[m].append(float(np.mean(result.per_chunk_accuracy)))
    rows = [(m, float(np.mean(a))) for m, a in accs.items()]

    def write(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write("m,mean_accuracy\n")
            for m, acc in rows:
                fh.write(f"{m},{acc!r}\n")

    _atomic_write(out, write)
    for m, acc in rows:
        print(f"m={m}: mean accuracy {100 * acc:.2f}%")
    print(f"wrote sweep over m={m_values} to {out}")
    return 0


def _cmd_report(args) -> int:
    results_path = Path(args.results)
    if results_path.is_dir():
        results_path /= "results.csv"
        if not results_path.exists():
            raise ValueError(f"no results.csv in {args.results}")
    results = read_results_csv(results_path)
    if not results:
        raise ValueError(f"no results found in {args.results}")
    pooled = pool_accuracies(results)
    algorithms = sorted({a for a, _ in pooled})
    reference = args.reference
    if reference in algorithms:
        algorithms = [reference] + [a for a in algorithms if a != reference]
    streams = sorted({s for _, s in pooled})

    width = max(len(a) for a in algorithms) + 18
    print("stream".ljust(12) + "".join(a.ljust(width) for a in algorithms))
    for stream in streams:
        stats = {a: summarize(np.asarray(pooled[a, stream])) for a in algorithms if (a, stream) in pooled}
        best = max(stats, key=lambda a: stats[a].mean)
        line = stream.ljust(12)
        for alg in algorithms:
            s = stats.get(alg)
            cell = "-" if s is None else f"{100 * s.mean:.2f} +/- {100 * s.std:.2f}" + " *" * (alg == best)
            line += cell.ljust(width)
        print(line)

    if reference in algorithms:
        for alg in algorithms[1:]:
            shared = [s for s in streams if (reference, s) in pooled and (alg, s) in pooled]
            verdicts = [rank_sum_test(pooled[reference, s], pooled[alg, s]).direction for s in shared]
            win, loss = verdicts.count("a_better"), verdicts.count("b_better")
            print(f"{reference} vs {alg}: win-tie-loss {win}-{len(verdicts) - win - loss}-{loss}")
    return 0


def _comma_list(kind):
    """Argparse type of a list flag: comma-separated ``kind`` values, empty
    items dropped."""

    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",") if v]

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftel", description="concept-drift ensemble benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag that is not given is absent from the parsed arguments.
    optional = dict(argument_default=argparse.SUPPRESS)
    strs = dict(action="extend", type=_comma_list(str))
    ints = dict(action="extend", type=_comma_list(int))

    gen = sub.add_parser("generate", help="write a stream preset as a dataset CSV", **optional)
    gen.add_argument("--preset", required=True, help=f"one of: {', '.join(sorted(PRESETS))}")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--steps", dest="n_steps", type=int)
    gen.add_argument("--chunk-size", type=int)
    gen.add_argument("--noise-rate", type=float)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_generate)

    run = sub.add_parser("run", help="run algorithms over streams", **optional)
    run.add_argument("--spec", default=None, help="JSON spec file; flags override its keys")
    run.add_argument("--algorithms", **strs)
    run.add_argument("--streams", **strs, help="preset names or dataset CSV paths")
    run.add_argument("--seeds", **ints)
    run.add_argument("--m", type=int)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--max-depth", type=int)
    run.add_argument("--min-samples-split", type=int)
    run.add_argument("--min-impurity-decrease", type=float)
    run.add_argument("--noise-rate", type=float)
    run.add_argument("--steps", dest="n_steps", type=int)
    run.add_argument("--protocol", choices=PROTOCOLS)
    run.add_argument("--out-dir")
    run.add_argument("--no-wall-time", dest="record_wall_time", action="store_false",
                     help="write zero timings for byte-identical reruns")
    run.set_defaults(fn=_cmd_run)

    sweep = sub.add_parser("sweep", help="archive-size sensitivity sweep for dtel", **optional)
    sweep.add_argument("--preset", required=True)
    sweep.add_argument("--m-values", required=True, **ints)
    sweep.add_argument("--seeds", **ints)
    sweep.add_argument("--steps", dest="n_steps", type=int)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(fn=_cmd_sweep)

    rep = sub.add_parser("report", help="summarize a results directory")
    rep.add_argument("--results", required=True, help="results directory or results.csv path")
    rep.add_argument("--reference", default="dtel")
    rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error is an input error
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, FileExistsError, NotADirectoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
