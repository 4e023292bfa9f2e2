import json
from dataclasses import fields

import numpy as np
import pytest

from driftel import cli
from driftel.cli import RunSpec, build_parser, main, run_spec
from driftel.datasets import read_stream_csv, write_stream_csv
from driftel.streams import make_stream, preset_config
from helpers import decoded_chunk


def test_generate_row_count_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "sea.csv"
    rc = main(["generate", "--preset", "SEA200A", "--seed", "3", "--steps", "5", "--out", str(out)])
    assert rc == 0
    assert "wrote 2000 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 5 * 2 * 200  # header + train and test rows
    loaded = read_stream_csv(out)
    regenerated = make_stream(preset_config("SEA200A", seed=3, n_steps=5))
    for a, b in zip(loaded, regenerated):
        assert decoded_chunk(a.train) == decoded_chunk(b.train)
        assert decoded_chunk(a.test) == decoded_chunk(b.test)


def test_generate_full_preset_row_count(tmp_path):
    # 120 steps x 200 train + 200 test = 48,000 data rows
    out = tmp_path / "full.csv"
    assert main(["generate", "--preset", "SEA200A", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 48_001


def test_generate_zero_noise_override(tmp_path):
    out = tmp_path / "clean.csv"
    assert main([
        "generate", "--preset", "CIR200A", "--steps", "4", "--noise-rate", "0", "--out", str(out)
    ]) == 0
    pairs = read_stream_csv(out)
    # with the override no training label deviates from the clean concept
    regen = make_stream(preset_config("CIR200A", seed=0, n_steps=4, noise_rate=0.0))
    for a, b in zip(pairs, regen):
        assert np.array_equal(a.train.y, b.train.y)
        assert np.array_equal(a.test.y, b.test.y)


def test_generate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["generate", "--preset", "STA200G", "--seed", "9", "--steps", "3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_preset_is_input_error(tmp_path):
    rc = main(["generate", "--preset", "NOPE", "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_run_with_spec_file_and_overrides(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "algorithms": ["dtel", "sea"],
                "streams": ["SEA200A"],
                "seeds": [1],
                "m": 2,
                "n_steps": 4,
                "out_dir": str(tmp_path / "results"),
                "record_wall_time": False,
            }
        )
    )
    rc = main(["run", "--spec", str(spec_path)])
    assert rc == 0
    out_dir = tmp_path / "results"
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "dtel__SEA200A__s1.csv").exists()
    assert (out_dir / "sea__SEA200A__s1.csv").exists()
    text = (out_dir / "results.csv").read_text()
    assert text.count("\n") == 1 + 2 * 4  # header + 2 algorithms x 4 steps


def test_rerun_is_byte_identical(tmp_path):
    base = {
        "algorithms": ["dtel"],
        "streams": ["SIN200A"],
        "seeds": [2],
        "m": 3,
        "n_steps": 6,
        "record_wall_time": False,
    }
    outputs = []
    for tag in ("seq1", "seq2"):
        run_spec(RunSpec(**base, out_dir=str(tmp_path / tag)))
        outputs.append((tmp_path / tag / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_run_on_csv_stream_prequential(tmp_path):
    data = tmp_path / "data.csv"
    chunks = [p.train for p in make_stream(preset_config("SEA200A", seed=1, n_steps=4, chunk_size=50))]
    write_stream_csv(chunks, data)
    spec = RunSpec(
        algorithms=["dtel"],
        streams=[str(data)],
        seeds=[0],
        m=2,
        out_dir=str(tmp_path / "res"),
        record_wall_time=False,
    )
    results = run_spec(spec)
    assert len(results) == 1
    assert results[0].stream == "data"
    assert results[0].per_chunk_accuracy.size == 3  # step 0 trains only


def test_run_rejects_bad_inputs(tmp_path):
    assert main(["run", "--streams", "SEA200A", "--algorithms", "bogus", "--out-dir", str(tmp_path)]) == 1
    assert main(["run", "--algorithms", "dtel", "--out-dir", str(tmp_path)]) == 1  # no streams
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({"unknown_key": 1}))
    assert main(["run", "--spec", str(bad_spec)]) == 1


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"m": "25"}, "spec key 'm' must be an integer"),
        ({"streams": "SEA200A"}, "spec key 'streams' must be a list of strings"),
        ({"seeds": [1, "2"]}, "spec key 'seeds' must be a list of integers"),
        ({"max_depth": 2.5}, "spec key 'max_depth' must be an integer or null"),
        ({"epsilon": "small"}, "spec key 'epsilon' must be a number"),
        ({"record_wall_time": 0}, "spec key 'record_wall_time' must be true or false"),
        (["SEA200A"], "a spec must be a JSON object"),
    ],
)
def test_malformed_spec_files_are_input_errors(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(spec_path), "--out-dir", str(tmp_path / "res")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_paths_of_the_wrong_kind_are_input_errors(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["report", "--results", str(tmp_path / "empty")]) == 1
    assert f"no results.csv in {tmp_path / 'empty'}" in capsys.readouterr().err
    sweep = ["sweep", "--preset", "SEA200A", "--m-values", "2", "--steps", "2", "--out", str(tmp_path)]
    assert main(sweep) == 1
    assert f"{tmp_path} is a directory" in capsys.readouterr().err
    assert main(["generate", "--preset", "SEA200A", "--steps", "2", "--out", str(tmp_path)]) == 1
    assert f"{tmp_path} is a directory" in capsys.readouterr().err
    data = tmp_path / "data.csv"
    data.write_text("")
    for out_dir in (data, data / "res"):  # a file where a directory goes
        assert main(["run", "--streams", "SEA200A", "--steps", "1", "--out-dir", str(out_dir)]) == 1
        assert "runtime failure" not in capsys.readouterr().err
    data.write_text("step,role,f0,label\n0,train,1.0,0\nfirst,train,2.0,1\n")
    assert main(["run", "--streams", str(data), "--out-dir", str(tmp_path / "res")]) == 1
    assert f"{data}:3: step must be an integer, not 'first'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("transfer_workers", 4), ("workers", 2)])
def test_removed_concurrency_spec_keys_are_unknown(tmp_path, capsys, key, value):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"streams": ["SEA200A"], "n_steps": 2, key: value}))
    assert main(["run", "--spec", str(spec_path), "--out-dir", str(tmp_path / "res")]) == 1
    assert f"unknown spec keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--streams", "SEA200A"], "--workers"),
        (["run", "--streams", "SEA200A"], "--transfer-workers"),
        (["sweep", "--preset", "SEA200A", "--m-values", "2", "--out", "x.csv"], "--transfer-workers"),
    ],
)
def test_removed_concurrency_flags_are_rejected(capsys, argv, flag):
    build_parser().parse_args(argv)  # valid without the flag
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + [flag, "2"])
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_sweep_checks_its_output_path_before_it_runs(tmp_path, monkeypatch, capsys):
    def no_learner(*args):
        raise RuntimeError("the sweep ran")

    monkeypatch.setattr(cli, "make_learner", no_learner)
    assert main(["sweep", "--preset", "SEA200A", "--m-values", "2", "--steps", "2", "--out", str(tmp_path)]) == 1
    assert f"{tmp_path} is a directory" in capsys.readouterr().err


def test_sweep_generates_each_seeds_stream_once(tmp_path, monkeypatch, capsys):
    # Every archive size runs on the same stream of a seed, so a stream is
    # generated once per distinct seed, and the sweep prints only what it
    # measured.
    calls = []
    generate = cli.make_stream
    monkeypatch.setattr(cli, "make_stream", lambda cfg: calls.append(cfg.seed) or generate(cfg))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--preset", "SEA200A", "--m-values", "1,2,3", "--seeds", "1,2,1", "--steps", "2", "--out", str(out)]
    assert main(argv) == 0
    assert calls == [1, 2]
    assert "note" not in capsys.readouterr().out
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["m", "1", "2", "3"]


def test_sweep_writes_deduplicated_sizes(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--preset", "SEA200A", "--m-values", "2,1,2", "--seeds", "1",
        "--steps", "4", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,mean_accuracy"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2"]


def test_report_renders_table_and_wtl(tmp_path, capsys):
    spec = RunSpec(
        algorithms=["dtel", "sea"],
        streams=["SEA200A", "STA200A"],
        seeds=[1],
        m=2,
        n_steps=4,
        out_dir=str(tmp_path / "res"),
        record_wall_time=False,
    )
    run_spec(spec)
    capsys.readouterr()
    rc = main(["report", "--results", str(tmp_path / "res"), "--reference", "dtel"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SEA200A" in out and "STA200A" in out
    assert "+/-" in out and "*" in out
    assert "dtel vs sea: win-tie-loss" in out


def test_report_missing_dir_is_input_error(tmp_path):
    assert main(["report", "--results", str(tmp_path / "absent")]) == 1


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--streams", "SEA200A", "--m", "abc"],
        ["run", "--streams", "SEA200A", "--seeds", "1,x"],
        ["run", "--streams", "SEA200A", "--bogus"],
        ["sweep", "--preset", "SEA200A", "--out", "x.csv"],  # no --m-values
        ["frob"],
    ],
)
def test_usage_errors_are_input_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "usage: driftel" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert "usage: driftel" in capsys.readouterr().out


def test_run_flags_set_the_spec_fields_they_name(monkeypatch):
    captured = []
    monkeypatch.setattr(cli, "run_spec", lambda spec: captured.append(spec) or [])
    assert main(["run"]) == 0
    assert captured.pop() == RunSpec()  # no flag given, no field set
    argv = [
        "run", "--algorithms", "sea,dtel", "--algorithms", "dtel-no-transfer", "--streams", "STA200A",
        "--seeds", "3", "--m", "4", "--epsilon", "0.5", "--max-depth", "6", "--min-samples-split", "7",
        "--min-impurity-decrease", "0.25", "--noise-rate", "0.2", "--steps", "9",
        "--protocol", "prequential", "--out-dir", "x", "--no-wall-time",
    ]
    assert main(argv) == 0
    expected = RunSpec(
        ["sea", "dtel", "dtel-no-transfer"], ["STA200A"], [3], 4, 0.5, 6, 7, 0.25, 0.2, 9,
        "prequential", "x", False,
    )
    assert captured.pop() == expected
    assert all(getattr(expected, f.name) != getattr(RunSpec(), f.name) for f in fields(RunSpec))


def test_empty_lists_are_input_errors(tmp_path, capsys):
    out_dir = tmp_path / "res"
    assert main(["run", "--algorithms", ",", "--streams", "SEA200A", "--out-dir", str(out_dir)]) == 1
    assert "no algorithms given" in capsys.readouterr().err
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"algorithms": [], "streams": ["SEA200A"], "n_steps": 2}))
    assert main(["run", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 1
    assert "no algorithms given" in capsys.readouterr().err
    assert not out_dir.exists()
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "SEA200A", "--m-values", "2", "--seeds", ",", "--out", str(sweep)]) == 1
    assert "no seeds given" in capsys.readouterr().err
    assert not sweep.exists()


def test_repeated_list_values_run_once(tmp_path, capsys):
    out_dir = tmp_path / "res"
    assert main([
        "run", "--algorithms", "dtel,dtel", "--algorithms", "dtel", "--seeds", "1,1", "--streams", "SEA200A",
        "--steps", "2", "--no-wall-time", "--out-dir", str(out_dir),
    ]) == 0
    assert "wrote 1 runs" in capsys.readouterr().out
    assert (out_dir / "results.csv").read_text().count("dtel__SEA200A__s1") == 2  # one row a step
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[1].startswith("dtel,SEA200A,") and summary[1].endswith(",2")


def test_streams_sharing_a_label_are_input_errors(tmp_path, capsys):
    a, b, c = tmp_path / "a" / "data.csv", tmp_path / "b" / "data.csv", tmp_path / "c" / "SEA200A.csv"
    for path, preset in ((a, "SEA200A"), (b, "STA200A"), (c, "STA200A")):
        path.parent.mkdir()
        write_stream_csv(make_stream(preset_config(preset, n_steps=2, chunk_size=20)), path)
    out_dir = tmp_path / "res"
    for first, second in ((a, b), ("SEA200A", c)):
        assert main(["run", "--streams", f"{first},{second}", "--steps", "2", "--out-dir", str(out_dir)]) == 1
        assert f"streams {first} and {second} share the label" in capsys.readouterr().err
    assert not out_dir.exists()


def test_generate_zero_chunk_size_is_input_error(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["generate", "--preset", "SEA200A", "--steps", "2", "--chunk-size", "0", "--out", str(out)]) == 1
    assert "chunk_size must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def _three_step_csv(tmp_path, name="three.csv"):
    path = tmp_path / name
    write_stream_csv(make_stream(preset_config("SEA200A", seed=4, n_steps=3, chunk_size=20)), path)
    return path


def test_a_dataset_csv_is_read_once_per_run(tmp_path, monkeypatch):
    data = _three_step_csv(tmp_path)
    calls = []
    read = cli.read_stream_csv
    monkeypatch.setattr(cli, "read_stream_csv", lambda path: calls.append(path) or read(path))
    spec = RunSpec(algorithms=["sea"], streams=[str(data)], seeds=[1, 2, 3], out_dir=str(tmp_path / "res"))
    results = run_spec(spec)
    assert calls == [str(data)]
    assert [(r.seed, r.per_chunk_accuracy.size) for r in results] == [(1, 3), (2, 3), (3, 3)]


def test_preset_settings_without_a_preset_are_input_errors(tmp_path, capsys):
    data = _three_step_csv(tmp_path)
    out_dir = tmp_path / "res"
    for flags, named in ((["--steps", "1"], "--steps (n_steps)"), (["--noise-rate", "0.5"], "--noise-rate (noise_rate)")):
        assert main(["run", "--streams", str(data), *flags, "--out-dir", str(out_dir)]) == 1
        assert named in capsys.readouterr().err
    spec_path = tmp_path / "spec.json"
    for key, value in (("n_steps", 1), ("noise_rate", 0.5)):
        spec_path.write_text(json.dumps({"streams": [str(data)], key: value}))
        assert main(["run", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 1
        assert f"({key}) sets the presets, and no stream of this run is a preset" in capsys.readouterr().err
    assert not out_dir.exists()
    spec_path.write_text(json.dumps({"streams": [str(data)], "n_steps": None, "noise_rate": None}))
    assert main(["run", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0  # null: not set


def test_preset_settings_of_a_mixed_run_set_its_presets(tmp_path):
    data = _three_step_csv(tmp_path)
    flags = ["--steps", "1", "--noise-rate", "0.5", "--no-wall-time"]
    runs = {
        "mixed": ["--streams", f"SEA200A,{data}", *flags],
        "preset": ["--streams", "SEA200A", *flags],
        "csv": ["--streams", str(data), "--no-wall-time"],
    }
    for name, argv in runs.items():
        assert main(["run", *argv, "--out-dir", str(tmp_path / name)]) == 0
    summary = (tmp_path / "mixed" / "summary.csv").read_text().splitlines()
    assert [(cols[1], cols[-1]) for cols in (line.split(",") for line in summary[1:])] == [("SEA200A", "1"), ("three", "3")]
    for name, cell in (("preset", "dtel__SEA200A__s0.csv"), ("csv", "dtel__three__s0.csv")):
        assert (tmp_path / "mixed" / cell).read_bytes() == (tmp_path / name / cell).read_bytes()


def test_a_stream_with_no_scored_step_is_an_input_error(tmp_path, capsys):
    one = tmp_path / "one.csv"
    write_stream_csv([make_stream(preset_config("SEA200A", n_steps=1, chunk_size=20))[0].train], one)
    out_dir = tmp_path / "res"
    assert main(["run", "--streams", f"SEA200A,{one}", "--steps", "2", "--out-dir", str(out_dir)]) == 1
    assert f"stream {one} has no step to score" in capsys.readouterr().err
    assert main(["run", "--streams", "SEA200A", "--steps", "1", "--protocol", "prequential",
                 "--out-dir", str(out_dir)]) == 1
    assert "stream SEA200A has no step to score" in capsys.readouterr().err
    assert not out_dir.exists()  # no cell ran


def test_run_holds_one_preset_stream_at_a_time(tmp_path, monkeypatch):
    # A preset's stream is generated when its cells start: never before the
    # last cell of the stream before it has run.
    events = []
    generate, learner = cli.make_stream, cli.make_learner
    monkeypatch.setattr(cli, "make_stream", lambda cfg: events.append(("stream", cfg.family, cfg.seed)) or generate(cfg))
    monkeypatch.setattr(cli, "make_learner", lambda name, cfg: events.append(("cell", name)) or learner(name, cfg))
    spec = RunSpec(algorithms=["dtel", "sea"], streams=["SEA200A", "STA200A"], seeds=[1, 2], n_steps=2,
                   out_dir=str(tmp_path / "res"), record_wall_time=False)
    assert len(run_spec(spec)) == 8
    streams = [("stream", family, seed) for family in ("SEA", "STA") for seed in (1, 2)]
    assert events == [e for stream in streams for e in (stream, ("cell", "dtel"), ("cell", "sea"))]


def test_bad_preset_settings_are_reported_before_any_cell(tmp_path, capsys):
    out_dir = tmp_path / "res"
    for flags, message in ((["--steps", "0"], "n_steps must be >= 1"), (["--noise-rate", "2"], "noise_rate must lie in [0, 1]")):
        assert main(["run", "--streams", "SEA200A,STA200A", "--seeds", "1,2", *flags, "--out-dir", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
    assert not out_dir.exists()  # no cell ran
