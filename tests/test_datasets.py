import numpy as np
import pytest

from driftel.cli import main
from driftel.core import CATEGORICAL, NUMERIC
from driftel.datasets import read_stream_csv, write_stream_csv
from driftel.streams import ChunkPair, make_stream, preset_config
from helpers import decoded_chunk, numeric_chunk


def pairs_equal_as_rows(a, b):
    # A CSV lists a categorical domain in first-seen order, so codes may
    # differ where the symbols agree.
    for ca, cb in ((a.train, b.train), (a.test, b.test)):
        assert decoded_chunk(ca) == decoded_chunk(cb)


@pytest.mark.parametrize("preset", ["SEA200A", "STA200G", "ROT200A"])
def test_stream_csv_roundtrip_reproduces_instances(tmp_path, preset):
    stream = make_stream(preset_config(preset, seed=5, n_steps=4, chunk_size=30))
    path = tmp_path / "stream.csv"
    rows = write_stream_csv(stream, path)
    assert rows == 4 * 2 * 30
    loaded = read_stream_csv(path)
    assert len(loaded) == len(stream)
    assert isinstance(loaded[0], ChunkPair)
    for a, b in zip(stream, loaded):
        pairs_equal_as_rows(a, b)


def test_bare_chunks_roundtrip_as_prequential(tmp_path):
    chunks = [numeric_chunk([1.25, 2.5], [0, 1], index=t) for t in range(3)]
    path = tmp_path / "chunks.csv"
    write_stream_csv(chunks, path)
    loaded = read_stream_csv(path)
    assert not isinstance(loaded[0], ChunkPair)
    for a, b in zip(chunks, loaded):
        assert decoded_chunk(a) == decoded_chunk(b)


def test_schema_inference_kinds(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "step,role,f0,f1,label\n"
        "0,train,1.5,red,0\n"
        "0,train,2.5,blue,1\n"
        "0,train,3.5,red,1\n"
    )
    [chunk] = read_stream_csv(path)
    assert chunk.schema.features[0].kind == NUMERIC
    assert chunk.schema.features[1].kind == CATEGORICAL
    assert chunk.schema.features[1].domain == ("red", "blue")  # first-seen order
    assert chunk.schema.num_classes == 2


def test_symbolic_labels_first_seen_order(tmp_path):
    path = tmp_path / "sym.csv"
    path.write_text(
        "step,role,f0,label\n"
        "0,train,1.0,up\n"
        "0,train,2.0,down\n"
        "0,train,3.0,up\n"
    )
    [chunk] = read_stream_csv(path)
    assert list(chunk.y) == [0, 1, 0]


def test_integer_labels_used_directly(tmp_path):
    path = tmp_path / "int.csv"
    path.write_text("step,role,f0,label\n0,train,1.0,1\n0,train,2.0,1\n")
    [chunk] = read_stream_csv(path)
    # dense indices preserved even when class 0 is absent
    assert list(chunk.y) == [1, 1]
    assert chunk.schema.num_classes == 2


def test_missing_values_rejected(tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text("step,role,f0,label\n0,train,,0\n")
    with pytest.raises(ValueError):
        read_stream_csv(path)


def test_non_finite_numeric_values_are_input_errors(tmp_path, capsys):
    # A column whose values all parse as floats is numeric; a nan or inf in
    # it is an error that names the column and the value, not a reason to
    # read the column as categorical.
    path = tmp_path / "nonfinite.csv"
    values = ["1.5", "nan", "2.0", "0.5", "3.0", "inf"]
    path.write_text("step,role,f0,f1,label\n" + "".join(f"0,train,1.0,{v},{i % 2}\n" for i, v in enumerate(values)))
    with pytest.raises(ValueError, match="feature f1 is numeric but holds the non-finite value 'nan'"):
        read_stream_csv(path)
    assert main(["run", "--streams", str(path), "--out-dir", str(tmp_path / "res")]) == 1
    assert "feature f1 is numeric but holds the non-finite value 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_malformed_files_rejected(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_stream_csv(bad_header)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_stream_csv(empty)
    no_rows = tmp_path / "norows.csv"
    no_rows.write_text("step,role,f0,label\n")
    with pytest.raises(ValueError):
        read_stream_csv(no_rows)
    missing_test = tmp_path / "half.csv"
    missing_test.write_text(
        "step,role,f0,label\n0,train,1.0,0\n0,test,1.5,0\n1,train,2.0,1\n"
    )
    with pytest.raises(ValueError):
        read_stream_csv(missing_test)
    bad_step = tmp_path / "step.csv"
    bad_step.write_text("step,role,f0,label\n0,train,1.0,0\n1.5,train,2.0,1\n")
    with pytest.raises(ValueError, match=f"{bad_step}:3: step must be an integer"):
        read_stream_csv(bad_step)


def test_float_text_roundtrips_exactly(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(-5, 5, 50)
    chunk = numeric_chunk(values, np.zeros(50, dtype=int), index=0)
    path = tmp_path / "floats.csv"
    write_stream_csv([chunk], path)
    [loaded] = read_stream_csv(path)
    assert np.array_equal(loaded.X, chunk.X)
