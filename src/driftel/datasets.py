"""Dataset CSV format and schema inference.

Layout: a header row ``step,role,f0,...,fk,label`` followed by one row per
instance. ``step`` is the chunk's time index, ``role`` is ``train`` or
``test``, numeric features are written as decimal text (shortest repr that
round-trips exactly), categorical features as their raw symbols, and labels
as dense integer indices. UTF-8, comma separated, newline terminated.

Reading infers the schema: a feature column is numeric iff every value parses
as a float; otherwise it is categorical with its domain in first-seen order.
Labels that are all decimal integers are used directly as dense indices
(num_classes = max + 1); otherwise label symbols are mapped to indices in
first-seen order. Missing (empty) values are rejected, and so is a
non-finite value (``nan``, ``inf``) in a numeric column.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import CATEGORICAL, NUMERIC, Chunk, FeatureDescriptor, Schema
from .streams import ChunkPair

TRAIN = "train"
TEST = "test"


def format_value(fd: FeatureDescriptor, code: float) -> str:
    if fd.is_categorical:
        return fd.domain[int(code)]
    return repr(float(code))


def _chunk_rows(chunk: Chunk, role: str):
    for row, label in zip(chunk.X, chunk.y):
        yield [str(chunk.index), role] + [
            format_value(fd, v) for fd, v in zip(chunk.schema.features, row)
        ] + [str(int(label))]


def write_stream_csv(stream, path) -> int:
    """Write chunk pairs (or bare chunks) to the dataset CSV format.

    Returns the number of data rows written.
    """
    stream = list(stream)
    if not stream:
        raise ValueError("empty stream")
    first = stream[0].train if isinstance(stream[0], ChunkPair) else stream[0]
    schema = first.schema
    header = ["step", "role"] + [f"f{j}" for j in range(schema.n_features)] + ["label"]
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for item in stream:
            if isinstance(item, ChunkPair):
                chunks = ((item.train, TRAIN), (item.test, TEST))
            else:
                chunks = ((item, TRAIN),)
            for chunk, role in chunks:
                for row in _chunk_rows(chunk, role):
                    writer.writerow(row)
                    rows += 1
    return rows


def _infer_schema(feature_cells: list[list[str]], label_cells: list[str]) -> tuple[Schema, list]:
    features = []
    encoders = []
    for j, values in enumerate(feature_cells):
        if any(v == "" for v in values):
            raise ValueError(f"feature f{j} has missing values")
        try:
            parsed = [float(v) for v in values]
        except ValueError:  # a value that is no float: a categorical column
            code = {v: float(c) for c, v in enumerate(dict.fromkeys(values))}  # first-seen order
            features.append(FeatureDescriptor(CATEGORICAL, tuple(code)))
            encoders.append([code[v] for v in values])
            continue
        bad = [v for v, x in zip(values, parsed) if not np.isfinite(x)]
        if bad:
            raise ValueError(f"feature f{j} is numeric but holds the non-finite value {bad[0]!r}")
        features.append(FeatureDescriptor(NUMERIC))
        encoders.append(parsed)

    if any(v == "" for v in label_cells):
        raise ValueError("label column has missing values")
    try:
        labels = [int(v) for v in label_cells]
        if any(str(l) != v for l, v in zip(labels, label_cells)) or min(labels) < 0:
            raise ValueError
        num_classes = max(max(labels) + 1, 2)
    except ValueError:
        seen = {}
        labels = []
        for v in label_cells:
            if v not in seen:
                seen[v] = len(seen)
            labels.append(seen[v])
        num_classes = max(len(seen), 2)
    return Schema(tuple(features), num_classes), [encoders, labels]


def read_stream_csv(path) -> list[ChunkPair] | list[Chunk]:
    """Load a dataset CSV.

    Returns chunk pairs when the file contains test rows, bare train chunks
    otherwise (the prequential case).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 4 or header[0] != "step" or header[1] != "role" or header[-1] != "label":
            raise ValueError(f"{path}: expected header step,role,f0..fk,label")
        n_features = len(header) - 3
        steps, roles = [], []
        feature_cells: list[list[str]] = [[] for _ in range(n_features)]
        label_cells: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                steps.append(int(row[0]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: step must be an integer, not {row[0]!r}") from None
            if row[1] not in (TRAIN, TEST):
                raise ValueError(f"{path}:{lineno}: role must be train or test")
            roles.append(row[1])
            for j in range(n_features):
                feature_cells[j].append(row[2 + j])
            label_cells.append(row[-1])
    if not steps:
        raise ValueError(f"{path}: no data rows")

    schema, (encoders, labels) = _infer_schema(feature_cells, label_cells)
    X = np.array(encoders, dtype=np.float64).T
    y = np.array(labels, dtype=np.int64)
    steps_arr = np.array(steps)
    has_test = TEST in roles
    roles_arr = np.array(roles)

    out = []
    for step in sorted(set(steps)):
        train_sel = (steps_arr == step) & (roles_arr == TRAIN)
        if not train_sel.any():
            raise ValueError(f"{path}: step {step} has no train rows")
        train = Chunk(step, schema, X[train_sel], y[train_sel])
        if has_test:
            test_sel = (steps_arr == step) & (roles_arr == TEST)
            if not test_sel.any():
                raise ValueError(f"{path}: step {step} has no test rows")
            out.append(ChunkPair(train, Chunk(step, schema, X[test_sel], y[test_sel])))
        else:
            out.append(train)
    return out
