import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftel.core import (
    CATEGORICAL,
    NUMERIC,
    Chunk,
    FeatureDescriptor,
    Schema,
    class_prior,
    make_rng,
)
from helpers import NO_SHRINK, WALK_SCHEMA, numeric_chunk, numeric_schema


def test_feature_descriptor_validation():
    FeatureDescriptor(NUMERIC)
    FeatureDescriptor(CATEGORICAL, ("a", "b"))
    with pytest.raises(ValueError):
        FeatureDescriptor("weird")
    with pytest.raises(ValueError):
        FeatureDescriptor(CATEGORICAL, ())
    with pytest.raises(ValueError):
        FeatureDescriptor(CATEGORICAL, ("a", "a"))
    with pytest.raises(ValueError):
        FeatureDescriptor(NUMERIC, ("a",))


def test_schema_validation():
    with pytest.raises(ValueError):
        Schema((), 2)
    with pytest.raises(ValueError):
        Schema((FeatureDescriptor(NUMERIC),), 1)


def test_chunk_validation():
    schema = numeric_schema(1, 2)
    with pytest.raises(ValueError):
        Chunk(0, schema, np.empty((0, 1)), np.empty(0, dtype=int))
    with pytest.raises(ValueError):
        Chunk(0, schema, np.array([[1.0]]), np.array([5]))
    with pytest.raises(ValueError):
        Chunk(0, schema, np.array([[np.nan]]), np.array([0]))
    cat = Schema((FeatureDescriptor(CATEGORICAL, ("a", "b")),), 2)
    with pytest.raises(ValueError):
        Chunk(0, cat, np.array([[2.0]]), np.array([0]))


def test_chunk_arrays_immutable():
    chunk = numeric_chunk([1.0, 2.0], [0, 1])
    with pytest.raises(ValueError):
        chunk.X[0, 0] = 9.0
    with pytest.raises(ValueError):
        chunk.y[0] = 1


DISTINCT_SCHEMAS = (
    WALK_SCHEMA,  # numeric first, then two categorical features
    Schema((FeatureDescriptor(CATEGORICAL, ("a", "b", "c")), FeatureDescriptor(NUMERIC)), 2),
    Schema((FeatureDescriptor(CATEGORICAL, ("a", "b")), FeatureDescriptor(CATEGORICAL, ("a", "b", "c"))), 2),
    numeric_schema(2),
)


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_distinct_rows_match_brute_force_grouping(data):
    # Rows are copies from a small pool or fresh rows; numeric values come
    # from a few values, +0.0 and -0.0 among them, or are free floats.
    schema = data.draw(st.sampled_from(DISTINCT_SCHEMAS))
    numeric = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.5]), st.floats(-10, 10))
    row = st.tuples(*(
        st.integers(0, len(fd.domain) - 1).map(float) if fd.is_categorical else numeric
        for fd in schema.features
    ))
    pool = data.draw(st.lists(row, min_size=1, max_size=6))
    n = data.draw(st.integers(1, 40))
    rows = data.draw(st.lists(st.one_of(st.sampled_from(pool), row), min_size=n, max_size=n))
    X = np.asarray(rows, dtype=np.float64).reshape(n, schema.n_features)
    chunk = Chunk(0, schema, X, np.zeros(n, dtype=np.int64))
    same = np.array([[bool(np.all(a == b)) for b in X] for a in X])
    distinct = chunk.distinct
    if same.sum() == n:  # every row equals only itself
        assert distinct is None
        return
    columns, inverse = distinct
    groups = {tuple(np.flatnonzero(r)) for r in same}
    assert columns.shape == (schema.n_features, len(groups))
    assert inverse.shape == (n,) and not columns.flags.writeable and not inverse.flags.writeable
    assert np.array_equal(columns[:, inverse], chunk.columns)  # equal under ==
    assert np.array_equal(inverse[:, None] == inverse[None, :], same)
    assert chunk.distinct is distinct  # computed once


def test_class_prior_examples():
    assert class_prior(numeric_chunk([1, 2, 3, 4], [0, 0, 1, 1])).tolist() == [0.5, 0.5]
    assert class_prior(numeric_chunk([1, 2, 3], [0, 0, 0], num_classes=3)).tolist() == [1.0, 0.0, 0.0]
    assert class_prior(numeric_chunk([1, 2, 3, 4], [0, 0, 0, 1])).tolist() == [0.75, 0.25]


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
def test_class_prior_sums_to_one(labels):
    chunk = numeric_chunk(np.arange(len(labels), dtype=float), labels, num_classes=4)
    assert abs(class_prior(chunk).sum() - 1.0) <= 1e-12


def test_make_rng_deterministic_and_forked():
    a = make_rng(7, 3).uniform(size=5)
    b = make_rng(7, 3).uniform(size=5)
    assert np.array_equal(a, b)
    c = make_rng(7, 4).uniform(size=5)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        make_rng(-1)
