import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftel.core import make_rng
from driftel.streams import (
    CIR_RADIUS,
    FAMILIES,
    PRESETS,
    ROT_CLASSES,
    ROT_DELTA,
    SEA_THETA,
    SIN_DELTA,
    STA_COLORS,
    STA_RULES,
    STA_SHAPES,
    VARIANTS,
    DriftSchedule,
    DriftStreamConfig,
    add_noise,
    generate_pair,
    make_stream,
    preset_config,
    rotate_points,
    schedule_for,
    schema_for,
    sta_label,
)
from helpers import NO_SHRINK, numeric_chunk, reference_generate_pair


def test_presets_match_published_stream_table():
    assert len(PRESETS) == 15
    assert PRESETS["SEA200A"] == ("SEA", "A", 200)
    assert PRESETS["STA500G"] == ("STA", "G", 500)
    # feature/label arities per family
    arity = {"SEA": (3, 2), "ROT": (2, 6), "CIR": (3, 2), "SIN": (2, 2), "STA": (3, 2)}
    for fam, (n_feat, n_cls) in arity.items():
        schema = schema_for(fam)
        assert schema.n_features == n_feat
        assert schema.num_classes == n_cls
    cfg = preset_config("SEA200A", seed=1)
    assert cfg.chunk_size == 200 and cfg.n_steps == 120 and cfg.noise_rate == 0.10
    # 120 steps x 200 training examples = 24,000
    assert cfg.n_steps * cfg.chunk_size == 24_000
    with pytest.raises(ValueError):
        preset_config("SEA999X")


@pytest.mark.parametrize("family", ["SEA", "ROT", "CIR", "SIN", "STA"])
def test_chunks_of_a_stream_share_one_schema_object(family):
    # A tree's schema check against a chunk of its own stream is then an
    # identity test, not a dataclass comparison.
    pairs = make_stream(DriftStreamConfig(family, "A", 20, n_steps=3, seed=1))
    schemas = {id(chunk.schema) for pair in pairs for chunk in (pair.train, pair.test)}
    assert schemas == {id(schema_for(family))}


def test_sea_label_rule_examples():
    cfg = preset_config("SEA200A", seed=0)
    sched = schedule_for("SEA", "A", 120)
    assert sched.segments == SEA_THETA["A"]
    assert sched.chunks_per_segment == 15  # theta changes every 15 steps
    from driftel.streams import sea_label

    assert sea_label(np.array([2.0]), np.array([3.0]), 10.0)[0] == 1
    assert sea_label(np.array([9.0]), np.array([9.0]), 10.0)[0] == 0


def test_cir_label_rule_examples():
    from driftel.streams import cir_label

    assert cir_label(np.array([0.0]), np.array([0.0]), 3.0)[0] == 1
    assert cir_label(np.array([3.0]), np.array([3.0]), 3.0)[0] == 0
    assert schedule_for("CIR", "A", 120).segments == CIR_RADIUS["A"]


def test_sin_label_rule_examples():
    from driftel.streams import sin_label

    assert sin_label(np.array([0.0]), np.array([1.0]), 0.0)[0] == 1
    assert sin_label(np.array([math.pi / 2]), np.array([0.0]), 0.0)[0] == 0


def test_sta_label_rule_examples():
    and_rule = ("R", "and", "C")
    # (R, C, S) satisfies color=R and shape=C
    assert sta_label(np.array([0]), np.array([0]), and_rule)[0] == 1
    # (B, C, L): color differs under the conjunction
    assert sta_label(np.array([1]), np.array([0]), and_rule)[0] == 0
    or_rule = ("B", "or", "C")
    # (B, T, M) satisfies color=B
    assert sta_label(np.array([1]), np.array([2]), or_rule)[0] == 1
    assert STA_RULES["A"][1] == or_rule
    assert schedule_for("STA", "A", 120).chunks_per_segment == 20


def test_rotation_is_standard_and_periodic():
    x1, x2 = rotate_points(np.array([1.0]), np.array([0.0]), math.pi / 2)
    assert x1[0] == pytest.approx(0.0, abs=1e-12)
    assert x2[0] == pytest.approx(1.0, abs=1e-12)
    # full turn returns the cluster centers to their start
    angles = np.arange(6) * math.pi / 3
    cx, cy = np.cos(angles), np.sin(angles)
    rx, ry = rotate_points(cx, cy, 2 * math.pi)
    assert np.allclose(rx, cx, atol=1e-9)
    assert np.allclose(ry, cy, atol=1e-9)
    assert ROT_DELTA["A"] == math.pi / 30 and ROT_DELTA["G"] == math.pi / 60
    assert SIN_DELTA["A"] == math.pi / 30 and SIN_DELTA["G"] == math.pi / 60


def test_drift_schedule_value_lookup():
    sched = DriftSchedule((1, 2, 3), 2)
    assert [sched.value_at(s) for s in range(6)] == [1, 1, 2, 2, 3, 3]
    assert sched.value_at(99) == 3  # clamps to the last segment


def test_stream_determinism_and_step_independence():
    cfg = preset_config("CIR200A", seed=7, n_steps=10)
    s1 = make_stream(cfg)
    s2 = make_stream(cfg)
    for p1, p2 in zip(s1, s2):
        assert np.array_equal(p1.train.X, p2.train.X)
        assert np.array_equal(p1.train.y, p2.train.y)
        assert np.array_equal(p1.test.X, p2.test.X)
        assert np.array_equal(p1.test.y, p2.test.y)
    # single steps regenerate identically out of order
    pair5 = generate_pair(cfg, 5)
    assert np.array_equal(pair5.train.y, s1[5].train.y)
    other = make_stream(preset_config("CIR200A", seed=8, n_steps=10))
    assert not np.array_equal(other[0].train.X, s1[0].train.X)


def test_noise_touches_exactly_the_contracted_count():
    chunk = numeric_chunk(np.arange(200, dtype=float), np.zeros(200, dtype=int))
    rng = make_rng(3)
    noisy = add_noise(chunk, 0.1, rng)
    assert int((noisy.y != chunk.y).sum()) == 20
    same = add_noise(chunk, 0.0, make_rng(4))
    assert same is chunk
    flipped = add_noise(numeric_chunk([1, 2, 3, 4], [0, 1, 0, 1]), 1.0, make_rng(5))
    assert np.array_equal(flipped.y, [1, 0, 1, 0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 60))
def test_noise_count_contract_property(seed, n):
    chunk = numeric_chunk(np.arange(n, dtype=float), np.zeros(n, dtype=int), num_classes=3)
    rate = (seed % 11) / 10.0
    noisy = add_noise(chunk, rate, make_rng(seed))
    assert int((noisy.y != chunk.y).sum()) == int(rate * n)


def independent_rule(family, variant, step, n_steps, X):
    """Straight-line restatement of each family's labeling rule."""
    if family == "SEA":
        theta = SEA_THETA[variant][min(step // (n_steps // 8), 7)]
        return (X[:, 0] + X[:, 1] <= theta).astype(int)
    if family == "CIR":
        r = CIR_RADIUS[variant][min(step // (n_steps // 8), 7)]
        return (X[:, 0] ** 2 + X[:, 1] ** 2 <= r * r).astype(int)
    if family == "SIN":
        theta = step * SIN_DELTA[variant]
        return (np.sin(X[:, 0] + theta) <= X[:, 1]).astype(int)
    if family == "STA":
        a, op, b = STA_RULES[variant][min(step // (n_steps // 6), 5)]
        ch = X[:, 0] == STA_COLORS.index(a)
        sh = X[:, 1] == STA_SHAPES.index(b)
        return (np.logical_and(ch, sh) if op == "and" else np.logical_or(ch, sh)).astype(int)
    raise ValueError(family)


@pytest.mark.parametrize("family", ["SEA", "CIR", "SIN", "STA"])
def test_test_chunks_satisfy_the_rule_exactly(family):
    cfg = DriftStreamConfig(family, "A", chunk_size=50, n_steps=120, noise_rate=0.10, seed=11)
    for step in [0, 14, 15, 59, 119]:
        pair = generate_pair(cfg, step)
        expected = independent_rule(family, "A", step, 120, pair.test.X)
        assert np.array_equal(pair.test.y, expected)


@pytest.mark.parametrize("family", ["SEA", "CIR", "SIN", "STA"])
def test_train_labels_match_rule_except_noise(family):
    cfg = DriftStreamConfig(family, "G", chunk_size=100, n_steps=120, noise_rate=0.10, seed=13)
    for step in [0, 40, 100]:
        pair = generate_pair(cfg, step)
        expected = independent_rule(family, "G", step, 120, pair.train.X)
        assert int((pair.train.y != expected).sum()) == 10


def test_rot_clusters_sit_on_the_rotated_circle():
    cfg = DriftStreamConfig("ROT", "A", chunk_size=400, n_steps=120, noise_rate=0.0, seed=17)
    step = 10
    pair = generate_pair(cfg, step)
    theta = step * ROT_DELTA["A"]
    for k in range(ROT_CLASSES):
        pts = pair.test.X[pair.test.y == k]
        assert len(pts) > 10
        angle = k * math.pi / 3
        cx, cy = rotate_points(np.array([math.cos(angle)]), np.array([math.sin(angle)]), theta)
        center = pts.mean(axis=0)
        assert center[0] == pytest.approx(cx[0], abs=0.1)
        assert center[1] == pytest.approx(cy[0], abs=0.1)
        assert pts.std(axis=0).max() < 0.3  # sigma 0.15 clusters


def test_rot_zero_delta_would_be_stationary():
    # variant angle only enters through step * delta; step 0 of A and G agree
    a0 = generate_pair(DriftStreamConfig("ROT", "A", 50, seed=19), 0)
    g0 = generate_pair(DriftStreamConfig("ROT", "G", 50, seed=19), 0)
    assert np.array_equal(a0.test.X, g0.test.X)
    assert np.array_equal(a0.test.y, g0.test.y)


def test_train_test_pairs_are_exchangeable_draws():
    # noise-free configs: per-pair label rates agree within 3 binomial sigmas
    for family in ["SEA", "CIR", "SIN", "STA"]:
        cfg = DriftStreamConfig(family, "A", chunk_size=400, n_steps=16, noise_rate=0.0, seed=23)
        for pair in make_stream(cfg):
            p_train = np.mean(pair.train.y == 1)
            p_test = np.mean(pair.test.y == 1)
            pooled = (p_train + p_test) / 2
            sigma = math.sqrt(max(pooled * (1 - pooled), 1e-9) * 2 / 400)
            assert abs(p_train - p_test) <= max(3 * sigma, 0.05)


def test_cir_positive_rate_monotone_in_radius():
    rates = []
    for radius, step in [(1.0, 30), (3.0, 0), (5.0, 90)]:
        cfg = DriftStreamConfig("CIR", "A", chunk_size=500, n_steps=120, noise_rate=0.0, seed=29)
        pair = generate_pair(cfg, step)
        assert schedule_for("CIR", "A", 120).value_at(step) == radius
        rates.append(np.mean(pair.test.y == 1))
    assert rates[0] < rates[1] < rates[2]


def test_config_validation():
    with pytest.raises(ValueError):
        DriftStreamConfig("XXX", "A", 100)
    with pytest.raises(ValueError):
        DriftStreamConfig("SEA", "B", 100)
    with pytest.raises(ValueError):
        DriftStreamConfig("SEA", "A", 0)
    with pytest.raises(ValueError):
        DriftStreamConfig("SEA", "A", 100, noise_rate=1.5)
    with pytest.raises(ValueError):
        generate_pair(DriftStreamConfig("SEA", "A", 10, n_steps=5), 7)


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from(VARIANTS),
    st.integers(1, 40),
    st.integers(1, 130),
    st.data(),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
)
def test_generate_pair_matches_the_per_family_generators(
    family, variant, chunk_size, n_steps, data, seed, noise_rate
):
    # One recipe for all families draws what the five generators it replaced
    # drew, in the same rng order: train rows, test rows, training noise.
    step = data.draw(st.integers(0, n_steps - 1), label="step")
    cfg = DriftStreamConfig(family, variant, chunk_size, n_steps=n_steps, noise_rate=noise_rate, seed=seed)
    got, want = generate_pair(cfg, step), reference_generate_pair(cfg, step)
    for a, b in ((got.train, want.train), (got.test, want.test)):
        assert a.index == b.index == step
        assert a.schema is b.schema
        assert a.X.dtype == b.X.dtype and a.X.tobytes() == b.X.tobytes()
        assert a.y.dtype == b.y.dtype and a.y.tobytes() == b.y.tobytes()
