import re

import numpy as np
import pytest

from clicklab.core import (
    DimensionError,
    ParameterError,
    as_binary_mask,
    binarize,
    iou,
    pt_map,
    rng_stream,
)
from clicklab.fileio import read_pgm, read_pm, write_pgm, write_pm


def test_pt_map_case_split():
    pred = np.array([[0.7]])
    assert pt_map(pred, np.array([[1]]))[0, 0] == 0.7
    assert pt_map(pred, np.array([[0]]))[0, 0] == pytest.approx(0.3)


def test_pt_map_clamp_floor():
    got = pt_map(np.array([[0.0]]), np.array([[1]]))
    assert got[0, 0] == 1e-7


def test_pt_map_relabeling_symmetry():
    # pt(p, y) == pt(1-p, 1-y) before clamping comes into play
    rng = rng_stream(3, "test/ptmap")
    p = rng.uniform(0.01, 0.99, size=(9, 11))
    y = (rng.random((9, 11)) < 0.5).astype(np.uint8)
    np.testing.assert_allclose(pt_map(p, y), pt_map(1.0 - p, 1 - y), atol=1e-15)


def test_pt_map_errors():
    with pytest.raises(DimensionError):
        pt_map(np.full((2, 2), 0.5), np.zeros((3, 2), dtype=int))


@pytest.mark.parametrize("values", [
    [[0, 1]], [[False, True]], [[0.0, 1.0]], [[-0.0, 1.0]], np.ones((3, 2), dtype=np.int64),
])
def test_binary_mask_accepts_zero_one_of_any_dtype(values):
    got = as_binary_mask(values)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, np.asarray(values, dtype=float))


@pytest.mark.parametrize("values, shown", [
    ([[0, 2]], "[0 2]"), ([[0.5, 1.0]], "[0.5 1. ]"), ([[np.nan, 0.0]], "[ 0. nan]"),
    ([[-1, 0]], "[-1  0]"), ([["0", "1"]], "['0' '1']"),
])
def test_binary_mask_rejects_other_values(values, shown):
    with pytest.raises(ParameterError, match=r"found values " + re.escape(shown)):
        as_binary_mask(values)


def test_iou_identical_and_disjoint():
    a = np.array([[1, 1], [0, 0]])
    assert iou(a, a) == 1.0
    assert iou(a, 1 - a) == 0.0


def test_iou_hand_enumeration():
    # 2x2 all ones vs a single one: intersection {1 pixel}, union {4 pixels}
    pred = np.ones((2, 2), dtype=int)
    gt = np.zeros((2, 2), dtype=int)
    gt[0, 0] = 1
    assert iou(pred, gt) == 0.25


def test_iou_empty_vs_empty_is_one():
    z = np.zeros((3, 3), dtype=int)
    assert iou(z, z) == 1.0


def test_iou_symmetric_and_bounded():
    rng = rng_stream(4, "test/iou")
    for _ in range(50):
        a = (rng.random((6, 6)) < 0.4).astype(np.uint8)
        b = (rng.random((6, 6)) < 0.4).astype(np.uint8)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)


def test_binarize_threshold_inclusive():
    assert binarize(np.array([[0.5]]))[0, 0] == 1
    assert binarize(np.array([[0.49]]))[0, 0] == 0
    assert binarize(np.full((3, 3), 0.9)).all()


def test_binarize_monotone():
    rng = rng_stream(5, "test/binarize")
    p = rng.random((8, 8))
    base = binarize(p)
    bumped = binarize(np.clip(p + 0.05, 0.0, 1.0))
    assert (bumped >= base).all()


def test_pgm_roundtrip(tmp_path):
    mask = (rng_stream(6, "test/pgm").random((5, 9)) < 0.5).astype(np.uint8)
    path = str(tmp_path / "m.pgm")
    write_pgm(path, mask)
    np.testing.assert_array_equal(read_pgm(path), mask)
    header = open(path).readline().strip()
    assert header == "P2"


def test_pm_roundtrip(tmp_path):
    prob = rng_stream(7, "test/pm").random((4, 6))
    path = str(tmp_path / "p.pm")
    write_pm(path, prob)
    got = read_pm(path)
    np.testing.assert_array_equal(got, prob)  # repr round-trips doubles exactly
    assert open(path).readline().split() == ["PM", "4", "6"]


def test_pgm_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P2\n2 1\n255\n255 7\n")
    with pytest.raises(ParameterError):
        read_pgm(str(path))


def test_pgm_rejects_wrong_magic_and_truncation(tmp_path):
    p5 = tmp_path / "p5.pgm"
    p5.write_text("P5\n2 1\n255\n255 0\n")
    with pytest.raises(ParameterError):
        read_pgm(str(p5))
    short = tmp_path / "short.pgm"
    short.write_text("P2\n3 2\n255\n255 0\n")
    with pytest.raises(ParameterError):
        read_pgm(str(short))


def test_pm_rejects_bad_rows(tmp_path):
    wrong_width = tmp_path / "w.pm"
    wrong_width.write_text("PM 1 3\n0.5 0.5\n")
    with pytest.raises(ParameterError):
        read_pm(str(wrong_width))
    wrong_height = tmp_path / "h.pm"
    wrong_height.write_text("PM 2 2\n0.5 0.5\n")
    with pytest.raises(ParameterError):
        read_pm(str(wrong_height))
    out_of_range = tmp_path / "r.pm"
    out_of_range.write_text("PM 1 2\n0.5 1.5\n")
    with pytest.raises(ParameterError):
        read_pm(str(out_of_range))


def test_rng_streams_reproducible_and_split():
    a = rng_stream(42, "module/x").random(5)
    b = rng_stream(42, "module/x").random(5)
    c = rng_stream(42, "module/y").random(5)
    d = rng_stream(43, "module/x").random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [2.9, 7.0, True, "7", float("nan"), np.float64(3.0), None])
def test_rng_stream_rejects_a_non_integer_seed(seed):
    with pytest.raises(ParameterError, match="seed must be an integer"):
        rng_stream(seed, "module/x")


def test_rng_stream_takes_numpy_integer_seeds():
    expected = rng_stream(42, "module/x").random(5)
    for seed in (np.int64(42), np.uint64(42), np.uint8(42)):
        np.testing.assert_array_equal(rng_stream(seed, "module/x").random(5), expected)
    rng_stream(2 ** 64 - 1, "module/x")
    for seed in (-1, 2 ** 64, np.int64(-1)):
        with pytest.raises(ParameterError, match="unsigned 64-bit"):
            rng_stream(seed, "module/x")
