"""The PM and PGM codecs against per-value references: the same bytes
written, the same values read and the same errors raised."""

import numpy as np
import pytest

from clicklab import synthgen
from clicklab.core import ClickLabError, ParameterError
from clicklab.fileio import read_pgm, read_pm, write_pgm, write_pm
from oracles import bits, reference_pgm_text, reference_pm_text, reference_read_pgm, reference_read_pm

_rng = np.random.default_rng(21)
_synth = synthgen.generate(synthgen.SynthSpec(128, 128, 2, "blob", 0.0, seed=1))
_noisy = synthgen.generate(synthgen.SynthSpec(48, 40, 2, "ellipse", 1.0, seed=2))

PM_MAPS = {
    "random_128": _rng.random((128, 128)),
    "random_non_square": _rng.random((37, 53)),
    "synth_rows": _synth.feature_map[..., 0],
    "synth_cols": _synth.feature_map[..., 1],
    "synth_distance": _synth.feature_map[..., 2],
    "synth_intensity": _synth.feature_map[..., 3],
    "synth_noisy_intensity": _noisy.feature_map[..., 3],
    "two_levels": np.where(_rng.random((20, 30)) < 0.5, 0.25, 0.75),
    "signed_zeros": np.where(_rng.random((9, 11)) < 0.5, 0.0, -0.0),
    "signed_zeros_and_one": _rng.choice([0.0, -0.0, 1.0, 5e-324], size=(12, 7)),
    "smallest_subnormal": np.full((3, 4), 5e-324),
    "all_ones": np.ones((5, 5)),
    "exponent_forms": np.array([[1e-5, 1e-4, 0.1, 1e-16], [2.0 ** -1074, 2.0 ** -1022, 1.0 - 2.0 ** -53, 0.5]]),
    "one_by_one": np.array([[0.3]]),
    "one_by_one_negative_zero": np.array([[-0.0]]),
    "one_column": _rng.random((7, 1)),
    "one_row": _rng.random((1, 9)),
}

PGM_MASKS = {
    "random_non_square": (_rng.random((23, 41)) < 0.5).astype(np.uint8),
    "synth_instance": _synth.gt_instances[0],
    "all_background": np.zeros((6, 4), dtype=np.uint8),
    "all_foreground": np.ones((4, 6), dtype=np.uint8),
    "bool_dtype": _rng.random((5, 8)) < 0.3,
    "int64_dtype": (_rng.random((8, 5)) < 0.7).astype(np.int64),
    "one_by_one_foreground": np.ones((1, 1), dtype=np.uint8),
    "one_by_one_background": np.zeros((1, 1), dtype=np.uint8),
    "one_column": (_rng.random((9, 1)) < 0.5).astype(np.uint8),
}


@pytest.mark.parametrize("name", PM_MAPS)
def test_write_pm_bytes_equal_per_pixel_repr(tmp_path, name):
    path = tmp_path / "m.pm"
    write_pm(str(path), PM_MAPS[name])
    assert path.read_bytes() == reference_pm_text(PM_MAPS[name]).encode()


@pytest.mark.parametrize("name", PGM_MASKS)
def test_write_pgm_bytes_equal_per_pixel_reference(tmp_path, name):
    path = tmp_path / "m.pgm"
    write_pgm(str(path), PGM_MASKS[name])
    assert path.read_bytes() == reference_pgm_text(PGM_MASKS[name]).encode()


@pytest.mark.parametrize("name", PM_MAPS)
def test_pm_round_trip_is_bit_exact(tmp_path, name):
    path = str(tmp_path / "m.pm")
    write_pm(path, PM_MAPS[name])
    assert bits(read_pm(path)) == bits(np.ascontiguousarray(PM_MAPS[name], dtype=np.float64))


@pytest.mark.parametrize("name", PGM_MASKS)
def test_pgm_round_trip_is_exact(tmp_path, name):
    path = str(tmp_path / "m.pgm")
    write_pgm(path, PGM_MASKS[name])
    assert bits(read_pgm(path)) == bits(PGM_MASKS[name].astype(np.uint8))


def _same_outcome(read, reference, path):
    """``read`` and ``reference`` return bit-identical arrays or raise the same error."""
    try:
        want = reference(path)
    except ClickLabError as exc:
        with pytest.raises(type(exc)) as got:
            read(path)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    assert bits(read(path)) == bits(want)


# tokens that float() and int() take or reject in ways a hand-written parser
# would likely not copy: digit separators, non-ASCII digits, signs, missing
# digits on one side of the point, hex floats, words and leading zeros
EXOTIC_TOKENS = ["0.1_5", "١", "+.5", "5.", "0x1p-1", "infinity", "0255", "+0", "-0", "0_0",
                 "2_55", "٢٥٥", "２５５", "٠.٥", "1__0", "_1", ".", "nan", "-inf", "1e-400",
                 "1e400", "0.5e0", "0x0", "255.0", "0b1", "1_"]


@pytest.mark.parametrize("token", EXOTIC_TOKENS)
def test_read_pm_token_parses_as_float(tmp_path, token):
    path = tmp_path / "t.pm"
    path.write_text(f"PM 2 2\n0.25 {token}\n{token} 0.5\n")
    _same_outcome(read_pm, reference_read_pm, str(path))


@pytest.mark.parametrize("token", EXOTIC_TOKENS)
def test_read_pgm_token_parses_as_int(tmp_path, token):
    path = tmp_path / "t.pgm"
    path.write_text(f"P2\n2 2\n255\n0 {token}\n{token} 255\n")
    _same_outcome(read_pgm, reference_read_pgm, str(path))


PM_FILES = {
    "first_bad_token_in_row_order": "PM 2 3\n0.5 y x\nw 0.5 0.5\n",
    "repeated_bad_token": "PM 2 3\nq 0.5 q\n0.5 0.5 0.5\n",
    "bad_token_in_second_row": "PM 2 3\n0.5 0.5 0.5\n0.5 0.5 z\n",
    "count_before_later_bad_token": "PM 2 2\n0.5 0.5 0.5\nx 0.5\n",
    "bad_token_before_later_count": "PM 2 2\n0.5 x\n0.5\n",
    "blank_lines_counted": "PM 2 2\n\n0.5 0.5\n  \t\n0.5 abc\n",
    "extra_row_with_bad_token": "PM 1 2\n0.5 0.5\n0.5 zz\n",
    "extra_row": "PM 1 2\n0.5 0.5\n0.5 0.5\n",
    "missing_row": "PM 3 2\n0.5 0.5\n0.5 0.5\n",
    "above_one": "PM 1 3\n0.5 2.0 0.5\n",
    "below_zero": "PM 1 2\n-0.25 0.5\n",
    "negative_zero": "PM 1 2\n-0.0 0.5\n",
    "not_a_number": "PM 1 2\nnan 0.5\n",
    "zero_rows": "PM 0 2\n",
    "header_text": "PM 1 z\n0.5 0.5\n",
    "header_short": "PM 1\n0.5\n",
    "wrong_magic": "PX 1 1\n0.5\n",
    "tabs_and_wide_spaces": "PM 2 2\n0.5\t0.25\n0.75\u20030.5\n",
}

PGM_FILES = {
    "first_bad_token_in_file_order": "P2\n3 2\n255\n0 y 255\nx 0 y\n",
    "first_four_bad_values": "P2\n3 2\n255\n3 3 0\n7 9 254\n",
    "one_bad_value": "P2\n2 1\n255\n0 256\n",
    "negative_value": "P2\n2 1\n255\n-1 0\n",
    "comments": "P2 # magic\n2 1 # size\n255\n0 255 # 5 7\n",
    "one_value_per_line": "P2\n2 2\n255\n0\n255\n255\n0\n",
    "too_few_pixels": "P2\n2 2\n255\n0 255 0\n",
    "too_many_pixels": "P2\n2 1\n255\n0 255 0\n",
    "maxval": "P2\n2 1\n1\n0 1\n",
    "zero_size": "P2\n0 1\n255\n",
    "header_text": "P2\n2 y\n255\n0 255\n",
    "truncated_header": "P2\n2 1\n",
    "wrong_magic": "P5\n1 1\n255\n0\n",
    "empty": "",
}


@pytest.mark.parametrize("name", PM_FILES)
def test_read_pm_matches_per_token_reference(tmp_path, name):
    path = tmp_path / "f.pm"
    path.write_text(PM_FILES[name])
    _same_outcome(read_pm, reference_read_pm, str(path))


@pytest.mark.parametrize("name", PGM_FILES)
def test_read_pgm_matches_per_token_reference(tmp_path, name):
    path = tmp_path / "f.pgm"
    path.write_text(PGM_FILES[name])
    _same_outcome(read_pgm, reference_read_pgm, str(path))


def test_read_pgm_names_a_pixel_beyond_int64(tmp_path):
    # the per-token reference cannot hold this value in its int64 array
    path = tmp_path / "f.pgm"
    path.write_text("P2\n3 1\n255\n0 99999999999999999999 7\n")
    with pytest.raises(ParameterError, match=r"pixels must be 0 or 255, found \[99999999999999999999 7\]"):
        read_pgm(str(path))
