"""On-disk formats: ASCII PGM for binary masks, "PM" text for probability maps.

PGM (magic ``P2``, maxval 255) encodes foreground as 255 and background as 0.
A PM file starts with ``PM <height> <width>`` followed by ``height`` lines of
``width`` space-separated decimal floats, row-major.

Writes go through a temp file plus rename so readers never see partial output.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .core import ParameterError, as_binary_mask, as_prob_map


def atomic_write_text(path: str, text: str) -> None:
    """Write text to ``path`` atomically (temp file in the same dir + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _parse_tokens(convert, tokens, where: str) -> list:
    """``convert`` every token; a malformed one is an input error."""
    try:
        return [convert(t) for t in tokens]
    except ValueError as exc:
        raise ParameterError(f"{where}: {exc}") from None


def write_pgm(path: str, mask) -> None:
    arr = as_binary_mask(mask)
    h, w = arr.shape
    lines = ["P2", f"{w} {h}", "255"]
    for row in arr:
        lines.append(" ".join("255" if v else "0" for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_pgm(path: str) -> np.ndarray:
    with open(path) as fh:
        tokens = []
        for line in fh:
            hash_pos = line.find("#")
            if hash_pos >= 0:
                line = line[:hash_pos]
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise ParameterError(f"{path}: not an ASCII PGM (expected magic P2)")
    if len(tokens) < 4:
        raise ParameterError(f"{path}: truncated PGM header")
    w, h, maxval = _parse_tokens(int, tokens[1:4], path)
    if w < 1 or h < 1:
        raise ParameterError(f"{path}: PGM size must be positive, got {w}x{h}")
    if maxval != 255:
        raise ParameterError(f"{path}: expected maxval 255, got {maxval}")
    values = tokens[4:]
    if len(values) != h * w:
        raise ParameterError(f"{path}: expected {h * w} pixels, found {len(values)}")
    arr = np.array(_parse_tokens(int, values, path), dtype=np.int64).reshape(h, w)
    bad = ~np.isin(arr, (0, 255))
    if bad.any():
        raise ParameterError(f"{path}: pixels must be 0 or 255, found {arr[bad][:4]}")
    return (arr == 255).astype(np.uint8)


def write_pm(path: str, prob) -> None:
    arr = as_prob_map(prob)
    h, w = arr.shape
    lines = [f"PM {h} {w}"]
    for row in arr:
        lines.append(" ".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_pm(path: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "PM":
            raise ParameterError(f"{path}: expected header 'PM <height> <width>'")
        h, w = _parse_tokens(int, header[1:], path)
        rows = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            vals = line.split()
            if len(vals) != w:
                raise ParameterError(f"{path}:{line_no}: expected {w} values, found {len(vals)}")
            rows.append(_parse_tokens(float, vals, f"{path}:{line_no}"))
    if len(rows) != h:
        raise ParameterError(f"{path}: expected {h} rows, found {len(rows)}")
    return as_prob_map(np.array(rows, dtype=np.float64))
