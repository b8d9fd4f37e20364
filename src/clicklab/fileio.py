"""On-disk formats: ASCII PGM for binary masks, "PM" text for probability maps.

PGM (magic ``P2``, maxval 255) encodes foreground as 255 and background as 0.
A PM file starts with ``PM <height> <width>`` followed by ``height`` lines of
``width`` space-separated decimal floats, row-major.

``write_pm`` formats each distinct double (by bit pattern, so -0.0 stays
apart from 0.0) with ``repr`` once and builds each row from those strings,
``write_pgm`` looks each row up in a two-entry table, and ``read_pgm``
parses each distinct token once, so their text work scales with the number
of distinct values, not pixels.  ``read_pm`` converts each row in one numpy
call that parses every token with ``float``.  The bytes written, and the
values and errors read, are those of per-pixel ``repr``/``float``/``int``.

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


_PGM_TEXT = np.array(["0", "255"], dtype=object)  # indexed by the {0, 1} mask


def write_pgm(path: str, mask) -> None:
    arr = as_binary_mask(mask)
    h, w = arr.shape
    lines = ["P2", f"{w} {h}", "255"]
    for row in arr:
        lines.append(" ".join(_PGM_TEXT[row].tolist()))
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
    # dict keys keep first-occurrence order, so the first bad token is the file's
    distinct = dict.fromkeys(values)
    parsed = dict(zip(distinct, _parse_tokens(int, distinct, path)))
    if not set(parsed.values()) <= {0, 255}:
        bad = [v for v in map(parsed.__getitem__, values) if v != 0 and v != 255][:4]
        raise ParameterError(f"{path}: pixels must be 0 or 255, found {np.array(bad)}")
    is_fg = {t: int(v == 255) for t, v in parsed.items()}
    return np.fromiter(map(is_fg.__getitem__, values), np.uint8, count=h * w).reshape(h, w)


def write_pm(path: str, prob) -> None:
    atomic_write_text(path, _pm_text(as_prob_map(prob)))


def _pm_text(arr: np.ndarray) -> str:
    """The PM text of a validated map, with one ``repr`` per distinct value."""
    h, w = arr.shape
    # distinct bit patterns, so -0.0 keeps its own text and is not written as 0.0
    bit_values, inverse = np.unique(arr.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(repr, bit_values.view(np.float64).tolist())), dtype=object)
    lines = [f"PM {h} {w}"]
    for row in inverse.reshape(h, w):
        lines.append(" ".join(texts[row].tolist()))
    lines.append("")  # the final newline, without one more copy of the text
    return "\n".join(lines)


def read_pm(path: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "PM":
            raise ParameterError(f"{path}: expected header 'PM <height> <width>'")
        h, w = _parse_tokens(int, header[1:], path)
        rows = []
        for line_no, line in enumerate(fh, start=2):
            vals = line.split()
            if not vals:
                continue
            if len(vals) != w:
                raise ParameterError(f"{path}:{line_no}: expected {w} values, found {len(vals)}")
            try:  # numpy converts each str with float(), stopping at the first bad one
                rows.append(np.array(vals, dtype=np.float64))
            except ValueError as exc:
                raise ParameterError(f"{path}:{line_no}: {exc}") from None
    if len(rows) != h:
        raise ParameterError(f"{path}: expected {h} rows, found {len(rows)}")
    return as_prob_map(np.array(rows, dtype=np.float64))
