"""Independent oracles shared by the test modules.

Everything here is deliberately brute force: exhaustive enumeration for
assignment problems, value-only central differences for gradients, and
one full-image pass per error component or click disk for click placement
and click encoding.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from scipy import ndimage

from clicklab.clicksim import ClickRecord, interior_point
from clicklab.core import (
    ParameterError,
    PerfectPredictionError,
    as_binary_mask,
    check_same_shape,
)


@lru_cache(maxsize=None)
def _injective_maps(n: int, m: int) -> np.ndarray:
    """All injective assignments as an index table.

    For n <= m: rows are column choices per row.  For n > m the caller
    transposes first.
    """
    return np.array(list(itertools.permutations(range(m), n)), dtype=np.intp)


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum total cost over injective assignments of size min(n, m)."""
    c = np.asarray(cost, dtype=np.float64)
    if c.shape[0] > c.shape[1]:
        c = c.T
    n, m = c.shape
    maps = _injective_maps(n, m)          # (count, n) column picks
    totals = c[np.arange(n), maps].sum(axis=1)
    return float(totals.min())


def brute_force_lex_min_assignment(cost: np.ndarray, tol: float = 1e-9):
    """Lexicographically smallest minimum-cost assignment, by enumeration.

    Pair lists are sorted by prediction index and compared elementwise, so
    matching an earlier prediction (and then a lower gt index) wins ties.
    """
    c = np.asarray(cost, dtype=np.float64)
    n, m = c.shape
    k = min(n, m)
    best_total = brute_force_min_cost(c)
    best = None
    for rows in itertools.combinations(range(n), k):
        for perm in itertools.permutations(range(m), k):
            total = sum(c[r, p] for r, p in zip(rows, perm))
            if abs(total - best_total) <= tol:
                pairs = sorted(zip(rows, perm))
                if best is None or pairs < best:
                    best = pairs
    return best


def central_diff(value_fn, prob: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Per-pixel central difference of a scalar-valued map function."""
    grad = np.zeros_like(prob)
    work = prob.copy()
    for idx in np.ndindex(prob.shape):
        orig = work[idx]
        work[idx] = orig + h
        up = value_fn(work)
        work[idx] = orig - h
        down = value_fn(work)
        work[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
    return grad


def reference_next_click(pred, gt, prior=()) -> ClickRecord:
    """Protocol-1 click placement, one full-image pass per error component.

    Every 4-connected component of both polarities becomes a candidate keyed
    by (-size, FN before FP, first row-major pixel); the winner's full-image
    mask goes to ``interior_point``.
    """
    p = as_binary_mask(pred)
    y = as_binary_mask(gt)
    check_same_shape(p, y)
    fn = (y == 1) & (p == 0)
    fp = (p == 1) & (y == 0)
    if not fn.any() and not fp.any():
        raise PerfectPredictionError("prediction equals ground truth; no click needed")

    candidates = []
    for polarity_rank, err in ((0, fn), (1, fp)):
        labels, count = ndimage.label(err, structure=ndimage.generate_binary_structure(2, 1))
        for lbl in range(1, count + 1):
            comp = labels == lbl
            size = int(comp.sum())
            anchor = tuple(np.argwhere(comp)[0])
            candidates.append((-size, polarity_rank, anchor, comp))
    candidates.sort(key=lambda t: (t[0], t[1], t[2]))
    _, polarity_rank, _, comp = candidates[0]
    r, c = interior_point(comp.astype(np.uint8))
    return ClickRecord(r, c, positive=(polarity_rank == 0), index=len(prior) + 1)


def reference_encode_clicks(clicks, h: int, w: int, radius: float):
    """Click disk maps (positive, negative), each disk evaluated on a
    full-image coordinate grid."""
    if not radius >= 1:
        raise ParameterError(f"radius must be >= 1, got {radius}")
    pos = np.zeros((h, w), dtype=np.float64)
    neg = np.zeros((h, w), dtype=np.float64)
    if not clicks:
        return pos, neg
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    for click in clicks:
        if not (0 <= click.row < h and 0 <= click.col < w):
            raise ParameterError(f"click ({click.row}, {click.col}) outside {h}x{w} image")
        disk = np.hypot(rows - click.row, cols - click.col) < radius
        if click.positive:
            pos[disk] = 1.0
        else:
            neg[disk] = 1.0
    return pos, neg
