"""Optimal assignment between per-query instance predictions and ground truth.

The assignment minimizes the summed pair cost

    lambda_mask * (lambda_afl * afl + lambda_dice * dice)
        + lambda_cli * (-log p_class[gt class])

over injective matchings of size min(N, M).  scipy's rectangular
Jonker-Volgenant solver (``linear_sum_assignment``) gives the optimum; a
forced-edge pass then returns the *lexicographically smallest* optimal
assignment (lowest prediction index first, then lowest ground-truth index),
so ties never depend on the solver's iteration order.  The pass skips every
re-solve that a lower bound on the completion (the smallest column minima
over the rows still open) already rules out.

Unmatched predictions are charged the down-weighted "unclick" classification
term in :func:`total_loss`.  Its N x M cost matrix is built over maps the
dataclasses validated once, in blocks of prediction rows sized by
``COST_BLOCK_ELEMENTS``; :func:`pair_cost` is the 1 x 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adaptive, losses
from .core import (DEFAULT_EPS_CLIP, DimensionError, ParameterError, as_binary_mask, as_prob_map,
                   as_prob_stack, check_nonnegative)

_TIE_RTOL = 1e-9
# float64 elements per (k, M, h, w) temporary of _cost_matrix (128 KB)
COST_BLOCK_ELEMENTS = 2 ** 14


def _class_pairs(probs, shape: tuple) -> np.ndarray:
    """Validate and return float64 (object, unclick) pairs, each summing to 1."""
    c = np.asarray(probs, dtype=np.float64)
    if c.shape != shape:
        raise DimensionError(f"click_class_probs must have shape {shape}, got {c.shape}")
    if not (c.min() >= 0.0 and (np.abs(c.sum(axis=-1) - 1.0) <= 1e-9).all()):  # NaN fails both
        raise ParameterError(f"click_class_probs must be a probability pair, got {c}")
    return c


@dataclass
class InstancePrediction:
    mask_probs: np.ndarray        # (h, w) probabilities
    click_class_probs: np.ndarray  # (object, unclick), sums to 1

    def __post_init__(self):
        self.mask_probs = as_prob_map(self.mask_probs)
        self.click_class_probs = _class_pairs(self.click_class_probs, (2,))

    @classmethod
    def stack(cls, probs, class_probs) -> list:
        """One prediction per map of an (N, h, w) probability stack and its
        (N, 2) class pairs, checked once by the constructor's rules and
        exception types; each prediction holds a view of the stacks."""
        p = as_prob_stack(probs, np.shape(probs)[1:])
        c = _class_pairs(class_probs, (len(p), 2))
        preds = []
        for mask_probs, click_class_probs in zip(p, c):
            pred = cls.__new__(cls)
            pred.mask_probs, pred.click_class_probs = mask_probs, click_class_probs
            preds.append(pred)
        return preds


@dataclass
class GroundTruthInstance:
    mask: np.ndarray          # (h, w) binary
    click_class: np.ndarray   # one-hot pair (object, unclick)

    def __post_init__(self):
        self.mask = as_binary_mask(self.mask)
        c = np.asarray(self.click_class, dtype=np.float64)
        if c.shape != (2,) or sorted(c.tolist()) != [0.0, 1.0]:
            raise ParameterError(f"click_class must be a one-hot pair, got {c}")
        self.click_class = c

    @property
    def class_index(self) -> int:
        return int(self.click_class.argmax())


@dataclass(frozen=True)
class LossWeights:
    lambda_mask: float = 1.0
    lambda_cli: float = 2.0
    lambda_afl: float = 5.0
    lambda_dice: float = 5.0
    unclick_weight: float = 0.1

    def __post_init__(self):
        for name in ("lambda_mask", "lambda_cli", "lambda_afl", "lambda_dice", "unclick_weight"):
            check_nonnegative(name, getattr(self, name))


@dataclass
class MatchResult:
    assignment: list            # (prediction index, gt index) pairs
    unmatched_predictions: list
    pair_costs: list
    total_cost: float


def _class_nll(probs: np.ndarray, index):
    """-log of ``probs[..., index]``; the clamp keeps the cost finite when a
    one-hot prediction misses the class."""
    return -np.log(np.maximum(probs[..., index], DEFAULT_EPS_CLIP))


def pair_cost(pred: InstancePrediction, gt: GroundTruthInstance,
              weights: LossWeights = LossWeights(),
              afl_params: adaptive.AflParams = adaptive.AflParams()) -> float:
    """Matching cost of one (prediction, ground truth) pair."""
    return float(_cost_matrix([pred], [gt], weights, afl_params)[0, 0])


def _cost_matrix(preds: list, gts: list, weights: LossWeights,
                 afl_params: adaptive.AflParams) -> np.ndarray:
    """N x M pair costs.  The dataclasses checked every map and parameter
    when they were built, so only shapes are checked here.

    The AFL and dice terms are computed over a (k, M, h, w) block of k
    prediction rows at a time, each by one value-only call of
    ``losses._loss_terms``, the assembly the bound training step runs on one
    map, against the ``Target.stack`` of the M ground truths, whose flat
    foreground indices are found once per call.  k is the largest
    count whose block holds at most ``COST_BLOCK_ELEMENTS`` floats, so each
    temporary stays under 128 KB.  At N = 40, M = 3, 32 x 32 on a 2-CPU
    Xeon, rows one at a time (numpy's per-call overhead once per row) took
    6.6-8.1 ms per matrix, blocks of 5 rows 3.6-4.2 ms, blocks of 10 rows
    3.4-3.8 ms and one block of all 40 rows 5.7-5.9 ms, its 1 MB
    temporaries coming fresh from the allocator on every call.  Blocks of 10
    rows also raised the peak resident memory of a decode-and-match run by
    about 0.15 MB, and blocks of 5 rows did not.  Each entry equals the pair
    computed on its own bit for bit: every map is reduced in the same order,
    and ``losses._power`` recomputes the maps whose exponent numpy
    special-cases.
    """
    shapes = {pr.mask_probs.shape for pr in preds} | {gt.mask.shape for gt in gts}
    if len(shapes) > 1:
        raise DimensionError(f"mask shapes differ: {sorted(shapes)}")
    target = losses.Target.stack(np.stack([gt.mask for gt in gts]))  # (M, h, w)
    p = np.stack([pr.mask_probs for pr in preds])[:, None]  # (N, 1, h, w)
    cls_term = _class_nll(np.stack([pr.click_class_probs for pr in preds]),
                          [gt.class_index for gt in gts])
    rows = max(1, COST_BLOCK_ELEMENTS // target.mask.size)
    cost = np.empty(cls_term.shape, dtype=np.float64)
    for start in range(0, len(preds), rows):
        block = slice(start, start + rows)
        afl, _, _ = losses._loss_terms("afl", p[block], target, vars(afl_params), grad=False)
        dice, _, _ = losses._loss_terms("dice", p[block], target, {"smooth": 1.0}, grad=False)
        mask_term = weights.lambda_afl * afl + weights.lambda_dice * dice
        cost[block] = weights.lambda_mask * mask_term + weights.lambda_cli * cls_term[block]
    return cost


# ---------------------------------------------------------------------------
# Hungarian solver
# ---------------------------------------------------------------------------

def hungarian(cost) -> MatchResult:
    """Minimum-total-cost injective assignment of size min(N, M).

    Among optima within ``1e-9 * (1 + |optimum|)`` of the true optimum of
    ``cost`` the returned assignment is the lexicographically smallest by
    (prediction, gt) index: an earlier prediction is matched rather than left
    unmatched, and then to the lowest gt index.  A cost matrix whose optimum
    sums to more than the float64 range raises ``ParameterError``.

    After one optimal solve, prediction i in turn tries each lower gt j than
    its pick, re-solving rows > i with (i, j) forced.  The re-solve is
    skipped when the cost fixed so far plus c[i, j] plus a lower bound on
    the completion exceeds the optimum, its tie tolerance and a rounding
    margin of ``1e-9 * sum |c|``.  The completion fills
    min(len(rows), len(cols) - 1) distinct open columns other than j, so the
    bound is the sum of the len(rows) smallest column minima over rows > i
    among them; the minima are tabulated once, in O(N * M).  A bound that
    overflows turns the pruning off.  On 60 decoder cost matrices (40 x 3)
    it cut the solves per call from a median of 54 to 2.
    """
    # imported lazily: scipy.optimize adds ~22 MB and ~0.26 s to every CLI start-up
    from scipy.optimize import linear_sum_assignment

    try:
        c = np.asarray(cost, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"cost matrix must be a numeric 2-D array: {exc}") from None
    if c.ndim != 2 or c.size == 0:
        raise DimensionError(f"cost matrix must be nonempty and 2-D, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ParameterError("cost matrix entries must be finite")

    def solve(rows: list, cols: list):
        """Optimal {row: col} of the sub-matrix c[rows, cols] and its total."""
        sub = c[np.ix_(rows, cols)]
        r, k = linear_sum_assignment(sub)
        with np.errstate(over="ignore"):  # inf never ties a finite optimum; an inf one is rejected
            total = float(sub[r, k].sum())
        return {rows[a]: cols[b] for a, b in zip(r, k)}, total

    n_pred, n_gt = c.shape
    rows, cols = list(range(n_pred)), list(range(n_gt))
    col_of, best = solve(rows, cols)
    if not np.isfinite(best):
        raise ParameterError("the optimal assignment's total cost overflows float64")
    tol = _TIE_RTOL * (1.0 + abs(best))
    with np.errstate(over="ignore"):
        limit = best + tol + _TIE_RTOL * (1.0 + float(np.abs(c).sum()))
    col_min_tail = np.minimum.accumulate(c[::-1], axis=0)[::-1].tolist() + [[0.0] * n_gt]
    entries = c.tolist()
    spent = 0.0
    for i in range(n_pred):
        rows.remove(i)
        col_min = col_min_tail[i + 1]
        # col_of holds the pairs fixed so far plus an optimal completion; a
        # lower gt j replaces i's pick only if forcing (i, j) still reaches best
        for j in cols:
            if j == col_of.get(i):
                break
            # lower bound on the completion by rows > i without column j
            bound = sum(sorted(col_min[k] for k in cols if k != j)[:len(rows)])
            if limit < spent + entries[i][j] + bound < math.inf:
                continue
            rest_of, rest = solve(rows, [k for k in cols if k != j])
            if spent + entries[i][j] + rest <= best + tol:
                col_of = {r: g for r, g in col_of.items() if r < i} | {i: j} | rest_of
                break
        if i in col_of:
            cols.remove(col_of[i])
            spent += entries[i][col_of[i]]

    pairs = sorted(col_of.items())
    pair_costs = [float(c[i, j]) for i, j in pairs]
    return MatchResult(
        assignment=pairs,
        unmatched_predictions=[i for i in range(n_pred) if i not in col_of],
        pair_costs=pair_costs,
        total_cost=float(sum(pair_costs)),
    )


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def total_loss(preds: list, gts: list,
               weights: LossWeights = LossWeights(),
               afl_params: adaptive.AflParams = adaptive.AflParams()):
    """Matched pair costs plus down-weighted unclick terms for the rest.

    Returns ``(total, match_result, breakdown)``.  ``gts`` may be empty, in
    which case every prediction is charged the unclick term.  The unclick
    terms of all unmatched predictions come from one ``_class_nll`` call
    over their stacked (U, 2) class pairs.
    """
    if not preds:
        raise ParameterError("total_loss needs at least one prediction")

    if gts:
        cost = _cost_matrix(preds, gts, weights, afl_params)
        match = hungarian(cost)
    else:
        match = MatchResult([], list(range(len(preds))), [], 0.0)

    matched_rows = [
        {"pred": i, "gt": j, "cost": float(cost[i, j])} for i, j in match.assignment
    ] if gts else []
    unmatched = match.unmatched_predictions
    nlls = _class_nll(np.array([preds[i].click_class_probs for i in unmatched]).reshape(-1, 2),
                      1).tolist()  # index 1 = unclick
    unmatched_rows = [{"pred": i, "unclick_nll": nll,
                       "cost": weights.unclick_weight * weights.lambda_cli * nll}
                      for i, nll in zip(unmatched, nlls)]

    matched_total = float(sum(r["cost"] for r in matched_rows))
    unclick_total = float(sum(r["cost"] for r in unmatched_rows))
    breakdown = {
        "matched": matched_rows,
        "unmatched": unmatched_rows,
        "matched_total": matched_total,
        "unclick_total": unclick_total,
    }
    return matched_total + unclick_total, match, breakdown
