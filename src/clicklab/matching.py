"""Optimal assignment between per-query instance predictions and ground truth.

The assignment minimizes the summed pair cost

    lambda_mask * (lambda_afl * afl + lambda_dice * dice)
        + lambda_cli * (-log p_class[gt class])

over injective matchings of size min(N, M).  scipy's rectangular
Jonker-Volgenant solver (``linear_sum_assignment``) gives the optimum; a
forced-edge pass then returns the *lexicographically smallest* optimal
assignment (lowest prediction index first, then lowest ground-truth index),
so ties never depend on the solver's iteration order.

Unmatched predictions are charged the down-weighted "unclick" classification
term in :func:`total_loss`.  Its N x M cost matrix is built in one pass over
maps the dataclasses validated once; :func:`pair_cost` is the 1 x 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adaptive, losses
from .core import (DEFAULT_EPS_CLIP, DimensionError, ParameterError, _pt_kernel, as_binary_mask,
                   as_prob_map)

_TIE_RTOL = 1e-9


@dataclass
class InstancePrediction:
    mask_probs: np.ndarray        # (h, w) probabilities
    click_class_probs: np.ndarray  # (object, unclick), sums to 1

    def __post_init__(self):
        self.mask_probs = as_prob_map(self.mask_probs)
        c = np.asarray(self.click_class_probs, dtype=np.float64)
        if c.shape != (2,):
            raise DimensionError(f"click_class_probs must have shape (2,), got {c.shape}")
        if c.min() < 0.0 or abs(float(c.sum()) - 1.0) > 1e-9:
            raise ParameterError(f"click_class_probs must be a probability pair, got {c}")
        self.click_class_probs = c


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

    def validate(self) -> "LossWeights":
        for name in ("lambda_mask", "lambda_cli", "lambda_afl", "lambda_dice", "unclick_weight"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be >= 0")
        return self


@dataclass
class MatchResult:
    assignment: list            # (prediction index, gt index) pairs
    unmatched_predictions: list
    pair_costs: list
    total_cost: float


def _class_nll(probs: np.ndarray, index: int) -> float:
    # clamp keeps the cost finite when a one-hot prediction misses the class
    return float(-np.log(max(float(probs[index]), DEFAULT_EPS_CLIP)))


def pair_cost(pred: InstancePrediction, gt: GroundTruthInstance,
              weights: LossWeights = LossWeights(),
              afl_params: adaptive.AflParams = adaptive.AflParams()) -> float:
    """Matching cost of one (prediction, ground truth) pair."""
    return float(_cost_matrix([pred], [gt], weights, afl_params)[0, 0])


def _cost_matrix(preds: list, gts: list, weights: LossWeights,
                 afl_params: adaptive.AflParams) -> np.ndarray:
    """N x M pair costs.  The dataclasses validated every map, so only shapes
    and parameters are checked here, once.  pt is computed for a row of pairs
    at a time; the per-pair reductions share the kernels of ``adaptive.afl``
    and ``losses.dice`` (values only) and run in the same order."""
    weights.validate()
    afl_params.validate()
    shapes = {pr.mask_probs.shape for pr in preds} | {gt.mask.shape for gt in gts}
    if len(shapes) > 1:
        raise DimensionError(f"mask shapes differ: {sorted(shapes)}")
    y = np.stack([gt.mask for gt in gts])
    fg = y == 1
    cost = np.empty((len(preds), len(gts)), dtype=np.float64)
    for i, pr in enumerate(preds):
        pt = _pt_kernel(pr.mask_probs, y, afl_params.eps_clip)
        for j, gt in enumerate(gts):
            diag = adaptive._afl_coeffs(pt[j], fg[j], afl_params)
            afl_px, _ = losses.powlog_kernel(pt[j], diag.gamma_d, afl_params.alpha, diag.mu, grad=False)
            dice, _ = losses._dice_kernel(pr.mask_probs, y[j], 1.0, grad=False)
            mask_term = weights.lambda_afl * float(afl_px.sum()) + weights.lambda_dice * dice
            cls_term = _class_nll(pr.click_class_probs, gt.class_index)
            cost[i, j] = weights.lambda_mask * mask_term + weights.lambda_cli * cls_term
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
    spent = 0.0
    for i in range(n_pred):
        rows.remove(i)
        # col_of holds the pairs fixed so far plus an optimal completion; a
        # lower gt j replaces i's pick only if forcing (i, j) still reaches best
        for j in cols:
            if j == col_of.get(i):
                break
            rest_of, rest = solve(rows, [k for k in cols if k != j])
            if spent + float(c[i, j]) + rest <= best + tol:
                col_of = {r: g for r, g in col_of.items() if r < i} | {i: j} | rest_of
                break
        if i in col_of:
            cols.remove(col_of[i])
            spent += float(c[i, col_of[i]])

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
    which case every prediction is charged the unclick term.
    """
    if not preds:
        raise ParameterError("total_loss needs at least one prediction")
    weights.validate()

    if gts:
        cost = _cost_matrix(preds, gts, weights, afl_params)
        match = hungarian(cost)
    else:
        match = MatchResult([], list(range(len(preds))), [], 0.0)

    matched_rows = [
        {"pred": i, "gt": j, "cost": float(cost[i, j])} for i, j in match.assignment
    ] if gts else []
    unmatched_rows = []
    for i in match.unmatched_predictions:
        nll = _class_nll(preds[i].click_class_probs, 1)  # index 1 = unclick
        term = weights.unclick_weight * weights.lambda_cli * nll
        unmatched_rows.append({"pred": i, "unclick_nll": nll, "cost": term})

    matched_total = float(sum(r["cost"] for r in matched_rows))
    unclick_total = float(sum(r["cost"] for r in unmatched_rows))
    breakdown = {
        "matched": matched_rows,
        "unmatched": unmatched_rows,
        "matched_total": matched_total,
        "unclick_total": unclick_total,
    }
    return matched_total + unclick_total, match, breakdown
