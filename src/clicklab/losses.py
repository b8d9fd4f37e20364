"""Baseline segmentation losses with closed-form values and analytic gradients.

Every loss returns a :class:`LossOutput` holding the scalar value (sum over
pixels unless ``reduction="mean"``) and the exact per-pixel derivative with
respect to the predicted probability.  bce, focal and poly all evaluate
through one shared kernel, so the algebraic reductions

    focal(gamma=0) == bce        poly(alpha=0) == focal

hold bit-for-bit, not merely to tolerance.  Coefficients that depend on the
whole map (the nfl normalizer, and the adaptive factors in the adaptive
module) are treated as constants during differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_EPS_CLIP,
    ParameterError,
    _pt_kernel,
    as_binary_mask,
    as_prob_map,
    check_eps_clip,
    check_same_shape,
)

BASELINE_KINDS = ("bce", "wbce", "balanced_ce", "soft_iou", "focal", "nfl", "poly", "dice")


@dataclass
class LossOutput:
    value: float
    grad_wrt_prob: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def grad_stats(grad: np.ndarray) -> dict:
    return {
        "min": float(grad.min()),
        "max": float(grad.max()),
        "l2": float(np.sqrt((grad * grad).sum())),
    }


def _check_gamma(gamma: float) -> float:
    if not (0.0 <= gamma <= 5.0):
        raise ParameterError(f"gamma must be in [0, 5], got {gamma}")
    return float(gamma)


def _check_reduction(reduction: str) -> str:
    if reduction not in ("sum", "mean"):
        raise ParameterError(f"reduction must be 'sum' or 'mean', got {reduction!r}")
    return reduction


def _reduce(value_px: np.ndarray, grad_p: np.ndarray, reduction: str) -> tuple[float, np.ndarray]:
    if reduction == "mean":
        n = value_px.size
        return float(value_px.sum() / n), grad_p / n
    return float(value_px.sum()), grad_p


# ---------------------------------------------------------------------------
# shared kernel:  per-pixel  -mu*(1-pt)^g * log(pt) + alpha*(1-pt)^(g+1)
# ---------------------------------------------------------------------------

def powlog_kernel(pt: np.ndarray, g: float, alpha: float, mu: float, grad: bool = True):
    """Per-pixel values and d/d(pt) of the modulated cross-entropy family.

    ``pt`` must already be clamped away from 0.  ``g``, ``alpha`` and ``mu``
    are treated as constants.  Returns ``(value_px, dvalue_dpt)``; callers
    that need only values pass ``grad=False`` and get ``dvalue_dpt = None``.
    """
    omp = 1.0 - pt
    log_pt = np.log(pt)
    mod = omp ** g
    value_px = -mu * mod * log_pt + alpha * omp ** (g + 1.0)
    if not grad:
        return value_px, None
    # omp**(g-1) diverges at pt=1 for g<1; its contribution vanishes there
    # because log(pt) -> 0 faster, so mask that factor to 0.
    with np.errstate(divide="ignore"):
        omp_pow_gm1 = np.where(omp > 0.0, omp ** (g - 1.0), 0.0)
    dvalue_dpt = mu * g * log_pt * omp_pow_gm1 - mu * mod / pt - alpha * (g + 1.0) * mod
    return value_px, dvalue_dpt


def _pt_and_chain(pred, gt, eps):
    """Clamped pt plus the d(pt)/d(p) chain factor (0 inside the clamp)."""
    p = as_prob_map(pred)
    y = as_binary_mask(gt)
    check_same_shape(p, y)
    check_eps_clip(eps)
    pt = _pt_kernel(p, y, eps)
    return pt, np.where(y == 1, 1.0, -1.0) * (pt > eps)  # pt > eps exactly where unclamped


def _powlog_loss(pred, gt, g, alpha, mu, eps, reduction) -> LossOutput:
    pt, chain = _pt_and_chain(pred, gt, eps)
    value_px, dvalue_dpt = powlog_kernel(pt, g, alpha, mu)
    value, grad = _reduce(value_px, dvalue_dpt * chain, reduction)
    return LossOutput(value, grad)


# ---------------------------------------------------------------------------
# individual losses
# ---------------------------------------------------------------------------

def bce(pred, gt, eps: float = DEFAULT_EPS_CLIP, reduction: str = "sum") -> LossOutput:
    """Cross entropy -sum log(pt); treats hard and easy pixels alike."""
    _check_reduction(reduction)
    return _powlog_loss(pred, gt, 0.0, 0.0, 1.0, eps, reduction)


def focal(pred, gt, gamma: float, eps: float = DEFAULT_EPS_CLIP,
          reduction: str = "sum") -> LossOutput:
    """-sum (1-pt)^gamma log(pt); gamma in [0, 5]."""
    _check_gamma(gamma)
    _check_reduction(reduction)
    return _powlog_loss(pred, gt, gamma, 0.0, 1.0, eps, reduction)


def poly(pred, gt, gamma: float, alpha: float, eps: float = DEFAULT_EPS_CLIP,
         reduction: str = "sum") -> LossOutput:
    """Focal plus the polynomial correction alpha*(1-pt)^(gamma+1)."""
    _check_gamma(gamma)
    if alpha < 0.0:
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    _check_reduction(reduction)
    return _powlog_loss(pred, gt, gamma, float(alpha), 1.0, eps, reduction)


def nfl(pred, gt, gamma: float, eps: float = DEFAULT_EPS_CLIP,
        reduction: str = "sum") -> LossOutput:
    """Focal rescaled by N / sum (1-pt)^gamma.

    The normalizer is detached: the gradient is the focal gradient times the
    same scale.  An all-perfect map (normalizer 0) returns value 0, grad 0.
    """
    _check_gamma(gamma)
    _check_reduction(reduction)
    pt, chain = _pt_and_chain(pred, gt, eps)
    value_px, dvalue_dpt = powlog_kernel(pt, gamma, 0.0, 1.0)
    norm = float(((1.0 - pt) ** gamma).sum())
    if norm == 0.0:
        return LossOutput(0.0, np.zeros_like(pt), {"nfl_scale": 0.0})
    scale = pt.size / norm
    value, grad = _reduce(scale * value_px, scale * dvalue_dpt * chain, reduction)
    return LossOutput(value, grad, {"nfl_scale": scale})


def dice(pred, gt, smooth: float = 1.0) -> LossOutput:
    """1 - (2*sum(p*y)+s) / (sum(p)+sum(y)+s).  Already normalized per map."""
    if smooth < 0.0:
        raise ParameterError(f"smooth must be >= 0, got {smooth}")
    p = as_prob_map(pred)
    y = as_binary_mask(gt).astype(np.float64)
    check_same_shape(p, y)
    return _dice_kernel(p, y, smooth)


def _dice_kernel(p: np.ndarray, y: np.ndarray, smooth: float) -> LossOutput:
    """``dice`` of a trusted probability map and same-shape {0, 1} mask."""
    num = 2.0 * float((p * y).sum()) + smooth
    den = float(p.sum() + y.sum()) + smooth
    if den == 0.0:  # only reachable with smooth=0 on an all-empty pair
        return LossOutput(0.0, np.zeros_like(p))
    grad = -(2.0 * y * den - num) / (den * den)
    return LossOutput(1.0 - num / den, grad)


def aux_loss(kind: str, pred, gt, beta: float | None = None,
             eps: float = DEFAULT_EPS_CLIP, reduction: str = "sum") -> LossOutput:
    """Comparison losses: 'wbce', 'balanced_ce', or 'soft_iou'.

    wbce weights the positive term by beta (default: negatives/positives of
    the ground truth, which errors out on an all-background map).
    balanced_ce splits the two terms as beta vs 1-beta with beta in (0, 1).
    soft_iou ignores beta and uses the probabilistic intersection/union.
    """
    _check_reduction(reduction)
    p = as_prob_map(pred)
    y = as_binary_mask(gt)
    check_same_shape(p, y)
    check_eps_clip(eps)
    yf = y.astype(np.float64)

    if kind == "soft_iou":
        inter = float((p * yf).sum())
        union = float((p + yf - p * yf).sum())
        if union == 0.0:
            return LossOutput(0.0, np.zeros_like(p))
        grad = -(yf * union - inter * (1.0 - yf)) / (union * union)
        return LossOutput(1.0 - inter / union, grad)

    # both log(p) and log(1-p) appear, so clip p on both ends; pixels sitting
    # inside a clip are flat and get zero gradient
    pc = np.clip(p, eps, 1.0 - eps)
    log_p = np.log(pc)
    log_1mp = np.log(1.0 - pc)
    unclipped = ((p > eps) & (p < 1.0 - eps)).astype(np.float64)

    if kind == "wbce":
        if beta is None:
            positives = int(y.sum())
            if positives == 0:
                raise ParameterError("wbce auto-beta is undefined for all-background gt")
            beta = (y.size - positives) / positives
        elif beta <= 0.0:
            raise ParameterError(f"wbce beta must be > 0, got {beta}")
        w_pos, w_neg = float(beta), 1.0
    elif kind == "balanced_ce":
        if beta is None or not (0.0 < beta < 1.0):
            raise ParameterError(f"balanced_ce needs beta in (0, 1), got {beta}")
        w_pos, w_neg = float(beta), 1.0 - float(beta)
    else:
        raise ParameterError(f"unknown aux loss kind {kind!r}")

    value_px = -(w_pos * yf * log_p + w_neg * (1.0 - yf) * log_1mp)
    grad = (-w_pos * yf / pc + w_neg * (1.0 - yf) / (1.0 - pc)) * unclipped
    value, grad = _reduce(value_px, grad, reduction)
    return LossOutput(value, grad, {"beta": float(beta) if beta is not None else None})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def make_loss(name: str, **params):
    """Build ``fn(pred, gt) -> LossOutput`` for a loss named in BASELINE_KINDS
    or 'afl'.  Unknown keyword arguments are rejected per loss."""
    name = name.lower()
    eps = params.pop("eps", DEFAULT_EPS_CLIP)
    reduction = params.pop("reduction", "sum")

    if name == "afl":
        from . import adaptive  # deferred: adaptive builds on this module

        afl_params = adaptive.AflParams(
            gamma=params.pop("gamma", 2.0),
            alpha=params.pop("alpha", 1.0),
            delta=params.pop("delta", 0.4),
            ada_enabled=params.pop("ada_enabled", True),
            agr_enabled=params.pop("agr_enabled", True),
            eps_clip=eps,
        )
        _reject_extras(name, params)

        def afl_fn(pred, gt):
            out, diag = adaptive.afl(pred, gt, afl_params, reduction=reduction)
            return out

        return afl_fn

    if name == "bce":
        _reject_extras(name, params)
        return lambda pred, gt: bce(pred, gt, eps=eps, reduction=reduction)
    if name == "focal":
        gamma = params.pop("gamma", 2.0)
        _reject_extras(name, params)
        return lambda pred, gt: focal(pred, gt, gamma, eps=eps, reduction=reduction)
    if name == "poly":
        gamma = params.pop("gamma", 2.0)
        alpha = params.pop("alpha", 1.0)
        _reject_extras(name, params)
        return lambda pred, gt: poly(pred, gt, gamma, alpha, eps=eps, reduction=reduction)
    if name == "nfl":
        gamma = params.pop("gamma", 2.0)
        _reject_extras(name, params)
        return lambda pred, gt: nfl(pred, gt, gamma, eps=eps, reduction=reduction)
    if name == "dice":
        smooth = params.pop("smooth", 1.0)
        _reject_extras(name, params)
        return lambda pred, gt: dice(pred, gt, smooth=smooth)
    if name in ("wbce", "balanced_ce", "soft_iou"):
        beta = params.pop("beta", None)
        _reject_extras(name, params)
        return lambda pred, gt: aux_loss(name, pred, gt, beta=beta, eps=eps, reduction=reduction)

    raise ParameterError(f"unknown loss {name!r}")


def _reject_extras(name, params):
    if params:
        raise ParameterError(f"loss {name!r} does not accept parameters {sorted(params)}")
