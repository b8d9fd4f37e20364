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

def powlog_kernel(pt: np.ndarray, g, alpha: float, mu, grad: bool = True):
    """Per-pixel values and d/d(pt) of the modulated cross-entropy family.

    ``pt`` must already be clamped away from 0.  ``g``, ``alpha`` and ``mu``
    are treated as constants; ``g`` and ``mu`` are floats, or arrays of one
    value per map shaped ``(..., 1, 1)`` against pt's (..., h, w) maps.
    Returns ``(value_px, dvalue_dpt)``; callers that need only values pass
    ``grad=False`` and get ``dvalue_dpt = None``.
    """
    omp = 1.0 - pt
    return _powlog_terms(pt, omp, _power(omp, g), g, alpha, mu, grad)


def _powlog_terms(pt, omp, mod, g, alpha, mu, grad: bool = True):
    """``powlog_kernel`` given ``omp = 1 - pt`` and the modulator
    ``mod = omp ** g``, for callers that need the modulator themselves."""
    log_pt = np.log(pt)
    value_px = -mu * mod * log_pt + alpha * _power(omp, g + 1.0)
    if not grad:
        return value_px, None
    # omp**(g-1) diverges at pt=1 for g<1; its contribution vanishes there
    # because log(pt) -> 0 faster, so mask that factor to 0.
    with np.errstate(divide="ignore"):
        omp_pow_gm1 = np.where(omp > 0.0, _power(omp, g - 1.0), 0.0)
    dvalue_dpt = mu * g * log_pt * omp_pow_gm1 - mu * mod / pt - alpha * (g + 1.0) * mod
    return value_px, dvalue_dpt


# numpy evaluates ``x ** s`` for these Python-float exponents by reciprocal,
# sqrt and square, which can differ in the last bit from the pow it uses for
# an exponent array (its other fast paths, s = 0 and 1, agree with pow)
_SCALAR_FAST_POWERS = frozenset((-1.0, 0.5, 2.0))


def _power(base: np.ndarray, e):
    """``base ** e`` for a float ``e``, or per map for an array ``e`` of
    shape (..., 1, 1) against base's (..., h, w) maps.  Each map equals
    ``base[i] ** float(e[i])`` bit for bit: maps whose exponent numpy would
    special-case are recomputed with the scalar exponent."""
    out = base ** e
    if isinstance(e, np.ndarray):
        for s in _SCALAR_FAST_POWERS.intersection(e.ravel().tolist()):
            hit = e[..., 0, 0] == s
            out[hit] = base[hit] ** s
    return out


def _pt_and_chain(pred, gt, eps):
    """Clamped pt, the d(pt)/d(p) chain factor (0 inside the clamp) and the
    boolean foreground."""
    p = as_prob_map(pred)
    y = as_binary_mask(gt)
    check_same_shape(p, y)
    check_eps_clip(eps)
    pt = _pt_kernel(p, y, eps)
    fg = y == 1
    return pt, np.where(fg, 1.0, -1.0) * (pt > eps), fg  # pt > eps exactly where unclamped


def _powlog_loss(pred, gt, g, alpha, mu, eps, reduction) -> LossOutput:
    pt, chain, _ = _pt_and_chain(pred, gt, eps)
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
    pt, chain, _ = _pt_and_chain(pred, gt, eps)
    omp = 1.0 - pt
    mod = omp ** gamma
    value_px, dvalue_dpt = _powlog_terms(pt, omp, mod, gamma, 0.0, 1.0)
    norm = float(mod.sum())
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
    value, grad = _dice_kernel(p, y, smooth)
    return LossOutput(float(value), grad)


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
        value, grad = _soft_iou_kernel(p, yf)
        return LossOutput(float(value), grad)
    w_pos, w_neg = _ce_weights(kind, y, beta)
    value, grad = _reduce(*_weighted_ce_kernel(p, yf, w_pos, w_neg, eps), reduction)
    return LossOutput(value, grad, {"beta": w_pos})


def _ce_weights(kind: str, y: np.ndarray, beta: float | None) -> tuple[float, float]:
    """(w_pos, w_neg) of 'wbce' or 'balanced_ce' for a {0, 1} mask ``y``."""
    if kind == "wbce":
        if beta is None:
            positives = int(y.sum())
            if positives == 0:
                raise ParameterError("wbce auto-beta is undefined for all-background gt")
            beta = (y.size - positives) / positives
        elif beta <= 0.0:
            raise ParameterError(f"wbce beta must be > 0, got {beta}")
        return float(beta), 1.0
    if kind == "balanced_ce":
        if beta is None or not (0.0 < beta < 1.0):
            raise ParameterError(f"balanced_ce needs beta in (0, 1), got {beta}")
        return float(beta), 1.0 - float(beta)
    raise ParameterError(f"unknown aux loss kind {kind!r}")


# ---------------------------------------------------------------------------
# trusted kernels: any leading axes broadcast, maps are the last two axes
# ---------------------------------------------------------------------------

def _weighted_ce_kernel(p, yf, w_pos: float, w_neg: float, eps: float, grad: bool = True):
    """Per-pixel -(w_pos*y*log(p) + w_neg*(1-y)*log(1-p)) and d/dp.  p is
    clipped on both ends; pixels inside a clip are flat (zero gradient)."""
    pc = np.clip(p, eps, 1.0 - eps)
    value_px = -(w_pos * yf * np.log(pc) + w_neg * (1.0 - yf) * np.log(1.0 - pc))
    if not grad:
        return value_px, None
    unclipped = ((p > eps) & (p < 1.0 - eps)).astype(np.float64)
    return value_px, (-w_pos * yf / pc + w_neg * (1.0 - yf) / (1.0 - pc)) * unclipped


def _soft_iou_kernel(p, yf, grad: bool = True):
    """Per-map 1 - sum(p*y) / sum(p + y - p*y) and d/dp."""
    inter = (p * yf).sum(axis=(-2, -1))
    union = (p + yf - p * yf).sum(axis=(-2, -1))
    return _one_minus_ratio(inter, union, yf, 1.0 - yf, grad)


def _dice_kernel(p, y, smooth: float, grad: bool = True):
    """Per-map ``dice`` of probability maps against a {0, 1} mask, and d/dp."""
    num = 2.0 * (p * y).sum(axis=(-2, -1)) + smooth
    den = p.sum(axis=(-2, -1)) + y.sum(axis=(-2, -1)) + smooth
    return _one_minus_ratio(num, den, 2.0 * y, 1.0, grad)


def _one_minus_ratio(num, den, dnum, dden, grad: bool):
    """Per-map 1 - num/den and, given the per-pixel derivatives ``dnum`` and
    ``dden``, its d/dp.  den == 0 only on an all-empty pair, which scores 0
    with zero gradient."""
    empty = den == 0.0
    den = np.where(empty, 1.0, den)
    value = np.where(empty, 0.0, 1.0 - num / den)
    if not grad:
        return value, None
    n, d, e = (a[..., None, None] for a in (num, den, empty))
    return value, np.where(e, 0.0, -(dnum * d - n * dden) / (d * d))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# the keyword arguments make_loss accepts per loss, besides eps and reduction
_LOSS_PARAMS = {
    "bce": {}, "focal": {"gamma": 2.0}, "poly": {"gamma": 2.0, "alpha": 1.0},
    "nfl": {"gamma": 2.0}, "dice": {"smooth": 1.0},
    "wbce": {"beta": None}, "balanced_ce": {"beta": None}, "soft_iou": {"beta": None},
    "afl": {"gamma": 2.0, "alpha": 1.0, "delta": 0.4, "ada_enabled": True, "agr_enabled": True},
}


def make_loss(name: str, **params):
    """Build ``fn(pred, gt) -> LossOutput`` for a loss named in BASELINE_KINDS
    or 'afl'.  Unknown keyword arguments are rejected per loss."""
    name = name.lower()
    if name not in _LOSS_PARAMS:
        raise ParameterError(f"unknown loss {name!r}")
    eps = params.pop("eps", DEFAULT_EPS_CLIP)
    reduction = params.pop("reduction", "sum")
    kw = {key: params.pop(key, default) for key, default in _LOSS_PARAMS[name].items()}
    if params:
        raise ParameterError(f"loss {name!r} does not accept parameters {sorted(params)}")
    if name == "afl":
        from . import adaptive  # deferred: adaptive builds on this module

        afl_params = adaptive.AflParams(**kw, eps_clip=eps)
        return lambda pred, gt: adaptive.afl(pred, gt, afl_params, reduction=reduction)[0]
    if name == "dice":
        return lambda pred, gt: dice(pred, gt, **kw)
    if name in ("wbce", "balanced_ce", "soft_iou"):
        return lambda pred, gt: aux_loss(name, pred, gt, eps=eps, reduction=reduction, **kw)
    fn = {"bce": bce, "focal": focal, "poly": poly, "nfl": nfl}[name]
    return lambda pred, gt: fn(pred, gt, **kw, eps=eps, reduction=reduction)
