"""Baseline segmentation losses with closed-form values and analytic gradients.

Every loss returns a :class:`LossOutput` holding the scalar value (the sum
over pixels) and the exact per-pixel derivative with respect to the
predicted probability; pt is clamped from below at ``DEFAULT_EPS_CLIP``.
Every cross-entropy loss (bce, focal, poly, nfl and the class-weighted
wbce and balanced_ce) evaluates through one shared kernel with that one
clamp, so the algebraic reductions

    focal(gamma=0) == bce        poly(alpha=0) == focal
    wbce(beta=1) == bce          balanced_ce(beta=1/2) == bce / 2

hold bit-for-bit, not merely to tolerance.  Coefficients that depend on the
whole map (the nfl normalizer, and the adaptive factors in the adaptive
module) are treated as constants during differentiation.

Each loss is evaluated in three stages.  :func:`make_loss` checks the
parameters and returns a :class:`Loss`; :class:`Target` validates a ground
truth once and keeps what does not change between evaluations; and
``Loss.bind(target)`` returns the trusted step that maps a probability map to
``(value, grad_wrt_prob, diagnostics)``.  ``make_loss(name, **params)(pred,
gt)`` runs all three on one pair of maps, as ``bce``, ``focal`` and ``poly``
do for the ladder; a training loop binds once and steps many times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .core import (
    DEFAULT_EPS_CLIP,
    ParameterError,
    _pt_kernel,
    as_binary_mask,
    as_prob_map,
    check_nonnegative,
    check_same_shape,
)

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


# ---------------------------------------------------------------------------
# targets and bound steps
# ---------------------------------------------------------------------------

class Target:
    """A validated ground-truth mask.  What the loss steps read from it is
    computed on first use and kept, so a bound step never recomputes it."""

    def __init__(self, gt):
        self.mask = as_binary_mask(gt)  # (h, w) uint8 in {0, 1}

    @cached_property
    def fg(self) -> np.ndarray:
        return self.mask == 1

    @cached_property
    def sign(self) -> np.ndarray:
        """d(pt)/d(p) outside the clamp: 1 on the foreground, -1 elsewhere."""
        return np.where(self.fg, 1.0, -1.0)

    @cached_property
    def fg_index(self) -> np.ndarray:
        """Flat row-major indices of the foreground."""
        return np.flatnonzero(self.fg)

    @cached_property
    def yf(self) -> np.ndarray:
        return self.mask.astype(np.float64)

    def pt_and_chain(self, p: np.ndarray):
        """Clamped pt of a trusted map ``p`` and the d(pt)/d(p) chain factor,
        0 inside the clamp."""
        pt = _pt_kernel(p, self.mask)
        return pt, self.sign * (pt > DEFAULT_EPS_CLIP)  # exactly where unclamped


class Loss:
    """A loss whose parameters :func:`make_loss` checked.

    ``bind(target)`` returns the trusted step ``p -> (value, grad_wrt_prob,
    diagnostics)`` for a :class:`Target`.  ``p`` must be a C-contiguous
    float64 map of the target's shape with finite values in [0, 1]; the step
    does not check it.  Calling the loss validates both maps and takes one
    step.
    """

    def __init__(self, bind):
        self.bind = bind

    def __call__(self, pred, gt) -> LossOutput:
        p = as_prob_map(pred)
        target = Target(gt)
        check_same_shape(p, target.mask)
        return LossOutput(*self.bind(target)(p))


def _powlog_step(target: Target, gamma, alpha: float, normalized: bool = False, mu=1.0,
                 diagnostics=None):
    """bce, focal and poly, times ``mu``; with ``normalized``, nfl (see
    make_loss).  Each step returns a copy of ``diagnostics`` (default empty)."""
    def step(p):
        pt, chain = target.pt_and_chain(p)
        omp = 1.0 - pt
        mod = omp ** gamma
        value_px, grad = _powlog_terms(pt, omp, mod, gamma, alpha, mu)
        diag = dict(diagnostics or {})
        if normalized:
            norm = float(mod.sum())
            if norm == 0.0:
                return 0.0, np.zeros_like(pt), {"nfl_scale": 0.0}
            scale = diag["nfl_scale"] = pt.size / norm
            value_px *= scale
            grad *= scale
        grad *= chain
        return float(value_px.sum()), grad, diag
    return step


def _ratio_step(target: Target, kernel):
    """dice or soft-IoU: ``kernel(p, yf)`` is already one value per map."""
    def step(p):
        value, grad = kernel(p, target.yf)
        return float(value), grad, {}
    return step


def _check_beta(kind: str, beta):
    """wbce's or balanced_ce's beta as a float, checked as make_loss says."""
    if kind == "wbce":
        if beta is not None and not (math.isfinite(beta) and beta > 0.0):
            raise ParameterError(f"wbce beta must be finite and > 0, got {beta}")
    elif beta is None or not (0.0 < beta < 1.0):
        raise ParameterError(f"balanced_ce needs beta in (0, 1), got {beta}")
    return None if beta is None else float(beta)


def _weighted_ce_step(target: Target, kind: str, beta):
    """wbce and balanced_ce: bce's step with the per-pixel class weights as mu.
    ``beta`` was checked; wbce's auto-beta (None) is fixed against ``target``."""
    if beta is None:
        positives = int(np.count_nonzero(target.mask))
        if positives in (0, target.mask.size):
            raise ParameterError(f"wbce auto-beta needs both classes, got {positives} of "
                                 f"{target.mask.size} gt pixels in the foreground")
        beta = (target.mask.size - positives) / positives
    return _powlog_step(target, 0.0, 0.0, mu=_ce_weights(kind, beta, target),
                        diagnostics={"beta": beta})


def _ce_weights(kind: str, beta: float, target: Target) -> np.ndarray:
    """The per-pixel class weights of 'wbce', else of 'balanced_ce', against
    ``target``: beta on the foreground, 1 or 1 - beta elsewhere."""
    return np.where(target.fg, beta, 1.0 if kind == "wbce" else 1.0 - beta)


# ---------------------------------------------------------------------------
# shared kernel:  per-pixel  -mu*(1-pt)^g * log(pt) + alpha*(1-pt)^(g+1)
# ---------------------------------------------------------------------------

def powlog_kernel(pt: np.ndarray, g, alpha: float, mu, grad: bool = True):
    """Per-pixel values and d/d(pt) of the modulated cross-entropy family.

    ``pt`` must already be clamped away from 0.  ``g``, ``alpha`` and ``mu``
    are treated as constants; each is a float, or an array of one value per
    map shaped ``(..., 1, 1)`` against pt's (..., h, w) maps, as the identity
    check's one pass per map shape passes them, and ``mu`` may also be a
    per-pixel weight map that broadcasts against pt.
    Returns ``(value_px, dvalue_dpt)``; callers that need only values pass
    ``grad=False`` and get ``dvalue_dpt = None``.
    """
    omp = 1.0 - pt
    return _powlog_terms(pt, omp, _power(omp, g), g, alpha, mu, grad)


def _powlog_terms(pt, omp, mod, g, alpha, mu, grad: bool = True):
    """``powlog_kernel`` given ``omp = 1 - pt`` and the modulator
    ``mod = omp ** g``, for callers that need the modulator themselves.

    The closed forms are evaluated operation by operation in their written
    order, in place on four temporaries this function allocates, so the
    results equal those of the plain expressions bit for bit."""
    log_pt = np.log(pt)
    value_px = np.multiply(-mu, mod)
    value_px *= log_pt
    tmp = _power(omp, g + 1.0)
    tmp *= alpha
    value_px += tmp  # -mu*mod*log(pt) + alpha*omp**(g+1)
    if not grad:
        return value_px, None
    # omp**(g-1) diverges at pt=1 for g<1; its contribution vanishes there
    # because log(pt) -> 0 faster, so mask that factor to 0.
    with np.errstate(divide="ignore"):
        omp_pow_gm1 = _power(omp, g - 1.0)
    np.copyto(omp_pow_gm1, 0.0, where=omp <= 0.0)
    dvalue_dpt = np.multiply(mu * g, log_pt, out=log_pt)
    dvalue_dpt *= omp_pow_gm1
    np.multiply(mu, mod, out=tmp)
    tmp /= pt
    dvalue_dpt -= tmp
    np.multiply(alpha * (g + 1.0), mod, out=tmp)
    dvalue_dpt -= tmp  # mu*g*log(pt)*omp**(g-1) - mu*mod/pt - alpha*(g+1)*mod
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


# ---------------------------------------------------------------------------
# bce, focal and poly, the special-case ladder: validate, bind, step
# ---------------------------------------------------------------------------

def bce(pred, gt) -> LossOutput:
    """Cross entropy -sum log(pt); treats hard and easy pixels alike."""
    return make_loss("bce")(pred, gt)


def focal(pred, gt, gamma: float) -> LossOutput:
    """-sum (1-pt)^gamma log(pt); gamma in [0, 5]."""
    return make_loss("focal", gamma=gamma)(pred, gt)


def poly(pred, gt, gamma: float, alpha: float) -> LossOutput:
    """Focal plus the polynomial correction alpha*(1-pt)^(gamma+1); alpha
    finite and >= 0."""
    return make_loss("poly", gamma=gamma, alpha=alpha)(pred, gt)


# ---------------------------------------------------------------------------
# trusted kernels: any leading axes broadcast, maps are the last two axes
# ---------------------------------------------------------------------------

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

# the keyword arguments make_loss accepts per loss, with their defaults, in
# the order the gradient check reports them
_LOSS_PARAMS = {
    "bce": {}, "wbce": {"beta": None}, "balanced_ce": {"beta": None}, "soft_iou": {},
    "focal": {"gamma": 2.0}, "nfl": {"gamma": 2.0}, "poly": {"gamma": 2.0, "alpha": 1.0},
    "dice": {"smooth": 1.0},
    "afl": {"gamma": 2.0, "alpha": 1.0, "delta": 0.4, "ada_enabled": True, "agr_enabled": True},
}


def make_loss(name: str, **params) -> Loss:
    """Build the :class:`Loss` named by a ``_LOSS_PARAMS`` key, checking every
    parameter given and rejecting any the loss does not take.  Besides the
    ladder bce, focal, poly and afl:

    * nfl: focal times the detached N / sum (1-pt)^gamma; value 0 and grad 0
      on an all-perfect map.
    * dice: per map 1 - (2*sum(p*y)+s)/(sum(p)+sum(y)+s), finite smooth s >= 0.
    * wbce: bce with the positive term times a finite beta > 0, by default the
      ground truth's negatives/positives, fixed when bound (one class raises).
    * balanced_ce: the two terms times beta and 1 - beta, beta in (0, 1).
    * soft_iou: 1 - sum(p*y) / sum(p+y-p*y); takes no beta.
    * wbce(beta=1) == bce and balanced_ce(beta=1/2) == bce / 2, bit for bit."""
    name = name.lower()
    if name not in _LOSS_PARAMS:
        raise ParameterError(f"unknown loss {name!r}")
    kw = {key: params.pop(key, default) for key, default in _LOSS_PARAMS[name].items()}
    if params:
        raise ParameterError(f"loss {name!r} does not accept parameters {sorted(params)}")
    if name == "afl":
        from . import adaptive  # deferred: adaptive builds on this module

        return adaptive.afl_loss(adaptive.AflParams(**kw))
    if name == "dice":
        smooth = check_nonnegative("smooth", kw["smooth"])
        return Loss(partial(_ratio_step, kernel=partial(_dice_kernel, smooth=smooth)))
    if name == "soft_iou":
        return Loss(partial(_ratio_step, kernel=_soft_iou_kernel))
    if name in ("wbce", "balanced_ce"):
        return Loss(partial(_weighted_ce_step, kind=name, beta=_check_beta(name, kw["beta"])))
    gamma = _check_gamma(kw.get("gamma", 0.0))
    alpha = float(check_nonnegative("alpha", kw.get("alpha", 0.0)))
    return Loss(partial(_powlog_step, gamma=gamma, alpha=alpha, normalized=name == "nfl"))
