"""Baseline segmentation losses with closed-form values and analytic gradients.

Every loss returns a :class:`LossOutput` holding the scalar value (the sum
over pixels) and the exact per-pixel derivative with respect to the
predicted probability; pt is clamped from below at ``DEFAULT_EPS_CLIP``.
Every cross-entropy loss (bce, focal, poly, nfl, the class-weighted wbce
and balanced_ce, and the adaptive focal loss afl) evaluates through one
shared kernel with that one clamp, so the algebraic reductions

    afl(ADA, AGR off) == poly    poly(alpha=0) == focal    focal(gamma=0) == bce
    wbce(beta=1) == bce          balanced_ce(beta=1/2) == bce / 2

hold bit-for-bit, not merely to tolerance.  Coefficients that depend on the
whole map (the nfl normalizer, AFL's gamma_a and mu) are held constant in
differentiation; this module computes them all and imports nothing from adaptive.

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

MU_FLOOR_PER_PIXEL = 1e-12  # caps AFL's mu at 1e12 when the map is near perfect


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


def _check_delta(delta: float) -> float:
    if not (0.0 <= delta <= 1.0):
        raise ParameterError(f"delta must be in [0, 1], got {delta}")
    return float(delta)


# ---------------------------------------------------------------------------
# targets and bound steps
# ---------------------------------------------------------------------------

class Target:
    """A validated ground-truth mask.  What the loss steps read from it is
    computed on first use and kept, so a bound step never recomputes it."""

    def __init__(self, gt):
        self.mask = as_binary_mask(gt)  # (h, w) uint8 in {0, 1}

    @classmethod
    def stack(cls, masks: np.ndarray) -> Target:
        """Trusted {0, 1} masks of any leading shape, kept as given: the
        gradient check's (K, 1, h, w) stack, paired map by map with a
        (K, M, h, w) probability stack, or the matching cost's (M, h, w)
        masks, against which a (k, 1, h, w) block of predictions broadcasts."""
        target = cls.__new__(cls)
        target.mask = masks
        return target

    @cached_property
    def fg(self) -> np.ndarray:
        return self.mask == 1

    @cached_property
    def sign(self) -> np.ndarray:
        """d(pt)/d(p) outside the clamp: 1 on the foreground, -1 elsewhere."""
        return np.where(self.fg, 1.0, -1.0)

    @cached_property
    def fg_index(self) -> list:
        """Flat row-major indices of the foreground, one array per mask."""
        h, w = self.fg.shape[-2:]
        return [np.flatnonzero(m) for m in self.fg.reshape(-1, h * w)]

    @cached_property
    def yf(self) -> np.ndarray:
        return self.mask.astype(np.float64)


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


def _bound_step(target: Target, name: str, params: dict):
    """The step of the loss ``name`` with the checked ``params`` on one map of
    ``target``: ``_loss_terms`` of that map, with wbce's automatic beta
    (None) fixed against ``target`` when bound."""
    if "beta" in params:
        beta = params["beta"]
        params = dict(params, beta=_auto_beta(target.mask) if beta is None else np.float64(beta))

    def step(p):
        value, grad, diag = _loss_terms(name, p, target, params)
        return float(value), grad, {key: v.item() for key, v in diag.items()}
    return step


def _check_beta(kind: str, beta):
    """wbce's or balanced_ce's beta as a float, checked as make_loss says."""
    if kind == "wbce":
        if beta is not None and not (math.isfinite(beta) and beta > 0.0):
            raise ParameterError(f"wbce beta must be finite and > 0, got {beta}")
    elif beta is None or not (0.0 < beta < 1.0):
        raise ParameterError(f"balanced_ce needs beta in (0, 1), got {beta}")
    return None if beta is None else float(beta)


def _auto_beta(mask: np.ndarray):
    """wbce's automatic beta, negatives / positives, of each trusted (..., h, w)
    {0, 1} mask; a mask of one class raises."""
    positives = np.count_nonzero(mask, axis=(-2, -1))
    size = mask.shape[-2] * mask.shape[-1]
    if ((positives == 0) | (positives == size)).any():
        raise ParameterError(f"wbce auto-beta needs both classes, got {positives} of "
                             f"{size} gt pixels in the foreground")
    return (size - positives) / positives


def _ce_weights(kind: str, beta, fg: np.ndarray) -> np.ndarray:
    """The per-pixel class weights of 'wbce', else of 'balanced_ce', against
    the foreground ``fg``: beta on it, 1 or 1 - beta elsewhere.  ``beta`` is
    a float, or one value per map shaped (..., 1, 1) against fg's maps."""
    return np.where(fg, beta, 1.0 if kind == "wbce" else 1.0 - beta)


# ---------------------------------------------------------------------------
# shared kernel:  per-pixel  -mu*(1-pt)^g * log(pt) + alpha*(1-pt)^(g+1)
# ---------------------------------------------------------------------------

def powlog_kernel(pt: np.ndarray, g, alpha: float, mu, grad: bool = True):
    """Per-pixel values and d/d(pt) of the modulated cross-entropy family.

    ``pt`` must already be clamped away from 0.  ``g``, ``alpha`` and ``mu``
    are treated as constants; each is a float, or an array of one value per
    map shaped ``(..., 1, 1)`` against pt's (..., h, w) maps, as the stacked
    passes of ``_loss_terms`` pass them, and ``mu`` may also be a
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
    shape (..., 1, 1) that broadcasts against base's (..., h, w) maps.  Each
    map equals ``base[i] ** float(e[i])`` bit for bit: maps whose exponent
    numpy would special-case are recomputed with the scalar exponent."""
    out = base ** e
    if isinstance(e, np.ndarray):
        for s in _SCALAR_FAST_POWERS.intersection(e.ravel().tolist()):
            hit = np.broadcast_to(e[..., 0, 0] == s, base.shape[:-2])
            out[hit] = base[hit] ** s
    return out


def _afl_coeffs(pt: np.ndarray, target: Target, params: dict):
    """``(coeffs, omp, mod)`` of trusted pt maps paired with ``target`` as in
    ``_loss_terms``, given AFL's checked ``params``: the ``AflDiagnostics``
    fields in pt's leading shape, ``1 - pt`` and the modulator ``omp**gamma_d``.
    They equal those of ``pt[fg].mean()`` and Python-float exponents bit for
    bit: the foreground is summed in row-major order, and ``_power`` handles
    the exponents numpy special-cases."""
    lead, (h, w) = pt.shape[:-2], pt.shape[-2:]
    flat = pt.reshape(-1, len(target.fg_index), h * w)
    hard_count = np.empty(flat.shape[:2], dtype=np.int64)  # faster than np.broadcast_to
    hard_count[:] = [ix.size for ix in target.fg_index]
    fg_pt_mean = np.ones(flat.shape[:2])  # 1 without foreground, so gamma_a is 0
    for j, ix in enumerate(target.fg_index):
        if ix.size:
            np.divide(flat[:, j].take(ix, axis=1).sum(axis=1), ix.size, out=fg_pt_mean[:, j])
    fg_pt_mean = fg_pt_mean.reshape(lead)
    gamma, delta = (params[key] if np.ndim(params[key]) == 0 else params[key][..., 0, 0]
                    for key in ("gamma", "delta"))
    g_a = 1.0 - fg_pt_mean if params["ada_enabled"] else np.zeros(lead)
    g_d = gamma + g_a
    omp = 1.0 - pt
    mod = _power(omp, g_d[..., None, None])
    mu = (_mu_kernel(mod.sum(axis=(-2, -1)), h * w, g_d, delta) if params["agr_enabled"]
          else np.ones(lead))
    return ({"gamma_a": g_a, "gamma_d": g_d, "mu": mu, "hard_count": hard_count.reshape(lead),
             "foreground_pt_mean": fg_pt_mean}, omp, mod)


def _mu_kernel(mod_sum, n: int, gamma_d, delta: float):
    """``mu`` of trusted maps of ``n`` pixels given the sums of their
    modulators ``(1-pt)**gamma_d``; floats, or arrays of one value per map.
    The denominator is floored at ``MU_FLOOR_PER_PIXEL`` per pixel."""
    return n / np.maximum(mod_sum * (1.0 + delta * gamma_d), MU_FLOOR_PER_PIXEL * n)


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
    if "smooth" in kw:
        check_nonnegative("smooth", kw["smooth"])
    if "beta" in kw:
        kw["beta"] = _check_beta(name, kw["beta"])
    if "gamma" in kw:
        kw["gamma"] = _check_gamma(kw["gamma"])
    if "alpha" in kw:
        kw["alpha"] = float(check_nonnegative("alpha", kw["alpha"]))
    if "delta" in kw:
        kw["delta"] = _check_delta(kw["delta"])
    for flag in ("ada_enabled", "agr_enabled"):
        if flag in kw and not isinstance(kw[flag], (bool, np.bool_)):
            raise ParameterError(f"{flag} must be a bool, got {kw[flag]!r}")
    return Loss(partial(_bound_step, name=name, params=kw))


def _loss_terms(name: str, p, target: Target, params: dict, diag=None, grad: bool = True):
    """The one assembly of a loss from the kernels: every bound step runs it
    on one map, the gradient check and ``loss identity-check`` on stacks,
    and the matching cost on blocks of prediction rows.

    ``p`` is a trusted map of ``target``'s shape, a (K, M, h, w) stack
    against a (K, 1, h, w) ``Target.stack``, or a (k, 1, h, w) block
    against M masks; ``params`` holds the loss's checked parameters (wbce's
    beta fixed), each a float or, AFL's flags aside, one value per map
    shaped (K, 1, 1, 1).  AFL pairs the pt maps with the masks as a
    (-1, M, h, w) stack.  Without ``diag``: ``(values, grads_wrt_prob,
    diag)``, where ``diag`` holds the map-level coefficients of ``p`` that
    are held constant (nfl's ``nfl_scale``, the class-weighted losses'
    ``beta``, the ``AflDiagnostics`` fields), one array value per map; with
    ``grad=False`` the gradient is None and ``diag`` empty.  With the
    ``diag`` of base maps: the values of ``p`` with those coefficients
    frozen."""
    if diag is not None:
        grad = False
    if name in ("dice", "soft_iou"):  # no map-level coefficient
        if name == "dice":
            smooth = params["smooth"]
            value, dvalue = _dice_kernel(p, target.yf, smooth[..., 0, 0] if np.ndim(smooth)
                                         else smooth, grad)
        else:
            value, dvalue = _soft_iou_kernel(p, target.yf, grad)
        return value if diag is not None else (value, dvalue, {})
    pt = _pt_kernel(p, target.mask)
    g, alpha = params.get("gamma", 0.0), params.get("alpha", 0.0)
    mu = _ce_weights(name, params["beta"], target.fg) if "beta" in params else 1.0
    if diag is not None:
        if name == "afl":
            g, mu = diag["gamma_d"][..., None, None], diag["mu"][..., None, None]
        value_px, _ = powlog_kernel(pt, g, alpha, mu, grad=False)
        return diag.get("nfl_scale", 1.0) * value_px.sum(axis=(-2, -1))
    diag = {"beta": params["beta"]} if "beta" in params else {}
    if name == "afl":
        diag, omp, mod = _afl_coeffs(pt, target, params)
        # one map takes float coefficients, which numpy applies faster than (1, 1) arrays
        g, mu = (diag[key].item() if pt.ndim == 2 else diag[key][..., None, None]
                 for key in ("gamma_d", "mu"))
    else:
        omp = 1.0 - pt
        mod = _power(omp, g)
    value_px, dvalue = _powlog_terms(pt, omp, mod, g, alpha, mu, grad)
    if name == "nfl":  # times the detached N / sum (1-pt)^gamma, 0 on an all-perfect map
        norm = mod.sum(axis=(-2, -1), keepdims=True)
        scale = np.divide(pt.shape[-2] * pt.shape[-1], norm, out=np.zeros_like(norm),
                          where=norm != 0.0)
        value_px *= scale
        if grad:
            dvalue *= scale
        diag = {"nfl_scale": scale[..., 0, 0]}
    if not grad:
        return value_px.sum(axis=(-2, -1)), None, {}
    dvalue *= target.sign * (pt > DEFAULT_EPS_CLIP)  # d(pt)/d(p), 0 inside the clamp
    if name == "nfl":
        np.copyto(dvalue, 0.0, where=scale == 0.0)
    return value_px.sum(axis=(-2, -1)), dvalue, diag
