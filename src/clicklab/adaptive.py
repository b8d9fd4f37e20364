"""Adaptive focal loss: data-driven focusing exponent and gradient rescaling.

Two map-level coefficients extend the focal/poly family:

* ``gamma_a = 1 - mean(pt over foreground)`` raises the focusing exponent on
  poorly learned samples, giving the effective exponent
  ``gamma_d = gamma + gamma_a``.
* ``mu = N / sum_i (1-pt_i)^gamma_d * (1 + delta*gamma_d)`` rescales the loss
  so that the pixel mean of ``mu*(1-pt)^gamma_d*(1+delta*gamma_d)`` is 1
  (``loss identity-check`` tests this as ``mu/mean_identity``).

Final per-pixel form:  -mu*(1-pt)^gamma_d*log(pt) + alpha*(1-pt)^(gamma_d+1).

Both coefficients are computed from the clamped pt map and detached: the
analytic gradient differentiates through pt only.  AFL is built like every
other loss, in ``losses``: ``make_loss("afl")`` checks its parameters (the
rules of ``AflParams``), and ``losses._afl_coeffs`` computes the coefficients
inside ``losses._loss_terms``, the one assembly of every loss.  With ADA and
AGR disabled (gamma_a := 0, mu := 1) the loss collapses to poly, then focal
(alpha=0), then bce (gamma=0) -- bit-exactly, since all share one kernel.
This module adds the records, the one-map entry points and the verification
tools below.

The ``*_series`` functions are truncated expansions of the loss and its
gradient around pt = 1; they are verification tools restricted to pt > 0.5,
where the expansions converge fast, and are never the production gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DimensionError, DomainError, ParameterError, _pt_kernel, as_binary_mask,
                   as_prob_stack, check_integer, check_nonnegative)
from .losses import (LossOutput, Target, _afl_coeffs, _check_delta, _loss_terms, _mu_kernel,
                     make_loss)
from .losses import MU_FLOOR_PER_PIXEL  # noqa: F401  (kept importable from here)


@dataclass(frozen=True)
class AflParams:
    gamma: float = 2.0
    alpha: float = 1.0
    delta: float = 0.4
    ada_enabled: bool = True
    agr_enabled: bool = True

    def __post_init__(self):
        make_loss("afl", **vars(self))


@dataclass
class AflDiagnostics:
    gamma_a: float
    gamma_d: float
    mu: float
    hard_count: int  # the number of foreground pixels, not of hard ones
    foreground_pt_mean: float


def gamma_a(pred, gt) -> float:
    """1 - mean(pt) over foreground pixels; 0 when the map has no foreground."""
    return make_loss("afl", agr_enabled=False)(pred, gt).diagnostics["gamma_a"]


def mu(pt, gamma_d: float, delta: float) -> float:
    """Gradient-representation factor N / sum (1-pt)^gamma_d * (1+delta*gamma_d).

    The denominator is floored at 1e-12 per pixel: on a near-perfect map the
    loss is ~0 anyway, the floor just keeps mu finite.
    """
    arr = np.asarray(pt, dtype=np.float64)
    if arr.size == 0:
        raise DimensionError("mu needs at least one pixel")
    check_nonnegative("gamma_d", gamma_d)
    _check_delta(delta)
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both comparisons
        raise ParameterError("pt values must lie in [0, 1]")
    return float(_mu_kernel(((1.0 - arr) ** gamma_d).ravel().sum(), arr.size, gamma_d, delta))


def afl(pred, gt, params: AflParams = AflParams()) -> tuple[LossOutput, AflDiagnostics]:
    """Adaptive focal loss value (summed over pixels), detached-coefficient
    gradient, diagnostics.

    Reduction order matters: gamma_a and mu are full-map reductions computed
    before the per-pixel pass, then held constant.
    """
    out = make_loss("afl", **vars(params))(pred, gt)
    return out, AflDiagnostics(**out.diagnostics)


# ---------------------------------------------------------------------------
# truncated-series verification tools (domain pt > 0.5)
# ---------------------------------------------------------------------------

def _series_domain(pt, terms: int, min_terms: int = 1) -> np.ndarray:
    """pt as a float64 array in (0.5, 1], for an expansion of an integer
    ``terms`` >= ``min_terms``."""
    arr = np.asarray(pt, dtype=np.float64)
    if arr.size == 0:
        raise DimensionError("series operations need at least one pixel")
    if not (arr.min() > 0.5 and arr.max() <= 1.0):  # NaN fails both comparisons
        raise DomainError("series expansions require pt in (0.5, 1]")
    check_integer("terms", terms)
    if terms < min_terms:
        raise ParameterError(f"terms must be >= {min_terms}, got {terms}")
    return arr


def neg_log_series(pt, terms: int) -> np.ndarray:
    """Truncated expansion of -log(pt): sum_{k=1..terms} (1-pt)^k / k."""
    arr = _series_domain(pt, terms)
    omp = 1.0 - arr
    total = np.zeros_like(arr)
    for k in range(1, terms + 1):
        total += omp ** k / k
    return total


def bce_grad_series(pt, terms: int) -> np.ndarray:
    """Truncated expansion of 1/pt: sum_{k=0..terms-1} (1-pt)^k.

    The leading term is 1 for every pixel regardless of difficulty, which is
    the equal-treatment signature of plain cross entropy.
    """
    return afl_grad_series(pt, 0.0, 0.0, terms)


def afl_grad_series(pt, gamma_d: float, alpha: float, terms: int) -> np.ndarray:
    """Truncated adaptive-focal gradient magnitude.

    (1-pt)^gamma_d * [ (1+alpha)(1+gamma_d) + (1+gamma_d/2)(1-pt)
                       + (1+gamma_d/3)(1-pt)^2 + ... ]

    Every term scales with pixel difficulty through the leading modifier,
    unlike the constant first term of ``bce_grad_series``.  With gamma_d=0
    and alpha=0 the bracket is the geometric series for 1/pt.
    """
    arr = _series_domain(pt, terms)
    check_nonnegative("gamma_d", gamma_d)
    check_nonnegative("alpha", alpha)
    omp = 1.0 - arr
    bracket = np.full_like(arr, (1.0 + alpha) * (1.0 + gamma_d))
    for k in range(2, terms + 1):
        bracket += (1.0 + gamma_d / k) * omp ** (k - 1)
    return omp ** gamma_d * bracket


def gradient_decomposition(pt, gamma_d: float, alpha: float, delta: float,
                           terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the gradient bracket into its cross-entropy and correction columns.

    Returns ``(nu, nabla_b, mixed)`` where ``nu`` is the truncated 1/pt
    series, ``nabla_b`` collects the extra terms the difficulty modifier
    generates (first row gamma_d*(1+alpha)+alpha, then (gamma_d/k)(1-pt)^(k-1)),
    and ``mixed = (1 + delta*gamma_d) * nu`` is the proportional surrogate
    obtained by treating the correction column as delta-proportional to nu.
    Row-for-row, ``nu + nabla_b`` equals the bracket of ``afl_grad_series``.
    """
    arr = _series_domain(pt, terms, min_terms=2)
    check_nonnegative("gamma_d", gamma_d)
    check_nonnegative("alpha", alpha)
    _check_delta(delta)
    omp = 1.0 - arr
    nu = bce_grad_series(arr, terms)
    nabla_b = np.full_like(arr, gamma_d * (1.0 + alpha) + alpha)
    for k in range(2, terms + 1):
        nabla_b += (gamma_d / k) * omp ** (k - 1)
    mixed = (1.0 + delta * gamma_d) * nu
    return nu, nabla_b, mixed


def chebyshev_identity_check(pt, gamma_d: float) -> float:
    """Residual |sum(a*b) - (1/N) sum(a) sum(b)| for a=(1-pt)^gamma_d, b=1/pt.

    Computed in pivot-shifted covariance form, which is algebraically
    identical and returns exactly 0.0 for constant maps (the equality case of
    the sum inequality) instead of accumulating float noise.
    """
    arr = np.asarray(pt, dtype=np.float64)
    if arr.size == 0:
        raise DimensionError("residual needs at least one pixel")
    check_nonnegative("gamma_d", gamma_d)
    if not (arr.min() > 0.0 and arr.max() <= 1.0):  # NaN fails both comparisons
        raise ParameterError("pt values must lie in (0, 1]")
    a = ((1.0 - arr) ** gamma_d).ravel()
    b = (1.0 / arr).ravel()
    da = a - a[0]
    db = b - b[0]
    n = a.size
    return float(abs((da * db).sum() - da.sum() * db.sum() / n))


# ---------------------------------------------------------------------------
# the special-case ladder and the mu identity, one stack of same-shape maps
# ---------------------------------------------------------------------------

def identity_residuals(pred, gt, gamma, alpha, delta):
    """Per-map residuals of the special-case ladder and of the mu identity
    for K maps of one shape, checked once and evaluated in stacked passes.

    ``pred`` and ``gt`` are (K, h, w) stacks of probability maps and {0, 1}
    masks; ``gamma``, ``alpha`` and ``delta`` hold one value per map in
    ``AflParams``' ranges.  Returns ``(ladder_gaps, mu_residual, gamma_a)``
    with one value per map: for each rung of ``_identity_terms`` the larger
    of its value gap and its largest gradient gap, |mean(mu*(1-pt)**gamma_d
    * (1+delta*gamma_d)) - 1|, and gamma_a, both of AFL with ADA and AGR on.
    """
    p = as_prob_stack(pred, np.shape(gt)[1:])
    y = as_binary_mask(np.reshape(gt, (-1, p.shape[-1])))
    if y.shape[0] != p.shape[0] * p.shape[1]:
        raise DimensionError(f"mask stack shape {np.shape(gt)} differs from {p.shape}")
    gamma, alpha, delta = (np.asarray(v, dtype=np.float64) for v in (gamma, alpha, delta))
    for name, v, hi in (("gamma", gamma, 5.0), ("alpha", alpha, np.finfo(np.float64).max),
                        ("delta", delta, 1.0)):
        if v.shape != p.shape[:1] or not (v.min() >= 0.0 and v.max() <= hi):  # NaN fails
            raise ParameterError(f"{name} needs one value in [0, {hi}] per map, got {v}")
    rungs, mu_residual, g_a = _identity_terms(p, y.reshape(p.shape), gamma, alpha, delta)
    gaps = {rung: np.maximum(np.abs(upper[0] - lower[0]),
                             np.abs(upper[1] - lower[1]).max(axis=(-2, -1)))
            for rung, (upper, lower) in rungs.items()}
    return gaps, mu_residual, g_a


def _identity_terms(p, y, gamma, alpha, delta):
    """``(rungs, mu_residual, gamma_a)`` of trusted stacks and parameters;
    ``rungs`` maps each rung to its two losses as ``(values, grads_wrt_prob)``:
    afl (ADA and AGR off) against poly, poly(alpha=0) against focal, and
    focal(gamma=0) against bce.  Each loss is one stacked call of
    ``losses._loss_terms`` over the (K, 1, h, w) ``Target.stack`` of ``y``,
    the assembly every bound step runs, with per-map (K, 1, 1, 1) parameters
    where the one-map loss takes them as arguments and the float default
    where it fixes them, so every value equals that of the validated one-map
    calls (``afl``, ``losses.poly``, ``focal``, ``bce``, ``pt_map``) bit for
    bit.  The mu residual and gamma_a come from one ``losses._afl_coeffs``
    call."""
    p = p[:, None]
    target = Target.stack(y[:, None])
    g, a, d = (v.reshape(-1, 1, 1, 1) for v in (gamma, alpha, delta))
    zero = np.zeros_like(g)

    def terms(name, **params):
        values, grads, _ = _loss_terms(name, p, target, params)
        return values[:, 0], grads[:, 0]

    rungs = {"poly": (terms("afl", gamma=g, alpha=a, delta=d, ada_enabled=False,
                            agr_enabled=False), terms("poly", gamma=g, alpha=a)),
             "focal": (terms("poly", gamma=g, alpha=zero), terms("focal", gamma=g)),
             "bce": (terms("focal", gamma=zero), terms("bce"))}

    on, _, mod = _afl_coeffs(_pt_kernel(p, target.mask), target,
                             {"gamma": g, "delta": d, "ada_enabled": True, "agr_enabled": True})
    weighted = on["mu"][..., None, None] * mod * (1.0 + d * on["gamma_d"][..., None, None])
    return rungs, np.abs(weighted.mean(axis=(-2, -1)) - 1.0)[:, 0], on["gamma_a"][:, 0]
