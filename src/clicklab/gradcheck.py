"""Central-difference verification of every analytic gradient.

The finite-difference side only ever evaluates loss *values*, so it is an
independent oracle for the hand-derived gradients.  Map-level coefficients
(the nfl normalizer; the adaptive exponent and scale) are frozen at their
base-point values before differencing, because the analytic gradients are
defined with those coefficients detached.

Comparison rule: |analytic - fd| <= atol + rtol*|fd|, reported as
max |a-f| / (atol/rtol + |f|) against rtol.  The atol term is the noise
floor of central differences at h=1e-6 on desk-scale loss values (~1e-8);
anything above 1e-7 is a real disagreement.
"""

from __future__ import annotations

import numpy as np

from . import adaptive, losses
from .core import ParameterError, rng_stream

DEFAULT_H = 1e-6
DEFAULT_RTOL = 1e-5
DEFAULT_ATOL = 1e-7

CHECKED_LOSSES = ("bce", "wbce", "balanced_ce", "soft_iou", "focal", "nfl", "poly", "dice", "afl")


def central_difference_grad(value_fn, prob: np.ndarray) -> np.ndarray:
    """Per-pixel (V(p+h) - V(p-h)) / 2h with h = DEFAULT_H, one pixel at a time."""
    grad = np.zeros_like(prob)
    flat = grad.ravel()
    base = prob.copy()
    view = base.ravel()
    for i in range(view.size):
        orig = view[i]
        view[i] = orig + DEFAULT_H
        up = value_fn(base)
        view[i] = orig - DEFAULT_H
        down = value_fn(base)
        view[i] = orig
        flat[i] = (up - down) / (2.0 * DEFAULT_H)
    return grad


def _random_case(rng, for_loss: str):
    """Random (pred, gt, params) with pt kept well off the eps clamp."""
    h = int(rng.integers(4, 7))
    w = int(rng.integers(4, 7))
    pred = rng.uniform(0.01, 0.99, size=(h, w))
    gt = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
    gt.flat[0] = 1  # wbce auto-beta and the adaptive exponent need both classes
    gt.flat[-1] = 0
    params = {}
    if for_loss in ("focal", "nfl", "poly", "afl"):
        params["gamma"] = float(rng.uniform(0.0, 5.0))
    if for_loss in ("poly", "afl"):
        params["alpha"] = float(rng.uniform(0.0, 2.0))
    if for_loss == "afl":
        params["delta"] = float(rng.uniform(0.0, 1.0))
    if for_loss == "dice":
        params["smooth"] = float(rng.uniform(0.5, 2.0))
    if for_loss == "balanced_ce":
        params["beta"] = float(rng.uniform(0.05, 0.95))
    if for_loss == "wbce" and rng.random() < 0.5:
        params["beta"] = float(rng.uniform(0.2, 5.0))
    return pred, gt, params


def _analytic_and_frozen(name: str, pred, gt, params):
    """The analytic gradient plus the frozen-coefficient value function."""
    if name == "afl":
        afl_params = adaptive.AflParams(
            gamma=params["gamma"], alpha=params["alpha"], delta=params["delta"])
        out, diag = adaptive.afl(pred, gt, afl_params)

        def value_fn(p, _d=diag, _a=afl_params):
            return adaptive.afl_value_with_coeffs(p, gt, _d.gamma_d, _d.mu, _a.alpha)

        return out.grad_wrt_prob, value_fn

    if name == "nfl":
        out = losses.nfl(pred, gt, params["gamma"])
        scale = out.diagnostics["nfl_scale"]

        def value_fn(p, _s=scale, _g=params["gamma"]):
            return _s * losses.focal(p, gt, _g).value

        return out.grad_wrt_prob, value_fn

    fn = losses.make_loss(name, **params)
    out = fn(pred, gt)
    return out.grad_wrt_prob, lambda p: fn(p, gt).value


def check_loss_gradients(name: str, cases: int, seed: int) -> dict:
    """Run ``cases`` seeded random configurations for one loss."""
    if name not in CHECKED_LOSSES:
        raise ParameterError(f"no gradient check defined for loss {name!r}")
    rng = rng_stream(seed, f"gradcheck/{name}")
    worst = 0.0
    for _ in range(cases):
        pred, gt, params = _random_case(rng, name)
        analytic, value_fn = _analytic_and_frozen(name, pred, gt, params)
        fd = central_difference_grad(value_fn, pred)
        rel = np.abs(analytic - fd) / (DEFAULT_ATOL / DEFAULT_RTOL + np.abs(fd))
        worst = max(worst, float(rel.max()))
    return {
        "loss": name,
        "cases": cases,
        "max_rel_err": worst,
        "tolerance": DEFAULT_RTOL,
        "pass": worst <= DEFAULT_RTOL,
    }


def run_suite(loss_names=CHECKED_LOSSES, cases: int = 100, seed: int = 0) -> list[dict]:
    return [check_loss_gradients(n, cases, seed) for n in loss_names]
