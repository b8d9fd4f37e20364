"""Central-difference verification of every analytic gradient.

The finite-difference side only ever evaluates loss *values*, so it is an
independent oracle for the hand-derived gradients.  Map-level coefficients
(the nfl normalizer; the adaptive exponent and scale) are frozen at their
base-point values before differencing, because the analytic gradients are
defined with those coefficients detached.

Each case makes one value-only call on the (2*h*w, h, w) stack of all +-h
one-pixel perturbations, validated once and reduced per map by the trusted
kernels of the public losses; the values equal a one-pixel loop's bit for bit.

Comparison rule: |analytic - fd| <= atol + rtol*|fd|, reported as
max |a-f| / (atol/rtol + |f|) against rtol.  The atol term is the noise
floor of central differences at h=1e-6 on desk-scale loss values (~1e-8);
anything above 1e-7 is a real disagreement.
"""

from __future__ import annotations

import numpy as np

from . import losses
from .core import ParameterError, _pt_kernel, as_prob_stack, rng_stream

DEFAULT_H = 1e-6
DEFAULT_RTOL = 1e-5
DEFAULT_ATOL = 1e-7

CHECKED_LOSSES = tuple(losses._LOSS_PARAMS)


def central_difference_grad(value_fn, prob: np.ndarray) -> np.ndarray:
    """Per-pixel (V(p+h) - V(p-h)) / 2h with h = DEFAULT_H, from one call.

    ``value_fn`` maps a (2n, h, w) stack, n = h*w, to its (2n,) values.  Row
    i of the stack is ``prob`` with pixel i raised by h, row n+i is it with
    pixel i lowered by h.  The stack holds 2n^2 floats, so this is meant for
    the small maps the suite draws.
    """
    prob = np.asarray(prob, dtype=np.float64)
    n = prob.size
    stack = np.tile(prob.ravel(), (2 * n, 1))
    rows = np.arange(n)
    stack[rows, rows] += DEFAULT_H
    stack[n + rows, rows] -= DEFAULT_H
    values = value_fn(stack.reshape(2 * n, *prob.shape))
    return ((values[:n] - values[n:]) / (2.0 * DEFAULT_H)).reshape(prob.shape)


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
    """The analytic gradient at a drawn case's (trusted) ``pred`` plus the
    value function of a stack of maps, with every map-level coefficient
    frozen at ``pred``."""
    target = losses.Target(gt)
    _, analytic, diag = losses.make_loss(name, **params).bind(target)(pred)
    yf = target.yf
    weighted = name in ("wbce", "balanced_ce")  # frozen class weights as mu
    mu = losses._ce_weights(name, diag["beta"], target) if weighted else diag.get("mu", 1.0)

    def values(stack):
        p = as_prob_stack(stack, yf.shape)
        if name == "dice":
            return losses._dice_kernel(p, yf, params["smooth"], grad=False)[0]
        if name == "soft_iou":
            return losses._soft_iou_kernel(p, yf, grad=False)[0]
        value_px, _ = losses.powlog_kernel(
            _pt_kernel(p, target.mask), diag.get("gamma_d", params.get("gamma", 0.0)),
            params.get("alpha", 0.0), mu, grad=False)
        return diag.get("nfl_scale", 1.0) * value_px.sum(axis=(-2, -1))

    return analytic, values


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
