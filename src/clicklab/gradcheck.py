"""Central-difference verification of every analytic gradient.

The finite-difference side only ever evaluates loss *values*, so it is an
independent oracle for the hand-derived gradients.  Map-level coefficients
(the nfl normalizer; the adaptive exponent and scale; the wbce and
balanced_ce class weights) are frozen at their base-point values before
differencing, because the analytic gradients are defined with those
coefficients detached.

``check_loss_gradients`` draws its cases in chunks of ``GRAD_CHUNK`` and
evaluates each chunk's K cases of one map shape together: their analytic
gradients come from one stacked call, and their finite differences from one
value-only call on the (K, 2*h*w, h, w) stack of all +-h one-pixel
perturbations, validated once.  Both sides run ``losses._loss_terms``, the
dispatch on the loss name that every bound loss step runs on its one map,
and every gradient and difference equals that of the one-case path (one
loss call, one pixel at a time) bit for bit.

Comparison rule: |analytic - fd| <= atol + rtol*|fd|, reported as
max |a-f| / (atol/rtol + |f|) against rtol.  The atol term is the noise
floor of central differences at h=1e-6 on desk-scale loss values (~1e-8);
anything above 1e-7 is a real disagreement.
"""

from __future__ import annotations

import numpy as np

from . import losses
from .core import (DimensionError, ParameterError, as_binary_mask, as_prob_stack, check_integer,
                   check_same_shape, rng_stream)

DEFAULT_H = 1e-6
DEFAULT_RTOL = 1e-5
DEFAULT_ATOL = 1e-7

CHECKED_LOSSES = tuple(losses._LOSS_PARAMS)

# cases drawn per chunk; the finite-difference stack holds 2*(h*w)**2 floats
# per case, so one shape group of a chunk holds at most 48 * 20 KB, about
# 1 MB, for 6 x 6 maps however large ``cases`` is
GRAD_CHUNK = 48


def central_difference_grad(value_fn, prob: np.ndarray) -> np.ndarray:
    """Per-pixel (V(p+h) - V(p-h)) / 2h with h = DEFAULT_H, from one call.

    ``prob`` holds maps on its last two axes, after any leading axes L, and
    ``value_fn`` maps the (*L, 2n, h, w) stack, n = h*w, to its (*L, 2n)
    values.  Row i of a map's stack is the map with pixel i raised by h, row
    n+i the map with pixel i lowered by h.  The stack holds 2n^2 floats per
    map, so this is meant for the small maps the suite draws.
    """
    prob = np.asarray(prob, dtype=np.float64)
    *lead, h, w = prob.shape
    n = h * w
    stack = np.repeat(prob.reshape(*lead, 1, n), 2 * n, axis=-2)
    diagonals = stack.reshape(*lead, 2, n * n)[..., :: n + 1]  # pixel i of rows i and n+i
    diagonals[..., 0, :] += DEFAULT_H
    diagonals[..., 1, :] -= DEFAULT_H
    values = value_fn(stack.reshape(*lead, 2 * n, h, w))
    return ((values[..., :n] - values[..., n:]) / (2.0 * DEFAULT_H)).reshape(prob.shape)


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
    value function of a (S, h, w) stack of maps, with every map-level
    coefficient frozen at ``pred``: ``_stacked_terms`` of one case."""
    analytic, values = _stacked_terms(name, np.asarray(pred)[None], [gt], [params])
    return analytic[0], lambda stack: values(np.asarray(stack)[None])[0]


def _stacked_terms(name: str, preds: np.ndarray, gts, params_list):
    """The (K, h, w) analytic gradients of K drawn cases of one map shape,
    from one stacked call of ``losses._loss_terms``, plus the value function
    of a (K, S, h, w) stack, with each case's map-level coefficients frozen
    at its drawn map.

    Each case's parameters are checked as ``make_loss`` checks them and the
    masks once; ``preds`` is trusted.  AFL's flags are one per call, so its
    cases must share them."""
    for params in params_list:
        losses.make_loss(name, **params)
    k, h, w = preds.shape
    gts = np.asarray(gts)
    check_same_shape(gts, preds)
    target = losses.Target.stack(as_binary_mask(gts.reshape(-1, w)).reshape(k, 1, h, w))
    per_map = {}
    for key, default in losses._LOSS_PARAMS[name].items():
        given = [p.get(key, default) for p in params_list]
        if isinstance(default, bool):
            if len(set(given)) > 1:
                raise ParameterError(f"one stacked call takes one {key}, got {given}")
            per_map[key] = given[0]
        else:  # wbce's automatic beta, None, is NaN until fixed against its mask
            per_map[key] = np.array(given, dtype=np.float64).reshape(k, 1, 1, 1)
    if name == "wbce":
        auto = np.isnan(per_map["beta"][:, 0, 0, 0])
        per_map["beta"][auto, 0, 0, 0] = losses._auto_beta(target.mask[auto, 0])
    p = np.ascontiguousarray(preds, dtype=np.float64)[:, None]
    _, analytic, diag = losses._loss_terms(name, p, target, per_map)

    def values(stack):
        stack = np.asarray(stack)
        if stack.ndim != 4 or stack.shape[0] != k:
            raise DimensionError(f"expected a ({k}, S, {h}, {w}) stack, got shape {stack.shape}")
        p = as_prob_stack(stack.reshape(-1, *stack.shape[2:]), (h, w))
        return losses._loss_terms(name, p.reshape(stack.shape), target, per_map, diag)

    return analytic[:, 0], values


def check_loss_gradients(name: str, cases: int, seed: int) -> dict:
    """Run ``cases`` seeded random configurations for one loss."""
    if name not in CHECKED_LOSSES:
        raise ParameterError(f"no gradient check defined for loss {name!r}")
    check_integer("cases", cases)
    if cases < 1:
        raise ParameterError(f"cases must be >= 1, got {cases}")
    rng = rng_stream(seed, f"gradcheck/{name}")
    worst = 0.0
    for start in range(0, cases, GRAD_CHUNK):
        groups = {}  # (h, w) -> the chunk's cases of that shape, in drawing order
        for _ in range(min(GRAD_CHUNK, cases - start)):
            pred, gt, params = _random_case(rng, name)
            groups.setdefault(pred.shape, []).append((pred, gt, params))
        for group in groups.values():
            preds, gts, params = zip(*group)
            preds = np.array(preds)
            analytic, values = _stacked_terms(name, preds, gts, params)
            fd = central_difference_grad(values, preds)
            rel = np.abs(analytic - fd) / (DEFAULT_ATOL / DEFAULT_RTOL + np.abs(fd))
            worst = float(np.maximum(worst, rel.max()))  # a NaN stays and fails the check
    return {
        "loss": name,
        "cases": cases,
        "max_rel_err": worst,
        "tolerance": DEFAULT_RTOL,
        "pass": worst <= DEFAULT_RTOL,
    }


def run_suite(loss_names=CHECKED_LOSSES, cases: int = 100, seed: int = 0) -> list[dict]:
    return [check_loss_gradients(n, cases, seed) for n in loss_names]
