"""Independent oracles shared by the test modules.

Everything here is deliberately brute force: exhaustive enumeration for
assignment problems, one forced-edge re-solve per candidate pair for the
lex-min assignment, value-only central differences for gradients (one
pixel and one validated loss call at a time), one full-image pass per error
component or click disk for click placement and click encoding, one
full-canvas grid per synthetic shape, one query at a time through the
decoder, one fully validated loss evaluation per matching pair, one
validated loss call per training step and per identity-check rung and
case, one gradient check per drawn case, and one ``repr``, ``float`` or
``int`` call per pixel of a PM or PGM file.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from scipy import ndimage

from scipy.special import expit

from scipy.optimize import linear_sum_assignment

from clicklab import adaptive, attention, gradcheck, losses, matching, trainer
from clicklab.clicksim import ClickRecord, interior_point
from clicklab.core import (
    DEFAULT_EPS_CLIP,
    ClickLabError,
    DimensionError,
    ParameterError,
    PerfectPredictionError,
    TrainingError,
    as_binary_mask,
    as_prob_map,
    binarize,
    check_same_shape,
    iou,
    pt_map,
    rng_stream,
)


def bits(a: np.ndarray):
    """Key that compares equal only for bit-identical arrays."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@lru_cache(maxsize=None)
def _injective_maps(n: int, m: int) -> np.ndarray:
    """All injective assignments as an index table.

    For n <= m: rows are column choices per row.  For n > m the caller
    transposes first.
    """
    return np.array(list(itertools.permutations(range(m), n)), dtype=np.intp)


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum total cost over injective assignments of size min(n, m)."""
    c = np.asarray(cost, dtype=np.float64)
    if c.shape[0] > c.shape[1]:
        c = c.T
    n, m = c.shape
    maps = _injective_maps(n, m)          # (count, n) column picks
    totals = c[np.arange(n), maps].sum(axis=1)
    return float(totals.min())


def brute_force_lex_min_assignment(cost: np.ndarray, tol: float = 1e-9):
    """Lexicographically smallest minimum-cost assignment, by enumeration.

    Pair lists are sorted by prediction index and compared elementwise, so
    matching an earlier prediction (and then a lower gt index) wins ties.
    """
    c = np.asarray(cost, dtype=np.float64)
    n, m = c.shape
    k = min(n, m)
    best_total = brute_force_min_cost(c)
    best = None
    for rows in itertools.combinations(range(n), k):
        for perm in itertools.permutations(range(m), k):
            total = sum(c[r, p] for r, p in zip(rows, perm))
            if abs(total - best_total) <= tol:
                pairs = sorted(zip(rows, perm))
                if best is None or pairs < best:
                    best = pairs
    return best


def central_diff(value_fn, prob: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Per-pixel central difference of a scalar-valued map function."""
    grad = np.zeros_like(prob)
    work = prob.copy()
    for idx in np.ndindex(prob.shape):
        orig = work[idx]
        work[idx] = orig + h
        up = value_fn(work)
        work[idx] = orig - h
        down = value_fn(work)
        work[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
    return grad


def reference_powlog_terms(pt, omp, mod, g, alpha, mu, grad=True):
    """``losses._powlog_terms`` as plain expressions, each operation
    allocating its result."""
    log_pt = np.log(pt)
    value_px = -mu * mod * log_pt + alpha * losses._power(omp, g + 1.0)
    if not grad:
        return value_px, None
    with np.errstate(divide="ignore"):
        omp_pow_gm1 = np.where(omp > 0.0, losses._power(omp, g - 1.0), 0.0)
    return value_px, mu * g * log_pt * omp_pow_gm1 - mu * mod / pt - alpha * (g + 1.0) * mod


def reference_central_difference_grad(value_fn, prob: np.ndarray) -> np.ndarray:
    """``gradcheck.central_difference_grad`` one pixel at a time: two calls
    of the scalar ``value_fn`` per pixel, at the same h = 1e-6."""
    return central_diff(value_fn, prob, 1e-6)


def reference_afl_value(pred, gt, gamma_d: float, mu_val: float, alpha: float) -> float:
    """Summed AFL value of a validated pair with gamma_d and mu frozen at the
    given numbers: the function whose finite differences the detached
    analytic gradient must reproduce."""
    pt = pt_map(pred, gt)
    omp = 1.0 - pt
    value_px, _ = reference_powlog_terms(pt, omp, omp ** gamma_d, gamma_d, alpha, mu_val, grad=False)
    return float(value_px.sum())


def reference_afl_step(pred, gt, params):
    """``(value, grad_wrt_prob, diagnostics)`` of the AFL step on one
    validated pair, with ``pt[fg].mean()`` and Python-float exponents."""
    y = as_binary_mask(gt)
    pt = pt_map(pred, y)
    fg = y == 1
    hard_count = int(fg.sum())
    fg_pt_mean = float(pt[fg].mean()) if hard_count else 1.0
    g_a = 1.0 - fg_pt_mean if params.ada_enabled else 0.0
    g_d = params.gamma + g_a
    omp = 1.0 - pt
    mod = omp ** g_d
    mu_val = 1.0
    if params.agr_enabled:
        denom = float(mod.sum() * (1.0 + params.delta * g_d))
        mu_val = pt.size / max(denom, adaptive.MU_FLOOR_PER_PIXEL * pt.size)
    value_px, dvalue_dpt = reference_powlog_terms(pt, omp, mod, g_d, params.alpha, mu_val)
    chain = np.where(fg, 1.0, -1.0) * (pt > DEFAULT_EPS_CLIP)
    diag = {"gamma_a": g_a, "gamma_d": g_d, "mu": mu_val, "hard_count": hard_count,
            "foreground_pt_mean": fg_pt_mean}
    return float(value_px.sum()), dvalue_dpt * chain, diag


def reference_identity_check(seed: int, cases: int):
    """``(results, measured)`` of ``loss identity-check`` with one validated
    public loss call per rung and case: ``measured`` lists the invariant
    checks' values in report order."""
    rng = rng_stream(seed, "cli/identity")
    ladder_gap = {"poly": 0.0, "focal": 0.0, "bce": 0.0}
    mu_gap = 0.0
    gamma_a_gap = 0.0
    for _ in range(cases):
        h, w = (int(rng.integers(4, 9)) for _ in range(2))
        pred = rng.uniform(0.01, 0.99, size=(h, w))
        gt = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        gt.flat[0] = 1
        gamma = float(rng.uniform(0.0, 5.0))
        alpha = float(rng.uniform(0.0, 2.0))
        delta = float(rng.uniform(0.0, 1.0))

        off = adaptive.AflParams(gamma, alpha, delta, ada_enabled=False, agr_enabled=False)
        for rung, upper, lower in (
                ("poly", adaptive.afl(pred, gt, off)[0], losses.poly(pred, gt, gamma, alpha)),
                ("focal", losses.poly(pred, gt, gamma, 0.0), losses.focal(pred, gt, gamma)),
                ("bce", losses.focal(pred, gt, 0.0), losses.bce(pred, gt))):
            ladder_gap[rung] = max(ladder_gap[rung], abs(upper.value - lower.value),
                                   float(np.abs(upper.grad_wrt_prob - lower.grad_wrt_prob).max()))

        on = adaptive.AflParams(gamma, alpha, delta)
        _, diag = adaptive.afl(pred, gt, on)
        pt = pt_map(pred, gt)
        weighted = diag.mu * (1.0 - pt) ** diag.gamma_d * (1.0 + delta * diag.gamma_d)
        mu_gap = max(mu_gap, abs(float(weighted.mean()) - 1.0))
        gamma_a_gap = max(gamma_a_gap, max(0.0, diag.gamma_a - 1.0), max(0.0, -diag.gamma_a))

    taylor_pts = np.linspace(0.6, 0.99, 40)
    taylor_gap = float(np.abs(adaptive.neg_log_series(taylor_pts, 50) + np.log(taylor_pts)).max())
    series_pts = np.array([0.6, 0.7, 0.8, 0.9, 0.99])
    series_gap = float(np.abs(
        adaptive.afl_grad_series(series_pts, 0.0, 0.0, 200) - 1.0 / series_pts).max())
    const_residual = max(
        adaptive.chebyshev_identity_check(np.full((5, 7), v), 2.0) for v in (0.3, 0.5, 0.9))
    pair_residual = abs(adaptive.chebyshev_identity_check(np.array([0.5, 1.0]), 2.0) - 0.125)
    sweep = [adaptive.chebyshev_identity_check(rng.uniform(0.05, 1.0, size=(8, 8)), g)
             for g in (0.5, 1.0, 2.0, 3.0)]
    measured = [ladder_gap["poly"], ladder_gap["focal"], ladder_gap["bce"], mu_gap, gamma_a_gap,
                taylor_gap, series_gap, const_residual, pair_residual]
    return {"chebyshev_residual_sweep": sweep, "cases": cases}, measured


def reference_frozen_value_fn(name: str, pred, gt, params: dict):
    """Scalar value function of one validated public loss call, with the nfl
    scale and AFL's gamma_d and mu frozen at ``pred``."""
    if name == "afl":
        _, diag = adaptive.afl(pred, gt, adaptive.AflParams(**params))
        return lambda p: reference_afl_value(p, gt, diag.gamma_d, diag.mu, params["alpha"])
    if name == "nfl":
        scale = losses.make_loss("nfl", gamma=params["gamma"])(pred, gt).diagnostics["nfl_scale"]
        return lambda p: scale * losses.focal(p, gt, params["gamma"]).value
    fn = losses.make_loss(name, **params)
    return lambda p: fn(p, gt).value


def reference_check_loss_gradients(name: str, cases: int, seed: int) -> dict:
    """``gradcheck.check_loss_gradients`` one case at a time: the analytic
    gradient of one validated loss call and the one-pixel central
    differences of ``reference_frozen_value_fn`` for each drawn case, with
    no grouping or chunking."""
    rng = rng_stream(seed, f"gradcheck/{name}")
    worst = 0.0
    for _ in range(cases):
        pred, gt, params = gradcheck._random_case(rng, name)
        analytic = losses.make_loss(name, **params)(pred, gt).grad_wrt_prob
        fd = reference_central_difference_grad(reference_frozen_value_fn(name, pred, gt, params),
                                               pred)
        rel = np.abs(analytic - fd) / (gradcheck.DEFAULT_ATOL / gradcheck.DEFAULT_RTOL + np.abs(fd))
        worst = max(worst, float(rel.max()))
    return {"loss": name, "cases": cases, "max_rel_err": worst,
            "tolerance": gradcheck.DEFAULT_RTOL, "pass": worst <= gradcheck.DEFAULT_RTOL}


def reference_next_click(pred, gt, prior=()) -> ClickRecord:
    """Protocol-1 click placement, one full-image pass per error component.

    Every 4-connected component of both polarities becomes a candidate keyed
    by (-size, FN before FP, first row-major pixel); the winner's full-image
    mask goes to ``interior_point``.
    """
    p = as_binary_mask(pred)
    y = as_binary_mask(gt)
    check_same_shape(p, y)
    fn = (y == 1) & (p == 0)
    fp = (p == 1) & (y == 0)
    if not fn.any() and not fp.any():
        raise PerfectPredictionError("prediction equals ground truth; no click needed")

    candidates = []
    for polarity_rank, err in ((0, fn), (1, fp)):
        labels, count = ndimage.label(err, structure=ndimage.generate_binary_structure(2, 1))
        for lbl in range(1, count + 1):
            comp = labels == lbl
            size = int(comp.sum())
            anchor = tuple(np.argwhere(comp)[0])
            candidates.append((-size, polarity_rank, anchor, comp))
    candidates.sort(key=lambda t: (t[0], t[1], t[2]))
    _, polarity_rank, _, comp = candidates[0]
    r, c = interior_point(comp.astype(np.uint8))
    return ClickRecord(r, c, positive=(polarity_rank == 0), index=len(prior) + 1)


def reference_encode_clicks(clicks, h: int, w: int, radius: float):
    """Click disk maps (positive, negative), each disk evaluated on a
    full-image coordinate grid."""
    if not radius >= 1:
        raise ParameterError(f"radius must be >= 1, got {radius}")
    pos = np.zeros((h, w), dtype=np.float64)
    neg = np.zeros((h, w), dtype=np.float64)
    if not clicks:
        return pos, neg
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    for click in clicks:
        if not (0 <= click.row < h and 0 <= click.col < w):
            raise ParameterError(f"click ({click.row}, {click.col}) outside {h}x{w} image")
        disk = np.hypot(rows - click.row, cols - click.col) < radius
        if click.positive:
            pos[disk] = 1.0
        else:
            neg[disk] = 1.0
    return pos, neg


def reference_raster(rows, cols, kind, center, radius, rng, boundary_noise):
    """``synthgen._raster_shape`` evaluated on every pixel of the canvas grid
    ``rows, cols``, with no window; it draws the same numbers from ``rng``."""
    dy = rows - center[0]
    dx = cols - center[1]
    theta = np.arctan2(dy, dx)

    jitter = np.zeros_like(theta)
    if boundary_noise > 0.0:
        for k in (1, 2, 3):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            jitter += a * np.cos(k * theta) + b * np.sin(k * theta)
        jitter *= boundary_noise / 3.0

    if kind == "disk":
        dist = np.hypot(dy, dx)
        return (dist <= radius + jitter).astype(np.uint8)
    if kind == "ellipse":
        ratio = rng.uniform(0.5, 0.9)
        phi = rng.uniform(0.0, np.pi)
        a_ax, b_ax = radius, radius * ratio
        xr = dx * np.cos(phi) + dy * np.sin(phi)
        yr = -dx * np.sin(phi) + dy * np.cos(phi)
        rho = np.sqrt((xr / a_ax) ** 2 + (yr / b_ax) ** 2)
        return (rho <= 1.0 + jitter / b_ax).astype(np.uint8)
    amp = rng.uniform(0.05, 0.2, size=3)
    phase = rng.uniform(0.0, 2 * np.pi, size=3)
    wobble = sum(amp[k] * np.cos((k + 2) * theta + phase[k]) for k in range(3))
    dist = np.hypot(dy, dx)
    return (dist <= radius * (1.0 + wobble) + jitter).astype(np.uint8)


# ---------------------------------------------------------------------------
# decoder, one query at a time
# ---------------------------------------------------------------------------

def _reference_resize(arr, h, w):
    rows = (np.arange(h) * arr.shape[0] // h).astype(int)
    cols = (np.arange(w) * arr.shape[1] // w).astype(int)
    return arr[np.ix_(rows, cols)]


def _reference_attn_row(mask_pred):
    fg = binarize(mask_pred).ravel()
    row = np.where(fg == 1, 0.0, -np.inf)
    if not np.isfinite(row).any():
        row = np.zeros_like(row)
    return row


def reference_stack_attn_masks(mask_preds, h, w):
    """``attention._attn_rows`` of the stack resized to h x w, one prediction
    at a time."""
    return np.stack([_reference_attn_row(_reference_resize(p, h, w)) for p in mask_preds])


def _reference_layer(x, attn_mask, scale, params, layer, collect):
    q = x @ params.f_q
    k = scale.features @ params.f_k
    v = scale.features @ params.f_v
    psi = attention.click_attention_matrix(scale, q, params, attn_mask)
    attn = attention.masked_softmax(psi + q @ k.T)
    if collect is not None:
        collect.append({"attn": attn, "mask": attn_mask, "layer": layer})
    x = attn @ v + x
    x = attention.masked_softmax((x @ params.f_q) @ (x @ params.f_k).T) @ (x @ params.f_v) + x
    x = np.maximum(x @ params.ffn_w1 + params.ffn_b1, 0.0) @ params.ffn_w2 + params.ffn_b2 + x
    if not np.isfinite(x).all():
        raise ClickLabError("internal: non-finite query features after decoder block")
    return x


def _reference_heads(x, pixel_embed, params):
    h = x
    for i, (w_i, b_i) in enumerate(params.mask_head):
        h = h @ w_i + b_i
        if i < len(params.mask_head) - 1:
            h = np.maximum(h, 0.0)
    probs = expit(h @ pixel_embed.features.T)
    cls_logits = x @ params.click_head + params.click_bias
    cls_logits = cls_logits - cls_logits.max(axis=1, keepdims=True)
    e = np.exp(cls_logits)
    cls_probs = e / e.sum(axis=1, keepdims=True)
    return [
        matching.InstancePrediction(probs[i].reshape(pixel_embed.h, pixel_embed.w), cls_probs[i])
        for i in range(x.shape[0])
    ]


def reference_camd_forward(scales, pixel_embed, params, blocks, collect=None):
    """``attention.camd_forward`` with every query's prediction built as a
    validated ``InstancePrediction`` at every layer and each attention-mask
    row resized and binarized on its own."""
    if blocks < 1:
        raise ParameterError("blocks must be >= 1")
    x = params.x0.copy()
    preds = _reference_heads(x, pixel_embed, params)
    for layer in range(3 * blocks):
        scale = scales[layer % 3]
        mask = reference_stack_attn_masks([p.mask_probs for p in preds], scale.h, scale.w)
        x = _reference_layer(x, mask, scale, params, layer, collect)
        preds = _reference_heads(x, pixel_embed, params)
    return preds


# ---------------------------------------------------------------------------
# matching costs, one validated pair at a time
# ---------------------------------------------------------------------------

def _reference_pair_cost(pred, gt, weights, afl_params):
    p = pred.mask_probs
    y = as_binary_mask(gt.mask)
    pt = pt_map(p, y)
    fg = y == 1
    hard_count = int(fg.sum())
    fg_pt_mean = float(pt[fg].mean()) if hard_count else 1.0
    g_a = 1.0 - fg_pt_mean if (afl_params.ada_enabled and hard_count > 0) else 0.0
    g_d = afl_params.gamma + g_a
    mu_val = 1.0
    if afl_params.agr_enabled:
        n = pt.size
        denom = float(((1.0 - pt) ** g_d).sum() * (1.0 + afl_params.delta * g_d))
        mu_val = n / max(denom, adaptive.MU_FLOOR_PER_PIXEL * n)
    omp = 1.0 - pt  # the per-map kernel with Python-float exponents
    value_px = -mu_val * omp ** g_d * np.log(pt) + afl_params.alpha * omp ** (g_d + 1.0)
    afl_value = float(value_px.sum())

    yf = y.astype(np.float64)
    num = 2.0 * float((p * yf).sum()) + 1.0
    den = float(p.sum() + yf.sum()) + 1.0
    dice_value = 1.0 - num / den

    mask_term = weights.lambda_afl * afl_value + weights.lambda_dice * dice_value
    cls_term = float(-np.log(max(float(pred.click_class_probs[gt.class_index]), DEFAULT_EPS_CLIP)))
    return weights.lambda_mask * mask_term + weights.lambda_cli * cls_term


def reference_cost_matrix(preds, gts, weights, afl_params) -> np.ndarray:
    """N x M matching costs, each pair evaluated on its own."""
    cost = np.empty((len(preds), len(gts)), dtype=np.float64)
    for i, pr in enumerate(preds):
        for j, gt in enumerate(gts):
            cost[i, j] = _reference_pair_cost(pr, gt, weights, afl_params)
    return cost


# ---------------------------------------------------------------------------
# lex-min assignment, one forced-edge re-solve per candidate pair
# ---------------------------------------------------------------------------

def reference_hungarian(cost) -> matching.MatchResult:
    """``matching.hungarian`` without pruning: after one optimal solve, each
    prediction in turn tries every lower gt than its current pick, re-solving
    the rows after it with that pair forced, and keeps the first that still
    reaches the optimum within 1e-9 * (1 + |optimum|)."""
    try:
        c = np.asarray(cost, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"cost matrix must be a numeric 2-D array: {exc}") from None
    if c.ndim != 2 or c.size == 0:
        raise DimensionError(f"cost matrix must be nonempty and 2-D, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ParameterError("cost matrix entries must be finite")

    def solve(rows: list, cols: list):
        sub = c[np.ix_(rows, cols)]
        r, k = linear_sum_assignment(sub)
        with np.errstate(over="ignore"):
            total = float(sub[r, k].sum())
        return {rows[a]: cols[b] for a, b in zip(r, k)}, total

    n_pred, n_gt = c.shape
    rows, cols = list(range(n_pred)), list(range(n_gt))
    col_of, best = solve(rows, cols)
    if not np.isfinite(best):
        raise ParameterError("the optimal assignment's total cost overflows float64")
    tol = 1e-9 * (1.0 + abs(best))
    spent = 0.0
    for i in range(n_pred):
        rows.remove(i)
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
    return matching.MatchResult(
        assignment=pairs,
        unmatched_predictions=[i for i in range(n_pred) if i not in col_of],
        pair_costs=pair_costs,
        total_cost=float(sum(pair_costs)),
    )


# ---------------------------------------------------------------------------
# training, one validated loss call per step
# ---------------------------------------------------------------------------

def logit_chain(grad_wrt_prob: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Pull a probability-space gradient back to logit space: dL/dz = dL/dp * p(1-p)."""
    p = np.asarray(probs, dtype=np.float64)
    g = np.asarray(grad_wrt_prob, dtype=np.float64)
    if p.shape != g.shape:
        raise ParameterError(f"gradient shape {g.shape} != probability shape {p.shape}")
    return g * p * (1.0 - p)


def reference_train(sample, config):
    """``trainer.train`` calling the public loss on each step: every step
    re-validates the probability map and the ground truth, builds the
    logits and the weight gradient with ``np.tensordot`` and the IoU with
    ``binarize`` and ``iou``."""
    if not (0 <= config.instance_index < len(sample.gt_instances)):
        raise ParameterError(f"instance_index {config.instance_index} out of range")
    gt = sample.gt_instances[config.instance_index]
    channels = trainer.training_channels(sample, gt)
    loss_fn = losses.make_loss(config.loss, **config.loss_params)

    n_params = channels.shape[-1] + 1
    theta = np.zeros(n_params)
    m = np.zeros(n_params)
    v = np.zeros(n_params)
    logs = []

    for step in range(1, config.steps + 1):
        model = trainer.PixelModel(theta[:-1], theta[-1])
        probs = model.predict_probs(channels)
        out = loss_fn(probs, gt)
        if not np.isfinite(out.value):
            raise TrainingError(f"non-finite loss at step {step}")
        g_z = logit_chain(out.grad_wrt_prob, probs)
        grad = np.append(
            np.tensordot(channels, g_z, axes=([0, 1], [0, 1])), g_z.sum())

        diag = out.diagnostics
        logs.append({
            "step": step,
            "loss": out.value,
            "iou": iou(binarize(probs), gt),
            "gamma_a": diag.get("gamma_a", float("nan")),
            "gamma_d": diag.get("gamma_d", float("nan")),
            "mu": diag.get("mu", float("nan")),
        })

        if config.optimizer == "sgd":
            theta = theta - config.learning_rate * grad
        else:
            m = trainer.ADAM_BETA1 * m + (1.0 - trainer.ADAM_BETA1) * grad
            v = trainer.ADAM_BETA2 * v + (1.0 - trainer.ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - trainer.ADAM_BETA1 ** step)
            v_hat = v / (1.0 - trainer.ADAM_BETA2 ** step)
            theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + trainer.ADAM_EPS)

    return trainer.PixelModel(theta[:-1], theta[-1]), logs


# ---------------------------------------------------------------------------
# PM and PGM files, one value at a time
# ---------------------------------------------------------------------------

def reference_pm_text(prob) -> str:
    """The PM text of a probability map: ``repr`` of every pixel."""
    arr = np.asarray(prob, dtype=np.float64)
    lines = [f"PM {arr.shape[0]} {arr.shape[1]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in arr]
    return "\n".join(lines) + "\n"


def reference_pgm_text(mask) -> str:
    """The PGM text of a binary mask: one conditional per pixel."""
    arr = np.asarray(mask)
    lines = ["P2", f"{arr.shape[1]} {arr.shape[0]}", "255"]
    lines += [" ".join("255" if v else "0" for v in row) for row in arr]
    return "\n".join(lines) + "\n"


def _convert_each(convert, tokens, where: str) -> list:
    try:
        return [convert(t) for t in tokens]
    except ValueError as exc:
        raise ParameterError(f"{where}: {exc}") from None


def reference_read_pm(path: str) -> np.ndarray:
    """``fileio.read_pm`` with one ``float`` call per token."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "PM":
            raise ParameterError(f"{path}: expected header 'PM <height> <width>'")
        h, w = _convert_each(int, header[1:], path)
        rows = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            vals = line.split()
            if len(vals) != w:
                raise ParameterError(f"{path}:{line_no}: expected {w} values, found {len(vals)}")
            rows.append(_convert_each(float, vals, f"{path}:{line_no}"))
    if len(rows) != h:
        raise ParameterError(f"{path}: expected {h} rows, found {len(rows)}")
    return as_prob_map(np.array(rows, dtype=np.float64))


def reference_read_pgm(path: str) -> np.ndarray:
    """``fileio.read_pgm`` with one ``int`` call per token (pixel values must
    fit an int64)."""
    with open(path) as fh:
        tokens = []
        for line in fh:
            tokens.extend(line.split("#", 1)[0].split())
    if not tokens or tokens[0] != "P2":
        raise ParameterError(f"{path}: not an ASCII PGM (expected magic P2)")
    if len(tokens) < 4:
        raise ParameterError(f"{path}: truncated PGM header")
    w, h, maxval = _convert_each(int, tokens[1:4], path)
    if w < 1 or h < 1:
        raise ParameterError(f"{path}: PGM size must be positive, got {w}x{h}")
    if maxval != 255:
        raise ParameterError(f"{path}: expected maxval 255, got {maxval}")
    values = tokens[4:]
    if len(values) != h * w:
        raise ParameterError(f"{path}: expected {h * w} pixels, found {len(values)}")
    arr = np.array(_convert_each(int, values, path), dtype=np.int64).reshape(h, w)
    bad = ~np.isin(arr, (0, 255))
    if bad.any():
        raise ParameterError(f"{path}: pixels must be 0 or 255, found {arr[bad][:4]}")
    return (arr == 255).astype(np.uint8)
