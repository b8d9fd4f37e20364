import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import clicklab
from clicklab import losses
from clicklab.core import DEFAULT_EPS_CLIP, ParameterError, _pt_kernel, as_prob_stack, rng_stream
from oracles import bits, central_diff, reference_powlog_terms

ONE = np.array([[1]], dtype=np.uint8)


def random_pair(rng, h=6, w=6):
    pred = rng.uniform(0.01, 0.99, size=(h, w))
    gt = (rng.random((h, w)) < 0.5).astype(np.uint8)
    gt.flat[0] = 1
    gt.flat[-1] = 0
    return pred, gt


# ---------------------------------------------------------------------------
# bce
# ---------------------------------------------------------------------------

def test_bce_perfect_prediction_is_zero():
    out = losses.bce(np.ones((3, 3)), np.ones((3, 3), dtype=np.uint8))
    assert out.value == 0.0
    np.testing.assert_array_equal(out.grad_wrt_prob, np.full((3, 3), -1.0))  # -1/pt at pt=1


def test_bce_half_pixel_is_log_two():
    assert losses.bce(np.array([[0.5]]), ONE).value == pytest.approx(math.log(2), abs=1e-12)


def test_bce_gradient_matches_central_difference():
    # single pixel, y=1, p=0.5: closed form -1/p = -2
    fd = central_diff(lambda p: losses.bce(p, ONE).value, np.array([[0.5]]))
    analytic = losses.bce(np.array([[0.5]]), ONE).grad_wrt_prob
    assert fd[0, 0] == pytest.approx(-2.0, rel=1e-8)
    assert analytic[0, 0] == pytest.approx(fd[0, 0], rel=1e-8)


# ---------------------------------------------------------------------------
# focal / poly
# ---------------------------------------------------------------------------

def test_focal_gamma_zero_is_bce_exactly():
    rng = rng_stream(11, "test/focal0")
    pred, gt = random_pair(rng)
    f = losses.focal(pred, gt, 0.0)
    b = losses.bce(pred, gt)
    assert f.value == b.value
    np.testing.assert_array_equal(f.grad_wrt_prob, b.grad_wrt_prob)


def test_focal_worked_half_pixel():
    # (1-0.5)^2 * ln 2 = 0.25 * 0.693147... = 0.173287
    got = losses.focal(np.array([[0.5]]), ONE, 2.0).value
    assert got == pytest.approx(0.25 * math.log(2), abs=1e-12)


def test_focal_perfect_is_zero_value_and_grad():
    out = losses.focal(np.ones((2, 2)), np.ones((2, 2), dtype=np.uint8), 2.0)
    assert out.value == 0.0
    np.testing.assert_array_equal(out.grad_wrt_prob, np.zeros((2, 2)))


def test_focal_gamma_range_enforced():
    with pytest.raises(ParameterError):
        losses.focal(np.array([[0.5]]), ONE, 5.5)


def test_poly_alpha_zero_is_focal_exactly():
    rng = rng_stream(12, "test/poly0")
    pred, gt = random_pair(rng)
    p = losses.poly(pred, gt, 2.3, 0.0)
    f = losses.focal(pred, gt, 2.3)
    assert p.value == f.value
    np.testing.assert_array_equal(p.grad_wrt_prob, f.grad_wrt_prob)


def test_poly_worked_half_pixel():
    # focal part 0.25*ln2 plus alpha*(1-pt)^(gamma+1) = 1 * 0.5^3 = 0.125
    got = losses.poly(np.array([[0.5]]), ONE, 2.0, 1.0).value
    assert got == pytest.approx(0.25 * math.log(2) + 0.125, abs=1e-12)


def test_poly_perfect_is_zero():
    assert losses.poly(np.ones((2, 2)), np.ones((2, 2), dtype=np.uint8), 2.0, 1.0).value == 0.0


# ---------------------------------------------------------------------------
# nfl
# ---------------------------------------------------------------------------

def test_nfl_constant_pt_equals_bce():
    # (1-pt)^gamma is constant, so the normalizer cancels it exactly
    for pt in (0.3, 0.6, 0.9):
        pred = np.full((4, 5), pt)
        gt = np.ones((4, 5), dtype=np.uint8)
        got = losses.make_loss("nfl", gamma=2.0)(pred, gt).value
        want = losses.bce(pred, gt).value
        assert got == pytest.approx(want, abs=1e-10)


def test_nfl_single_pixel_is_bce_any_gamma():
    pred = np.array([[0.37]])
    for gamma in (0.0, 1.0, 3.7, 5.0):
        assert losses.make_loss("nfl", gamma=gamma)(pred, ONE).value == pytest.approx(
            losses.bce(pred, ONE).value, abs=1e-12)


def test_nfl_degenerate_all_perfect():
    out = losses.make_loss("nfl", gamma=2.0)(np.ones((3, 3)), np.ones((3, 3), dtype=np.uint8))
    assert out.value == 0.0
    np.testing.assert_array_equal(out.grad_wrt_prob, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# dice
# ---------------------------------------------------------------------------

def test_dice_exact_match_is_zero():
    gt = np.zeros((4, 4), dtype=np.uint8)
    gt[1:3, 1:3] = 1
    assert losses.make_loss("dice", smooth=1.0)(gt.astype(float), gt).value == 0.0


def _k_ones(k):
    gt = np.zeros((3, 3), dtype=np.uint8)
    gt.flat[:k] = 1
    return gt


def test_dice_empty_prediction_direct_substitution():
    # pred all 0, k foreground pixels: 1 - (0+1)/(k+1); k=3 gives 0.75
    for k in (1, 3, 7):
        got = losses.make_loss("dice", smooth=1.0)(np.zeros((3, 3)), _k_ones(k)).value
        assert got == pytest.approx(1.0 - 1.0 / (k + 1), abs=1e-12)


def test_dice_both_empty_is_zero():
    out = losses.make_loss("dice", smooth=1.0)(np.zeros((2, 2)), np.zeros((2, 2), dtype=np.uint8))
    assert out.value == 0.0


# ---------------------------------------------------------------------------
# wbce, balanced_ce and soft_iou
# ---------------------------------------------------------------------------

def saturated_pair(rng):
    """A random pair whose map holds exact 0 and 1 and pixels within 1e-7 of
    them, on both classes."""
    pred, gt = random_pair(rng)
    pred[:2, :4] = [[0.0, 1.0, 5e-8, 1.0 - 5e-8], [1.0, 0.0, 1.0 - 2e-8, 2e-8]]
    gt[:2, :4] = [[1, 1, 1, 1], [0, 0, 0, 0]]
    return pred, gt


def test_wbce_beta_one_equals_bce():
    # one kernel and one pt clamp: equal bit for bit, saturated pixels included
    rng = rng_stream(13, "test/wbce")
    for _ in range(20):
        pred, gt = saturated_pair(rng)
        got = losses.make_loss("wbce", beta=1.0)(pred, gt)
        want = losses.bce(pred, gt)
        assert bits(got.value) == bits(want.value)
        assert bits(got.grad_wrt_prob) == bits(want.grad_wrt_prob)


def test_wbce_auto_beta_requires_foreground():
    # the auto-beta depends on the ground truth, so binding checks it
    loss = losses.make_loss("wbce")
    for gt in (np.zeros((2, 2), dtype=np.uint8), np.ones((2, 2), dtype=np.uint8)):
        with pytest.raises(ParameterError, match="auto-beta"):
            loss.bind(losses.Target(gt))
        with pytest.raises(ParameterError):
            losses.make_loss("wbce")(np.full((2, 2), 0.5), gt)


def test_wbce_auto_beta_is_neg_over_pos():
    gt = np.zeros((2, 2), dtype=np.uint8)
    gt[0, 0] = 1  # 3 negatives / 1 positive
    out = losses.make_loss("wbce")(np.full((2, 2), 0.5), gt)
    assert out.diagnostics["beta"] == pytest.approx(3.0)


def test_balanced_ce_half_beta_is_half_bce():
    rng = rng_stream(14, "test/bal")
    for _ in range(20):
        pred, gt = saturated_pair(rng)
        got = losses.make_loss("balanced_ce", beta=0.5)(pred, gt)
        want = losses.bce(pred, gt)
        assert bits(got.value) == bits(0.5 * want.value)
        assert bits(got.grad_wrt_prob) == bits(0.5 * want.grad_wrt_prob)


def test_soft_iou_exact_match_is_zero():
    gt = np.zeros((4, 4), dtype=np.uint8)
    gt[0:2, 0:2] = 1
    assert losses.make_loss("soft_iou")(gt.astype(float), gt).value == 0.0


def test_balanced_ce_requires_unit_interval_beta():
    with pytest.raises(ParameterError):
        losses.make_loss("balanced_ce", beta=1.5)(np.full((3, 3), 0.5), _k_ones(2))


@pytest.mark.parametrize("name, params", [
    ("balanced_ce", {"beta": 1.5}), ("balanced_ce", {}), ("wbce", {"beta": -1.0}),
], ids=["balanced_ce_beta_above_one", "balanced_ce_no_beta", "wbce_negative_beta"])
def test_make_loss_checks_beta_when_built(name, params):
    with pytest.raises(ParameterError, match="beta"):
        losses.make_loss(name, **params)


# ---------------------------------------------------------------------------
# shared properties
# ---------------------------------------------------------------------------

ALL_LOSSES = [
    ("bce", {}),
    ("wbce", {"beta": 2.0}),
    ("balanced_ce", {"beta": 0.3}),
    ("soft_iou", {}),
    ("focal", {"gamma": 2.0}),
    ("nfl", {"gamma": 2.0}),
    ("poly", {"gamma": 2.0, "alpha": 1.0}),
    ("dice", {}),
    ("afl", {}),
]


@pytest.mark.parametrize("name,params", ALL_LOSSES)
@pytest.mark.parametrize("label", [0, 1])
def test_per_pixel_contribution_nonincreasing_in_pt(name, params, label):
    # the single-pixel loss traces the per-pixel contribution as a function
    # of pt; it must never increase as pt rises toward 1
    fn = losses.make_loss(name, **params)
    gt = np.array([[label]], dtype=np.uint8)
    pts = np.linspace(0.001, 1.0, 200)
    probs = pts if label == 1 else 1.0 - pts
    values = [fn(np.array([[p]]), gt).value for p in probs]
    diffs = np.diff(values)
    assert (diffs <= 1e-12).all()


def test_powlog_contribution_nonincreasing_for_any_coefficients():
    # the modulated cross-entropy kernel itself is monotone for every
    # (exponent, alpha, mu) combination the adaptive loss can produce
    pts = np.linspace(1e-6, 1.0, 400)
    for g in (0.0, 0.7, 2.0, 5.0, 6.0):
        for alpha in (0.0, 1.0, 3.0):
            for mu_val in (0.5, 1.0, 10.0):
                value_px, _ = losses.powlog_kernel(pts, g, alpha, mu_val)
                assert (np.diff(value_px) <= 1e-12).all()


@pytest.mark.parametrize("name,params", ALL_LOSSES)
def test_loss_value_finite_even_at_extremes(name, params):
    gt = np.zeros((3, 3), dtype=np.uint8)
    gt[0, :] = 1
    for fill in (0.0, 1.0):
        out = losses.make_loss(name, **params)(np.full((3, 3), fill), gt)
        assert np.isfinite(out.value)
        assert np.isfinite(out.grad_wrt_prob).all()


def _kernel_stacks(rng, k, h, w):
    """(K, h, w) stacks: C-contiguous, strided, and gathered along the last
    axis (not C-ordered; numpy sums it in another order, so it enters through
    the ``as_prob_stack`` boundary, which makes it C-contiguous)."""
    base = rng.uniform(0.0, 1.0, size=(2 * k, 2 * h, 2 * w))
    base[0, 0, :] = 0.0  # exact 0 and 1 exercise the clips
    base[0, 1, :] = 1.0
    gathered = base[:k, :h][:, :, np.arange(2 * w) % 2 == 1]
    return [np.ascontiguousarray(base[:k, :h, :w]), base[::2, :h, ::2], as_prob_stack(gathered, (h, w))]


def test_leading_axis_kernels_equal_2d_losses_per_map():
    rng = rng_stream(21, "test/kernel_stacks")
    for _ in range(40):
        k, h, w = (int(v) for v in rng.integers(1, 7, size=3))
        gt = (rng.random((h, w)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        gt.flat[0] = 1
        yf = gt.astype(np.float64)
        g, alpha, beta = float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 0.95))
        smooth = float(rng.choice([0.0, 1.0, 1.7]))
        weights = np.where(gt == 1, beta, 1.0 - beta)
        for stack in _kernel_stacks(rng, k, h, w):
            maps = [np.ascontiguousarray(m) for m in stack]
            pt = _pt_kernel(stack, gt)
            value_px, _ = losses.powlog_kernel(pt, g, alpha, 1.0, grad=False)
            ce_px, ce_grad = losses.powlog_kernel(pt, 0.0, 0.0, weights)
            ce_grad *= np.where(gt == 1, 1.0, -1.0) * (pt > DEFAULT_EPS_CLIP)
            batched = {
                "poly": (value_px.sum(axis=(-2, -1)), None),
                "balanced_ce": (ce_px.sum(axis=(-2, -1)), ce_grad),
                "dice": losses._dice_kernel(stack, yf, smooth),
                "soft_iou": losses._soft_iou_kernel(stack, yf),
            }
            per_map = {
                "poly": [losses.poly(m, gt, g, alpha) for m in maps],
                "balanced_ce": [losses.make_loss("balanced_ce", beta=beta)(m, gt) for m in maps],
                "dice": [losses.make_loss("dice", smooth=smooth)(m, gt) for m in maps],
                "soft_iou": [losses.make_loss("soft_iou")(m, gt) for m in maps],
            }
            for name, (values, grads) in batched.items():
                assert values.shape == (k,)
                for i, out in enumerate(per_map[name]):
                    assert bits(values[i]) == bits(np.float64(out.value)), name
                    if grads is not None:
                        assert bits(grads[i]) == bits(out.grad_wrt_prob), name
            assert bits(losses._dice_kernel(stack, yf, smooth, grad=False)[0]) == bits(batched["dice"][0])


def test_powlog_kernel_per_map_exponents_equal_scalar_calls():
    # exponents g, g + 1 or g - 1 of -1, 0, 0.5, 1 and 2 take numpy's scalar
    # fast paths in the per-map call; the batched call must match them too
    rng = rng_stream(23, "test/per_map_exponents")
    for _ in range(10):
        k, m = (int(v) for v in rng.integers(2, 7, size=2))
        pt = np.maximum(rng.uniform(0.0, 1.0, size=(k, m, 16, 16)), DEFAULT_EPS_CLIP)
        pt[0, 0, 0, :] = 1.0
        g = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, float(rng.uniform(0.0, 5.0))], size=(k, m))
        mu = rng.uniform(0.5, 2.0, size=(k, m))
        alpha = float(rng.uniform(0.0, 2.0))
        for grad in (False, True):
            values, grads = losses.powlog_kernel(pt, g[..., None, None], alpha, mu[..., None, None], grad)
            for i, j in np.ndindex(k, m):
                want, want_grad = losses.powlog_kernel(pt[i, j], float(g[i, j]), alpha, float(mu[i, j]), grad)
                assert bits(values[i, j]) == bits(want), (g[i, j], grad)
                if grad:
                    assert bits(grads[i, j]) == bits(want_grad), g[i, j]


def test_in_place_powlog_terms_equal_plain_expressions():
    # float and per-map coefficients, exponents on numpy's fast paths, pt = 1
    rng = rng_stream(25, "test/in_place_powlog")
    for _ in range(20):
        k, m = (int(v) for v in rng.integers(1, 5, size=2))
        pt = np.maximum(rng.uniform(0.0, 1.0, size=(k, m, 9, 7)), DEFAULT_EPS_CLIP)
        pt[0, 0, 0, :] = 1.0
        g = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, float(rng.uniform(0.0, 5.0))], size=(k, m))
        mu = rng.uniform(0.5, 2.0, size=(k, m))
        alpha = float(rng.uniform(0.0, 2.0))
        for coeffs in ((g[..., None, None], mu[..., None, None]), (float(g[0, 0]), float(mu[0, 0]))):
            omp = 1.0 - pt
            mod = losses._power(omp, coeffs[0])
            for grad in (False, True):
                got = losses._powlog_terms(pt, omp, mod, coeffs[0], alpha, coeffs[1], grad)
                want = reference_powlog_terms(pt, omp, mod, coeffs[0], alpha, coeffs[1], grad)
                assert [bits(a) if a is not None else None for a in got] == \
                    [bits(a) if a is not None else None for a in want]


def test_per_map_power_equals_float_exponent_power():
    rng = rng_stream(24, "test/per_map_power")
    base = rng.uniform(0.0, 1.0, size=(6, 5, 16, 16))
    e = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, -0.5], size=(6, 5))
    with np.errstate(divide="ignore"):
        got = losses._power(base, e[..., None, None])
        for i, j in np.ndindex(e.shape):
            assert bits(got[i, j]) == bits(base[i, j] ** float(e[i, j])), e[i, j]


def test_ratio_kernels_score_an_empty_pair_zero_in_a_stack():
    stack = np.stack([np.zeros((3, 3)), np.full((3, 3), 0.5)])
    empty = np.zeros((3, 3))
    for values, grads in (losses._dice_kernel(stack, empty, 0.0), losses._soft_iou_kernel(stack, empty)):
        assert values[0] == 0.0 and values[1] == 1.0
        assert (grads[0] == 0.0).all() and np.isfinite(grads).all()


def _edge_probs(rng, shape):
    """Probabilities with some pixels at exactly 0 and 1, so the clamp shows."""
    p = rng.uniform(0.0, 1.0, size=shape)
    p[rng.random(shape) < 0.1] = 0.0
    p[rng.random(shape) < 0.1] = 1.0
    return p


@pytest.mark.parametrize("name", list(losses._LOSS_PARAMS))
def test_loss_terms_values_without_grad_equal_values_with_grad(name):
    rng = rng_stream(53, f"test/loss_terms_no_grad/{name}")
    p = _edge_probs(rng, (7, 1, 5, 6))
    masks = (rng.random(p.shape) < rng.uniform(0.1, 0.9, size=(7, 1, 1, 1))).astype(np.uint8)
    masks[..., 0, 0], masks[..., -1, -1] = 1, 0
    target = losses.Target.stack(masks)
    params = dict(losses._LOSS_PARAMS[name])
    if "beta" in params:
        params["beta"] = 0.3
    if "gamma" in params:  # per map, hitting numpy's scalar fast paths
        params["gamma"] = np.array([0.5, 2.0, 0.0, 1.0, 3.7, 4.2, 1.5]).reshape(7, 1, 1, 1)
    values, _, _ = losses._loss_terms(name, p, target, params)
    got, grad, diag = losses._loss_terms(name, p, target, params, grad=False)
    assert grad is None and diag == {}
    assert got.shape == (7, 1) and bits(got) == bits(values)


@pytest.mark.parametrize("gamma, ada, agr", [(0.5, True, True), (2.0, True, True),
                                             (2.0, False, False), (0.5, False, True),
                                             (1.3, True, False)])
def test_loss_terms_block_against_masks_equals_each_pair(gamma, ada, agr):
    # the matching cost's layout: k prediction rows against M masks, one empty
    rng = rng_stream(54, f"test/loss_terms_block/{gamma}/{ada}/{agr}")
    preds = _edge_probs(rng, (4, 1, 5, 6))
    masks = (rng.random((3, 5, 6)) < 0.5).astype(np.uint8)
    masks[1] = 0
    target = losses.Target.stack(masks)
    afl = {"gamma": gamma, "alpha": 0.7, "delta": 0.4, "ada_enabled": ada, "agr_enabled": agr}
    for name, params in (("afl", afl), ("dice", {"smooth": 1.0})):
        values, _, _ = losses._loss_terms(name, preds, target, params, grad=False)
        with_grad, grads, diag = losses._loss_terms(name, preds, target, params)
        assert values.shape == (4, 3) and bits(values) == bits(with_grad)
        for i, j in np.ndindex(values.shape):
            want = losses.make_loss(name, **params)(preds[i, 0], masks[j])
            assert repr(float(values[i, j])) == repr(want.value), (name, i, j)
            assert bits(grads[i, j]) == bits(want.grad_wrt_prob), (name, i, j)
            assert repr({key: v[i, j].item() for key, v in diag.items()}) == repr(want.diagnostics)


def test_losses_of_a_column_gathered_map_equal_its_contiguous_copy():
    # b[:, perm] is not C-ordered; the validated losses make it contiguous, so
    # they sum in the order of its copy and agree bit for bit
    from clicklab import adaptive

    rng = rng_stream(22, "test/gathered_map")
    for _ in range(200):
        h, w = (int(v) for v in rng.integers(2, 17, size=2))
        b = rng.uniform(0.0, 1.0, size=(h, w))
        gathered = b[:, rng.permutation(w)]
        assert not gathered.flags.c_contiguous
        copy = np.ascontiguousarray(gathered)
        gt = (rng.random((h, w)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        for fn in (losses.make_loss("dice"), losses.bce, lambda p, y: adaptive.afl(p, y)[0]):
            got, want = fn(gathered, gt), fn(copy, gt)
            assert repr(got.value) == repr(want.value)
            assert bits(got.grad_wrt_prob) == bits(want.grad_wrt_prob)
            assert repr(got.diagnostics) == repr(want.diagnostics)


def test_taylor_identity_fifty_terms():
    # sum_{k=1..50} (1-pt)^k / k reproduces -log(pt) on [0.6, 0.99]
    from clicklab.adaptive import neg_log_series

    pts = np.linspace(0.6, 0.99, 25)
    np.testing.assert_allclose(neg_log_series(pts, 50), -np.log(pts), atol=1e-8)


def test_make_loss_rejects_unknown_and_extras():
    with pytest.raises(ParameterError):
        losses.make_loss("nope")
    with pytest.raises(ParameterError):
        losses.make_loss("bce", gamma=2.0)


@pytest.mark.parametrize("extra", [{"eps": 1e-4}, {"reduction": "sum"}, {"eps_clip": 1e-7}],
                         ids=["eps", "reduction", "eps_clip"])
@pytest.mark.parametrize("name", list(losses._LOSS_PARAMS))
def test_make_loss_rejects_clamp_and_reduction(name, extra):
    # the pt clamp and the sum reduction are constants, for dice as for the rest
    with pytest.raises(ParameterError, match="does not accept"):
        losses.make_loss(name, **extra)


def test_no_function_or_field_takes_clamp_or_reduction():
    removed = {"eps", "eps_clip", "reduction"}
    for info in pkgutil.iter_modules(clicklab.__path__):
        module = importlib.import_module(f"clicklab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    assert not removed & {f.name for f in dataclasses.fields(obj)}, name
                functions = [m for m in vars(obj).values() if inspect.isfunction(m)]
            else:
                functions = [obj] if inspect.isfunction(obj) else []
            for fn in functions:
                assert not removed & set(inspect.signature(fn).parameters), fn.__qualname__


def test_soft_iou_takes_no_beta():
    with pytest.raises(ParameterError, match="does not accept"):
        losses.make_loss("soft_iou", beta=0.3)


@pytest.mark.parametrize("value", ["no", "", 0, 1, 1.0, None, np.int64(1)],
                         ids=["text_no", "empty_text", "int_0", "int_1", "float", "none", "np_int"])
@pytest.mark.parametrize("flag", ["ada_enabled", "agr_enabled"])
def test_make_loss_rejects_non_bool_afl_flags(flag, value):
    with pytest.raises(ParameterError, match=f"{flag} must be a bool"):
        losses.make_loss("afl", **{flag: value})


def test_afl_flags_take_numpy_bools():
    # a 4 x 4 map with foreground pt 0.3: ADA off gives gamma_a 0, on gives 0.7
    pred, gt = np.full((4, 4), 0.3), np.ones((4, 4), dtype=np.uint8)
    for flag, want in ((np.False_, 0.0), (False, 0.0), (np.True_, 1.0 - 0.3)):
        got = losses.make_loss("afl", ada_enabled=flag)(pred, gt).diagnostics["gamma_a"]
        assert got == pytest.approx(want, abs=1e-15)


def test_make_loss_checks_afl_delta():
    for delta in (-0.1, 1.2, float("nan")):
        with pytest.raises(ParameterError, match="delta"):
            losses.make_loss("afl", delta=delta)


def test_losses_imports_nothing_from_adaptive():
    # adaptive builds on losses; losses must not reach back, at module or function level
    tree = ast.parse(open(losses.__file__).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        assert not any("adaptive" in name.split(".") for name in names), ast.unparse(node)


# two different valid values of every parameter make_loss accepts
PARAM_VALUES = {
    ("focal", "gamma"): (1.0, 3.0),
    ("poly", "gamma"): (1.0, 3.0), ("poly", "alpha"): (0.0, 2.0),
    ("nfl", "gamma"): (1.0, 3.0),
    ("dice", "smooth"): (0.0, 2.0),
    ("wbce", "beta"): (None, 3.0),
    ("balanced_ce", "beta"): (0.3, 0.7),
    ("afl", "gamma"): (1.0, 3.0), ("afl", "alpha"): (0.0, 2.0), ("afl", "delta"): (0.0, 1.0),
    ("afl", "ada_enabled"): (True, False), ("afl", "agr_enabled"): (True, False),
}


@pytest.mark.parametrize("name,key", [(n, k) for n, ps in losses._LOSS_PARAMS.items() for k in ps])
def test_every_accepted_parameter_changes_the_loss(name, key):
    # a parameter a loss accepts but ignores would leave both outputs equal
    pred, gt = random_pair(rng_stream(18, "test/param_effect"))
    a, b = (losses.make_loss(name, **{key: v})(pred, gt) for v in PARAM_VALUES[name, key])
    assert a.value != b.value or bits(a.grad_wrt_prob) != bits(b.grad_wrt_prob)
