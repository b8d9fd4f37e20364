import math

import numpy as np
import pytest

from clicklab import adaptive, losses
from clicklab.core import DimensionError, DomainError, ParameterError, pt_map, rng_stream
from oracles import bits, central_diff, reference_afl_step, reference_afl_value

ONE = np.array([[1]], dtype=np.uint8)


def random_pair(rng, h=6, w=6):
    pred = rng.uniform(0.01, 0.99, size=(h, w))
    gt = (rng.random((h, w)) < 0.5).astype(np.uint8)
    gt.flat[0] = 1
    gt.flat[-1] = 0
    return pred, gt


# ---------------------------------------------------------------------------
# gamma_a
# ---------------------------------------------------------------------------

def test_gamma_a_perfect_foreground_is_zero():
    gt = np.ones((3, 3), dtype=np.uint8)
    assert adaptive.gamma_a(np.ones((3, 3)), gt) == 0.0


def test_gamma_a_hopeless_foreground_is_one():
    gt = np.ones((3, 3), dtype=np.uint8)
    # pt clamps at 1e-7, so the value sits within 1e-6 of the exact 1
    assert adaptive.gamma_a(np.zeros((3, 3)), gt) == pytest.approx(1.0, abs=1e-6)


def test_gamma_a_two_pixel_hand_case():
    # foreground pt {0.5, 1.0}: 1 - 1.5/2 = 0.25
    pred = np.array([[0.5, 1.0]])
    gt = np.array([[1, 1]], dtype=np.uint8)
    assert adaptive.gamma_a(pred, gt) == pytest.approx(0.25, abs=1e-12)


def test_gamma_a_no_foreground_defaults_to_zero():
    assert adaptive.gamma_a(np.full((2, 2), 0.3), np.zeros((2, 2), dtype=np.uint8)) == 0.0


def test_gamma_a_in_unit_interval_and_strictly_decreasing():
    rng = rng_stream(21, "test/gamma_a")
    for _ in range(50):
        pred, gt = random_pair(rng)
        g = adaptive.gamma_a(pred, gt)
        assert 0.0 <= g <= 1.0
        fg = np.argwhere(gt == 1)[0]
        bumped = pred.copy()
        bumped[tuple(fg)] = min(0.999, bumped[tuple(fg)] + 0.1)
        assert adaptive.gamma_a(bumped, gt) < g


# ---------------------------------------------------------------------------
# mu
# ---------------------------------------------------------------------------

def test_mu_gamma_d_zero_is_one():
    rng = rng_stream(22, "test/mu")
    for delta in (0.0, 0.4, 1.0):
        assert adaptive.mu(rng.random((4, 4)), 0.0, delta) == pytest.approx(1.0, abs=1e-12)


def test_mu_direct_substitution():
    # N=4, pt=0.5, gamma_d=2, delta=0.4: 4 / (4 * 0.25 * 1.8)
    got = adaptive.mu(np.full((2, 2), 0.5), 2.0, 0.4)
    assert got == pytest.approx(4.0 / (4.0 * 0.25 * 1.8), abs=1e-12)


def test_mu_all_hard_pixels():
    # (1-0)^2 = 1 per pixel: mu = 1/1.8
    got = adaptive.mu(np.zeros((3, 3)), 2.0, 0.4)
    assert got == pytest.approx(1.0 / 1.8, abs=1e-12)


def test_mu_cap_on_near_perfect_map():
    got = adaptive.mu(np.ones((4, 4)), 2.0, 0.4)
    assert got == pytest.approx(1e12)


def test_mu_errors():
    with pytest.raises(DimensionError):
        adaptive.mu(np.zeros((0,)), 2.0, 0.4)
    with pytest.raises(ParameterError):
        adaptive.mu(np.full((2, 2), 0.5), -1.0, 0.4)
    with pytest.raises(ParameterError):
        adaptive.mu(np.full((2, 2), 0.5), 2.0, 1.5)


def test_mu_normalization_identity():
    # mean_i mu * (1-pt_i)^gd * (1+delta*gd) = 1 by construction
    rng = rng_stream(23, "test/mu_norm")
    for _ in range(50):
        pt = rng.uniform(0.01, 0.99, size=(7, 5))
        gd = float(rng.uniform(0.0, 6.0))
        delta = float(rng.uniform(0.0, 1.0))
        m = adaptive.mu(pt, gd, delta)
        weighted = m * (1.0 - pt) ** gd * (1.0 + delta * gd)
        assert abs(weighted.mean() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# afl
# ---------------------------------------------------------------------------

def test_afl_worked_single_pixel():
    # p=0.5 on a foreground pixel, gamma=2, alpha=1, delta=0.4:
    #   gamma_a = 1 - 0.5 = 0.5, gamma_d = 2.5
    #   mu = 1 / (0.5^2.5 * (1 + 0.4*2.5)) = 2.8284271
    #   value = mu * 0.5^2.5 * ln 2 + 0.5^3.5 = 0.3465736 + 0.0883883
    out, diag = adaptive.afl(np.array([[0.5]]), ONE, adaptive.AflParams(2.0, 1.0, 0.4))
    assert diag.gamma_a == pytest.approx(0.5, abs=1e-12)
    assert diag.gamma_d == pytest.approx(2.5, abs=1e-12)
    assert diag.mu == pytest.approx(2.8284271, abs=1e-6)
    expected = (1.0 / (0.5 ** 2.5 * 2.0)) * 0.5 ** 2.5 * math.log(2.0) + 0.5 ** 3.5
    assert expected == pytest.approx(0.4349619, abs=1e-6)
    assert out.value == pytest.approx(expected, abs=1e-12)
    assert out.value == pytest.approx(0.4349619, abs=1e-6)


def test_afl_disabled_equals_focal():
    rng = rng_stream(24, "test/afl_focal")
    pred, gt = random_pair(rng)
    params = adaptive.AflParams(2.0, 0.0, 0.4, ada_enabled=False, agr_enabled=False)
    out, diag = adaptive.afl(pred, gt, params)
    want = losses.focal(pred, gt, 2.0)
    assert out.value == want.value
    np.testing.assert_array_equal(out.grad_wrt_prob, want.grad_wrt_prob)
    assert diag.gamma_a == 0.0 and diag.mu == 1.0


def test_afl_perfect_map_zero_value_and_grad():
    out, _ = adaptive.afl(np.ones((3, 3)), np.ones((3, 3), dtype=np.uint8),
                          adaptive.AflParams(2.0, 1.0, 0.4))
    assert out.value == 0.0
    np.testing.assert_array_equal(out.grad_wrt_prob, np.zeros((3, 3)))


def test_afl_reduction_ladder_on_seeded_maps():
    rng = rng_stream(25, "test/ladder")
    for _ in range(30):
        pred, gt = random_pair(rng)
        gamma = float(rng.uniform(0.0, 5.0))
        alpha = float(rng.uniform(0.0, 2.0))
        off = adaptive.AflParams(gamma, alpha, 0.4, ada_enabled=False, agr_enabled=False)
        a, _ = adaptive.afl(pred, gt, off)
        p = losses.poly(pred, gt, gamma, alpha)
        assert abs(a.value - p.value) <= 1e-12
        assert np.abs(a.grad_wrt_prob - p.grad_wrt_prob).max() <= 1e-12


def test_afl_gradient_against_frozen_finite_differences():
    rng = rng_stream(26, "test/afl_fd")
    pred, gt = random_pair(rng, 5, 5)
    params = adaptive.AflParams(1.7, 0.8, 0.4)
    out, diag = adaptive.afl(pred, gt, params)
    fd = central_diff(
        lambda p: reference_afl_value(p, gt, diag.gamma_d, diag.mu, params.alpha),
        pred)
    np.testing.assert_allclose(out.grad_wrt_prob, fd, rtol=1e-5, atol=1e-7)


def test_afl_diagnostics_in_loss_output():
    out, diag = adaptive.afl(np.array([[0.5]]), ONE)
    assert out.diagnostics["gamma_a"] == diag.gamma_a
    assert out.diagnostics["hard_count"] == 1


def test_afl_params_validation():
    with pytest.raises(ParameterError):
        adaptive.AflParams(gamma=6.0)
    with pytest.raises(ParameterError):
        adaptive.AflParams(delta=1.2)
    with pytest.raises(ParameterError):
        adaptive.AflParams(alpha=-0.1)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            adaptive.AflParams(alpha=alpha)


@pytest.mark.parametrize("flag", ["ada_enabled", "agr_enabled"])
def test_afl_params_flags_must_be_bools(flag):
    with pytest.raises(ParameterError, match=f"{flag} must be a bool"):
        adaptive.AflParams(**{flag: "no"})
    adaptive.AflParams(**{flag: np.False_})


def test_bound_afl_step_equals_float_oracle_bit_for_bit():
    # the (1, 1, h, w) case of the batched coefficients against pt[fg].mean()
    # and Python-float exponents; gamma 0.5 and 2.0 with ADA off hit numpy's
    # sqrt and square; five maps have an empty foreground and five a full one
    rng = rng_stream(31, "test/afl_map_coeffs")
    for case in range(60):
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        pred = rng.uniform(0.0, 1.0, size=(h, w))
        gt = (rng.random((h, w)) < rng.uniform(0.0, 1.0)).astype(np.uint8)
        gamma = [0.5, 2.0, float(rng.uniform(0.0, 5.0))][case % 3]
        params = adaptive.AflParams(gamma=gamma, delta=float(rng.uniform(0.0, 1.0)),
                                    ada_enabled=case % 4 != 0, agr_enabled=case % 5 != 0)
        value, grad, diag = losses.make_loss("afl", **vars(params)).bind(losses.Target(gt))(pred)
        want_value, want_grad, want_diag = reference_afl_step(pred, gt, params)
        assert repr(value) == repr(want_value) and bits(grad) == bits(want_grad)
        assert repr(diag) == repr(want_diag)


# ---------------------------------------------------------------------------
# series tools
# ---------------------------------------------------------------------------

def test_bce_grad_series_examples():
    assert adaptive.bce_grad_series(np.array([1.0]), 1)[0] == 1.0
    assert adaptive.bce_grad_series(np.array([0.8]), 50)[0] == pytest.approx(1.25, abs=1e-12)
    np.testing.assert_array_equal(
        adaptive.bce_grad_series(np.array([0.6, 0.9, 1.0]), 1), np.ones(3))


def test_afl_grad_series_vanishes_at_pt_one():
    for gd in (0.5, 1.0, 2.0, 3.0):
        for alpha in (0.0, 1.0):
            assert adaptive.afl_grad_series(np.array([1.0]), gd, alpha, 10)[0] == 0.0


def test_afl_grad_series_geometric_limit():
    # gamma_d=0, alpha=0 leaves the plain geometric series for 1/pt
    got = adaptive.afl_grad_series(np.array([0.8]), 0.0, 0.0, 200)[0]
    assert got == pytest.approx(1.0 / 0.8, abs=1e-12)


def test_afl_grad_series_first_term():
    # one term at pt=0.9, gamma_d=2, alpha=1: 0.01 * (1+1)(1+2) = 0.06
    got = adaptive.afl_grad_series(np.array([0.9]), 2.0, 1.0, 1)[0]
    assert got == pytest.approx(0.06, abs=1e-12)


def test_series_domain_enforced():
    with pytest.raises(DomainError):
        adaptive.afl_grad_series(np.array([0.5]), 2.0, 1.0, 10)
    with pytest.raises(DomainError):
        adaptive.bce_grad_series(np.array([0.4]), 10)


def test_series_convergence_to_bce_limit():
    pts = np.array([0.6, 0.7, 0.8, 0.9, 0.99])
    got = adaptive.afl_grad_series(pts, 0.0, 0.0, 200)
    np.testing.assert_allclose(got, 1.0 / pts, atol=1e-6)


# ---------------------------------------------------------------------------
# gradient decomposition
# ---------------------------------------------------------------------------

def test_decomposition_gamma_zero_leaves_alpha_offset():
    pts = np.array([0.7, 0.9])
    nu, nabla_b, mixed = adaptive.gradient_decomposition(pts, 0.0, 1.5, 0.4, 5)
    np.testing.assert_allclose(nabla_b, np.full(2, 1.5), atol=1e-15)
    np.testing.assert_allclose(mixed, nu, atol=1e-15)  # delta*gamma_d = 0


def test_decomposition_delta_zero_mixed_equals_nu():
    pts = np.array([0.6, 0.8, 0.95])
    nu, _, mixed = adaptive.gradient_decomposition(pts, 2.0, 1.0, 0.0, 6)
    np.testing.assert_array_equal(mixed, nu)


def test_decomposition_mixed_scalar_factor():
    # delta=0.4, gamma_d=2: mixed = 1.8 * nu
    pts = np.array([0.9])
    nu, _, mixed = adaptive.gradient_decomposition(pts, 2.0, 0.0, 0.4, 3)
    np.testing.assert_allclose(mixed, 1.8 * nu, rtol=1e-15)


def test_decomposition_columns_rebuild_series():
    # nu + nabla_b is exactly the bracket of the gradient series
    pts = np.linspace(0.55, 0.99, 9)
    for gd, alpha in ((0.0, 0.0), (1.5, 0.7), (3.0, 2.0)):
        nu, nabla_b, _ = adaptive.gradient_decomposition(pts, gd, alpha, 0.4, 8)
        series = adaptive.afl_grad_series(pts, gd, alpha, 8)
        np.testing.assert_allclose((1.0 - pts) ** gd * (nu + nabla_b), series, rtol=1e-12)


# ---------------------------------------------------------------------------
# chebyshev residual
# ---------------------------------------------------------------------------

def test_chebyshev_constant_map_residual_exactly_zero():
    for v in (0.1, 1.0 / 3.0, 0.77):
        assert adaptive.chebyshev_identity_check(np.full((6, 7), v), 2.0) == 0.0


def test_chebyshev_worked_two_pixel_case():
    # a = {0.25, 0}, b = {2, 1}: |0.5 - 0.5*0.25*3| = 0.125
    got = adaptive.chebyshev_identity_check(np.array([0.5, 1.0]), 2.0)
    assert got == pytest.approx(0.125, abs=1e-15)


def test_chebyshev_single_pixel_zero():
    assert adaptive.chebyshev_identity_check(np.array([[0.7]]), 3.0) == 0.0


PT = np.array([0.6, 0.9])
NAN = float("nan")


@pytest.mark.parametrize("call, error", [
    (lambda: adaptive.mu([0.5, NAN], 2.0, 0.4), ParameterError),
    (lambda: adaptive.mu(PT, NAN, 0.4), ParameterError),
    (lambda: adaptive.mu(PT, math.inf, 0.4), ParameterError),
    (lambda: adaptive.chebyshev_identity_check([0.5, NAN], 2.0), ParameterError),
    (lambda: adaptive.chebyshev_identity_check(PT, NAN), ParameterError),
    (lambda: adaptive.neg_log_series([0.7, NAN], 5), DomainError),
    (lambda: adaptive.neg_log_series(PT, 2.5), ParameterError),
    (lambda: adaptive.neg_log_series(PT, True), ParameterError),
    (lambda: adaptive.bce_grad_series(PT, 2.5), ParameterError),
    (lambda: adaptive.afl_grad_series(PT, math.inf, 1.0, 5), ParameterError),
    (lambda: adaptive.afl_grad_series(PT, 2.0, NAN, 5), ParameterError),
    (lambda: adaptive.afl_grad_series(PT, 2.0, -3.0, 5), ParameterError),
    (lambda: adaptive.gradient_decomposition(PT, 2.0, NAN, 0.4, 5), ParameterError),
    (lambda: adaptive.gradient_decomposition(PT, 2.0, -3.0, 0.4, 5), ParameterError),
    (lambda: adaptive.gradient_decomposition(PT, 2.0, 1.0, 0.4, 2.5), ParameterError),
], ids=["mu_nan_pt", "mu_nan_gamma_d", "mu_inf_gamma_d", "chebyshev_nan_pt",
        "chebyshev_nan_gamma_d", "series_nan_pt", "series_float_terms", "series_bool_terms",
        "bce_series_float_terms", "grad_series_inf_gamma_d", "grad_series_nan_alpha",
        "grad_series_negative_alpha", "decomposition_nan_alpha",
        "decomposition_negative_alpha", "decomposition_float_terms"])
def test_verification_tools_reject_nan_and_bad_parameters(call, error):
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# the stacked identity check
# ---------------------------------------------------------------------------

def _identity_group(rng, h, w, count):
    """``count`` maps of one shape with their parameters.  Gammas cycle
    through values whose exponents g, g + 1 or g - 1 hit numpy's scalar fast
    paths, and so does gamma_d on the map without foreground (gamma_a 0);
    one map has no foreground, one no background, and some pixels
    sit at exactly 0 or 1 so that the pt clamp and the zero chain show."""
    pred = rng.uniform(0.0, 1.0, size=(count, h, w))
    pred[rng.random(pred.shape) < 0.1] = 0.0
    pred[rng.random(pred.shape) < 0.1] = 1.0
    gt = (rng.random((count, h, w)) < rng.uniform(0.1, 0.9, size=(count, 1, 1))).astype(np.uint8)
    gt[1] = 0
    gt[-1] = 1
    special = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    gamma = np.array([special[i % 6] if i % 2 else float(rng.uniform(0.0, 5.0))
                      for i in range(count)])
    return pred, gt, gamma, rng.uniform(0.0, 2.0, size=count), rng.uniform(0.0, 1.0, size=count)


def test_identity_terms_equal_one_map_public_calls_bit_for_bit():
    # 25 shapes x 12 maps = 300 cases, each against the validated one-map calls
    rng = rng_stream(41, "test/identity_stack")
    for h in range(4, 9):
        for w in range(4, 9):
            pred, gt, gamma, alpha, delta = _identity_group(rng, h, w, 12)
            rungs, mu_res, g_a = adaptive._identity_terms(pred, gt, gamma, alpha, delta)
            gaps, got_mu, got_g_a = adaptive.identity_residuals(pred, gt, gamma, alpha, delta)
            assert bits(got_mu) == bits(mu_res) and bits(got_g_a) == bits(g_a)
            for i in range(len(pred)):
                p, y, g, a, d = pred[i], gt[i], float(gamma[i]), float(alpha[i]), float(delta[i])
                want = {"poly": (adaptive.afl(p, y, adaptive.AflParams(g, a, d, False, False))[0],
                                 losses.poly(p, y, g, a)),
                        "focal": (losses.poly(p, y, g, 0.0), losses.focal(p, y, g)),
                        "bce": (losses.focal(p, y, 0.0), losses.bce(p, y))}
                for rung, pair in want.items():
                    for (values, grads), out in zip(rungs[rung], pair):
                        assert repr(float(values[i])) == repr(out.value), (h, w, i, rung)
                        assert bits(grads[i]) == bits(out.grad_wrt_prob), (h, w, i, rung)
                    upper, lower = pair
                    gap = max(abs(upper.value - lower.value),
                              float(np.abs(upper.grad_wrt_prob - lower.grad_wrt_prob).max()))
                    assert repr(float(gaps[rung][i])) == repr(gap)
                _, diag = adaptive.afl(p, y, adaptive.AflParams(g, a, d))
                weighted = diag.mu * (1.0 - pt_map(p, y)) ** diag.gamma_d * (1.0 + d * diag.gamma_d)
                assert repr(float(mu_res[i])) == repr(abs(float(weighted.mean()) - 1.0))
                assert repr(float(g_a[i])) == repr(diag.gamma_a)


def test_identity_residuals_check_the_stack_once():
    rng = rng_stream(43, "test/identity_bounds")
    pred, gt, gamma, alpha, delta = _identity_group(rng, 5, 6, 3)
    adaptive.identity_residuals(pred, gt, gamma, alpha, delta)

    def swap(i, value):
        args = [pred, gt, gamma, alpha, delta]
        args[i] = value
        return args

    nan_pred = pred.copy()
    nan_pred[1, 2, 3] = NAN
    bad_gt = gt.copy()
    bad_gt[2, 0, 0] = 2
    for args, error in [
            (swap(0, nan_pred), ParameterError), (swap(0, pred + 0.5), ParameterError),
            (swap(1, bad_gt), ParameterError), (swap(0, pred[:2]), DimensionError),
            (swap(0, pred[:, :, :5]), DimensionError), (swap(1, gt[0]), DimensionError),
            (swap(1, gt[:0]), DimensionError), (swap(1, gt[:, :, :0]), DimensionError),
            ([pred[:, :, :0], gt[:, :, :0], gamma, alpha, delta], DimensionError),
            (swap(2, gamma[:2]), ParameterError), (swap(3, 1.0), ParameterError),
            (swap(2, np.array([1.0, NAN, 2.0])), ParameterError),
            (swap(2, np.array([1.0, 5.5, 2.0])), ParameterError),
            (swap(3, np.array([1.0, math.inf, 2.0])), ParameterError),
            (swap(3, np.array([1.0, -0.1, 2.0])), ParameterError),
            (swap(4, np.array([0.5, 1.2, 0.0])), ParameterError),
            (swap(4, np.array([0.5, NAN, 0.0])), ParameterError)]:
        with pytest.raises(error):
            adaptive.identity_residuals(*args)


# ---------------------------------------------------------------------------
# hard/easy reweighting
# ---------------------------------------------------------------------------

def test_hard_easy_ratio_nondecreasing_in_gamma_d():
    # frozen-coefficient focal component: the hard/easy loss ratio grows
    # with the exponent on a 9-point grid
    pt_grid = np.linspace(0.1, 0.9, 9)
    gds = np.arange(0.0, 3.01, 0.5)

    def component(pt, gd):
        return (1.0 - pt) ** gd * (-math.log(pt))

    for i, hard in enumerate(pt_grid):
        for easy in pt_grid[i + 1:]:
            ratios = [component(hard, gd) / component(easy, gd) for gd in gds]
            assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
