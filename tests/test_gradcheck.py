"""gradcheck's stacked evaluation against the one-case path, and its
batched finite differences against the one-pixel loop."""

import numpy as np
import pytest

from oracles import (bits, reference_central_difference_grad, reference_check_loss_gradients,
                     reference_frozen_value_fn)

from clicklab import gradcheck, losses
from clicklab.core import DimensionError, ParameterError, rng_stream


@pytest.mark.parametrize("name", gradcheck.CHECKED_LOSSES)
@pytest.mark.parametrize("seed", [0, 1, 2, 1001])
def test_batched_fd_bit_equals_one_pixel_loop(name, seed):
    rng = rng_stream(seed, f"gradcheck/{name}")
    shapes, worst = set(), 0.0
    for _ in range(8):
        pred, gt, params = gradcheck._random_case(rng, name)
        analytic, values = gradcheck._analytic_and_frozen(name, pred, gt, params)
        fd = gradcheck.central_difference_grad(values, pred)
        ref = reference_central_difference_grad(reference_frozen_value_fn(name, pred, gt, params), pred)
        assert bits(fd) == bits(ref)
        shapes.add(pred.shape)
        rel = np.abs(analytic - ref) / (gradcheck.DEFAULT_ATOL / gradcheck.DEFAULT_RTOL + np.abs(ref))
        worst = max(worst, float(rel.max()))
    assert len(shapes) > 1 and all(4 <= d <= 6 for s in shapes for d in s)
    assert repr(gradcheck.check_loss_gradients(name, 8, seed)["max_rel_err"]) == repr(worst)


def test_value_stack_is_validated_at_the_boundary():
    pred, gt, params = gradcheck._random_case(rng_stream(0, "test/fd_stack"), "focal")
    _, values = gradcheck._analytic_and_frozen("focal", pred, gt, params)
    assert values(np.stack([pred, pred])).shape == (2,)
    with pytest.raises(DimensionError):
        values(np.full((2, pred.shape[0] + 1, pred.shape[1]), 0.5))
    with pytest.raises(DimensionError):
        values(pred)
    with pytest.raises(ParameterError):
        values(np.stack([pred, np.full_like(pred, np.nan)]))
    edge = pred.copy()
    edge.flat[3] = 0.0  # the -h perturbation leaves [0, 1]
    with pytest.raises(ParameterError):
        gradcheck.central_difference_grad(values, edge)


def _grouped_cases(name, seed, count):
    """``count`` drawn cases of ``name`` grouped by map shape, in drawing order."""
    rng = rng_stream(seed, f"gradcheck/{name}")
    groups = {}
    for _ in range(count):
        pred, gt, params = gradcheck._random_case(rng, name)
        groups.setdefault(pred.shape, []).append((pred, gt, params))
    return list(groups.values())


def _assert_group_equals_one_case_path(name, group):
    preds, gts, params = zip(*group)
    preds = np.array(preds)
    analytic, values = gradcheck._stacked_terms(name, preds, gts, params)
    fd = gradcheck.central_difference_grad(values, preds)
    assert analytic.shape == fd.shape == preds.shape
    for i, (pred, gt, p) in enumerate(group):
        assert bits(analytic[i]) == bits(losses.make_loss(name, **p)(pred, gt).grad_wrt_prob)
        ref = reference_central_difference_grad(reference_frozen_value_fn(name, pred, gt, p), pred)
        assert bits(fd[i]) == bits(ref)


@pytest.mark.parametrize("name", gradcheck.CHECKED_LOSSES)
def test_stacked_terms_equal_one_case_path_bit_for_bit(name):
    sizes = set()
    for seed in (0, 1, 2, 1001):
        for group in _grouped_cases(name, seed, 16):
            _assert_group_equals_one_case_path(name, group)
            sizes.add(len(group))
    assert min(sizes) == 1 and max(sizes) >= 3


def _crafted_group(seed, params_list, shape=(5, 4)):
    rng = rng_stream(seed, "test/gradcheck/crafted")
    group = []
    for params in params_list:
        pred = rng.uniform(0.01, 0.99, size=shape)
        gt = (rng.random(shape) < 0.5).astype(np.uint8)
        gt.flat[0], gt.flat[-1] = 1, 0
        group.append((pred, gt, params))
    return group


@pytest.mark.parametrize("name", ["focal", "poly", "nfl"])
def test_stacked_terms_recompute_fast_path_exponents(name):
    # gamma, gamma + 1 or gamma - 1 hits numpy's scalar fast paths (0.5, 2, -1)
    # on some maps of the group and not on others
    gammas = (0.5, 2.0, 1.3, 1.0, 3.0, 0.0, 2.0)
    params = [{"gamma": g, "alpha": 0.7} if name == "poly" else {"gamma": g} for g in gammas]
    _assert_group_equals_one_case_path(name, _crafted_group(3, params))


def test_stacked_terms_mix_wbce_auto_and_explicit_beta():
    params = [{}, {"beta": 2.0}, {}, {"beta": 0.4}, {"beta": 1.0}]
    _assert_group_equals_one_case_path("wbce", _crafted_group(4, params, (6, 6)))


def test_afl_flags_are_honoured_and_shared_by_a_stacked_call():
    (pred, gt, _), = _crafted_group(6, [{}], (5, 6))
    base = {"gamma": 1.5, "alpha": 0.5, "delta": 0.3}
    default, _ = gradcheck._analytic_and_frozen("afl", pred, gt, base)
    for ada, agr in ((False, True), (True, False), (False, False)):
        params = dict(base, ada_enabled=ada, agr_enabled=agr)
        analytic, values = gradcheck._analytic_and_frozen("afl", pred, gt, params)
        assert bits(analytic) == bits(losses.make_loss("afl", **params)(pred, gt).grad_wrt_prob)
        assert bits(analytic) != bits(default)
        ref = reference_central_difference_grad(
            reference_frozen_value_fn("afl", pred, gt, params), pred)
        assert bits(gradcheck.central_difference_grad(values, pred)) == bits(ref)
    with pytest.raises(ParameterError, match="one stacked call"):
        gradcheck._stacked_terms("afl", np.array([pred, pred]), [gt, gt],
                                 [base, dict(base, ada_enabled=False)])


def test_stacked_terms_check_every_case_and_the_masks():
    group = _crafted_group(5, [{"gamma": 1.0}] * 3)
    preds, gts, params = zip(*group)
    preds = np.array(preds)
    with pytest.raises(ParameterError):  # one case out of range
        gradcheck._stacked_terms("focal", preds, gts, params[:2] + ({"gamma": 6.0},))
    with pytest.raises(ParameterError):  # one case with a parameter focal does not take
        gradcheck._stacked_terms("focal", preds, gts, params[:2] + ({"gamma": 1.0, "beta": 2.0},))
    bad = np.array(gts)
    bad[1, 2, 2] = 2
    with pytest.raises(ParameterError):
        gradcheck._stacked_terms("focal", preds, bad, params)
    with pytest.raises(DimensionError):
        gradcheck._stacked_terms("focal", preds, np.array(gts)[:, :-1], params)
    one_class = np.array(gts)
    one_class[2] = 1
    with pytest.raises(ParameterError, match="auto-beta"):
        gradcheck._stacked_terms("wbce", preds, one_class, [{"beta": 2.0}, {}, {}])
    analytic, _ = gradcheck._stacked_terms("wbce", preds, one_class, [{}, {}, {"beta": 2.0}])
    assert analytic.shape == preds.shape  # an explicit beta needs no second class
    _, values = gradcheck._stacked_terms("focal", preds, gts, params)
    with pytest.raises(DimensionError):
        values(np.stack([preds, preds], axis=1)[:2])
    with pytest.raises(ParameterError):
        values(np.stack([preds, preds + 1.0], axis=1))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cases", [1, 20, 100])
def test_run_suite_equals_one_case_reference(seed, cases):
    suite = gradcheck.run_suite(cases=cases, seed=seed)
    reference = [reference_check_loss_gradients(n, cases, seed) for n in gradcheck.CHECKED_LOSSES]
    assert [repr(r["max_rel_err"]) for r in suite] == [repr(r["max_rel_err"]) for r in reference]
    assert suite == reference


def test_report_independent_of_chunk_size(monkeypatch):
    whole = gradcheck.run_suite(cases=20, seed=4)
    monkeypatch.setattr(gradcheck, "GRAD_CHUNK", 3)
    assert gradcheck.run_suite(cases=20, seed=4) == whole


def test_one_fd_call_per_loss_and_shape_group(monkeypatch):
    calls = {"fd": 0, "values": 0}
    original = gradcheck.central_difference_grad

    def counted(value_fn, prob):
        calls["fd"] += 1

        def counted_values(stack):
            calls["values"] += 1
            return value_fn(stack)
        return original(counted_values, prob)

    monkeypatch.setattr(gradcheck, "central_difference_grad", counted)
    gradcheck.run_suite(cases=20, seed=1)
    groups = sum(len(_grouped_cases(n, 1, 20)) for n in gradcheck.CHECKED_LOSSES)
    assert calls == {"fd": groups, "values": groups} and groups == 73


def test_a_nan_difference_fails_the_check(monkeypatch):
    # Python's max(worst, nan) keeps worst, which would report a pass
    monkeypatch.setattr(gradcheck, "central_difference_grad",
                        lambda value_fn, prob: np.full(np.shape(prob), np.nan))
    report, = gradcheck.run_suite(["bce"], cases=3, seed=1)
    assert np.isnan(report["max_rel_err"]) and report["pass"] is False


@pytest.mark.parametrize("cases", [0, -2, True, 2.5, "3"])
def test_cases_must_be_a_positive_integer(cases):
    with pytest.raises(ParameterError):
        gradcheck.check_loss_gradients("bce", cases, 1)
    with pytest.raises(ParameterError):
        gradcheck.run_suite(["bce"], cases=cases, seed=1)


@pytest.mark.parametrize("seed", [2.9, True, "7", float("nan"), np.float64(3.0)])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(ParameterError):
        gradcheck.run_suite(["bce"], cases=1, seed=seed)
