"""The batched finite differences of gradcheck against the one-pixel loop."""

import numpy as np
import pytest

from oracles import bits, reference_central_difference_grad, reference_frozen_value_fn

from clicklab import gradcheck
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
