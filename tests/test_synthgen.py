import json

import numpy as np
import pytest

from clicklab import synthgen
from clicklab.core import GenerationError, ParameterError, rng_stream
from oracles import bits, reference_raster


def test_same_seed_identical_samples():
    spec = synthgen.SynthSpec(48, 48, 2, "blob", 1.0, False, seed=5)
    a = synthgen.generate(spec)
    b = synthgen.generate(spec)
    np.testing.assert_array_equal(a.feature_map, b.feature_map)
    for ma, mb in zip(a.gt_instances, b.gt_instances):
        np.testing.assert_array_equal(ma, mb)


def test_disk_without_noise_is_perfect_disk():
    spec = synthgen.SynthSpec(64, 64, 1, "disk", 0.0, False, seed=3)
    mask = synthgen.generate(spec).gt_instances[0]
    ys, xs = np.nonzero(mask)
    cy, cx = ys.mean(), xs.mean()
    r = np.hypot(ys - cy, xs - cx).max()
    rows, cols = np.mgrid[0:64, 0:64].astype(float)
    ideal = (np.hypot(rows - cy, cols - cx) <= r + 1e-9).astype(np.uint8)
    assert (mask == ideal).mean() > 0.99  # rasterization against the fitted circle


def test_masks_nonempty_and_in_bounds():
    for kind in synthgen.SHAPE_KINDS:
        spec = synthgen.SynthSpec(40, 56, 2, kind, 0.5, False, seed=9)
        sample = synthgen.generate(spec)
        assert len(sample.gt_instances) == 2
        for m in sample.gt_instances:
            assert m.sum() > 0
            assert m.shape == (40, 56)


def test_nested_strict_containment():
    spec = synthgen.SynthSpec(64, 64, 2, "disk", 0.0, True, seed=1)
    outer, inner = synthgen.generate(spec).gt_instances
    assert inner.sum() > 0
    assert (inner <= outer).all()
    assert inner.sum() < outer.sum()


def test_nesting_requires_two_instances():
    with pytest.raises(ParameterError):
        synthgen.SynthSpec(64, 64, 1, "disk", 0.0, True, seed=0)


def test_infeasible_spec_raises_generation_error():
    # 20 instances cannot be packed disjointly at this radius range
    spec = synthgen.SynthSpec(16, 16, 20, "disk", 0.0, False, seed=0)
    with pytest.raises(GenerationError):
        synthgen.generate(spec)


def test_intensity_channel_is_indicator_without_noise():
    spec = synthgen.SynthSpec(32, 32, 1, "disk", 0.0, False, seed=2)
    sample = synthgen.generate(spec)
    np.testing.assert_array_equal(
        sample.feature_map[..., 3], sample.gt_instances[0].astype(float))


def test_feature_channels_in_unit_interval():
    spec = synthgen.SynthSpec(32, 32, 2, "blob", 2.0, False, seed=4)
    f = synthgen.generate(spec).feature_map
    assert f.shape == (32, 32, 4)
    assert f.min() >= 0.0 and f.max() <= 1.0


def test_spec_json_roundtrip():
    spec = synthgen.SynthSpec(48, 32, 2, "ellipse", 0.3, False, seed=77)
    assert synthgen.SynthSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ParameterError):
        synthgen.SynthSpec.from_json({"bogus": 1})


def test_spec_takes_numpy_integers():
    spec = synthgen.SynthSpec(np.int64(32), np.int32(40), np.uint8(2), seed=np.uint64(3))
    want = synthgen.generate(synthgen.SynthSpec(32, 40, 2, seed=3))
    assert bits(synthgen.generate(spec).feature_map) == bits(want.feature_map)


def test_spec_to_json_gives_json_integers():
    spec = synthgen.SynthSpec(np.int64(32), np.int32(40), np.uint8(2), seed=np.uint64(3))
    text = json.dumps(spec.to_json())
    assert json.loads(text) == synthgen.SynthSpec(32, 40, 2, seed=3).to_json()
    assert synthgen.SynthSpec.from_json(json.loads(text)) == spec


@pytest.mark.parametrize("noise, want", [
    (1, "1"), (0.25, "0.25"), (np.float32(0.25), "0.25"), (np.float64(0.1), "0.1"), (np.int64(2), "2.0"),
], ids=["int", "float", "numpy_float32", "numpy_float64", "numpy_int"])
def test_spec_to_json_gives_json_boundary_noise(noise, want):
    # a Python int or float is written as it is, so meta.json keeps its bytes
    obj = synthgen.SynthSpec(boundary_noise=noise).to_json()
    assert json.dumps(obj["boundary_noise"]) == want
    assert type(obj["boundary_noise"]) in (int, float)


def _twin(rng):
    """A generator that draws what ``rng`` draws next."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _check_raster(rows, cols, kind, center, radius, rng, noise, raster=synthgen._raster_shape):
    """The windowed raster, asserted equal to the full-canvas reference, which
    also draws the same numbers."""
    twin = _twin(rng)
    mask = raster(rows, cols, kind, center, radius, rng, noise)
    assert bits(mask) == bits(reference_raster(rows, cols, kind, center, radius, twin, noise))
    ours, ref = rng.bit_generator.state, twin.bit_generator.state
    assert ours["buffer_pos"] == ref["buffer_pos"]
    np.testing.assert_array_equal(ours["state"]["counter"], ref["state"]["counter"])
    return mask


@pytest.mark.parametrize("noise", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("kind", synthgen.SHAPE_KINDS)
def test_generate_masks_equal_full_canvas_reference(kind, noise, monkeypatch):
    checked = []

    def raster(*args):  # every placement try, kept or rejected, is checked
        checked.append(_check_raster(*args))
        return checked[-1]

    monkeypatch.setattr(synthgen, "_raster_shape", raster)
    for seed in range(50):
        h, w = ((64, 64), (56, 72), (72, 56))[seed % 3]
        sample = synthgen.generate(synthgen.SynthSpec(h, w, 1 + seed % 2, kind, noise, seed=seed))
        assert all(any(m is c for c in checked) for m in sample.gt_instances)
    assert len(checked) >= 100


@pytest.mark.parametrize("noise", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("kind", synthgen.SHAPE_KINDS)
def test_raster_window_clipped_at_canvas_edge_equals_reference(kind, noise):
    # centres at generate's placement margin, and on the canvas corners, put
    # the window past the canvas edge
    h, w = 48, 40
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    on_edge = 0
    for seed in range(50):
        rng = rng_stream(seed, "test/raster_edge")
        radius = rng.uniform(min(h, w) / 8.0, min(h, w) / 4.0)
        margin = radius * 1.3 + noise + 2.0
        for center in ((margin, margin), (h - margin, w - margin), (margin, w - margin),
                       (0.0, 0.0), (h - 1.0, w - 1.0)):
            mask = _check_raster(rows, cols, kind, center, radius, rng, noise)
            on_edge += bool(mask[[0, -1]].any() or mask[:, [0, -1]].any())
    assert on_edge >= 100, on_edge  # the corner centres alone give 100


class _Draws:
    """Stands in for a generator: ``uniform`` returns the queued draws in turn."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, low, high, size=None):
        draw = self.draws.pop(0)
        assert np.shape(draw) == (() if size is None else (size,))
        assert np.all((low <= np.asarray(draw)) & (np.asarray(draw) <= high))
        return draw


def test_ellipse_window_holds_the_worst_case_boundary():
    # The ellipse term of the window bound is 2*sqrt(2)*noise: at ratio 0.5
    # the jitter is scaled by a/b = 2 along the major axis.  With |a| = |b| = 1
    # the three harmonics sum to at most 4.06 of the bound's 3*sqrt(2), at an
    # angle the signs below put the major axis on.
    signs = [(-1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)]
    theta = np.linspace(-np.pi, np.pi, 100001)
    harmonics = sum(a * np.cos(k * theta) + b * np.sin(k * theta)
                    for k, (a, b) in enumerate(signs, start=1))
    peak = theta[harmonics.argmax()]
    assert harmonics.max() > 4.05
    draws = [np.array(s) for s in signs] + [0.5, peak % np.pi]

    h = w = 128
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    center, radius, noise = (64.0, 64.0), 20.0, 8.0
    mask = synthgen._raster_shape(rows, cols, "ellipse", center, radius, _Draws(draws), noise)
    full = reference_raster(rows, cols, "ellipse", center, radius, _Draws(draws), noise)
    assert bits(mask) == bits(full)  # every pixel of the full-canvas shape is in the window
    # a window of half-side radius + 1 + sqrt(2)*noise would cut the shape
    ys, xs = np.nonzero(full)
    reach = max(np.abs(ys - center[0]).max(), np.abs(xs - center[1]).max())
    assert reach > radius + 2.0 + np.sqrt(2.0) * noise
