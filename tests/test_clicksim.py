import hashlib
import json

import numpy as np
import pytest
from scipy import ndimage

from clicklab import clicksim, synthgen
from clicklab.core import DimensionError, ParameterError, PerfectPredictionError, rng_stream
from oracles import reference_encode_clicks, reference_next_click


def centered_square(h=11, w=11, size=5):
    gt = np.zeros((h, w), dtype=np.uint8)
    r0 = (h - size) // 2
    c0 = (w - size) // 2
    gt[r0:r0 + size, c0:c0 + size] = 1
    return gt


# ---------------------------------------------------------------------------
# click encoding
# ---------------------------------------------------------------------------

def test_encode_no_clicks_all_zero():
    pos, neg = clicksim.encode_clicks([], 5, 5, radius=3)
    assert not pos.any() and not neg.any()


def test_encode_radius_one_single_pixel():
    pos, _ = clicksim.encode_clicks([clicksim.ClickRecord(2, 3, True, 1)], 5, 6, radius=1)
    assert pos.sum() == 1.0
    assert pos[2, 3] == 1.0


def test_encode_overlapping_clicks_stay_binary():
    clicks = [clicksim.ClickRecord(2, 2, True, 1), clicksim.ClickRecord(2, 3, True, 2)]
    pos, _ = clicksim.encode_clicks(clicks, 6, 6, radius=2)
    assert set(np.unique(pos)) <= {0.0, 1.0}
    single, _ = clicksim.encode_clicks(clicks[:1], 6, 6, radius=2)
    assert (pos >= single).all()  # union of disks


def test_encode_out_of_bounds_click():
    with pytest.raises(ParameterError):
        clicksim.encode_clicks([clicksim.ClickRecord(9, 0, True, 1)], 5, 5, radius=2)


@pytest.mark.parametrize("radius", [float("nan"), 0.5, 0.0, -3.0])
def test_encode_rejects_radius_below_one_or_nan(radius):
    with pytest.raises(ParameterError):
        clicksim.encode_clicks([clicksim.ClickRecord(1, 1, True, 1)], 4, 4, radius=radius)


def test_encode_infinite_radius_covers_image():
    clicks = [clicksim.ClickRecord(0, 3, False, 1)]
    _, neg = clicksim.encode_clicks(clicks, 5, 7, radius=float("inf"))
    assert (neg == 1.0).all()


def test_encode_matches_full_image_reference():
    rng = rng_stream(43, "test/encode_sweep")
    radii = (1.0, 1.5, 2.5, 4.999, 5.0, 7.3, 60.0, float("inf"))
    for _ in range(1000):
        h, w = (int(v) for v in rng.integers(1, 41, size=2))
        radius = radii[rng.integers(len(radii))]
        if rng.random() < 0.3:
            radius = float(rng.uniform(1.0, 12.0))
        clicks = []
        for i in range(int(rng.integers(0, 6))):
            row, col = int(rng.integers(h)), int(rng.integers(w))
            if rng.random() < 0.5:  # pin to a random border
                side = int(rng.integers(4))
                row = (0, h - 1, row, row)[side]
                col = (col, col, 0, w - 1)[side]
            clicks.append(clicksim.ClickRecord(row, col, bool(rng.random() < 0.5), i + 1))
        got = clicksim.encode_clicks(clicks, h, w, radius=radius)
        want = reference_encode_clicks(clicks, h, w, radius)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and np.array_equal(g, r), (h, w, radius, clicks)


def test_session_maps_match_full_image_reference_after_every_add():
    rng = rng_stream(44, "test/session_sweep")
    radii = (1.0, 1.5, 2.5, 60.0, float("inf"))
    sizes = [(1, 1), (1, 40), (40, 1), (40, 40)]
    sizes += [tuple(int(v) for v in rng.integers(1, 41, size=2)) for _ in range(296)]
    for h, w in sizes:
        radius = radii[rng.integers(len(radii))]
        if rng.random() < 0.3:
            radius = float(rng.uniform(1.0, 12.0))
        session = clicksim.ClickSession(h, w, radius)
        for i in range(int(rng.integers(1, 8))):
            row, col = int(rng.integers(h)), int(rng.integers(w))
            if rng.random() < 0.5:  # pin to a random border
                side = int(rng.integers(4))
                row = (0, h - 1, row, row)[side]
                col = (col, col, 0, w - 1)[side]
            session.add(clicksim.ClickRecord(row, col, bool(rng.random() < 0.5), i + 1))
            want = reference_encode_clicks(session.clicks, h, w, radius)
            for g, r in zip((session.pos, session.neg), want):
                assert g.dtype == r.dtype and np.array_equal(g, r), (h, w, radius, session.clicks)


def test_session_channels_append_pos_then_neg():
    session = clicksim.ClickSession(3, 4, radius=1)
    session.add(clicksim.ClickRecord(0, 1, True, 1))
    session.add(clicksim.ClickRecord(2, 3, False, 2))
    features = np.arange(24, dtype=np.float64).reshape(3, 4, 2)
    stacked = session.channels(features)
    assert stacked.shape == (3, 4, 4)
    np.testing.assert_array_equal(stacked[..., :2], features)
    np.testing.assert_array_equal(stacked[..., 2], session.pos)
    np.testing.assert_array_equal(stacked[..., 3], session.neg)
    with pytest.raises(DimensionError):
        session.channels(np.zeros((4, 3, 2)))


# ---------------------------------------------------------------------------
# click placement
# ---------------------------------------------------------------------------

def test_next_click_center_of_missed_square():
    gt = centered_square()
    click = clicksim.next_click(np.zeros_like(gt), gt)
    assert click.positive
    assert (click.row, click.col) == (5, 5)  # unique distance-transform argmax


def test_next_click_negative_on_spurious_pixel():
    gt = centered_square()
    pred = gt.copy()
    pred[0, 0] = 1
    click = clicksim.next_click(pred, gt)
    assert not click.positive
    assert (click.row, click.col) == (0, 0)


def test_next_click_prefers_false_negative_on_tie():
    # one FN pixel and one FP pixel, same size: FN wins
    gt = np.zeros((5, 5), dtype=np.uint8)
    gt[1, 1] = 1
    pred = np.zeros_like(gt)
    pred[3, 3] = 1
    click = clicksim.next_click(pred, gt)
    assert click.positive
    assert (click.row, click.col) == (1, 1)


def test_next_click_largest_component_wins():
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[0, 0] = 1          # small FN
    gt[4:7, 4:7] = 1      # big FN
    click = clicksim.next_click(np.zeros_like(gt), gt)
    assert (click.row, click.col) == (5, 5)


def test_next_click_lands_inside_error_region():
    rng = rng_stream(41, "test/placement")
    for _ in range(50):
        gt = (rng.random((12, 12)) < 0.4).astype(np.uint8)
        pred = (rng.random((12, 12)) < 0.4).astype(np.uint8)
        if (pred == gt).all():
            continue
        click = clicksim.next_click(pred, gt)
        if click.positive:
            assert gt[click.row, click.col] == 1 and pred[click.row, click.col] == 0
        else:
            assert pred[click.row, click.col] == 1 and gt[click.row, click.col] == 0


def test_next_click_equal_size_tie_goes_to_first_row_major_pixel():
    # an L whose first pixel (0, 6) precedes the rectangle's (1, 0) although
    # its centroid (2.3, 5.8) comes after the rectangle's (1.5, 1.0)
    gt = np.zeros((6, 8), dtype=np.uint8)
    gt[0:5, 6] = 1
    gt[4, 5] = 1
    gt[1:3, 0:3] = 1
    click = clicksim.next_click(np.zeros_like(gt), gt)
    assert click.positive and (click.row, click.col) == (0, 6)


def test_next_click_false_negative_beats_earlier_false_positive_of_equal_size():
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[3, 3:5] = 1           # FN, anchor (3, 3)
    pred = np.zeros_like(gt)
    pred[0, 0:2] = 1         # FP of the same size, anchor (0, 0)
    click = clicksim.next_click(pred, gt)
    assert click.positive and (click.row, click.col) == (3, 3)


@pytest.mark.parametrize("rows, cols, expected", [
    (slice(6, 10), slice(5, 9), (7, 6)),   # bottom-right corner
    (slice(0, 5), slice(0, 9), (2, 2)),    # full-width band on the top edge
])
def test_next_click_border_counts_as_boundary(rows, cols, expected):
    gt = np.zeros((10, 9), dtype=np.uint8)
    gt[rows, cols] = 1
    pred = np.zeros_like(gt)
    pred[8, 0] = 1  # a small FP elsewhere, so the winner is cropped
    click = clicksim.next_click(pred, gt)
    assert click.positive and (click.row, click.col) == expected
    assert click == reference_next_click(pred, gt)


def test_next_click_matches_full_image_reference():
    rng = rng_stream(44, "test/next_click_sweep")
    cases = 0
    for size in (5, 8, 13, 24, 48, 128):
        for rate in (0.01, 0.05, 0.2, 0.5):
            for kind in ("random", "square"):
                for _ in range(1 if size == 128 else 3):
                    if kind == "random":
                        gt = (rng.random((size, size)) < 0.4).astype(np.uint8)
                    else:
                        gt = centered_square(size, size, max(1, size // 2))
                    pred = np.where(rng.random(gt.shape) < rate, 1 - gt, gt).astype(np.uint8)
                    if (pred == gt).all():
                        continue
                    prior = [None] * int(rng.integers(0, 5))
                    assert clicksim.next_click(pred, gt, prior) == \
                        reference_next_click(pred, gt, prior), (size, rate, kind)
                    cases += 1
    assert cases >= 100

    # tiny maps of random density: size ties between FN and FP components and
    # among components of one polarity are common, and scipy's label order
    # must break every one of them as the reference does
    tiny = ties_across = ties_within = 0
    while tiny < 5000:
        h, w = (int(n) for n in rng.integers(1, 12, size=2))
        gt = (rng.random((h, w)) < rng.random()).astype(np.uint8)
        pred = np.where(rng.random(gt.shape) < rng.random(), 1 - gt, gt).astype(np.uint8)
        if (pred == gt).all():
            continue
        sizes = [np.bincount(ndimage.label(err)[0].ravel())[1:] for err in (gt > pred, pred > gt)]
        top = max(s.max(initial=0) for s in sizes)
        ties_across += all(s.max(initial=0) == top for s in sizes)
        ties_within += any((s == top).sum() > 1 for s in sizes)
        assert clicksim.next_click(pred, gt) == reference_next_click(pred, gt), (gt, pred)
        tiny += 1
    assert ties_across >= 500 and ties_within >= 500, (ties_across, ties_within)


def test_next_click_perfect_prediction_signals():
    gt = centered_square()
    with pytest.raises(PerfectPredictionError):
        clicksim.next_click(gt, gt)


def test_first_click_is_gt_interior_argmax():
    click = clicksim.first_click(centered_square())
    assert click.positive and click.index == 1
    assert (click.row, click.col) == (5, 5)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def feats(gt):
    return np.stack([gt.astype(float)] * 3, axis=-1)


def test_run_noc_oracle_one_click():
    gt = centered_square()
    trace = clicksim.run_noc(clicksim.OraclePredictor(gt), feats(gt), gt)
    assert trace.noc85 == trace.noc90 == 1
    assert not trace.failed85 and not trace.failed90
    assert trace.ious == [1.0]
    assert len(trace.clicks) == 1


def test_run_noc_never_improving_caps_at_twenty():
    gt = centered_square()
    trace = clicksim.run_noc(clicksim.ConstantPredictor(gt.shape, 0.0), feats(gt), gt)
    assert trace.noc85 == trace.noc90 == 20
    assert trace.failed85 and trace.failed90
    assert len(trace.ious) == len(trace.clicks) == 20


def test_run_noc_threshold_order():
    rng = rng_stream(42, "test/noc_order")
    gt = centered_square(16, 16, 8)
    for seed in range(10):
        pred = clicksim.NoisyOraclePredictor(gt, float(rng.uniform(0.0, 0.15)), seed)
        trace = clicksim.run_noc(pred, feats(gt), gt)
        assert trace.noc85 <= trace.noc90
        assert len(trace.ious) == len(trace.clicks) <= 20


def test_run_noc_deterministic():
    gt = centered_square(16, 16, 8)
    a = clicksim.run_noc(clicksim.NoisyOraclePredictor(gt, 0.1, 7), feats(gt), gt)
    b = clicksim.run_noc(clicksim.NoisyOraclePredictor(gt, 0.1, 7), feats(gt), gt)
    assert a.ious == b.ious
    assert [c.as_dict() for c in a.clicks] == [c.as_dict() for c in b.clicks]


def test_run_noc_adds_each_click_once(monkeypatch):
    added = []
    real_add = clicksim.ClickSession.add
    monkeypatch.setattr(clicksim.ClickSession, "add",
                        lambda self, click: added.append(click) or real_add(self, click))
    gt = centered_square()
    trace = clicksim.run_noc(clicksim.ConstantPredictor(gt.shape, 0.0), feats(gt), gt)
    assert len(trace.clicks) == 20
    assert added == trace.clicks


@pytest.mark.parametrize("max_clicks", [0, clicksim.DEFAULT_MAX_CLICKS + 1])
def test_run_noc_rejects_max_clicks_outside_protocol_cap(max_clicks):
    # protocol version 1 scores a threshold not reached by click 20 as 20
    gt = centered_square()
    with pytest.raises(ParameterError):
        clicksim.run_noc(clicksim.ConstantPredictor(gt.shape), feats(gt), gt, max_clicks)


def test_noisy_flips_stay_out_of_click_disks():
    gt = centered_square(16, 16, 8)
    session = clicksim.ClickSession(*gt.shape)
    session.add(clicksim.first_click(gt))
    pred = clicksim.NoisyOraclePredictor(gt, 1.0, 3).predict(feats(gt), session)
    disk = session.pos == 1.0
    assert 1 < disk.sum() < gt.size
    assert np.array_equal(pred[disk], gt[disk])
    assert np.array_equal(pred[~disk], 1 - gt[~disk])


@pytest.mark.parametrize("seed", [2.9, True, "7"])
def test_noisy_predictor_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ParameterError):
        clicksim.NoisyOraclePredictor(centered_square(), 0.1, seed)


def test_noisy_predictor_takes_numpy_integer_seeds():
    assert clicksim.NoisyOraclePredictor(centered_square(), 0.1, np.int64(7)).seed == 7


def test_protocol_version_one_trace_pinned():
    # a change to click placement or click encoding moves this digest; such a
    # change must bump PROTOCOL_VERSION
    sample = synthgen.generate(synthgen.SynthSpec(64, 64, 2, "blob", 1.0, False, seed=3))
    traces = [clicksim.run_noc(clicksim.NoisyOraclePredictor(gt, 0.05, 11 + j),
                               sample.feature_map, gt, sample_id=f"mask_{j:02d}").as_dict()
              for j, gt in enumerate(sample.gt_instances)]
    digest = hashlib.sha256(json.dumps(traces, sort_keys=True).encode()).hexdigest()
    assert clicksim.PROTOCOL_VERSION == "1"
    assert digest == "e0885bf3e0ebbd7cac88606909e76cc1133714b31adaeb23bf132387b5bd6531"


def test_run_noc_requires_foreground():
    with pytest.raises(ParameterError):
        clicksim.run_noc(clicksim.ConstantPredictor((4, 4)), np.zeros((4, 4, 1)),
                         np.zeros((4, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _trace(ious, noc85=20, noc90=20):
    return clicksim.SimTrace([], list(ious), noc85, noc90, True, True)


def test_miou_at_k_basics():
    t = _trace([0.5, 0.9])
    assert clicksim.miou_at_k([t], 1) == 0.5
    assert clicksim.miou_at_k([t], 2) == 0.9
    assert clicksim.miou_at_k([t], 7) == 0.9  # final IoU carried forward


def test_miou_oracle_traces_all_one():
    gt = centered_square()
    traces = [clicksim.run_noc(clicksim.OraclePredictor(gt), feats(gt), gt)
              for _ in range(3)]
    for k in (1, 5, 20):
        assert clicksim.miou_at_k(traces, k) == 1.0


def test_miou_validates_inputs():
    with pytest.raises(ParameterError):
        clicksim.miou_at_k([], 3)
    with pytest.raises(ParameterError):
        clicksim.miou_at_k([_trace([0.5])], 0)


def test_aggregate_counts_failures_at_cap():
    gt = centered_square()
    good = clicksim.run_noc(clicksim.OraclePredictor(gt), feats(gt), gt)
    bad = clicksim.run_noc(clicksim.ConstantPredictor(gt.shape, 0.0), feats(gt), gt)
    agg = clicksim.aggregate([good, bad])
    assert agg["mean_noc85"] == pytest.approx((1 + 20) / 2)
    assert agg["failed90"] == 1


def test_trained_predictor_finite_traces_on_varied_samples():
    from clicklab import synthgen, trainer

    kinds = ("disk", "ellipse", "blob")
    train_sample = synthgen.generate(synthgen.SynthSpec(32, 32, 1, "disk", 0.0, False, seed=50))
    model, _ = trainer.train(train_sample, trainer.TrainConfig(loss="afl", steps=100))
    predictor = clicksim.TrainedPredictor(model)
    for i in range(10):
        nesting = i >= 8
        spec = synthgen.SynthSpec(32, 32, 2 if nesting else 1, kinds[i % 3],
                                  boundary_noise=0.5 * (i % 3), nesting=nesting, seed=60 + i)
        sample = synthgen.generate(spec)
        for gt in sample.gt_instances:
            trace = clicksim.run_noc(predictor, sample.feature_map, gt)
            assert np.isfinite(trace.ious).all()
            assert 1 <= trace.noc85 <= 20 and trace.noc85 <= trace.noc90
            assert len(trace.ious) == len(trace.clicks) <= 20
