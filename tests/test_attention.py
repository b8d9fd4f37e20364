import dataclasses
import warnings

import numpy as np
import pytest

from scipy.special import expit

from clicklab import attention, clicksim, synthgen
from clicklab.clicksim import ClickRecord
from clicklab.core import ParameterError, binarize, rng_stream
from oracles import bits, reference_camd_forward, reference_stack_attn_masks


def attn_rows(preds, h, w):
    """The decoder's attention-mask rows of a prediction stack resized to h x w."""
    resized = attention.resize_nearest(np.asarray(preds, dtype=np.float64), h, w)
    return attention._attn_rows(binarize(resized.reshape(len(resized), -1)))


def toy_params(n=4, d=8, seed=0):
    return attention.AttentionParams.initialize(n, d, seed)


def toy_scale(h, w, d, seed=0, clicks=()):
    rng = rng_stream(seed, "test/scale")
    from clicklab.clicksim import encode_clicks

    pos, neg = encode_clicks(list(clicks), h, w, radius=2)
    return attention.ScaleFeatures(rng.uniform(-1, 1, size=(h * w, d)), pos - neg, h, w)


# ---------------------------------------------------------------------------
# attention mask
# ---------------------------------------------------------------------------

def test_attn_mask_all_foreground_unmasked():
    row = attn_rows([np.full((3, 3), 0.8)], 3, 3)[0]
    np.testing.assert_array_equal(row, np.zeros(9))


def test_attn_mask_all_background_resets():
    row = attn_rows([np.full((3, 3), 0.2)], 3, 3)[0]
    np.testing.assert_array_equal(row, np.zeros(9))


def test_attn_mask_complement_pattern():
    pred = np.array([[0.9, 0.1], [0.1, 0.9]])
    row = attn_rows([pred], 2, 2)[0]
    assert row[0] == 0.0 and row[3] == 0.0
    assert np.isneginf(row[1]) and np.isneginf(row[2])


def test_logit_threshold_equals_binarized_logistic():
    rng = rng_stream(17, "test/logit_fg")
    # expit(z) rounds to 0.5 from the float after -3.330669073875469e-16 up to 0
    edge = [-1e-12, np.nextafter(-1e-12, 0.0), np.nextafter(-1e-12, -1.0),
            -3.330669073875469e-16, np.nextafter(-3.330669073875469e-16, 0.0), -3.33e-16,
            -1e-300, -5e-324, 0.0, -0.0, 5e-324, np.inf, -np.inf]
    anywhere = rng.integers(0, 2 ** 64, size=4000, dtype=np.uint64).view(np.float64)
    z = np.concatenate([edge, rng.normal(0.0, 3.0, 4000), rng.uniform(-2e-12, 2e-12, 4000),
                        -np.geomspace(1e-18, 1e-11, 2000), anywhere[~np.isnan(anywhere)]])
    want = binarize(expit(z).reshape(1, -1)).ravel() == 1
    assert want[:len(edge)].tolist() == [False] * 4 + [True] * 8 + [False]
    for shape in ((1, -1), (-1, 1)):
        assert bits(attention._logit_fg(z.reshape(shape))) == bits(want.reshape(shape))


def test_logit_threshold_rejects_nan():
    with pytest.raises(ParameterError, match="non-finite"):
        attention._logit_fg(np.array([[0.5, np.nan, -1.0]]))
    params = toy_params()
    scales, embed = attention.build_feature_stack(np.ones((32, 32)), [], 8, 0)
    with pytest.raises(ParameterError, match="non-finite"):
        attention.camd_forward(scales, embed, dataclasses.replace(params, x0=params.x0 * np.nan), 1)


# ---------------------------------------------------------------------------
# click attention matrix
# ---------------------------------------------------------------------------

def test_psi_zero_click_map_is_constant_bias():
    params = toy_params()
    scale = toy_scale(4, 4, 8)
    q = rng_stream(1, "test/q").uniform(-1, 1, size=(4, 8))
    psi = attention.click_attention_matrix(scale, q, params, np.zeros((4, 16)))
    np.testing.assert_allclose(psi, params.psi_bias)


def test_psi_negative_queries_rectified_away():
    params = toy_params()
    clicks = [ClickRecord(1, 1, True, 1)]
    scale = toy_scale(4, 4, 8, clicks=clicks)
    q = -np.abs(rng_stream(2, "test/qneg").uniform(0.5, 1.0, size=(4, 8)))
    psi = attention.click_attention_matrix(scale, q, params, np.zeros((4, 16)))
    np.testing.assert_allclose(psi, params.psi_bias)


def test_psi_mask_positions_become_neg_inf():
    params = toy_params()
    scale = toy_scale(4, 4, 8, clicks=[ClickRecord(0, 0, True, 1)])
    q = np.abs(rng_stream(3, "test/qpos").uniform(0.5, 1.0, size=(4, 8)))
    mask = np.zeros((4, 16))
    mask[1, 3] = -np.inf
    psi = attention.click_attention_matrix(scale, q, params, mask)
    assert np.isneginf(psi[1, 3])
    assert np.isfinite(psi[0]).all()


def test_psi_unmasked_matches_masked_elsewhere():
    params = toy_params()
    scale = toy_scale(4, 4, 8, clicks=[ClickRecord(2, 2, True, 1)])
    q = np.abs(rng_stream(4, "test/qfree").uniform(0.1, 1.0, size=(4, 8)))
    free = attention.click_attention_matrix(scale, q, params, np.zeros((4, 16)))
    mask = np.zeros((4, 16))
    mask[2, 5] = -np.inf
    masked = attention.click_attention_matrix(scale, q, params, mask)
    keep = np.isfinite(masked)
    np.testing.assert_array_equal(masked[keep], free[keep])


# ---------------------------------------------------------------------------
# decoder block
# ---------------------------------------------------------------------------

def test_masked_cross_attention_reduces_to_plain_softmax():
    rng = rng_stream(5, "test/plain")
    x = rng.uniform(-1, 1, size=(3, 8))
    q = rng.uniform(-1, 1, size=(3, 8))
    k = rng.uniform(-1, 1, size=(12, 8))
    v = k.copy()
    got = attention.masked_cross_attention(x, np.zeros((3, 12)), q, k, v)
    scores = q @ k.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    want = (e / e.sum(axis=1, keepdims=True)) @ v + x
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_camd_layer_identical_queries_identical_outputs():
    params = toy_params()
    scale = toy_scale(4, 4, 8, clicks=[ClickRecord(1, 2, True, 1)])
    x = np.tile(rng_stream(6, "test/same").uniform(-1, 1, size=(1, 8)), (4, 1))
    out = attention.camd_layer(x, np.zeros((4, 16)), scale, params)
    for row in out[1:]:
        np.testing.assert_array_equal(row, out[0])


def test_camd_layer_reset_row_equals_unmasked_row():
    # row 1's prediction is all background, so its mask row resets to
    # unmasked; its attention distribution must match the fully unmasked run
    # (rows are independent in the cross-attention softmax)
    params = toy_params()
    scale = toy_scale(4, 4, 8, clicks=[ClickRecord(1, 1, False, 1)])
    x = rng_stream(7, "test/reset").uniform(-1, 1, size=(4, 8))

    preds = [np.full((4, 4), 0.9), np.zeros((4, 4)), np.eye(4), np.full((4, 4), 0.6)]
    mask = attn_rows(preds, 4, 4)
    np.testing.assert_array_equal(mask[1], np.zeros(16))

    free_attn: list = []
    attention.camd_layer(x, np.zeros((4, 16)), scale, params, collect=free_attn)
    masked_attn: list = []
    attention.camd_layer(x, mask, scale, params, collect=masked_attn)
    np.testing.assert_array_equal(masked_attn[0]["attn"][1], free_attn[0]["attn"][1])


def test_camd_layer_rows_sum_to_one_with_masks():
    params = toy_params()
    scale = toy_scale(4, 4, 8, clicks=[ClickRecord(0, 3, True, 1)])
    x = rng_stream(8, "test/rows").uniform(-1, 1, size=(4, 8))
    mask = np.zeros((4, 16))
    mask[0, :8] = -np.inf
    mask[2, 1:] = -np.inf
    collected = []
    attention.camd_layer(x, mask, scale, params, collect=collected)
    attn = collected[0]["attn"]
    np.testing.assert_allclose(attn.sum(axis=1), np.ones(4), atol=1e-9)
    assert attn[0, :8].max() == 0.0
    assert attn[2, 1:].max() == 0.0


# ---------------------------------------------------------------------------
# prediction heads
# ---------------------------------------------------------------------------

def test_predict_heads_zero_weights_give_uniform_outputs():
    params = toy_params()
    zeroed = dataclasses.replace(
        params,
        mask_head=[(np.zeros((8, 8)), np.zeros(8)) for _ in range(3)],
        click_head=np.zeros((8, 2)),
        click_bias=np.zeros(2),
    )
    embed = toy_scale(4, 4, 8)
    x = rng_stream(9, "test/heads").uniform(-1, 1, size=(4, 8))
    preds = attention.predict_heads(x, embed, zeroed)
    assert len(preds) == 4
    for p in preds:
        np.testing.assert_allclose(p.mask_probs, 0.5, atol=1e-15)
        np.testing.assert_allclose(p.click_class_probs, [0.5, 0.5], atol=1e-15)


def test_predict_heads_class_probs_sum_to_one():
    params = toy_params()
    embed = toy_scale(4, 4, 8)
    x = rng_stream(10, "test/heads2").uniform(-3, 3, size=(4, 8))
    for p in attention.predict_heads(x, embed, params):
        assert p.click_class_probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.mask_probs.shape == (4, 4)


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

def forward_once(seed, blocks=1, h=32, w=32, n=4, d=8, collect=None):
    params = attention.AttentionParams.initialize(n, d, seed)
    rng = rng_stream(seed, "test/forward")
    image = rng.random((h, w))
    clicks = [ClickRecord(h // 2, w // 2, True, 1)]
    scales, embed = attention.build_feature_stack(image, clicks, d, seed)
    return attention.camd_forward(scales, embed, params, blocks, collect=collect)


def test_forward_layer_count_and_shapes():
    collected = []
    preds = forward_once(seed=11, blocks=1, collect=collected)
    assert len(collected) == 3  # one block = one pass over the three scales
    assert len(preds) == 4
    assert preds[0].mask_probs.shape == (8, 8)  # quarter of a 32x32 image


def test_forward_bit_identical_rerun():
    a = forward_once(seed=12, blocks=2)
    b = forward_once(seed=12, blocks=2)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.mask_probs, pb.mask_probs)
        np.testing.assert_array_equal(pa.click_class_probs, pb.click_class_probs)


def test_forward_click_sensitivity():
    seed = 13
    params = attention.AttentionParams.initialize(4, 8, seed)
    image = rng_stream(seed, "test/forward").random((32, 32))
    scales_a, embed_a = attention.build_feature_stack(
        image, [ClickRecord(8, 8, True, 1)], 8, seed)
    scales_b, embed_b = attention.build_feature_stack(
        image, [ClickRecord(24, 24, True, 1)], 8, seed)
    a = attention.camd_forward(scales_a, embed_a, params, 1)
    b = attention.camd_forward(scales_b, embed_b, params, 1)
    assert any(np.abs(pa.mask_probs - pb.mask_probs).max() > 0 for pa, pb in zip(a, b))


def test_forward_no_nan_over_seeded_sweep():
    for seed in range(25):
        for p in forward_once(seed=seed, blocks=3):
            assert np.isfinite(p.mask_probs).all()
            assert np.isfinite(p.click_class_probs).all()


def test_forward_validates_inputs():
    params = toy_params()
    with pytest.raises(ParameterError):
        attention.camd_forward([], toy_scale(4, 4, 8), params, 1)
    scales, embed = attention.build_feature_stack(np.ones((32, 32)), [], 8, 0)
    with pytest.raises(ParameterError):
        attention.camd_forward(scales, embed, toy_params(), 0)


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "text"])
def test_decoder_entry_points_reject_non_integers(value):
    image = np.ones((32, 32))
    with pytest.raises(ParameterError, match="n_queries must be an integer"):
        attention.AttentionParams.initialize(value, 8)
    with pytest.raises(ParameterError, match="dim must be an integer"):
        attention.AttentionParams.initialize(4, value)
    with pytest.raises(ParameterError, match="dim must be an integer"):
        attention.build_feature_stack(image, [], value, 0)
    scales, embed = attention.build_feature_stack(image, [], 8, 0)
    with pytest.raises(ParameterError, match="blocks must be an integer"):
        attention.camd_forward(scales, embed, toy_params(), value)


def test_feature_stack_rejects_zero_dim():
    with pytest.raises(ParameterError, match="dim must be >= 1"):
        attention.build_feature_stack(np.ones((32, 32)), [], 0, 0)


@pytest.mark.parametrize("value, at", [(np.nan, (3, 4)), (np.inf, (0, 0))], ids=["nan", "inf"])
def test_feature_stack_rejects_non_finite_image(value, at):
    image = np.ones((32, 32))
    image[at] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any matmul warns
        with pytest.raises(ParameterError, match="image contains non-finite values"):
            attention.build_feature_stack(image, [], 8, 0)


def test_decoder_entry_points_take_numpy_integers():
    image = rng_stream(18, "test/numpy_ints").random((32, 32))
    clicks = [ClickRecord(10, 20, True, 1)]
    want = attention.camd_forward(*attention.build_feature_stack(image, clicks, 8, 18),
                                  attention.AttentionParams.initialize(4, 8, 18), 2)
    got = attention.camd_forward(*attention.build_feature_stack(image, clicks, np.int64(8), 18),
                                 attention.AttentionParams.initialize(np.int32(4), np.int64(8), 18),
                                 np.int64(2))
    for a, b in zip(got, want):
        assert bits(a.mask_probs) == bits(b.mask_probs)
        assert bits(a.click_class_probs) == bits(b.click_class_probs)


# ---------------------------------------------------------------------------
# batched decoder against the one-query-at-a-time reference
# ---------------------------------------------------------------------------

# (height, width): 1x1 scales everywhere, 1x1 coarse scales with a larger
# embedding, non-square images, and sizes that do not divide evenly
REFERENCE_SIZES = [(1, 1), (3, 5), (4, 4), (7, 30), (31, 31), (32, 32), (40, 13),
                   (64, 64), (65, 96), (128, 72)]


def test_forward_bit_identical_to_reference_sweep():
    rng = rng_stream(14, "test/forward_reference")
    for case in range(40):
        h, w = REFERENCE_SIZES[case % len(REFERENCE_SIZES)]
        n, d, blocks = int(rng.integers(1, 13)), int(rng.integers(1, 17)), int(rng.integers(1, 4))
        params = attention.AttentionParams.initialize(n, d, case)
        image = rng.random((h, w))
        clicks = [ClickRecord(int(rng.integers(0, h)), int(rng.integers(0, w)),
                              bool(rng.random() < 0.7), i + 1)
                  for i in range(int(rng.integers(0, 3)))]
        scales, embed = attention.build_feature_stack(image, clicks, d, case)

        got_records, want_records = [], []
        got = attention.camd_forward(scales, embed, params, blocks, collect=got_records)
        want = reference_camd_forward(scales, embed, params, blocks, collect=want_records)
        assert len(got) == len(want) == n
        for a, b in zip(got, want):
            assert bits(a.mask_probs) == bits(b.mask_probs)
            assert bits(a.click_class_probs) == bits(b.click_class_probs)
        assert len(got_records) == len(want_records) == 3 * blocks
        for a, b in zip(got_records, want_records):
            assert a["layer"] == b["layer"]
            assert bits(a["attn"]) == bits(b["attn"])
            assert bits(a["mask"]) == bits(b["mask"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forward_bit_identical_to_reference_at_benchmark_size(seed):
    # the decode_match workload's sample: 40 queries, dim 16, 3 blocks, one
    # click on a 128x128 image with three ellipses
    sample = synthgen.generate(synthgen.SynthSpec(
        height=128, width=128, n_instances=3, shape_kind="ellipse", seed=seed))
    click = clicksim.first_click(sample.gt_instances[0])
    params = attention.AttentionParams.initialize(40, 16, seed)
    scales, embed = attention.build_feature_stack(sample.feature_map[..., 3], [click], 16, seed)
    got_records, want_records = [], []
    got = attention.camd_forward(scales, embed, params, 3, collect=got_records)
    want = reference_camd_forward(scales, embed, params, 3, collect=want_records)
    assert len(got) == len(want) == 40
    for a, b in zip(got, want):
        assert bits(a.mask_probs) == bits(b.mask_probs)
        assert bits(a.click_class_probs) == bits(b.click_class_probs)
    assert len(got_records) == len(want_records) == 9
    for a, b in zip(got_records, want_records):
        assert bits(a["attn"]) == bits(b["attn"])
        assert bits(a["mask"]) == bits(b["mask"])


def test_attn_mask_wrappers_match_reference_rows():
    rng = rng_stream(15, "test/stack_rows")
    for _ in range(50):
        n, ph, pw, h, w = (int(v) for v in rng.integers(1, 12, size=5))
        preds = rng.random((n, ph, pw)) ** rng.uniform(0.2, 5.0)
        preds[rng.random(n) < 0.3] = 0.1  # all-background rows reset to unmasked
        assert bits(attn_rows(preds, h, w)) == bits(reference_stack_attn_masks(preds, h, w))
        for p, row in zip(preds, reference_stack_attn_masks(preds, ph, pw)):
            assert bits(attn_rows([p], ph, pw)[0]) == bits(row)


def test_click_map_pooled_once_per_scale(monkeypatch):
    calls = []
    real = attention.ndimage.maximum_filter
    monkeypatch.setattr(attention.ndimage, "maximum_filter",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    params = attention.AttentionParams.initialize(4, 8, 16)
    image = rng_stream(16, "test/pool_once").random((64, 64))
    scales, embed = attention.build_feature_stack(image, [ClickRecord(20, 30, True, 1)], 8, 16)
    first = attention.camd_forward(scales, embed, params, 3)
    assert len(calls) == 3  # one per decoder scale, none per layer or for the embedding
    pooled = len(calls)
    again = attention.camd_forward(scales, embed, params, 3)
    assert len(calls) == pooled
    for a, b in zip(first, again):
        assert bits(a.mask_probs) == bits(b.mask_probs)
