"""Toy clicks-aware masked-attention decoder.

Deterministic, numpy-only machinery for testing masking semantics and
click-to-query information flow.  One block applies, in order:

1. clicks-aware masked cross-attention over a scale's pixel features:
   ``x <- softmax(psi + Q K^T) V + x`` where ``psi`` is the click-attention
   matrix and masked positions are -inf (exactly zero weight after softmax);
2. self-attention over the queries (same projections);
3. a two-layer feed-forward update.

``psi`` is built from the scale's click map: a 3x3 max pool (taken on the
first read, once per ScaleFeatures), a bias-free linear lift to the feature
dimension, a product with the rectified queries, and an elementwise affine
map.  Attention masks come from binarizing each query's current mask
prediction at 0.5; a fully masked row is reset to unmasked before softmax,
which keeps every row a valid distribution.

A forward pass cycles the blocks over three coarse-to-fine scales.  As in
Mask2Former the per-layer state is plain arrays: the (N, d) queries and the
N mask logits as one (N, h*w) array.  A layer computes the logits only at
the pixel-embedding rows that the nearest-neighbour resize to its scale
keeps (gathered once per forward and scale), and thresholds them without
the logistic: ``expit(z) >= 0.5`` is ``z >= 0`` except just below 0, where
``expit`` is evaluated because it rounds to 0.5.  Only the final heads apply
the logistic to the full (N, h, w) stack, and their masks and click-class
probabilities become InstancePredictions, validated once as a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import ndimage
from scipy.special import expit

from .clicksim import DEFAULT_CLICK_RADIUS, encode_clicks
from .core import ClickLabError, DimensionError, ParameterError, check_integer, rng_stream
from .matching import InstancePrediction

_SCALE_FRACTIONS = (32, 16, 8)  # coarse-to-fine denominators; pixel embed at 1/4
_EMBED_FRACTION = 4


@dataclass
class ScaleFeatures:
    features: np.ndarray   # (h*w, d)
    click_map: np.ndarray  # (h, w), positive disks +1, negative -1
    h: int
    w: int

    def __post_init__(self):
        if self.features.shape[0] != self.h * self.w:
            raise DimensionError(
                f"features rows {self.features.shape[0]} != h*w = {self.h * self.w}")
        if self.click_map.shape != (self.h, self.w):
            raise DimensionError(
                f"click map shape {self.click_map.shape} != ({self.h}, {self.w})")

    @cached_property
    def pooled(self) -> np.ndarray:
        """(h*w, 1) 3x3 max pool of the click map, taken on first read."""
        return ndimage.maximum_filter(
            self.click_map, size=3, mode="constant", cval=0.0).reshape(-1, 1)


@dataclass
class AttentionParams:
    dim: int
    f_q: np.ndarray        # (d, d)
    f_k: np.ndarray        # (d, d)
    f_v: np.ndarray        # (d, d)
    omega_f: np.ndarray    # (d,) bias-free linear lift of the pooled click map
    psi_scale: float
    psi_bias: float
    mask_head: list        # three (W, b) layers, d -> d
    click_head: np.ndarray  # (d, 2)
    click_bias: np.ndarray  # (2,)
    ffn_w1: np.ndarray     # (d, 2d)
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray     # (2d, d)
    ffn_b2: np.ndarray
    x0: np.ndarray         # (N, d) initial query features

    @classmethod
    def initialize(cls, n_queries: int = 10, dim: int = 16, seed: int = 0) -> "AttentionParams":
        """All weights seeded uniform in [-1/sqrt(d), 1/sqrt(d)]."""
        check_integer("n_queries", n_queries)
        check_integer("dim", dim)
        if n_queries < 1 or dim < 1:
            raise ParameterError("n_queries and dim must be >= 1")
        bound = 1.0 / np.sqrt(dim)

        def u(label, *shape):
            return rng_stream(seed, f"attention/params/{label}").uniform(-bound, bound, size=shape)

        return cls(
            dim=dim,
            f_q=u("f_q", dim, dim),
            f_k=u("f_k", dim, dim),
            f_v=u("f_v", dim, dim),
            omega_f=u("omega_f", dim),
            psi_scale=float(u("psi_scale")),
            psi_bias=float(u("psi_bias")),
            mask_head=[(u(f"mask_head_w{i}", dim, dim), u(f"mask_head_b{i}", dim))
                       for i in range(3)],
            click_head=u("click_head", dim, 2),
            click_bias=u("click_bias", 2),
            ffn_w1=u("ffn_w1", dim, 2 * dim),
            ffn_b1=u("ffn_b1", 2 * dim),
            ffn_w2=u("ffn_w2", 2 * dim, dim),
            ffn_b2=u("ffn_b2", dim),
            x0=u("x0", n_queries, dim),
        )


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def resize_nearest(arr: np.ndarray, h: int, w: int) -> np.ndarray:
    """Nearest-neighbour resize of the last two axes to h x w (one fancy index)."""
    rows = np.arange(h) * arr.shape[-2] // h
    cols = np.arange(w) * arr.shape[-1] // w
    return arr[..., rows[:, None], cols]


# below this logit expit(z) < 0.5; on [-3.33e-16, 0) it rounds to 0.5
_NEAR_ZERO_LOGIT = -1e-12


def _logit_fg(logits: np.ndarray) -> np.ndarray:
    """``binarize(expit(logits))`` as booleans, for every float64: the
    logistic is evaluated only on the few logits just below 0.  A NaN raises
    the ``ParameterError`` of ``binarize``."""
    if np.isnan(logits).any():
        raise ParameterError("probability map contains non-finite values")
    fg = logits >= 0.0
    near = (logits > _NEAR_ZERO_LOGIT) & ~fg
    if near.any():
        fg[near] = expit(logits[near]) >= 0.5
    return fg


def _attn_rows(fg: np.ndarray) -> np.ndarray:
    """(N, h*w) {0, -inf} rows, 0 where an (N, h*w) foreground stack is set.
    An all-background row would mask everything, so it is reset to all-0
    (unmasked) to keep the softmax well defined."""
    mask = np.where(fg, 0.0, -np.inf)
    mask[~fg.any(axis=1)] = 0.0
    return mask


def click_attention_matrix(scale: ScaleFeatures, queries: np.ndarray,
                           params: AttentionParams, attn_mask: np.ndarray) -> np.ndarray:
    """psi = affine( pooled-click lift  x  rectified queries ), then masked.

    A zero click map or fully negative queries give a constant pre-mask
    field (the affine image of zero); masked positions become -inf.
    """
    if queries.shape[1] != params.dim:
        raise DimensionError(f"queries dim {queries.shape[1]} != {params.dim}")
    if attn_mask.shape != (queries.shape[0], scale.h * scale.w):
        raise DimensionError(
            f"attn_mask shape {attn_mask.shape} != ({queries.shape[0]}, {scale.h * scale.w})")
    lifted = scale.pooled * params.omega_f.reshape(1, -1)  # (hw, d)
    raw = np.maximum(queries, 0.0) @ lifted.T                       # (N, hw)
    psi = params.psi_scale * raw + params.psi_bias
    return np.where(np.isneginf(attn_mask), -np.inf, psi)


def masked_softmax(scores: np.ndarray) -> np.ndarray:
    """Row softmax where -inf entries get exactly zero weight."""
    top = scores.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():
        raise ClickLabError("internal: attention row with every position masked")
    weights = np.exp(scores - top)
    return weights / weights.sum(axis=1, keepdims=True)


def masked_cross_attention(x, psi, q, k, v, need_weights: bool = False):
    """softmax(psi + Q K^T) V plus the residual input; ``(out, weights)``
    with ``need_weights``."""
    weights = masked_softmax(psi + q @ k.T)
    out = weights @ v + x
    return (out, weights) if need_weights else out


def camd_layer(x: np.ndarray, attn_mask: np.ndarray, scale: ScaleFeatures,
               params: AttentionParams, collect: list | None = None) -> np.ndarray:
    """One decoder block on the (N, d) queries under an (N, h*w) {0, -inf}
    mask: clicks-aware cross-attention, self-attention, FFN."""
    q = x @ params.f_q
    psi = click_attention_matrix(scale, q, params, attn_mask)
    x, attn = masked_cross_attention(
        x, psi, q, scale.features @ params.f_k, scale.features @ params.f_v, need_weights=True)
    if collect is not None:
        collect.append({"attn": attn, "mask": attn_mask, "layer": len(collect)})

    x = masked_cross_attention(x, 0.0, x @ params.f_q, x @ params.f_k, x @ params.f_v)
    x = np.maximum(x @ params.ffn_w1 + params.ffn_b1, 0.0) @ params.ffn_w2 + params.ffn_b2 + x
    if not np.isfinite(x).all():
        raise ClickLabError("internal: non-finite query features after decoder block")
    return x


def _mask_embed(x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """(N, d) query embedding (3-layer MLP); its product with pixel
    embedding rows gives the mask logits."""
    h = x
    for i, (w_i, b_i) in enumerate(params.mask_head):
        h = h @ w_i + b_i
        if i < len(params.mask_head) - 1:
            h = np.maximum(h, 0.0)
    return h


def predict_heads(x: np.ndarray, pixel_embed: ScaleFeatures,
                  params: AttentionParams) -> list[InstancePrediction]:
    """Per-query mask probabilities and click-class probabilities.

    The logistic of the full (N, h, w) logit stack and the (N, 2) class
    pairs are validated once, by ``InstancePrediction.stack``.  Zero weights
    give logistic(0) = 0.5 everywhere and a uniform class pair.
    """
    logits = _mask_embed(x, params) @ pixel_embed.features.T
    probs = expit(logits.reshape(-1, pixel_embed.h, pixel_embed.w))
    cls_probs = masked_softmax(x @ params.click_head + params.click_bias)
    return InstancePrediction.stack(probs, cls_probs)


def camd_forward(scales, pixel_embed: ScaleFeatures, params: AttentionParams,
                 blocks: int, collect: list | None = None) -> list[InstancePrediction]:
    """Cycle the decoder block over the scales ``blocks`` times.

    The attention mask for each layer is recomputed from the current mask
    predictions (resized to that scale); the very first mask comes from the
    initial query features before any decoding.  A layer computes the mask
    logits only at the pixels the nearest-neighbour resize to its scale
    keeps, and thresholds them without the logistic.
    """
    check_integer("blocks", blocks)
    if blocks < 1:
        raise ParameterError("blocks must be >= 1")
    if len(scales) != 3:
        raise ParameterError(f"expected 3 scale feature sets, got {len(scales)}")
    pixels = np.arange(pixel_embed.h * pixel_embed.w).reshape(pixel_embed.h, pixel_embed.w)
    # per scale, the (d, h*w) pixel embedding rows that the resize keeps
    readouts = [pixel_embed.features[resize_nearest(pixels, s.h, s.w).ravel()].T for s in scales]
    x = params.x0.copy()
    for layer in range(3 * blocks):
        logits = _mask_embed(x, params) @ readouts[layer % 3]
        x = camd_layer(x, _attn_rows(_logit_fg(logits)), scales[layer % 3], params, collect)
    return predict_heads(x, pixel_embed, params)


# ---------------------------------------------------------------------------
# toy feature stack (stand-in for the multi-scale pixel decoder)
# ---------------------------------------------------------------------------

def build_feature_stack(image: np.ndarray, clicks, dim: int, seed: int):
    """Seeded random projections of the click-augmented image at 4 scales.

    Returns ``(scales, pixel_embed)`` where scales run coarse to fine at
    1/32, 1/16 and 1/8 of the image and the pixel embedding sits at 1/4.
    Per-pixel channels are (intensity, positive clicks, negative clicks,
    row fraction, col fraction), lifted to ``dim`` by one random matrix per
    scale; click disks of the default radius shrink with the scale ratio.
    """
    check_integer("dim", dim)
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise DimensionError("image must be a nonempty 2-D array")
    if not np.isfinite(img).all():
        raise ParameterError("image contains non-finite values")
    full_h, full_w = img.shape

    def at_scale(denom, label):
        h = max(1, full_h // denom)
        w = max(1, full_w // denom)
        scaled_clicks = [
            replace(c, row=min(h - 1, c.row * h // full_h), col=min(w - 1, c.col * w // full_w))
            for c in clicks
        ]
        r = max(1.0, DEFAULT_CLICK_RADIUS * h / full_h)
        pos, neg = encode_clicks(scaled_clicks, h, w, radius=r)
        small = resize_nearest(img, h, w)
        rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
        channels = np.stack(
            [small, pos, neg, rows / h, cols / w], axis=-1).reshape(-1, 5)
        proj = rng_stream(seed, f"attention/stack/{label}").uniform(
            -1.0 / np.sqrt(5), 1.0 / np.sqrt(5), size=(5, dim))
        return ScaleFeatures(channels @ proj, pos - neg, h, w)

    scales = [at_scale(d, f"scale{i}") for i, d in enumerate(_SCALE_FRACTIONS)]
    pixel_embed = at_scale(_EMBED_FRACTION, "embed")
    return scales, pixel_embed
