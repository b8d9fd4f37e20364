"""Automated click simulation and the NoC / mIoU@k metrics.

Protocol version 1, pinned so traces stay comparable across builds:

* error regions use 4-connectivity;
* the next click targets the largest error component (ties: larger first,
  then false-negative over false-positive, then smallest (row, col) of the
  component), landing on the interior pixel that maximizes Chebyshev
  distance to the component boundary (image borders count as boundary;
  ties: smallest (row, col));
* the first click is positive, placed the same way inside the ground truth;
* click disks are Euclidean with strict radius (radius 1 = single pixel),
  radius 5 at full resolution;
* simulation stops at the highest threshold or after 20 clicks (a run may
  lower this cap); a threshold never reached scores the cap, flagged failed.

Placing a click labels both error polarities in one call; the sizes, the
winner and its bounding box come from the error pixels alone, and only that
box reaches the distance transform.  ``run_noc`` owns one :class:`ClickSession`
per sample, the clicks and their disk maps; each disk is drawn once, in its
window, when its click is added.  Every predictor implements
``predict(features, session)`` and reads the session's maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import (
    DimensionError,
    ParameterError,
    PerfectPredictionError,
    as_binary_mask,
    binarize,
    check_integer,
    check_same_shape,
    iou,
    rng_stream,
)

PROTOCOL_VERSION = "1"
DEFAULT_MAX_CLICKS = 20
DEFAULT_THRESHOLDS = (0.85, 0.90)
DEFAULT_CLICK_RADIUS = 5.0

_WITHIN_PLANE = np.pad(ndimage.generate_binary_structure(2, 1)[None], ((1, 1), (0, 0), (0, 0)))
_CHESSBOARD = ndimage.generate_binary_structure(2, 2)


@dataclass(frozen=True)
class ClickRecord:
    row: int
    col: int
    positive: bool
    index: int  # 1-based ordinal within the session

    def as_dict(self) -> dict:
        return {"row": self.row, "col": self.col, "positive": self.positive, "index": self.index}


@dataclass
class SimTrace:
    clicks: list
    ious: list
    noc85: int
    noc90: int
    failed85: bool
    failed90: bool
    sample_id: str = ""

    def as_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "clicks": [c.as_dict() for c in self.clicks],
            "ious": [float(v) for v in self.ious],
            "noc85": self.noc85,
            "noc90": self.noc90,
            "failed85": self.failed85,
            "failed90": self.failed90,
        }


# ---------------------------------------------------------------------------
# click placement
# ---------------------------------------------------------------------------

def interior_point(mask: np.ndarray) -> tuple[int, int]:
    """Pixel of ``mask`` maximizing Chebyshev distance to the region boundary.

    The array edge counts as boundary.  Among equidistant pixels the smallest
    (row, col) wins.
    """
    m = as_binary_mask(mask)
    if not m.any():
        raise ParameterError("interior_point needs a nonempty mask")
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = m
    dist = ndimage.distance_transform_cdt(padded, metric=_CHESSBOARD)[1:-1, 1:-1]
    # argmax returns the first maximum in row-major order: the smallest (row, col)
    r, c = np.unravel_index(dist.argmax(), dist.shape)
    return int(r), int(c)


def first_click(gt) -> ClickRecord:
    r, c = interior_point(gt)
    return ClickRecord(r, c, positive=True, index=1)


def next_click(pred, gt, prior=()) -> ClickRecord:
    """Click correcting the largest error component of the prediction.

    False-negative components receive a positive click, false-positive ones
    a negative click.  Placement depends only on the current error map; the
    prior list just supplies the next ordinal.
    """
    p = as_binary_mask(pred)
    y = as_binary_mask(gt)
    check_same_shape(p, y)
    err = np.stack((y > p, p > y))  # false-negative plane, false-positive plane
    pixels = np.flatnonzero(err)
    if pixels.size == 0:
        raise PerfectPredictionError("prediction equals ground truth; no click needed")

    labels = ndimage.label(err, structure=_WITHIN_PLANE)[0].ravel()[pixels]  # per error pixel
    sizes = np.bincount(labels)
    # scipy numbers components in raster order of their first pixels, FN plane
    # first, so argmax (the first largest) breaks ties as protocol 1 does
    plane, rows, cols = np.unravel_index(pixels[labels == sizes.argmax()], err.shape)
    r0, c0 = rows.min(), cols.min()
    # interior_point pads the winner's bounding box with zeros: distances stay as on the full image
    crop = np.zeros((rows.max() - r0 + 1, cols.max() - c0 + 1), dtype=np.uint8)
    crop[rows - r0, cols - c0] = 1
    r, c = interior_point(crop)
    return ClickRecord(int(r + r0), int(c + c0), positive=not plane[0], index=len(prior) + 1)


class ClickSession:
    """The clicks of one session and their positive and negative disk maps.

    Disks are Euclidean with strict radius >= 1; an infinite radius covers
    the whole image.  ``add`` draws only the new click's disk, so a session
    of n clicks draws n disks.
    """

    def __init__(self, h: int, w: int, radius: float = DEFAULT_CLICK_RADIUS):
        if not radius >= 1:
            raise ParameterError(f"radius must be >= 1, got {radius}")
        self.radius = radius
        self.clicks: list[ClickRecord] = []
        self.pos = np.zeros((h, w), dtype=np.float64)
        self.neg = np.zeros((h, w), dtype=np.float64)

    def add(self, click: ClickRecord) -> None:
        h, w = self.pos.shape
        if not (0 <= click.row < h and 0 <= click.col < w):
            raise ParameterError(f"click ({click.row}, {click.col}) outside {h}x{w} image")
        reach = math.ceil(min(self.radius, h + w))  # no disk pixel lies farther along an axis
        r0, c0 = max(click.row - reach, 0), max(click.col - reach, 0)
        rows, cols = np.ogrid[r0:min(click.row + reach + 1, h), c0:min(click.col + reach + 1, w)]
        disk = np.hypot(rows - click.row, cols - click.col) < self.radius
        target = self.pos if click.positive else self.neg
        target[r0:r0 + disk.shape[0], c0:c0 + disk.shape[1]][disk] = 1.0
        self.clicks.append(click)

    def channels(self, features: np.ndarray) -> np.ndarray:
        """The (h, w, c) ``features`` with the positive and negative maps appended."""
        if features.shape[:2] != self.pos.shape:
            raise DimensionError(f"features {features.shape[:2]} != click maps {self.pos.shape}")
        return np.concatenate([features, self.pos[..., None], self.neg[..., None]], axis=-1)


def encode_clicks(clicks, h: int, w: int, radius: float = DEFAULT_CLICK_RADIUS):
    """Disk maps (positive, negative) of ``clicks``, drawn by a ClickSession."""
    session = ClickSession(h, w, radius)
    for click in clicks:
        session.add(click)
    return session.pos, session.neg


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

class OraclePredictor:
    """Returns the ground truth it was built with, whatever the clicks."""

    def __init__(self, gt):
        self.gt = as_binary_mask(gt)

    def predict(self, features, session):
        return self.gt.astype(np.float64)


class ConstantPredictor:
    """Never improves: a flat probability map (default all background)."""

    def __init__(self, shape, value: float = 0.0):
        self.shape = tuple(shape)
        self.value = float(value)

    def predict(self, features, session):
        return np.full(self.shape, self.value, dtype=np.float64)


class NoisyOraclePredictor:
    """Ground truth with a seeded fraction of pixels flipped.

    Flips are re-drawn per click count and never land inside a click disk,
    so accumulated clicks pin down their neighborhoods.
    """

    def __init__(self, gt, error_rate: float, seed: int):
        if not (0.0 <= error_rate <= 1.0):
            raise ParameterError(f"error_rate must be in [0, 1], got {error_rate}")
        check_integer("seed", seed)
        self.gt = as_binary_mask(gt)
        self.error_rate = float(error_rate)
        self.seed = int(seed)

    def predict(self, features, session):
        rng = rng_stream(self.seed, f"clicksim/noisy/{len(session.clicks)}")
        flips = rng.random(self.gt.shape) < self.error_rate
        flips &= (session.pos + session.neg) == 0.0
        return np.where(flips, 1.0 - self.gt, self.gt).astype(np.float64)


class TrainedPredictor:
    """Wraps a model with one weight per stacked channel and
    ``predict_probs(stacked_channels)``; the session's positive and negative
    disk maps are appended to the feature stack."""

    def __init__(self, model):
        self.model = model

    def predict(self, features, session):
        channels = features.shape[-1]
        if len(self.model.weights) != channels + 2:
            raise DimensionError(
                f"model has {len(self.model.weights)} weights, expected {channels} feature "
                "channels + 2 click channels")
        return self.model.predict_probs(session.channels(features))


# ---------------------------------------------------------------------------
# simulation loop and metrics
# ---------------------------------------------------------------------------

def run_noc(predictor, features, gt, max_clicks: int = DEFAULT_MAX_CLICKS,
            sample_id: str = "") -> SimTrace:
    """Click-predict-score loop over one ClickSession; stops at IoU 0.90 or max_clicks <= 20."""
    y = as_binary_mask(gt)
    if not y.any():
        raise ParameterError("ground truth must contain foreground")
    if not (1 <= max_clicks <= DEFAULT_MAX_CLICKS):
        raise ParameterError(f"max_clicks must be in [1, {DEFAULT_MAX_CLICKS}], got {max_clicks}")

    session = ClickSession(*y.shape)
    session.add(first_click(y))
    ious: list[float] = []
    for step in range(1, max_clicks + 1):
        prob = predictor.predict(features, session)
        mask = binarize(prob)
        check_same_shape(mask, y)
        score = iou(mask, y)
        ious.append(score)
        if score >= DEFAULT_THRESHOLDS[1]:
            break
        if step < max_clicks:
            session.add(next_click(mask, y, prior=session.clicks))

    noc85, failed85 = _noc_at(ious, DEFAULT_THRESHOLDS[0], max_clicks)
    noc90, failed90 = _noc_at(ious, DEFAULT_THRESHOLDS[1], max_clicks)
    return SimTrace(session.clicks, ious, noc85, noc90, failed85, failed90, sample_id)


def _noc_at(ious, threshold, max_clicks):
    for idx, v in enumerate(ious, start=1):
        if v >= threshold:
            return idx, False
    return max_clicks, True


def miou_at_k(traces, k: int) -> float:
    """Mean IoU after k clicks; traces that stopped early hold their final IoU."""
    if not traces:
        raise ParameterError("miou_at_k needs at least one trace")
    if not (1 <= k <= DEFAULT_MAX_CLICKS):
        raise ParameterError(f"k must be in [1, {DEFAULT_MAX_CLICKS}], got {k}")
    return float(np.mean([t.ious[min(k, len(t.ious)) - 1] for t in traces]))


def aggregate(traces, max_clicks: int = DEFAULT_MAX_CLICKS) -> dict:
    """NoC means (failures count as the cap) and the mIoU@k table."""
    if not traces:
        raise ParameterError("aggregate needs at least one trace")
    return {
        "samples": len(traces),
        "mean_noc85": float(np.mean([t.noc85 for t in traces])),
        "mean_noc90": float(np.mean([t.noc90 for t in traces])),
        "failed85": sum(t.failed85 for t in traces),
        "failed90": sum(t.failed90 for t in traces),
        "miou_at_k": {str(k): miou_at_k(traces, k)
                      for k in range(1, min(max_clicks, DEFAULT_MAX_CLICKS) + 1)},
    }
