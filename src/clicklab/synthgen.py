"""Seeded synthetic segmentation problems at desk scale.

A sample is one or more rasterized shapes (disk, ellipse, or wobbly blob)
on an empty canvas plus a per-pixel feature stack:

    channel 0  row / height
    channel 1  col / width
    channel 2  distance to the image center, normalized by the half diagonal
    channel 3  intensity: sum of instance masks / n_instances, plus optional
               seeded noise (std 0.05 * boundary_noise), clipped to [0, 1]

With ``boundary_noise=0`` the intensity channel is an exact indicator, so a
linear pixel model can separate the shape by construction.  ``nesting``
places the second instance strictly inside the first, the ambiguous case a
multi-mask matcher has to disambiguate.

Each placement try is rasterized only in the square window that can hold
its shape, of half-side 1 + radius + √2·noise (|jitter| <= √2·noise), with
1.6·radius for a blob (wobble <= 0.6·radius) and 2√2·noise for an ellipse.
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .core import GenerationError, ParameterError, check_integers, rng_stream

SHAPE_KINDS = ("disk", "ellipse", "blob")
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}  # by field annotation
MAX_PLACEMENT_TRIES = 200


@dataclass(frozen=True)
class SynthSpec:
    height: int = 64
    width: int = 64
    n_instances: int = 1
    shape_kind: str = "disk"
    boundary_noise: float = 0.0
    nesting: bool = False
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "height", "width", "n_instances", "seed")
        if self.height < 16 or self.width < 16:
            raise ParameterError("canvas must be at least 16x16")
        if self.n_instances < 1:
            raise ParameterError("n_instances must be >= 1")
        if self.shape_kind not in SHAPE_KINDS:
            raise ParameterError(f"shape_kind must be one of {SHAPE_KINDS}")
        noise = self.boundary_noise  # a real number, but not a bool
        if isinstance(noise, bool) or not (isinstance(noise, numbers.Real) and 0.0 <= noise < np.inf):
            raise ParameterError(f"boundary_noise must be finite and >= 0, got {noise!r}")
        if not isinstance(self.nesting, bool):
            raise ParameterError(f"nesting must be a bool, got {self.nesting!r}")
        if self.nesting and self.n_instances < 2:
            raise ParameterError("nesting requires n_instances >= 2")

    def to_json(self) -> dict:
        """The fields as JSON types.  An integer field may hold a numpy integer
        and ``boundary_noise`` any real number; a Python int or float is kept."""
        obj = {f.name: operator.index(getattr(self, f.name)) if f.type == "int"
               else getattr(self, f.name) for f in dataclasses.fields(self)}
        if type(self.boundary_noise) not in (int, float):
            obj["boundary_noise"] = float(self.boundary_noise)
        return obj

    @classmethod
    def from_json(cls, obj) -> "SynthSpec":
        if not isinstance(obj, dict):
            raise ParameterError(f"spec must be a JSON object, got {type(obj).__name__}")
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        extra = set(obj) - set(kinds)
        if extra:
            raise ParameterError(f"unknown spec fields: {sorted(extra)}")
        for name, value in obj.items():
            # bool is an int subclass, so it needs its own test both ways
            if (not isinstance(value, _JSON_TYPES[kinds[name]])
                    or isinstance(value, bool) != (kinds[name] == "bool")):
                raise ParameterError(f"spec field {name!r} must be {kinds[name]}, got {value!r}")
        return cls(**obj)


@dataclass
class SynthSample:
    feature_map: np.ndarray      # (H, W, 4)
    gt_instances: list           # binary masks
    spec: SynthSpec


def _raster_shape(rows, cols, kind, center, radius, rng, boundary_noise):
    """Rasterize one shape on the canvas's pixel coordinates ``rows, cols``, only in
    its window (see the module notes); jitter perturbs the boundary radius by angle."""
    reach = ((1.6 if kind == "blob" else 1.0) * radius + 1.0
             + (2.0 if kind == "ellipse" else 1.0) * np.sqrt(2.0) * boundary_noise)
    window = tuple(slice(max(int(c - reach), 0), int(c + reach) + 1) for c in center)
    dy = rows[window] - center[0]
    dx = cols[window] - center[1]
    theta = np.arctan2(dy, dx)

    jitter = np.zeros_like(theta)
    if boundary_noise > 0.0:
        for k in (1, 2, 3):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            jitter += a * np.cos(k * theta) + b * np.sin(k * theta)
        jitter *= boundary_noise / 3.0

    mask = np.zeros(rows.shape, dtype=np.uint8)
    if kind == "disk":
        mask[window] = np.hypot(dy, dx) <= radius + jitter
    elif kind == "ellipse":
        ratio = rng.uniform(0.5, 0.9)
        phi = rng.uniform(0.0, np.pi)
        a_ax, b_ax = radius, radius * ratio
        xr = dx * np.cos(phi) + dy * np.sin(phi)
        yr = -dx * np.sin(phi) + dy * np.cos(phi)
        rho = np.sqrt((xr / a_ax) ** 2 + (yr / b_ax) ** 2)
        mask[window] = rho <= 1.0 + jitter / b_ax
    else:  # blob: disk with low-order harmonic wobble on top of the jitter
        amp = rng.uniform(0.05, 0.2, size=3)
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        wobble = sum(amp[k] * np.cos((k + 2) * theta + phase[k]) for k in range(3))
        mask[window] = np.hypot(dy, dx) <= radius * (1.0 + wobble) + jitter
    return mask


def generate(spec: SynthSpec) -> SynthSample:
    """Deterministic sample for the given spec; same seed, same sample."""
    h, w = spec.height, spec.width
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    rng = rng_stream(spec.seed, "synthgen/generate")
    short = min(h, w)

    masks: list[np.ndarray] = []
    for idx in range(spec.n_instances):
        if spec.nesting and idx == 1:
            masks.append(_nested_inner(masks[0], rows, cols))
            continue
        placed = False
        for _ in range(MAX_PLACEMENT_TRIES):
            radius = rng.uniform(short / 8.0, short / 4.0)
            margin = radius * 1.3 + spec.boundary_noise + 2.0
            if 2 * margin >= min(h, w):
                continue
            center = (rng.uniform(margin, h - margin), rng.uniform(margin, w - margin))
            mask = _raster_shape(rows, cols, spec.shape_kind, center, radius, rng,
                                 spec.boundary_noise)
            if mask.sum() == 0 or any((mask & m).any() for m in masks):
                continue
            masks.append(mask)
            placed = True
            break
        if not placed:
            raise GenerationError(
                f"could not place instance {idx} after {MAX_PLACEMENT_TRIES} tries")

    half_diag = np.hypot(h / 2.0, w / 2.0)
    dist = np.hypot(rows - (h - 1) / 2.0, cols - (w - 1) / 2.0) / half_diag
    intensity = sum(m.astype(np.float64) for m in masks) / spec.n_instances
    if spec.boundary_noise > 0.0:
        intensity = intensity + rng.normal(0.0, 0.05 * spec.boundary_noise, size=(h, w))
    features = np.stack(
        [rows / h, cols / w, np.clip(dist, 0.0, 1.0), np.clip(intensity, 0.0, 1.0)],
        axis=-1,
    )
    return SynthSample(features, masks, spec)


def _nested_inner(outer: np.ndarray, rows, cols) -> np.ndarray:
    """A disk strictly inside the outer mask, centered at its centroid."""
    ys, xs = np.nonzero(outer)
    cy, cx = float(ys.mean()), float(xs.mean())
    # radial clearance from the centroid to the nearest background pixel
    # bounds any centered disk that stays strictly inside
    boundary_min = _min_boundary_radius(outer, cy, cx)
    radius = max(1.5, 0.45 * boundary_min)
    if radius >= boundary_min:
        radius = boundary_min - 1.0
    inner = (np.hypot(rows - cy, cols - cx) <= radius).astype(np.uint8)
    if inner.sum() == 0 or not (inner <= outer).all() or inner.sum() == outer.sum():
        raise GenerationError("nested inner shape does not fit strictly inside the outer shape")
    return inner


def _min_boundary_radius(mask: np.ndarray, cy: float, cx: float) -> float:
    """Distance from (cy, cx) to the nearest background pixel."""
    ys, xs = np.nonzero(mask == 0)
    if ys.size == 0:
        return float(min(mask.shape)) / 2.0
    return float(np.hypot(ys - cy, xs - cx).min())
