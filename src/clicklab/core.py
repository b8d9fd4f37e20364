"""Dense pixel-field primitives shared by every other module.

A mask or probability map is a plain 2-D float64/int ndarray; the validators
here are the single place where shape and range contracts are enforced.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

DEFAULT_EPS_CLIP = 1e-7


class ClickLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ClickLabError):
    """Field shapes are inconsistent or a field is empty."""


class ParameterError(ClickLabError):
    """A scalar parameter or input value is outside its allowed range."""


class DomainError(ClickLabError):
    """An input lies outside the mathematical domain of the operation."""


class GenerationError(ClickLabError):
    """Synthetic-sample construction failed after bounded retries."""


class TrainingError(ClickLabError):
    """Training diverged (a non-finite probability, loss or model parameter)."""


class PerfectPredictionError(ClickLabError):
    """Signals that prediction equals ground truth: nothing to correct."""


# ---------------------------------------------------------------------------
# field validation
# ---------------------------------------------------------------------------

def as_binary_mask(mask) -> np.ndarray:
    """Validate and return a 2-D {0,1} integer mask."""
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError(f"binary mask must be a nonempty 2-D field, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ParameterError(
            f"binary mask may contain only 0 and 1, found values {np.unique(arr)[:8]}")
    return arr.astype(np.uint8, copy=False)


def as_prob_map(prob) -> np.ndarray:
    """Validate and return a C-contiguous 2-D float64 probability field in [0, 1].

    numpy sums other layouts in another order, so a map gathered along its
    last axis would score differently in the last bit from its copy."""
    arr = np.asarray(prob, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError(f"probability map must be a nonempty 2-D field, got shape {arr.shape}")
    lo, hi = arr.min(), arr.max()
    if not (lo >= 0.0 and hi <= 1.0):  # NaN fails both comparisons
        if not np.isfinite(arr).all():
            raise ParameterError("probability map contains non-finite values")
        raise ParameterError(f"probabilities must lie in [0, 1], found range [{lo}, {hi}]")
    return np.ascontiguousarray(arr)


def as_prob_stack(stack, shape: tuple) -> np.ndarray:
    """Validate and return a C-contiguous (K, *shape) float64 stack of probability maps."""
    arr = np.ascontiguousarray(stack, dtype=np.float64)
    if arr.ndim != 3 or arr.size == 0 or arr.shape[1:] != tuple(shape):
        raise DimensionError(f"expected a nonempty (K, *{tuple(shape)}) stack, got shape {arr.shape}")
    as_prob_map(arr.reshape(-1, arr.shape[-1]))  # nonempty, finite, in [0, 1]
    return arr


def check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"field shapes differ: {a.shape} vs {b.shape}")


def check_integers(owner, *names: str) -> None:
    for name in names:
        check_integer(name, getattr(owner, name))


def check_integer(name: str, value) -> None:
    # an integer as operator.index takes it, but not a bool
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def check_nonnegative(name: str, value: float) -> float:
    """A finite number >= 0; NaN and the infinities are rejected."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{name} must be finite and >= 0, got {value}")
    return value


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pt_map(pred, gt) -> np.ndarray:
    """Per-pixel true-class confidence: p where gt=1, 1-p where gt=0.

    The result is clamped from below at ``DEFAULT_EPS_CLIP`` so that log(pt)
    stays finite.  Only the lower end is clamped; pt = 1 is benign everywhere.
    """
    p = as_prob_map(pred)
    y = as_binary_mask(gt)
    check_same_shape(p, y)
    return _pt_kernel(p, y)


def _pt_kernel(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``pt_map`` of trusted arrays; ``p`` and ``y`` may broadcast."""
    return np.maximum(np.where(y == 1, p, 1.0 - p), DEFAULT_EPS_CLIP)


def iou(pred_mask, gt) -> float:
    """Intersection over union of two binary masks; 1.0 when both are empty."""
    a = as_binary_mask(pred_mask)
    b = as_binary_mask(gt)
    check_same_shape(a, b)
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return inter / union


def binarize(pred) -> np.ndarray:
    """Threshold a probability map at 0.5, inclusively (p >= 0.5 -> 1)."""
    return (as_prob_map(pred) >= 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------
#
# Stream-split rule: every consumer derives its generator from a 64-bit seed
# plus a string label ("module/purpose").  The label is hashed with SHA-256
# into the second Philox key word, so distinct labels give independent
# counter-based streams and the same (seed, label) pair is bit-reproducible.

def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Counter-based generator for the given integer seed and stream label."""
    check_integer("seed", seed)
    if not (0 <= seed < 2 ** 64):
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    label_word = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(key=np.array([seed, label_word], dtype=np.uint64)))
