"""Gradient-descent training of a per-pixel logistic model.

The model is linear in the feature channels plus two click-disk channels,
so the loss library supplies the only nontrivial derivatives: the weight
gradient is just the chain through the logistic nonlinearity.  Training
clicks are fixed up front (one positive at the foreground interior point,
one negative at the background interior point), which keeps every run a
deterministic function of (sample, config).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .clicksim import DEFAULT_CLICK_RADIUS, ClickRecord, encode_clicks, interior_point
from .core import ParameterError, TrainingError, binarize, iou
from .losses import make_loss
from .synthgen import SynthSample

LOG_COLUMNS = ("step", "loss", "iou", "gamma_a", "gamma_d", "mu")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class PixelModel:
    weights: np.ndarray  # one per input channel
    bias: float

    def logits(self, channels: np.ndarray) -> np.ndarray:
        return np.tensordot(channels, self.weights, axes=([-1], [0])) + self.bias

    def predict_probs(self, channels: np.ndarray) -> np.ndarray:
        return expit(self.logits(channels))

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": float(self.bias)}

    @classmethod
    def from_json(cls, obj) -> "PixelModel":
        if isinstance(obj, str):
            obj = json.loads(obj)
        try:
            weights = np.asarray(obj["weights"], dtype=np.float64)
            bias = float(obj["bias"])
        except (TypeError, ValueError):
            raise ParameterError("model weights and bias must be numbers") from None
        if weights.ndim != 1 or not np.isfinite(weights).all() or not np.isfinite(bias):
            raise ParameterError("model weights must be a flat list of finite numbers, bias finite")
        return cls(weights, bias)


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "afl"
    loss_params: dict = field(default_factory=dict)
    steps: int = 500
    learning_rate: float = 0.5
    optimizer: str = "adam"
    instance_index: int = 0

    def validate(self) -> "TrainConfig":
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")
        if self.learning_rate < 0.0:
            # 0 is allowed: a no-op run is the cheapest determinism probe
            raise ParameterError("learning_rate must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ParameterError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        return self


def logit_chain(grad_wrt_prob: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Pull a probability-space gradient back to logit space: dL/dz = dL/dp * p(1-p)."""
    p = np.asarray(probs, dtype=np.float64)
    g = np.asarray(grad_wrt_prob, dtype=np.float64)
    if p.shape != g.shape:
        raise ParameterError(f"gradient shape {g.shape} != probability shape {p.shape}")
    return g * p * (1.0 - p)


def training_channels(sample: SynthSample, gt: np.ndarray, radius: float) -> np.ndarray:
    """Feature stack + one positive and one negative training click disk."""
    h, w = gt.shape
    pos_click = ClickRecord(*interior_point(gt), positive=True, index=1)
    bg = (1 - gt).astype(np.uint8)
    clicks = [pos_click]
    if bg.any():
        clicks.append(ClickRecord(*interior_point(bg), positive=False, index=2))
    pos, neg = encode_clicks(clicks, h, w, radius=radius)
    return np.concatenate([sample.feature_map, pos[..., None], neg[..., None]], axis=-1)


def train(sample: SynthSample, config: TrainConfig = TrainConfig()):
    """Train from zero weights; returns ``(model, log_rows)``.

    Zero initialization makes every step-0 probability exactly 0.5, so the
    first logged diagnostics are known in closed form.  The log has one row
    per step, evaluated before that step's update.
    """
    config.validate()
    if not (0 <= config.instance_index < len(sample.gt_instances)):
        raise ParameterError(f"instance_index {config.instance_index} out of range")
    gt = sample.gt_instances[config.instance_index]
    channels = training_channels(sample, gt, DEFAULT_CLICK_RADIUS)
    loss_fn = make_loss(config.loss, **config.loss_params)

    n_params = channels.shape[-1] + 1
    theta = np.zeros(n_params)
    m = np.zeros(n_params)
    v = np.zeros(n_params)
    logs = []

    for step in range(1, config.steps + 1):
        model = PixelModel(theta[:-1], theta[-1])
        probs = model.predict_probs(channels)
        out = loss_fn(probs, gt)
        if not np.isfinite(out.value):
            raise TrainingError(f"non-finite loss at step {step}")
        g_z = logit_chain(out.grad_wrt_prob, probs)
        grad = np.append(
            np.tensordot(channels, g_z, axes=([0, 1], [0, 1])), g_z.sum())

        diag = out.diagnostics
        logs.append({
            "step": step,
            "loss": out.value,
            "iou": iou(binarize(probs, 0.5), gt),
            "gamma_a": diag.get("gamma_a", float("nan")),
            "gamma_d": diag.get("gamma_d", float("nan")),
            "mu": diag.get("mu", float("nan")),
        })

        if config.optimizer == "sgd":
            theta = theta - config.learning_rate * grad
        else:
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1 ** step)
            v_hat = v / (1.0 - ADAM_BETA2 ** step)
            theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    return PixelModel(theta[:-1], theta[-1]), logs


def compare_losses(sample: SynthSample, loss_specs, config: TrainConfig = TrainConfig(),
                   out_dir: str | None = None):
    """Train one model per loss from the same initialization.

    ``loss_specs`` is a list of ``(name, params)`` pairs or bare names.
    Returns comparison rows; optionally writes one loss-curve CSV per entry.
    """
    rows = []
    for entry in loss_specs:
        name, params = entry if isinstance(entry, tuple) else (entry, {})
        model, logs = train(sample, replace(config, loss=name, loss_params=params))
        label = name if not params else f"{name}({','.join(f'{k}={v}' for k, v in sorted(params.items()))})"
        rows.append({
            "label": label,
            "final_loss": logs[-1]["loss"],
            "final_iou": logs[-1]["iou"],
            "model": model,
            "log": logs,
        })
        if out_dir is not None:
            from .fileio import atomic_write_text

            safe = label.replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
            atomic_write_text(f"{out_dir}/curve_{safe}.csv", format_log_csv(logs))
    return rows


def format_log_csv(logs) -> str:
    lines = [",".join(LOG_COLUMNS)]
    for row in logs:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in LOG_COLUMNS))
    return "\n".join(lines) + "\n"
