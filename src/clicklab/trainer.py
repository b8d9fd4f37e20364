"""Gradient-descent training of a per-pixel logistic model.

The model is linear in the feature channels plus two click-disk channels,
so the loss library supplies the only nontrivial derivatives: the weight
gradient is just the chain through the logistic nonlinearity.  Training
clicks are fixed up front (one positive at the foreground interior point,
one negative at the background interior point), which keeps every run a
deterministic function of (sample, config).

``train`` builds the loss, whose parameters ``make_loss`` checks, validates
the ground truth once and binds the loss to it; the config was checked when
it was built.  Each step runs trusted kernels, with one finiteness check
each of the probabilities, the loss and the updated parameters; a failed
check is divergence at that step.  The model and log equal those of a loop
of validated loss calls bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .clicksim import ClickRecord, ClickSession, first_click, interior_point
from .core import ParameterError, TrainingError, check_integers, check_nonnegative
from .losses import Target, make_loss
from .synthgen import SynthSample

LOG_COLUMNS = ("step", "loss", "iou", "gamma_a", "gamma_d", "mu")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class PixelModel:
    weights: np.ndarray  # one per input channel
    bias: float

    def predict_probs(self, channels: np.ndarray) -> np.ndarray:
        return expit(np.tensordot(channels, self.weights, axes=([-1], [0])) + self.bias)

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": float(self.bias)}

    @classmethod
    def from_json(cls, obj) -> "PixelModel":
        if not isinstance(obj, dict):
            raise ParameterError(f"model must be a JSON object, got {type(obj).__name__}")
        weights, bias = obj["weights"], obj["bias"]
        # float() and numpy take a JSON true/false as 1.0/0.0
        if isinstance(bias, bool) or (isinstance(weights, list)
                                      and any(isinstance(v, bool) for v in weights)):
            raise ParameterError("model weights and bias must be numbers, not true or false")
        try:
            weights = np.asarray(weights, dtype=np.float64)
            bias = float(bias)
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

    def __post_init__(self):
        check_integers(self, "steps", "instance_index")
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")
        # 0 is allowed: a no-op run is the cheapest determinism probe
        check_nonnegative("learning_rate", self.learning_rate)
        if self.optimizer not in ("sgd", "adam"):
            raise ParameterError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        make_loss(self.loss, **self.loss_params)  # checks the loss name and parameters


def training_channels(sample: SynthSample, gt: np.ndarray) -> np.ndarray:
    """Feature stack + one positive and one negative training click disk."""
    session = ClickSession(*gt.shape)
    session.add(first_click(gt))
    bg = (1 - gt).astype(np.uint8)
    if bg.any():
        session.add(ClickRecord(*interior_point(bg), positive=False, index=2))
    return session.channels(sample.feature_map)


def train(sample: SynthSample, config: TrainConfig = TrainConfig()):
    """Train from zero weights; returns ``(model, log_rows)``.

    Zero initialization makes every step-0 probability exactly 0.5, so the
    first logged diagnostics are known in closed form.  The log has one row
    per step, evaluated before that step's update.
    """
    if not (0 <= config.instance_index < len(sample.gt_instances)):
        raise ParameterError(f"instance_index {config.instance_index} out of range")
    gt = sample.gt_instances[config.instance_index]
    channels = training_channels(sample, gt)
    target = Target(gt)
    loss_step = make_loss(config.loss, **config.loss_params).bind(target)

    c = channels.shape[-1]
    # the weight gradient's operand is the strided (c, h*w) view np.tensordot
    # builds (a contiguous copy of it changes BLAS's summation order)
    by_channel = channels.transpose(2, 0, 1).reshape(c, -1)
    theta = np.zeros(c + 1)
    m = np.zeros(c + 1)
    v = np.zeros(c + 1)
    grad = np.empty(c + 1)
    logs = []

    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked explicitly
        for step in range(1, config.steps + 1):
            probs = PixelModel(theta[:-1], theta[-1]).predict_probs(channels)
            if not np.isfinite(probs).all():
                raise TrainingError(f"training diverged at step {step}: non-finite probabilities")
            value, g_z, diag = loss_step(probs)
            if not np.isfinite(value):
                raise TrainingError(f"training diverged at step {step}: non-finite loss")
            g_z *= probs
            g_z *= 1.0 - probs  # dL/dz = dL/dp * p * (1-p)
            grad[:-1] = np.dot(by_channel, g_z.reshape(-1, 1)).ravel()
            grad[-1] = g_z.sum()

            positive = probs >= 0.5
            union = int(np.count_nonzero(positive | target.fg))
            logs.append({
                "step": step,
                "loss": value,
                "iou": int(np.count_nonzero(positive & target.fg)) / union if union else 1.0,
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
            if not np.isfinite(theta).all():
                raise TrainingError(f"training diverged at step {step}: non-finite model parameters")

    return PixelModel(theta[:-1], theta[-1]), logs


def format_log_csv(logs) -> str:
    lines = [",".join(LOG_COLUMNS)]
    for row in logs:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in LOG_COLUMNS))
    return "\n".join(lines) + "\n"
