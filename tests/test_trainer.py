import warnings

import numpy as np
import pytest

from clicklab import synthgen, trainer
from clicklab.core import ParameterError, TrainingError
from oracles import logit_chain, reference_afl_value, reference_train


def disk_sample(seed=11):
    return synthgen.generate(synthgen.SynthSpec(32, 32, 1, "disk", 0.0, False, seed=seed))


def test_logit_chain_examples():
    half = np.full((2, 2), 0.5)
    np.testing.assert_allclose(
        logit_chain(np.ones((2, 2)), half), np.full((2, 2), 0.25))
    np.testing.assert_allclose(
        logit_chain(np.full((2, 2), 3.0), np.ones((2, 2))), np.zeros((2, 2)))
    np.testing.assert_array_equal(
        logit_chain(np.zeros((2, 2)), half), np.zeros((2, 2)))


def test_config_validation():
    with pytest.raises(ParameterError):
        trainer.TrainConfig(steps=0)
    with pytest.raises(ParameterError):
        trainer.TrainConfig(learning_rate=-0.1)
    with pytest.raises(ParameterError):
        trainer.TrainConfig(optimizer="adamw")
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            trainer.TrainConfig(learning_rate=lr)
    # numpy integers are integers
    _, logs = trainer.train(disk_sample(), trainer.TrainConfig(
        loss="bce", steps=np.int64(2), instance_index=np.int32(0)))
    assert len(logs) == 2


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_one_step_zero_lr_leaves_model_unchanged(optimizer):
    sample = disk_sample()
    cfg = trainer.TrainConfig(loss="bce", steps=1, learning_rate=0.0, optimizer=optimizer)
    model, logs = trainer.train(sample, cfg)
    np.testing.assert_array_equal(model.weights, np.zeros_like(model.weights))
    assert model.bias == 0.0
    assert len(logs) == 1


def test_step_zero_diagnostics_known_in_closed_form():
    # zero weights give probability 0.5 everywhere: gamma_a = 0.5 exactly
    sample = disk_sample()
    _, logs = trainer.train(sample, trainer.TrainConfig(loss="afl", steps=1))
    assert logs[0]["gamma_a"] == pytest.approx(0.5, abs=1e-12)
    assert logs[0]["gamma_d"] == pytest.approx(2.5, abs=1e-12)


def test_training_reaches_high_iou_on_separable_disk():
    sample = disk_sample()
    _, logs = trainer.train(sample, trainer.TrainConfig(loss="afl", steps=200))
    assert logs[-1]["iou"] >= 0.9


def test_same_config_identical_logs():
    sample = disk_sample()
    cfg = trainer.TrainConfig(loss="focal", loss_params={"gamma": 2.0}, steps=25)
    _, a = trainer.train(sample, cfg)
    _, b = trainer.train(sample, cfg)
    assert trainer.format_log_csv(a) == trainer.format_log_csv(b)


def test_log_has_exactly_steps_rows():
    sample = disk_sample()
    _, logs = trainer.train(sample, trainer.TrainConfig(loss="bce", steps=17))
    assert [r["step"] for r in logs] == list(range(1, 18))
    assert all(np.isfinite(r["loss"]) for r in logs)


def test_afl_with_adaptation_off_reproduces_poly_trajectory():
    sample = disk_sample()
    cfg_afl = trainer.TrainConfig(
        loss="afl", loss_params={"ada_enabled": False, "agr_enabled": False}, steps=40)
    cfg_poly = trainer.TrainConfig(
        loss="poly", loss_params={"gamma": 2.0, "alpha": 1.0}, steps=40)
    _, la = trainer.train(sample, cfg_afl)
    _, lp = trainer.train(sample, cfg_poly)
    for ra, rp in zip(la, lp):
        assert abs(ra["loss"] - rp["loss"]) <= 1e-9
        assert ra["iou"] == rp["iou"]


def test_analytic_step_matches_finite_difference_step():
    # total-loss gradient wrt model parameters, adaptive coefficients frozen
    # at their step values
    from clicklab import adaptive

    sample = synthgen.generate(synthgen.SynthSpec(16, 16, 1, "disk", 0.0, False, seed=7))
    gt = sample.gt_instances[0]
    channels = trainer.training_channels(sample, gt)
    theta = np.full(channels.shape[-1] + 1, 0.1)
    params = adaptive.AflParams()

    def probs_at(t):
        return trainer.PixelModel(t[:-1], t[-1]).predict_probs(channels)

    out, diag0 = adaptive.afl(probs_at(theta), gt, params)
    g_z = logit_chain(out.grad_wrt_prob, probs_at(theta))
    analytic = np.append(np.tensordot(channels, g_z, axes=([0, 1], [0, 1])), g_z.sum())

    h = 1e-6
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (
            reference_afl_value(probs_at(up), gt, diag0.gamma_d, diag0.mu, params.alpha)
            - reference_afl_value(probs_at(down), gt, diag0.gamma_d, diag0.mu, params.alpha)
        ) / (2 * h)
    np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-6)


def test_model_json_roundtrip():
    m = trainer.PixelModel(np.array([1.5, -2.0]), 0.25)
    back = trainer.PixelModel.from_json(m.to_json())
    np.testing.assert_array_equal(back.weights, m.weights)
    assert back.bias == m.bias


@pytest.mark.parametrize("obj", ["x", [1, 2]])
def test_model_from_json_names_a_non_object(obj):
    with pytest.raises(ParameterError,
                       match=f"^model must be a JSON object, got {type(obj).__name__}$"):
        trainer.PixelModel.from_json(obj)


SWEPT_LOSSES = [
    ("bce", {}), ("wbce", {}), ("balanced_ce", {"beta": 0.3}), ("soft_iou", {}),
    ("focal", {"gamma": 2.0}), ("nfl", {"gamma": 1.5}),
    ("poly", {"gamma": 0.5, "alpha": 2.0}), ("dice", {}), ("afl", {}),
]


def assert_same_run(got, want):
    (model, logs), (ref_model, ref_logs) = got, want
    assert repr(model.weights.tolist()) == repr(ref_model.weights.tolist())
    assert repr(model.bias) == repr(ref_model.bias)
    assert [[repr(row[c]) for c in trainer.LOG_COLUMNS] for row in logs] == \
        [[repr(row[c]) for c in trainer.LOG_COLUMNS] for row in ref_logs]


@pytest.mark.parametrize("name,params", SWEPT_LOSSES, ids=[n for n, _ in SWEPT_LOSSES])
def test_train_equals_reference_loop_bit_for_bit(name, params):
    # the bound, trusted step loop against the loop of validated loss calls
    for seed in (1, 2, 3):
        sample = synthgen.generate(synthgen.SynthSpec(32, 32, 2, "blob", 1.0, False, seed=seed))
        for optimizer, lr in (("sgd", 0.005), ("adam", 0.5)):
            cfg = trainer.TrainConfig(loss=name, loss_params=params, steps=30, learning_rate=lr,
                                      optimizer=optimizer, instance_index=seed % 2)
            assert_same_run(trainer.train(sample, cfg), reference_train(sample, cfg))


def test_train_equals_reference_loop_at_benchmark_size():
    sample = synthgen.generate(synthgen.SynthSpec(128, 128, 2, "blob", 0.0, False, seed=5))
    cfg = trainer.TrainConfig(loss="afl", steps=500, optimizer="adam")
    assert_same_run(trainer.train(sample, cfg), reference_train(sample, cfg))


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_divergence_is_a_training_error_naming_the_step(optimizer):
    sample = disk_sample()
    cfg = trainer.TrainConfig(loss="afl", steps=5, learning_rate=1e308, optimizer=optimizer)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise instead
        with pytest.raises(TrainingError, match="at step 1"):
            trainer.train(sample, cfg)
