import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import clicklab
from clicklab import cli
from clicklab.cli import build_parser, main
from clicklab.fileio import read_pm, write_pgm, write_pm
from clicklab.losses import _LOSS_PARAMS, grad_stats, make_loss
from oracles import reference_identity_check


@pytest.fixture()
def oracle_pair(tmp_path):
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    pred_path = str(tmp_path / "pred.pm")
    gt_path = str(tmp_path / "gt.pgm")
    write_pm(pred_path, gt.astype(float))
    write_pgm(gt_path, gt)
    return pred_path, gt_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_loss_eval_oracle_pair_is_zero(capsys, oracle_pair):
    pred, gt = oracle_pair
    code, report = run_cli(capsys, "loss", "eval", "--pred", pred, "--gt", gt, "--loss", "bce")
    assert code == 0
    assert report["results"]["value"] == 0.0
    assert report["versions"]["protocol_version"] == "1"


def test_loss_eval_worked_afl_single_pixel(capsys, tmp_path):
    write_pm(str(tmp_path / "p.pm"), np.array([[0.5]]))
    write_pgm(str(tmp_path / "g.pgm"), np.array([[1]], dtype=np.uint8))
    code, report = run_cli(
        capsys, "loss", "eval", "--pred", str(tmp_path / "p.pm"),
        "--gt", str(tmp_path / "g.pgm"), "--loss", "afl",
        "--gamma", "2.0", "--alpha", "1.0", "--delta", "0.4")
    assert code == 0
    assert report["results"]["value"] == pytest.approx(0.4349619, abs=1e-6)
    assert report["results"]["diagnostics"]["gamma_a"] == pytest.approx(0.5)


# flags for every loss make_loss builds, none at its default
EVAL_FLAGS = {
    "bce": {}, "wbce": {"beta": 2.5}, "balanced_ce": {"beta": 0.3}, "soft_iou": {},
    "focal": {"gamma": 1.5}, "nfl": {"gamma": 2.5}, "poly": {"gamma": 1.5, "alpha": 0.5},
    "dice": {"smooth": 0.5}, "afl": {"gamma": 1.5, "alpha": 0.5, "delta": 0.3},
}


@pytest.mark.parametrize("name", list(_LOSS_PARAMS))
def test_loss_eval_equals_make_loss_for_every_loss(capsys, tmp_path, name):
    rng = np.random.default_rng(3)
    pred = rng.uniform(0.0, 1.0, size=(5, 7))
    gt = (rng.random((5, 7)) < 0.4).astype(np.uint8)
    write_pm(str(tmp_path / "p.pm"), pred)
    write_pgm(str(tmp_path / "g.pgm"), gt)
    flags = [arg for key, value in EVAL_FLAGS[name].items() for arg in (f"--{key}", repr(value))]
    code, report = run_cli(capsys, "loss", "eval", "--pred", str(tmp_path / "p.pm"),
                           "--gt", str(tmp_path / "g.pgm"), "--loss", name, *flags)
    want = make_loss(name, **EVAL_FLAGS[name])(pred, gt)
    assert code == 0
    assert repr(report["results"]["value"]) == repr(want.value)
    assert report["results"]["grad_stats"] == grad_stats(want.grad_wrt_prob)


def test_loss_eval_shape_mismatch_exit_two(capsys, tmp_path):
    write_pm(str(tmp_path / "p.pm"), np.full((2, 2), 0.5))
    write_pgm(str(tmp_path / "g.pgm"), np.ones((3, 3), dtype=np.uint8))
    code = main(["loss", "eval", "--pred", str(tmp_path / "p.pm"),
                 "--gt", str(tmp_path / "g.pgm"), "--loss", "bce"])
    assert code == 2


def test_missing_file_exit_two(capsys, tmp_path):
    code = main(["loss", "eval", "--pred", str(tmp_path / "nope.pm"),
                 "--gt", str(tmp_path / "nope.pgm"), "--loss", "bce"])
    assert code == 2


@pytest.mark.parametrize("loss", ["bce", "focal"])
def test_grad_check_passes_and_repeats(capsys, loss):
    code, report = run_cli(capsys, "loss", "grad-check", "--seed", "5",
                           "--cases", "5", "--loss", loss)
    assert code == 0
    assert all(c["pass"] for c in report["invariant_checks"])
    code2, report2 = run_cli(capsys, "loss", "grad-check", "--seed", "5",
                             "--cases", "5", "--loss", loss)
    assert report2["results"] == report["results"]


def test_identity_check_all_pass(capsys):
    code, report = run_cli(capsys, "loss", "identity-check", "--seed", "2", "--cases", "25")
    assert code == 0
    names = {c["name"] for c in report["invariant_checks"]}
    assert "mu/mean_identity" in names
    assert all(c["pass"] for c in report["invariant_checks"])
    assert all("tolerance" in c for c in report["invariant_checks"])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cases", [1, 25, 100])
def test_identity_check_report_equals_one_call_per_case_reference(capsys, seed, cases):
    code, report = run_cli(capsys, "loss", "identity-check", "--seed", str(seed),
                           "--cases", str(cases))
    results, measured = reference_identity_check(seed, cases)
    assert code == 0
    assert report["results"] == results
    assert [repr(c["measured"]) for c in report["invariant_checks"]] == [repr(m) for m in measured]


def test_identity_check_report_independent_of_chunk_size(capsys, monkeypatch):
    argv = ("loss", "identity-check", "--seed", "4", "--cases", "40")
    _, whole = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "IDENTITY_CHUNK", 7)
    _, chunked = run_cli(capsys, *argv)
    assert chunked == whole


def test_identity_check_fails_on_a_nan_residual(capsys, monkeypatch):
    # Python's max(gap, nan) keeps gap, which would report a pass
    def nan_residuals(pred, gt, gamma, alpha, delta):
        nan = np.full(len(pred), np.nan)
        return {"poly": nan, "focal": nan, "bce": nan}, nan, nan

    monkeypatch.setattr(clicklab.adaptive, "identity_residuals", nan_residuals)
    code, report = run_cli(capsys, "loss", "identity-check", "--seed", "1", "--cases", "5")
    failed = {c["name"] for c in report["invariant_checks"] if not c["pass"]}
    assert code == 1
    assert failed == {"ladder/afl_equals_poly", "ladder/poly_equals_focal",
                      "ladder/focal_equals_bce", "mu/mean_identity", "gamma_a/in_unit_interval"}


def test_curve_grid_size_and_focal_coincidence(capsys, tmp_path):
    out = str(tmp_path / "curve.csv")
    code, report = run_cli(capsys, "loss", "curve", "--gammas", "0,2",
                           "--gamma-a", "0", "--alpha", "0", "--pt-points", "25",
                           "--out", out)
    assert code == 0
    assert report["results"]["rows"] == 2 * 1 * 25
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 1 + 50
    header = lines[0].split(",")
    loss_col = header.index("loss")
    focal_col = header.index("focal_component")
    pt_col = header.index("pt")
    by_gamma = {}
    for line in lines[1:]:
        vals = line.split(",")
        # alpha=0, gamma_a=0: the curve IS the plain focal curve
        assert float(vals[loss_col]) == float(vals[focal_col])
        by_gamma.setdefault(vals[0], []).append((float(vals[pt_col]), float(vals[loss_col])))
    for rows in by_gamma.values():
        ordered = sorted(rows)
        assert all(b[1] <= a[1] + 1e-12 for a, b in zip(ordered, ordered[1:]))


def test_pt_plot_roundtrip(capsys, oracle_pair, tmp_path):
    pred, gt = oracle_pair
    out = str(tmp_path / "pt.pm")
    code, _ = run_cli(capsys, "pt-plot", "--pred", pred, "--gt", gt, "--out", out)
    assert code == 0
    pt = read_pm(out)
    np.testing.assert_array_equal(pt, np.ones((8, 8)))


def test_match_costs_json(capsys, tmp_path):
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({"cost": [[1.0, 2.0], [3.0, 1.0]]}))
    code, report = run_cli(capsys, "match", "--costs", str(costs))
    assert code == 0
    got = [tuple(p) for p in report["results"]["match"]["assignment"]]
    assert got == [(0, 0), (1, 1)]
    assert report["results"]["match"]["total_cost"] == 2.0


@pytest.mark.parametrize("cost", [
    [[1.0, float("nan")]],
    [[1, "a"], [2, 3]],
    [[1, 2], [3]],
], ids=["nan", "non_numeric", "ragged"])
def test_match_malformed_cost_exit_two(capsys, tmp_path, cost):
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps(cost))
    assert main(["match", "--costs", str(costs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# inputs of test_malformed_input_exit_two, written to its tmp_path
MALFORMED_FILES = {
    "overflow.json": json.dumps([[1e308, 1e308], [1e308, 1e308]]),
    "ok.pm": "PM 1 2\n0.5 0.5\n",
    "ok.pgm": "P2\n2 1\n255\n0 255\n",
    "pixel_text.pgm": "P2\n2 1\n255\n0 x\n",
    "header_text.pgm": "P2\n2 y\n255\n0 255\n",
    "negative_size.pgm": "P2\n-1 -1\n255\n0\n",
    "value_text.pm": "PM 1 2\n0.5 abc\n",
    "header_text.pm": "PM 1 z\n0.5 0.5\n",
    "spec.json": json.dumps({"height": 24, "width": 24, "seed": 1}),
    "height_text.json": json.dumps({"height": "64"}),
    "nesting_text.json": json.dumps({"n_instances": 2, "nesting": "yes"}),
    "noise_text.json": json.dumps({"boundary_noise": "abc"}),
    "noise_nan.json": json.dumps({"boundary_noise": float("nan")}),
    "seed_text.json": json.dumps({"seed": "1"}),
    "spec_not_object.json": "5",
    "spec_json_string.json": json.dumps(json.dumps({"height": 32, "width": 32})),
    "three_weights.json": json.dumps({"weights": [0.0, 0.0, 0.0], "bias": 0.0}),
    "text_weight.json": json.dumps({"weights": ["a"] * 6, "bias": 0.0}),
    "nan_weight.json": json.dumps({"weights": [float("nan")] * 6, "bias": 0.0}),
    "nested_weights.json": json.dumps({"weights": [[0.0] * 6], "bias": 0.0}),
    "text_bias.json": json.dumps({"weights": [0.0] * 6, "bias": "b"}),
    "model_json_string.json": json.dumps(json.dumps({"weights": [0.0] * 6, "bias": 0.0})),
    # a sample directory whose feature map and mask differ in size
    "sample_000/meta.json": json.dumps({}),
    "sample_000/mask_00.pgm": "P2\n2 1\n255\n0 255\n",
    "sample_000/feat_00.pm": "PM 1 3\n0.5 0.5 0.5\n",
    # a sample directory whose two feature maps differ in size
    "feats_differ/sample_000/meta.json": json.dumps({}),
    "feats_differ/sample_000/mask_00.pgm": "P2\n2 1\n255\n0 255\n",
    "feats_differ/sample_000/feat_00.pm": "PM 1 2\n0.5 0.5\n",
    "feats_differ/sample_000/feat_01.pm": "PM 1 3\n0.5 0.5 0.5\n",
    "costs.json": json.dumps([[1.0, 2.0], [3.0, 1.0]]),
    # an instances directory of one prediction and no ground truth
    "pred_00.pm": "PM 1 2\n0.5 0.5\n",
    "classes.json": json.dumps({"pred_classes": [[0.5, 0.5]], "gt_classes": []}),
    # instances directories whose classes.json has the wrong JSON types
    "classes_list/pred_00.pm": "PM 1 2\n0.5 0.5\n",
    "classes_list/classes.json": json.dumps([1, 2]),
    "classes_int/pred_00.pm": "PM 1 2\n0.5 0.5\n",
    "classes_int/classes.json": json.dumps({"pred_classes": 5, "gt_classes": []}),
    # instances directories whose classes.json has a non-numeric pair
    "pred_class_text/pred_00.pm": "PM 1 2\n0.5 0.5\n",
    "pred_class_text/classes.json": json.dumps({"pred_classes": ["ab"], "gt_classes": []}),
    "gt_class_text/pred_00.pm": "PM 1 2\n0.5 0.5\n",
    "gt_class_text/gt_00.pgm": "P2\n2 1\n255\n0 255\n",
    "gt_class_text/classes.json": json.dumps({"pred_classes": [[0.5, 0.5]],
                                              "gt_classes": [["x", 1]]}),
    # a directory where a file is expected
    "outdir/keep.txt": "",
    "bool_weight.json": json.dumps({"weights": [True, 0, 0, 0, 0, 0], "bias": 0.0}),
    "bool_bias.json": json.dumps({"weights": [0.0] * 6, "bias": False}),
    "no_bias.json": json.dumps({"weights": [0.0] * 6}),
    "no_weights.json": json.dumps({"bias": 0.0}),
    "cost_object.json": json.dumps({"costs": [[1.0, 2.0], [3.0, 1.0]]}),
    "big_pixel.pgm": "P2\n2 1\n255\n0 99999999999999999999\n",
    "costs_bool.json": json.dumps([[True, False]]),
}
NOC_TRAINED = "noc run --dataset synth:{tmp}/spec.json --seed 1 --count 1 --out {tmp}/t.json "
LOSS_EVAL = "loss eval --pred {tmp}/ok.pm --gt {tmp}/ok.pgm "
TRAIN_DEMO = "train demo --spec {tmp}/spec.json --steps 1 --out {tmp}/run "


@pytest.mark.parametrize("argv", [
    "attention demo --hw 0 0 --seed 1",
    "attention demo --hw 4 -3 --seed 1",
    "attention demo --hw 4 x --seed 1",
    "loss curve --gammas a --out {tmp}/c.csv",
    "loss curve --gammas 9 --out {tmp}/c.csv",
    "loss curve --gammas 0,nan --out {tmp}/c.csv",
    "loss curve --gamma-a 0,1.5 --out {tmp}/c.csv",
    "match --costs {tmp}/overflow.json",
    "loss eval --pred {tmp}/ok.pm --gt {tmp}/pixel_text.pgm --loss bce",
    "loss eval --pred {tmp}/ok.pm --gt {tmp}/header_text.pgm --loss bce",
    "loss eval --pred {tmp}/ok.pm --gt {tmp}/negative_size.pgm --loss bce",
    "loss eval --pred {tmp}/value_text.pm --gt {tmp}/ok.pgm --loss bce",
    "loss eval --pred {tmp}/header_text.pm --gt {tmp}/ok.pgm --loss bce",
    "synth gen --spec {tmp}/height_text.json --out {tmp}/d",
    "synth gen --spec {tmp}/nesting_text.json --out {tmp}/d",
    "synth gen --spec {tmp}/noise_text.json --out {tmp}/d",
    "synth gen --spec {tmp}/noise_nan.json --out {tmp}/d",
    "synth gen --spec {tmp}/seed_text.json --out {tmp}/d",
    "synth gen --spec {tmp}/spec_not_object.json --out {tmp}/d",
    "noc run --predictor oracle --dataset synth:{tmp}/height_text.json --seed 1 --out {tmp}/t.json",
    "noc run --predictor oracle --dataset synth:{tmp}/nesting_text.json --seed 1 --out {tmp}/t.json",
    NOC_TRAINED + "--predictor trained:{tmp}/three_weights.json",
    NOC_TRAINED + "--predictor trained:{tmp}/text_weight.json",
    NOC_TRAINED + "--predictor trained:{tmp}/nan_weight.json",
    NOC_TRAINED + "--predictor trained:{tmp}/nested_weights.json",
    NOC_TRAINED + "--predictor trained:{tmp}/text_bias.json",
    "train demo --spec {tmp}/spec.json --steps 1 --out {tmp}/run --seed 1",
    "loss grad-check --seed 1 --cases 0",
    "loss grad-check --seed 1 --cases -3",
    "loss identity-check --seed 1 --cases 0",
    "attention demo --clicks -1 --seed 1",
    "loss curve --alpha -1 --out {tmp}/c.csv",
    "loss curve --alpha nan --out {tmp}/c.csv",
    "loss curve --pt-points 0 --out {tmp}/c.csv",
    "synth gen --spec {tmp}/spec.json --out {tmp}/d --count 0",
    "synth gen --spec {tmp}/spec.json --out {tmp}/d --count -1",
    LOSS_EVAL + "--loss poly --alpha nan",
    LOSS_EVAL + "--loss poly --alpha inf",
    LOSS_EVAL + "--loss afl --alpha nan",
    LOSS_EVAL + "--loss afl --alpha inf",
    LOSS_EVAL + "--loss wbce --beta nan",
    LOSS_EVAL + "--loss wbce --beta inf",
    LOSS_EVAL + "--loss dice --smooth nan",
    LOSS_EVAL + "--loss dice --smooth inf",
    TRAIN_DEMO + "--alpha nan",
    TRAIN_DEMO + "--lr nan",
    TRAIN_DEMO + "--lr inf",
    "match --instances {tmp} --unclick-weight nan",
    "match --instances {tmp} --lambda-cli inf",
    "match --costs {tmp}/costs.json --lambda-mask nan",
    "match --instances {tmp}/classes_list",
    "match --instances {tmp}/classes_int",
    "match --costs {tmp}/costs.json --lambda-cli 5 --lambda-mask 0",
    "match --costs {tmp}/costs.json --unclick-weight 0.1",
    LOSS_EVAL + "--loss focal --reduction mean",
    LOSS_EVAL + "--loss bce --eps 1e-4",
    TRAIN_DEMO + "--reduction sum",
    "pt-plot --pred {tmp}/ok.pm --gt {tmp}/ok.pgm --out {tmp}/pt.pm --eps 1e-7",
    LOSS_EVAL + "--loss soft_iou --beta 0.3",
    "match --instances {tmp}/pred_class_text",
    "match --instances {tmp}/gt_class_text",
    "synth gen --spec {tmp}/spec_json_string.json --out {tmp}/d",
    NOC_TRAINED + "--predictor trained:{tmp}/model_json_string.json",
    "noc run --predictor trained:{tmp}/three_weights.json --dataset {tmp} --seed 1 "
    "--out {tmp}/t.json",
    "noc run --predictor oracle --dataset {tmp} --seed 1 --out {tmp}/t.json",
    "noc run --predictor oracle --dataset {tmp}/feats_differ --seed 1 --out {tmp}/t.json",
    NOC_TRAINED + "--predictor noisy:0.3 --max-clicks 21",
    NOC_TRAINED + "--predictor noisy:0.05 --radius 3",
    "loss eval --pred {tmp}/outdir --gt {tmp}/ok.pgm --loss bce",
    "loss eval --pred {tmp}/ok.pm/x --gt {tmp}/ok.pgm --loss bce",
    NOC_TRAINED + "--predictor trained:{tmp}/outdir",
    "noc run --predictor oracle --dataset synth:{tmp}/spec.json --seed 1 --count 1 "
    "--out {tmp}/outdir",
    "loss curve --out {tmp}/outdir",
    "synth gen --spec {tmp}/spec.json --out {tmp}/ok.pm",
    TRAIN_DEMO.replace("{tmp}/run", "{tmp}/ok.pm"),
    NOC_TRAINED + "--predictor trained:{tmp}/bool_weight.json",
    NOC_TRAINED + "--predictor trained:{tmp}/bool_bias.json",
    NOC_TRAINED + "--predictor trained:{tmp}/no_bias.json",
    NOC_TRAINED + "--predictor trained:{tmp}/no_weights.json",
    "match --costs {tmp}/cost_object.json",
    "loss eval --pred {tmp}/ok.pm --gt {tmp}/big_pixel.pgm --loss bce",
    "match --costs {tmp}/costs_bool.json",
], ids=["hw_zero", "hw_negative", "hw_text", "gammas_text", "gammas_above_five",
        "gammas_nan", "gamma_a_above_one", "costs_sum_overflows",
        "pgm_pixel_text", "pgm_header_text", "pgm_negative_size", "pm_value_text",
        "pm_header_text", "synth_height_text", "synth_nesting_text", "synth_noise_text",
        "synth_noise_nan", "synth_seed_text", "synth_spec_not_object", "noc_height_text",
        "noc_nesting_text", "model_three_weights", "model_text_weight", "model_nan_weight",
        "model_nested_weights", "model_text_bias", "train_seed_removed", "grad_check_zero_cases",
        "grad_check_negative_cases", "identity_check_zero_cases", "attention_negative_clicks",
        "curve_alpha_negative", "curve_alpha_nan", "curve_zero_pt_points",
        "synth_zero_count", "synth_negative_count", "poly_alpha_nan", "poly_alpha_inf",
        "afl_alpha_nan", "afl_alpha_inf", "wbce_beta_nan", "wbce_beta_inf", "dice_smooth_nan",
        "dice_smooth_inf", "train_alpha_nan", "train_lr_nan", "train_lr_inf",
        "match_unclick_weight_nan", "match_lambda_cli_inf", "match_costs_lambda_mask_nan",
        "match_classes_not_object", "match_pred_classes_not_list", "match_costs_weight_flags",
        "match_costs_default_weight_flag", "loss_eval_reduction_removed", "loss_eval_eps_removed",
        "train_reduction_removed", "pt_plot_eps_removed", "soft_iou_beta",
        "match_pred_class_text", "match_gt_class_text", "synth_spec_json_string",
        "model_json_string", "noc_features_mask_size_mismatch",
        "noc_oracle_features_mask_size_mismatch", "noc_feature_sizes_differ",
        "noc_max_clicks_above_cap", "noc_radius_removed", "loss_eval_pred_directory",
        "loss_eval_pred_under_a_file", "model_directory", "noc_out_directory",
        "curve_out_directory", "synth_out_is_a_file", "train_out_is_a_file", "model_bool_weight",
        "model_bool_bias", "model_no_bias", "model_no_weights", "match_costs_without_cost_key",
        "pgm_pixel_beyond_int64", "match_costs_bool"])
def test_malformed_input_exit_two(capsys, tmp_path, argv):
    for name, text in MALFORMED_FILES.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    try:
        code = main(argv.format(tmp=tmp_path).split())
    except SystemExit as exc:  # argparse rejects arguments with exit status 2
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("argv", [
    "noc run --predictor oracle --dataset synth:{tmp}/spec.json --seed 1 --count 1 "
    "--out {tmp}/outdir",
    "loss curve --out {tmp}/outdir",
], ids=["noc_out_directory", "curve_out_directory"])
def test_failed_write_is_one_input_error_and_leaves_no_temp_file(capsys, tmp_path, argv):
    (tmp_path / "outdir").mkdir()
    (tmp_path / "spec.json").write_text(MALFORMED_FILES["spec.json"])
    assert main(argv.format(tmp=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "spec.json"]
    assert not any((tmp_path / "outdir").iterdir())


@pytest.mark.parametrize("name, argv, key", [
    ("no_bias.json", NOC_TRAINED + "--predictor trained:{tmp}/no_bias.json", "bias"),
    ("no_weights.json", NOC_TRAINED + "--predictor trained:{tmp}/no_weights.json", "weights"),
    ("cost_object.json", "match --costs {tmp}/cost_object.json", "cost"),
], ids=["model_no_bias", "model_no_weights", "costs_without_cost_key"])
def test_missing_json_key_is_named(capsys, tmp_path, name, argv, key):
    for path in ("spec.json", name):
        (tmp_path / path).write_text(MALFORMED_FILES[path])
    assert main(argv.format(tmp=tmp_path).split()) == 2
    assert capsys.readouterr().err == f"input error: missing key '{key}'\n"


def test_train_divergence_exits_one_naming_the_step(capsys, tmp_path):
    (tmp_path / "spec.json").write_text(MALFORMED_FILES["spec.json"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy RuntimeWarnings would raise instead
        code = main(TRAIN_DEMO.format(tmp=tmp_path).split() + ["--lr", "1e308"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at step 1") and err.count("\n") == 1


def test_train_demo_outputs_pinned(capsys, tmp_path):
    # model.json and log.csv of one fixed run; any change to the training
    # arithmetic, its order or its output format moves this digest
    spec = {"height": 40, "width": 40, "n_instances": 2, "shape_kind": "blob",
            "boundary_noise": 0.5, "seed": 9}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    run = tmp_path / "run"
    code, _ = run_cli(capsys, "train", "demo", "--loss", "afl", "--steps", "80", "--instance", "1",
                      "--spec", str(tmp_path / "spec.json"), "--out", str(run))
    assert code == 0
    data = (run / "model.json").read_bytes() + (run / "log.csv").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "384e63260527acf3b9741b7a0f29206c0d6f02b77b7cf5237d1e846dbd3db81c"


def test_match_instances_dir(capsys, tmp_path):
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[1:4, 1:4] = 1
    write_pm(str(tmp_path / "pred_00.pm"), gt.astype(float))
    write_pgm(str(tmp_path / "gt_00.pgm"), gt)
    (tmp_path / "classes.json").write_text(json.dumps({
        "pred_classes": [[1.0, 0.0]],
        "gt_classes": [[1.0, 0.0]],
    }))
    code, report = run_cli(capsys, "match", "--instances", str(tmp_path))
    assert code == 0
    assert report["results"]["total_loss"] == 0.0


def test_match_instances_without_gts_charges_unclick(capsys, tmp_path):
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[1:4, 1:4] = 1
    write_pm(str(tmp_path / "pred_00.pm"), gt.astype(float))
    (tmp_path / "classes.json").write_text(json.dumps({
        "pred_classes": [[0.5, 0.5]],
        "gt_classes": [],
    }))
    code, report = run_cli(capsys, "match", "--instances", str(tmp_path))
    assert code == 0
    assert report["results"]["total_loss"] == pytest.approx(0.1 * 2.0 * np.log(2.0))
    assert report["results"]["match"]["unmatched_predictions"] == [0]


def test_match_instances_weight_flags_apply_and_are_echoed(capsys, tmp_path):
    write_pm(str(tmp_path / "pred_00.pm"), np.full((2, 2), 0.5))
    (tmp_path / "classes.json").write_text(json.dumps({"pred_classes": [[0.5, 0.5]], "gt_classes": []}))
    code, report = run_cli(capsys, "match", "--instances", str(tmp_path), "--unclick-weight", "0.3")
    assert code == 0
    assert report["results"]["total_loss"] == pytest.approx(0.3 * 2.0 * np.log(2.0))
    weights = {k: report["config"][k] for k in ("lambda_mask", "lambda_cli", "lambda_afl",
                                                "lambda_dice", "unclick_weight")}
    assert weights == {"lambda_mask": 1.0, "lambda_cli": 2.0, "lambda_afl": 5.0,
                       "lambda_dice": 5.0, "unclick_weight": 0.3}


def test_attention_demo_checks_pass(capsys):
    code, report = run_cli(capsys, "attention", "demo", "--queries", "4", "--dim", "8",
                           "--hw", "32", "32", "--blocks", "1", "--seed", "3")
    assert code == 0
    assert all(c["pass"] for c in report["invariant_checks"])
    assert report["results"]["n_predictions"] == 4


def test_synth_train_noc_pipeline(capsys, tmp_path):
    spec = {"height": 32, "width": 32, "n_instances": 1, "shape_kind": "disk",
            "boundary_noise": 0.0, "nesting": False, "seed": 9}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    data_dir = str(tmp_path / "data")
    code, report = run_cli(capsys, "synth", "gen", "--spec", str(spec_path),
                           "--out", data_dir, "--count", "2")
    assert code == 0
    assert len(report["results"]["samples"]) == 2

    run_dir = str(tmp_path / "run")
    code, report = run_cli(capsys, "train", "demo", "--loss", "afl", "--spec", str(spec_path),
                           "--steps", "150", "--lr", "0.5", "--out", run_dir)
    assert code == 0
    assert report["results"]["final_iou"] >= 0.9
    log_lines = open(f"{run_dir}/log.csv").read().strip().split("\n")
    assert log_lines[0] == "step,loss,iou,gamma_a,gamma_d,mu"
    assert len(log_lines) == 151

    trace_path = str(tmp_path / "trace.json")
    code, report = run_cli(capsys, "noc", "run", "--predictor", f"trained:{run_dir}/model.json",
                           "--dataset", data_dir, "--seed", "1", "--out", trace_path)
    assert code == 0
    trace = json.loads(open(trace_path).read())
    assert trace["protocol_version"] == "1"
    assert len(trace["samples"]) == 2
    for t in trace["samples"]:
        assert t["noc85"] <= t["noc90"]

    code, report = run_cli(capsys, "noc", "run", "--predictor", "oracle",
                           "--dataset", f"synth:{spec_path}", "--seed", "4",
                           "--count", "3", "--out", str(tmp_path / "trace2.json"))
    assert code == 0
    assert report["results"]["aggregate"]["mean_noc85"] == 1.0


def test_noc_unknown_predictor_exit_two(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 1}))
    code = main(["noc", "run", "--predictor", "psychic", "--dataset", f"synth:{spec_path}",
                 "--seed", "1", "--out", str(tmp_path / "t.json")])
    assert code == 2


@pytest.fixture()
def noc_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"height": 24, "width": 24, "seed": 1}))
    return f"synth:{spec_path}"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_noc_count_below_one_is_usage_error(capsys, tmp_path, noc_spec, count):
    with pytest.raises(SystemExit) as exc:
        main(["noc", "run", "--predictor", "oracle", "--dataset", noc_spec, "--seed", "1",
              "--count", count, "--out", str(tmp_path / "t.json")])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("predictor, prefix", [
    ("noisy:abc", "error: "),
    ("noisy:", "error: "),
    ("noisy:1.5", "error: "),
    ("noisy:nan", "error: "),
    ("trained:{tmp}/missing.json", "input error: "),
    ("trained:{tmp}/not_json.json", "input error: "),
    ("trained:{tmp}/no_weights.json", "input error: "),
], ids=["noisy_text", "noisy_empty", "noisy_above_one", "noisy_nan",
        "trained_missing", "trained_not_json", "trained_no_weights"])
def test_noc_malformed_predictor_exit_two(capsys, tmp_path, noc_spec, predictor, prefix):
    (tmp_path / "not_json.json").write_text("{weights")
    (tmp_path / "no_weights.json").write_text(json.dumps({"bias": 0.0}))
    code = main(["noc", "run", "--predictor", predictor.format(tmp=tmp_path),
                 "--dataset", noc_spec, "--seed", "1", "--count", "1",
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_noc_trained_model_read_once(capsys, tmp_path, noc_spec, monkeypatch):
    from clicklab import trainer

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(trainer.PixelModel(np.zeros(6), 0.0).to_json()))
    loads = []
    real_from_json = trainer.PixelModel.from_json.__func__
    monkeypatch.setattr(trainer.PixelModel, "from_json",
                        classmethod(lambda cls, obj: loads.append(1) or real_from_json(cls, obj)))
    code, report = run_cli(capsys, "noc", "run", "--predictor", f"trained:{model_path}",
                           "--dataset", noc_spec, "--seed", "1", "--count", "3",
                           "--max-clicks", "2", "--out", str(tmp_path / "t.json"))
    assert code == 0
    assert report["results"]["aggregate"]["samples"] == 3
    assert len(loads) == 1


def test_readme_cli_examples_parse():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        examples = [line for line in fh if line.startswith("clicklab ")]
    assert len(examples) >= 10
    parser = build_parser()
    for line in examples:
        argv = shlex.split(line, comments=True)[1:]
        args = parser.parse_args(argv)  # an unknown flag exits 2
        assert args.handler.__name__.startswith("cmd_"), line


def _perfbench_workloads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_cli_commands_parse(tmp_path):
    # the benchmark drives the CLI with these argv; a flag it passes must stay
    workloads = _perfbench_workloads()
    built = [cls(None, 1, False, str(tmp_path / cls.name), workloads.Gate(), [1])
             for cls in (workloads.NocNoisy, workloads.PipelineTrained, workloads.VerifySuite)]
    argvs = [built[0].argv] + [argv for w in built[1:] for _, argv, *_ in w.commands]
    assert len(argvs) == 6
    parser = build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)  # an unknown flag exits 2
        assert args.handler.__name__.startswith("cmd_"), argv


def test_benchmark_decode_match_runs_on_library_calls(tmp_path):
    # decode_match calls synthgen, clicksim, attention and matching directly;
    # a changed signature or check there fails its pass
    workloads = _perfbench_workloads()
    mods = types.SimpleNamespace(**{name: importlib.import_module(f"clicklab.{name}") for name in (
        "attention", "clicksim", "core", "matching", "synthgen")})
    seeds, _ = workloads.draw_data_seeds(mods, "decode_match", 1, True)
    gate = workloads.Gate()
    workload = workloads.DecodeMatch(mods, 1, True, str(tmp_path), gate, seeds)
    result = workload.run_pass(reference=True)
    assert result.ops == len(seeds) and gate.attempted > result.ops
    assert gate.failed == 0


def test_benchmark_pipeline_trained_runs_on_the_cli(tmp_path):
    # pipeline_trained runs synth gen, train demo and noc run through
    # cli.main: the PM/PGM files it writes and reads back must give two
    # passes of one output
    workloads = _perfbench_workloads()
    mods = types.SimpleNamespace(**{name: importlib.import_module(f"clicklab.{name}")
                                    for name in ("cli", "core", "synthgen")})
    seeds, _ = workloads.draw_data_seeds(mods, "pipeline_trained", 1, True)
    gate = workloads.Gate()
    workload = workloads.PipelineTrained(mods, 1, True, str(tmp_path), gate, seeds)
    first = workload.run_pass(reference=True)
    second = workload.run_pass(reference=False)
    assert gate.attempted >= 6 and gate.failed == 0
    assert first.ops == workload.steps and first.digest == second.digest


@pytest.mark.parametrize("name", ["verify_suite", "noc_noisy"])
def test_benchmark_cli_workload_runs_twice_to_one_digest(tmp_path, name):
    # verify_suite drives the loss layer through loss grad-check and
    # identity-check, noc_noisy the click simulation through noc run
    workloads = _perfbench_workloads()
    mods = types.SimpleNamespace(**{mod: importlib.import_module(f"clicklab.{mod}")
                                    for mod in ("cli", "core", "synthgen")})
    seeds, _ = workloads.draw_data_seeds(mods, name, 1, True)
    gate = workloads.Gate()
    workload = workloads.WORKLOADS[name](mods, 1, True, str(tmp_path), gate, seeds)
    first = workload.run_pass(reference=True)
    second = workload.run_pass(reference=False)
    assert gate.attempted >= 2 and gate.failed == 0
    assert first.ops == second.ops > 0 and first.digest == second.digest


def test_report_reproducible_for_same_seed(capsys):
    _, a = run_cli(capsys, "loss", "identity-check", "--seed", "8", "--cases", "10")
    _, b = run_cli(capsys, "loss", "identity-check", "--seed", "8", "--cases", "10")
    assert a["results"] == b["results"]
    assert a["config_hash"] == b["config_hash"]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only `match` needs the assignment solver; the other commands must not
    # pay for importing scipy.optimize at start-up
    src = os.path.dirname(os.path.dirname(clicklab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, clicklab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"
