"""Command-line interface.

Subcommands: loss eval | loss grad-check | loss identity-check | loss curve |
pt-plot | match | attention demo | synth gen | train demo | noc run.

Every command emits a JSON run report (command echo, config hash, results,
invariant checks with named tolerances).  Exit codes: 0 success, 1 invariant
or training failure, 2 input error.  Commands that draw randomness require
an explicit --seed; nothing reads ambient entropy.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import sys

import numpy as np
from scipy import ndimage

from . import __version__, adaptive, attention, clicksim, gradcheck, matching, synthgen, trainer
from .core import (
    ClickLabError,
    DimensionError,
    DomainError,
    GenerationError,
    ParameterError,
    TrainingError,
    pt_map,
    rng_stream,
)
from .fileio import atomic_write_json, atomic_write_text, read_pgm, read_pm, write_pgm, write_pm
from .losses import make_loss, grad_stats, powlog_kernel


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def check(name: str, measured: float, tolerance: float) -> dict:
    return {
        "name": name,
        "pass": bool(measured <= tolerance),
        "measured": float(measured),
        "tolerance": float(tolerance),
    }


def build_report(args, results: dict, checks: list) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("handler", "argv")}
    canonical = json.dumps(config, sort_keys=True, default=str)
    return {
        "command": "clicklab " + " ".join(str(a) for a in args.argv),
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "results": results,
        "invariant_checks": checks,
        "versions": {"spec_version": __version__, "protocol_version": clicksim.PROTOCOL_VERSION},
    }


def emit_report(args, results: dict, checks: list, report_path: str | None = None) -> int:
    report = build_report(args, results, checks)
    text = json.dumps(report, indent=2)
    print(text)
    if report_path:
        atomic_write_json(report_path, report)
    return 0 if all(c["pass"] for c in checks) else 1


def _loss_params_from_args(args) -> dict:
    params = {}
    for key in ("gamma", "alpha", "delta", "beta", "smooth"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if getattr(args, "no_ada", False):
        params["ada_enabled"] = False
    if getattr(args, "no_agr", False):
        params["agr_enabled"] = False
    return params


# ---------------------------------------------------------------------------
# loss commands
# ---------------------------------------------------------------------------

def cmd_loss_eval(args) -> int:
    pred = read_pm(args.pred)
    gt = read_pgm(args.gt)
    fn = make_loss(args.loss, **_loss_params_from_args(args))
    out = fn(pred, gt)
    results = {
        "loss": args.loss,
        "value": out.value,
        "diagnostics": out.diagnostics,
        "grad_stats": grad_stats(out.grad_wrt_prob),
    }
    return emit_report(args, results, [], args.out)


def cmd_grad_check(args) -> int:
    names = gradcheck.CHECKED_LOSSES if args.loss == "all" else (args.loss,)
    suite = gradcheck.run_suite(names, cases=args.cases, seed=args.seed)
    checks = [check(f"grad_fd/{r['loss']}", r["max_rel_err"], r["tolerance"]) for r in suite]
    return emit_report(args, {"suite": suite}, checks, args.out)


# identity-check cases drawn per chunk; each chunk is evaluated with one
# stacked pass per map shape, and at most this many 8 x 8 maps (128 KB per
# float64 stack) are held at once however large --cases is
IDENTITY_CHUNK = 256


def cmd_identity_check(args) -> int:
    rng = rng_stream(args.seed, "cli/identity")
    ladder_gap = {"poly": 0.0, "focal": 0.0, "bce": 0.0}
    mu_gap = 0.0
    gamma_a_gap = 0.0
    for start in range(0, args.cases, IDENTITY_CHUNK):
        groups = {}  # (h, w) -> the cases of that shape, in drawing order
        for _ in range(min(IDENTITY_CHUNK, args.cases - start)):
            h, w = (int(rng.integers(4, 9)) for _ in range(2))
            pred = rng.uniform(0.01, 0.99, size=(h, w))
            gt = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
            gt.flat[0] = 1
            gamma, alpha, delta = (float(rng.uniform(0.0, hi)) for hi in (5.0, 2.0, 1.0))
            groups.setdefault((h, w), []).append((pred, gt, gamma, alpha, delta))
        for group in groups.values():  # np.maximum keeps a NaN, so it fails its check
            gaps, mu_res, g_a = adaptive.identity_residuals(*(np.array(v) for v in zip(*group)))
            for rung, gap in gaps.items():
                ladder_gap[rung] = float(np.maximum(ladder_gap[rung], gap.max()))
            mu_gap = float(np.maximum(mu_gap, mu_res.max()))
            gamma_a_gap = float(np.maximum(gamma_a_gap, np.maximum(g_a - 1.0, -g_a).max()))

    taylor_pts = np.linspace(0.6, 0.99, 40)
    taylor_gap = float(np.abs(adaptive.neg_log_series(taylor_pts, 50) + np.log(taylor_pts)).max())

    series_pts = np.array([0.6, 0.7, 0.8, 0.9, 0.99])
    series_gap = float(np.abs(
        adaptive.afl_grad_series(series_pts, 0.0, 0.0, 200) - 1.0 / series_pts).max())

    const_residual = max(
        adaptive.chebyshev_identity_check(np.full((5, 7), v), 2.0) for v in (0.3, 0.5, 0.9))
    pair_residual = abs(adaptive.chebyshev_identity_check(np.array([0.5, 1.0]), 2.0) - 0.125)
    sweep = [adaptive.chebyshev_identity_check(rng.uniform(0.05, 1.0, size=(8, 8)), g)
             for g in (0.5, 1.0, 2.0, 3.0)]

    checks = [
        check("ladder/afl_equals_poly", ladder_gap["poly"], 1e-12),
        check("ladder/poly_equals_focal", ladder_gap["focal"], 1e-12),
        check("ladder/focal_equals_bce", ladder_gap["bce"], 1e-12),
        check("mu/mean_identity", mu_gap, 1e-12),
        check("gamma_a/in_unit_interval", gamma_a_gap, 0.0),
        check("series/neg_log_taylor_50_terms", taylor_gap, 1e-8),
        check("series/grad_reaches_bce_limit", series_gap, 1e-6),
        check("chebyshev/constant_map_residual", const_residual, 0.0),
        check("chebyshev/worked_pair_residual", pair_residual, 1e-12),
    ]
    results = {"chebyshev_residual_sweep": sweep, "cases": args.cases}
    return emit_report(args, results, checks, args.out)


def cmd_loss_curve(args) -> int:
    gammas, gamma_as = args.gammas, args.gamma_a
    pts = np.linspace(0.01, 0.99, args.pt_points)
    lines = ["gamma,gamma_a,gamma_d,pt,focal_component,poly_component,loss,grad_magnitude"]
    for g in gammas:
        for ga in gamma_as:
            gd = g + ga
            value_px, dvalue_dpt = powlog_kernel(pts, gd, args.alpha, 1.0)
            focal_px, _ = powlog_kernel(pts, gd, 0.0, 1.0)
            for i, pt in enumerate(pts):
                row = (g, ga, gd, pt, focal_px[i], value_px[i] - focal_px[i],
                       value_px[i], abs(dvalue_dpt[i]))
                lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    results = {"out": args.out, "rows": len(lines) - 1,
               "grid": {"gammas": gammas, "gamma_a": gamma_as, "pt_points": args.pt_points}}
    return emit_report(args, results, [])


def cmd_pt_plot(args) -> int:
    pred = read_pm(args.pred)
    gt = read_pgm(args.gt)
    pt = pt_map(pred, gt)
    write_pm(args.out, pt)
    results = {"out": args.out, "pt_min": float(pt.min()), "pt_max": float(pt.max())}
    return emit_report(args, results, [])


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------

def _load_instances_dir(path: str):
    pred_files = sorted(glob.glob(os.path.join(path, "pred_*.pm")))
    gt_files = sorted(glob.glob(os.path.join(path, "gt_*.pgm")))
    classes_path = os.path.join(path, "classes.json")
    if not pred_files:
        raise ParameterError(f"no pred_*.pm files in {path}")
    with open(classes_path) as fh:
        classes = json.load(fh)
    if not isinstance(classes, dict):
        raise ParameterError(f"{classes_path}: expected a JSON object")

    def class_pairs(key: str, files: list, pattern: str) -> list:
        entries = classes.get(key)
        if not isinstance(entries, list) or len(entries) != len(files):
            raise ParameterError(f"{classes_path}: {key} must list one pair per {pattern}")
        try:
            return [np.asarray(c, dtype=np.float64) for c in entries]
        except (TypeError, ValueError):
            raise ParameterError(f"{classes_path}: {key} entries must be pairs of numbers") from None

    pred_classes = class_pairs("pred_classes", pred_files, "pred_*.pm")
    gt_classes = class_pairs("gt_classes", gt_files, "gt_*.pgm")
    preds = [matching.InstancePrediction(read_pm(f), c) for f, c in zip(pred_files, pred_classes)]
    gts = [matching.GroundTruthInstance(read_pgm(f), c) for f, c in zip(gt_files, gt_classes)]
    return preds, gts


_MATCH_WEIGHTS = [f.name for f in dataclasses.fields(matching.LossWeights)]


def cmd_match(args) -> int:
    if (args.costs is None) == (args.instances is None):
        raise ParameterError("pass exactly one of --costs or --instances")
    given = {k: getattr(args, k) for k in _MATCH_WEIGHTS if getattr(args, k) is not None}
    if args.costs is not None:
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ParameterError(f"--costs takes no weight flags, got {flags}")
        with open(args.costs) as fh:
            payload = json.load(fh)
        cost = payload["cost"] if isinstance(payload, dict) else payload
        # numpy takes a JSON true/false as 1.0/0.0
        if isinstance(cost, list) and any(isinstance(v, bool) for row in cost
                                          if isinstance(row, list) for v in row):
            raise ParameterError("cost matrix entries must be numbers, not true or false")
        match = matching.hungarian(cost)
        results = {"match": dataclasses.asdict(match)}
    else:
        weights = matching.LossWeights(**given)
        vars(args).update(dataclasses.asdict(weights))  # the report echoes the weights used
        preds, gts = _load_instances_dir(args.instances)
        total, match, breakdown = matching.total_loss(preds, gts, weights)
        results = {"total_loss": total, "match": dataclasses.asdict(match),
                   "breakdown": breakdown}
    return emit_report(args, results, [], args.out)


# ---------------------------------------------------------------------------
# attention demo
# ---------------------------------------------------------------------------

def cmd_attention_demo(args) -> int:
    h, w = args.hw
    rng = rng_stream(args.seed, "cli/attention/demo")
    image = ndimage.uniform_filter(rng.random((h, w)), size=5, mode="wrap")
    clicks = []
    for i in range(args.clicks):
        clicks.append(clicksim.ClickRecord(
            int(rng.integers(0, h)), int(rng.integers(0, w)),
            positive=bool(rng.random() < 0.7), index=i + 1))
    params = attention.AttentionParams.initialize(args.queries, args.dim, args.seed)
    scales, embed = attention.build_feature_stack(image, clicks, args.dim, args.seed)

    collected: list = []
    preds = attention.camd_forward(scales, embed, params, args.blocks, collect=collected)
    preds_again = attention.camd_forward(scales, embed, params, args.blocks)

    row_sum_gap = max(float(np.abs(c["attn"].sum(axis=1) - 1.0).max()) for c in collected)
    masked_weight = max(float(c["attn"][np.isneginf(c["mask"])].max())
                        if np.isneginf(c["mask"]).any() else 0.0 for c in collected)
    finite = all(np.isfinite(p.mask_probs).all() and np.isfinite(p.click_class_probs).all()
                 for p in preds)
    rerun_gap = max(
        max(float(np.abs(a.mask_probs - b.mask_probs).max()) for a, b in zip(preds, preds_again)),
        max(float(np.abs(a.click_class_probs - b.click_class_probs).max())
            for a, b in zip(preds, preds_again)))

    checks = [
        check("attention/rows_sum_to_one", row_sum_gap, 1e-9),
        check("attention/masked_weight_zero", masked_weight, 0.0),
        check("attention/outputs_finite", 0.0 if finite else 1.0, 0.0),
        check("attention/bit_identical_rerun", rerun_gap, 0.0),
    ]
    results = {
        "layers_run": len(collected),
        "n_predictions": len(preds),
        "mask_shape": [embed.h, embed.w],
        "click_class_probs": [p.click_class_probs.tolist() for p in preds],
    }
    return emit_report(args, results, checks, args.out)


# ---------------------------------------------------------------------------
# synth gen
# ---------------------------------------------------------------------------

def _write_sample_dir(out_dir: str, sample: synthgen.SynthSample) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, mask in enumerate(sample.gt_instances):
        write_pgm(os.path.join(out_dir, f"mask_{i:02d}.pgm"), mask)
    for c in range(sample.feature_map.shape[-1]):
        write_pm(os.path.join(out_dir, f"feat_{c:02d}.pm"), sample.feature_map[..., c])
    atomic_write_json(os.path.join(out_dir, "meta.json"), {
        "spec": sample.spec.to_json(),
        "instances": len(sample.gt_instances),
        "protocol_version": clicksim.PROTOCOL_VERSION,
    })


def load_sample_dir(path: str):
    """Read back a sample directory written by ``synth gen``, all maps one size."""
    with open(os.path.join(path, "meta.json")) as fh:
        meta = json.load(fh)
    masks = [read_pgm(f) for f in sorted(glob.glob(os.path.join(path, "mask_*.pgm")))]
    feats = [read_pm(f) for f in sorted(glob.glob(os.path.join(path, "feat_*.pm")))]
    if not masks or not feats:
        raise ParameterError(f"{path}: not a sample directory (missing masks or features)")
    shapes = {a.shape for a in feats + masks}
    if len(shapes) > 1:
        raise DimensionError(f"{path}: feature maps and masks differ in size: {sorted(shapes)}")
    return np.stack(feats, axis=-1), masks, meta


def _read_spec(path: str) -> synthgen.SynthSpec:
    with open(path) as fh:
        return synthgen.SynthSpec.from_json(json.load(fh))


def cmd_synth_gen(args) -> int:
    spec = _read_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    ids = []
    for i in range(args.count):
        sample = synthgen.generate(dataclasses.replace(spec, seed=spec.seed + i))
        sample_dir = os.path.join(args.out, f"sample_{i:03d}")
        _write_sample_dir(sample_dir, sample)
        ids.append(sample_dir)
    results = {"out": args.out, "samples": ids, "spec": spec.to_json()}
    return emit_report(args, results, [])


# ---------------------------------------------------------------------------
# train demo
# ---------------------------------------------------------------------------

def cmd_train_demo(args) -> int:
    sample = synthgen.generate(_read_spec(args.spec))
    config = trainer.TrainConfig(
        loss=args.loss, loss_params=_loss_params_from_args(args), steps=args.steps,
        learning_rate=args.lr, optimizer=args.optimizer, instance_index=args.instance)
    model, logs = trainer.train(sample, config)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_json(os.path.join(args.out, "model.json"), model.to_json())
    atomic_write_text(os.path.join(args.out, "log.csv"), trainer.format_log_csv(logs))
    results = {
        "out": args.out,
        "steps": len(logs),
        "final_loss": logs[-1]["loss"],
        "final_iou": logs[-1]["iou"],
    }
    return emit_report(args, results, [])


# ---------------------------------------------------------------------------
# noc run
# ---------------------------------------------------------------------------

def _iter_noc_samples(args):
    """Yield (sample_id, features, gt) triples from a dataset dir or synth spec."""
    if args.dataset.startswith("synth:"):
        spec = _read_spec(args.dataset[len("synth:"):])
        for i in range(args.count):
            sample = synthgen.generate(dataclasses.replace(spec, seed=args.seed + i))
            for j, gt in enumerate(sample.gt_instances):
                yield f"synth_{i:03d}/mask_{j:02d}", sample.feature_map, gt
    else:
        sample_dirs = sorted(glob.glob(os.path.join(args.dataset, "sample_*")))
        if not sample_dirs:
            raise ParameterError(f"no sample_* directories under {args.dataset}")
        for d in sample_dirs:
            features, masks, _ = load_sample_dir(d)
            for j, gt in enumerate(masks):
                yield f"{os.path.basename(d)}/mask_{j:02d}", features, gt


def _parse_predictor(kind: str):
    """Turn a ``--predictor`` spec into a ``(gt, seed) -> predictor`` factory."""
    if kind == "oracle":
        return lambda gt, seed: clicksim.OraclePredictor(gt)
    if kind.startswith("noisy:"):
        try:
            rate = float(kind[len("noisy:"):])
        except ValueError:
            raise ParameterError(f"noisy predictor needs a numeric rate, got {kind!r}") from None
        return lambda gt, seed: clicksim.NoisyOraclePredictor(gt, rate, seed)
    if kind.startswith("trained:"):
        with open(kind[len("trained:"):]) as fh:
            model = trainer.PixelModel.from_json(json.load(fh))
        predictor = clicksim.TrainedPredictor(model)
        return lambda gt, seed: predictor
    raise ParameterError(f"unknown predictor {kind!r}; use oracle, noisy:<rate>, trained:<file>")


def cmd_noc_run(args) -> int:
    make_predictor = _parse_predictor(args.predictor)
    traces = []
    for idx, (sample_id, features, gt) in enumerate(_iter_noc_samples(args)):
        traces.append(clicksim.run_noc(make_predictor(gt, args.seed + idx), features, gt,
                                       args.max_clicks, sample_id))
    summary = clicksim.aggregate(traces, args.max_clicks)
    payload = {
        "protocol_version": clicksim.PROTOCOL_VERSION,
        "predictor": args.predictor,
        "dataset": args.dataset,
        "samples": [t.as_dict() for t in traces],
        "aggregate": summary,
    }
    atomic_write_json(args.out, payload)
    order_gap = max(max(t.noc85 - t.noc90, 0) for t in traces)
    checks = [check("noc/threshold_order", float(order_gap), 0.0)]
    return emit_report(args, {"out": args.out, "aggregate": summary}, checks)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _checked(convert, ok, expected: str):
    """argparse type: ``convert(text)``, a usage error unless ``ok`` accepts it."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_float = _checked(float, lambda v: np.isfinite(v) and v >= 0.0, "a finite number >= 0")


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


def _add_loss_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--smooth", type=float, default=None)
    p.add_argument("--no-ada", action="store_true", help="disable the adaptive exponent")
    p.add_argument("--no-agr", action="store_true", help="disable the gradient rescale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clicklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    loss = sub.add_parser("loss", help="loss evaluation and verification")
    loss_sub = loss.add_subparsers(dest="subcommand", required=True)

    p = loss_sub.add_parser("eval", help="evaluate a loss on a PM/PGM pair")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--loss", required=True)
    _add_loss_params(p)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_loss_eval)

    p = loss_sub.add_parser("grad-check", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=_positive_int, default=100)
    p.add_argument("--loss", default="all", choices=("all",) + gradcheck.CHECKED_LOSSES)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_grad_check)

    p = loss_sub.add_parser("identity-check",
                            help="reduction ladder, normalization, series, residuals")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=_positive_int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_identity_check)

    p = loss_sub.add_parser("curve", help="loss/gradient vs pt over an exponent grid")
    p.add_argument("--gammas", default="0,0.5,1,2,3", type=_checked(
        _floats, lambda gs: all(0.0 <= g <= 5.0 for g in gs), "comma-separated numbers in [0, 5]"))
    p.add_argument("--gamma-a", default="0,0.25,0.5,0.75,1", dest="gamma_a", type=_checked(
        _floats, lambda gs: all(0.0 <= g <= 1.0 for g in gs), "comma-separated numbers in [0, 1]"))
    p.add_argument("--alpha", default=1.0, type=_nonnegative_float)
    p.add_argument("--pt-points", type=_positive_int, default=99, dest="pt_points")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_loss_curve)

    p = sub.add_parser("pt-plot", help="emit the per-pixel confidence map as PM")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_pt_plot)

    p = sub.add_parser("match", help="optimal assignment from costs or instance files")
    p.add_argument("--costs", default=None, help="JSON cost matrix")
    p.add_argument("--instances", default=None, help="directory of pred_*.pm / gt_*.pgm / classes.json")
    for name in _MATCH_WEIGHTS:  # --instances only; the defaults are LossWeights'
        p.add_argument("--" + name.replace("_", "-"), type=_nonnegative_float, dest=name)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_match)

    att = sub.add_parser("attention", help="decoder demos")
    att_sub = att.add_subparsers(dest="subcommand", required=True)
    p = att_sub.add_parser("demo", help="seeded forward pass with invariant checks")
    p.add_argument("--queries", type=int, default=10)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--hw", type=_positive_int, nargs=2, default=(64, 64))
    p.add_argument("--blocks", type=int, default=3)
    p.add_argument("--clicks", type=_checked(int, lambda v: v >= 0, "an integer >= 0"), default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_attention_demo)

    syn = sub.add_parser("synth", help="synthetic data")
    syn_sub = syn.add_subparsers(dest="subcommand", required=True)
    p = syn_sub.add_parser("gen", help="write PGM masks + PM features + metadata")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(handler=cmd_synth_gen)

    tr = sub.add_parser("train", help="pixel-model training")
    tr_sub = tr.add_subparsers(dest="subcommand", required=True)
    p = tr_sub.add_parser("demo", help="train on a synthetic spec; write model + log")
    p.add_argument("--loss", default="afl")
    _add_loss_params(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--optimizer", choices=("sgd", "adam"), default="adam")
    p.add_argument("--instance", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train_demo)

    noc = sub.add_parser("noc", help="click-simulation evaluation")
    noc_sub = noc.add_subparsers(dest="subcommand", required=True)
    p = noc_sub.add_parser("run", help="simulate clicks; write trace JSON")
    p.add_argument("--predictor", required=True,
                   help="oracle | noisy:<rate> | trained:<model.json>")
    p.add_argument("--dataset", required=True, help="sample dir or synth:<spec.json>")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_positive_int, default=20, help="samples for synth datasets")
    p.add_argument("--max-clicks", type=int, default=clicksim.DEFAULT_MAX_CLICKS, dest="max_clicks")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_noc_run)

    return parser


def main(argv=None) -> int:
    effective = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(effective)
    args.argv = effective
    try:
        return args.handler(args)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DimensionError, ParameterError, DomainError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:  # a missing, unreadable or unwritable path
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # a JSON object without a required key
        print(f"input error: missing key {exc}", file=sys.stderr)
        return 2
    except ClickLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
