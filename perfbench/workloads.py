"""The four seeded workloads.

Each workload builds its inputs in ``__init__`` (the timed set-up) from the
workload seed and the sample seeds ``draw_data_seeds`` derived from it, and
then runs identical passes over them.  A pass returns its
timed wall seconds, the unit of work it completed and the seconds of the
stage that did that work, a digest of its outputs, and the outcome of every
correctness check.  Digests and checks are computed outside the timed
region.

CLI-driven workloads call ``clicklab.cli.main(argv)`` in-process with stdout
captured, exactly as the ``clicklab`` console script would run them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback

import numpy as np
from scipy.optimize import linear_sum_assignment

# Workload sizes: "full" is what the benchmark measures, "quick" is the
# self-test's reduced size.
SIZES = {
    "noc_noisy": {"full": {"hw": 128, "count": 1, "max_clicks": 20},
                  "quick": {"hw": 48, "count": 1, "max_clicks": 4}},
    "pipeline_trained": {"full": {"hw": 128, "count": 3, "steps": 500},
                         "quick": {"hw": 48, "count": 1, "steps": 20}},
    "decode_match": {"full": {"hw": 128, "samples": 8, "queries": 40, "dim": 16, "blocks": 3},
                     "quick": {"hw": 64, "samples": 2, "queries": 8, "dim": 8, "blocks": 1}},
    "verify_suite": {"full": {"cases": 20, "identity_cases": 100},
                     "quick": {"cases": 1, "identity_cases": 5}},
}
OPTIMALITY_RTOL = 1e-9
MAX_SKIPPED_SEEDS = 100


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Gate:
    """Counts attempted and failed operations; reports the first failures."""

    MAX_REPORTED = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def note(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= self.MAX_REPORTED:
                print(f"perfbench: failed operation: {what}", file=sys.stderr)


class PassResult:
    def __init__(self):
        self.wall_s = 0.0
        self.ops = 0            # units of work (clicks, iterations, cases)
        self.ops_s = 0.0        # seconds of the stage that did them
        self.stages: dict = {}  # stage name -> seconds
        self.rates: dict = {}   # named throughputs for the detail report
        self.latencies_ms: list = []
        self.digest = ""


class Workload:
    name = ""

    def __init__(self, mods, seed: int, quick: bool, workdir: str, gate: Gate, data_seeds: list):
        self.mods = mods
        self.seed = int(seed)
        self.size = SIZES[self.name]["quick" if quick else "full"]
        self.data_seeds = data_seeds
        self.fields = self.sample_plan(self.size)[2]
        self.workdir = workdir
        self.gate = gate
        os.makedirs(workdir, exist_ok=True)

    @classmethod
    def sample_plan(cls, size: dict) -> tuple[int, int, dict]:
        """(seed draws, consecutive samples per draw, synthgen spec fields)."""
        return 0, 0, {}

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def write_spec(self, **fields) -> str:
        path = self.path("spec.json")
        with open(path, "w") as fh:
            json.dump(fields, fh)
        return path

    def cli(self, result: PassResult, stage: str, argv: list, outputs: tuple = ()):
        """Run one CLI command; returns its parsed report or None.

        The files and directories in ``outputs`` are removed first, so that a
        failing command cannot leave an earlier pass's outputs to be read.
        """
        for path in outputs:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.mods.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        dt = time.perf_counter() - t0
        result.wall_s += dt
        result.stages[stage] = result.stages.get(stage, 0.0) + dt
        self.gate.note(code == 0, f"clicklab {' '.join(argv)} exited {code}")
        try:
            report = json.loads(buf.getvalue())
        except ValueError:
            return None
        for check in report.get("invariant_checks", []):
            self.gate.note(bool(check["pass"]), f"invariant {check['name']}: {check}")
        return report

    def run_pass(self, reference: bool) -> PassResult:
        """One pass; ``reference`` marks the untimed warm-up pass."""
        raise NotImplementedError


def _trace_outputs(path: str):
    with open(path) as fh:
        trace = json.load(fh)
    clicks = [s["clicks"] for s in trace["samples"]]
    return sum(len(c) for c in clicks), {"aggregate": trace["aggregate"], "clicks": clicks}


class NocNoisy(Workload):
    """``noc run`` with the 5 %-flip noisy oracle on 2-instance blobs."""

    name = "noc_noisy"

    @classmethod
    def sample_plan(cls, size):
        hw = size["hw"]
        return 1, size["count"], dict(height=hw, width=hw, n_instances=2, shape_kind="blob",
                                      boundary_noise=1.0)

    def __init__(self, *args):
        super().__init__(*args)
        data_seed = self.data_seeds[0]
        spec = self.write_spec(**self.fields, seed=data_seed)
        self.argv = ["noc", "run", "--predictor", "noisy:0.05", "--dataset", f"synth:{spec}",
                     "--seed", str(data_seed), "--count", str(self.size["count"]),
                     "--max-clicks", str(self.size["max_clicks"]), "--out", self.path("trace.json")]

    def run_pass(self, reference: bool) -> PassResult:
        result = PassResult()
        self.cli(result, "noc", self.argv, outputs=(self.path("trace.json"),))
        clicks, outputs = _trace_outputs(self.path("trace.json"))
        result.ops, result.ops_s = clicks, result.stages["noc"]
        result.rates = {"clicks_per_s": clicks / result.ops_s}
        result.digest = sha256_json(outputs)
        return result


class PipelineTrained(Workload):
    """The README pipeline: synth gen -> train demo -> noc run (trained)."""

    name = "pipeline_trained"

    @classmethod
    def sample_plan(cls, size):
        hw = size["hw"]
        return 1, size["count"], dict(height=hw, width=hw, n_instances=2, shape_kind="blob",
                                      boundary_noise=0.0)

    def __init__(self, *args):
        super().__init__(*args)
        data_seed = self.data_seeds[0]
        spec = self.write_spec(**self.fields, seed=data_seed)
        data, run = self.path("data"), self.path("run")
        self.steps = self.size["steps"]
        self.commands = [
            ("synth", ["synth", "gen", "--spec", spec, "--out", data,
                       "--count", str(self.size["count"])], (data,)),
            ("train", ["train", "demo", "--loss", "afl", "--optimizer", "adam",
                       "--steps", str(self.steps), "--spec", spec, "--out", run], (run,)),
            ("noc", ["noc", "run", "--predictor", f"trained:{os.path.join(run, 'model.json')}",
                     "--dataset", data, "--seed", str(data_seed),
                     "--out", self.path("trace.json")], (self.path("trace.json"),)),
        ]

    def run_pass(self, reference: bool) -> PassResult:
        result = PassResult()
        for stage, argv, outputs in self.commands:
            self.cli(result, stage, argv, outputs)
        clicks, outputs = _trace_outputs(self.path("trace.json"))
        with open(self.path("run", "model.json")) as fh:
            outputs["model"] = json.load(fh)
        with open(self.path("run", "log.csv")) as fh:
            outputs["log_csv"] = fh.read()
        # The steps are fixed work; the click count depends on how well the
        # seeded model does, so it would make ops_per_s vary from seed to seed.
        result.ops, result.ops_s = self.steps, result.stages["train"]
        result.rates = {"clicks_per_s": clicks / result.stages["noc"],
                        "train_steps_per_s": self.steps / result.stages["train"]}
        result.digest = sha256_json(outputs)
        return result


class DecodeMatch(Workload):
    """Decoder forward plus Hungarian matching, one iteration per sample."""

    name = "decode_match"

    @classmethod
    def sample_plan(cls, size):
        hw = size["hw"]
        return size["samples"], 1, dict(height=hw, width=hw, n_instances=3, shape_kind="ellipse")

    def __init__(self, *args):
        super().__init__(*args)
        m = self.mods
        self.params = m.attention.AttentionParams.initialize(
            self.size["queries"], self.size["dim"], self.seed)
        embed_hw = self.size["hw"] // 4  # the decoder's pixel embedding sits at 1/4 resolution
        self.samples = []
        for data_seed in self.data_seeds:
            sample = m.synthgen.generate(m.synthgen.SynthSpec(seed=data_seed, **self.fields))
            click = m.clicksim.first_click(sample.gt_instances[0])
            gts = [m.matching.GroundTruthInstance(
                       m.attention.resize_nearest(mask, embed_hw, embed_hw), np.array([1.0, 0.0]))
                   for mask in sample.gt_instances]
            self.samples.append((sample.feature_map[..., 3], click, gts))

    def run_pass(self, reference: bool) -> PassResult:
        attention, matching = self.mods.attention, self.mods.matching
        result = PassResult()
        outputs = []
        for image, click, gts in self.samples:
            t0 = time.perf_counter()
            try:
                scales, embed = attention.build_feature_stack(image, [click], self.size["dim"], self.seed)
                preds = attention.camd_forward(scales, embed, self.params, self.size["blocks"])
                total, match, _ = matching.total_loss(preds, gts)
            except Exception:
                traceback.print_exc()
                self.gate.note(False, "decode_match iteration raised")
                continue
            finally:
                dt = time.perf_counter() - t0
                result.wall_s += dt
                result.latencies_ms.append(dt * 1e3)
            self.gate.note(True, "decode_match iteration")
            outputs.append([match.assignment, repr(match.total_cost), repr(total)])
            if reference:
                self.check_optimal(preds, gts, match)
        result.ops, result.ops_s = len(outputs), result.wall_s
        result.rates = {"iters_per_s": result.ops / result.ops_s}
        result.digest = sha256_json(outputs)
        return result

    def check_optimal(self, preds, gts, match) -> None:
        """The assignment's cost must equal scipy's optimum on the same matrix."""
        cost = np.array([[self.mods.matching.pair_cost(p, g) for g in gts] for p in preds])
        rows, cols = linear_sum_assignment(cost)
        optimum = float(cost[rows, cols].sum())
        excess = match.total_cost - optimum
        self.gate.note(excess <= OPTIMALITY_RTOL * abs(optimum),
                       f"hungarian total_cost {match.total_cost!r} exceeds optimum {optimum!r}")


class VerifySuite(Workload):
    """``loss grad-check`` then ``loss identity-check`` on 4x4 to 8x8 maps."""

    name = "verify_suite"

    def __init__(self, *args):
        super().__init__(*args)
        seed = str(self.seed)
        self.commands = [
            ("grad_check", ["loss", "grad-check", "--seed", seed, "--cases", str(self.size["cases"])]),
            ("identity_check", ["loss", "identity-check", "--seed", seed,
                                "--cases", str(self.size["identity_cases"])]),
        ]

    def run_pass(self, reference: bool) -> PassResult:
        result = PassResult()
        reports = [self.cli(result, stage, argv) for stage, argv in self.commands]
        grad, ident = (r or {"results": {}, "invariant_checks": []} for r in reports)
        suite = grad["results"].get("suite", [])
        result.ops = sum(row["cases"] for row in suite)
        result.ops_s = result.stages["grad_check"]
        result.rates = {"gradcheck_cases_per_s": result.ops / result.ops_s}
        result.digest = sha256_json({
            "grad_max_rel_err": [repr(row["max_rel_err"]) for row in suite],
            "identity_residuals": [repr(c["measured"]) for c in ident["invariant_checks"]],
            "chebyshev_sweep": [repr(v) for v in ident["results"].get("chebyshev_residual_sweep", [])],
        })
        return result


WORKLOADS = {cls.name: cls for cls in (NocNoisy, PipelineTrained, DecodeMatch, VerifySuite)}


def draw_data_seeds(mods, name: str, seed: int, quick: bool) -> tuple[list, int]:
    """The sample seeds a workload's inputs use, drawn from ``seed``.

    Each draw is the first of a run of consecutive sample seeds that must all
    generate.  synthgen raises GenerationError when it cannot place the
    instances within its bounded retries (about 1 % of seeds for two 128²
    blobs).  Such a spec and seed are not a valid input, so the draw is
    skipped.  Returns the seeds and the number skipped.
    """
    cls = WORKLOADS[name]
    draws, count, fields = cls.sample_plan(SIZES[name]["quick" if quick else "full"])
    rng = np.random.default_rng(seed)
    seeds, skipped = [], 0
    while len(seeds) < draws:
        first = int(rng.integers(0, 2 ** 31))
        try:
            for i in range(count):
                mods.synthgen.generate(mods.synthgen.SynthSpec(seed=first + i, **fields))
        except mods.core.GenerationError:
            skipped += 1
            if skipped > MAX_SKIPPED_SEEDS:
                raise RuntimeError(f"{name}: {skipped} sample seeds failed to generate")
            continue
        seeds.append(first)
    return seeds, skipped
