"""clicklab benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload noc_noisy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from the
traced ones (see tracer.py) plus the tracing overhead.  Every run first sets
up its inputs several times, runs one untimed reference pass that also runs
the expensive correctness checks, then repeats passes, each after one more
set-up, until ``--seconds`` of measuring have elapsed.  Every pass must
reproduce the reference pass's output digest.  ``--workload all`` runs each
workload in a child process of its own.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Before it come a detail
object with the environment, the output digest, the workload's own
throughput names and ``failed_frac``, and one line per metric.  The result
and the detail are also written under ``.perfbench-out/``, together with the
spans of the first traced pass.
"""

from __future__ import annotations

import os

# One process, no extra threads: keep OpenBLAS from starting its pool.  Set
# before numpy is imported; the values are reported in the environment block.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_FIRST = 5       # set-ups before the reference pass; one more precedes each pass
MAX_FAILED_PASSES = 3

from tracer import MODULES, Tracer, diff  # noqa: E402
from workloads import WORKLOADS, Gate, draw_data_seeds  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LAYER_FUNCTIONS = {
    "clicksim.next_click": ("calls", "self_s"),
    "clicksim.encode_clicks": ("calls", "self_s"),
    "clicksim.interior_point": ("self_s",),
    "clicksim.predict": ("self_s",),
    "core.as_binary_mask": ("calls", "self_s"),
    "core.as_prob_map": ("calls", "self_s"),
    "losses.powlog_kernel": ("calls", "self_s"),
    "losses.dice": ("self_s",),
    "losses.aux_loss": ("self_s",),
    "adaptive.afl": ("calls", "self_s"),
    "gradcheck.central_difference_grad": ("calls", "self_s"),
    "fileio.write_pm": ("self_s",),
    "fileio.read_pm": ("self_s",),
    "fileio.write_pgm": ("self_s",),
    "fileio.read_pgm": ("self_s",),
    "matching.hungarian": ("calls", "self_s"),
    "matching.pair_cost": ("calls", "self_s"),
    "matching.total_loss": ("self_s",),
    "attention.build_feature_stack": ("self_s",),
    "attention.camd_layer": ("calls", "self_s"),
    "attention.predict_heads": ("self_s",),
    "attention.stack_attn_masks": ("self_s",),
    "synthgen.generate": ("calls", "self_s"),
    "trainer.train": ("self_s",),
    "cli.main": ("self_s",),
}
_COUNTERS = ("clicksim.next_click.components", "fileio.bytes_written", "fileio.bytes_read")
_UNITS = {"calls": "count", "self_s": "s"}

PER_LAYER = {}
for _fn, _kinds in _LAYER_FUNCTIONS.items():
    for _kind in _kinds:
        PER_LAYER[f"{_fn}.{_kind}"] = _UNITS[_kind]
for _name in _COUNTERS:
    PER_LAYER[_name] = "B" if _name.startswith("fileio.") else "count"
for _mod in MODULES:
    PER_LAYER[f"{_mod}.self_s"] = "s"
    PER_LAYER[f"{_mod}.errors"] = "count"
PER_LAYER["trace.overhead_frac"] = "ratio"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_clicklab():
    """Import every clicklab module afresh; returns them as a namespace."""
    for name in [n for n in sys.modules if n == "clicklab" or n.startswith("clicklab.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace(package=importlib.import_module("clicklab"))
    for short in MODULES:
        setattr(mods, short, importlib.import_module(f"clicklab.{short}"))
    return mods


class SetUp:
    """Imports clicklab afresh and builds the workload's inputs, timing each.

    Third-party modules stay loaded between set-ups (the untimed import in
    ``__init__`` loads them first), so the timed part is clicklab's own
    import plus the input building.  Choosing valid sample seeds is the
    benchmark's own bookkeeping and is not timed.  Every pass runs on the
    workload of the set-up just before it, so the set-ups are spread over
    the run like the passes are, and no pass mixes modules from two imports.
    """

    def __init__(self, name: str, seed: int, quick: bool, workdir: str, gate: Gate):
        self.args = (seed, quick, workdir, gate)
        self.cls = WORKLOADS[name]
        self.data_seeds, self.skipped = draw_data_seeds(import_clicklab(), name, seed, quick)
        self.times: list = []

    def __call__(self):
        gc.collect()  # the previous import's modules are cyclic garbage
        t0 = time.perf_counter()
        mods = import_clicklab()
        workload = self.cls(mods, *self.args, self.data_seeds)
        self.times.append(time.perf_counter() - t0)
        return workload


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_"))},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def run_pass(workload, gate: Gate, reference_digest, reference: bool = False):
    try:
        result = workload.run_pass(reference)
    except Exception:
        traceback.print_exc()
        gate.note(False, f"{workload.name} pass raised")
        return None
    if reference_digest is not None:
        gate.note(result.digest == reference_digest,
                  f"{workload.name} digest {result.digest} != reference {reference_digest}")
    return result


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One workload's run.  A failure anywhere is counted by the gate and
    ends the measuring; the result is still returned, with ``correct`` false
    and only the metrics that could be computed."""
    env = environment(seed)
    gate = Gate()
    workdir = str(OUT / "work" / f"{name}-{os.getpid()}")
    set_up = reference = None
    plain, traced, layer_passes = [], [], []
    tracer = Tracer() if trace else None
    try:
        set_up = SetUp(name, seed, quick, workdir, gate)
        for _ in range(SETUP_FIRST):
            workload = set_up()
        reference = run_pass(workload, gate, None, reference=True)
        failed_passes = 0
        t_start = time.perf_counter()
        while reference is not None and (
                not plain or (trace and not traced) or time.perf_counter() - t_start < seconds):
            workload = set_up()
            if trace and len(traced) < len(plain):
                before = tracer.snapshot()
                tracer.record_spans = not traced
                tracer.install(workload.mods)
                try:
                    result = run_pass(workload, gate, reference.digest)
                finally:
                    tracer.uninstall()
                if result is not None:
                    traced.append(result)
                    layer_passes.append(diff(tracer.snapshot(), before))
            else:
                result = run_pass(workload, gate, reference.digest)
                if result is not None:
                    plain.append(result)
            failed_passes += result is None
            if failed_passes > MAX_FAILED_PASSES:
                print(f"perfbench: {name}: {failed_passes} passes failed; measuring stopped",
                      file=sys.stderr)
                break
    except Exception:
        traceback.print_exc()
        gate.note(False, f"{name} run raised")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "workload": name,
        "environment": env,
        "digest": reference.digest if reference else None,
        "passes": len(plain),
        "pass_wall_s": [r.wall_s for r in plain],
        "failed_frac": gate.failed / gate.attempted,
        "skipped_seeds": set_up.skipped if set_up else None,
        "setups": len(set_up.times) if set_up else 0,
    }
    metrics = {}
    if plain:
        detail["stage_s"] = {k: statistics.median(r.stages[k] for r in plain)
                             for k in reference.stages}
        for key in reference.rates:
            detail[key] = statistics.median(r.rates[key] for r in plain)
        latencies = [v for r in plain for v in r.latencies_ms]
        if latencies:
            detail["iter_ms.p50"] = statistics.median(latencies)
            detail["iter_ms.p90"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
            detail["iter_ms.samples"] = len(latencies)
        if not trace:
            metrics = {
                "setup_s": statistics.median(set_up.times),
                "wall_s": statistics.median(r.wall_s for r in plain),
                "ops_per_s": statistics.median(r.ops / r.ops_s for r in plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    if trace and traced:
        metrics, layer_detail = layer_metrics(layer_passes, traced, plain)
        detail.update(layer_detail)
        detail["traced_passes"] = len(traced)
        tracer.write_spans(str(OUT / "spans" / f"{name}-seed{seed}.jsonl"))
    units = PER_LAYER if trace else END_TO_END
    return {
        "detail": detail,
        "result": {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()},
        },
    }


def layer_metrics(layer_passes, traced, plain):
    """Per-pass medians of the traced counters, plus shares for the detail."""
    def med(fn):
        return statistics.median(fn(p) for p in layer_passes)

    metrics = {}
    for fn_name, kinds in _LAYER_FUNCTIONS.items():
        if "calls" in kinds:
            metrics[f"{fn_name}.calls"] = med(lambda p: p["calls"][fn_name])
        if "self_s" in kinds:
            metrics[f"{fn_name}.self_s"] = med(lambda p: p["self_ns"][fn_name] / 1e9)
    for counter in _COUNTERS:
        metrics[counter] = med(lambda p: p["counts"][counter])
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = med(lambda p: sum(
            ns for fn_name, ns in p["self_ns"].items() if fn_name.split(".")[0] == mod) / 1e9)
        metrics[f"{mod}.errors"] = sum(p["errors"][mod] for p in layer_passes)
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    by_fn = Counter()
    for p in layer_passes:
        by_fn.update(p["self_ns"])
    total_self = sum(by_fn.values())
    top = [[fn_name, ns / total_self] for fn_name, ns in by_fn.most_common(8)]
    modules = {mod: metrics[f"{mod}.self_s"] for mod in MODULES}
    module_total = sum(modules.values())
    detail = {
        "top_self_share": top,
        "module_self_share": {m: v / module_total for m, v in modules.items() if v > 0},
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run each workload in a child process of its own, one after another.

    A process's peak resident set size never goes down, so only a process
    per workload gives each workload its own ``peak_rss_mb``.
    """
    runs = {}
    for name in sorted(WORKLOADS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            runs[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            runs[name] = None
        if child.returncode != 0 or runs[name] is None:
            print(f"perfbench: {name} exited {child.returncode}", file=sys.stderr)
            runs[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {f"{n}.{k}": v for n, r in runs.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clicklab" / "__init__.py").is_file():
        print(f"perfbench: no clicklab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    name = args.workload
    run = measure(name, args.seed, args.seconds, bool(args.trace))
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(run, indent=2) + "\n")
    print(json.dumps(run["detail"]))
    for metric, m in run["result"]["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
