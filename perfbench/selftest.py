"""Quick self-test of the benchmark, with no test framework.

Runs every workload once at its reduced size, untraced and traced, and
checks that each run is correct and emits exactly the metric names and units
that BENCHMARK.json declares.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys

import run  # sets the BLAS thread variables before numpy loads


def declared() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_run(name: str, trace: bool, expected: dict) -> list[str]:
    problems = []
    result = run.measure(name, seed=1, seconds=0, trace=trace, quick=True)["result"]
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for metric, unit in expected.items():
        got = metrics.get(metric)
        if got is None:
            continue
        if got["unit"] != unit:
            problems.append(f"{metric}: unit {got['unit']!r}, declared {unit!r}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{metric}: end-to-end value {value!r} is not positive")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    end_to_end, per_layer = declared()
    if end_to_end != run.END_TO_END or per_layer != run.PER_LAYER:
        print("FAIL BENCHMARK.json metrics differ from run.END_TO_END / run.PER_LAYER")
        return 1
    failures = 0
    for name in sorted(run.WORKLOADS):
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            problems = check_run(name, trace, expected)
            label = f"{name} trace={int(trace)}"
            print(f"{'FAIL' if problems else 'PASS'} {label}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
