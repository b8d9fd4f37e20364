"""Span tracing of clicklab's public functions from outside the package.

``Tracer.install`` replaces every public module-level function of every
clicklab module, plus the ``predict`` method of the click-simulation
predictors, with a timing wrapper.  The wrapper is bound under every name
that refers to the original function in any clicklab namespace, so names
imported with ``from .x import y`` are traced too.  ``uninstall`` puts the
originals back, which lets untraced and traced passes alternate in one
process.

Self time comes from a span stack: a span's duration minus the durations
of its direct children.  Work the benchmark does inside a wrapper but
outside the span (counting error components, sizing files) is charged to
no span.  Spans are kept in memory while recording is on and written out
by the caller at the end of the run.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter

import numpy as np
from scipy import ndimage

MODULES = ("core", "fileio", "losses", "adaptive", "gradcheck", "matching",
           "attention", "clicksim", "synthgen", "trainer", "cli")
PREDICTORS = ("OraclePredictor", "ConstantPredictor", "NoisyOraclePredictor", "TrainedPredictor")
_FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)
# fileio functions that name a file in their first argument
_FILE_WRITERS = ("write_pm", "write_pgm", "atomic_write_text", "atomic_write_json")
_FILE_READERS = ("read_pm", "read_pgm")


def error_components(pred, gt) -> int:
    """4-connected false-negative plus false-positive components."""
    p = np.asarray(pred) != 0
    y = np.asarray(gt) != 0
    return (ndimage.label(y & ~p, structure=_FOUR_CONNECTED)[1]
            + ndimage.label(p & ~y, structure=_FOUR_CONNECTED)[1])


class Tracer:
    def __init__(self):
        self.mods = None
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()   # components, bytes
        self.errors = Counter()   # per module
        self.spans: list = []
        self.record_spans = False
        self._stack: list = []    # [span id, child ns]
        self._next_id = 0
        self._saved: list = []    # (owner, attribute, original)

    # -- installing -------------------------------------------------------

    def _targets(self):
        """(span name, original, owners) for every traced callable."""
        found = {}
        for short in MODULES:
            mod = getattr(self.mods, short)
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    found[value] = f"{short}.{attr}"
        owners = {fn: [] for fn in found}
        for mod in (self.mods.package,) + tuple(getattr(self.mods, m) for m in MODULES):
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value in owners:
                    owners[value].append((mod, attr))
        targets = [(name, fn, owners[fn]) for fn, name in found.items()]
        for cls_name in PREDICTORS:
            cls = getattr(self.mods.clicksim, cls_name)
            targets.append(("clicksim.predict", cls.__dict__["predict"], [(cls, "predict")]))
        return targets

    def install(self, mods) -> None:
        """Wrap the functions of ``mods``, the namespace of clicklab modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.mods = mods
        for name, fn, owners in self._targets():
            wrapper = self._wrap(name, fn)
            for owner, attr in owners:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _exclude(self, ns: int) -> None:
        if self._stack:
            self._stack[-1][1] += ns

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        func = name.split(".", 1)[1]
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self
        components = name == "clicksim.next_click"
        sized = module == "fileio" and func in _FILE_WRITERS + _FILE_READERS
        counter = "fileio.bytes_written" if func in _FILE_WRITERS else "fileio.bytes_read"

        def wrapper(*args, **kwargs):
            if components:
                h0 = clock()
                tracer.counts["clicksim.next_click.components"] += error_components(*args[:2])
                tracer._exclude(clock() - h0)
            outer_file_call = sized and not (stack and stack[-1][2] == "fileio")
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            t0 = clock()
            stack.append([span_id, 0, module])
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[module] += 1
                raise
            finally:
                t1 = clock()
                _, child_ns, _ = stack.pop()
                tracer.calls[name] += 1
                tracer.self_ns[name] += t1 - t0 - child_ns
                if stack:
                    stack[-1][1] += t1 - t0
                if tracer.record_spans:
                    tracer.spans.append((span_id, parent, name, t0, t1))
                if outer_file_call:
                    h0 = clock()
                    path = args[0] if args else kwargs.get("path")
                    if os.path.exists(path):
                        tracer.counts[counter] += os.path.getsize(path)
                    tracer._exclude(clock() - h0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def snapshot(self) -> dict:
        """Copy of the counters, for per-pass differences."""
        return {"calls": Counter(self.calls), "self_ns": Counter(self.self_ns),
                "counts": Counter(self.counts), "errors": Counter(self.errors)}

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def diff(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}
