"""Span recording around heatavg's public functions, and per-layer aggregation.

A `Tracer` wraps each function in `TARGETS` wherever a heatavg module has
bound it (the defining module, the modules that import it, and the package
namespace), so a call made by any layer opens a span.  Spans nest by call
order; a span's self time is its duration minus the durations of its direct
children.  Nothing inside ``src/`` is changed: `install` swaps module
attributes and its return value puts them back.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

# module -> public functions whose calls open a span named "<module>.<function>"
TARGETS = {
    "basis": ("build_eigensystem", "project", "synthesize"),
    "forward": ("average_from_source", "weighted_average", "solve_forward"),
    "weights": ("stability_constants",),
    "inverse": ("solve_inverse", "recover_initial"),
    "oracle": ("step_evolution", "time_average"),
    "fileio": ("write_field_csv", "write_grid_csv", "read_space_time_csv",
               "read_grid_csv", "load_config"),
    "cli": ("main",),
}
METHODS = {"weights.multiplier": ("weights", "WeightSpec", "multiplier")}
FUNCTIONS = tuple(f"{m}.{f}" for m, names in TARGETS.items() for f in names) + tuple(METHODS)

# spans the CLI workloads add around the child process: start-up, fresh
# `import heatavg`, and shutdown after `cli.main` returns
PHASES = ("cli.interpreter", "cli.import", "cli.exit")


def _file_bytes(key):
    def count(args, result):
        return {key: os.path.getsize(args[0])}
    return count


def _matrix_bytes(args, result):
    return {"matrix_bytes": result.modes.nbytes}


def _steps(args, result):
    steps = result.times.size - 1
    return {"steps": steps, "cells": steps * (result.grid.n_nodes - 2)}


# per-call counters, recorded on the span of the call
COUNTERS = {
    "basis.build_eigensystem": _matrix_bytes,
    "oracle.step_evolution": _steps,
    "fileio.write_field_csv": _file_bytes("bytes_written"),
    "fileio.write_grid_csv": _file_bytes("bytes_written"),
    "fileio.read_space_time_csv": _file_bytes("bytes_read"),
    "fileio.read_grid_csv": _file_bytes("bytes_read"),
    "fileio.load_config": _file_bytes("bytes_read"),
}


# per-layer metric -> the counter it reports
COUNTER_METRICS = {"basis.matrix_bytes": "matrix_bytes", "oracle.steps": "steps",
                   "fileio.bytes_written": "bytes_written", "fileio.bytes_read": "bytes_read"}


class Tracer:
    """In-memory span list; `op` tags every span opened until it changes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    def record(self, name, start, end):
        """Add a top-level span measured outside the wrappers."""
        self.spans.append({"name": name, "op": self.op, "parent": None,
                           "start": start, "end": end, "counts": {}})

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(args, result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every target where heatavg binds it; return a function that undoes it."""
    for mod_name in TARGETS:
        importlib.import_module(f"heatavg.{mod_name}")
    modules = [m for n, m in sys.modules.items() if n == "heatavg" or n.startswith("heatavg.")]
    undo = []
    for mod_name, names in TARGETS.items():
        home = sys.modules[f"heatavg.{mod_name}"]
        for fn_name in names:
            fn = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, fn))
    for name, (mod_name, cls_name, meth) in METHODS.items():
        cls = getattr(sys.modules[f"heatavg.{mod_name}"], cls_name)
        fn = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(name, fn))
        undo.append((cls, meth, fn))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_op(spans: list[dict]) -> dict:
    """Sum self time, calls and counters per op id and span name."""
    ops: dict = {}
    for s, own in zip(spans, self_times(spans)):
        row = ops.setdefault(s["op"], {"self": {}, "calls": {}, "counts": {}, "top": 0.0})
        row["self"][s["name"]] = row["self"].get(s["name"], 0.0) + own
        row["calls"][s["name"]] = row["calls"].get(s["name"], 0) + 1
        for key, value in s["counts"].items():
            row["counts"][key] = row["counts"].get(key, 0) + value
        if s["parent"] is None:
            row["top"] += s["end"] - s["start"]
    return ops


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer values: the median over traced ops of each per-op total.

    A layer an op never calls contributes 0 for that op, so every name is
    always present.
    """
    ops = list(per_op(spans).values())
    if not ops:
        raise ValueError("no traced ops")

    def med(values):
        return float(statistics.median(values))

    out = {}
    for name in FUNCTIONS:
        out[f"{name}.self_s"] = med([o["self"].get(name, 0.0) for o in ops])
        out[f"{name}.calls"] = med([o["calls"].get(name, 0) for o in ops])
    for name in PHASES:
        out[f"{name}_s"] = med([o["self"].get(name, 0.0) for o in ops])
    for name, key in COUNTER_METRICS.items():
        out[name] = med([o["counts"].get(key, 0) for o in ops])
    rates = []
    for o in ops:
        busy = o["self"].get("oracle.step_evolution", 0.0)
        rates.append(o["counts"].get("cells", 0) / busy if busy > 0.0 else 0.0)
    out["oracle.cell_updates_per_s"] = med(rates)
    out["trace.accounted_s"] = med([o["top"] for o in ops])
    return out
