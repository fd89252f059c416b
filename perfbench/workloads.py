"""The heatavg workloads: seeded inputs, one timed operation, its check.

Each workload is a closed loop with one client.  Its constructor generates
every input from the seeded generator (untimed, outside ``setup_s``);
`setup_samples` times the one-time set-up a user pays; `run_op` times one
operation and checks its output.  Library workloads call ``heatavg.*`` in
this process; CLI workloads run ``python -m heatavg`` (or `shim.py` when
the op is traced) as a child process, started through `launch.py` so that
its own peak RSS is measured.

Why these three:

- ``source_inverse``: the Duhamel loop and both Gauss quadratures in
  ``forward`` are nearly all of the op, so a faster source path shows here;
  it touches no file and starts no process.
- ``oracle_verify``: Crank-Nicolson stepping is nearly all of the op, and
  ``forward`` is not on it, so a change there should leave it unmoved.  Its
  spectral reference with long source ramps is also the check that would
  catch a wrong ``forward``: the round trip of ``source_inverse`` cannot.
- ``cli_oracle``: the shell path users run.  Interpreter start, import,
  oracle stepping, reading a large space-time CSV and writing the field CSV
  make up the op.  With the other two it covers every module.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import heatavg as ha
from spans import Tracer, install

HERE = Path(__file__).resolve().parent
LENGTH = 2.0 * math.pi
HORIZON = 0.1
QUASI_EPS = 0.01
OP_TIMEOUT_S = 120.0

# full size, and the reduced size of the smoke mode
SIZES = {
    "full": {"nodes": 1025, "modes": 300, "times": 129, "steps": 2048, "knots": 9,
             "phi_knots": 129, "setups": 3},
    "smoke": {"nodes": 129, "modes": 40, "times": 17, "steps": 128, "knots": 5,
              "phi_knots": 17, "setups": 1},
}

# criterion 1 of the acceptance suite: recovered coefficients to 1e-10 relative
ROUND_TRIP_GATE = 1e-10
# rows of each output CSV whose bytes are checked against '.17g' formatting
FORMAT_ROWS = 2048


@dataclass
class OpResult:
    seconds: float
    ok: bool
    rel_err: float | None  # None when the output could not be compared at all
    problem: str = ""


def sines(grid: ha.Grid, count: int) -> np.ndarray:
    """Rows sin(k*pi*x/L), k = 1..count: exact Dirichlet modes of the constant operator."""
    k = np.arange(1, count + 1)
    return np.sin(np.outer(k, grid.nodes) * math.pi / grid.length)


def weight_mix(rng) -> dict[str, ha.WeightSpec]:
    """Running average, quasi-boundary, and a seeded 8-piece weight with kappa > 0."""
    edges = np.sort(np.concatenate([[0.0, HORIZON], rng.uniform(0.0, HORIZON, 7)]))
    pieces = tuple((float(edges[i]), float(edges[i + 1]), float(rng.uniform(0.2, 4.0)))
                   for i in range(edges.size - 1))
    return {
        "average": ha.WeightSpec.average(HORIZON),
        "quasi": ha.WeightSpec.quasi_boundary(HORIZON, QUASI_EPS),
        "piecewise": ha.WeightSpec.from_pieces(float(rng.uniform(0.3, 1.5)), pieces, HORIZON),
    }


def rel_l2(values, reference, grid: ha.Grid) -> float:
    w = grid.trapezoid_weights()
    diff = np.asarray(values) - np.asarray(reference)
    return math.sqrt(float(np.sum(w * diff**2)) / float(np.sum(w * np.asarray(reference) ** 2)))


def write_csv(path: Path, header: str, columns) -> None:
    """Same bytes as heatavg's writers: '%.17g', comma separated, one header line."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")


def read_csv(text: str, header: str, columns: int) -> np.ndarray:
    """Parse a heatavg CSV and check that its leading rows carry all 17 digits."""
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError(f"header {first!r}, expected {header!r}")
    data = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, columns)
    lines = body.split("\n", FORMAT_ROWS)[:FORMAT_ROWS]
    expected = [",".join(format(v, ".17g") for v in row) for row in data[:FORMAT_ROWS]]
    if lines[:len(expected)] != expected:
        raise ValueError("numbers are not printed with '.17g'")
    return data


class Workload:
    """Inputs, set-up and operation of one workload."""

    name = ""
    kinds: tuple[str, ...] = ("op",)
    gate = 0.0

    def __init__(self, size: dict, work: Path):
        self.size = size
        self.work = work
        self.props: dict = {}

    def setup_samples(self) -> tuple[list[float], bool]:
        raise NotImplementedError

    def run_op(self, kind: str, tracer: Tracer | None) -> OpResult:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work: here, this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# -- library workloads ------------------------------------------------------

class LibraryWorkload(Workload):
    weights: dict[str, ha.WeightSpec]

    def setup_samples(self):
        spec = json.dumps({
            "length": LENGTH, "nodes": self.size["nodes"], "modes": self.size["modes"],
            "weights": [[ws.kappa, ws.pieces, ws.horizon, ws.t1] for ws in self.weights.values()],
        })
        samples = []
        for _ in range(self.size["setups"]):
            proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), spec],
                                  capture_output=True, text=True, timeout=OP_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            samples.append(json.loads(proc.stdout)["setup_s"])
        return samples, True

    def run_op(self, kind, tracer):
        uninstall = install(tracer) if tracer is not None else None
        try:
            start = time.perf_counter()
            output = self.op(kind)
            seconds = time.perf_counter() - start
        finally:
            if uninstall is not None:
                uninstall()
        err, problem = self.check(kind, output)
        return OpResult(seconds, not problem and err <= self.gate, err, problem)


class SourceInverse(LibraryWorkload):
    """``solve_inverse`` with a 9-knot source; recovered coefficients vs the truth."""

    name = "source_inverse"
    kinds = ("average", "quasi", "piecewise")
    gate = ROUND_TRIP_GATE

    def __init__(self, rng, size, work):
        super().__init__(size, work)
        grid = ha.Grid.uniform(LENGTH, size["nodes"])
        self.es = ha.build_eigensystem(ha.OperatorSpec.constant(LENGTH), grid, size["modes"])
        self.weights = weight_mix(rng)
        knots = np.linspace(0.0, HORIZON, size["knots"])
        history = rng.standard_normal((knots.size, 5)) @ sines(grid, 5)
        self.src = ha.SourceTerm.from_grid_history(grid, knots, history, es=self.es)
        # criterion 1's truth: standard normal coefficients in every retained mode
        self.truth = rng.standard_normal(self.es.n_modes)
        xi = ha.SpectralVector(self.es, self.truth)
        self.mu = {}
        for kind, ws in self.weights.items():
            gamma = (ha.average_from_initial(xi, ws).coeffs
                     + ha.average_from_source(self.src, ws, self.es).coeffs)
            self.mu[kind] = ha.synthesize(ha.SpectralVector(self.es, gamma), self.es)
        self.times = np.linspace(0.0, HORIZON, size["times"])
        self.props = {"operator": "constant", "nodes": size["nodes"], "modes": size["modes"],
                      "knots": size["knots"], "times": size["times"],
                      "weights": {k: _describe(ws) for k, ws in self.weights.items()}}

    def op(self, kind):
        return ha.solve_inverse(self.mu[kind], self.src, self.weights[kind], self.es,
                                times=self.times)

    def check(self, kind, output):
        field, rep = output
        if field.values.shape != (self.times.size, self.es.grid.n_nodes):
            return None, "field has the wrong shape"
        if not np.all(np.isfinite(field.values)):
            return None, "field is not finite"
        err = float(np.linalg.norm(rep.xi.coeffs - self.truth) / np.linalg.norm(self.truth))
        return err, ""


class OracleVerify(LibraryWorkload):
    """Crank-Nicolson stepping plus ``time_average`` vs a spectral reference average."""

    name = "oracle_verify"
    kinds = ("average", "quasi", "piecewise")

    def __init__(self, rng, size, work):
        super().__init__(size, work)
        grid = ha.Grid.uniform(LENGTH, size["nodes"])
        self.op_spec = ha.OperatorSpec.constant(LENGTH)
        es = ha.build_eigensystem(self.op_spec, grid, size["modes"])
        self.weights = weight_mix(rng)
        modes = sines(grid, 8)
        self.xi = ha.GridFunction(grid, (rng.standard_normal(8) / np.arange(1, 9)) @ modes)
        knots = np.linspace(0.0, HORIZON, size["knots"])
        history = rng.standard_normal((knots.size, 5)) @ modes[:5]
        self.src = ha.SourceTerm.from_grid_history(grid, knots, history, es=es)
        alpha = ha.project(self.xi, es)
        self.reference, self.stepper = {}, {}
        for kind, ws in self.weights.items():
            gamma = (ha.average_from_initial(alpha, ws).coeffs
                     + ha.average_from_source(self.src, ws, es).coeffs)
            self.reference[kind] = ha.synthesize(ha.SpectralVector(es, gamma), es).values
            self.stepper[kind] = ha.StepperConfig(n_nodes=size["nodes"], n_steps=size["steps"],
                                                  breakpoints=tuple(ws.breakpoints()))
        # criterion 3's gate
        self.gate = 5.0 * (grid.h**2 + (HORIZON / size["steps"]) ** 2)
        self.props = {"operator": "constant", "nodes": size["nodes"], "steps": size["steps"],
                      "knots": size["knots"], "reference_modes": size["modes"],
                      "weights": {k: _describe(ws) for k, ws in self.weights.items()}}

    def op(self, kind):
        ws = self.weights[kind]
        field = ha.step_evolution(self.op_spec, self.xi, self.src, HORIZON, self.stepper[kind])
        return ha.time_average(field, ws)

    def check(self, kind, output):
        if not np.all(np.isfinite(output.values)):
            return None, "average is not finite"
        return rel_l2(output.values, self.reference[kind], output.grid), ""


def _describe(ws: ha.WeightSpec) -> dict:
    return {"kappa": ws.kappa, "pieces": [list(p) for p in ws.pieces], "t1": ws.t1}


# -- CLI workloads ----------------------------------------------------------

class CliWorkload(Workload):
    """Runs ``python -m heatavg`` in ``work``; set-up is the first invocations."""

    def __init__(self, size, work):
        super().__init__(size, work)
        self.out = work / "out"
        self.grid = ha.Grid.uniform(LENGTH, size["nodes"])
        self.child_peak_kb = 0

    def peak_rss_mb(self):
        """The largest peak resident memory of any heatavg child process."""
        return self.child_peak_kb / 1024.0

    def setup_samples(self):
        samples, ok = [], True
        for _ in range(self.size["setups"]):
            result = self.run_op(self.kinds[0], None)
            samples.append(result.seconds)
            ok = ok and result.ok
            if result.problem:
                sys.stderr.write(f"set-up invocation failed: {result.problem}\n")
        return samples, ok

    def run_op(self, kind, tracer):
        args = self.args[kind]
        for old in self.out.glob("*"):
            old.unlink()
        trace_path, report_path = self.work / "trace.json", self.work / "launch.json"
        trace_path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "heatavg", *args]
        else:
            cmd = [sys.executable, str(HERE / "shim.py"), str(trace_path), *args]
        cmd = [sys.executable, str(HERE / "launch.py"), str(report_path), *cmd]
        with subprocess.Popen(cmd, cwd=self.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True) as proc:
            try:
                _, stderr = proc.communicate(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the launcher and its command
                proc.communicate()
                return OpResult(OP_TIMEOUT_S, False, None, "timed out")
        if not report_path.exists():
            return OpResult(OP_TIMEOUT_S, False, None, f"launcher failed: {stderr.strip()[-300:]}")
        report = json.loads(report_path.read_text())
        seconds = report["end"] - report["start"]
        self.child_peak_kb = max(self.child_peak_kb, report["maxrss_kb"])
        if report["exit_code"] != 0:
            return OpResult(seconds, False, None,
                            f"exit {report['exit_code']}: {stderr.strip()[-300:]}")
        if tracer is not None:
            _merge_child_spans(tracer, json.loads(trace_path.read_text()),
                               report["start"], report["end"])
        try:
            err, problem = self.check(kind)
        except (OSError, ValueError) as exc:
            err, problem = None, f"unreadable output: {exc}"
        return OpResult(seconds, not problem and err <= self.gate, err, problem)


def _merge_child_spans(tracer: Tracer, child: dict, launch: float, end: float) -> None:
    """Append a child's spans, framed by interpreter start-up and shutdown.

    ``time.perf_counter`` reads the system-wide monotonic clock, so the
    child's instants are comparable with the parent's.
    """
    tracer.record("cli.interpreter", launch, child["import_start"])
    offset = len(tracer.spans)
    for span in child["spans"]:
        if span["parent"] is not None:
            span["parent"] += offset
        span["op"] = tracer.op
        tracer.spans.append(span)
    tracer.record("cli.exit", child["ended"], end)


class CliOracle(CliWorkload):
    """``heatavg oracle`` reading a 129-knot source CSV; its average vs a spectral reference.

    Each round runs the quasi-boundary weight and the running average, each
    with its own seeded initial state and source.
    """

    name = "cli_oracle"
    kinds = ("quasi", "average")

    def __init__(self, rng, size, work):
        super().__init__(size, work)
        grid = self.grid
        es = ha.build_eigensystem(ha.OperatorSpec.constant(LENGTH), grid, size["modes"])
        weights = {"quasi": ha.WeightSpec.quasi_boundary(HORIZON, QUASI_EPS),
                   "average": ha.WeightSpec.average(HORIZON)}
        cases = {"quasi": f"case = quasi\nepsilon = {QUASI_EPS!r}", "average": "case = average"}
        modes = sines(grid, 8)
        knots = np.linspace(0.0, HORIZON, size["phi_knots"])
        self.args, self.initial, self.reference = {}, {}, {}
        for kind, ws in weights.items():
            config = work / f"oracle_{kind}.cfg"
            config.write_text(
                f"[operator]\nL = {LENGTH!r}\n\n[weight]\n{cases[kind]}\n\n"
                f"[run]\nT = {HORIZON!r}\nN = {size['modes']}\nn_nodes = {size['nodes']}\n"
                f"n_steps = {size['steps']}\nn_times = {size['times']}\n")
            xi = (rng.standard_normal(8) / np.arange(1, 9)) @ modes
            # independent values at every knot: steep ramps between knots
            history = rng.standard_normal((knots.size, 5)) @ modes[:5]
            xi_path, phi_path = work / f"xi_{kind}.csv", work / f"phi_{kind}.csv"
            write_csv(xi_path, "x,value", (grid.nodes, xi))
            write_csv(phi_path, "x,t,phi", (np.tile(grid.nodes, knots.size),
                                            np.repeat(knots, grid.n_nodes), history.ravel()))
            src = ha.SourceTerm.from_grid_history(grid, knots, history, es=es)
            gamma = (ha.average_from_initial(ha.project(ha.GridFunction(grid, xi), es), ws).coeffs
                     + ha.average_from_source(src, ws, es).coeffs)
            self.args[kind] = ["oracle", config.name, xi_path.name, "--phi", phi_path.name,
                               "--out-dir", "out"]
            self.initial[kind] = xi
            self.reference[kind] = ha.synthesize(ha.SpectralVector(es, gamma), es).values
        # criterion 3's gate
        self.gate = 5.0 * (grid.h**2 + (HORIZON / size["steps"]) ** 2)
        self.props = {"operator": "constant", "nodes": size["nodes"], "steps": size["steps"],
                      "knots": size["phi_knots"], "reference_modes": size["modes"],
                      "weights": {k: _describe(ws) for k, ws in weights.items()},
                      "phi_csv_bytes": (work / "phi_quasi.csv").stat().st_size,
                      "xi_csv_bytes": (work / "xi_quasi.csv").stat().st_size}

    def check(self, kind):
        nodes = self.grid.n_nodes
        average = read_csv((self.out / "oracle_average.csv").read_text(), "x,value", 2)
        field_text = (self.out / "oracle_field.csv").read_text()
        rows = field_text.count("\n") - 1
        if rows % nodes or rows // nodes < 2:
            return None, "oracle_field.csv does not hold whole time slices"
        # the first slice is the initial state as read, with its ends set to zero
        head = "\n".join(field_text.split("\n", nodes + 1)[:nodes + 1])
        first = read_csv(head, "x,t,u", 3)
        if np.any(first[:, 1] != 0.0) or not np.array_equal(
                first[1:-1, 2], self.initial[kind][1:-1]):
            return None, "oracle_field.csv does not start from the initial state"
        if average.shape[0] != nodes or not np.all(np.isfinite(average[:, 1])):
            return None, "oracle_average.csv is malformed or not finite"
        return rel_l2(average[:, 1], self.reference[kind], self.grid), ""


WORKLOADS = {w.name: w for w in (SourceInverse, OracleVerify, CliOracle)}
