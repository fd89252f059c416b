"""Finite-difference verification path, kept independent of the eigenbasis.

Crank-Nicolson time stepping of the diffusion problem on a time grid from
exactly 0 to the horizon that holds the source's knots, one L D L^T solve on
the interior nodes and no operator product per step, plus weighted
trapezoid averaging in time; neither makes a temporary the size of the
field.  This module assembles its own difference operator from the
OperatorSpec samples and never touches eigen data, so agreement with the
spectral modules is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from ._lapack import routines
from .basis import GridFunction, GridMismatch, OperatorSpec
from .forward import SolutionField, SourceTerm, _checked_times, _knot_pieces, _trapezoid_in_time


class SingularStep(RuntimeError):
    """A step matrix is not positive definite, or a state is not finite."""


class BreakpointUnresolved(ValueError):
    """The field's time grid misses a weight breakpoint."""


@dataclass(frozen=True)
class StepperConfig:
    """Resolution of the finite-difference run.

    ``breakpoints`` are extra instants merged into the uniform time grid,
    typically the weight's piece boundaries; inserting them exactly keeps
    the averaging error at second order even for indicator weights.
    `step_evolution` merges a source's knots the same way itself.
    """

    n_nodes: int = 1025
    n_steps: int = 2048
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", operator.index(self.n_nodes))
        object.__setattr__(self, "n_steps", operator.index(self.n_steps))
        if self.n_nodes < 3:
            raise ValueError("need at least 3 spatial nodes")
        if self.n_steps < 2:
            raise ValueError("need at least 2 time steps")
        if not all(math.isfinite(b) for b in self.breakpoints):
            raise ValueError("breakpoints must be finite")

    def time_grid(self, horizon: float) -> np.ndarray:
        """Uniform grid on [0, horizon] with the breakpoints in.  Points within
        ``1e-12 * horizon`` count as one: 0, ``horizon``, else the earlier."""
        if not 0.0 < horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        slack = 1e-12 * horizon
        base = np.linspace(0.0, horizon, self.n_steps + 1)
        merged = np.union1d(base, [b for b in self.breakpoints if min(b, horizon - b) > slack])
        keep = np.concatenate([[True], np.diff(merged) > slack])
        return merged[keep]


def step_evolution(op: OperatorSpec, xi: GridFunction, src: SourceTerm | None,
                   horizon: float, cfg: StepperConfig) -> SolutionField:
    """March the diffusion forward from ``xi`` with Crank-Nicolson steps.

    A source must reach ``horizon``, else `solve_forward`'s `TimeOutOfRange`;
    its knots join ``cfg.breakpoints`` in the time grid, so each step lies in
    one linear piece of it and is driven by its exact integral
    ``dt * phi(t_mid)``: the implicit midpoint rule, in two stages.  Each step
    size is factored before the first step, as L D L^T of the symmetric
    interior matrix (I - (dt/2) A) / 2 (``dpttrf``), or refused with
    `SingularStep` naming its first step if that is not positive definite.
    A step writes ``u + (dt/2) phi(t_mid)`` (two weighted knot rows) into the
    interior of the next row, back-solves it there (``dpttrs``, giving 2 v
    exactly) and subtracts ``u``, leaving ``u' = 2 v - u``: no operator
    product, no array allocated, the boundary kept zero.  Floating-point
    warnings are off; a non-finite state never turns finite again, so only
    the last state is checked, and if it fails the first non-finite one
    raises `SingularStep` naming the step that wrote it (step n writes state
    n + 1).
    """
    times, march = _march(op, xi, src, horizon, cfg)
    values = np.zeros((times.size, xi.grid.n_nodes))
    if not np.isfinite(march(values[:, 1:-1])).all():
        finite = np.isfinite(values[1:]).all(axis=1)
        raise SingularStep(f"non-finite state at step {int(finite.argmin())}")
    return SolutionField(grid=xi.grid, times=times, values=values)


def _march(op: OperatorSpec, xi: GridFunction, src: SourceTerm | None, horizon: float,
           cfg: StepperConfig):
    """`step_evolution`'s checks, time grid and factors or refusals.  Returns
    the time grid and ``march(rows)``, to be run once, which writes state n
    into the n-th of the caller's interior ``rows``, reads each back only as
    the next step's start, and returns the last state."""
    dpttrf, dpttrs = routines("dpttrf", "dpttrs")

    grid = xi.grid
    if grid.n_nodes != cfg.n_nodes:
        raise GridMismatch("config n_nodes does not match the initial state's grid")
    if src is not None:
        if src.grid != grid:
            raise GridMismatch("source and initial state use different grids")
        _checked_times(horizon, src.horizon)
        cfg = replace(cfg, breakpoints=cfg.breakpoints + tuple(src.times.tolist()))
    times = cfg.time_grid(horizon)
    dts = np.diff(times).tolist()

    a_mid, a0_nodes = op.sample(grid)
    # Interior difference operator of (a u')' + a0 u: symmetric tridiagonal,
    # ``off`` both above and below ``diag``; a 3-node grid's 1 x 1 matrix gets
    # one dummy entry, which the wrappers want and LAPACK never reads
    off = a_mid[1:-1] / grid.h**2 if grid.n_nodes > 3 else np.zeros(1)
    diag = -(a_mid[:-1] + a_mid[1:]) / grid.h**2 + a0_nodes[1:-1]

    # ``factors`` maps each step size to the L D L^T factors of its matrix
    factors = {}
    for n, dt in enumerate(dts):
        if dt not in factors:
            *ldl, info = dpttrf(0.5 - 0.25 * dt * diag, -0.25 * dt * off,
                                overwrite_d=1, overwrite_e=1)
            if info > 0:
                raise SingularStep(f"step matrix not positive definite at step {n}: "
                                   f"dt = {dt:g} is too large for a negative eigenvalue")
            factors[dt] = ldl

    if src is not None:
        # step n's drive (dt/2) phi(t_mid) is a_n r_i + b_n r_{i+1}
        knot_rows, scratch = src.values[:, 1:-1], np.empty(grid.n_nodes - 2)
        piece, frac = _knot_pieces(src.times, 0.5 * (times[:-1] + times[1:]))
        half_dt = 0.5 * np.diff(times)
        drives = zip(piece.tolist(), (half_dt * (1.0 - frac)).tolist(), (half_dt * frac).tolist())

    def march(rows):
        rows = iter(rows)
        u = next(rows)
        u[...] = xi.values[1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            for rhs, dt in zip(rows, dts):
                if src is None:
                    np.copyto(rhs, u)
                else:
                    i, a, b = next(drives)
                    np.multiply(knot_rows[i], a, out=rhs)
                    rhs += u
                    np.multiply(knot_rows[i + 1], b, out=scratch)
                    rhs += scratch
                dpttrs(*factors[dt], rhs, overwrite_b=1)
                rhs -= u
                u = rhs
        return u

    return times, march


def _march_average(op: OperatorSpec, xi: GridFunction, src: SourceTerm | None, ws,
                   cfg: StepperConfig, at) -> tuple[SolutionField, GridFunction]:
    """``time_average(step_evolution(op, xi, src, ws.horizon, cfg), ws)`` and that
    field's rows at ``np.unique(np.searchsorted(times, at))``, bit for bit, with
    no field: a state not kept goes to a two-row ring, and each is added into the
    average once written (``acc += w_n u_n`` from zero, the contraction's order).
    A last state not finite is marched again by `step_evolution`, to name its step."""
    times, march = _march(op, xi, src, ws.horizon, cfg)
    weights, idx = _time_weights(times, ws), np.unique(np.searchsorted(times, at))
    kept, average = np.zeros((idx.size, xi.grid.n_nodes)), np.zeros(xi.grid.n_nodes)

    def rows():
        slots, ring = dict(zip(idx.tolist(), kept[:, 1:-1])), np.zeros((2, xi.grid.n_nodes - 2))
        acc, term = average[1:-1], np.empty(xi.grid.n_nodes - 2)
        for n, w in enumerate(weights.tolist()):
            row = slots[n] if n in slots else ring[n % 2]
            yield row  # the march asks for the next row once it has written this one
            np.multiply(row, w, out=term)
            acc += term

    if not np.isfinite(march(rows())).all():
        step_evolution(op, xi, src, ws.horizon, cfg)
    return (SolutionField(grid=xi.grid, times=times[idx], values=kept),
            GridFunction(xi.grid, average))


def _time_weights(times: np.ndarray, ws) -> np.ndarray:
    """`time_average`'s weights on ``times``: ``0.5 w(t_mid) dt`` of each panel
    at both its ends, ``kappa`` at the last.  A weight end or breakpoint off the
    grid by over ``1e-12 * horizon`` raises `BreakpointUnresolved`."""
    horizon = ws.horizon
    if abs(times[-1] - horizon) > 1e-12 * horizon:
        raise BreakpointUnresolved("field horizon differs from the weight horizon")
    for b in ws.breakpoints():
        if np.min(np.abs(times - b)) > 1e-12 * horizon:
            raise BreakpointUnresolved(f"time grid misses weight breakpoint t = {b:g}")

    w_mid = ws.value_at(0.5 * (times[:-1] + times[1:]))
    weights = _trapezoid_in_time(times, w_mid)
    weights[-1] += ws.kappa
    return weights


def time_average(field: SolutionField, ws) -> GridFunction:
    """Weighted trapezoid average in time plus the terminal term: one ``np.einsum``
    with `_time_weights`, no field-sized temporary, the same bits at any thread count."""
    return GridFunction(field.grid, np.einsum("i,ij->j", _time_weights(field.times, ws),
                                              field.values))
