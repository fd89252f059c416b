"""Finite-difference verification path, kept independent of the eigenbasis.

Crank-Nicolson time stepping of the diffusion problem on a time grid that
holds the source's knots, one L D L^T solve on the interior nodes per step,
plus weighted trapezoid averaging in time.  Every step size is factored, or
refused, before the first step.  Neither path makes a temporary the size of
the field: each step is formed and solved in its own row, with its products
in reused scratch rows, and the average is one contraction of the field with
per-time weights.  Finiteness is checked once, on the last state, and the
first non-finite state names the step that wrote it.  This module assembles
its own difference operator from the OperatorSpec samples and never touches
eigen data, so agreement with the spectral modules is a genuine cross-check
rather than a tautology.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from ._lapack import routines
from .basis import GridFunction, GridMismatch, OperatorSpec
from .forward import SolutionField, SourceTerm, _rows_at, _trapezoid_in_time


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
        if not 0.0 < horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        base = np.linspace(0.0, horizon, self.n_steps + 1)
        merged = np.union1d(base, [b for b in self.breakpoints if 0.0 < b < horizon])
        keep = np.concatenate([[True], np.diff(merged) > 1e-12 * horizon])
        return merged[keep]


def step_evolution(op: OperatorSpec, xi: GridFunction, src: SourceTerm | None,
                   horizon: float, cfg: StepperConfig) -> SolutionField:
    """March the diffusion forward from ``xi`` with Crank-Nicolson steps.

    The source's knots join ``cfg.breakpoints`` in the time grid, so each
    step lies in one linear piece of the source and is driven by its exact
    integral ``dt * phi(t_mid)``, the midpoint row of `forward._rows_at`
    (the rule of the source's `slice_at`).  Before the first step, each step
    size is factored, in step order, as L D L^T of the symmetric interior
    matrix I - (dt/2) A (LAPACK ``dpttrf``, no pivots), or refused with
    `SingularStep` naming its first step if it is not positive definite (dt
    too large for a negative eigenvalue).  Each step forms its right-hand
    side in the interior of the field's next row and back-solves it there
    (``dpttrs``), so the boundary stays zero.

    Floating-point warnings are off.  A non-finite state never turns finite
    again (each right-hand side holds its own state, and the back-solve only
    adds, multiplies and divides by finite factors), so the last state is
    checked once; only if it fails are the states scanned, and the first
    non-finite one raises `SingularStep` naming the step that wrote it
    (step n writes state n + 1).
    """
    dpttrf, dpttrs = routines("dpttrf", "dpttrs")

    grid = xi.grid
    if grid.n_nodes != cfg.n_nodes:
        raise GridMismatch("config n_nodes does not match the initial state's grid")
    if src is not None:
        if src.grid != grid:
            raise GridMismatch("source and initial state use different grids")
        cfg = replace(cfg, breakpoints=cfg.breakpoints + tuple(src.times.tolist()))
    times = cfg.time_grid(horizon)
    dts = np.diff(times).tolist()

    a_mid, a0_nodes = op.sample(grid)
    h = grid.h
    # Interior difference operator of (a u')' + a0 u: symmetric tridiagonal,
    # ``off`` both above and below ``diag``; a 3-node grid's 1 x 1 matrix gets
    # one dummy entry, which the wrappers want and LAPACK never reads
    off = a_mid[1:-1] / h**2 if grid.n_nodes > 3 else np.zeros(1)
    diag = -(a_mid[:-1] + a_mid[1:]) / h**2 + a0_nodes[1:-1]

    # ``factors`` maps each step size to its (L D L^T factors, 0.5 dt off, 0.5 dt)
    factors = {}
    for n, dt in enumerate(dts):
        if dt not in factors:
            *ldl, info = dpttrf(1.0 - 0.5 * dt * diag, -0.5 * dt * off,
                                overwrite_d=1, overwrite_e=1)
            if info > 0:
                raise SingularStep(f"step matrix not positive definite at step {n}: "
                                   f"dt = {dt:g} is too large for a negative eigenvalue")
            # 0.5 * dt * off * u[1:] evaluates 0.5 * dt * off first,
            # so caching that product leaves every step's bits unchanged
            factors[dt] = ldl, 0.5 * dt * off, 0.5 * dt

    values = np.zeros((times.size, grid.n_nodes))
    values[0, 1:-1] = xi.values[1:-1]

    if src is not None:
        source_rows = _rows_at(src.times, src.values[:, 1:-1], 0.5 * (times[:-1] + times[1:]))
        drive = np.empty(grid.n_nodes - 2)
    off_term = np.empty(grid.n_nodes - 3)
    # each state's interior, and that interior less its last (head) or first
    # (tail) node: step n reads state n and writes n + 1
    interior, head, tail = values[:, 1:-1], values[:, 1:-2], values[:, 2:-1]
    u, u_head, u_tail = interior[0], head[0], tail[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for dt, rhs, rhs_head, rhs_tail in zip(dts, interior[1:], head[1:], tail[1:]):
            ldl, half_off, half_dt = factors[dt]
            # u + 0.5 dt (diag u), then the off-diagonal terms
            np.multiply(diag, u, out=rhs)
            rhs *= half_dt
            rhs += u
            np.multiply(half_off, u_tail, out=off_term)
            rhs_head += off_term
            np.multiply(half_off, u_head, out=off_term)
            rhs_tail += off_term
            if src is not None:
                np.multiply(next(source_rows), dt, out=drive)
                rhs += drive
            dpttrs(*ldl, rhs, overwrite_b=1)
            u, u_head, u_tail = rhs, rhs_head, rhs_tail
    if not np.isfinite(values[-1]).all():
        finite = np.isfinite(values[1:]).all(axis=1)
        raise SingularStep(f"non-finite state at step {int(finite.argmin())}")

    return SolutionField(grid=grid, times=times, values=values)


def time_average(field: SolutionField, ws) -> GridFunction:
    """Weighted trapezoid average in time plus the terminal contribution.

    One ``np.einsum`` contraction of the field with per-time weights (each
    panel's ``0.5 w(t_mid) dt`` at both its ends, ``kappa`` at the last
    time): no field-sized temporary, and unlike a BLAS matrix-vector
    product the same bits whatever the thread count."""
    times = field.times
    horizon = ws.horizon
    if abs(times[-1] - horizon) > 1e-9 * horizon:
        raise BreakpointUnresolved("field horizon differs from the weight horizon")
    for b in ws.breakpoints():
        if np.min(np.abs(times - b)) > 1e-9 * horizon:
            raise BreakpointUnresolved(f"time grid misses weight breakpoint t = {b:g}")

    w_mid = ws.value_at(0.5 * (times[:-1] + times[1:]))
    weights = _trapezoid_in_time(times, w_mid)
    weights[-1] += ws.kappa
    return GridFunction(field.grid, np.einsum("i,ij->j", weights, field.values))
