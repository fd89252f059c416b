"""Finite-difference verification path, kept independent of the eigenbasis.

Crank-Nicolson time stepping of the diffusion problem with Dirichlet rows
enforced exactly, plus weighted trapezoid averaging in time.  Neither makes
a temporary the size of the field: each step is formed and solved in its
own row, with its products in reused scratch rows, and the average is one
contraction of the field with per-time weights.  Finiteness is checked once
per block of rows, and the first non-finite state names the step that wrote
it.  This module assembles its own difference operator from the
OperatorSpec samples and never touches eigen data, so agreement with the
spectral modules is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._lapack import routines
from .basis import GridFunction, GridMismatch, OperatorSpec
from .forward import _BLOCK_VALUES, SolutionField, SourceTerm, _rows_at, _trapezoid_in_time


class SingularStep(RuntimeError):
    """The implicit step matrix was singular; coefficients are corrupt."""


class BreakpointUnresolved(ValueError):
    """The field's time grid misses a weight breakpoint."""


@dataclass(frozen=True)
class StepperConfig:
    """Resolution of the finite-difference run.

    ``breakpoints`` are extra instants merged into the uniform time grid,
    typically the weight's piece boundaries; inserting them exactly keeps
    the averaging error at second order even for indicator weights.
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
        extra = [b for b in self.breakpoints if 0.0 < b < horizon]
        if not extra:
            return base
        merged = np.union1d(base, np.asarray(extra, dtype=float))
        keep = np.concatenate([[True], np.diff(merged) > 1e-12 * horizon])
        return merged[keep]


def step_evolution(op: OperatorSpec, xi: GridFunction, src: SourceTerm | None,
                   horizon: float, cfg: StepperConfig) -> SolutionField:
    """March the diffusion forward from ``xi`` with Crank-Nicolson steps.

    The step matrix I - (dt/2) A is LU-factored once per distinct step size
    (LAPACK ``dgttrf``) before the march; each step then forms its right-hand
    side in the next row of the field and back-solves it there (``dgttrs``),
    so every state is written once.  Both routines come from scipy's LAPACK
    extension, loaded without importing `scipy.linalg` (`_lapack.routines`).
    The source row at each step time comes from `forward._rows_at`, the rule
    of the source's `slice_at`, one row at a time: linear between knots, held
    at the last row beyond the last knot.

    The march runs in blocks of about `forward._BLOCK_VALUES` values, with
    floating-point warnings off; after each block its states are checked
    once, and the first non-finite one raises `SingularStep` naming the step
    that produced it (step n writes state n + 1).
    """
    dgttrf, dgttrs = routines("dgttrf", "dgttrs")

    grid = xi.grid
    if grid.n_nodes != cfg.n_nodes:
        raise GridMismatch("config n_nodes does not match the initial state's grid")
    if src is not None and src.grid != grid:
        raise GridMismatch("source and initial state use different grids")
    times = cfg.time_grid(horizon)

    a_mid, a0_nodes = op.sample(grid)
    h = grid.h
    # Interior difference operator of (a u')' + a0 u: symmetric tridiagonal,
    # ``off`` both above and below ``diag``.
    off = a_mid[1:-1] / h**2
    diag = -(a_mid[:-1] + a_mid[1:]) / h**2 + a0_nodes[1:-1]

    values = np.zeros((times.size, grid.n_nodes))
    values[0, 1:-1] = xi.values[1:-1]

    # The Dirichlet rows join the system as unit rows with zero right-hand
    # side: the boundary stays exactly zero, and the system has the three or
    # more unknowns scipy's dgttrf wrapper needs even on a 3-node grid.
    # ``plan`` holds each step's (LU factors, 0.5 dt off, 0.5 dt), up to the
    # first singular matrix; the march reports earlier non-finite states first.
    plan, factors, singular = [], {}, None
    for n, dt in enumerate(np.diff(times).tolist()):
        if dt not in factors:
            dl = np.zeros(grid.n_nodes - 1)
            dl[1:-1] = -0.5 * dt * off
            du = dl.copy()
            d = np.ones(grid.n_nodes)
            d[1:-1] = 1.0 - 0.5 * dt * diag
            *lu, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
            if info > 0:
                singular = n
                break
            # 0.5 * dt * off * u[1:] evaluates 0.5 * dt * off first,
            # so caching that product leaves every step's bits unchanged
            factors[dt] = lu, 0.5 * dt * off, 0.5 * dt
        plan.append(factors[dt])

    if src is not None:
        source_rows = _rows_at(src.times, src.values[:, 1:-1], times)
        phi_now = next(source_rows)
        drive = np.empty(grid.n_nodes - 2)
    off_term = np.empty(grid.n_nodes - 3)
    # each state's interior, and that interior less its last (head) or first
    # (tail) node; step n reads state n and writes state n + 1
    interior, head, tail = values[:, 1:-1], values[:, 1:-2], values[:, 2:-1]
    u, u_head, u_tail = interior[0], head[0], tail[0]
    steps = zip(plan, values[1:], interior[1:], head[1:], tail[1:])
    block = max(1, _BLOCK_VALUES // grid.n_nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(plan), block):
            for (lu, half_off, half_dt), state, rhs, rhs_head, rhs_tail in islice(steps, block):
                # u + 0.5 dt (diag u), then the off-diagonal terms; the ends stay 0
                np.multiply(diag, u, out=rhs)
                rhs *= half_dt
                rhs += u
                np.multiply(half_off, u_tail, out=off_term)
                rhs_head += off_term
                np.multiply(half_off, u_head, out=off_term)
                rhs_tail += off_term
                if src is not None:
                    # 0.5 dt (phi_now + phi_next)
                    phi_next = next(source_rows)
                    np.add(phi_now, phi_next, out=drive)
                    drive *= half_dt
                    rhs += drive
                    phi_now = phi_next
                dgttrs(*lu, state, overwrite_b=1)
                u, u_head, u_tail = rhs, rhs_head, rhs_tail
            finite = np.isfinite(values[start + 1:start + 1 + block]).all(axis=1)
            if not finite.all():
                raise SingularStep(f"non-finite state at step {start + int(finite.argmin())}")
    if singular is not None:
        raise SingularStep(f"implicit matrix singular at step {singular}")

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
