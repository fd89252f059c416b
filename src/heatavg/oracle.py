"""Finite-difference verification path, kept independent of the eigenbasis.

Crank-Nicolson time stepping of the diffusion problem with Dirichlet rows
enforced exactly, plus weighted trapezoid averaging in time.  Neither makes
a temporary the size of the field: each step is formed and solved in its
own row, and the average is one contraction of the field with per-time
weights.  This module assembles its own difference operator from the
OperatorSpec samples and never touches eigen data, so agreement with the
spectral modules is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import GridFunction, OperatorSpec, same_grid
from .forward import SolutionField, SourceTerm, _rows_at, _trapezoid_in_time


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
        if self.n_nodes < 3:
            raise ValueError("need at least 3 spatial nodes")
        if self.n_steps < 2:
            raise ValueError("need at least 2 time steps")

    def time_grid(self, horizon: float) -> np.ndarray:
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
    (LAPACK ``dgttrf``); each step then forms its right-hand side in the
    next row of the field and back-solves it there (``dgttrs``), so every
    state is written once.  The source row at each step
    time comes from the rule `SourceTerm.values_at` uses, one row at a
    time: linear between knots, held at the last row beyond the last knot.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    grid = xi.grid
    if grid.n_nodes != cfg.n_nodes:
        raise ValueError("config n_nodes does not match the initial state's grid")
    if src is not None and not same_grid(src.grid, grid):
        raise ValueError("source and initial state use different grids")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")

    a_mid, a0_nodes = op.sample(grid)
    h = grid.h
    # Interior difference operator: lower/diag/upper of (a u')' + a0 u.
    lower = a_mid[1:-1] / h**2
    diag = -(a_mid[:-1] + a_mid[1:]) / h**2 + a0_nodes[1:-1]
    upper = a_mid[1:-1] / h**2

    times = cfg.time_grid(horizon)
    values = np.zeros((times.size, grid.n_nodes))
    values[0, 1:-1] = xi.values[1:-1]

    if src is not None:
        source_rows = _rows_at(src.times, src.values[:, 1:-1], times)
        phi_now = next(source_rows)

    # The Dirichlet rows join the system as unit rows with zero right-hand
    # side: the boundary stays exactly zero, and the system has the three or
    # more unknowns scipy's dgttrf wrapper needs even on a 3-node grid.
    factors = {}
    for n, dt in enumerate(np.diff(times).tolist()):
        if dt not in factors:
            dl = np.zeros(grid.n_nodes - 1)
            d = np.ones(grid.n_nodes)
            du = np.zeros(grid.n_nodes - 1)
            du[1:-1] = -0.5 * dt * upper
            d[1:-1] = 1.0 - 0.5 * dt * diag
            dl[1:-1] = -0.5 * dt * lower
            *lu, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
            if info > 0:
                raise SingularStep(f"implicit matrix singular at step {n}")
            # 0.5 * dt * upper * u[1:] evaluates 0.5 * dt * upper first,
            # so caching that product leaves every step's bits unchanged
            factors[dt] = lu, 0.5 * dt * upper, 0.5 * dt * lower
        lu, half_upper, half_lower = factors[dt]
        # u + 0.5 dt (diag u), then the off-diagonal terms; the ends stay 0
        u, rhs = values[n, 1:-1], values[n + 1, 1:-1]
        np.multiply(diag, u, out=rhs)
        rhs *= 0.5 * dt
        rhs += u
        rhs[:-1] += half_upper * u[1:]
        rhs[1:] += half_lower * u[:-1]
        if src is not None:
            phi_next = next(source_rows)
            rhs += 0.5 * dt * (phi_now + phi_next)
            phi_now = phi_next
        dgttrs(*lu, values[n + 1], overwrite_b=1)
        if not np.all(np.isfinite(values[n + 1])):
            raise SingularStep(f"non-finite state at step {n}")

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

    w_mid = np.asarray(ws.value_at(0.5 * (times[:-1] + times[1:])))
    weights = _trapezoid_in_time(times, w_mid)
    weights[-1] += ws.kappa
    return GridFunction(field.grid, np.einsum("i,ij->j", weights, field.values))
