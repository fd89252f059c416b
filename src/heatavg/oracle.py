"""Finite-difference verification path, kept independent of the eigenbasis.

Crank-Nicolson time stepping of the diffusion problem with Dirichlet rows
enforced exactly, plus weighted trapezoid averaging in time.  This module
assembles its own difference operator from the OperatorSpec samples and
never touches eigen data, so agreement with the spectral modules is a
genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import GridFunction, OperatorSpec, same_grid
from .forward import SolutionField, SourceTerm


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
    (LAPACK ``dgttrf``); each step then forms its right-hand side and does
    one tridiagonal back-solve (``dgttrs``).
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    grid = xi.grid
    if grid.n_nodes != cfg.n_nodes:
        raise ValueError("config n_nodes does not match the initial state's grid")
    if src is not None and not same_grid(src.grid, grid):
        raise ValueError("source and initial state use different grids")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")

    a_mid, a0_nodes, _ = op.sample(grid)
    h = grid.h
    # Interior difference operator: lower/diag/upper of (a u')' + a0 u.
    lower = a_mid[1:-1] / h**2
    diag = -(a_mid[:-1] + a_mid[1:]) / h**2 + a0_nodes[1:-1]
    upper = a_mid[1:-1] / h**2

    times = cfg.time_grid(horizon)
    values = np.zeros((times.size, grid.n_nodes))
    values[0, 1:-1] = xi.values[1:-1]

    if src is not None:
        # knot piece and interpolation fraction of every step time, as
        # SourceTerm.values_at finds them; the rows are combined per step
        knots, rows = src.times, src.values[:, 1:-1]
        piece = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
        frac = (times - knots[piece]) / np.diff(knots)[piece]

        def source_at(j):
            if times[j] <= knots[0]:
                return rows[0]
            if times[j] >= knots[-1]:
                return rows[-1]
            i, s = piece[j], frac[j]
            return (1.0 - s) * rows[i] + s * rows[i + 1]

        phi_now = source_at(0)

    # The Dirichlet rows join the system as unit rows with zero right-hand
    # side: the boundary stays exactly zero, and the system has the three or
    # more unknowns scipy's dgttrf wrapper needs even on a 3-node grid.
    factors = {}
    rhs_full = np.zeros(grid.n_nodes)
    u = values[0, 1:-1]
    for n in range(times.size - 1):
        dt = times[n + 1] - times[n]
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
        rhs = u + 0.5 * dt * (diag * u)
        rhs[:-1] += half_upper * u[1:]
        rhs[1:] += half_lower * u[:-1]
        if src is not None:
            phi_next = source_at(n + 1)
            rhs += 0.5 * dt * (phi_now + phi_next)
            phi_now = phi_next
        rhs_full[1:-1] = rhs
        u = dgttrs(*lu, rhs_full)[0][1:-1]
        if not np.all(np.isfinite(u)):
            raise SingularStep(f"non-finite state at step {n}")
        values[n + 1, 1:-1] = u

    return SolutionField(grid=grid, times=times, values=values)


def time_average(field: SolutionField, ws) -> GridFunction:
    """Weighted trapezoid average in time plus the terminal contribution."""
    times = field.times
    horizon = ws.horizon
    if abs(times[-1] - horizon) > 1e-9 * horizon:
        raise BreakpointUnresolved("field horizon differs from the weight horizon")
    for b in ws.breakpoints():
        if np.min(np.abs(times - b)) > 1e-9 * horizon:
            raise BreakpointUnresolved(f"time grid misses weight breakpoint t = {b:g}")

    dt = np.diff(times)
    w_mid = np.asarray(ws.value_at(0.5 * (times[:-1] + times[1:])))
    panel = (w_mid * dt)[:, None] * 0.5 * (field.values[:-1] + field.values[1:])
    out = panel.sum(axis=0) + ws.kappa * field.values[-1]
    return GridFunction(field.grid, out)
