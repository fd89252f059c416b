"""Forward evolution in the eigenbasis and the averaged measurements it induces.

Mode k of an initial state decays as exp(-lambda_k t); a source contributes
through the Duhamel integral

    integral_0^t phi_k(s) exp(-lambda_k (t - s)) ds.

Sources are tabulated piecewise linear in time and weights are piecewise
constant, so one exact kernel serves every use of this integral: a
recursion over the knots in the exponential-integrator functions
phi_1, phi_2, phi_3 (Hochbruck & Ostermann, Acta Numerica 2010) gives the
Duhamel term of all modes at the knots, at any batch of times, and its
integral against the weight.  Near z = 0 the phi-functions are Taylor
series, summed for all orders in one Horner pass.  Field coefficients are
filled in row blocks small enough to stay in cache, so no temporary of size
(times, modes) is made; blocking changes no bit, since each value takes the
same operations in the same order.  Applying the weighted time average to
these evolutions gives the two building blocks of the inverse pipeline: the
diagonal action on initial coefficients (multiplier times coefficient) and
the source contribution, both exact up to rounding.  Independent
verification of either is the finite-difference oracle's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import (
    EigenSystem,
    Grid,
    GridFunction,
    GridMismatch,
    SpectralVector,
    _frozen,
)
from .weights import WeightSpec, _check_finite


class TimeOutOfRange(ValueError):
    """Requested instant lies outside [0, horizon]."""


_PHI_SERIES_CUTOFF = 1.0
_PHI_SERIES_TERMS = 20  # truncation below 1/21! relative for |z| < 1
# _PHI_SERIES[k - 1, j] = 1/(j + k)!, the Taylor coefficients of phi_1 .. phi_3
_PHI_SERIES = np.array([[1.0 / math.factorial(j + k) for j in range(_PHI_SERIES_TERMS)]
                        for k in (1, 2, 3)])


def _phis(z: np.ndarray, order: int) -> list[np.ndarray]:
    """[phi_0(z), ..., phi_order(z)] elementwise, where phi_0 = exp and
    h^k phi_k(-lam h) = integral_0^h exp(-lam (h - s)) s^(k-1) / (k-1)! ds.

    Away from 0 the recurrence phi_{k+1} = (phi_k - 1/k!) / z is used; it
    cancels as z -> 0, so below the cutoff the Taylor series
    sum_j z^j / (j + k)! is summed instead (lam = 0 is then exact), for
    every order in one Horner pass.
    """
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = z[small]
    zd = np.where(small, 1.0, z)
    series = np.zeros((order, zs.size))
    for j in range(_PHI_SERIES_TERMS - 1, -1, -1):
        series *= zs
        series += _PHI_SERIES[:order, j, None]
    phis = [np.exp(z)]
    direct = np.expm1(zd) / zd
    for k in range(1, order + 1):
        if k > 1:
            direct = (direct - 1.0 / math.factorial(k - 1)) / zd
        phi = direct.copy()
        phi[small] = series[k - 1]
        phis.append(phi)
    return phis


def _rows_at(knots: np.ndarray, rows: np.ndarray, times: np.ndarray):
    """Yield ``rows`` (one per knot) linearly interpolated at each of ``times``,
    held at the end rows outside the knots; one search finds every piece."""
    if knots.size == 1:  # every time is at or beyond the only knot
        yield from (rows[0] for _ in times.tolist())
        return
    piece = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
    frac = (times - knots[piece]) / np.diff(knots)[piece]
    for t, i, s in zip(times.tolist(), piece.tolist(), frac.tolist()):
        if t <= knots[0]:
            yield rows[0]
        elif t >= knots[-1]:
            yield rows[-1]
        else:
            yield (1.0 - s) * rows[i] + s * rows[i + 1]


def _trapezoid_in_time(times: np.ndarray, w_mid=1.0) -> np.ndarray:
    """Per-time trapezoid weights: each panel's ``0.5 * w_mid * dt`` goes to
    both of its end times (``w_mid`` is the weight at the panel midpoints)."""
    half = 0.5 * w_mid * np.diff(times)
    out = np.zeros(times.size)
    out[:-1] += half
    out[1:] += half
    return out


@dataclass(frozen=True)
class SolutionField:
    """Evolution sampled on a space-time grid, one row of grid values per
    time; an exact slice at any t is ``solve_forward(xi, src, [t])``."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("times", "values"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.times.ndim != 1:
            raise ValueError("time instants must be one-dimensional")
        if self.values.shape != (self.times.size, self.grid.n_nodes):
            raise ValueError("values must be one row of grid values per time")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("time instants must be finite")
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("time instants must be strictly increasing")

    def slice_at(self, t: float) -> GridFunction:
        """Spatial slice at time t: the stored row at a stored time, linearly
        interpolated between stored rows."""
        t = float(t)
        if not self.times[0] <= t <= self.times[-1]:
            raise TimeOutOfRange(f"t = {t:g} outside [{self.times[0]:g}, {self.times[-1]:g}]")
        return GridFunction(self.grid, next(_rows_at(self.times, self.values, np.array([t]))))

    def norm_l2(self) -> float:
        """Space-time L2 norm (trapezoid in both directions)."""
        wx = self.grid.trapezoid_weights()
        wt = _trapezoid_in_time(self.times)
        return float(np.sqrt(wt @ ((self.values**2) @ wx)))


@dataclass(frozen=True)
class SourceTerm(SolutionField):
    """Source term: a field that starts at t = 0 with two or more finite rows;
    its `slice_at` is the source, linear in time between the knots.

    Given ``es``, the term projects its samples once into ``coeffs``, its
    coefficient rows in that basis; the oracle consumes the samples.  A
    source is linear on its last knot interval, so it is smooth up to the
    horizon, as a terminal weight (``kappa != 0``) needs.
    """

    es: EigenSystem | None = None
    coeffs: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.times.size < 2:
            raise ValueError("need at least two time instants")
        if self.times[0] != 0.0:
            raise ValueError("source tabulation must start at t = 0")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("source values must be finite")
        if self.es is not None:
            object.__setattr__(self, "coeffs", _frozen(self.coefficients(self.es)))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable, times) -> "SourceTerm":
        times = np.asarray(times, dtype=float)
        values = np.array([np.asarray(fn(grid.nodes, t), dtype=float) for t in times])
        return cls(grid=grid, times=times, values=values)

    @classmethod
    def from_grid_history(cls, grid: Grid, times, values,
                          es: EigenSystem | None = None) -> "SourceTerm":
        return cls(grid=grid, times=times, values=values, es=es)

    @classmethod
    def from_modal(cls, es: EigenSystem, times, coeffs) -> "SourceTerm":
        """Build from per-instant coefficient rows in the given eigenbasis: the
        rows are synthesized into grid samples, which the term projects back."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != es.n_modes:
            raise ValueError(f"source coefficients of shape {coeffs.shape} are not rows "
                             f"of the eigensystem's {es.n_modes} modes")
        values = coeffs @ es.modes
        return cls(grid=es.grid, times=times, values=values, es=es)

    def coefficients(self, es: EigenSystem) -> np.ndarray:
        """Per-instant expansion of the source in ``es``; rows follow ``times``."""
        if self.coeffs is not None and self.es is es:
            return self.coeffs
        if self.grid != es.grid:
            raise GridMismatch("source and eigensystem use different grids")
        w = es.grid.trapezoid_weights()
        return (self.values * w) @ es.modes.T


def _checked_times(times, horizon: float) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1:
        raise ValueError("time instants must be one-dimensional")
    bad = ~((times >= 0.0) & (times <= horizon * (1.0 + 1e-12)) & np.isfinite(times))
    if np.any(bad):
        t = times[bad][0]
        where = f"outside [0, {horizon:g}]" if np.isfinite(t) else "is not finite"
        raise TimeOutOfRange(f"t = {t:g} {where}")
    return times


def _knot_states(src: SourceTerm, es: EigenSystem, breaks=()):
    """Knots (source knots merged with ``breaks``), the source a_i + b_i (t - t_i)
    on each segment, the Duhamel states D_i of all modes at the knots, the
    segment widths h_i (a column) and [phi_0 .. phi_3] at z = -lambda h_i.
    The states step as D_{i+1} = e^z D_i + h_i phi_1 a_i + h_i^2 phi_2 b_i;
    `MultiplierOverflow` names the first mode whose states are not finite.
    """
    times = src.times
    knots = np.union1d(times, np.clip(np.asarray(breaks, dtype=float), 0.0, src.horizon))
    coeffs = src.coefficients(es)
    piece = np.searchsorted(times, knots[:-1], side="right") - 1
    b = (np.diff(coeffs, axis=0) / np.diff(times)[:, None])[piece]
    a = coeffs[piece] + (knots[:-1] - times[piece])[:, None] * b
    h = np.diff(knots)[:, None]
    states = np.zeros((knots.size, es.n_modes))
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _phis(-h * es.lambdas, 3)
        gain = h * phi[1] * a + h**2 * phi[2] * b
        for i in range(h.size):
            states[i + 1] = phi[0][i] * states[i] + gain[i]
    _check_finite(states, es.lambdas)
    return knots, a, b, states, h, phi


def _duhamel_rows(knot_states, es: EigenSystem, times: np.ndarray) -> np.ndarray:
    """Duhamel rows at ``times`` (already checked), each stepped exactly from
    the knot at or before it, given the `_knot_states` of the source."""
    knots, a, b, states, _, _ = knot_states
    i = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
    w = (times - knots[i])[:, None]
    phi = _phis(-w * es.lambdas, 2)
    return phi[0] * states[i] + w * phi[1] * a[i] + w**2 * phi[2] * b[i]


# Field coefficients are filled this many float64 values at a time (64 KiB):
# a block and its temporaries stay in L2 and below glibc's default 128 KiB
# mmap threshold, so none of them costs an mmap, its page faults and an munmap.
_BLOCK_VALUES = 8192


def _coeffs_at(alpha: SpectralVector, src: SourceTerm | None, times) -> np.ndarray:
    """Field coefficients at each of ``times``, one row per time; raises
    `MultiplierOverflow` for the first mode whose column is not finite."""
    es = alpha.es
    times = _checked_times(times, math.inf if src is None else src.horizon)
    coeffs = np.empty((times.size, es.n_modes))
    rows = max(1, _BLOCK_VALUES // es.n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        knot_states = _knot_states(src, es) if src is not None else None
        for start in range(0, times.size, rows):
            t, block = times[start:start + rows], coeffs[start:start + rows]
            # (-t) * lam rounds to exactly -(t * lam)
            np.exp(np.multiply.outer(-t, es.lambdas, out=block), out=block)
            block *= alpha.coeffs
            if knot_states is not None:
                block += _duhamel_rows(knot_states, es, t)
    _check_finite(coeffs, es.lambdas)
    return coeffs


def solve_forward(xi: SpectralVector, src: SourceTerm | None, times) -> SolutionField:
    """Evolve initial coefficients, driven by ``src`` if given; the field
    holds the grid values at ``times``, each finite and at least 0 and, with
    a source, at most its horizon (else `TimeOutOfRange`)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = _coeffs_at(xi, src, times) @ xi.es.modes
    return SolutionField(grid=xi.es.grid, times=times, values=values)


def average_from_initial(xi: SpectralVector, ws: WeightSpec) -> SpectralVector:
    """Weighted time average of the source-free evolution started at ``xi``.

    Diagonal in the eigenbasis: each coefficient is scaled by the weight's
    multiplier at the corresponding eigenvalue.
    """
    return SpectralVector(xi.es, xi.coeffs * ws.multiplier(xi.es.lambdas))


def average_from_source(src: SourceTerm, ws: WeightSpec, es: EigenSystem) -> SpectralVector:
    """Weighted time average of the zero-initial evolution driven by ``src``
    in the basis ``es``, kappa D(T) + integral_0^T w(t) D(t) dt for all modes,
    in closed form: a segment with weight v adds
    v (h phi_1 D_i + h^2 phi_2 a_i + h^3 phi_3 b_i), exact up to rounding."""
    if abs(src.horizon - ws.horizon) > 1e-12 * ws.horizon:
        raise ValueError("source tabulation does not span the weight horizon")
    knots, a, b, states, h, phi = _knot_states(src, es, ws.breakpoints())
    v = ws.value_at(0.5 * (knots[:-1] + knots[1:]))
    out = v @ (h * phi[1] * states[:-1] + h**2 * phi[2] * a + h**3 * phi[3] * b)
    if ws.kappa != 0.0:
        out = out + ws.kappa * states[-1]
    return SpectralVector(es, out)


def weighted_average(xi: SpectralVector, ws: WeightSpec,
                     src: SourceTerm | None = None) -> SpectralVector:
    """Apply the averaged measurement to the evolution from ``xi`` driven by
    ``src``, exactly: the sum of `average_from_initial` and
    `average_from_source`."""
    source = 0.0 if src is None else average_from_source(src, ws, xi.es).coeffs
    return SpectralVector(xi.es, average_from_initial(xi, ws).coeffs + source)
