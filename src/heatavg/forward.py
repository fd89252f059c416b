"""Forward evolution in the eigenbasis and the averaged measurements it induces.

Mode k of an initial state decays as exp(-lambda_k t); a source contributes
through the Duhamel integral

    integral_0^t phi_k(s) exp(-lambda_k (t - s)) ds.

Sources are tabulated piecewise linear in time and weights are piecewise
constant, so one exact kernel serves every use of this integral: a
recursion over the knots in the exponential-integrator functions
phi_1, phi_2, phi_3 (Hochbruck & Ostermann, Acta Numerica 2010) gives the
Duhamel term of all modes at the knots, at any batch of times, and its
integral against the weight.  Applying the weighted time average to these
evolutions gives the two building blocks of the inverse pipeline: the
diagonal action on initial coefficients (multiplier times coefficient) and
the source contribution, both exact up to rounding.  Independent
verification of either is the finite-difference oracle's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    EigenSystem,
    Grid,
    GridFunction,
    GridMismatch,
    SpectralVector,
    same_grid,
    _frozen,
)
from .weights import WeightSpec, _check_finite


class TimeOutOfRange(ValueError):
    """Requested instant lies outside [0, horizon]."""


class OnsetInvalid(ValueError):
    """Terminal weighting requires the source to be regular strictly before the horizon."""


_PHI_SERIES_CUTOFF = 1.0
_PHI_SERIES_TERMS = 20  # truncation below 1/21! relative for |z| < 1


def _phis(z: np.ndarray, order: int) -> list[np.ndarray]:
    """[phi_0(z), ..., phi_order(z)] elementwise, where phi_0 = exp and
    h^k phi_k(-lam h) = integral_0^h exp(-lam (h - s)) s^(k-1) / (k-1)! ds.

    Away from 0 the recurrence phi_{k+1} = (phi_k - 1/k!) / z is used; it
    cancels as z -> 0, so below the cutoff the Taylor series
    sum_j z^j / (j + k)! is summed instead (lam = 0 is then exact).
    """
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = z[small]
    zd = np.where(small, 1.0, z)
    phis = [np.exp(z)]
    direct = np.expm1(zd) / zd
    for k in range(1, order + 1):
        if k > 1:
            direct = (direct - 1.0 / math.factorial(k - 1)) / zd
        series = np.zeros_like(zs)
        for j in range(_PHI_SERIES_TERMS - 1, -1, -1):
            series = series * zs + 1.0 / math.factorial(j + k)
        phi = direct.copy()
        phi[small] = series
        phis.append(phi)
    return phis


@dataclass(frozen=True)
class SourceTerm:
    """Source term tabulated on time instants, piecewise linear in between.

    Grid samples (``values``) are the primary representation and are what
    the finite-difference oracle consumes; spectral coefficients are derived
    on demand (or stored when the term was built from an eigensystem).
    ``onset`` marks the time from which the source is treated as
    differentiable in time; it must lie strictly before the horizon whenever
    the measurement weights the terminal slice.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    onset: float = 0.0
    es: EigenSystem | None = None
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        times = _frozen(self.times)
        values = _frozen(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two time instants")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("time instants must be strictly increasing")
        if times[0] != 0.0:
            raise ValueError("source tabulation must start at t = 0")
        if values.shape != (times.size, self.grid.n_nodes):
            raise ValueError("source values must be (n_times, n_nodes)")
        if not np.all(np.isfinite(values)):
            raise ValueError("source values must be finite")
        if not 0.0 <= self.onset <= self.horizon:
            raise ValueError("onset must lie in [0, horizon]")
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", _frozen(self.coeffs))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable, times, onset: float = 0.0,
                      es: EigenSystem | None = None) -> "SourceTerm":
        times = np.asarray(times, dtype=float)
        values = np.array([np.asarray(fn(grid.nodes, t), dtype=float) for t in times])
        return cls.from_grid_history(grid, times, values, onset=onset, es=es)

    @classmethod
    def from_grid_history(cls, grid: Grid, times, values, onset: float = 0.0,
                          es: EigenSystem | None = None) -> "SourceTerm":
        src = cls(grid=grid, times=np.asarray(times, dtype=float),
                  values=np.asarray(values, dtype=float), onset=onset, es=es)
        if es is not None:
            object.__setattr__(src, "coeffs", _frozen(src.coefficients(es)))
        return src

    @classmethod
    def from_modal(cls, es: EigenSystem, times, coeffs, onset: float = 0.0) -> "SourceTerm":
        """Build from per-instant coefficient rows in the given eigenbasis."""
        coeffs = np.asarray(coeffs, dtype=float)
        values = coeffs @ es.modes
        src = cls(grid=es.grid, times=np.asarray(times, dtype=float), values=values,
                  onset=onset, es=es, coeffs=coeffs)
        return src

    def coefficients(self, es: EigenSystem) -> np.ndarray:
        """Per-instant expansion of the source in ``es``; rows follow ``times``."""
        if self.coeffs is not None and self.es is es:
            return self.coeffs
        if not same_grid(self.grid, es.grid):
            raise GridMismatch("source and eigensystem use different grids")
        w = es.grid.trapezoid_weights()
        return (self.values * w) @ es.modes.T

    def values_at(self, t: float) -> np.ndarray:
        """Grid samples of the source at time t (linear interpolation)."""
        return next(_rows_at(self.times, self.values, np.array([t], dtype=float)))

    def regularity_norm(self) -> float:
        """Size of the source in the norm combining its space-time L2 norm,
        its slice at the onset, and the time-integrated L2 norm of its
        piecewise time derivative on [onset, horizon]."""
        w = self.grid.trapezoid_weights()

        def ip(f, g):
            return float(np.sum(w * f * g))

        sq = 0.0
        deriv_part = 0.0
        for i in range(self.times.size - 1):
            dt = self.times[i + 1] - self.times[i]
            f = self.values[i]
            g = (self.values[i + 1] - self.values[i]) / dt
            sq += dt * ip(f, f) + dt**2 * ip(f, g) + dt**3 * ip(g, g) / 3.0
            overlap = max(0.0, min(self.times[i + 1], self.horizon) - max(self.times[i], self.onset))
            if overlap > 0.0:
                deriv_part += overlap * math.sqrt(max(ip(g, g), 0.0))
        onset_slice = self.values_at(self.onset)
        return math.sqrt(max(sq, 0.0)) + math.sqrt(max(ip(onset_slice, onset_slice), 0.0)) + deriv_part


def _rows_at(knots: np.ndarray, rows: np.ndarray, times: np.ndarray):
    """Yield ``rows`` (one per knot) linearly interpolated at each of ``times``,
    held at the end rows outside the knots; one search finds every piece."""
    piece = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
    frac = (times - knots[piece]) / np.diff(knots)[piece]
    for t, i, s in zip(times.tolist(), piece.tolist(), frac.tolist()):
        if t <= knots[0]:
            yield rows[0]
        elif t >= knots[-1]:
            yield rows[-1]
        else:
            yield (1.0 - s) * rows[i] + s * rows[i + 1]


@dataclass(frozen=True)
class SolutionField:
    """Evolution sampled on a space-time grid.

    Spectrally built fields also carry their per-time coefficient rows and
    the initial coefficients; oracle-built fields carry grid values only.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    es: EigenSystem | None = None
    coeffs: np.ndarray | None = None
    alpha: SpectralVector | None = None
    source: SourceTerm | None = None

    def __post_init__(self):
        times = _frozen(self.times)
        values = _frozen(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if values.shape != (times.size, self.grid.n_nodes):
            raise ValueError("field values must be (n_times, n_nodes)")
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", _frozen(self.coeffs))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def slice_at(self, t: float) -> GridFunction:
        """Spatial slice at time t; exact for spectral fields, interpolated
        between stored rows otherwise."""
        if self.es is not None and self.alpha is not None:
            coeffs = _coeffs_at(self.alpha, self.source, self.es, float(t), self.horizon)
            return GridFunction(self.grid, coeffs[0] @ self.es.modes)
        t = float(t)
        if not self.times[0] <= t <= self.times[-1]:
            raise TimeOutOfRange(f"t = {t:g} outside [{self.times[0]:g}, {self.times[-1]:g}]")
        return GridFunction(self.grid, next(_rows_at(self.times, self.values, np.array([t]))))

    def evaluate(self, x, t: float):
        """Point values at arbitrary (x, t) via the slice plus linear x-interpolation."""
        slc = self.slice_at(t)
        return np.interp(np.asarray(x, dtype=float), self.grid.nodes, slc.values)

    def norm_l2(self) -> float:
        """Space-time L2 norm (trapezoid in both directions)."""
        wx = self.grid.trapezoid_weights()
        dt = np.diff(self.times)
        wt = np.zeros(self.times.size)
        wt[:-1] += 0.5 * dt
        wt[1:] += 0.5 * dt
        return float(np.sqrt(wt @ ((self.values**2) @ wx)))


def evolve_homogeneous(xi: SpectralVector, t: float, horizon: float = math.inf) -> SpectralVector:
    """Decay the coefficients over time t with no source; raises
    `MultiplierOverflow` for the first mode whose coefficient is not finite."""
    return SpectralVector(xi.es, _coeffs_at(xi, None, xi.es, t, horizon)[0])


def duhamel(src: SourceTerm, k: int, t: float, es: EigenSystem | None = None) -> float:
    """Source contribution to mode k at time t (exact for the linear pieces)."""
    es = es or src.es
    if es is None:
        raise ValueError("source has no eigensystem; pass one explicitly")
    return float(_duhamel_at(src, es, t)[0, k])


def _checked_times(times, horizon: float) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    bad = (times < 0.0) | (times > horizon * (1.0 + 1e-12))
    if np.any(bad):
        raise TimeOutOfRange(f"t = {times[bad][0]:g} outside [0, {horizon:g}]")
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


def _duhamel_at(src: SourceTerm, es: EigenSystem, times) -> np.ndarray:
    """Duhamel term of all modes at each of ``times``, one row per time,
    stepped exactly from the knot at or before it."""
    times = _checked_times(times, src.horizon)
    knots, a, b, states, _, _ = _knot_states(src, es)
    i = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
    w = (times - knots[i])[:, None]
    phi = _phis(-w * es.lambdas, 2)
    return phi[0] * states[i] + w * phi[1] * a[i] + w**2 * phi[2] * b[i]


def _source_average(src: SourceTerm, es: EigenSystem, ws: WeightSpec) -> np.ndarray:
    """kappa D(T) + integral_0^T w(t) D(t) dt for all modes, in closed form:
    a segment with weight v adds v (h phi_1 D_i + h^2 phi_2 a_i + h^3 phi_3 b_i)."""
    if abs(src.horizon - ws.horizon) > 1e-12 * ws.horizon:
        raise ValueError("source tabulation does not span the weight horizon")
    knots, a, b, states, h, phi = _knot_states(src, es, ws.breakpoints())
    v = np.asarray(ws.value_at(0.5 * (knots[:-1] + knots[1:])))
    out = v @ (h * phi[1] * states[:-1] + h**2 * phi[2] * a + h**3 * phi[3] * b)
    if ws.kappa != 0.0:
        out = out + ws.kappa * states[-1]
    return out


def _coeffs_at(alpha: SpectralVector, src: SourceTerm | None, es: EigenSystem,
               times, horizon: float) -> np.ndarray:
    """Field coefficients at each of ``times``, one row per time; raises
    `MultiplierOverflow` for the first mode whose column is not finite."""
    times = _checked_times(times, horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = alpha.coeffs * np.exp(-np.multiply.outer(times, es.lambdas))
        if src is not None:
            coeffs = coeffs + _duhamel_at(src, es, times)
    _check_finite(coeffs, es.lambdas)
    return coeffs


def solve_forward(xi: SpectralVector, src: SourceTerm | None = None,
                  times=None, horizon: float | None = None) -> SolutionField:
    """Evolve initial coefficients (plus optional source) over [0, horizon]."""
    es = xi.es
    if horizon is None:
        if src is None:
            raise ValueError("pass a horizon when there is no source")
        horizon = src.horizon
    if src is not None:
        if not same_grid(src.grid, es.grid):
            raise GridMismatch("source and eigensystem use different grids")
        if abs(src.horizon - horizon) > 1e-12 * horizon:
            raise ValueError("source tabulation does not span the horizon")
    if times is None:
        times = np.linspace(0.0, horizon, 129)
    times = np.asarray(times, dtype=float)
    coeffs = _coeffs_at(xi, src, es, times, horizon)
    values = coeffs @ es.modes
    return SolutionField(grid=es.grid, times=times, values=values, es=es,
                         coeffs=coeffs, alpha=xi, source=src)


def average_from_initial(xi: SpectralVector, ws: WeightSpec) -> SpectralVector:
    """Weighted time average of the source-free evolution started at ``xi``.

    Diagonal in the eigenbasis: each coefficient is scaled by the weight's
    multiplier at the corresponding eigenvalue.
    """
    return SpectralVector(xi.es, xi.coeffs * ws.multiplier(xi.es.lambdas))


def average_from_source(src: SourceTerm, ws: WeightSpec,
                        es: EigenSystem | None = None) -> SpectralVector:
    """Weighted time average of the zero-initial evolution driven by ``src``,
    exact up to rounding (closed-form weight integrals over the knot states)."""
    es = es or src.es
    if es is None:
        raise ValueError("source has no eigensystem; pass one explicitly")
    if ws.kappa != 0.0 and src.onset >= ws.horizon:
        raise OnsetInvalid("terminal weighting requires onset < horizon")
    return SpectralVector(es, _source_average(src, es, ws))


def weighted_average(field: SolutionField, ws: WeightSpec) -> SpectralVector:
    """Apply the averaged measurement to a spectral field, exactly: the sum
    of `average_from_initial` and `average_from_source`, which raises
    `OnsetInvalid` for a source whose onset is not before the horizon."""
    if field.es is None or field.alpha is None:
        raise ValueError("weighted_average needs a spectrally built field")
    out = average_from_initial(field.alpha, ws).coeffs
    if field.source is not None:
        out = out + average_from_source(field.source, ws, field.es).coeffs
    return SpectralVector(field.es, out)
