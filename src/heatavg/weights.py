"""Weight pair (kappa, w) defining the averaged measurement and its multipliers.

The measurement applied to an evolution u is

    kappa * u(x, T) + integral_0^T w(t) u(x, t) dt.

In the eigenbasis it acts diagonally: mode k is scaled by

    multiplier(lambda_k) = integral_0^T w(t) exp(-lambda_k t) dt
                           + kappa * exp(-lambda_k T).

w is piecewise constant, so the multiplier has an exact closed form and the
inverse pipeline carries no quadrature error from this side.  Admissibility
requires kappa >= 0, w >= 0, and some horizon prefix [0, T1] on which w stays
strictly positive; without that prefix the multipliers decay exponentially
and division by them blows up (the excluded pure-terminal case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EigenSystem

_GUARD = 1e-12  # relative float slack for the per-mode bound checks


class BoundViolated(RuntimeError):
    """A computed multiplier escaped its proven band; indicates a code bug."""


class IllPosedWeight(ValueError):
    """The weight spec fails admissibility; inversion would be unstable."""


class MultiplierOverflow(ValueError):
    """A multiplier is not finite: exp(-lambda t) overflows for an eigenvalue
    far below zero.  ``mode`` is the 1-based index of the first such entry."""

    def __init__(self, mode: int, lam: float):
        super().__init__(f"multiplier is not finite at mode {mode} (lambda = {lam:g})")
        self.mode = mode


class WeightReport(tuple):
    """The violated admissibility clauses of a weight, in order; empty for an
    admissible weight.  ``ok`` is ``not report``, kept for perfbench's set-up
    probe, which reads it."""

    @property
    def ok(self) -> bool:
        return not self


@dataclass(frozen=True)
class StabilityConstants:
    """Two-sided band for the multipliers: for modes with positive eigenvalue
    c1 <= lambda*multiplier <= c2, and c1 <= multiplier <= c2 before that."""

    c1: float
    c2: float
    m: int  # 1-based index of the first mode with positive eigenvalue


def _check_finite(values: np.ndarray, lam: np.ndarray) -> None:
    """Raise `MultiplierOverflow` for the first entry of ``lam`` whose column of
    ``values`` (its trailing axes) is not all finite: exp(-lambda t) overflowed."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=tuple(range(values.ndim - lam.ndim))))
    if bad.size:
        raise MultiplierOverflow(int(bad[0]) + 1, float(lam.flat[bad[0]]))


def _decay_integral(lam, width):
    """integral_0^width exp(-lam*s) ds for an array ``lam``, stable near lam = 0."""
    safe = np.where(lam == 0.0, 1.0, lam)
    return np.where(lam == 0.0, width, -np.expm1(-lam * width) / safe)


@dataclass(frozen=True)
class WeightSpec:
    """Piecewise-constant weight on [0, horizon] plus a terminal coefficient.

    ``pieces`` is a sorted tuple of (start, end, value) with disjoint
    interiors; gaps count as value 0.  ``t1`` witnesses admissibility: the
    weight must be positive on all of [0, t1]; unset, it is inferred.
    """

    kappa: float
    pieces: tuple[tuple[float, float, float], ...]
    horizon: float
    t1: float | None = None

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")
        if self.t1 is not None and not math.isfinite(self.t1):
            raise ValueError("T1 must be finite")
        tol = 1e-12 * self.horizon
        pieces = tuple(sorted((float(s), float(e), float(v)) for s, e, v in self.pieces))
        prev_end = 0.0 - tol
        for s, e, v in pieces:
            if not all(map(math.isfinite, (s, e, v))):
                raise ValueError(f"weight piece ({s:g}, {e:g}, {v:g}) is not finite")
            if e <= s:
                raise ValueError(f"weight piece [{s:g}, {e:g}] has no width")
            if s < -tol or e > self.horizon + tol:
                raise ValueError("weight pieces must lie inside [0, horizon]")
            if s < prev_end - tol:
                raise ValueError("weight pieces must not overlap")
            prev_end = e
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "t1", self._inferred_t1() if self.t1 is None else float(self.t1))

    # -- constructors -------------------------------------------------------

    @classmethod
    def average(cls, horizon: float, kappa: float = 0.0, t1: float | None = None) -> "WeightSpec":
        """Running average (w = 1 on the whole horizon) plus kappa times u(T)."""
        return cls(kappa=float(kappa), pieces=((0.0, float(horizon), 1.0),),
                   horizon=float(horizon), t1=t1)

    @classmethod
    def quasi_boundary(cls, horizon: float, eps: float, kappa: float = 1.0,
                       t1: float | None = None) -> "WeightSpec":
        """Terminal value softened by a short initial average of width eps."""
        if not 0.0 < eps <= horizon:
            raise ValueError("eps must lie in (0, horizon]")
        return cls(kappa=float(kappa), pieces=((0.0, float(eps), 1.0),),
                   horizon=float(horizon), t1=t1)

    @classmethod
    def terminal(cls, horizon: float, kappa: float = 1.0) -> "WeightSpec":
        """Pure terminal measurement (w = 0); never admissible."""
        return cls(kappa=float(kappa), pieces=(), horizon=float(horizon))

    @classmethod
    def from_pieces(cls, kappa: float, pieces, horizon: float,
                    t1: float | None = None) -> "WeightSpec":
        return cls(kappa=float(kappa), pieces=tuple(pieces), horizon=float(horizon), t1=t1)

    # -- piecewise evaluation -----------------------------------------------

    def _contiguous(self):
        """(end, value, extends) of each piece in order while the pieces cover
        [0, end] without a gap; ``extends`` is false for a piece that ends
        within the tolerance of the cover so far, which then does not grow."""
        tol = 1e-12 * self.horizon
        covered = 0.0
        for s, e, v in self.pieces:
            extends = e > covered + tol
            if extends and s > covered + tol:
                return
            yield e, v, extends
            if extends:
                covered = e

    def _inferred_t1(self) -> float | None:
        """The default ``t1``: the end of the longest prefix [0, t] that positive
        pieces cover without a gap, or None when there is none."""
        t = 0.0
        for e, v, _ in self._contiguous():
            if v <= 0.0:
                break
            t = max(t, e)
        return t if t > 0.0 else None

    def ess_inf(self, upto: float) -> float:
        """Essential infimum of the weight over [0, upto]; gaps count as 0."""
        lo = math.inf
        for e, v, extends in self._contiguous():
            if extends:
                lo = min(lo, v)
                if e >= upto - 1e-12 * self.horizon:
                    return lo
        return 0.0

    def sup(self) -> float:
        """Essential supremum of the weight over the whole horizon."""
        return max((v for _, _, v in self.pieces), default=0.0)

    def value_at(self, t):
        """Evaluate the weight pointwise (vectorized); gaps return 0."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for s, e, v in self.pieces:
            out = np.where((t >= s) & (t < e), v, out)
        if self.pieces:
            s, e, v = self.pieces[-1]
            out = np.where(t == e, v, out)
        return out

    def breakpoints(self) -> np.ndarray:
        pts = {0.0, self.horizon}
        for s, e, _ in self.pieces:
            pts.add(s)
            pts.add(e)
        return np.array(sorted(pts))

    # -- the contract -------------------------------------------------------

    def validate(self) -> WeightReport:
        """Check admissibility: the tuple of violated clauses, ``()`` if none."""
        violations = []
        if self.kappa < 0.0:
            violations.append("kappa is negative")
        if any(v < 0.0 for _, _, v in self.pieces):
            violations.append("weight takes negative values")
        if self.kappa == 0.0 and self.sup() == 0.0:
            violations.append("kappa and weight are both zero")
        if (self.t1 is None or not 0.0 < self.t1 <= self.horizon * (1 + 1e-12)
                or self.ess_inf(self.t1) <= 0.0):
            violations.append("no T1 with ess inf > 0")
        return WeightReport(violations)

    def multiplier(self, lam):
        """Closed-form factor by which mode(s) with eigenvalue ``lam`` are
        scaled in the averaged measurement.  Vectorized over ``lam``; raises
        `MultiplierOverflow` rather than return an infinite or NaN entry."""
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(lam.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            for s, e, v in self.pieces:
                out = out + v * np.exp(-lam * s) * _decay_integral(lam, e - s)
            if self.kappa != 0.0:  # kappa = 0 must not meet an overflowed exp as 0*inf
                out = out + self.kappa * np.exp(-lam * self.horizon)
        _check_finite(out, lam)
        if out.ndim == 0:
            return float(out)
        return out


def stability_constants(ws: WeightSpec, es: EigenSystem) -> StabilityConstants:
    """The one gate for a weight: check admissibility, then compute the
    multiplier band (c1, c2) and verify it mode by mode.

    Raises `IllPosedWeight` when the weight fails admissibility, and
    ValueError when a multiplier or c1 is below the smallest normal double:
    the weight is too small for double precision.  The lower constant is min
    over the leading multipliers and w_* (1 - exp(-lambda_m * T1)); the upper
    one is max over the leading multipliers and sup w + kappa/(e*T).  Every
    retained mode is checked against its band; a violation means the
    implementation is broken, not that the input is bad, hence BoundViolated.
    """
    violations = ws.validate()
    if violations:
        raise IllPosedWeight("; ".join(violations))
    fp = es.first_positive
    if fp >= es.n_modes:
        raise ValueError("no positive eigenvalue within the truncation; increase the mode count")
    lam = es.lambdas
    mult = ws.multiplier(lam)
    lam_m = lam[fp]
    w_star = ws.ess_inf(ws.t1)
    leading = mult[: fp + 1]
    c1 = min(float(np.min(leading)), w_star * float(-np.expm1(-lam_m * ws.t1)))
    c2 = max(float(np.max(leading)), ws.sup() + ws.kappa / (math.e * ws.horizon))
    tiny = np.finfo(float).tiny
    under = np.flatnonzero(mult < tiny)
    if under.size:
        raise ValueError(f"multiplier underflows double precision at mode {under[0] + 1} "
                         f"(lambda = {lam[under[0]]:g}); the weight is too small")
    if c1 < tiny:
        raise ValueError(f"c1 = {c1:g} underflows double precision; the weight is too small")
    if not 0.0 < c1 < c2:
        raise BoundViolated(f"degenerate band c1={c1:g}, c2={c2:g}")

    scaled = np.concatenate([mult[:fp], lam[fp:] * mult[fp:]])
    bad = np.flatnonzero((scaled < c1 * (1.0 - _GUARD)) | (scaled > c2 * (1.0 + _GUARD))) + 1
    if bad.size:
        raise BoundViolated(f"multiplier bounds violated at modes {bad[:8].tolist()}")
    return StabilityConstants(c1=c1, c2=c2, m=fp + 1)
