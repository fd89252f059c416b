"""Recovery of the full evolution from its weighted time average.

The averaged measurement acts diagonally on eigencoefficients, scaling mode
k by a strictly positive multiplier.  Inversion is therefore plain per-mode
division; admissibility of the weight (checked up front) guarantees the
reciprocals grow at most linearly with the eigenvalue, so no damping or
filtering is applied.  Modes beyond the truncation are set to zero and the
report carries the truncation residual so the bias is visible.  An
inadmissible weight, such as the pure-terminal one, is refused.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .basis import EigenSystem, GridFunction, SpectralVector, project, synthesize
from .forward import SolutionField, SourceTerm, average_from_source, solve_forward
from .weights import StabilityConstants, WeightSpec, stability_constants


class BoundaryViolation(ValueError):
    """Averaged data must vanish at both ends of the interval."""


@dataclass(frozen=True)
class InverseReport:
    """Diagnostics attached to a recovered initial state.

    ``residual_mu`` is the coefficient 2-norm of the re-applied average
    minus the data, ``||alpha * multiplier + source average - gamma||`` over
    the retained modes; truncation is reported separately, as
    ``truncation_residual``, the L2 norm of the part of the data the
    retained modes cannot represent.  Near 1e-14 both are
    rounding noise, not a measured error: for data in the span of the modes
    the truncation residual reads 5e-15 to 2e-14, and its trailing digits
    move with the summation order.  ``amplification`` is the largest
    reciprocal multiplier that was used and ``stability`` the weight's band
    from `stability_constants`; ``h2_tail_fraction`` measures how
    much of the curvature-norm sum comes from the last decade of modes
    (large values mean the data's second-derivative norm has not
    converged and the stability guarantee is shaky).
    """

    xi: SpectralVector
    residual_mu: float
    amplification: float
    stability: StabilityConstants
    truncation_residual: float
    h2_tail_fraction: float


def _checked_projection(mu: GridFunction, es: EigenSystem) -> SpectralVector:
    scale = 1.0 + float(np.max(np.abs(mu.values)))
    if abs(mu.values[0]) > 1e-12 * scale or abs(mu.values[-1]) > 1e-12 * scale:
        raise BoundaryViolation("averaged data must be zero at both interval ends")
    return project(mu, es)


def norm_h2(f: GridFunction, es: EigenSystem) -> float:
    """Curvature seminorm sqrt(sum (gamma_k * lambda_k)^2).

    For zero-trace functions this equals the L2 norm of the operator applied
    to f, which elliptic regularity makes equivalent to the full
    second-order Sobolev norm; it is the quantity the stability estimate is
    phrased in.
    """
    gamma = _checked_projection(f, es).coeffs
    return float(np.sqrt(np.sum((gamma * es.lambdas) ** 2)))


@dataclass(frozen=True)
class DataFit:
    """The weight-independent part of an inversion, from `fit_data`: the
    data's eigencoefficients ``gamma`` and, as `InverseReport` defines them,
    its truncation residual and curvature-tail fraction."""

    gamma: np.ndarray
    truncation_residual: float
    h2_tail_fraction: float

    def warn_if_rough(self, stacklevel: int = 1) -> None:
        """Warn when the last decade of modes holds over 1% of the curvature
        norm; ``stacklevel`` counts from the caller, as in `warnings.warn`."""
        if self.h2_tail_fraction > 0.01:
            warnings.warn(
                "curvature-norm partial sums have not converged (last decade of "
                f"modes contributes {100 * self.h2_tail_fraction:.1f}%); "
                "the prescribed average may lack the smoothness the stability "
                "guarantee assumes",
                stacklevel=stacklevel + 1,
            )


def fit_data(mu: GridFunction, es: EigenSystem) -> DataFit:
    """Project averaged data ``mu``, zero at both ends (else `BoundaryViolation`)
    with norms that fit a double (else `ValueError`), and measure what the modes miss of it."""
    gamma = _checked_projection(mu, es)
    with np.errstate(over="ignore"):
        truncation = GridFunction(mu.grid, mu.values - synthesize(gamma, es).values).norm_l2()
        terms = (gamma.coeffs * es.lambdas) ** 2  # the curvature-norm sum of `norm_h2`, by mode
        total = float(np.sum(terms))
    if not np.isfinite([truncation, total]).all():
        raise ValueError("averaged data too large: its norms overflow double precision")
    tail = float(np.sum(terms[int(0.9 * terms.size):])) / total if total else 0.0
    return DataFit(gamma.coeffs, truncation, tail)


def _invert(mu: GridFunction, src: SourceTerm | None, ws: WeightSpec,
            es: EigenSystem) -> tuple[InverseReport, SourceTerm | None]:
    """The one inversion step: subtract the source's averaged contribution
    (if any) from the data's eigencoefficients and divide by the multipliers.
    The source comes back bound to ``es``, projected once, for the field.
    The smoothness warning names the line that called the public function."""
    fit = fit_data(mu, es)
    stability = stability_constants(ws, es)
    if src is not None and src.es is not es:
        src = replace(src, es=es)
    source_avg = 0.0 if src is None else average_from_source(src, ws, es).coeffs
    reduced = fit.gamma - source_avg
    mult = np.asarray(ws.multiplier(es.lambdas))
    xi = SpectralVector(es, reduced / mult)
    replay = xi.coeffs * mult
    scale = 1.0 + float(np.max(np.abs(reduced)))
    if float(np.max(np.abs(replay - reduced))) > 1e-12 * scale:
        raise RuntimeError("re-applied average drifted from the data; inversion is corrupt")
    fit.warn_if_rough(3)
    return InverseReport(
        xi=xi,
        residual_mu=float(np.linalg.norm(replay + source_avg - fit.gamma)),
        amplification=float(1.0 / np.min(np.abs(mult))),
        stability=stability,
        truncation_residual=fit.truncation_residual,
        h2_tail_fraction=fit.h2_tail_fraction,
    ), src


def recover_initial(mu: GridFunction, ws: WeightSpec, es: EigenSystem) -> InverseReport:
    """Divide the data's eigencoefficients by the multipliers; raises
    `IllPosedWeight` when the weight fails admissibility."""
    return _invert(mu, None, ws, es)[0]


def solve_inverse(mu: GridFunction, src: SourceTerm | None, ws: WeightSpec,
                  es: EigenSystem, times=None) -> tuple[SolutionField, InverseReport]:
    """Recover the full evolution whose weighted average is ``mu``.

    With a source the data is first reduced by the source's own averaged
    contribution, the initial coefficients are recovered from the remainder,
    and the evolution is rebuilt from both.  The report is the one
    `recover_initial` gives for the same data and weight; its residual adds
    the source average back to the re-applied multipliers, so it checks the
    algebra up to rounding.  The source average is exact; independent
    verification of it is the oracle's job.  The field holds ``times``,
    129 uniform times on [0, horizon] by default.
    """
    rep, src = _invert(mu, src, ws, es)
    if times is None:
        times = np.linspace(0.0, ws.horizon, 129)
    return solve_forward(rep.xi, src, times), rep
