"""Recovery of the full evolution from its weighted time average.

The averaged measurement acts diagonally on eigencoefficients, scaling mode
k by a strictly positive multiplier.  Inversion is therefore plain per-mode
division; admissibility of the weight (checked up front) guarantees the
reciprocals grow at most linearly with the eigenvalue, so no damping or
filtering is applied.  Modes beyond the truncation are set to zero and the
report carries the projection residual so the bias is visible.

The excluded configuration (terminal coefficient only, zero weight) makes
the multipliers decay exponentially; inverting it is refused unless the
caller explicitly overrides, in which case the report documents the
amplification instead of pretending the division is trustworthy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import EigenSystem, GridFunction, SpectralVector, project, synthesize
from .forward import SolutionField, SourceTerm, average_from_source, solve_forward, weighted_average
from .weights import StabilityConstants, WeightSpec, stability_constants


class BoundaryViolation(ValueError):
    """Averaged data must vanish at both ends of the interval."""


class IllPosedWeight(ValueError):
    """The weight spec fails admissibility; inversion would be unstable."""


@dataclass(frozen=True)
class InverseReport:
    """Diagnostics attached to a recovered initial state.

    ``residual_mu`` is the L2 distance between the prescribed average and
    the re-applied forward average of the recovered state;
    ``truncation_residual`` is the part of the data the retained modes
    cannot represent; ``amplification`` is the largest reciprocal
    multiplier that was used; ``h2_tail_fraction`` measures how much of the
    curvature-norm sum comes from the last decade of modes (large values
    mean the data's second-derivative norm has not converged and the
    stability guarantee is shaky).
    """

    xi: SpectralVector
    residual_mu: float
    amplification: float
    stability: StabilityConstants | None
    h2_norm_mu: float
    truncation_residual: float
    h2_tail_fraction: float


def _checked_projection(mu: GridFunction, es: EigenSystem) -> np.ndarray:
    scale = 1.0 + float(np.max(np.abs(mu.values)))
    if abs(mu.values[0]) > 1e-12 * scale or abs(mu.values[-1]) > 1e-12 * scale:
        raise BoundaryViolation("averaged data must be zero at both interval ends")
    return project(mu, es).coeffs


def _h2_surrogate(gamma: np.ndarray, lambdas: np.ndarray) -> tuple[float, float]:
    terms = (gamma * lambdas) ** 2
    total = float(np.sum(terms))
    if total == 0.0:
        return 0.0, 0.0
    tail_start = int(0.9 * terms.size)
    tail = float(np.sum(terms[tail_start:]))
    return float(np.sqrt(total)), tail / total


def norm_h2(f: GridFunction, es: EigenSystem) -> float:
    """Curvature seminorm sqrt(sum (gamma_k * lambda_k)^2).

    For zero-trace functions this equals the L2 norm of the operator applied
    to f, which elliptic regularity makes equivalent to the full
    second-order Sobolev norm; it is the quantity the stability estimate is
    phrased in.
    """
    gamma = _checked_projection(f, es)
    value, _ = _h2_surrogate(gamma, es.lambdas)
    return value


def recover_initial(mu: GridFunction, ws: WeightSpec, es: EigenSystem,
                    allow_ill_posed: bool = False) -> InverseReport:
    """Divide the data's eigencoefficients by the multipliers.

    Raises IllPosedWeight when the weight fails admissibility, unless
    ``allow_ill_posed`` is set, in which case the division is performed
    anyway (possibly producing non-finite coefficients) purely so the
    report can document the amplification.
    """
    gamma = _checked_projection(mu, es)
    report = ws.validate()
    stability = None
    if report.ok:
        stability = stability_constants(ws, es)
    elif not allow_ill_posed:
        raise IllPosedWeight("; ".join(report.violations))

    mult = np.asarray(ws.multiplier(es.lambdas))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = gamma / mult
        amplification = float(np.max(np.abs(np.where(mult == 0.0, np.inf, 1.0 / mult))))
    xi = SpectralVector(es, np.nan_to_num(alpha, nan=0.0, posinf=np.inf, neginf=-np.inf)
                        if not report.ok else alpha)

    if report.ok:
        replay = xi.coeffs * mult
        scale = 1.0 + float(np.max(np.abs(gamma)))
        if float(np.max(np.abs(replay - gamma))) > 1e-12 * scale:
            raise RuntimeError("re-applied average drifted from the data; inversion is corrupt")

    back = synthesize(SpectralVector(es, gamma), es)
    truncation = GridFunction(mu.grid, mu.values - back.values).norm_l2()
    if report.ok:
        applied = synthesize(SpectralVector(es, xi.coeffs * mult), es)
        residual = GridFunction(mu.grid, mu.values - applied.values).norm_l2()
    else:
        residual = float("nan")

    h2_value, tail = _h2_surrogate(gamma, es.lambdas)
    if tail > 0.01:
        warnings.warn(
            "curvature-norm partial sums have not converged "
            f"(last decade of modes contributes {100 * tail:.1f}%); "
            "the prescribed average may lack the smoothness the stability "
            "guarantee assumes",
            stacklevel=2,
        )
    return InverseReport(
        xi=xi,
        residual_mu=residual,
        amplification=amplification,
        stability=stability,
        h2_norm_mu=h2_value,
        truncation_residual=truncation,
        h2_tail_fraction=tail,
    )


def solve_inverse(mu: GridFunction, src: SourceTerm | None, ws: WeightSpec,
                  es: EigenSystem, times=None) -> tuple[SolutionField, InverseReport]:
    """Recover the full evolution whose weighted average is ``mu``.

    With a source the data is first reduced by the source's own averaged
    contribution, the initial coefficients are recovered from the remainder,
    and the evolution is rebuilt from both.  The source average is exact, and
    the report's residual re-applies the measurement to the recovered field
    through the same kernel, so it checks the algebra up to rounding;
    independent verification of the source average is the oracle's job.
    """
    gamma = _checked_projection(mu, es)
    report = ws.validate()
    if not report.ok:
        raise IllPosedWeight("; ".join(report.violations))
    stability = stability_constants(ws, es)

    reduced = gamma
    if src is not None:
        reduced = gamma - average_from_source(src, ws, es).coeffs
    mult = np.asarray(ws.multiplier(es.lambdas))
    alpha = SpectralVector(es, reduced / mult)
    amplification = float(np.max(1.0 / mult))

    field = solve_forward(alpha, src, times=times, horizon=ws.horizon)

    applied = weighted_average(field, ws)
    residual = float(np.linalg.norm(applied.coeffs - gamma))
    back = synthesize(SpectralVector(es, gamma), es)
    truncation = GridFunction(mu.grid, mu.values - back.values).norm_l2()
    h2_value, tail = _h2_surrogate(gamma, es.lambdas)
    if tail > 0.01:
        warnings.warn(
            "curvature-norm partial sums have not converged "
            f"(last decade of modes contributes {100 * tail:.1f}%)",
            stacklevel=2,
        )
    rep = InverseReport(
        xi=alpha,
        residual_mu=residual,
        amplification=amplification,
        stability=stability,
        h2_norm_mu=h2_value,
        truncation_residual=truncation,
        h2_tail_fraction=tail,
    )
    return field, rep
