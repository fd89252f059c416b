"""Recovery of the full evolution from its weighted time average.

The averaged measurement acts diagonally on eigencoefficients, scaling mode
k by a strictly positive multiplier.  Inversion is therefore plain per-mode
division; admissibility of the weight (checked up front) guarantees the
reciprocals grow at most linearly with the eigenvalue, so no damping or
filtering is applied.  Modes beyond the truncation are set to zero and the
report carries the truncation residual so the bias is visible.

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
from .forward import SolutionField, SourceTerm, average_from_source, solve_forward
from .weights import StabilityConstants, WeightSpec, stability_constants


class BoundaryViolation(ValueError):
    """Averaged data must vanish at both ends of the interval."""


@dataclass(frozen=True)
class InverseReport:
    """Diagnostics attached to a recovered initial state.

    ``residual_mu`` is the coefficient 2-norm of the re-applied average
    minus the data, ``||alpha * multiplier + source average - gamma||`` over
    the retained modes (NaN for an inadmissible weight); truncation is
    reported separately, as ``truncation_residual``, the L2 norm of the part
    of the data the retained modes cannot represent.  Near 1e-14 both are
    rounding noise, not a measured error: for data in the span of the modes
    the truncation residual reads 5e-15 to 2e-14, and its trailing digits
    move with the summation order.  ``amplification`` is the largest
    reciprocal multiplier that was used; ``h2_tail_fraction`` measures how
    much of the curvature-norm sum comes from the last decade of modes
    (large values mean the data's second-derivative norm has not
    converged and the stability guarantee is shaky).
    """

    xi: SpectralVector
    residual_mu: float
    amplification: float
    stability: StabilityConstants | None
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


def _invert(mu: GridFunction, src: SourceTerm | None, ws: WeightSpec, es: EigenSystem,
            allow_ill_posed: bool = False) -> InverseReport:
    """The one inversion step: subtract the source's averaged contribution
    (if any) from the data's eigencoefficients and divide by the multipliers.
    The smoothness warning names the line that called the public function."""
    gamma = _checked_projection(mu, es)
    ill_posed = allow_ill_posed and bool(ws.validate())
    stability = None if ill_posed else stability_constants(ws, es)

    source_avg = 0.0 if src is None else average_from_source(src, ws, es).coeffs
    reduced = gamma - source_avg
    mult = np.asarray(ws.multiplier(es.lambdas))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = reduced / mult
        amplification = float(1.0 / np.min(np.abs(mult)))

    residual = float("nan")
    if stability is not None:
        replay = alpha * mult
        scale = 1.0 + float(np.max(np.abs(reduced)))
        if float(np.max(np.abs(replay - reduced))) > 1e-12 * scale:
            raise RuntimeError("re-applied average drifted from the data; inversion is corrupt")
        residual = float(np.linalg.norm(replay + source_avg - gamma))

    back = synthesize(SpectralVector(es, gamma), es)
    truncation = GridFunction(mu.grid, mu.values - back.values).norm_l2()
    _, tail = _h2_surrogate(gamma, es.lambdas)
    if tail > 0.01:
        warnings.warn(
            "curvature-norm partial sums have not converged "
            f"(last decade of modes contributes {100 * tail:.1f}%); "
            "the prescribed average may lack the smoothness the stability "
            "guarantee assumes",
            stacklevel=3,
        )
    return InverseReport(
        xi=SpectralVector(es, alpha),
        residual_mu=residual,
        amplification=amplification,
        stability=stability,
        truncation_residual=truncation,
        h2_tail_fraction=tail,
    )


def recover_initial(mu: GridFunction, ws: WeightSpec, es: EigenSystem,
                    allow_ill_posed: bool = False) -> InverseReport:
    """Divide the data's eigencoefficients by the multipliers.

    Raises IllPosedWeight when the weight fails admissibility, unless
    ``allow_ill_posed`` is set, in which case the division is performed
    anyway (possibly producing non-finite coefficients) purely so the
    report can document the amplification.
    """
    return _invert(mu, None, ws, es, allow_ill_posed)


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
    rep = _invert(mu, src, ws, es)
    if times is None:
        times = np.linspace(0.0, ws.horizon, 129)
    return solve_forward(rep.xi, src, times), rep
