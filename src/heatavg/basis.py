"""Orthonormal eigenbasis of a 1-D Sturm-Liouville operator with Dirichlet ends.

The operator acts as (a(x) u')' + a0(x) u on an interval (0, L) with zero
boundary values.  Its eigenpairs diagonalize the diffusion evolution, so the
rest of the package works with coefficient vectors in this basis.  Grid
functions move into and out of the basis with `project` and `synthesize`;
both use the trapezoid inner product, which makes the discrete modes
orthonormal to machine precision.

Two construction paths exist.  Constant coefficients use the classical sine
eigenfunctions directly.  Tabulated coefficients are discretized with
second-order central differences (diffusion sampled at cell midpoints),
which yields a symmetric tridiagonal matrix solved by LAPACK's tridiagonal
bisection and inverse iteration (``dstebz``, ``dstein``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._lapack import routines


class NonElliptic(ValueError):
    """The diffusion coefficient is not strictly positive on the grid."""


class TruncationTooLarge(ValueError):
    """More modes were requested than the grid can resolve."""


class GridMismatch(ValueError):
    """Operands live on different grids or eigensystems."""


def _frozen(values) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=float))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, length] with ``n_nodes`` nodes, endpoints included.

    A grid is the pair (length, n_nodes); ``nodes`` is derived from it, so
    grids with equal pairs are equal.
    """

    length: float
    n_nodes: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"interval length must be positive and finite, not {self.length:g}")
        object.__setattr__(self, "n_nodes", operator.index(self.n_nodes))
        if self.n_nodes < 3:
            raise ValueError("a grid needs at least three nodes")
        object.__setattr__(self, "nodes", _frozen(np.linspace(0.0, self.length, self.n_nodes)))

    @classmethod
    def uniform(cls, length: float, n_nodes: int) -> "Grid":
        return cls(float(length), n_nodes)

    @property
    def h(self) -> float:
        return self.length / (self.n_nodes - 1)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_nodes, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_nodes,):
            raise ValueError("value array does not match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.n_nodes))

    def norm_l2(self) -> float:
        return float(np.sqrt(np.sum(self.grid.trapezoid_weights() * self.values**2)))


@dataclass(frozen=True)
class OperatorSpec:
    """Elliptic operator (a(x) u')' + a0(x) u on (0, length).

    Give exactly one coefficient pair; the pair given selects the eigensolve
    path.  A constant diffusion and a constant zero-order term ``-q`` admit
    closed-form eigenpairs; coefficient callables ``a`` and ``a0`` are
    sampled on the grid at build time.
    """

    length: float
    diffusion: float | None = None
    q: float | None = None
    a: Callable[[np.ndarray], np.ndarray] | None = None
    a0: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        given = [value is not None for value in (self.diffusion, self.q, self.a, self.a0)]
        if given not in ([True, True, False, False], [False, False, True, True]):
            raise ValueError("give exactly one of the pairs (diffusion, q) and (a, a0)")
        if self.length <= 0.0:
            raise ValueError("interval length must be positive")
        if self.a is None and self.diffusion <= 0.0:
            raise NonElliptic("constant diffusion must be strictly positive")
        for name, value in (("interval length", self.length), ("q", self.q),
                            ("diffusion", self.diffusion)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value:g}")

    @classmethod
    def constant(cls, length: float, q: float = 0.0, diffusion: float = 1.0) -> "OperatorSpec":
        return cls(length=float(length), diffusion=float(diffusion), q=float(q))

    @classmethod
    def from_table(cls, length: float, x, a_values, a0_values) -> "OperatorSpec":
        """Coefficients given as samples; linear interpolation in between."""
        xs, av, a0v = (np.asarray(v, dtype=float) for v in (x, a_values, a0_values))
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("a coefficient table needs at least two rows")
        if av.shape != xs.shape or a0v.shape != xs.shape:
            raise ValueError("coefficient tables must match the abscissae")
        if not all(np.all(np.isfinite(v)) for v in (xs, av, a0v)):
            raise ValueError("coefficient table entries must be finite")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("coefficient abscissae must be increasing")
        return cls(
            float(length),
            a=lambda t, _x=xs, _v=av: np.interp(t, _x, _v),
            a0=lambda t, _x=xs, _v=a0v: np.interp(t, _x, _v),
        )

    def sample(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Return (diffusion at midpoints, zero-order term at nodes).

        Raises NonElliptic when the sampled diffusion is not strictly positive,
        and names it when 2 max(a) / h^2 + max|a0|, a bound on every entry of
        the difference matrix, overflows double precision.
        """
        if self.a is None:
            a_mid = np.full(grid.n_nodes - 1, self.diffusion)
            a0_nodes = np.full(grid.n_nodes, -self.q)
        else:
            a_mid = np.asarray(self.a(grid.midpoints), dtype=float)
            a_nodes = np.asarray(self.a(grid.nodes), dtype=float)
            a0_nodes = np.asarray(self.a0(grid.nodes), dtype=float)
            if not (np.all(np.isfinite(a_mid)) and np.all(np.isfinite(a_nodes))
                    and np.all(np.isfinite(a0_nodes))):
                raise ValueError("operator coefficients must be finite on the grid")
        delta = float(np.min(a_mid))
        if delta <= 0.0:
            raise NonElliptic(f"diffusion coefficient reaches {delta:g} <= 0 on the grid")
        peak, name = float(np.max(a_mid)), "diffusion" if self.a is None else "a"
        if not math.isfinite(2.0 * peak / grid.h**2 + float(np.max(np.abs(a0_nodes)))):
            raise ValueError(f"{name} = {peak:g} is too large for double precision on this grid")
        return a_mid, a0_nodes


@dataclass(frozen=True)
class EigenSystem:
    """Truncated Dirichlet eigenpairs of an OperatorSpec on a grid.

    ``lambdas`` are strictly increasing; ``modes[k]`` is the k-th
    eigenfunction sampled on the grid, orthonormal in the trapezoid inner
    product and sign-fixed so its first interior value is positive.
    ``n_modes`` and ``first_positive`` derive from ``lambdas``.
    """

    grid: Grid
    lambdas: np.ndarray
    modes: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @property
    def first_positive(self) -> int:
        """Index of the first strictly positive eigenvalue (``n_modes`` when
        there is none within the truncation)."""
        return int(np.searchsorted(self.lambdas, 0.0, side="right"))


@dataclass(frozen=True)
class SpectralVector:
    """Coefficients of a grid function in an eigenbasis."""

    es: EigenSystem
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _frozen(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.shape != (self.es.n_modes,):
            raise ValueError("coefficient count does not match the eigensystem")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("spectral coefficients must be finite")


def basis_vector(es: EigenSystem, k: int) -> SpectralVector:
    c = np.zeros(es.n_modes)
    c[k] = 1.0
    return SpectralVector(es, c)


def build_eigensystem(op: OperatorSpec, grid: Grid, n_modes: int) -> EigenSystem:
    """Compute the first ``n_modes`` Dirichlet eigenpairs of ``op`` on ``grid``."""
    if abs(grid.length - op.length) > 1e-12 * op.length:
        raise GridMismatch("grid does not span the operator's interval")
    if operator.index(n_modes) < 1:
        raise ValueError("need at least one mode")
    if n_modes > grid.n_nodes - 2:
        raise TruncationTooLarge(
            f"{n_modes} modes requested but the grid resolves only {grid.n_nodes - 2}"
        )

    if op.a is None:
        k = np.arange(1, n_modes + 1)
        freq = k * np.pi / op.length
        with np.errstate(over="ignore"):  # named below; the last eigenvalue is the largest
            lambdas = op.diffusion * freq**2 + op.q
        if not math.isfinite(lambdas[-1]):
            raise ValueError(f"diffusion = {op.diffusion:g} is too large for double precision")
        modes = np.sqrt(2.0 / op.length) * np.sin(np.outer(freq, grid.nodes))
        modes[:, 0] = 0.0
        modes[:, -1] = 0.0
    else:
        dstebz, dstein = routines("dstebz", "dstein")

        a_mid, a0_nodes = op.sample(grid)
        h = grid.h
        diag = (a_mid[:-1] + a_mid[1:]) / h**2 - a0_nodes[1:-1]
        # the wrappers want an off-diagonal entry even for the 1 x 1 matrix
        # of a 3-node grid, where LAPACK reads none
        off = -a_mid[1:-1] / h**2 if grid.n_nodes > 3 else np.zeros(1)
        # eigh_tridiagonal(select="i")'s sequence: bisection for the lowest
        # n_modes eigenvalues in block order, inverse iteration for their
        # vectors, then ascending order
        m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, 1, n_modes, 0.0, "B")
        if info != 0:
            raise np.linalg.LinAlgError(f"dstebz did not converge (LAPACK info={info})")
        vecs, info = dstein(diag, off, w[:m], iblock, isplit)
        if info != 0:
            raise np.linalg.LinAlgError(f"dstein: {info} eigenvectors failed to converge")
        order = np.argsort(w[:m])
        lambdas, vecs = w[order], vecs[:, order]
        modes = np.zeros((n_modes, grid.n_nodes))
        # LAPACK vectors are Euclidean-orthonormal over the interior nodes;
        # dividing by sqrt(h) makes them trapezoid-orthonormal.
        modes[:, 1:-1] = vecs.T / np.sqrt(h)
        flip = modes[:, 1] < 0.0
        modes[flip] *= -1.0

    if not np.all(np.diff(lambdas) > 0.0):
        raise ValueError("eigenvalues are not distinct in double precision")
    return EigenSystem(grid, _frozen(lambdas), _frozen(modes))


def project(f: GridFunction, es: EigenSystem) -> SpectralVector:
    """Expand ``f`` in the eigenbasis via trapezoid inner products."""
    if f.grid != es.grid:
        raise GridMismatch("function and eigensystem use different grids")
    weighted = es.grid.trapezoid_weights() * f.values
    return SpectralVector(es, es.modes @ weighted)


def synthesize(c: SpectralVector, es: EigenSystem) -> GridFunction:
    """Sum the modes with the given coefficients back onto the grid.  The sum
    is an einsum, not a BLAS product, so its bits do not depend on the BLAS
    thread count."""
    if c.es is not es:
        raise GridMismatch("coefficients belong to a different eigensystem")
    return GridFunction(es.grid, np.einsum("i,ij->j", c.coeffs, es.modes))

