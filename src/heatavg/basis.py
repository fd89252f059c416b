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
which yields a symmetric tridiagonal matrix solved by a dedicated
tridiagonal eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


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
    """Uniform grid on [0, L], endpoints included."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _frozen(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("a grid needs at least three nodes")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at x = 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        h = nodes[-1] / (nodes.size - 1)
        if np.max(np.abs(np.diff(nodes) - h)) > 1e-12 * h:
            raise ValueError("grid spacing must be uniform")

    @classmethod
    def uniform(cls, length: float, n_nodes: int) -> "Grid":
        if length <= 0.0:
            raise ValueError("interval length must be positive")
        return cls(np.linspace(0.0, float(length), int(n_nodes)))

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def h(self) -> float:
        return float(self.nodes[-1] / (self.nodes.size - 1))

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_nodes, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


def same_grid(g1: Grid, g2: Grid) -> bool:
    return g1 is g2 or (g1.n_nodes == g2.n_nodes and np.array_equal(g1.nodes, g2.nodes))


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
    def from_callable(cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.n_nodes))

    def norm_l2(self) -> float:
        return float(np.sqrt(np.sum(self.grid.trapezoid_weights() * self.values**2)))


@dataclass(frozen=True)
class OperatorSpec:
    """Elliptic operator (a(x) u')' + a0(x) u on (0, length).

    ``kind`` selects the eigensolve path: "constant" stores a constant
    diffusion and a constant zero-order term ``-q`` and admits closed-form
    eigenpairs; "tabulated" stores coefficient callables that are sampled on
    the grid at build time.
    """

    length: float
    kind: str
    diffusion: float | None = None
    q: float | None = None
    a: Callable[[np.ndarray], np.ndarray] | None = None
    a0: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("interval length must be positive")
        if self.kind == "constant" and self.diffusion <= 0.0:
            raise NonElliptic("constant diffusion must be strictly positive")
        for name, value in (("interval length", self.length), ("q", self.q),
                            ("diffusion", self.diffusion)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value:g}")

    @classmethod
    def constant(cls, length: float, q: float = 0.0, diffusion: float = 1.0) -> "OperatorSpec":
        return cls(length=float(length), kind="constant", diffusion=float(diffusion), q=float(q))

    @classmethod
    def from_callables(cls, length: float, a, a0) -> "OperatorSpec":
        return cls(length=float(length), kind="tabulated", a=a, a0=a0)

    @classmethod
    def from_table(cls, length: float, x, a_values, a0_values) -> "OperatorSpec":
        """Coefficients given as samples; linear interpolation in between."""
        xs = np.asarray(x, dtype=float)
        av = np.asarray(a_values, dtype=float)
        a0v = np.asarray(a0_values, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or not np.all(np.diff(xs) > 0.0):
            raise ValueError("coefficient abscissae must be increasing")
        if av.shape != xs.shape or a0v.shape != xs.shape:
            raise ValueError("coefficient tables must match the abscissae")
        return cls.from_callables(
            length,
            lambda t, _x=xs, _v=av: np.interp(t, _x, _v),
            lambda t, _x=xs, _v=a0v: np.interp(t, _x, _v),
        )

    def sample(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Return (diffusion at midpoints, zero-order term at nodes).

        Raises NonElliptic when the sampled diffusion is not strictly positive.
        """
        if self.kind == "constant":
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
        return a_mid, a0_nodes


@dataclass(frozen=True)
class EigenSystem:
    """Truncated Dirichlet eigenpairs of an OperatorSpec on a grid.

    ``lambdas`` are strictly increasing; ``modes[k]`` is the k-th
    eigenfunction sampled on the grid, orthonormal in the trapezoid inner
    product and sign-fixed so its first interior value is positive.
    ``first_positive`` is the index of the first strictly positive
    eigenvalue (``n_modes`` when there is none within the truncation).
    """

    op: OperatorSpec
    grid: Grid
    n_modes: int
    lambdas: np.ndarray
    modes: np.ndarray
    first_positive: int

    def mode(self, k: int) -> GridFunction:
        return GridFunction(self.grid, self.modes[k])


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def basis_vector(es: EigenSystem, k: int) -> SpectralVector:
    c = np.zeros(es.n_modes)
    c[k] = 1.0
    return SpectralVector(es, c)


def build_eigensystem(op: OperatorSpec, grid: Grid, n_modes: int) -> EigenSystem:
    """Compute the first ``n_modes`` Dirichlet eigenpairs of ``op`` on ``grid``."""
    if abs(grid.length - op.length) > 1e-12 * op.length:
        raise GridMismatch("grid does not span the operator's interval")
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if n_modes > grid.n_nodes - 2:
        raise TruncationTooLarge(
            f"{n_modes} modes requested but the grid resolves only {grid.n_nodes - 2}"
        )

    if op.kind == "constant":
        k = np.arange(1, n_modes + 1)
        freq = k * np.pi / op.length
        lambdas = op.diffusion * freq**2 + op.q
        modes = np.sqrt(2.0 / op.length) * np.sin(np.outer(freq, grid.nodes))
        modes[:, 0] = 0.0
        modes[:, -1] = 0.0
    else:
        from scipy.linalg import eigh_tridiagonal

        a_mid, a0_nodes = op.sample(grid)
        h = grid.h
        diag = (a_mid[:-1] + a_mid[1:]) / h**2 - a0_nodes[1:-1]
        off = -a_mid[1:-1] / h**2
        lambdas, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_modes - 1))
        modes = np.zeros((n_modes, grid.n_nodes))
        # LAPACK vectors are Euclidean-orthonormal over the interior nodes;
        # dividing by sqrt(h) makes them trapezoid-orthonormal.
        modes[:, 1:-1] = vecs.T / np.sqrt(h)
        flip = modes[:, 1] < 0.0
        modes[flip] *= -1.0

    if not np.all(np.diff(lambdas) > 0.0):
        raise ValueError("eigenvalues are not distinct in double precision")
    first_positive = int(np.searchsorted(lambdas, 0.0, side="right"))
    return EigenSystem(
        op=op,
        grid=grid,
        n_modes=int(n_modes),
        lambdas=_frozen(lambdas),
        modes=_frozen(modes),
        first_positive=first_positive,
    )


def project(f: GridFunction, es: EigenSystem) -> SpectralVector:
    """Expand ``f`` in the eigenbasis via trapezoid inner products."""
    if not same_grid(f.grid, es.grid):
        raise GridMismatch("function and eigensystem use different grids")
    weighted = es.grid.trapezoid_weights() * f.values
    return SpectralVector(es, es.modes @ weighted)


def synthesize(c: SpectralVector, es: EigenSystem) -> GridFunction:
    """Sum the modes with the given coefficients back onto the grid."""
    if c.es is not es:
        raise GridMismatch("coefficients belong to a different eigensystem")
    return GridFunction(es.grid, c.coeffs @ es.modes)


def projection_residual(f: GridFunction, es: EigenSystem) -> float:
    """L2 distance between ``f`` and its projection onto the truncated basis."""
    back = synthesize(project(f, es), es)
    return GridFunction(f.grid, f.values - back.values).norm_l2()
