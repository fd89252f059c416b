import math
import re

import numpy as np
import pytest

import heatavg as ha
from heatavg.profiles import cusp_bump


def test_classical_eigenpairs():
    grid = ha.Grid.uniform(np.pi, 201)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi), grid, 3)
    assert np.allclose(es.lambdas, [1.0, 4.0, 9.0], rtol=0, atol=0)
    for k in range(3):
        expected = np.sqrt(2.0 / np.pi) * np.sin((k + 1) * grid.nodes)
        assert np.max(np.abs(es.modes[k] - expected)) < 1e-12


def test_zero_order_term_shifts_spectrum():
    grid = ha.Grid.uniform(np.pi, 65)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi, q=2.0), grid, 1)
    assert es.lambdas[0] == pytest.approx(3.0, abs=0)


def test_tabulated_matches_dense_eigensolver_oracle():
    # oracle: the identical midpoint-sampled tridiagonal matrix, assembled
    # here from scratch and handed to a dense symmetric eigensolver
    length, n_nodes, n_modes = 1.0, 101, 5
    grid = ha.Grid.uniform(length, n_nodes)
    a = lambda x: 1.0 + x / 2.0
    op = ha.OperatorSpec.from_callables(length, a, lambda x: np.zeros_like(x))
    es = ha.build_eigensystem(op, grid, n_modes)

    h = grid.h
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    a_mid = a(mids)
    n_int = n_nodes - 2
    dense = np.zeros((n_int, n_int))
    for i in range(n_int):
        dense[i, i] = (a_mid[i] + a_mid[i + 1]) / h**2
        if i + 1 < n_int:
            dense[i, i + 1] = dense[i + 1, i] = -a_mid[i + 1] / h**2
    oracle = np.sort(np.linalg.eigvalsh(dense))[:n_modes]
    assert np.max(np.abs(es.lambdas - oracle)) < 1e-8


def _reference_tabulated(op, grid, n_modes):
    """Reference: the tabulated eigensolve through `eigh_tridiagonal`, as it
    was before `build_eigensystem` called LAPACK's routines itself."""
    from scipy.linalg import eigh_tridiagonal

    a_mid, a0_nodes = op.sample(grid)
    h = grid.h
    diag = (a_mid[:-1] + a_mid[1:]) / h**2 - a0_nodes[1:-1]
    off = -a_mid[1:-1] / h**2
    lambdas, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_modes - 1))
    modes = np.zeros((n_modes, grid.n_nodes))
    modes[:, 1:-1] = vecs.T / np.sqrt(h)
    flip = modes[:, 1] < 0.0
    modes[flip] *= -1.0
    return lambdas, modes


@pytest.mark.parametrize("op, n_nodes, n_modes", [
    (ha.OperatorSpec.from_callables(1.0, lambda x: 1.0 + 0.5 * np.sin(3.0 * x),
                                    lambda x: 2.0 - x), 1025, 300),
    (ha.OperatorSpec.from_table(2 * np.pi, [0.0, 3.0, 2 * np.pi], [1.0, 1.5, 1.0],
                                [0.0, -0.5, 0.0]), 257, 255),
    (ha.OperatorSpec.from_table(1.0, [0.0, 0.4, 1.0], [0.5, 3.0, 1.0], [30.0, -5.0, 10.0]),
     65, 63),
    (ha.OperatorSpec.from_table(1.0, [0.0, 1.0], [1.0, 2.0], [0.0, 1.0]), 3, 1),
], ids=["smooth_N300", "table_all_modes", "negative_eigenvalues", "three_nodes"])
def test_tabulated_eigensolve_matches_eigh_tridiagonal_bit_for_bit(op, n_nodes, n_modes):
    grid = ha.Grid.uniform(op.length, n_nodes)
    es = ha.build_eigensystem(op, grid, n_modes)
    for got, want in zip((es.lambdas, es.modes), _reference_tabulated(op, grid, n_modes)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("setup", ["constant", "tabulated"])
def test_orthonormality(setup, default_es):
    if setup == "constant":
        es = default_es
    else:
        grid = ha.Grid.uniform(1.5, 201)
        op = ha.OperatorSpec.from_callables(1.5, lambda x: 1.0 + x**2, lambda x: -x)
        es = ha.build_eigensystem(op, grid, 40)
    w = es.grid.trapezoid_weights()
    gram = (es.modes * w) @ es.modes.T
    assert np.max(np.abs(gram - np.eye(es.n_modes))) < 1e-10


def test_sign_convention_first_interior_positive(default_es):
    assert np.all(default_es.modes[:, 1] > 0.0)
    grid = ha.Grid.uniform(1.0, 101)
    op = ha.OperatorSpec.from_callables(1.0, lambda x: 1.0 + x, lambda x: np.zeros_like(x))
    es = ha.build_eigensystem(op, grid, 10)
    assert np.all(es.modes[:, 1] > 0.0)


def test_eigenvalues_strictly_increasing(default_es):
    assert np.all(np.diff(default_es.lambdas) > 0.0)


def test_tabulated_path_converges_at_second_order():
    # constant coefficients through the matrix path; the eigenvalue error
    # against (k*pi/L)^2 + q must drop ~4x when the grid is refined 2x
    length, q = np.pi, 1.0
    exact = (np.pi / length) ** 2 + q
    errs = []
    for n_nodes in (101, 201):
        grid = ha.Grid.uniform(length, n_nodes)
        op = ha.OperatorSpec.from_callables(length, lambda x: np.ones_like(x),
                                            lambda x: np.full_like(x, -q))
        es = ha.build_eigensystem(op, grid, 1)
        errs.append(abs(es.lambdas[0] - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_project_picks_out_basis_mode(pi_es):
    c = ha.project(ha.GridFunction(pi_es.grid, pi_es.modes[1]), pi_es)
    expected = np.zeros(pi_es.n_modes)
    expected[1] = 1.0
    assert np.max(np.abs(c.coeffs - expected)) < 1e-12


def test_project_zero_function(pi_es):
    c = ha.project(ha.GridFunction.zeros(pi_es.grid), pi_es)
    assert np.all(c.coeffs == 0.0)


def test_project_cusp_profile_residual(default_es):
    # measured truncation diagnostic for the experiment's data profile
    mu = ha.GridFunction(default_es.grid, cusp_bump(default_es.grid.nodes, default_es.grid.length))
    back = ha.synthesize(ha.project(mu, default_es), default_es)
    assert ha.GridFunction(mu.grid, mu.values - back.values).norm_l2() < 1e-3


def test_synthesize_unit_vector(pi_es):
    gf = ha.synthesize(ha.basis_vector(pi_es, 0), pi_es)
    assert np.max(np.abs(gf.values - pi_es.modes[0])) == 0.0
    assert gf.values[0] == 0.0 and gf.values[-1] == 0.0


def test_projection_identity_on_span(pi_es):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(pi_es.n_modes)
    f = ha.synthesize(ha.SpectralVector(pi_es, c), pi_es)
    back = ha.project(f, pi_es)
    assert np.max(np.abs(back.coeffs - c)) < 1e-10
    again = ha.synthesize(back, pi_es)
    assert ha.GridFunction(f.grid, f.values - again.values).norm_l2() < 1e-10


def test_parseval_identity(pi_es):
    rng = np.random.default_rng(11)
    c = rng.standard_normal(pi_es.n_modes)
    f = ha.synthesize(ha.SpectralVector(pi_es, c), pi_es)
    assert abs(np.sum(c**2) - f.norm_l2() ** 2) < 1e-10


def test_non_elliptic_rejected():
    grid = ha.Grid.uniform(1.0, 33)
    op = ha.OperatorSpec.from_callables(1.0, lambda x: x - 0.5, lambda x: np.zeros_like(x))
    with pytest.raises(ha.NonElliptic):
        ha.build_eigensystem(op, grid, 3)
    with pytest.raises(ha.NonElliptic):
        ha.OperatorSpec.constant(1.0, diffusion=0.0)


def test_truncation_bound_enforced():
    grid = ha.Grid.uniform(1.0, 17)
    op = ha.OperatorSpec.constant(1.0)
    with pytest.raises(ha.TruncationTooLarge):
        ha.build_eigensystem(op, grid, 16)
    ha.build_eigensystem(op, grid, 15)  # the boundary case is fine


@pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_grid_rejects_bad_length(length):
    message = f"interval length must be positive and finite, not {length:g}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ha.Grid.uniform(length, 9)


@pytest.mark.parametrize("n_nodes", [-5, 0, 2])
def test_grid_rejects_too_few_nodes(n_nodes):
    # checked before the nodes are made, so numpy's own message never shows
    with pytest.raises(ValueError, match="^a grid needs at least three nodes$"):
        ha.Grid.uniform(1.0, n_nodes)


@pytest.mark.parametrize("build", [
    lambda: ha.Grid.uniform(1.0, 33.7),
    lambda: ha.build_eigensystem(ha.OperatorSpec.constant(1.0), ha.Grid.uniform(1.0, 17), 2.5),
    lambda: ha.build_eigensystem(ha.OperatorSpec.from_callables(1.0, np.ones_like, np.zeros_like),
                                 ha.Grid.uniform(1.0, 17), 2.5),
], ids=["grid_nodes", "constant_modes", "tabulated_modes"])
def test_counts_must_be_integers(build):
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        build()


def test_numpy_integer_counts_are_stored_as_int():
    grid = ha.Grid(1.0, np.int64(17))
    assert type(grid.n_nodes) is int and grid == ha.Grid.uniform(1.0, 17)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(1.0), grid, np.int64(4))
    assert type(es.n_modes) is int and es.n_modes == 4


@pytest.mark.parametrize("length, n_nodes, accepted", [
    (np.pi, 257, True), (np.pi, 129, False), (0.5 * np.pi, 257, False),
], ids=["equal_pair", "other_n_nodes", "other_length"])
def test_grids_are_equal_by_their_pair(pi_es, length, n_nodes, accepted):
    # a grid is (length, n_nodes): a distinct object built from the pair of the
    # eigensystem's grid passes every grid check, any other pair fails them all
    grid = ha.Grid.uniform(length, n_nodes)
    assert grid is not pi_es.grid
    f = ha.GridFunction(grid, np.sin(np.pi / length * grid.nodes))
    src = ha.SourceTerm.from_grid_history(grid, [0.0, 0.1], [f.values, 2.0 * f.values])
    xi = ha.basis_vector(pi_es, 0)
    cfg = ha.StepperConfig(n_nodes=pi_es.grid.n_nodes, n_steps=4)
    calls = [
        (ha.GridMismatch, lambda: ha.project(f, pi_es)),
        (ha.GridMismatch, lambda: src.coefficients(pi_es)),
        (ha.GridMismatch, lambda: ha.solve_forward(xi, src, [0.0, 0.1])),
        (ValueError, lambda: ha.step_evolution(pi_es.op, ha.synthesize(xi, pi_es), src, 0.1, cfg)),
    ]
    for error, call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(error, match="different grids"):
                call()


@pytest.mark.parametrize("values, message", [
    (np.zeros(256), "value array does not match the grid"),
    (np.zeros((257, 1)), "value array does not match the grid"),
    (np.where(np.arange(257) == 7, np.nan, 0.0), "grid function values must be finite"),
    (np.where(np.arange(257) == 7, -np.inf, 0.0), "grid function values must be finite"),
], ids=["short", "column", "nan", "-inf"])
def test_grid_function_rejects_bad_values(pi_es, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ha.GridFunction(pi_es.grid, values)


@pytest.mark.parametrize("length, q, diffusion, cause", [
    (math.nan, 0.0, 1.0, "interval length must be finite, not nan"),
    (math.inf, 0.0, 1.0, "interval length must be finite, not inf"),
    (1.0, -math.inf, 1.0, "q must be finite, not -inf"),
    (1.0, 0.0, math.nan, "diffusion must be finite, not nan"),
], ids=["length_nan", "length_inf", "q_-inf", "diffusion_nan"])
def test_constant_operator_rejects_non_finite_values(length, q, diffusion, cause):
    with pytest.raises(ValueError, match=f"^{cause}$"):
        ha.OperatorSpec.constant(length, q=q, diffusion=diffusion)


@pytest.mark.parametrize("x, a, a0, message", [
    ([0.0, 1.0], [1.0], [0.0, 0.0], "coefficient tables must match the abscissae"),
    ([0.0, 1.0], [1.0, 1.0], [[0.0, 0.0]], "coefficient tables must match the abscissae"),
    ([0.0, math.nan], [1.0, 1.0], [0.0, 0.0], "coefficient table entries must be finite"),
    ([0.0, 1.0], [1.0, 1.0], [0.0, -math.inf], "coefficient table entries must be finite"),
], ids=["short_a", "a0_not_a_column", "x_nan", "a0_-inf"])
def test_coefficient_table_rejects_bad_columns(x, a, a0, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ha.OperatorSpec.from_table(1.0, x, a, a0)


@pytest.mark.parametrize("a, a0", [
    (lambda x: np.where(x > 0.9, np.inf, 1.0), np.zeros_like),
    (np.ones_like, lambda x: np.where(x > 0.9, np.nan, 0.0)),
], ids=["a_inf", "a0_nan"])
def test_coefficient_callables_must_be_finite_on_the_grid(a, a0):
    op = ha.OperatorSpec.from_callables(1.0, a, a0)
    with pytest.raises(ValueError, match="^operator coefficients must be finite on the grid$"):
        ha.build_eigensystem(op, ha.Grid.uniform(1.0, 17), 3)


@pytest.mark.parametrize("shape", [(21,), (1, 20)], ids=["a_mode_too_many", "a_row"])
def test_spectral_vector_needs_one_coefficient_per_mode(pi_es, shape):
    with pytest.raises(ValueError, match="^coefficient count does not match the eigensystem$"):
        ha.SpectralVector(pi_es, np.zeros(shape))


def test_eigensystem_rejects_a_grid_of_another_length():
    with pytest.raises(ha.GridMismatch, match="grid does not span the operator's interval"):
        ha.build_eigensystem(ha.OperatorSpec.constant(np.pi), ha.Grid.uniform(3.0, 65), 5)


def test_grid_mismatch_rejected(pi_es):
    other = ha.Grid.uniform(np.pi, 101)
    f = ha.GridFunction.zeros(other)
    with pytest.raises(ha.GridMismatch):
        ha.project(f, pi_es)
    other_es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi), other, 5)
    with pytest.raises(ha.GridMismatch):
        ha.synthesize(ha.basis_vector(other_es, 0), pi_es)
