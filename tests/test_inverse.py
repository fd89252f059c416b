import math
from pathlib import Path

import numpy as np
import pytest

import heatavg as ha
from heatavg.profiles import cusp_bump, oscillatory_bump

from conftest import l2_distance

T = 0.1


def test_diagonal_inversion_single_mode(pi_es, avg_ws):
    zeta1 = avg_ws.multiplier(pi_es.lambdas[0])
    mu = ha.GridFunction(pi_es.grid, zeta1 * pi_es.modes[0])
    rep = ha.recover_initial(mu, avg_ws, pi_es)
    expected = np.zeros(pi_es.n_modes)
    expected[0] = 1.0
    assert np.max(np.abs(rep.xi.coeffs - expected)) < 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_round_trip_on_span(default_es, avg_ws):
    rng = np.random.default_rng(101)
    xi = ha.SpectralVector(default_es, rng.standard_normal(default_es.n_modes))
    mu = ha.synthesize(ha.average_from_initial(xi, avg_ws), default_es)
    rep = ha.recover_initial(mu, avg_ws, default_es)
    rel = np.linalg.norm(rep.xi.coeffs - xi.coeffs) / np.linalg.norm(xi.coeffs)
    assert rel < 1e-10
    assert rep.residual_mu <= rep.truncation_residual + 1e-10


def test_boundary_violation_rejected(pi_es, avg_ws):
    bad = ha.GridFunction(pi_es.grid, np.ones(pi_es.grid.n_nodes))
    with pytest.raises(ha.BoundaryViolation):
        ha.recover_initial(bad, avg_ws, pi_es)
    with pytest.raises(ha.BoundaryViolation):
        ha.norm_h2(bad, pi_es)


def test_inadmissible_weight_refused(pi_es):
    ws = ha.WeightSpec.terminal(T, kappa=1.0)
    mu = ha.GridFunction(pi_es.grid, pi_es.modes[0])
    with pytest.raises(ha.IllPosedWeight, match="no T1"):
        ha.recover_initial(mu, ws, pi_es)
    with pytest.raises(ha.IllPosedWeight):
        ha.solve_inverse(mu, None, ws, pi_es)


def test_amplification_is_the_largest_reciprocal_multiplier(default_es, avg_ws):
    # a correctly rounded reciprocal is monotone, so 1/min|m| has the bits of max 1/|m|
    rep = ha.recover_initial(ha.GridFunction(default_es.grid, default_es.modes[0]),
                             avg_ws, default_es)
    assert rep.amplification == np.max(1.0 / avg_ws.multiplier(default_es.lambdas))


def test_norm_h2_examples(pi_es):
    v1 = ha.GridFunction(pi_es.grid, pi_es.modes[0])
    assert ha.norm_h2(v1, pi_es) == pytest.approx(pi_es.lambdas[0], rel=1e-12)
    both = ha.GridFunction(pi_es.grid, pi_es.modes[0] + pi_es.modes[1])
    expected = math.hypot(pi_es.lambdas[0], pi_es.lambdas[1])
    assert ha.norm_h2(both, pi_es) == pytest.approx(expected, rel=1e-12)


def test_norm_h2_grows_with_oscillation_frequency(default_es):
    grid = default_es.grid
    norms = [
        ha.norm_h2(ha.GridFunction(grid, oscillatory_bump(grid.nodes, grid.length, f)), default_es)
        for f in (1.0, 2.0, 3.0, 4.0)
    ]
    assert np.all(np.diff(norms) > 0.0)


def test_solve_inverse_single_mode_field(pi_es, avg_ws):
    mu = ha.synthesize(ha.average_from_initial(ha.basis_vector(pi_es, 0), avg_ws), pi_es)
    field, rep = ha.solve_inverse(mu, None, avg_ws, pi_es)
    for j, t in enumerate(field.times):
        expected = math.exp(-pi_es.lambdas[0] * t) * pi_es.modes[0]
        assert np.max(np.abs(field.values[j] - expected)) < 1e-10


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_averaged_condition_residual_with_source(pi_es, avg_ws):
    rng = np.random.default_rng(37)
    times = np.linspace(0.0, T, 5)
    src = ha.SourceTerm.from_modal(pi_es, times, rng.standard_normal((5, pi_es.n_modes)))
    xi = ha.SpectralVector(pi_es, rng.standard_normal(pi_es.n_modes))
    mu_coeffs = (ha.average_from_initial(xi, avg_ws).coeffs
                 + ha.average_from_source(src, avg_ws, pi_es).coeffs)
    mu = ha.synthesize(ha.SpectralVector(pi_es, mu_coeffs), pi_es)
    _, rep = ha.solve_inverse(mu, src, avg_ws, pi_es)
    assert rep.residual_mu < 1e-8
    applied = ha.weighted_average(rep.xi, avg_ws, src)
    gamma = ha.project(mu, pi_es)
    assert np.linalg.norm(applied.coeffs - gamma.coeffs) < 1e-8


def test_manufactured_solution_recovery():
    length, horizon = 2 * np.pi, 0.1
    n_nodes, n_steps = 257, 512
    grid = ha.Grid.uniform(length, n_nodes)
    op = ha.OperatorSpec.constant(length, q=0.0)
    es = ha.build_eigensystem(op, grid, 60)
    ws = ha.WeightSpec.average(horizon)
    xi = ha.GridFunction(grid, grid.nodes * (length - grid.nodes)
                         * np.exp(-grid.nodes / 2.0) / length)
    times = np.array([0.0, horizon / 3.0, horizon])
    src = ha.SourceTerm.from_callable(
        grid, lambda x, t: (1.0 + 2.0 * t / horizon) * np.sin(x / 2.0), times
    )
    cfg = ha.StepperConfig(n_nodes=n_nodes, n_steps=n_steps,
                           breakpoints=tuple(ws.breakpoints()))
    ofield = ha.step_evolution(op, xi, src, horizon, cfg)
    mu = ha.time_average(ofield, ws)
    rfield, _ = ha.solve_inverse(mu, src, ws, es, times=ofield.times)
    diff = ha.SolutionField(grid=grid, times=ofield.times,
                            values=rfield.values - ofield.values)
    rel = diff.norm_l2() / ofield.norm_l2()
    assert rel < 5 * (grid.h**2 + (horizon / n_steps) ** 2)


def test_quasi_boundary_regression():
    # self-consistency run for the softened terminal condition; the expected
    # error level was measured once at these exact resolutions and frozen
    length, horizon, eps = 2 * np.pi, 0.1, 0.01
    grid = ha.Grid.uniform(length, 1025)
    op = ha.OperatorSpec.constant(length, q=0.0)
    es = ha.build_eigensystem(op, grid, 300)
    ws = ha.WeightSpec.quasi_boundary(horizon, eps)
    xi_true = ha.GridFunction(grid, np.sin(grid.nodes / 2.0) ** 2 * np.sin(grid.nodes))
    cfg = ha.StepperConfig(n_nodes=1025, n_steps=2048, breakpoints=tuple(ws.breakpoints()))
    mu = ha.time_average(ha.step_evolution(op, xi_true, None, horizon, cfg), ws)
    rep = ha.recover_initial(mu, ws, es)
    rel = l2_distance(ha.synthesize(rep.xi, es), xi_true) / xi_true.norm_l2()
    assert rel < 4.5e-6  # measured 2.23e-6 on first run


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_stability_estimate_surrogate(default_es, avg_ws):
    rng = np.random.default_rng(401)
    sc = ha.stability_constants(avg_ws, default_es)
    for _ in range(5):
        gamma = rng.standard_normal(default_es.n_modes)
        mu = ha.synthesize(ha.SpectralVector(default_es, gamma), default_es)
        rep = ha.recover_initial(mu, avg_ws, default_es)
        bound = math.sqrt(float(np.sum((gamma * default_es.lambdas) ** 2))) / sc.c1
        assert np.linalg.norm(rep.xi.coeffs) <= bound


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pipeline_linearity(pi_es, avg_ws):
    rng = np.random.default_rng(53)
    g1 = rng.standard_normal(pi_es.n_modes)
    g2 = rng.standard_normal(pi_es.n_modes)
    a, b = 1.7, -0.6
    mu1 = ha.synthesize(ha.SpectralVector(pi_es, g1), pi_es)
    mu2 = ha.synthesize(ha.SpectralVector(pi_es, g2), pi_es)
    mu12 = ha.synthesize(ha.SpectralVector(pi_es, a * g1 + b * g2), pi_es)
    r1 = ha.recover_initial(mu1, avg_ws, pi_es)
    r2 = ha.recover_initial(mu2, avg_ws, pi_es)
    r12 = ha.recover_initial(mu12, avg_ws, pi_es)
    combo = a * r1.xi.coeffs + b * r2.xi.coeffs
    assert np.max(np.abs(r12.xi.coeffs - combo)) < 1e-12


def test_recovered_field_satisfies_discrete_pde():
    # Crank-Nicolson-form residual of the recovered field drops at second
    # order, i.e. the reconstruction solves the equation, not just the data
    length, horizon = 2 * np.pi, 0.1

    def rel_residual(n_nodes, n_steps):
        grid = ha.Grid.uniform(length, n_nodes)
        op = ha.OperatorSpec.constant(length, q=0.0)
        es = ha.build_eigensystem(op, grid, 30)
        ws = ha.WeightSpec.average(horizon)
        xi = ha.GridFunction(grid, grid.nodes * (length - grid.nodes)
                             * np.exp(-grid.nodes / 2.0) / length)
        times = np.array([0.0, horizon / 2.0, horizon])
        src = ha.SourceTerm.from_callable(
            grid, lambda x, t: (1.0 + t / horizon) * np.sin(x / 2.0), times
        )
        coeffs = (ha.average_from_initial(ha.project(xi, es), ws).coeffs
                  + ha.average_from_source(src, ws, es).coeffs)
        mu = ha.synthesize(ha.SpectralVector(es, coeffs), es)
        otimes = np.linspace(0.0, horizon, n_steps + 1)
        field, _ = ha.solve_inverse(mu, src, ws, es, times=otimes)
        h, dt = grid.h, horizon / n_steps
        u = field.values
        second = lambda row: (row[:-2] - 2.0 * row[1:-1] + row[2:]) / h**2
        norms = []
        for n in range(n_steps):
            phi = 0.5 * (src.slice_at(otimes[n]).values[1:-1]
                         + src.slice_at(otimes[n + 1]).values[1:-1])
            r = (u[n + 1, 1:-1] - u[n, 1:-1]) / dt \
                - 0.5 * (second(u[n + 1]) + second(u[n])) - phi
            norms.append(np.sum(r**2) * h)
        resid = math.sqrt(float(np.sum(np.array(norms) * dt)))
        return resid / field.norm_l2(), h**2 + dt**2

    r_coarse, scale_coarse = rel_residual(257, 512)
    r_fine, scale_fine = rel_residual(513, 1024)
    assert r_coarse < 5 * scale_coarse
    assert r_fine < 5 * scale_fine
    assert 3.3 < r_coarse / r_fine < 4.7


def test_h2_tail_warning_for_rough_data(default_es, avg_ws):
    mu = ha.GridFunction(default_es.grid,
                         cusp_bump(default_es.grid.nodes, default_es.grid.length))
    with pytest.warns(UserWarning, match="not converged"):
        rep = ha.recover_initial(mu, avg_ws, default_es)
    assert rep.h2_tail_fraction > 0.01


def test_smooth_data_does_not_warn(pi_es, avg_ws, recwarn):
    mu = ha.GridFunction(pi_es.grid, pi_es.modes[0] + 0.2 * pi_es.modes[2])
    rep = ha.recover_initial(mu, avg_ws, pi_es)
    assert rep.h2_tail_fraction <= 0.01
    assert not any(isinstance(w.message, UserWarning) for w in recwarn.list)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("ws", [ha.WeightSpec.average(T), ha.WeightSpec.quasi_boundary(T, 0.01)],
                         ids=["average", "quasi"])
def test_recover_initial_and_solve_inverse_report_alike(default_es, ws):
    # rough data with a visible truncation residual, so a residual that
    # folded truncation in would differ from the coefficient norm
    grid = default_es.grid
    mu = ha.GridFunction(grid, cusp_bump(grid.nodes, grid.length))
    rep = ha.recover_initial(mu, ws, default_es)
    _, rep_field = ha.solve_inverse(mu, None, ws, default_es)
    assert rep.truncation_residual > 1e-6
    assert np.array_equal(rep.xi.coeffs, rep_field.xi.coeffs)
    for name in ("residual_mu", "amplification", "truncation_residual", "h2_tail_fraction"):
        assert getattr(rep, name) == getattr(rep_field, name), name
    gamma = ha.project(mu, default_es).coeffs
    replay = rep.xi.coeffs * ws.multiplier(default_es.lambdas)
    assert rep.residual_mu == pytest.approx(np.linalg.norm(replay - gamma), rel=1e-12, abs=0)


def test_smoothness_warning_names_the_caller(default_es, avg_ws):
    grid = default_es.grid
    mu = ha.GridFunction(grid, cusp_bump(grid.nodes, grid.length))
    with pytest.warns(UserWarning, match="not converged") as record:
        ha.recover_initial(mu, avg_ws, default_es)
        ha.solve_inverse(mu, None, avg_ws, default_es)
    assert len(record) == 2
    assert all(Path(w.filename) == Path(__file__) for w in record)
