import math
import warnings

import numpy as np
import pytest
from scipy.integrate import fixed_quad

import heatavg as ha
from heatavg import forward

T = 0.1


def _const_source(es, coeff_index, amplitude, horizon, n_knots=2):
    times = np.linspace(0.0, horizon, n_knots)
    coeffs = np.zeros((n_knots, es.n_modes))
    coeffs[:, coeff_index] = amplitude
    return ha.SourceTerm.from_modal(es, times, coeffs)


def _decay(xi, t):
    """The source-free evolution of ``xi`` at time t, one row of the kernel."""
    return ha.SpectralVector(xi.es, forward._coeffs_at(xi, None, [t])[0])


def _duhamel(src, es, times):
    """The source's Duhamel term at ``times``: the kernel's rows from a zero state."""
    return forward._coeffs_at(ha.SpectralVector(es, np.zeros(es.n_modes)), src, times)


def test_evolve_is_identity_at_t0(pi_es):
    e1 = ha.basis_vector(pi_es, 0)
    out = _decay(e1, 0.0)
    assert np.array_equal(out.coeffs, e1.coeffs)


def test_evolve_first_mode_decay(pi_es):
    out = _decay(ha.basis_vector(pi_es, 0), 0.3)
    assert out.coeffs[0] == pytest.approx(math.exp(-0.3), rel=1e-15)
    assert np.all(out.coeffs[1:] == 0.0)


def test_evolve_rejects_bad_times(pi_es):
    with pytest.raises(ha.TimeOutOfRange):
        ha.solve_forward(ha.basis_vector(pi_es, 0), None, [-0.1])


@pytest.mark.parametrize("with_source, times, error, message", [
    (False, [[0.0, 0.05]], ValueError, "^time instants must be one-dimensional$"),
    (False, [math.nan], ha.TimeOutOfRange, r"^t = nan is not finite$"),
    (True, [0.0, math.nan], ha.TimeOutOfRange, r"^t = nan is not finite$"),
], ids=["two_dimensional", "nan_without_source", "nan_with_source"])
def test_solve_forward_names_bad_times(pi_es, with_source, times, error, message):
    # refused by name before any mode is evaluated, never blamed on an eigenvalue
    src = _const_source(pi_es, 0, 1.0, T) if with_source else None
    with pytest.raises(error, match=message):
        ha.solve_forward(ha.basis_vector(pi_es, 0), src, times)


@pytest.mark.parametrize("q", [0.0, -5.0], ids=["q0", "q-5"])
def test_solve_forward_refuses_an_infinite_time_without_a_source(q):
    # out of range by name: never a field ending at t = inf, nor an overflow blamed on a mode
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi, q=q), ha.Grid.uniform(np.pi, 33), 8)
    with pytest.raises(ha.TimeOutOfRange, match=r"^t = inf is not finite$"):
        ha.solve_forward(ha.basis_vector(es, 0), None, [0.0, math.inf])


@pytest.mark.parametrize("times, message", [
    ([0.0], "need at least two time instants"),
    ([0.0, 0.05, 0.05], "time instants must be strictly increasing"),
    ([0.0, 0.06, 0.05], "time instants must be strictly increasing"),
    ([0.01, T], "source tabulation must start at t = 0"),
], ids=["one_instant", "repeated_time", "decreasing_time", "late_start"])
def test_source_term_rejects_bad_tabulation(pi_es, times, message):
    values = np.zeros((len(times), pi_es.grid.n_nodes))
    with pytest.raises(ValueError, match=f"^{message}$"):
        ha.SourceTerm.from_grid_history(pi_es.grid, times, values)


@pytest.mark.parametrize("record", [ha.SourceTerm, ha.SolutionField], ids=["source", "field"])
@pytest.mark.parametrize("times, shape, message", [
    ([[0.0, T]], (2, 5), "time instants must be one-dimensional"),
    ([0.0, T], (3, 5), "values must be one row of grid values per time"),
    ([0.0, T], (2, 4), "values must be one row of grid values per time"),
], ids=["two_dimensional_times", "a_row_too_many", "a_node_too_few"])
def test_history_records_reject_bad_shapes(record, times, shape, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        record(ha.Grid.uniform(1.0, 5), times, np.ones(shape))


@pytest.mark.parametrize("record", [ha.SourceTerm, ha.SolutionField], ids=["source", "field"])
@pytest.mark.parametrize("last", [math.inf, math.nan], ids=["inf", "nan"])
def test_history_records_reject_non_finite_times(record, last):
    with pytest.raises(ValueError, match="^time instants must be finite$"):
        record(ha.Grid.uniform(1.0, 5), [0.0, last], np.ones((2, 5)))


def test_a_source_is_a_field():
    assert issubclass(ha.SourceTerm, ha.SolutionField)


def test_source_values_must_be_finite():
    values = np.ones((2, 5))
    values[1, 2] = np.nan
    with pytest.raises(ValueError, match="^source values must be finite$"):
        ha.SourceTerm(ha.Grid.uniform(1.0, 5), [0.0, T], values)


@pytest.mark.parametrize("times", [[0.05, 0.05], [0.05, 0.0]],
                         ids=["repeated_time", "decreasing_time"])
def test_solution_field_rejects_times_that_do_not_increase(pi_es, times):
    xi = ha.basis_vector(pi_es, 0)
    message = "^time instants must be strictly increasing$"
    with pytest.raises(ValueError, match=message):
        ha.SolutionField(pi_es.grid, times, np.zeros((2, pi_es.grid.n_nodes)))
    with pytest.raises(ValueError, match=message):
        ha.solve_forward(xi, None, times)


def test_solve_forward_rejects_a_time_past_its_source(pi_es):
    src = _const_source(pi_es, 0, 1.0, T)
    xi = ha.basis_vector(pi_es, 0)
    with pytest.raises(ha.TimeOutOfRange, match=r"^t = 0\.2 outside \[0, 0\.1\]$"):
        ha.solve_forward(xi, src, [0.0, 2 * T])
    # within the 1e-12 relative slack the source's last knot still counts
    ha.solve_forward(xi, src, [0.0, T * (1.0 + 1e-13)])


def test_semigroup_identity(pi_es):
    rng = np.random.default_rng(3)
    xi = ha.SpectralVector(pi_es, rng.standard_normal(pi_es.n_modes))
    for s, t in ((0.0, T), (0.03, 0.08), (0.05, 0.05)):
        two_step = _decay(_decay(xi, s), t - s)
        one_step = _decay(xi, t)
        assert np.max(np.abs(two_step.coeffs - one_step.coeffs)) < 1e-12


def test_duhamel_zero_source(pi_es):
    src = ha.SourceTerm.from_modal(pi_es, [0.0, T], np.zeros((2, pi_es.n_modes)))
    for k in (0, 3):
        for t in (0.0, T / 2, T):
            assert _duhamel(src, pi_es, [t])[0, k] == 0.0


def test_duhamel_constant_source_closed_form(pi_es):
    src = _const_source(pi_es, 2, 1.0, T)
    lam = pi_es.lambdas[2]
    for t in (0.02, T):
        closed_form = (1 - math.exp(-lam * t)) / lam
        assert _duhamel(src, pi_es, [t])[0, 2] == pytest.approx(closed_form, rel=1e-13)


def test_duhamel_matches_quadrature_oracle(pi_es):
    # oracle: composite Gauss-Legendre on each linear piece of the tabulation
    rng = np.random.default_rng(17)
    times = np.sort(np.concatenate([[0.0, T], rng.uniform(0.0, T, 6)]))
    coeffs = rng.standard_normal((times.size, pi_es.n_modes)) * np.sin(
        np.arange(times.size)[:, None] * 2.0 + 1.0
    )
    src = ha.SourceTerm.from_modal(pi_es, times, coeffs)
    t_eval = 0.082
    for k in (0, 4, 15):
        lam = pi_es.lambdas[k]

        def integrand(s):
            phi = np.interp(s, times, coeffs[:, k])
            return phi * np.exp(-lam * (t_eval - s))

        oracle = 0.0
        for a, b in zip(times[:-1], times[1:]):
            lo, hi = a, min(b, t_eval)
            if hi <= lo:
                continue
            oracle += fixed_quad(integrand, lo, hi, n=30)[0]
        assert abs(_duhamel(src, pi_es, [t_eval])[0, k] - oracle) < 1e-10


def test_evolve_random_state_matches_oracle_at_default_resolution():
    length, horizon = 2 * np.pi, 0.1
    grid = ha.Grid.uniform(length, 1025)
    op = ha.OperatorSpec.constant(length, q=0.0)
    es = ha.build_eigensystem(op, grid, 300)
    rng = np.random.default_rng(55)
    xi = ha.SpectralVector(es, rng.standard_normal(300))
    spectral_final = ha.synthesize(_decay(xi, horizon), es)
    cfg = ha.StepperConfig(n_nodes=1025, n_steps=2048)
    field = ha.step_evolution(op, ha.synthesize(xi, es), None, horizon, cfg)
    err = ha.GridFunction(grid, spectral_final.values - field.values[-1]).norm_l2()
    # discretization error normalized by the initial data norm
    assert err / ha.synthesize(xi, es).norm_l2() < 1e-5


def test_solve_forward_zero_data(pi_es):
    src = ha.SourceTerm.from_modal(pi_es, [0.0, T], np.zeros((2, pi_es.n_modes)))
    field = ha.solve_forward(ha.SpectralVector(pi_es, np.zeros(pi_es.n_modes)), src,
                             np.linspace(0.0, T, 129))
    assert np.all(field.values == 0.0)


def test_solve_forward_first_mode(pi_es):
    field = ha.solve_forward(ha.basis_vector(pi_es, 0), None, np.linspace(0.0, T, 9))
    for j, t in enumerate(field.times):
        expected = math.exp(-t) * pi_es.modes[0]
        assert np.max(np.abs(field.values[j] - expected)) < 1e-14


def test_solve_forward_duhamel_terminal_coefficient(pi_es):
    src = _const_source(pi_es, 0, 1.0, T)
    zero = ha.SpectralVector(pi_es, np.zeros(pi_es.n_modes))
    field = ha.solve_forward(zero, src, np.array([0.0, T]))
    lam = pi_es.lambdas[0]
    terminal = ha.project(field.slice_at(T), pi_es).coeffs[0]
    assert terminal == pytest.approx((1 - math.exp(-lam * T)) / lam, rel=1e-13)


def test_field_slices_match_stored_values(pi_es):
    rng = np.random.default_rng(23)
    xi = ha.SpectralVector(pi_es, rng.standard_normal(pi_es.n_modes))
    field = ha.solve_forward(xi, None, np.linspace(0.0, T, 129))
    j = 17
    slc = field.slice_at(float(field.times[j]))
    assert np.max(np.abs(slc.values - field.values[j])) < 1e-10
    assert field.values[:, 0].max() == 0.0 and field.values[:, -1].max() == 0.0


def test_rows_at_a_single_knot_hold_its_row_at_every_time():
    row = np.array([0.0, 1.0, -2.0])
    rows = list(forward._rows_at(np.array([0.0]), row[None, :], np.array([0.0, 0.5, 2.0])))
    assert len(rows) == 3 and all(np.array_equal(r, row) for r in rows)


def test_single_time_field_slices_to_its_row():
    grid = ha.Grid.uniform(1.0, 5)
    row = np.array([0.0, 1.0, -2.0, 3.0, 0.0])
    field = ha.SolutionField(grid, times=[0.0], values=row[None, :])
    assert np.array_equal(field.slice_at(0.0).values, row)
    for t in (-0.1, 0.1):
        with pytest.raises(ha.TimeOutOfRange):
            field.slice_at(t)


def _reference_values_at(src, t):
    """Reference: `SourceTerm.values_at`'s former body, verbatim."""
    t = float(t)
    if t <= src.times[0]:
        return src.values[0]
    if t >= src.times[-1]:
        return src.values[-1]
    i = int(np.searchsorted(src.times, t, side="right") - 1)
    s = (t - src.times[i]) / (src.times[i + 1] - src.times[i])
    return (1.0 - s) * src.values[i] + s * src.values[i + 1]


def _reference_slice_at(field, t):
    """Reference: `SolutionField.slice_at`'s former interpolation of stored rows."""
    i = min(int(np.searchsorted(field.times, t, side="right") - 1), field.times.size - 2)
    s = (t - field.times[i]) / (field.times[i + 1] - field.times[i])
    return (1.0 - s) * field.values[i] + s * field.values[i + 1]


def test_row_interpolation_matches_reference_bit_for_bit():
    grid = ha.Grid.uniform(1.0, 17)
    rng = np.random.default_rng(41)
    knots = np.array([0.0, 0.013, 0.07, 0.11, 0.17])
    values = rng.standard_normal((knots.size, grid.n_nodes))
    src = ha.SourceTerm.from_grid_history(grid, knots, values)
    field = ha.SolutionField(grid=grid, times=knots, values=values)
    inside = np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:]), np.nextafter(knots[1:], 0.0),
                             np.nextafter(knots[:-1], 1.0), rng.uniform(0.0, 0.17, 40)])
    for t in inside:
        for got, want in ((src.slice_at(t).values, _reference_values_at(src, t)),
                          (field.slice_at(t).values, _reference_slice_at(field, t))):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    for t in (-0.1, 0.2, 5.0):  # beyond the knots both refuse; the oracle test pins the hold
        for history in (src, field):
            with pytest.raises(ha.TimeOutOfRange):
                history.slice_at(t)


def test_field_slice_at_a_stored_end_time_is_that_row():
    grid = ha.Grid.uniform(1.0, 5)
    values = np.array([[0.0, -0.0, 1.0, -2.0, 0.0], [0.0, 3.0, 0.0, 4.0, 0.0]])
    field = ha.SolutionField(grid=grid, times=np.array([0.0, 0.1]), values=values)
    for j, t in enumerate(field.times):
        slc = field.slice_at(t).values
        assert np.array_equal(slc, values[j])
        assert np.array_equal(np.signbit(slc), np.signbit(values[j]))


def test_field_slice_at_arbitrary_time(pi_es):
    t = 0.0678  # between the default stored times; a field evaluated at t alone is exact
    field = ha.solve_forward(ha.basis_vector(pi_es, 0), None, [t])
    expected = math.exp(-t) * math.sqrt(2.0 / np.pi) * np.sin(pi_es.grid.nodes)
    assert np.max(np.abs(field.slice_at(t).values - expected)) < 1e-13


def test_records_hold_one_copy_of_their_history(pi_es):
    grid, times = pi_es.grid, [0.0, T]
    with pytest.raises(TypeError):
        ha.SolutionField(grid, times, np.zeros((2, grid.n_nodes)),
                         alpha=ha.basis_vector(pi_es, 0))
    with pytest.raises(TypeError):
        ha.SourceTerm(grid, times, np.zeros((2, grid.n_nodes)), es=pi_es,
                      coeffs=np.ones((2, pi_es.n_modes)))
    with pytest.raises(ValueError, match=r"^source coefficients of shape \(2, 22\) are not "
                                         r"rows of the eigensystem's 20 modes$"):
        ha.SourceTerm.from_modal(pi_es, times, np.ones((2, 22)))


def test_average_from_initial_is_diagonal(pi_es, avg_ws):
    out = ha.average_from_initial(ha.basis_vector(pi_es, 0), avg_ws)
    assert out.coeffs[0] == pytest.approx(avg_ws.multiplier(pi_es.lambdas[0]), rel=1e-15)
    assert np.all(out.coeffs[1:] == 0.0)


def test_average_from_initial_linear(pi_es, avg_ws):
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(pi_es.n_modes)
    x2 = rng.standard_normal(pi_es.n_modes)
    a, b = 2.5, -1.25
    lhs = ha.average_from_initial(ha.SpectralVector(pi_es, a * x1 + b * x2), avg_ws)
    rhs = (a * ha.average_from_initial(ha.SpectralVector(pi_es, x1), avg_ws).coeffs
           + b * ha.average_from_initial(ha.SpectralVector(pi_es, x2), avg_ws).coeffs)
    assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12


def test_average_from_initial_then_divide_recovers(pi_es, avg_ws):
    rng = np.random.default_rng(9)
    xi = rng.standard_normal(pi_es.n_modes)
    out = ha.average_from_initial(ha.SpectralVector(pi_es, xi), avg_ws)
    back = out.coeffs / np.asarray(avg_ws.multiplier(pi_es.lambdas))
    assert np.max(np.abs(back - xi)) < 1e-12


def test_average_from_initial_matches_oracle():
    length = np.pi
    grid = ha.Grid.uniform(length, 257)
    op = ha.OperatorSpec.constant(length, q=0.0)
    es = ha.build_eigensystem(op, grid, 12)
    ws = ha.WeightSpec.average(0.2)
    xi_vals = np.sin(grid.nodes) + 0.4 * np.sin(2 * grid.nodes)
    spectral = ha.synthesize(
        ha.average_from_initial(ha.project(ha.GridFunction(grid, xi_vals), es), ws), es
    )
    cfg = ha.StepperConfig(n_nodes=257, n_steps=512)
    field = ha.step_evolution(op, ha.GridFunction(grid, xi_vals), None, 0.2, cfg)
    numeric = ha.time_average(field, ws)
    rel = (ha.GridFunction(grid, spectral.values - numeric.values).norm_l2()
           / numeric.norm_l2())
    assert rel < 5 * (grid.h**2 + (0.2 / 512) ** 2)


def test_average_from_source_zero(pi_es, avg_ws):
    src = ha.SourceTerm.from_modal(pi_es, [0.0, T], np.zeros((2, pi_es.n_modes)))
    out = ha.average_from_source(src, avg_ws, pi_es)
    assert np.all(out.coeffs == 0.0)


def test_average_from_source_nested_closed_form(pi_es, avg_ws):
    # constant first-mode source under the plain average:
    # integral_0^T (1 - exp(-lam t))/lam dt = T/lam - (1 - exp(-lam T))/lam^2
    src = _const_source(pi_es, 0, 1.0, T)
    lam = pi_es.lambdas[0]
    expected = T / lam - (1 - math.exp(-lam * T)) / lam**2
    out = ha.average_from_source(src, avg_ws, pi_es)
    assert out.coeffs[0] == pytest.approx(expected, rel=1e-12)
    assert np.max(np.abs(out.coeffs[1:])) < 1e-15


def test_average_from_source_matches_oracle():
    length, horizon = np.pi, 0.2
    grid = ha.Grid.uniform(length, 257)
    op = ha.OperatorSpec.constant(length, q=0.0)
    es = ha.build_eigensystem(op, grid, 12)
    ws = ha.WeightSpec.quasi_boundary(horizon, eps=0.05, kappa=1.0)
    times = np.array([0.0, horizon / 3, horizon])
    src = ha.SourceTerm.from_callable(
        grid, lambda x, t: (1.0 + t) * np.sin(x) * np.exp(-x / 2), times
    )
    spectral = ha.synthesize(ha.average_from_source(src, ws, es), es)
    cfg = ha.StepperConfig(n_nodes=257, n_steps=512, breakpoints=tuple(ws.breakpoints()))
    zero = ha.GridFunction.zeros(grid)
    field = ha.step_evolution(op, zero, src, horizon, cfg)
    numeric = ha.time_average(field, ws)
    rel = (ha.GridFunction(grid, spectral.values - numeric.values).norm_l2()
           / numeric.norm_l2())
    assert rel < 5 * (grid.h**2 + (horizon / 512) ** 2)


def test_average_from_source_refuses_a_source_it_cannot_average(pi_es):
    with pytest.raises(ValueError, match="^source tabulation does not span the weight horizon$"):
        ha.average_from_source(_const_source(pi_es, 0, 1.0, T), ha.WeightSpec.average(2 * T),
                               pi_es)


def test_energy_decay_without_source(pi_es):
    rng = np.random.default_rng(31)
    xi = ha.SpectralVector(pi_es, rng.standard_normal(pi_es.n_modes))
    norms = [np.linalg.norm(_decay(xi, t).coeffs) for t in np.linspace(0.0, T, 129)]
    assert np.all(np.diff(norms) <= 1e-15)


def test_weighted_average_cross_checks_source_quadrature(pi_es):
    rng = np.random.default_rng(13)
    ws = ha.WeightSpec.quasi_boundary(T, 0.02, kappa=0.5)
    times = np.linspace(0.0, T, 5)
    src = ha.SourceTerm.from_modal(pi_es, times, rng.standard_normal((5, pi_es.n_modes)))
    xi = ha.SpectralVector(pi_es, rng.standard_normal(pi_es.n_modes))
    direct = (ha.average_from_initial(xi, ws).coeffs
              + ha.average_from_source(src, ws, pi_es).coeffs)
    fourth_order = ha.weighted_average(xi, ws, src)
    assert np.max(np.abs(fourth_order.coeffs - direct)) < 1e-12


def test_source_grid_history_round_trip(pi_es):
    rng = np.random.default_rng(19)
    times = np.linspace(0.0, T, 4)
    coeffs = rng.standard_normal((4, pi_es.n_modes))
    src = ha.SourceTerm.from_modal(pi_es, times, coeffs)
    again = ha.SourceTerm.from_grid_history(pi_es.grid, times, src.values, es=pi_es)
    assert np.max(np.abs(again.coefficients(pi_es) - coeffs)) < 1e-12
    # a source built with an eigensystem carries the projection of its samples, bit for bit
    w = pi_es.grid.trapezoid_weights()
    for built in (src, again):
        assert np.array_equal(built.coeffs, (built.values * w) @ pi_es.modes.T)
        assert built.coefficients(pi_es) is built.coeffs


@pytest.fixture(scope="module")
def zero_mode_case():
    # q = -(pi/L)^2 makes the first eigenvalue exactly 0, where the phi-functions
    # of the exact kernel switch to their series
    grid = ha.Grid.uniform(np.pi, 129)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi, q=-1.0), grid, 12)
    rng = np.random.default_rng(29)
    knots = np.array([0.0, 0.013, 0.041, 0.07, T])
    src = ha.SourceTerm.from_modal(es, knots, rng.standard_normal((knots.size, es.n_modes)))
    return es, knots, src


def _pieces_quad(fn, breaks, hi, n=20):
    """Fixed-order Gauss of fn on every piece of ``breaks`` below ``hi``."""
    edges = np.append(breaks[breaks < hi], hi)
    return sum(fixed_quad(fn, a, b, n=n)[0] for a, b in zip(edges[:-1], edges[1:]))


def test_average_from_source_matches_fine_quadrature_of_duhamel(zero_mode_case):
    es, knots, src = zero_mode_case
    assert es.lambdas[0] == 0.0
    # kappa > 0, a gap over (0.055, 0.08), weight breakpoints off the source knots
    ws = ha.WeightSpec.from_pieces(
        0.6, ((0.0, 0.027, 1.5), (0.027, 0.055, 0.4), (0.08, T, 2.0)), T)
    breaks = np.union1d(knots, ws.breakpoints())
    exact = ha.average_from_source(src, ws, es).coeffs
    for k in (0, 1, 5, 11):
        def integrand(ts):
            return ws.value_at(ts) * _duhamel(src, es, ts)[:, k]

        reference = ws.kappa * _duhamel(src, es, [T])[0, k] + _pieces_quad(integrand, breaks, T)
        assert exact[k] == pytest.approx(reference, rel=1e-10)


def test_solve_forward_off_knot_times_match_duhamel(zero_mode_case):
    es, knots, src = zero_mode_case
    coeffs = src.coefficients(es)
    times = np.array([0.0, 0.004, 0.013, 0.0275, 0.069, 0.0855, T])
    zero = ha.SpectralVector(es, np.zeros(es.n_modes))
    field_coeffs = forward._coeffs_at(zero, src, times)
    assert np.array_equal(ha.solve_forward(zero, src, times).values, field_coeffs @ es.modes)
    for k in (0, 1, 5, 11):
        lam = es.lambdas[k]
        for j, t in enumerate(times):
            def integrand(s):
                return np.interp(s, knots, coeffs[:, k]) * np.exp(-lam * (t - s))

            reference = _pieces_quad(integrand, knots, t)
            at_t = _duhamel(src, es, [t])[0, k]
            assert at_t == pytest.approx(reference, rel=1e-12, abs=1e-15)
            assert field_coeffs[j, k] == pytest.approx(at_t, rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("with_source", [False, True], ids=["initial", "source"])
def test_solve_forward_overflow_raises_named_error(with_source):
    # lambda_1 = 1 - 1e4: exp(-lambda t) overflows well before t = T
    grid = ha.Grid.uniform(np.pi, 65)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi, q=-1e4), grid, 8)
    xi = ha.SpectralVector(es, np.zeros(8) if with_source else np.ones(8))
    src = _const_source(es, 0, 1.0, T) if with_source else None
    with pytest.raises(ha.MultiplierOverflow, match="mode 1 ") as exc:
        ha.solve_forward(xi, src, np.linspace(0.0, T, 5))
    assert exc.value.mode == 1


# besides the source average, the kernel's two parts alone: the source-free
# evolution of unit coefficients and the Duhamel term from a zero state
_OVERFLOW_CALLS = {
    "average_from_source": lambda es, src: ha.average_from_source(src, ha.WeightSpec.average(T), es),
    "evolve_homogeneous": lambda es, src: _decay(ha.SpectralVector(es, np.ones(8)), T),
    "duhamel": lambda es, src: _duhamel(src, es, [T]),
}


@pytest.mark.parametrize("call", list(_OVERFLOW_CALLS))
def test_overflow_raises_named_error_without_numpy_warning(call):
    # lambda_1 = 1 - 1e4: the Duhamel states and exp(-lambda T) overflow
    grid = ha.Grid.uniform(np.pi, 65)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi, q=-1e4), grid, 8)
    src = ha.SourceTerm.from_modal(es, np.linspace(0.0, T, 3), np.ones((3, 8)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ha.MultiplierOverflow, match="mode 1 ") as exc:
            _OVERFLOW_CALLS[call](es, src)
    assert exc.value.mode == 1


def _reference_phis(z, order):
    """Reference: `_phis` before its single Horner pass, one loop per order."""
    small = np.abs(z) < 1.0
    zs = z[small]
    zd = np.where(small, 1.0, z)
    phis = [np.exp(z)]
    direct = np.expm1(zd) / zd
    for k in range(1, order + 1):
        if k > 1:
            direct = (direct - 1.0 / math.factorial(k - 1)) / zd
        series = np.zeros_like(zs)
        for j in range(19, -1, -1):
            series = series * zs + 1.0 / math.factorial(j + k)
        phi = direct.copy()
        phi[small] = series
        phis.append(phi)
    return phis


def _reference_coeffs_at(alpha, src, es, times):
    """Reference: `_coeffs_at` before row blocks, with whole (times, modes)
    temporaries; the knot states come from the reference `_phis`."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = alpha.coeffs * np.exp(-np.multiply.outer(times, es.lambdas))
        if src is not None:
            knots, a, b, states, _, _ = forward._knot_states(src, es)
            i = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
            w = (times - knots[i])[:, None]
            phi = _reference_phis(-w * es.lambdas, 2)
            coeffs = coeffs + (phi[0] * states[i] + w * phi[1] * a[i] + w**2 * phi[2] * b[i])
    return coeffs


def _assert_same_bits(got, want):
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_phis_match_reference_bit_for_bit():
    one = np.array([1.0, -1.0])
    z = np.concatenate([[0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300], one, -one,
                        np.nextafter(one, 0.0), np.nextafter(one, 2.0 * one),
                        [-30.0, -700.0, -745.2, -1e6, -1e300]])
    for got, want in zip(forward._phis(z, 3), _reference_phis(z, 3), strict=True):
        _assert_same_bits(got, want)


@pytest.fixture(scope="module")
def bits_case(request):
    # L = 2 pi and q = -1: lambda_1 < 0, lambda_2 = 0 and the rest positive, so
    # the phi-functions take their series, their recurrence and both signs of z
    grid = ha.Grid.uniform(2.0 * np.pi, 1025)
    op = ha.OperatorSpec.constant(2.0 * np.pi, q=-1.0)
    es = ha.build_eigensystem(op, grid, request.param)
    rng = np.random.default_rng(request.param)
    xi = ha.SpectralVector(es, rng.standard_normal(es.n_modes))
    src = ha.SourceTerm.from_modal(es, np.linspace(0.0, T, 9),
                                   rng.standard_normal((9, es.n_modes)))
    return es, xi, src


_BITS_WEIGHTS = (
    ha.WeightSpec.average(T),
    ha.WeightSpec.average(T, kappa=0.5, t1=0.3 * T),
    ha.WeightSpec.from_pieces(0.6, ((0.0, 0.027, 1.5), (0.027, 0.055, 0.4), (0.08, T, 2.0)), T),
)


@pytest.mark.parametrize("bits_case", [7, 300, 1000], indirect=True, ids=lambda n: f"N{n}")
@pytest.mark.parametrize("n_times", [1, 2, 129, 513])
def test_forward_kernel_matches_unblocked_reference_bit_for_bit(bits_case, n_times, monkeypatch):
    # with 300 and 1000 modes the row blocks end inside the source's pieces
    es, xi, src = bits_case
    times = np.linspace(0.0, T, n_times) if n_times > 1 else np.array([0.37 * T])
    with monkeypatch.context() as patch:
        patch.setattr(forward, "_phis", _reference_phis)
        decay = _reference_coeffs_at(xi, None, es, times)
        driven = _reference_coeffs_at(xi, src, es, times)
        averages = [ha.average_from_source(src, ws, es).coeffs for ws in _BITS_WEIGHTS]
    for s, want in ((None, decay), (src, driven)):
        _assert_same_bits(forward._coeffs_at(xi, s, times), want)
        _assert_same_bits(ha.solve_forward(xi, s, times).values, want @ es.modes)
        exact_slice = ha.solve_forward(xi, s, times[-1:])
        _assert_same_bits(exact_slice.values, want[-1:] @ es.modes)
    _assert_same_bits(_decay(xi, times[-1]).coeffs, decay[-1])
    for ws, average in zip(_BITS_WEIGHTS, averages):
        _assert_same_bits(ha.average_from_source(src, ws, es).coeffs, average)
