import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs

import heatavg as ha
import heatavg.oracle
from heatavg import cli
from heatavg.fileio import write_grid_csv
from heatavg.oracle import _march_average


def _first_mode(grid):
    return ha.GridFunction(grid, np.sqrt(2.0 / grid.length) * np.sin(np.pi * grid.nodes / grid.length))


def _l2(grid, values):
    return float(np.sqrt(np.sum(grid.trapezoid_weights() * values**2)))


def test_first_mode_decay_and_convergence_rate():
    length, horizon = np.pi, 0.1
    errs = []
    for n_nodes, n_steps in ((257, 256), (513, 512)):
        grid = ha.Grid.uniform(length, n_nodes)
        op = ha.OperatorSpec.constant(length, q=0.0)
        cfg = ha.StepperConfig(n_nodes=n_nodes, n_steps=n_steps)
        field = ha.step_evolution(op, _first_mode(grid), None, horizon, cfg)
        exact = math.exp(-horizon) * _first_mode(grid).values
        errs.append(_l2(grid, field.values[-1] - exact))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_zero_data_stays_zero():
    grid = ha.Grid.uniform(1.0, 65)
    op = ha.OperatorSpec.constant(1.0, q=1.5)
    cfg = ha.StepperConfig(n_nodes=65, n_steps=32)
    field = ha.step_evolution(op, ha.GridFunction.zeros(grid), None, 0.1, cfg)
    assert np.all(field.values == 0.0)


def test_discrete_maximum_principle():
    # diffusion number below 1 so Crank-Nicolson is provably positivity
    # preserving; nonnegative data must stay (numerically) nonnegative
    length, horizon = 2 * np.pi, 0.1
    grid = ha.Grid.uniform(length, 129)
    op = ha.OperatorSpec.constant(length, q=0.0)
    xi = ha.GridFunction(grid, np.sin(grid.nodes / 2.0))
    src = ha.SourceTerm.from_callable(
        grid, lambda x, t: (1.0 + t) * np.sin(x / 2.0), np.array([0.0, horizon])
    )
    cfg = ha.StepperConfig(n_nodes=129, n_steps=2048)
    assert horizon / cfg.n_steps <= grid.h**2  # positivity regime
    field = ha.step_evolution(op, xi, src, horizon, cfg)
    assert field.values.min() >= -1e-8


def test_energy_nonincreasing_without_source():
    length, horizon = np.pi, 0.2
    grid = ha.Grid.uniform(length, 129)
    op = ha.OperatorSpec.constant(length, q=0.0)
    rng = np.random.default_rng(2)
    values = rng.standard_normal(129)
    values[0] = values[-1] = 0.0
    cfg = ha.StepperConfig(n_nodes=129, n_steps=128)
    field = ha.step_evolution(op, ha.GridFunction(grid, values), None, horizon, cfg)
    norms = np.array([_l2(grid, field.values[j]) for j in range(field.times.size)])
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])


def test_time_average_of_constant_field():
    grid = ha.Grid.uniform(1.0, 33)
    times = np.linspace(0.0, 0.1, 17)
    c = 3.5
    field = ha.SolutionField(grid=grid, times=times, values=np.full((17, 33), c))
    ws = ha.WeightSpec.average(0.1)
    out = ha.time_average(field, ws)
    assert np.max(np.abs(out.values - c * 0.1)) < 1e-15


def test_time_average_of_decaying_mode():
    length, horizon = np.pi, 0.5
    grid = ha.Grid.uniform(length, 65)
    times = np.linspace(0.0, horizon, 2049)
    v1 = _first_mode(grid).values
    field = ha.SolutionField(grid=grid, times=times,
                             values=np.exp(-times)[:, None] * v1[None, :])
    ws = ha.WeightSpec.average(horizon)
    expected = (1 - math.exp(-horizon)) * v1
    out = ha.time_average(field, ws)
    assert np.max(np.abs(out.values - expected)) < 1e-6  # trapezoid order


def test_terminal_contribution():
    grid = ha.Grid.uniform(1.0, 33)
    times = np.linspace(0.0, 0.1, 9)
    values = np.outer(1.0 + times, np.ones(33))
    ws = ha.WeightSpec.quasi_boundary(0.1, eps=0.05, kappa=2.0)
    # weight covers [0, 0.05] with value 1; terminal slice has value 1.1
    field = ha.SolutionField(grid=grid, times=times, values=values)
    out = ha.time_average(field, ws)
    # integral of (1 + t) over [0, 0.05] = 0.05 + 0.05^2/2
    expected = 0.05 + 0.5 * 0.05**2 + 2.0 * 1.1
    assert np.max(np.abs(out.values - expected)) < 1e-12


def _reference_time_average(field, ws):
    """Reference: `time_average`'s former panel sum, breakpoint checks left out."""
    times = field.times
    dt = np.diff(times)
    w_mid = np.asarray(ws.value_at(0.5 * (times[:-1] + times[1:])))
    panel = (w_mid * dt)[:, None] * 0.5 * (field.values[:-1] + field.values[1:])
    return panel.sum(axis=0) + ws.kappa * field.values[-1]


_GAPPED = ((0.0, 0.0125, 3.0), (0.025, 0.05, 0.5), (0.075, 0.1, 1.5))


@pytest.mark.parametrize("ws, breakpoints", [
    (ha.WeightSpec.average(0.1), ()),
    (ha.WeightSpec.quasi_boundary(0.1, eps=0.025, kappa=1.5), ()),
    (ha.WeightSpec.from_pieces(0.8, _GAPPED, 0.1), ()),
    (ha.WeightSpec.from_pieces(0.3, ((0.0, 0.0337, 2.0), (0.0612, 0.0901, 0.7)), 0.1),
     (0.0337, 0.0612, 0.0901)),
], ids=["average", "quasi_kappa", "gapped_kappa", "merged_breakpoints"])
def test_time_average_matches_panel_sum(ws, breakpoints):
    grid = ha.Grid.uniform(1.0, 65)
    times = ha.StepperConfig(n_nodes=65, n_steps=256, breakpoints=breakpoints).time_grid(0.1)
    assert (np.ptp(np.diff(times)) > 0.1 * np.diff(times).max()) == bool(breakpoints)
    rng = np.random.default_rng(11)
    for values in (rng.standard_normal((times.size, 65)),
                   np.cos(3.0 * times)[:, None] * np.sin(np.pi * grid.nodes)[None, :]):
        field = ha.SolutionField(grid=grid, times=times, values=values)
        ref = _reference_time_average(field, ws)
        out = ha.time_average(field, ws).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_time_average_makes_no_field_sized_temporary():
    grid = ha.Grid.uniform(1.0, 513)
    times = np.linspace(0.0, 0.1, 1025)
    values = np.random.default_rng(3).standard_normal((times.size, grid.n_nodes))
    field = ha.SolutionField(grid=grid, times=times, values=values)
    ws = ha.WeightSpec.quasi_boundary(0.1, eps=0.025, kappa=2.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ha.time_average(field, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= field.values.nbytes / 8


@pytest.mark.parametrize("with_source", [False, True], ids=["no_source", "source"])
def test_step_evolution_makes_no_field_sized_temporary(with_source):
    # the field itself is the only array its size: a drive prebuilt for all
    # steps at once would double the peak
    grid = ha.Grid.uniform(1.0, 513)
    op = ha.OperatorSpec(1.0, a=lambda x: 1.0 + 0.5 * np.sin(3.0 * x), a0=lambda x: 2.0 - x)
    src = None
    if with_source:
        knots = np.linspace(0.0, 0.1, 9)
        src = ha.SourceTerm.from_callable(grid, lambda x, t: (1.0 + 10.0 * t) * np.sin(np.pi * x),
                                          knots)
    cfg = ha.StepperConfig(n_nodes=513, n_steps=1024)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        field = ha.step_evolution(op, _first_mode(grid), src, 0.1, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.125 * field.values.nbytes


@pytest.mark.parametrize("with_source", [False, True], ids=["no_source", "source"])
def test_march_average_holds_only_the_rows_it_keeps(with_source):
    # the CLI's march keeps 17 of 1025 rows and a two-row ring, not the field
    # `step_evolution` returns; a first call loads what numpy and LAPACK load
    # lazily (the extension, `numpy.ma` for `np.unique`), which is not the march
    grid = ha.Grid.uniform(1.0, 513)
    op = ha.OperatorSpec(1.0, a=lambda x: 1.0 + 0.5 * np.sin(3.0 * x), a0=lambda x: 2.0 - x)
    src = None
    if with_source:
        knots = np.linspace(0.0, 0.1, 9)
        src = ha.SourceTerm.from_callable(grid, lambda x, t: (1.0 + 10.0 * t) * np.sin(np.pi * x),
                                          knots)
    ws = ha.WeightSpec.quasi_boundary(0.1, eps=0.025, kappa=2.0)
    cfg = ha.StepperConfig(n_nodes=513, n_steps=1024, breakpoints=tuple(ws.breakpoints()))
    at = np.linspace(0.0, 0.1, 17)
    small = ha.Grid.uniform(1.0, 5)
    _march_average(op, _first_mode(small), None, ws, replace(cfg, n_nodes=5), at)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kept, _ = _march_average(op, _first_mode(grid), src, ws, cfg, at)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept.times.size == 17
    assert peak <= 0.25 * (cfg.n_steps + 1) * grid.n_nodes * 8  # a quarter of the field's bytes


def test_missing_breakpoint_detected():
    grid = ha.Grid.uniform(1.0, 33)
    times = np.linspace(0.0, 0.1, 8)  # 0.03 is not a grid point
    field = ha.SolutionField(grid=grid, times=times, values=np.zeros((8, 33)))
    ws = ha.WeightSpec.quasi_boundary(0.1, eps=0.03)
    with pytest.raises(ha.BreakpointUnresolved):
        ha.time_average(field, ws)


def test_config_validation():
    with pytest.raises(ValueError):
        ha.StepperConfig(n_nodes=2, n_steps=16)
    with pytest.raises(ValueError):
        ha.StepperConfig(n_nodes=33, n_steps=1)
    for counts in ({"n_nodes": 33.0, "n_steps": 16}, {"n_nodes": 33, "n_steps": 4.5}):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            ha.StepperConfig(**counts)
    cfg = ha.StepperConfig(n_nodes=np.int64(33), n_steps=np.int64(16))
    assert type(cfg.n_nodes) is int and type(cfg.n_steps) is int
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^breakpoints must be finite$"):
            ha.StepperConfig(n_nodes=33, n_steps=16, breakpoints=(0.05, bad))


@pytest.mark.parametrize("n_nodes, horizon, message", [
    (65, 0.1, "config n_nodes does not match the initial state's grid"),
    (33, 0.0, "horizon must be positive and finite"),
    (33, -0.1, "horizon must be positive and finite"),
    (33, math.nan, "horizon must be positive and finite"),
    (33, math.inf, "horizon must be positive and finite"),
], ids=["n_nodes_mismatch", "zero_horizon", "negative_horizon", "nan_horizon", "inf_horizon"])
def test_step_evolution_rejects_bad_arguments(n_nodes, horizon, message):
    grid = ha.Grid.uniform(1.0, 33)
    error = ha.GridMismatch if n_nodes != 33 else ValueError
    with pytest.raises(error, match=f"^{message}$"):
        ha.step_evolution(ha.OperatorSpec.constant(1.0), _first_mode(grid), None, horizon,
                          ha.StepperConfig(n_nodes=n_nodes, n_steps=16))


def test_time_average_rejects_another_horizon():
    grid = ha.Grid.uniform(1.0, 33)
    field = ha.SolutionField(grid=grid, times=np.linspace(0.0, 0.1, 9), values=np.zeros((9, 33)))
    with pytest.raises(ha.BreakpointUnresolved, match="field horizon differs"):
        ha.time_average(field, ha.WeightSpec.average(0.2))


def test_breakpoints_merged_into_time_grid():
    cfg = ha.StepperConfig(n_nodes=33, n_steps=10, breakpoints=(0.033,))
    times = cfg.time_grid(0.1)
    assert np.min(np.abs(times - 0.033)) == 0.0
    assert times[0] == 0.0 and times[-1] == 0.1
    for bad in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="^horizon must be positive and finite$"):
            cfg.time_grid(bad)


@pytest.mark.parametrize("n_steps", [8, 64, 2048])
def test_time_grid_ends_exactly_at_zero_and_the_horizon(n_steps):
    # breakpoints within 1e-12 T of an end count as that end: the grid neither
    # gains a sliver step nor loses 0 or T to them
    for horizon in (0.1, 1.0, 7.3):
        near = (horizon * 5e-13, horizon * (1.0 - 5e-13))
        cfg = ha.StepperConfig(n_nodes=5, n_steps=n_steps, breakpoints=near + (0.37 * horizon,))
        times = cfg.time_grid(horizon)
        assert times[0] == 0.0 and times[-1] == horizon
        assert np.array_equal(times, np.union1d(np.linspace(0.0, horizon, n_steps + 1),
                                                [0.37 * horizon]))


@pytest.mark.parametrize("offset, refused", [(1e-10, True), (-1e-10, True), (5e-13, False)],
                         ids=["1e-10_late", "1e-10_early", "5e-13_late"])
def test_time_average_matches_breakpoints_within_1e_12_of_the_horizon(offset, refused):
    # the slack of `time_grid`'s merge, so a breakpoint 1e-10 T off the grid is missed
    grid = ha.Grid.uniform(1.0, 33)
    ws = ha.WeightSpec.quasi_boundary(0.1, eps=0.025)
    assert ws.breakpoints().tolist() == [0.0, 0.025, 0.1]
    times = np.linspace(0.0, 0.1, 9)
    times[2] = 0.025 + offset * 0.1
    field = ha.SolutionField(grid=grid, times=times, values=np.ones((9, 33)))
    if not refused:
        assert np.allclose(ha.time_average(field, ws).values, 1.025, rtol=1e-11)  # kappa = 1
        return
    with pytest.raises(ha.BreakpointUnresolved,
                       match="^time grid misses weight breakpoint t = 0.025$"):
        ha.time_average(field, ws)


def _reference_piece(src, t):
    """Reference: the knot interval i of the source holding a t strictly inside
    its knots, and the fraction s of it passed (linear between knots)."""
    t = float(t)
    i = int(np.searchsorted(src.times, t, side="right") - 1)
    return i, (t - src.times[i]) / (src.times[i + 1] - src.times[i])


def _reference_step_evolution(op, xi, src, horizon, cfg, banded=False, textbook=False):
    """Reference: `step_evolution`'s step in its two-stage form, with a fresh
    L D L^T factorization and solve of I - (dt/2) A at every step (``dpttrf``,
    ``dpttrs``; or `solve_banded` when ``banded``), on fresh arrays, with no
    cache and no in-place writes, and with its input and finiteness checks
    left out: on the time grid with the source's knots merged into the
    breakpoints, step n solves (I - (dt/2) A) v = u + (dt/2) phi(t_mid), its
    drive summed in the program's order, and sets u' = 2 v - u.  With
    ``textbook`` it solves the Crank-Nicolson step as usually written
    instead, (I - (dt/2) A) u' = (I + (dt/2) A) u + dt phi(t_mid).  It
    marches on through non-finite states and stops before the first step
    whose matrix ``dpttrf`` refuses.  Returns the times, the states and that
    step, or None."""
    grid = xi.grid
    a_mid, a0_nodes = op.sample(grid)
    h = grid.h
    # Interior difference operator: off-diagonal and diagonal of (a u')' + a0 u.
    off = a_mid[1:-1] / h**2
    diag = -(a_mid[:-1] + a_mid[1:]) / h**2 + a0_nodes[1:-1]

    if src is not None:
        cfg = replace(cfg, breakpoints=cfg.breakpoints + tuple(src.times))
    times = cfg.time_grid(horizon)
    n_int = grid.n_nodes - 2
    values = np.zeros((times.size, grid.n_nodes))
    values[0, 1:-1] = xi.values[1:-1]

    u = values[0, 1:-1].copy()
    for n in range(times.size - 1):
        dt = times[n + 1] - times[n]
        # a 3-node grid's 1 x 1 matrix still needs one (unread) off-diagonal entry
        d, e, info = dpttrf(1.0 - 0.5 * dt * diag, -0.5 * dt * off if off.size else np.zeros(1))
        if info > 0:
            return times, values, n
        if src is not None:
            i, s = _reference_piece(src, 0.5 * (times[n] + times[n + 1]))
            rows = src.values[:, 1:-1]
        if textbook:
            rhs = u + 0.5 * dt * (diag * u)
            rhs[:-1] += 0.5 * dt * off * u[1:]
            rhs[1:] += 0.5 * dt * off * u[:-1]
            if src is not None:
                rhs += dt * ((1.0 - s) * rows[i] + s * rows[i + 1])
        elif src is None:
            rhs = u.copy()
        else:
            rhs = 0.5 * dt * (1.0 - s) * rows[i] + u + 0.5 * dt * s * rows[i + 1]
        if banded:
            ab = np.zeros((3, n_int))
            ab[0, 1:] = -0.5 * dt * off
            ab[1, :] = 1.0 - 0.5 * dt * diag
            ab[2, :-1] = -0.5 * dt * off
            v = solve_banded((1, 1), ab, rhs, check_finite=False)
        else:
            v = dpttrs(d, e, rhs)[0]
        u = v if textbook else 2.0 * v - u
        values[n + 1, 1:-1] = u
    return times, values, None


@pytest.mark.parametrize("n_nodes", [3, 4, 5, 65, 1025])
def test_factored_stepper_matches_per_step_solve_bit_for_bit(n_nodes):
    length, horizon = 1.5, 0.2
    grid = ha.Grid.uniform(length, n_nodes)
    op = ha.OperatorSpec(length, a=lambda x: 1.0 + 0.5 * np.sin(3.0 * x),
                         a0=lambda x: 2.0 - x)
    rng = np.random.default_rng(7)
    xi = rng.standard_normal(n_nodes)  # nonzero ends: the stepper must clear them
    # knots off the grid; the last one at the horizon
    knots = np.array([0.0, 0.013, 0.07, 0.11, 0.2])
    src = ha.SourceTerm.from_grid_history(grid, knots, rng.standard_normal((5, n_nodes)))
    cfg = ha.StepperConfig(n_nodes=n_nodes, n_steps=64, breakpoints=(0.0301, 0.0917, 0.155))
    assert np.unique(np.diff(cfg.time_grid(horizon))).size > 3
    for source in (None, src):
        field = ha.step_evolution(op, ha.GridFunction(grid, xi), source, horizon, cfg)
        times, values, refused = _reference_step_evolution(op, ha.GridFunction(grid, xi),
                                                           source, horizon, cfg)
        assert refused is None
        assert np.array_equal(field.times, times)
        assert np.array_equal(field.values, values)
        assert np.array_equal(np.signbit(field.values), np.signbit(values))
        # an independent solver, pivoted LU on the band, agrees to rounding;
        # so does the textbook step (I + (dt/2) A) u + dt phi(t_mid), which
        # shows the two-stage step is the same Crank-Nicolson step
        scale = np.max(np.abs(field.values))
        for variant in ({"banded": True}, {"textbook": True}):
            _, other, _ = _reference_step_evolution(op, ha.GridFunction(grid, xi), source,
                                                    horizon, cfg, **variant)
            assert np.max(np.abs(other - field.values)) <= 1e-12 * scale


def test_source_knots_join_the_time_grid():
    # knots off the 64-step grid: the oracle merges them itself, so passing
    # them as breakpoints too changes no bit
    grid = ha.Grid.uniform(1.0, 33)
    op = ha.OperatorSpec.constant(1.0, q=1.5)
    knots = (0.0, 0.013, 0.061, 0.1)
    src = ha.SourceTerm.from_callable(grid, lambda x, t: (1.0 + 10.0 * t) * np.sin(np.pi * x),
                                      np.array(knots))
    fields = [ha.step_evolution(op, _first_mode(grid), src, 0.1,
                                ha.StepperConfig(n_nodes=33, n_steps=64, breakpoints=bps))
              for bps in ((), knots)]
    assert 0.013 in fields[0].times and 0.061 in fields[0].times
    assert np.array_equal(fields[0].times, fields[1].times)
    assert np.array_equal(fields[0].values, fields[1].values)


@pytest.mark.parametrize("last_knot", [0.05, 0.1 * (1.0 - 1e-11)], ids=["half", "just_short"])
def test_source_that_stops_short_of_the_horizon_is_refused_as_solve_forward_refuses_it(last_knot):
    grid = ha.Grid.uniform(1.0, 33)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(1.0), grid, 31)
    src = ha.SourceTerm.from_callable(grid, lambda x, t: np.sin(np.pi * x), [0.0, last_knot])
    with pytest.raises(ha.TimeOutOfRange) as spectral:
        ha.solve_forward(ha.basis_vector(es, 0), src, [0.0, 0.1])
    with pytest.raises(ha.TimeOutOfRange) as oracle:
        ha.step_evolution(ha.OperatorSpec.constant(1.0), _first_mode(grid), src, 0.1,
                          ha.StepperConfig(n_nodes=33, n_steps=16))
    assert str(oracle.value) == str(spectral.value) == f"t = 0.1 outside [0, {last_knot:g}]"


def test_source_within_the_slack_of_the_horizon_reaches_it():
    # the 1e-12 relative slack of `solve_forward`: the grid still ends at exactly 0.1
    grid = ha.Grid.uniform(1.0, 33)
    src = ha.SourceTerm.from_callable(grid, lambda x, t: np.sin(np.pi * x), [0.0, 0.1 * (1 - 5e-13)])
    field = ha.step_evolution(ha.OperatorSpec.constant(1.0), _first_mode(grid), src, 0.1,
                              ha.StepperConfig(n_nodes=33, n_steps=16))
    assert np.array_equal(field.times, np.linspace(0.0, 0.1, 17))
    assert np.all(np.isfinite(field.values))


def test_non_finite_state_raises_naming_the_step():
    grid = ha.Grid.uniform(1.0, 65)
    op = ha.OperatorSpec.constant(1.0)
    xi = ha.GridFunction(grid, 1e308 * np.sin(np.pi * grid.nodes))
    cfg = ha.StepperConfig(n_nodes=65, n_steps=16)
    with np.errstate(all="ignore"):
        with pytest.raises(ha.SingularStep, match="non-finite state at step 0$"):
            ha.step_evolution(op, xi, None, 0.1, cfg)


def test_non_finite_state_mid_run_names_its_step_without_a_warning():
    # q = -400 grows the first mode by about 1.88 per step; a step forms no
    # diag * u product, so the first non-finite state is written by the step
    # whose back-solve y = 2 v (about u + u') passes 1.8e308: step 62 writes
    # state 63 of 64, so not the last state
    grid = ha.Grid.uniform(1.0, 1025)
    op = ha.OperatorSpec.constant(1.0, q=-400.0)
    xi = ha.GridFunction(grid, 1e290 * np.sin(np.pi * grid.nodes))
    cfg = ha.StepperConfig(n_nodes=1025, n_steps=64)
    with pytest.raises(ha.SingularStep, match="non-finite state at step 62$"):
        ha.step_evolution(op, xi, None, 0.1, cfg)


@pytest.mark.parametrize("length, n_nodes, n_steps, amplitude, message", [
    (1.0, 1025, 64, 1e290, "non-finite state at step 62"),
    (np.pi, 65, 16, 1.0, "step matrix not positive definite at step 0: dt = 0.00625 is too "
                         "large for a negative eigenvalue"),
], ids=["overflow_mid_run", "not_positive_definite"])
def test_march_average_and_the_cli_name_the_step_step_evolution_names(
        length, n_nodes, n_steps, amplitude, message, tmp_path, capsys):
    # the cases of `test_non_finite_state_mid_run_names_its_step_without_a_warning`
    # and `test_step_too_large_for_a_growing_solution_is_refused`: the CLI's
    # march keeps no states to scan, so it marches again to name the step
    grid = ha.Grid.uniform(length, n_nodes)
    op, ws = ha.OperatorSpec.constant(length, q=-400.0), ha.WeightSpec.average(0.1)
    xi = ha.GridFunction(grid, amplitude * np.sin(np.pi * grid.nodes / length))
    cfg = ha.StepperConfig(n_nodes=n_nodes, n_steps=n_steps)
    for march in (lambda: ha.step_evolution(op, xi, None, 0.1, cfg),
                  lambda: _march_average(op, xi, None, ws, cfg, np.linspace(0.0, 0.1, 9))):
        with pytest.raises(ha.SingularStep, match=f"^{message}$"):
            march()
    (tmp_path / "run.cfg").write_text(
        f"[operator]\nL = {length!r}\nq = -400.0\n\n[weight]\ncase = average\n\n"
        f"[run]\nT = 0.1\nN = 5\nn_nodes = {n_nodes}\nn_steps = {n_steps}\nn_times = 9\n")
    write_grid_csv(tmp_path / "xi.csv", xi)
    out = tmp_path / "out"
    code = cli.main(["oracle", str(tmp_path / "run.cfg"), str(tmp_path / "xi.csv"),
                     "--out-dir", str(out)])
    assert (code, capsys.readouterr().err) == (3, f"input error: {message}\n")
    assert not out.exists()


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(q=st.floats(-4000.0, -100.0), amplitude=st.floats(1e250, 1e300),
       n_nodes=st.integers(3, 65), n_steps=st.integers(16, 128),
       with_source=st.booleans(), tabulated=st.booleans())
def test_overflowing_run_names_the_first_non_finite_state(q, amplitude, n_nodes, n_steps,
                                                          with_source, tabulated):
    # a run may overflow at any step, or meet a step matrix that is not
    # positive definite (|q| dt / 2 >= 1 refuses step 0); a refused step size
    # is named whatever the states, the one check of the last state of any
    # other run must name the reference's first non-finite state (step n
    # writes state n + 1), and a run that stays finite must give the
    # reference's bits
    length, horizon = 1.3, 0.1
    grid = ha.Grid.uniform(length, n_nodes)
    if tabulated:
        op = ha.OperatorSpec.from_table(length, [0.0, 0.5, length], [1.0, 1.4, 0.8],
                                        [-q, -0.8 * q, -1.2 * q])
    else:
        op = ha.OperatorSpec.constant(length, q=q)
    shape = np.sin(np.pi * grid.nodes / length)
    xi = ha.GridFunction(grid, amplitude * shape)
    src = None
    if with_source:
        knots = np.array([0.0, horizon / 3.0, horizon])
        history = np.outer(amplitude * (1.0 - knots), shape)
        src = ha.SourceTerm.from_grid_history(grid, knots, history)
    cfg = ha.StepperConfig(n_nodes=n_nodes, n_steps=n_steps)
    with np.errstate(all="ignore"):
        times, ref, refused = _reference_step_evolution(op, xi, src, horizon, cfg)
    finite = np.isfinite(ref).all(axis=1)
    if refused is not None:
        dt = times[refused + 1] - times[refused]
        message = (f"step matrix not positive definite at step {refused}: "
                   f"dt = {dt:g} is too large for a negative eigenvalue")
    elif not finite.all():
        message = f"non-finite state at step {int(finite.argmin()) - 1}"
    else:
        field = ha.step_evolution(op, xi, src, horizon, cfg)
        assert np.array_equal(field.values, ref)
        return
    with pytest.raises(ha.SingularStep, match=f"^{message}$"):
        ha.step_evolution(op, xi, src, horizon, cfg)


@pytest.mark.parametrize("scale", [1.0, 1e308], ids=["singular", "non_finite_first"])
def test_refused_step_size_is_named_before_any_state(scale):
    # h = 0.5 and q = -24 give diag = 16, so I - (dt/2) A is exactly 0 for
    # dt = 0.125 (steps 2 to 4) and amplifies by 3 for dt = 0.0625 (steps 0,
    # 1): the state 1e308 would overflow at step 0, but no step is marched
    grid = ha.Grid.uniform(1.0, 3)
    op = ha.OperatorSpec.constant(1.0, q=-24.0)
    xi = ha.GridFunction(grid, np.array([0.0, scale, 0.0]))
    cfg = ha.StepperConfig(n_nodes=3, n_steps=4, breakpoints=(0.0625,))
    with pytest.raises(ha.SingularStep, match="^step matrix not positive definite at step 2: "
                                              "dt = 0.125 is too large for a negative "
                                              "eigenvalue$"):
        ha.step_evolution(op, xi, None, 0.5, cfg)


def test_step_too_large_for_a_growing_solution_is_refused():
    # q = -400 on (0, pi): the first mode grows at rate 399, and dt = 0.1 / 16
    # gives 1 - 399 dt / 2 < 0, a step matrix that is not positive definite
    grid = ha.Grid.uniform(np.pi, 65)
    op = ha.OperatorSpec.constant(np.pi, q=-400.0)
    cfg = ha.StepperConfig(n_nodes=65, n_steps=16)
    with pytest.raises(ha.SingularStep, match="^step matrix not positive definite at step 0: "
                                              "dt = 0.00625 is too large for a negative "
                                              "eigenvalue$"):
        ha.step_evolution(op, _first_mode(grid), None, 0.1, cfg)


def test_oracle_module_never_touches_eigen_data():
    source = inspect.getsource(heatavg.oracle)
    assert "EigenSystem" not in source
    assert "eigh_tridiagonal" not in source
    assert "lambdas" not in source
    assert "modes" not in source
