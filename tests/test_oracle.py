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


def _reference_source_row(src, t):
    """Reference: the source row at t, linear between knots and held at the
    end rows beyond them (the former `SourceTerm.values_at`, verbatim)."""
    t = float(t)
    if t <= src.times[0]:
        return src.values[0]
    if t >= src.times[-1]:
        return src.values[-1]
    i = int(np.searchsorted(src.times, t, side="right") - 1)
    s = (t - src.times[i]) / (src.times[i + 1] - src.times[i])
    return (1.0 - s) * src.values[i] + s * src.values[i + 1]


def _reference_step_evolution(op, xi, src, horizon, cfg, banded=False):
    """Reference: `step_evolution`'s arithmetic with a fresh L D L^T
    factorization and solve at every step (``dpttrf``, ``dpttrs``; or
    `solve_banded` when ``banded``), on fresh arrays, with no cache and no
    in-place writes, and with its input and finiteness checks left out: on
    the time grid with the source's knots merged into the breakpoints, each
    step is driven by ``dt * phi(t_mid)``; it marches on through non-finite
    states and stops before the first step whose matrix ``dpttrf`` refuses.
    Returns the times, the states and that step, or None."""
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
        rhs = u + 0.5 * dt * (diag * u)
        rhs[:-1] += 0.5 * dt * off * u[1:]
        rhs[1:] += 0.5 * dt * off * u[:-1]
        if src is not None:
            rhs += dt * _reference_source_row(src, 0.5 * (times[n] + times[n + 1]))[1:-1]
        if banded:
            ab = np.zeros((3, n_int))
            ab[0, 1:] = -0.5 * dt * off
            ab[1, :] = 1.0 - 0.5 * dt * diag
            ab[2, :-1] = -0.5 * dt * off
            u = solve_banded((1, 1), ab, rhs, check_finite=False)
        else:
            u = dpttrs(d, e, rhs)[0]
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
    # the source stops short of the horizon, so the last steps use its final row
    knots = np.array([0.0, 0.013, 0.07, 0.11, 0.17])
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
        # an independent solver, pivoted LU on the band, agrees to rounding
        _, banded, _ = _reference_step_evolution(op, ha.GridFunction(grid, xi), source,
                                                 horizon, cfg, banded=True)
        assert np.max(np.abs(banded - field.values)) <= 1e-12 * np.max(np.abs(field.values))


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


def test_non_finite_state_raises_naming_the_step():
    grid = ha.Grid.uniform(1.0, 65)
    op = ha.OperatorSpec.constant(1.0)
    xi = ha.GridFunction(grid, 1e308 * np.sin(np.pi * grid.nodes))
    cfg = ha.StepperConfig(n_nodes=65, n_steps=16)
    with np.errstate(all="ignore"):
        with pytest.raises(ha.SingularStep, match="non-finite state at step 0$"):
            ha.step_evolution(op, xi, None, 0.1, cfg)


def test_non_finite_state_mid_run_names_its_step_without_a_warning():
    # q = -400 grows the first mode by about 1.88 per step; step 44 reads a
    # state near 1e302, where diag * u overflows, so the state it writes is
    # the first non-finite one: state 45 of 64, so not the last state
    grid = ha.Grid.uniform(1.0, 1025)
    op = ha.OperatorSpec.constant(1.0, q=-400.0)
    xi = ha.GridFunction(grid, 1e290 * np.sin(np.pi * grid.nodes))
    cfg = ha.StepperConfig(n_nodes=1025, n_steps=64)
    with pytest.raises(ha.SingularStep, match="non-finite state at step 44$"):
        ha.step_evolution(op, xi, None, 0.1, cfg)


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
