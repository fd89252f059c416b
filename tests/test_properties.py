"""Generated-input properties of the operator, the weight contract, the
multiplier band, the inversion (round trip and linearity), the CSV files
(bit-exact round trip), the CLI's exit codes on malformed input and the
refusal of bad arguments to the public calls.
Deterministic: derandomized, with no example database."""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import heatavg as ha
from heatavg import cli
from heatavg.fileio import (RunConfig, read_grid_csv, read_space_time_csv, write_field_csv,
                            write_grid_csv)

PROFILE = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def maybe(strategy):
    return st.none() | strategy


@PROFILE
@given(length=st.floats(), diffusion=maybe(st.floats()), q=maybe(st.floats()),
       a=maybe(st.sampled_from([np.ones_like, np.cos])),
       a0=maybe(st.sampled_from([np.zeros_like, np.sin])))
def test_operator_spec_is_built_or_refused_with_a_value_error(length, diffusion, q, a, a0):
    # any mix of given and missing coefficients; never a TypeError
    try:
        op = ha.OperatorSpec(length, diffusion=diffusion, q=q, a=a, a0=a0)
    except ValueError:
        return
    assert (diffusion is None) == (q is None) == (a is not None) == (a0 is not None)
    assert (op.a is None) == (diffusion is not None)


@st.composite
def weights(draw, admissible: bool):
    """Piecewise-constant weights on a partition of [0, horizon] into
    sixteenths; some pieces may be left out as gaps.  Admissible ones start
    with a positive piece at 0 and take no negative value or kappa."""
    horizon = draw(st.floats(0.01, 2.0))
    cuts = draw(st.lists(st.integers(1, 15), max_size=3, unique=True))
    ends = [0.0, *sorted(horizon * c / 16 for c in cuts), horizon]
    low = 0.0 if admissible else -1.0
    pieces = []
    for i, (s, e) in enumerate(zip(ends[:-1], ends[1:])):
        if admissible and i == 0:
            pieces.append((s, e, draw(st.floats(0.01, 3.0))))
        elif draw(st.booleans()):
            pieces.append((s, e, draw(st.floats(low, 3.0))))
    kappa = draw(st.floats(low, 2.0))
    t1 = None if admissible else draw(maybe(st.floats(0.0, 2.0 * horizon)))
    return ha.WeightSpec.from_pieces(kappa, pieces, horizon, t1)


@PROFILE
@given(ws=weights(admissible=True), length=st.floats(1.0, np.pi),
       diffusion=st.floats(0.5, 2.0), q=st.floats(-1500.0, -1e-3))
def test_multiplier_band_holds_or_names_the_mode(ws, length, diffusion, q):
    # 60 modes on (0, L <= pi) reach lambda >= 0.5 * 60^2 - 1500 > 0; a very
    # negative q overflows exp(-lambda t) in the leading modes instead
    op = ha.OperatorSpec.constant(length, q=q, diffusion=diffusion)
    es = ha.build_eigensystem(op, ha.Grid.uniform(length, 129), 60)
    try:
        sc = ha.stability_constants(ws, es)
    except ha.MultiplierOverflow as exc:
        assert 1 <= exc.mode <= es.n_modes and f"mode {exc.mode} " in str(exc)
        assert es.lambdas[exc.mode - 1] < 0.0
        return
    except ValueError as exc:
        assert "underflows double precision" in str(exc), exc
        return
    lam = es.lambdas
    assert sc.m == es.first_positive + 1 and lam[sc.m - 1] > 0.0 >= lam[: sc.m - 1].max(initial=0.0)
    mult = ws.multiplier(lam)
    scaled = np.where(lam > 0.0, lam * mult, mult)
    assert 0.0 < sc.c1 < sc.c2
    assert np.all(scaled >= sc.c1 * (1.0 - 1e-12)) and np.all(scaled <= sc.c2 * (1.0 + 1e-12))


@st.composite
def constant_systems(draw):
    """Eigensystems of constant operators with q >= 0 on grids of at most 65 nodes."""
    length = draw(st.floats(1.0, np.pi))
    op = ha.OperatorSpec.constant(length, q=draw(st.floats(0.0, 10.0)),
                                  diffusion=draw(st.floats(0.5, 2.0)))
    grid = ha.Grid.uniform(length, draw(st.sampled_from([17, 33, 65])))
    return ha.build_eigensystem(op, grid, draw(st.integers(1, grid.n_nodes - 2)))


@st.composite
def tabulated_systems(draw):
    """Eigensystems of 3-row coefficient tables, a in [0.5, 2] and a0 = -d with
    d in [0, 10], on grids of at most 65 nodes; every eigenvalue is positive."""
    length = draw(st.floats(1.0, np.pi))
    a = draw(arrays(float, 3, elements=st.floats(0.5, 2.0)))
    d = draw(arrays(float, 3, elements=st.floats(0.0, 10.0)))
    op = ha.OperatorSpec.from_table(length, np.linspace(0.0, length, 3), a, -d)
    grid = ha.Grid.uniform(length, draw(st.sampled_from([17, 33, 65])))
    return ha.build_eigensystem(op, grid, draw(st.integers(1, grid.n_nodes - 2)))


def _constant_system(length, q, diffusion, n_nodes):
    op = ha.OperatorSpec.constant(length, q=q, diffusion=diffusion)
    return ha.build_eigensystem(op, ha.Grid.uniform(length, n_nodes), n_nodes - 2)


@PROFILE
@given(ws=weights(admissible=False) | st.floats(0.01, 2.0).map(ha.WeightSpec.terminal),
       es=constant_systems())
# admissible, but every multiplier underflows; and c1 underflows to 0 (lambda_1 = 1)
@example(ws=ha.WeightSpec(0.0, ((0.0, 1.0, 5e-324),), 1.0), es=_constant_system(1.0, 0.0, 1.0, 17))
@example(ws=ha.WeightSpec(0.0, ((0.0, 1.0, 0.3),), 1.0, 5e-324),
         es=_constant_system(np.pi, 0.5, 0.5, 33))
def test_weight_gate_agrees_with_validate(ws, es):
    # every eigenvalue is positive (q >= 0): the gate refuses exactly the weights
    # validate() faults, with its clauses, and otherwise gives a band or names
    # a weight too small for double precision
    violations = ws.validate()
    assert violations.ok == (not violations)
    try:
        sc = ha.stability_constants(ws, es)
    except ha.IllPosedWeight as exc:
        assert violations and str(exc) == "; ".join(violations)
        return
    except ValueError as exc:
        assert not violations and "underflows double precision" in str(exc), exc
        return
    assert not violations and 0.0 < sc.c1 < sc.c2


RNGS = st.integers(0, 2**32 - 1).map(np.random.default_rng)
SMALL = settings(PROFILE, max_examples=50)


@SMALL
@given(es=constant_systems() | tabulated_systems(), ws=weights(admissible=True), rng=RNGS)
@pytest.mark.filterwarnings("ignore::UserWarning")  # the curvature-tail warning of random data
def test_recover_initial_inverts_the_weighted_average(es, ws, rng):
    xi = ha.SpectralVector(es, rng.standard_normal(es.n_modes))
    mu = ha.synthesize(ha.weighted_average(xi, ws), es)
    back = ha.recover_initial(mu, ws, es).xi.coeffs
    rel = np.linalg.norm(back - xi.coeffs) / np.linalg.norm(xi.coeffs)
    assert rel <= 1e-10  # acceptance criterion 1


@SMALL
@given(es=constant_systems() | tabulated_systems(), ws=weights(admissible=True), rng=RNGS,
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_solve_inverse_is_linear_in_data_and_source(es, ws, rng, a, b):
    # data made by the forward map, so each part alone also round-trips
    times = np.linspace(0.0, ws.horizon, 4)
    xis = [ha.SpectralVector(es, rng.standard_normal(es.n_modes)) for _ in range(2)]
    rows = [rng.standard_normal((times.size, es.grid.n_nodes)) for _ in range(2)]
    srcs = [ha.SourceTerm.from_grid_history(es.grid, times, v, es=es) for v in rows]
    mus = [ha.synthesize(ha.weighted_average(xi, ws, src), es).values
           for xi, src in zip(xis, srcs)]
    (f1, r1), (f2, r2) = (ha.solve_inverse(ha.GridFunction(es.grid, mu), src, ws, es)
                          for mu, src in zip(mus, srcs))
    src12 = ha.SourceTerm.from_grid_history(es.grid, times, a * rows[0] + b * rows[1], es=es)
    mu12 = ha.GridFunction(es.grid, a * mus[0] + b * mus[1])
    f12, r12 = ha.solve_inverse(mu12, src12, ws, es)
    for got, one, two in ((r12.xi.coeffs, r1.xi.coeffs, r2.xi.coeffs),
                          (f12.values, f1.values, f2.values)):
        scale = np.linalg.norm(np.abs(a * one) + np.abs(b * two))
        assert np.linalg.norm(got - (a * one + b * two)) <= 1e-10 * scale
    for xi, rep in zip(xis, (r1, r2)):
        assert np.linalg.norm(rep.xi.coeffs - xi.coeffs) <= 1e-10 * np.linalg.norm(xi.coeffs)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [-0.0, 5e-324, -2.5e-308, 1.7e308, -1.7e308]  # subnormals and near-overflow values


@st.composite
def csv_cases(draw):
    """A grid of at most 65 nodes, a profile on it, and a field on strictly
    increasing times; every entry a finite double, edge values mixed in."""
    grid = ha.Grid.uniform(draw(st.floats(1e-3, 1e3)), draw(st.integers(3, 65)))
    cells = FINITE | st.sampled_from(EDGES)
    profile = draw(arrays(float, grid.n_nodes, elements=cells))
    times = np.array(sorted(draw(st.lists(FINITE, min_size=1, max_size=4, unique=True))))
    rows = draw(arrays(float, (times.size, grid.n_nodes), elements=cells))
    return grid, profile, times, rows


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@SMALL
@given(case=csv_cases())
@example(case=(ha.Grid.uniform(1.0, 5), np.array(EDGES), np.array([-0.0, 5e-324, 1.7e308]),
               np.array([EDGES, EDGES[::-1], EDGES])))
@example(case=(ha.Grid.uniform(3.0, 4), np.array(EDGES[:4]), np.array([0.0, 1e-300, 0.1]),
               np.array([EDGES[:4], EDGES[1:], EDGES[:4]])))
def test_csv_writers_and_readers_round_trip_bit_for_bit(tmp_path_factory, case):
    grid, profile, times, rows = case
    out = tmp_path_factory.mktemp("csv")
    write_grid_csv(out / "profile.csv", ha.GridFunction(grid, profile))
    assert _same_bits(read_grid_csv(out / "profile.csv", grid).values, profile)
    write_field_csv(out / "field.csv", ha.SolutionField(grid, times, rows))
    back_times, back_rows = read_space_time_csv(out / "field.csv", grid)
    assert _same_bits(back_times, times) and _same_bits(back_rows, rows)
    if times.size > 1 and times[0] == 0.0:  # a field from t = 0 is also a source
        src = ha.SourceTerm(grid, times, rows)
        write_field_csv(out / "phi.csv", src, "phi")
        cfg = RunConfig(ha.OperatorSpec.constant(grid.length), ha.WeightSpec.average(src.horizon),
                        n_modes=1, n_nodes=grid.n_nodes, n_steps=2, n_times=2, delta=0.1,
                        frequencies=(), fig_n_modes=1)
        back = cfg.source_from_csv(out / "phi.csv")
        # source_from_csv pins the ends to 0 and T, so a -0.0 start reads back as 0.0
        assert np.array_equal(back.times, src.times) and _same_bits(back.values, src.values)


# A small valid run; one of its values, or one line of an input CSV, is
# replaced by generated text.  Generated config text holds no digits, so no
# count can grow large; the listed tokens cover numbers at their edges.
_CONFIG = {
    ("operator", "L"): "3.0", ("operator", "q"): "0.5", ("operator", "diffusion"): "1.3",
    ("weight", "case"): "quasi", ("weight", "epsilon"): "0.02", ("weight", "kappa"): "1",
    ("run", "T"): "0.1", ("run", "N"): "5", ("run", "n_nodes"): "17", ("run", "n_steps"): "4",
    ("run", "n_times"): "3",
    ("figure1", "delta"): "0.1", ("figure1", "frequencies"): "1, 3", ("figure1", "N"): "4",
}
_TOKENS = ["", " ", "nan", "-inf", "inf", "1e400", "1e-400", "-1", "0", "1", "2", "2.5", "1_0",
           "１", "0x1f", "--1", "1,2", "#", "= 1", "[run]", "table", "zero", "average"]
_CONFIG_TEXT = st.sampled_from(_TOKENS) | st.text(
    st.characters(exclude_categories=("Nd", "Cs")), max_size=8)
_CSV_LINE = (st.sampled_from(["", ",", "0,0", "0,nan", "1,inf,2", "x,value", "0;0", "0,0,0,0"])
             | st.text("0123456789.,-+eEinfa \t", max_size=30))


def _config_text(values: dict, extra: str | None, at: int) -> str:
    lines = []
    for section in ("operator", "weight", "run", "figure1"):
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for (sec, key), value in values.items() if sec == section)
    if extra is not None:
        lines.insert(at % (len(lines) + 1), extra)
    return "\n".join(lines) + "\n"


@SMALL
@given(command=st.sampled_from(["spectrum", "forward", "invert", "oracle", "figure1"]),
       with_phi=st.booleans(), key=maybe(st.sampled_from(sorted(_CONFIG))),
       value=_CONFIG_TEXT, extra=maybe(_CONFIG_TEXT), csv=st.sampled_from(["f.csv", "phi.csv"]),
       line=maybe(_CSV_LINE), at=st.integers(0, 80))
def test_malformed_input_exits_with_a_documented_code(tmp_path_factory, command, with_phi, key,
                                                      value, extra, csv, line, at):
    out = tmp_path_factory.mktemp("cli")
    values = dict(_CONFIG)
    if key is not None:
        values[key] = value
    (out / "run.cfg").write_text(_config_text(values, extra, at))
    grid = ha.Grid.uniform(3.0, 17)
    write_grid_csv(out / "f.csv", ha.GridFunction(grid, np.sin(np.pi / 3.0 * grid.nodes)))
    times = np.linspace(0.0, 0.1, 3)
    write_field_csv(out / "phi.csv",
                    ha.SolutionField(grid, times, np.outer(1.0 + times, np.sin(grid.nodes))),
                    column="phi")
    if line is not None:
        rows = (out / csv).read_text().splitlines()
        rows[at % len(rows)] = line
        (out / csv).write_text("\n".join(rows) + "\n")
    argv = [command, str(out / "run.cfg"), "--out-dir", str(out / "out")]
    if command in ("forward", "invert", "oracle"):
        argv.insert(2, str(out / "f.csv"))
        if with_phi:
            argv += ["--phi", str(out / "phi.csv")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)


# One argument of a public call replaced by a bad value: a scalar by NaN or
# ±inf, an array by one with such an entry or one axis too many, the mode
# count by a non-integral number.  A record argument is built from the bad
# value, so the record or the call must refuse it.
_PROBE_GRID = ha.Grid.uniform(np.pi, 17)
_PROBE_TIMES = np.array([0.0, 0.05, 0.1])
_PROBE_ARGS = {"mu": np.sin(_PROBE_GRID.nodes), "xi": np.ones(5), "phi": np.ones((3, 17)),
               "times": _PROBE_TIMES, "kappa": 0.5, "horizon": 0.1, "n_modes": 5}
_PROBE_CALLS = {
    "recover_initial": ("mu", "kappa", "horizon", "n_modes"),
    "solve_inverse": ("mu", "phi", "kappa", "horizon", "n_modes", "times"),
    "solve_forward": ("xi", "phi", "n_modes", "times"),
    "average_from_initial": ("xi", "kappa", "horizon", "n_modes"),
    "weighted_average": ("xi", "phi", "kappa", "horizon", "n_modes"),
}
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def bad_calls(draw):
    call = draw(st.sampled_from(sorted(_PROBE_CALLS)))
    name = draw(st.sampled_from(_PROBE_CALLS[call]))
    args = dict(_PROBE_ARGS)
    if name == "n_modes":
        args[name] = draw(st.floats(1.0, 15.0).filter(lambda c: not c.is_integer()))
    elif np.ndim(args[name]) == 0:
        args[name] = draw(_NON_FINITE)
    elif draw(st.booleans()):
        args[name] = args[name][None]
    else:
        args[name] = args[name].copy()
        args[name].flat[draw(st.integers(0, args[name].size - 1))] = draw(_NON_FINITE)
    return call, args


def _probe(call, args):
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi), _PROBE_GRID, args["n_modes"])
    ws = ha.WeightSpec.average(args["horizon"], args["kappa"])
    src = ha.SourceTerm(_PROBE_GRID, _PROBE_TIMES, args["phi"])
    mu = ha.GridFunction(_PROBE_GRID, args["mu"])
    xi = ha.SpectralVector(es, args["xi"])
    return {
        "recover_initial": lambda: ha.recover_initial(mu, ws, es),
        "solve_inverse": lambda: ha.solve_inverse(mu, src, ws, es, args["times"]),
        "solve_forward": lambda: ha.solve_forward(xi, src, args["times"]),
        "average_from_initial": lambda: ha.average_from_initial(xi, ws),
        "weighted_average": lambda: ha.weighted_average(xi, ws, src),
    }[call]()


@SMALL
@given(case=bad_calls())
@example(case=("average_from_initial", {**_PROBE_ARGS, "xi": np.full(5, np.nan)}))
@pytest.mark.filterwarnings("error")
def test_public_calls_refuse_a_bad_argument_by_name(case):
    # the error is raised by heatavg's own code, never numpy's, and no warning comes first
    with pytest.raises((ValueError, TypeError)) as info:
        _probe(*case)
    assert info.traceback[-1].path.parent == Path(ha.__file__).parent, info.getrepr()
