import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import heatavg as ha
from heatavg.fileio import read_table

T = 0.1


def test_average_case_is_admissible():
    assert ha.WeightSpec.average(T).validate().ok


def test_pure_terminal_weight_is_rejected():
    report = ha.WeightSpec.terminal(T, kappa=1.0).validate()
    assert not report.ok
    assert "no T1 with ess inf > 0" in report.violations


@pytest.mark.parametrize("eps", [0.0, -0.01, 2 * T, math.nan])
def test_quasi_boundary_rejects_eps_outside_horizon(eps):
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, horizon\]$"):
        ha.WeightSpec.quasi_boundary(T, eps)


def test_quasi_boundary_case_is_admissible():
    ws = ha.WeightSpec.quasi_boundary(T, eps=0.01)
    assert ws.kappa == 1.0 and ws.t1 == 0.01
    assert ws.validate().ok


def test_constructors_take_kappa_and_t1():
    assert (ha.WeightSpec.average(T, kappa=0.5, t1=0.05)
            == ha.WeightSpec.from_pieces(0.5, ((0.0, T, 1.0),), T, t1=0.05))
    assert (ha.WeightSpec.quasi_boundary(T, 0.01, kappa=0.5, t1=0.005)
            == ha.WeightSpec.from_pieces(0.5, ((0.0, 0.01, 1.0),), T, t1=0.005))


@pytest.mark.parametrize("kappa, horizon", [
    (math.nan, T), (math.inf, T), (0.0, math.inf), (0.0, math.nan)])
def test_non_finite_kappa_or_horizon_rejected(kappa, horizon):
    with pytest.raises(ValueError, match="finite"):
        ha.WeightSpec(kappa=kappa, pieces=(), horizon=horizon)


def test_negative_inputs_named_in_report():
    ws = ha.WeightSpec(kappa=-1.0, pieces=((0.0, T, -2.0),), horizon=T, t1=T)
    report = ws.validate()
    assert "kappa is negative" in report.violations
    assert "weight takes negative values" in report.violations


def test_both_zero_named_in_report():
    report = ha.WeightSpec.terminal(T, kappa=0.0).validate()
    assert "kappa and weight are both zero" in report.violations


def test_multiplier_constant_weight_closed_form():
    ws = ha.WeightSpec.average(T)
    for lam in (0.25, 1.0, 9.0, 400.0):
        assert ws.multiplier(lam) == pytest.approx((1 - math.exp(-lam * T)) / lam, rel=1e-14)


def test_multiplier_quasi_closed_form():
    eps = 0.01
    ws = ha.WeightSpec.quasi_boundary(T, eps)
    for lam in (0.25, 4.0, 100.0):
        expected = (1 - math.exp(-lam * eps)) / lam + math.exp(-lam * T)
        assert ws.multiplier(lam) == pytest.approx(expected, rel=1e-14)


def test_multiplier_at_lambda_zero_uses_limit():
    ws = ha.WeightSpec.from_pieces(0.5, ((0.0, 0.04, 2.0), (0.04, T, 1.0)), T)
    assert ws.multiplier(0.0) == pytest.approx(2.0 * 0.04 + 1.0 * 0.06 + 0.5, rel=1e-15)


def test_multiplier_without_terminal_term_ignores_overflowed_exponential():
    # kappa = 0 with exp(-lam T) = inf: the terminal term must not enter as 0 * inf = nan
    ws = ha.WeightSpec.from_pieces(0.0, ((0.0, 1.0, 1.0),), 10.0)
    with np.errstate(over="ignore"):
        assert ws.multiplier(-100.0) == pytest.approx(math.expm1(100.0) / 100.0, rel=1e-14)


def test_non_finite_multiplier_raises_naming_first_mode():
    ws = ha.WeightSpec.average(10.0)
    with np.errstate(over="ignore"):
        with pytest.raises(ha.MultiplierOverflow, match="mode 1 "):
            ws.multiplier(-2000.0)
        with pytest.raises(ValueError) as exc:
            ws.multiplier(np.array([1.0, -1.0, -2000.0, -3000.0]))
    assert isinstance(exc.value, ha.MultiplierOverflow) and exc.value.mode == 3


def test_overflowing_multiplier_raises_without_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ha.MultiplierOverflow):
            ha.WeightSpec.average(10.0).multiplier(-2000.0)


def test_multiplier_matches_quadrature_on_many_pieces():
    # independent oracle: adaptive quadrature of w(t)exp(-lam t) per piece
    rng = np.random.default_rng(42)
    edges = np.linspace(0.0, T, 65)
    values = rng.uniform(0.1, 5.0, size=64)
    pieces = tuple((edges[i], edges[i + 1], values[i]) for i in range(64))
    kappa = 0.3
    ws = ha.WeightSpec.from_pieces(kappa, pieces, T)
    assert ws.validate().ok
    for lam in (0.0, 0.7, 25.0, 900.0):
        oracle = kappa * math.exp(-lam * T)
        for s, e, v in pieces:
            part, _ = quad(lambda t: v * math.exp(-lam * t), s, e, epsabs=1e-15, epsrel=1e-13)
            oracle += part
        assert abs(ws.multiplier(lam) - oracle) < 1e-12


def test_multiplier_positive_and_decreasing_in_lambda():
    ws = ha.WeightSpec.quasi_boundary(T, 0.02, kappa=0.8)
    lams = np.linspace(-1.0, 500.0, 200)
    vals = ws.multiplier(lams)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_multiplier_additive_in_the_weight():
    p1 = ((0.0, 0.05, 2.0),)
    p2 = ((0.05, T, 0.7),)
    kappa = 0.4
    combined = ha.WeightSpec.from_pieces(kappa, p1 + p2, T)
    first = ha.WeightSpec.from_pieces(kappa, p1, T)
    second = ha.WeightSpec.from_pieces(0.0, p2, T, t1=0.05)  # kappa counted once
    lams = np.array([0.0, 0.3, 12.0, 250.0])
    total = first.multiplier(lams) + second.multiplier(lams)
    assert np.max(np.abs(combined.multiplier(lams) - total)) < 1e-15


def test_stability_constants_average_formula():
    grid = ha.Grid.uniform(np.pi, 401)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi), grid, 50)
    horizon = 1.0
    ws = ha.WeightSpec.average(horizon)
    sc = ha.stability_constants(ws, es)
    zeta1 = (1 - math.exp(-horizon)) / 1.0
    assert sc.m == 1
    assert sc.c1 == pytest.approx(min(zeta1, 1 - math.exp(-horizon)), rel=1e-14)
    prod = es.lambdas * np.asarray(ws.multiplier(es.lambdas))
    assert np.all(prod >= sc.c1 * (1 - 1e-12))
    assert np.all(prod <= sc.c2 * (1 + 1e-12))


def test_stability_constants_ordered():
    grid = ha.Grid.uniform(2 * np.pi, 401)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(2 * np.pi, q=0.5), grid, 100)
    for ws in (
        ha.WeightSpec.average(T),
        ha.WeightSpec.quasi_boundary(T, 0.01),
        ha.WeightSpec.from_pieces(0.7, ((0.0, 0.03, 2.0), (0.05, T, 5.0)), T),
    ):
        sc = ha.stability_constants(ws, es)
        assert 0.0 < sc.c1 < sc.c2


def test_stability_bounds_quasi_case(default_es):
    ws = ha.WeightSpec.quasi_boundary(T, 0.01)
    sc = ha.stability_constants(ws, default_es)
    lam = default_es.lambdas
    prod = lam * np.asarray(ws.multiplier(lam))
    assert np.all((prod >= sc.c1 * (1 - 1e-12)) & (prod <= sc.c2 * (1 + 1e-12)))


def test_negative_leading_eigenvalues_use_plain_multiplier_bound():
    # q < 0 pushes the first eigenvalues below zero; those modes are bounded
    # by their multipliers directly rather than by lambda * multiplier
    grid = ha.Grid.uniform(np.pi, 201)
    es = ha.build_eigensystem(ha.OperatorSpec.constant(np.pi, q=-5.0), grid, 30)
    assert es.first_positive == 2  # lambdas -4, -1, 4, ...
    ws = ha.WeightSpec.average(T)
    sc = ha.stability_constants(ws, es)
    mult = np.asarray(ws.multiplier(es.lambdas))
    assert np.all(mult[:2] >= sc.c1 * (1 - 1e-12))
    assert np.all(mult[:2] <= sc.c2 * (1 + 1e-12))


def test_stability_constants_refuses_an_inadmissible_weight(pi_es):
    with pytest.raises(ha.IllPosedWeight, match="no T1 with ess inf > 0"):
        ha.stability_constants(ha.WeightSpec.terminal(T), pi_es)


def test_multiplier_out_of_band_names_the_mode(pi_es, broken_band):
    with pytest.raises(ha.BoundViolated, match=r"multiplier bounds violated at modes \[5\]$"):
        ha.stability_constants(ha.WeightSpec.average(T), pi_es)


def test_weight_table_round_trip(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text(
        "# pieces of a stress profile\n"
        "0.0 0.025 2.5\n"
        "\n"
        "0.025 0.1 1.0   # tail\n"
    )
    pieces = read_table(path, "t_start t_end value", "weight table").tolist()
    assert pieces == [[0.0, 0.025, 2.5], [0.025, 0.1, 1.0]]
    ws = ha.WeightSpec.from_pieces(0.0, pieces, T)
    assert ws.t1 == pytest.approx(T)
    assert ws.validate().ok


def test_malformed_weight_table_rejected(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0.0 0.05\n")
    with pytest.raises(ValueError):
        read_table(path, "t_start t_end value", "weight table")
    path.write_text("")
    with pytest.raises(ValueError):
        read_table(path, "t_start t_end value", "weight table")


def test_unparsable_weight_table_entry_names_file_and_line(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0.0 0.05 1.0\n0.05 0.1 abc\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*'abc'"):
        read_table(path, "t_start t_end value", "weight table")


def test_overlapping_pieces_rejected():
    with pytest.raises(ValueError):
        ha.WeightSpec(kappa=0.0, pieces=((0.0, 0.06, 1.0), (0.04, T, 1.0)), horizon=T, t1=T)


@pytest.mark.parametrize("pieces, t1", [
    (((math.nan, 0.05, 1.0),), None),
    (((0.0, math.inf, 1.0),), None),
    (((0.0, T, math.nan),), None),
    (((0.0, T, -math.inf),), None),
    (((0.0, T, 1.0),), math.nan),
    (((0.0, T, 1.0),), math.inf),
], ids=["start_nan", "end_inf", "value_nan", "value_-inf", "t1_nan", "t1_inf"])
def test_non_finite_piece_or_t1_rejected(pieces, t1):
    with pytest.raises(ValueError, match="finite"):
        ha.WeightSpec(kappa=0.0, pieces=pieces, horizon=T, t1=t1)


def _reference_inferred_t1(ws):
    """Reference: `_inferred_t1`'s former loop, which bridged a gap by up to
    the tolerance past the end of a piece narrower than the tolerance."""
    tol = 1e-12 * ws.horizon
    t = 0.0
    for s, e, v in ws.pieces:
        if s > t + tol or v <= 0.0:
            break
        t = max(t, e)
    return t if t > 0.0 else None


def _reference_ess_inf(ws, upto):
    """Reference: `ess_inf`'s former loop, verbatim."""
    tol = 1e-12 * ws.horizon
    covered = 0.0
    lo = math.inf
    for s, e, v in ws.pieces:
        if e <= covered + tol:
            continue
        if s > covered + tol:
            return 0.0
        lo = min(lo, v)
        covered = e
        if covered >= upto - tol:
            break
    if covered < upto - tol:
        return 0.0
    return lo if lo < math.inf else 0.0


def _piece_sets(rng, count):
    """Admissible and inadmissible piece sets: gaps and overlaps around the
    tolerance, zero and negative values, ends within the tolerance of the
    horizon, and pieces narrower than the tolerance."""
    for _ in range(count):
        horizon = float(rng.choice([0.1, 1.0, 7.3]))
        tol = 1e-12 * horizon
        start = float(rng.choice([0.0, 0.0, 0.5 * tol, -0.5 * tol, 2.0 * tol, 0.1 * horizon]))
        pieces = []
        for _ in range(rng.integers(0, 7)):
            narrow = rng.random() < 0.3
            end = start + float(rng.uniform(0.05, 0.95) * tol if narrow
                                else rng.uniform(0.01, 0.4) * horizon)
            if rng.random() < 0.2:
                end = horizon + float(rng.uniform(-1.0, 1.0)) * tol
            value = float(rng.choice([rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), 0.0, -1.0]))
            pieces.append((start, end, value))
            gap = float(rng.choice([0.0, 0.0, 0.0, 0.5, -0.5, 0.9, -0.9, 1.1, 1.5, 2.0]))
            wide = float(rng.uniform(0.01, 0.1)) * horizon
            start = end + (gap * tol if rng.random() < 0.9 else wide)
        yield tuple(pieces), horizon


def test_contiguous_walk_matches_reference_loops():
    # ess_inf matches its former loop everywhere; _inferred_t1 differs only where
    # the former loop bridged a gap that ess_inf did not, so the weight failed
    # its own T1 clause
    checked = bridged = 0
    for pieces, horizon in _piece_sets(np.random.default_rng(2024), 10000):
        try:
            ws = ha.WeightSpec(0.0, pieces, horizon)
        except ValueError:
            continue
        checked += 1
        tol = 1e-12 * horizon
        t1 = _reference_inferred_t1(ws)
        if ws._inferred_t1() != t1:
            assert _reference_ess_inf(ws, t1) == 0.0, ws.pieces
            bridged += 1
        ends = [e for _, e, _ in ws.pieces] + ([t1] if t1 is not None else [])
        for upto in [0.0, horizon] + [e + d * tol for e in ends for d in (-1.5, -0.5, 0.0, 0.5)]:
            assert ws.ess_inf(upto) == _reference_ess_inf(ws, upto), (ws.pieces, upto)
    assert checked > 5000 and 0 < bridged < checked // 100


def test_gap_bridged_only_by_a_sub_tolerance_piece_ends_the_inferred_t1():
    tol = 1e-12 * T
    ws = ha.WeightSpec.from_pieces(
        0.0, ((0.0, 0.05, 1.0), (0.05, 0.05 + 0.5 * tol, 1.0), (0.05 + 1.2 * tol, T, 1.0)), T)
    assert ws.t1 == 0.05 + 0.5 * tol
    assert ws.ess_inf(ws.t1) == 1.0 and ws.ess_inf(T) == 0.0
    assert ws.validate().ok
