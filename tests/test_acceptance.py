"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The canonical setup throughout is the interval of length 2*pi,
horizon 0.1, zero-order term 0, 1025 grid nodes, and 300 retained modes.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import heatavg as ha
from heatavg import forward
from heatavg.fileio import write_grid_csv
from heatavg.profiles import cusp_bump, oscillatory_bump

L = 2 * np.pi
T = 0.1


def _announce(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


@pytest.fixture(scope="module")
def setup():
    grid = ha.Grid.uniform(L, 1025)
    op = ha.OperatorSpec.constant(L, q=0.0)
    es = ha.build_eigensystem(op, grid, 300)
    ws = ha.WeightSpec.average(T)
    return grid, op, es, ws


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_1_round_trip_exactness(setup):
    grid, op, es, ws = setup
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        xi = ha.SpectralVector(es, rng.standard_normal(es.n_modes))
        mu = ha.synthesize(ha.average_from_initial(xi, ws), es)
        rep = ha.recover_initial(mu, ws, es)
        rel = np.linalg.norm(rep.xi.coeffs - xi.coeffs) / np.linalg.norm(xi.coeffs)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst relative error {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(1, f"round trip on 50 random states, worst rel error {worst:.2e}, "
                 f"{elapsed:.2f}s")


def test_criterion_2_multiplier_bounds(setup):
    grid, op, es, ws_avg = setup
    rng = np.random.default_rng(7)
    edges = np.sort(np.concatenate([[0.0, T], rng.uniform(0.0, T, 7)]))
    random_pieces = tuple(
        (edges[i], edges[i + 1], float(rng.uniform(0.2, 4.0))) for i in range(edges.size - 1)
    )
    cases = {
        "running average": ws_avg,
        "terminal plus short average": ha.WeightSpec.quasi_boundary(T, 0.01),
        "random piecewise weight": ha.WeightSpec.from_pieces(0.7, random_pieces, T),
    }
    for name, ws in cases.items():
        assert ws.validate() == (), name
        sc = ha.stability_constants(ws, es)  # raises BoundViolated on any failure
        m0 = sc.m - 1
        prod = es.lambdas[m0:] * np.asarray(ws.multiplier(es.lambdas[m0:]))
        bad = np.count_nonzero((prod < sc.c1 * (1 - 1e-12)) | (prod > sc.c2 * (1 + 1e-12)))
        assert bad == 0, f"{name}: {bad} violations"
    _announce(2, "multiplier bounds hold for all modes in all three weight cases")


def test_criterion_3_oracle_cross_validation():
    op = ha.OperatorSpec.constant(L, q=0.0)
    ws = ha.WeightSpec.average(T)

    def run(n_nodes, n_steps):
        grid = ha.Grid.uniform(L, n_nodes)
        es = ha.build_eigensystem(op, grid, 300)
        xi = ha.GridFunction(grid, grid.nodes * (L - grid.nodes)
                             * np.exp(-grid.nodes / 2.0) / L)
        knots = np.array([0.0, T / 3.0, T / 2.0, T])
        src = ha.SourceTerm.from_callable(
            grid, lambda x, t: (1.0 + 3.0 * t / T) * np.sin(x / 2.0)
            * (1.0 + 0.3 * np.cos(x)), knots)
        cfg = ha.StepperConfig(n_nodes=n_nodes, n_steps=n_steps,
                               breakpoints=tuple(ws.breakpoints()))
        ofield = ha.step_evolution(op, xi, src, T, cfg)
        mu = ha.time_average(ofield, ws)
        rfield, _ = ha.solve_inverse(mu, src, ws, es, times=ofield.times)
        diff = ha.SolutionField(grid=grid, times=ofield.times,
                                values=rfield.values - ofield.values)
        rel = diff.norm_l2() / ofield.norm_l2()
        return rel, grid.h**2 + (T / n_steps) ** 2

    rel_fine, scale_fine = run(1025, 2048)
    rel_coarse, scale_coarse = run(513, 1024)
    assert rel_fine <= 5 * scale_fine, f"{rel_fine:.3e} vs {5 * scale_fine:.3e}"
    assert rel_coarse <= 5 * scale_coarse
    ratio = rel_coarse / rel_fine
    assert 3.5 <= ratio <= 4.5, f"refinement ratio {ratio:.2f}"
    _announce(3, f"manufactured solution recovered, rel error {rel_fine:.2e} "
                 f"at full resolution, refinement ratio {ratio:.2f}")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_4_perturbation_experiment(setup, tmp_path):
    grid, op, es, ws = setup
    mu = ha.GridFunction(grid, cusp_bump(grid.nodes, L))
    assert np.all(mu.values[1:-1] > 0.0), "data must be positive inside the interval"
    base = ha.synthesize(ha.recover_initial(mu, ws, es).xi, es)
    assert float(np.min(base.values)) < 0.0, "reconstruction should dip negative"

    deviations = {}
    for freq in (1.0, 3.0):
        pert = ha.GridFunction(grid, mu.values + 0.1 * oscillatory_bump(grid.nodes, L, freq))
        rec = ha.synthesize(ha.recover_initial(pert, ws, es).xi, es)
        deviations[freq] = float(np.max(np.abs(rec.values - base.values)))
    assert deviations[3.0] > deviations[1.0]

    # timing budget: full inversion through the CLI with 1000 modes
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        f"[operator]\nL = {L!r}\n\n[weight]\ncase = average\n\n"
        f"[run]\nT = {T!r}\nN = 1000\nn_nodes = 1025\n"
    )
    write_grid_csv(tmp_path / "mu.csv", mu)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "heatavg", "invert", str(cfg), str(tmp_path / "mu.csv"),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10.0, f"inversion took {elapsed:.1f}s"
    _announce(4, f"negative dip {np.min(base.values):.2f}, deviations "
                 f"{deviations[1.0]:.2f} -> {deviations[3.0]:.2f} with rising frequency, "
                 f"1000-mode inversion in {elapsed:.1f}s")


def test_criterion_5_ill_posed_exclusion(setup, tmp_path):
    grid, op, es, _ = setup
    cfg = tmp_path / "ill.cfg"
    cfg.write_text(
        f"[operator]\nL = {L!r}\n\n[weight]\nkappa = 1.0\ncase = zero\n\n"
        f"[run]\nT = {T!r}\nN = 300\nn_nodes = 1025\n"
    )
    write_grid_csv(tmp_path / "mu.csv", ha.GridFunction(grid, es.modes[0]))
    proc = subprocess.run(
        [sys.executable, "-m", "heatavg", "invert", str(cfg), str(tmp_path / "mu.csv")],
        capture_output=True, text=True)
    assert proc.returncode == 4
    assert "no T1 with ess inf > 0" in proc.stderr

    ws = ha.WeightSpec.terminal(T, kappa=1.0)
    lam = es.lambdas[:60]
    amps = 1.0 / np.asarray(ws.multiplier(lam))
    assert np.allclose(amps, np.exp(lam * T) / 1.0, rtol=1e-12)
    crossing = int(np.argmax(amps > 1e12)) + 1
    assert crossing <= 40, f"amplification crosses 1e12 only at mode {crossing}"
    _announce(5, f"pure terminal weighting exits with code 4; amplification "
                 f"exceeds 1e12 by mode {crossing}")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_6_stability_estimate(setup):
    grid, op, es, ws = setup
    sc = ha.stability_constants(ws, es)
    rng = np.random.default_rng(606)
    for trial in range(20):
        gamma = rng.standard_normal(es.n_modes)
        mu = ha.synthesize(ha.SpectralVector(es, gamma), es)
        rep = ha.recover_initial(mu, ws, es)
        bound = math.sqrt(float(np.sum((gamma * es.lambdas) ** 2))) / sc.c1
        assert np.linalg.norm(rep.xi.coeffs) <= bound, f"trial {trial}"
    _announce(6, "recovered-state norm stays below the curvature bound in all 20 trials")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_7_property_suite(setup, tmp_path):
    grid, op, es, ws = setup

    # orthonormality of the working basis
    w = grid.trapezoid_weights()
    gram = (es.modes * w) @ es.modes.T
    ortho = float(np.max(np.abs(gram - np.eye(es.n_modes))))
    assert ortho <= 1e-10

    # semigroup identity
    rng = np.random.default_rng(77)
    xi = ha.SpectralVector(es, rng.standard_normal(es.n_modes))
    mid = ha.SpectralVector(es, forward._coeffs_at(xi, None, [0.04])[0])
    two = forward._coeffs_at(mid, None, [0.06])
    one = forward._coeffs_at(xi, None, [0.1])
    semigroup = float(np.max(np.abs(two - one)))
    assert semigroup <= 1e-12

    # pipeline linearity, relative to the output size (the division step
    # amplifies single-ulp projection rounding by up to lambda_N/c1, so an
    # absolute comparison would demand below-machine precision)
    g1, g2 = rng.standard_normal(es.n_modes), rng.standard_normal(es.n_modes)
    a, b = 0.9, -2.2
    r1 = ha.recover_initial(ha.synthesize(ha.SpectralVector(es, g1), es), ws, es)
    r2 = ha.recover_initial(ha.synthesize(ha.SpectralVector(es, g2), es), ws, es)
    r12 = ha.recover_initial(ha.synthesize(ha.SpectralVector(es, a * g1 + b * g2), es), ws, es)
    combo = a * r1.xi.coeffs + b * r2.xi.coeffs
    linearity = float(np.linalg.norm(r12.xi.coeffs - combo) / np.linalg.norm(combo))
    assert linearity <= 1e-12

    # discrete maximum principle on the oracle (positivity-preserving regime)
    pgrid = ha.Grid.uniform(L, 129)
    xi_pos = ha.GridFunction(pgrid, np.sin(pgrid.nodes / 2.0))
    src_pos = ha.SourceTerm.from_callable(pgrid, lambda x, t: (1.0 + t) * np.sin(x / 2.0),
                                          np.array([0.0, T]))
    field = ha.step_evolution(op, xi_pos, src_pos, T,
                              ha.StepperConfig(n_nodes=129, n_steps=2048))
    min_value = float(field.values.min())
    assert min_value >= -1e-8

    # byte-identical reruns of the experiment command
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(
        f"[operator]\nL = {L!r}\n\n[weight]\ncase = average\n\n"
        f"[run]\nT = {T!r}\nN = 300\nn_nodes = 1025\n\n"
        f"[figure1]\ndelta = 0.1\nfrequencies = 1, 3\n"
    )
    for name in ("rerun_a", "rerun_b"):
        proc = subprocess.run(
            [sys.executable, "-m", "heatavg", "figure1", str(cfg),
             "--out-dir", str(tmp_path / name)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "rerun_a").iterdir())
    assert names
    for name in names:
        assert ((tmp_path / "rerun_a" / name).read_bytes()
                == (tmp_path / "rerun_b" / name).read_bytes()), name

    _announce(7, f"orthonormality {ortho:.1e}, semigroup {semigroup:.1e}, "
                 f"linearity {linearity:.1e}, oracle minimum {min_value:.1e}, "
                 f"reruns byte-identical")
