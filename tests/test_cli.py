import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatavg as ha
from heatavg import cli
from heatavg.fileio import (load_config, read_grid_csv, read_space_time_csv, write_field_csv,
                            write_grid_csv)
from heatavg.profiles import cusp_bump

L = 2 * np.pi
T = 0.1


def child_env():
    # A child runs in another cwd, where a relative PYTHONPATH would not resolve:
    # put the imported package's directory first and make inherited entries absolute.
    package_root = str(Path(ha.__file__).resolve().parents[1])
    inherited = [os.path.abspath(p)
                 for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}


def run_cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "heatavg", *map(str, args)],
                          cwd=cwd, env=child_env(), capture_output=True, text=True)


def test_import_does_not_load_scipy(tmp_path):
    # only the tabulated eigensolve and the oracle call into scipy, and they
    # load its LAPACK extension alone (see the next test); a constant
    # operator's commands other than `oracle` never load any of scipy.  Nor
    # does `import heatavg` load the text parsers (`fileio`, `configparser`).
    write_config(tmp_path / "run.cfg")
    grid = ha.Grid.uniform(L, 257)
    write_grid_csv(tmp_path / "f.csv", ha.GridFunction(grid, np.sin(grid.nodes / 2.0)))
    script = (
        "import sys, heatavg\n"
        "assert 'scipy' not in sys.modules\n"
        "assert 'heatavg.fileio' not in sys.modules and 'configparser' not in sys.modules\n"
        "from heatavg import cli\n"
        "for command, *data in (['spectrum'], ['forward', 'f.csv'], ['invert', 'f.csv'],\n"
        "                       ['figure1']):\n"
        "    assert cli.main([command, 'run.cfg', *data, '--out-dir', 'out']) == 0, command\n"
        "    assert 'scipy' not in sys.modules, command\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_oracle_and_tabulated_spectrum_do_not_import_scipy_linalg(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    (tmp_path / "coeffs.txt").write_text(f"0.0 1.0 0.0\n3.0 1.5 -0.5\n{L!r} 1.0 0.0\n")
    (tmp_path / "table.cfg").write_text(
        cfg.read_text().replace("q = 0.0", "coeff_table = coeffs.txt"))
    grid = ha.Grid.uniform(L, 257)
    write_grid_csv(tmp_path / "xi.csv", ha.GridFunction(grid, np.sin(grid.nodes / 2.0)))
    times = np.linspace(0.0, T, 3)
    write_field_csv(tmp_path / "phi.csv",
                    ha.SourceTerm(grid, times, np.outer(1.0 + times, np.sin(grid.nodes / 2.0))),
                    column="phi")
    script = (
        "import sys\n"
        "from heatavg import _lapack, cli\n"
        "for argv in (['oracle', 'run.cfg', 'xi.csv', '--phi', 'phi.csv'],\n"
        "             ['spectrum', 'table.cfg']):\n"
        "    assert cli.main([*argv, '--out-dir', 'out']) == 0, argv\n"
        "    assert 'scipy.linalg' not in sys.modules, argv\n"
        "dgttrf, = _lapack.routines('dgttrf')\n"
        "import scipy.linalg\n"
        "assert scipy.linalg.lapack.dgttrf is dgttrf\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def write_config(path, *, weight="case = average", n_modes=60, n_nodes=257,
                 n_steps=512, n_times=9, extra_run="", figure1=""):
    path.write_text(
        "[operator]\n"
        f"L = {L!r}\n"
        "q = 0.0\n"
        "\n"
        "[weight]\n"
        f"{weight}\n"
        "\n"
        "[run]\n"
        f"T = {T!r}\n"
        f"N = {n_modes}\n"
        f"n_nodes = {n_nodes}\n"
        f"n_steps = {n_steps}\n"
        f"n_times = {n_times}\n"
        f"{extra_run}\n"
        + (f"\n[figure1]\n{figure1}\n" if figure1 else "")
    )
    return path


@pytest.fixture()
def small_setup(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    grid = ha.Grid.uniform(L, 257)
    op = ha.OperatorSpec.constant(L, q=0.0)
    es = ha.build_eigensystem(op, grid, 60)
    return cfg, grid, op, es


def test_spectrum_closed_form_row(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    proc = run_cli("spectrum", cfg, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,lambda,multiplier,lambda_multiplier,c1,c2"
    k, lam, mult, prod, c1, c2 = lines[1].split(",")
    assert int(k) == 1
    assert float(lam) == pytest.approx(0.25, abs=0)
    assert float(mult) == pytest.approx((1 - math.exp(-0.25 * T)) / 0.25, rel=1e-14)
    assert float(c1) > 0 and float(c2) > float(c1)
    assert len(lines) == 61


def test_spectrum_quasi_closed_form(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", weight="kappa = 1.0\ncase = quasi\nepsilon = 0.01")
    out = tmp_path / "out"
    proc = run_cli("spectrum", cfg, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    row = (out / "spectrum.csv").read_text().splitlines()[1].split(",")
    lam = 0.25
    expected = (1 - math.exp(-lam * 0.01)) / lam + math.exp(-lam * T)
    assert float(row[2]) == pytest.approx(expected, rel=1e-14)


def test_forward_first_mode(small_setup, tmp_path):
    cfg, grid, op, es = small_setup
    xi = ha.GridFunction(grid, es.modes[0])
    write_grid_csv(tmp_path / "xi.csv", xi)
    out = tmp_path / "out"
    proc = run_cli("forward", cfg, tmp_path / "xi.csv", "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    times, values = read_space_time_csv(out / "forward.csv", grid)
    assert times.size == 9 and times[-1] == pytest.approx(T)
    expected = math.exp(-es.lambdas[0] * T) * es.modes[0]
    assert np.max(np.abs(values[-1] - expected)) < 1e-12


def test_forward_zero_input(small_setup, tmp_path):
    cfg, grid, *_ = small_setup
    write_grid_csv(tmp_path / "zero.csv", ha.GridFunction.zeros(grid))
    out = tmp_path / "out"
    proc = run_cli("forward", cfg, tmp_path / "zero.csv", "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    _, values = read_space_time_csv(out / "forward.csv", grid)
    assert np.all(values == 0.0)


def test_grid_mismatch_is_input_error(small_setup, tmp_path):
    cfg, grid, *_ = small_setup
    other = ha.Grid.uniform(L, 129)
    write_grid_csv(tmp_path / "bad.csv", ha.GridFunction.zeros(other))
    proc = run_cli("forward", cfg, tmp_path / "bad.csv", cwd=tmp_path)
    assert proc.returncode == 3
    assert "input error" in proc.stderr


def test_missing_file_is_input_error(small_setup, tmp_path):
    cfg, *_ = small_setup
    proc = run_cli("invert", cfg, tmp_path / "nope.csv", cwd=tmp_path)
    assert proc.returncode == 3


def test_duplicate_config_section_is_input_error(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text() + "\n[weight]\ncase = average\n")
    proc = run_cli("spectrum", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr


def test_forward_overflow_is_input_error(small_setup, tmp_path):
    cfg, grid, _, es = small_setup
    cfg.write_text(cfg.read_text().replace("q = 0.0", "q = -10000.0"))
    write_grid_csv(tmp_path / "xi.csv", ha.GridFunction(grid, es.modes[0]))
    out = tmp_path / "out"
    proc = run_cli("forward", cfg, tmp_path / "xi.csv", "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 3
    assert "multiplier is not finite" in proc.stderr and "Traceback" not in proc.stderr
    assert not (out / "forward.csv").exists()


def test_tied_eigenvalues_are_input_error(tmp_path):
    # lambda_k = k^2/4 + 1e20 rounds to the same double for every retained k
    cfg = write_config(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace("q = 0.0", "q = 1e20"))
    proc = run_cli("spectrum", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert "not distinct" in proc.stderr and "Traceback" not in proc.stderr


def test_unknown_command_is_input_error(tmp_path):
    proc = run_cli("frobnicate", "x.cfg", cwd=tmp_path)
    assert proc.returncode == 3


def test_invert_round_trip_through_oracle(small_setup, tmp_path):
    cfg, grid, op, es = small_setup
    xi = ha.GridFunction(grid, np.sin(grid.nodes / 2.0) + 0.3 * np.sin(grid.nodes))
    write_grid_csv(tmp_path / "xi.csv", xi)
    out = tmp_path / "out"
    proc = run_cli("oracle", cfg, tmp_path / "xi.csv", "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("invert", cfg, out / "oracle_average.csv", "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    recovered = read_grid_csv(out / "invert_initial.csv", grid)
    rel = (ha.GridFunction(grid, recovered.values - xi.values).norm_l2()
           / xi.norm_l2())
    assert rel < 1e-3  # discretization-limited round trip
    report = (out / "invert_report.txt").read_text()
    for key in ("residual_mu", "amplification", "c1", "c2", "truncation_residual"):
        assert f"{key} = " in report


def test_invert_with_source_round_trip(small_setup, tmp_path):
    cfg, grid, op, es = small_setup
    ws = ha.WeightSpec.average(T)
    times = np.linspace(0.0, T, 4)
    src = ha.SourceTerm.from_callable(grid, lambda x, t: (1 + t / T) * np.sin(x / 2.0), times)
    write_field_csv(tmp_path / "phi.csv", src, column="phi")
    xi = ha.project(ha.GridFunction(grid, np.sin(grid.nodes / 2.0)), es)
    mu_coeffs = (ha.average_from_initial(xi, ws).coeffs
                 + ha.average_from_source(src, ws, es).coeffs)
    write_grid_csv(tmp_path / "mu.csv", ha.synthesize(ha.SpectralVector(es, mu_coeffs), es))
    out = tmp_path / "out"
    proc = run_cli("invert", cfg, tmp_path / "mu.csv", "--phi", tmp_path / "phi.csv",
                   "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    recovered = read_grid_csv(out / "invert_initial.csv", grid)
    expected = ha.synthesize(xi, es)
    assert np.max(np.abs(recovered.values - expected.values)) < 1e-9


def test_forward_agrees_with_oracle_command(small_setup, tmp_path):
    cfg, grid, op, es = small_setup
    xi = ha.GridFunction(grid, np.sin(grid.nodes / 2.0))
    write_grid_csv(tmp_path / "xi.csv", xi)
    out = tmp_path / "out"
    proc = run_cli("forward", cfg, tmp_path / "xi.csv", "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("oracle", cfg, tmp_path / "xi.csv", "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    _, forward_vals = read_space_time_csv(out / "forward.csv", grid)
    _, oracle_vals = read_space_time_csv(out / "oracle_field.csv", grid)
    diff = forward_vals[-1] - oracle_vals[-1]  # both end exactly at t = T
    rel = (np.linalg.norm(diff) / np.linalg.norm(oracle_vals[-1]))
    assert rel < 5 * (grid.h**2 + (T / 512) ** 2)


def test_ill_posed_weight_exit_code(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", weight="kappa = 1.0\ncase = zero")
    write_grid_csv(tmp_path / "mu.csv",
                   ha.GridFunction(ha.Grid.uniform(L, 257), np.zeros(257)))
    proc = run_cli("invert", cfg, tmp_path / "mu.csv", cwd=tmp_path)
    assert proc.returncode == 4
    assert "no T1 with ess inf > 0" in proc.stderr


def test_ill_posed_override_writes_amplification(small_setup, tmp_path):
    cfg = write_config(tmp_path / "ill.cfg", weight="kappa = 1.0\ncase = zero")
    _, grid, op, es = small_setup
    write_grid_csv(tmp_path / "mu.csv", ha.GridFunction(grid, es.modes[0]))
    out = tmp_path / "out"
    proc = run_cli("invert", cfg, tmp_path / "mu.csv", "--allow-ill-posed",
                   "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 4
    rows = (out / "amplification.csv").read_text().splitlines()[1:]
    amps = np.array([float(r.split(",")[2]) for r in rows[:40]])
    assert np.any(amps > 1e12)


def test_ill_posed_override_warning_names_the_cli(small_setup, tmp_path):
    cfg = write_config(tmp_path / "ill.cfg", weight="kappa = 1.0\ncase = zero")
    _, grid, *_ = small_setup
    write_grid_csv(tmp_path / "mu.csv", ha.GridFunction(grid, cusp_bump(grid.nodes, L)))
    argv = ["invert", cfg, tmp_path / "mu.csv", "--allow-ill-posed", "--out-dir", tmp_path / "out"]
    proc = run_cli(*argv, cwd=tmp_path)
    assert proc.returncode == 4
    warning = next(line for line in proc.stderr.splitlines() if "not converged" in line)
    assert warning.startswith("warning: curvature-norm partial sums"), proc.stderr
    # the CLI prints the message alone; the warning itself still names the CLI line
    args = cli._build_parser().parse_args(list(map(str, argv)))
    with pytest.warns(UserWarning, match="not converged") as record:
        cli._cmd_invert_ill_posed(load_config(cfg), args)
    assert [Path(w.filename).name for w in record] == ["cli.py"]


def test_ill_posed_override_reports_nan_where_the_band_is_undefined(tmp_path):
    # 255 modes on 257 nodes: exp(-lambda T) underflows to 0 in the tail, so the
    # largest reciprocal multiplier is inf; the data-side figure is the admissible one
    grid = ha.Grid.uniform(L, 257)
    write_grid_csv(tmp_path / "mu.csv", ha.GridFunction(grid, 0.19 * np.sin(grid.nodes / 2.0)))
    reports = {}
    for name, weight, flags, code in (("ill", "kappa = 1.0\ncase = zero", ["--allow-ill-posed"], 4),
                                      ("avg", "case = average", [], 0)):
        cfg = write_config(tmp_path / f"{name}.cfg", weight=weight, n_modes=255)
        proc = run_cli("invert", cfg, tmp_path / "mu.csv", *flags, "--out-dir", tmp_path / name,
                       cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        reports[name] = (tmp_path / name / "invert_report.txt").read_text().splitlines()
    assert reports["ill"][:4] == ["residual_mu = nan", "amplification = inf", "c1 = nan", "c2 = nan"]
    assert reports["ill"][4] == reports["avg"][4]
    assert reports["ill"][4].startswith("truncation_residual = ")


@pytest.mark.parametrize("weight, flags, first", [
    ("case = average", [], ""),
    ("case = average", ["--allow-ill-posed"], ""),
    ("kappa = 1.0\ncase = zero", ["--allow-ill-posed"],
     "weight condition violated: no T1 with ess inf > 0\n"),
], ids=["admissible", "admissible_with_flag", "ill_posed_with_flag"])
def test_data_nonzero_at_an_end_is_input_error_without_an_out_dir(tmp_path, weight, flags, first):
    cfg = write_config(tmp_path / "run.cfg", weight=weight)
    grid = ha.Grid.uniform(L, 257)
    write_grid_csv(tmp_path / "mu.csv", ha.GridFunction(grid, np.cos(grid.nodes / 2.0)))
    out = tmp_path / "out"
    proc = run_cli("invert", cfg, tmp_path / "mu.csv", *flags, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == first + "input error: averaged data must be zero at both interval ends\n"
    assert not out.exists()


def test_weight_table_config(tmp_path):
    (tmp_path / "w.txt").write_text("0.0 0.05 2.0\n0.05 0.1 1.0\n")
    cfg = write_config(tmp_path / "run.cfg", weight="kappa = 0.5\ncase = table\ntable = w.txt")
    out = tmp_path / "out"
    proc = run_cli("spectrum", cfg, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_config_without_weight_section_gets_the_running_average(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace("[weight]\ncase = average\n", ""))
    assert "[weight]" not in cfg.read_text()
    assert load_config(cfg).weight == ha.WeightSpec.average(T)


def test_figure1_zero_delta_changes_nothing(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", figure1="delta = 0.0\nfrequencies = 1, 3")
    out = tmp_path / "out"
    proc = run_cli("figure1", cfg, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the same rough data three times: one plain line per warning site, no path
    warning = ("warning: curvature-norm partial sums have not converged (last decade of "
               "modes contributes 3.9%); the prescribed average may lack the smoothness "
               "the stability guarantee assumes")
    assert proc.stderr.splitlines() == [warning, warning]
    base = (out / "figure1_initial.csv").read_bytes()
    for tag in ("1", "3"):
        assert (out / f"figure1_initial_freq_{tag}.csv").read_bytes() == base
        assert "max_deviation" in (out / "figure1_summary.txt").read_text()


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", figure1="delta = 0.1\nfrequencies = 1, 3")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = run_cli("spectrum", cfg, "--out-dir", out, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("figure1", cfg, "--out-dir", out, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("kind", ["grid", "field"])
def test_grid_csv_round_trip(tmp_path, kind):
    grid = ha.Grid.uniform(L, 65)
    rng = np.random.default_rng(71)
    if kind == "grid":
        gf = ha.GridFunction(grid, np.concatenate([[0.0], rng.standard_normal(63), [0.0]]))
        write_grid_csv(tmp_path / "f.csv", gf)
        back = read_grid_csv(tmp_path / "f.csv", grid)
        assert np.array_equal(back.values, gf.values)
    else:
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, T, 5)), [T]])
        scales = 10.0 ** rng.integers(-300, 300, times.size)
        values = rng.standard_normal((times.size, grid.n_nodes)) * scales[:, None]
        values[0, :3] = [-0.0, 5e-324, -1e308]
        write_field_csv(tmp_path / "f.csv", ha.SolutionField(grid=grid, times=times, values=values))
        back_times, back_values = read_space_time_csv(tmp_path / "f.csv", grid)
        assert np.array_equal(back_times, times)
        assert np.array_equal(back_values, values)
        assert np.array_equal(np.signbit(back_values), np.signbit(values))


@pytest.mark.parametrize("command", ["forward", "invert", "oracle"])
def test_non_finite_source_is_input_error(small_setup, tmp_path, command):
    cfg, grid, *_ = small_setup
    write_grid_csv(tmp_path / "f.csv", ha.GridFunction(grid, np.sin(grid.nodes / 2.0)))
    times = np.linspace(0.0, T, 3)
    values = np.outer(1.0 + times, np.sin(grid.nodes / 2.0))
    values[1, 5] = np.nan
    write_field_csv(tmp_path / "phi.csv",
                    ha.SolutionField(grid=grid, times=times, values=values), column="phi")
    proc = run_cli(command, cfg, tmp_path / "f.csv", "--phi", tmp_path / "phi.csv",
                   "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert "phi.csv: CSV entries must be finite" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["forward", "invert", "oracle"])
def test_non_finite_profile_is_input_error(small_setup, tmp_path, command):
    # a GridFunction refuses inf, so the entry is edited into the written file
    cfg, grid, *_ = small_setup
    profile = tmp_path / "f.csv"
    write_grid_csv(profile, ha.GridFunction(grid, np.sin(grid.nodes / 2.0)))
    lines = profile.read_text().splitlines()
    lines[6] = lines[6].split(",")[0] + ",inf"
    profile.write_text("\n".join(lines) + "\n")
    proc = run_cli(command, cfg, profile, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == f"input error: {profile}: CSV entries must be finite\n"


@pytest.mark.parametrize("n_times", [0, 1])
@pytest.mark.parametrize("command", ["forward", "invert", "oracle"])
def test_too_few_output_times_is_input_error(small_setup, tmp_path, command, n_times):
    # fewer than two rows make a field CSV the package cannot read back
    _, grid, *_ = small_setup
    cfg = write_config(tmp_path / "run.cfg", n_times=n_times)
    write_grid_csv(tmp_path / "f.csv", ha.GridFunction(grid, np.sin(grid.nodes / 2.0)))
    out = tmp_path / "out"
    proc = run_cli(command, cfg, tmp_path / "f.csv", "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 3
    assert f"n_times must be at least 2, not {n_times}" in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


@pytest.mark.parametrize("n_nodes", [-5, 0, 2])
def test_too_few_nodes_is_input_error(tmp_path, n_nodes):
    cfg = write_config(tmp_path / "run.cfg", n_nodes=n_nodes)
    out = tmp_path / "out"
    proc = run_cli("spectrum", cfg, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 3
    assert f"n_nodes must be at least 3, not {n_nodes}" in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


@pytest.mark.parametrize("old, new, cause", [
    (f"T = {T!r}", "T = nan", "run.cfg: T must be finite, not nan"),
    (f"T = {T!r}", "T = inf", "run.cfg: T must be finite, not inf"),
    ("case = average", "case = average\nkappa = nan", "run.cfg: kappa must be finite, not nan"),
    ("case = average", "case = average\nkappa = inf", "run.cfg: kappa must be finite, not inf"),
    ("q = 0.0", "q = nan", "run.cfg: q must be finite, not nan"),
    ("q = 0.0", "q = inf", "run.cfg: q must be finite, not inf"),
    ("q = 0.0", "q = -inf", "run.cfg: q must be finite, not -inf"),
    ("q = 0.0", "q = 0.0\ndiffusion = nan", "run.cfg: diffusion must be finite, not nan"),
    ("q = 0.0", "q = 0.0\ndiffusion = inf", "run.cfg: diffusion must be finite, not inf"),
    (f"L = {L!r}", "L = nan", "run.cfg: L must be finite, not nan"),
    (f"L = {L!r}", "L = inf", "run.cfg: L must be finite, not inf"),
], ids=["T_nan", "T_inf", "kappa_nan", "kappa_inf", "q_nan", "q_inf", "q_minus_inf",
        "diffusion_nan", "diffusion_inf", "L_nan", "L_inf"])
def test_non_finite_config_is_input_error(tmp_path, old, new, cause):
    cfg = write_config(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace(old, new))
    proc = run_cli("spectrum", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert cause in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:1], "0 rows but the grid has 257 nodes"),
    (lambda lines: lines[:5] + [lines[5] + ",1.0"] + lines[6:], ""),
    (lambda lines: lines[:5] + ["# a comment"] + lines[5:], ""),
    (lambda lines: lines[:5] + ["#1.0,2.0"] + lines[6:], ""),
], ids=["header_only", "ragged", "comment_line", "comment_field"])
def test_malformed_grid_csv_is_input_error(small_setup, tmp_path, edit, message):
    cfg, grid, *_ = small_setup
    write_grid_csv(tmp_path / "xi.csv", ha.GridFunction(grid, np.sin(grid.nodes / 2.0)))
    lines = (tmp_path / "xi.csv").read_text().splitlines()
    (tmp_path / "bad.csv").write_text("\n".join(edit(lines)) + "\n")
    proc = run_cli("oracle", cfg, tmp_path / "bad.csv", "--out-dir", tmp_path / "out",
                   cwd=tmp_path)
    assert proc.returncode == 3
    assert f"input error: {tmp_path / 'bad.csv'}: {message}" in proc.stderr
    assert "warning" not in proc.stderr.lower() and "Traceback" not in proc.stderr


@pytest.mark.parametrize("weight, table, cause", [
    ("case = average\nT1 = nan", None, "T1 must be finite"),
    ("case = quasi\nepsilon = 0.01\nT1 = inf", None, "T1 must be finite"),
    ("case = table\ntable = w.txt", "0.0 0.05 1.0\n0.05 0.1 nan\n",
     "w.txt:2: weight table values must be finite"),
    ("case = table\ntable = w.txt", "0.0 0.1 inf\n", "w.txt:1: weight table values must be finite"),
    ("case = table\ntable = w.txt", "nan 0.05 1.0\n",
     "w.txt:1: weight table values must be finite"),
], ids=["T1_nan", "T1_inf", "table_nan", "table_inf", "table_start_nan"])
def test_non_finite_weight_is_input_error(tmp_path, weight, table, cause):
    if table is not None:
        (tmp_path / "w.txt").write_text(table)
    cfg = write_config(tmp_path / "run.cfg", weight=weight)
    proc = run_cli("spectrum", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert cause in proc.stderr and "Traceback" not in proc.stderr


def test_unparsable_weight_table_is_input_error(tmp_path):
    (tmp_path / "w.txt").write_text("0.0 0.05 1.0\n0.05 0.1 abc\n")
    cfg = write_config(tmp_path / "run.cfg", weight="case = table\ntable = w.txt")
    proc = run_cli("spectrum", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert "w.txt:2: " in proc.stderr and "'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("table, cause", [
    ("0.0 1.0 0.0\n3.0 abc 0.0\n6.3 1.0 0.0\n",
     "coeffs.txt:2: could not convert string to float: 'abc'"),
    ("# x a a0\n0.0 1.0 0.0\n\n# interior\n3.0 abc 0.0\n6.3 1.0 0.0\n",
     "coeffs.txt:5: could not convert string to float: 'abc'"),
    ("0.0 1.0 0.0\n3.0 1.0\n6.3 1.0 0.0\n", "coeffs.txt:2: expected 'x a a0'"),
    ("", "coeffs.txt: coefficient table has no data rows"),
    ("# x a a0\n\n", "coeffs.txt: coefficient table has no data rows"),
    ("0.0 1.0 0.0\n", "coeffs.txt: a coefficient table needs at least two rows"),
    ("0.0 1.0 0.0\n3.0 1.0 0.0\n2.0 1.0 0.0\n",
     "coeffs.txt: coefficient abscissae must be increasing"),
    ("0.0 1.0 0.0\n3.0 nan 0.0\n6.3 1.0 0.0\n",
     "coeffs.txt:2: coefficient table values must be finite"),
    ("0.0 1.0 0.0\n3.0 1.0 0.0\ninf 1.0 0.0\n",
     "coeffs.txt:3: coefficient table values must be finite"),
], ids=["unparsable", "unparsable_after_comment_and_blank", "two_columns", "empty",
        "comments_only", "one_row", "not_increasing", "a_nan", "x_inf"])
def test_bad_coefficient_table_is_input_error(tmp_path, table, cause):
    (tmp_path / "coeffs.txt").write_text(table)
    cfg = write_config(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace("q = 0.0", "coeff_table = coeffs.txt"))
    proc = run_cli("spectrum", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert cause in proc.stderr
    assert "warning" not in proc.stderr.lower() and "Traceback" not in proc.stderr


@pytest.mark.parametrize("figure1", ["N = 0"], ids=["config"])
def test_figure1_zero_modes_is_input_error(tmp_path, figure1):
    cfg = write_config(tmp_path / "run.cfg", figure1=figure1)
    proc = run_cli("figure1", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 3
    assert "need at least one mode" in proc.stderr and "Traceback" not in proc.stderr


def test_band_violation_exits_2_without_spectrum_csv(tmp_path, capsys, broken_band):
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert cli.main(["spectrum", str(cfg), "--out-dir", str(out)]) == cli.EXIT_BOUND
    err = capsys.readouterr().err
    assert "multiplier bound violated: multiplier bounds violated at modes [5]" in err
    assert not (out / "spectrum.csv").exists()


def test_oracle_time_average_bits_do_not_depend_on_blas_threads(tmp_path):
    # a BLAS matrix-vector product splits the time sum by thread and so
    # rounds differently with 1 and 2 threads; the average must not (no
    # terminal weight here, which could swamp the difference)
    script = (
        "import hashlib, numpy as np, heatavg as ha\n"
        "grid = ha.Grid.uniform(1.0, 1025)\n"
        "times = np.linspace(0.0, 0.1, 2049)\n"
        "values = np.random.default_rng(5).standard_normal((times.size, grid.n_nodes))\n"
        "field = ha.SolutionField(grid=grid, times=times, values=values)\n"
        "ws = ha.WeightSpec.average(0.1)\n"
        "print(hashlib.sha256(ha.time_average(field, ws).values.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_invert_profile_bits_do_not_depend_on_blas_threads(tmp_path):
    # the recovered profile and the report's truncation residual are one-vector
    # syntheses, which must not round by thread as a BLAS product would; the
    # field CSV stays a BLAS product and is left out.  OpenBLAS 0.3.31 splits a
    # 1000 x 1025 product between threads, a 300 x 1025 one not.
    cfg = write_config(tmp_path / "run.cfg", n_modes=1000, n_nodes=1025)
    grid = ha.Grid.uniform(L, 1025)
    write_grid_csv(tmp_path / "mu.csv", ha.GridFunction(grid, cusp_bump(grid.nodes, L)))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "heatavg", "invert", str(cfg),
                               str(tmp_path / "mu.csv"), "--out-dir", str(out)],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append([proc.stdout, proc.stderr, (out / "invert_initial.csv").read_bytes(),
                     (out / "invert_report.txt").read_bytes()])
    assert runs[0] == runs[1]


def test_public_names_resolve_once():
    # the exit-code test below reads names with __dict__.get, so a stale entry
    # would pass it silently; a star import fails on one
    namespace = {}
    exec("from heatavg import *", namespace)
    assert all(name in namespace for name in ha.__all__)
    assert len(set(ha.__all__)) == len(ha.__all__)


def test_every_public_error_has_an_exit_code():
    # 2 for a broken multiplier band, 4 for an inadmissible weight, 3 for the rest;
    # anything else would escape `main` as a traceback
    errors = [obj for obj in map(ha.__dict__.get, ha.__all__)
              if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert ha.SingularStep in errors and ha.MultiplierOverflow in errors
    for exc in errors:
        assert (exc in (ha.BoundViolated, ha.IllPosedWeight)
                or issubclass(exc, cli._INPUT_ERRORS)), exc


@pytest.mark.parametrize("figure1, cause", [
    ("delta = inf", "[figure1] delta must be finite, not inf"),
    ("delta = nan", "[figure1] delta must be finite, not nan"),
    ("frequencies = 1, inf", "[figure1] frequencies must be finite"),
], ids=["delta_inf", "delta_nan", "frequency_inf"])
def test_non_finite_figure1_value_is_input_error(tmp_path, figure1, cause):
    cfg = write_config(tmp_path / "run.cfg", figure1=figure1)
    out = tmp_path / "out"
    proc = run_cli("figure1", cfg, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 3
    assert f"input error: {cfg}: {cause}" in proc.stderr
    assert "warning" not in proc.stderr.lower() and "Traceback" not in proc.stderr
    assert not out.exists()


def test_spectrum_of_a_coefficient_table(tmp_path):
    rows = np.array([[0.0, 1.0, 0.0], [3.0, 1.5, -0.5], [L, 1.0, 0.0]])
    (tmp_path / "coeffs.txt").write_text(
        "".join(f"{x!r} {a!r} {a0!r}\n" for x, a, a0 in rows.tolist()))
    cfg = write_config(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace("q = 0.0", "coeff_table = coeffs.txt"))
    out = tmp_path / "out"
    proc = run_cli("spectrum", cfg, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    op = ha.OperatorSpec.from_table(L, *rows.T)
    es = ha.build_eigensystem(op, ha.Grid.uniform(L, 257), 60)
    lines = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert np.array_equal([float(line.split(",")[1]) for line in lines], es.lambdas)


def _rows(text):
    return text.splitlines(keepends=True)


@pytest.mark.parametrize("command, name, change, cause", [
    ("spectrum", "run.cfg", lambda text: None, "cannot read config file"),
    ("spectrum", "run.cfg", lambda text: text.replace(f"L = {L!r}", ""),
     "[operator] section with L is required"),
    ("spectrum", "run.cfg", lambda text: text.replace(f"T = {T!r}", ""),
     "[run] section with T is required"),
    ("spectrum", "run.cfg", lambda text: text.replace("case = average", "case = quasi"),
     "the quasi weight case needs 'epsilon'"),
    ("spectrum", "run.cfg",
     lambda text: text.replace("case = average", "case = quasi\nepsilon = 0.0"),
     "epsilon must lie in (0, T]"),
    ("spectrum", "run.cfg",
     lambda text: text.replace("case = average", "case = quasi\nepsilon = 0.2"),
     "epsilon must lie in (0, T]"),
    ("spectrum", "run.cfg", lambda text: text.replace("case = average", "case = table"),
     "the table weight case needs 'table'"),
    ("spectrum", "run.cfg", lambda text: text.replace("case = average", "case = sawtooth"),
     "unknown weight case 'sawtooth'"),
    ("spectrum", "run.cfg",
     lambda text: text.replace("case = average", "case = table\ntable = missing.txt"),
     "referenced file does not exist"),
    ("forward", "xi.csv", lambda text: text.replace("x,value", "x,y", 1),
     "xi.csv: expected header 'x,value'"),
    ("forward", "xi.csv", lambda text: text.replace("\n0,", "\n0.5,", 1),
     "xi.csv: abscissae do not match the configured grid"),
    ("forward", "phi.csv", lambda text: "x,t,phi\n" + "".join(
        row.rsplit(",", 1)[0] + "\n" for row in _rows(text)[1:]),
     "phi.csv: expected three columns"),
    ("forward", "phi.csv", lambda text: "".join(_rows(text)[:-1]),
     "phi.csv: row count is not a multiple of the grid size"),
    ("forward", "phi.csv", lambda text: "".join(
        _rows(text)[:1] + _rows(text)[258:515] + _rows(text)[1:258] + _rows(text)[515:]),
     "phi.csv: time blocks must be strictly increasing"),
    ("oracle", "phi.csv", lambda text: "".join(_rows(text)[:-257]),
     f"phi.csv: source tabulation must cover [0, {T:g}]"),
    ("spectrum", "run.cfg", lambda text: text.replace("q = 0.0", "q = 0.0\ndiffusion = 1e308"),
     "diffusion = 1e+308 is too large for double precision"),
    ("oracle", "run.cfg", lambda text: text.replace("q = 0.0", "q = 0.0\ndiffusion = 1e308"),
     "diffusion = 1e+308 is too large for double precision"),
    ("spectrum", "run.cfg", lambda text: text.replace("q = 0.0", "coeff_table = big_a.txt"),
     "a = 1e+306 is too large for double precision"),
    ("oracle", "run.cfg", lambda text: text.replace("q = 0.0", "coeff_table = big_a.txt"),
     "a = 1e+306 is too large for double precision"),
    ("oracle", "run.cfg", lambda text: text.replace("n_steps = 512", "n_steps = 1"),
     "run.cfg: n_steps must be at least 2, not 1"),
    ("spectrum", "run.cfg", lambda text: text.replace("N = 60", "N = sixty"),
     "run.cfg: N must be an integer, not 'sixty'"),
    ("spectrum", "run.cfg", lambda text: text.replace("n_steps = 512", "n_steps = 1.5"),
     "run.cfg: n_steps must be an integer, not '1.5'"),
    ("spectrum", "run.cfg", lambda text: text + "\n[figure1]\nN = 2.5\n",
     "run.cfg: [figure1] N must be an integer, not '2.5'"),
    ("spectrum", "run.cfg", lambda text: text.replace(f"L = {L!r}", "L = abc"),
     "run.cfg: L must be a number, not 'abc'"),
    ("spectrum", "run.cfg", lambda text: text.replace("q = 0.0", "q = abc"),
     "run.cfg: q must be a number, not 'abc'"),
    ("spectrum", "run.cfg", lambda text: text.replace("q = 0.0", "q = 0.0\ndiffusion = abc"),
     "run.cfg: diffusion must be a number, not 'abc'"),
    ("spectrum", "run.cfg", lambda text: text.replace(f"T = {T!r}", "T = abc"),
     "run.cfg: T must be a number, not 'abc'"),
    ("spectrum", "run.cfg", lambda text: text.replace(f"T = {T!r}", "T = 0.0"),
     "run.cfg: T must be positive"),
    ("spectrum", "run.cfg",
     lambda text: text.replace("case = average", "case = average\nkappa = abc"),
     "run.cfg: kappa must be a number, not 'abc'"),
    ("spectrum", "run.cfg",
     lambda text: text.replace("case = average", "case = quasi\nepsilon = abc"),
     "run.cfg: epsilon must be a number, not 'abc'"),
    ("spectrum", "run.cfg",
     lambda text: text.replace("case = average", "case = average\nT1 = abc"),
     "run.cfg: T1 must be a number, not 'abc'"),
    ("spectrum", "run.cfg", lambda text: text + "\n[figure1]\ndelta = abc\n",
     "run.cfg: [figure1] delta must be a number, not 'abc'"),
    ("spectrum", "run.cfg", lambda text: text + "\n[figure1]\nfrequencies = 1, abc\n",
     "run.cfg: [figure1] frequencies must be a number, not 'abc'"),
    ("spectrum", "run.cfg",
     lambda text: text.replace("case = average", "case = table\ntable = overlap.txt"),
     "overlap.txt: weight pieces must not overlap"),
    ("spectrum", "run.cfg",
     lambda text: text.replace("case = average", "case = table\ntable = tiny.txt"),
     "multiplier underflows double precision at mode 1 (lambda = 0.25); the weight is too small"),
    ("invert", "run.cfg",
     lambda text: text.replace("case = average", "case = table\ntable = tiny.txt"),
     "multiplier underflows double precision at mode 1 (lambda = 0.25); the weight is too small"),
    ("figure1", "run.cfg",
     lambda text: text.replace("case = average", "case = table\ntable = tiny.txt"),
     "multiplier underflows double precision at mode 1 (lambda = 0.25); the weight is too small"),
], ids=["no_config", "no_L", "no_T", "quasi_no_epsilon", "epsilon_zero", "epsilon_beyond_T",
        "table_case_no_table", "unknown_case", "missing_table_file", "grid_csv_header",
        "grid_csv_abscissae", "source_two_columns", "source_partial_block",
        "source_times_decrease", "source_short_of_T", "spectrum_huge_diffusion",
        "oracle_huge_diffusion", "spectrum_huge_table_a", "oracle_huge_table_a",
        "n_steps_below_2", "N_not_an_integer", "n_steps_not_an_integer",
        "figure1_N_not_an_integer", "L_not_a_number", "q_not_a_number",
        "diffusion_not_a_number", "T_not_a_number", "T_not_positive", "kappa_not_a_number",
        "epsilon_not_a_number", "T1_not_a_number", "figure1_delta_not_a_number",
        "frequency_not_a_number", "overlapping_weight_table", "spectrum_underflowing_weight",
        "invert_underflowing_weight", "figure1_underflowing_weight"])
def test_input_error_names_its_cause(small_setup, tmp_path, command, name, change, cause):
    # ``change`` rewrites one input file; None deletes it
    cfg, grid, *_ = small_setup
    (tmp_path / "big_a.txt").write_text("0.0 1e306 0.0\n7.0 1e306 0.0\n")
    (tmp_path / "overlap.txt").write_text("0.0 0.06 1.0\n0.04 0.1 1.0\n")
    (tmp_path / "tiny.txt").write_text("0.0 0.1 1e-310\n")
    write_grid_csv(tmp_path / "xi.csv", ha.GridFunction(grid, np.sin(grid.nodes / 2.0)))
    times = np.linspace(0.0, T, 3)
    write_field_csv(tmp_path / "phi.csv",
                    ha.SourceTerm(grid, times, np.outer(1.0 + times, np.sin(grid.nodes / 2.0))),
                    column="phi")
    text = change((tmp_path / name).read_text())
    if text is None:
        (tmp_path / name).unlink()
    else:
        (tmp_path / name).write_text(text)
    data = ([] if command in ("spectrum", "figure1")
            else [tmp_path / "xi.csv", "--phi", tmp_path / "phi.csv"])
    out = tmp_path / "out"
    proc = run_cli(command, cfg, *data, "--out-dir", out, cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert cause in proc.stderr and proc.stderr.startswith("input error: ")
    assert "warning" not in proc.stderr.lower() and "Traceback" not in proc.stderr
    assert not out.exists()


def test_bad_length_beside_a_coefficient_table_names_the_length(tmp_path):
    (tmp_path / "coeffs.txt").write_text("0.0 1.0 0.0\n6.3 1.0 0.0\n")
    cfg = write_config(tmp_path / "run.cfg")
    text = cfg.read_text().replace("q = 0.0", "coeff_table = coeffs.txt")
    for length, cause in (("nan", "L must be finite, not nan"), ("-1.0", "L must be positive")):
        cfg.write_text(text.replace(f"L = {L!r}", f"L = {length}"))
        proc = run_cli("spectrum", cfg, "--out-dir", tmp_path / "out", cwd=tmp_path)
        assert proc.returncode == 3
        assert f"input error: {cfg}: {cause}\n" == proc.stderr
