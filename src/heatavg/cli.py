"""Command-line front end.

Five subcommands cover the workflow: ``spectrum`` tabulates eigenvalues and
multipliers with their stability band, ``forward`` evolves an initial
profile, ``invert`` recovers the evolution from an averaged profile,
``oracle`` runs the finite-difference cross-check, and ``figure1`` runs the
noise-amplification experiment and emits plot data plus a gnuplot script.

Exit codes: 0 ok, 2 multiplier bound violation, 3 input error, 4 weight
fails admissibility.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .basis import GridFunction, build_eigensystem, project, synthesize
from .fileio import (
    RunConfig,
    _write_csv,
    load_config,
    read_grid_csv,
    write_field_csv,
    write_grid_csv,
)
from .forward import solve_forward
from .inverse import fit_data, recover_initial, solve_inverse
from .oracle import SingularStep, StepperConfig, _march_average
from .profiles import cusp_bump, oscillatory_bump
from .weights import BoundViolated, stability_constants

EXIT_OK = 0
EXIT_BOUND = 2
EXIT_INPUT = 3
EXIT_ILL_POSED = 4

_INPUT_ERRORS = (OSError, configparser.Error, ValueError, SingularStep)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep 2 for bound violations
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="heatavg",
                     description="Recover a 1-D diffusion history from a weighted time average.")
    parser.add_argument("--version", action="version", version=f"heatavg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="ini-style config file")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        return p

    add("spectrum", "tabulate eigenvalues, multipliers, and the stability band")

    p = add("forward", "evolve an initial profile forward in time")
    p.add_argument("xi_csv", help="initial profile as an x,value CSV")
    p.add_argument("--phi", help="source term as an x,t,phi CSV")

    p = add("invert", "recover the evolution from an averaged profile")
    p.add_argument("mu_csv", help="averaged profile as an x,value CSV")
    p.add_argument("--phi", help="source term as an x,t,phi CSV")
    p.add_argument("--allow-ill-posed", action="store_true",
                   help="with an inadmissible weight, still write amplification "
                        "diagnostics instead of stopping at the admissibility check")

    add("figure1", "run the noise-amplification experiment and emit plot data")

    p = add("oracle", "finite-difference evolution and its weighted average")
    p.add_argument("xi_csv", help="initial profile as an x,value CSV")
    p.add_argument("--phi", help="source term as an x,t,phi CSV")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():  # one plain line per warning: no path or source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            cfg = load_config(args.config)
            violations = cfg.weight.validate()
            if violations:
                for clause in violations:
                    print(f"weight condition violated: {clause}", file=sys.stderr)
                if args.command == "invert" and args.allow_ill_posed:
                    return _cmd_invert_ill_posed(cfg, args)
                return EXIT_ILL_POSED
            return _COMMANDS[args.command](cfg, args)
        except BoundViolated as exc:
            print(f"multiplier bound violated: {exc}", file=sys.stderr)
            return EXIT_BOUND
        except _INPUT_ERRORS as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_spectrum(cfg: RunConfig, args) -> int:
    es = build_eigensystem(cfg.operator, cfg.grid(), cfg.n_modes)
    sc = stability_constants(cfg.weight, es)
    mult = np.asarray(cfg.weight.multiplier(es.lambdas))
    _write_csv(_out_dir(args) / "spectrum.csv", "k,lambda,multiplier,lambda_multiplier,c1,c2",
               range(1, es.n_modes + 1), [[es.lambdas, mult, es.lambdas * mult, sc.c1, sc.c2]])
    print(f"spectrum.csv written: {es.n_modes} modes, "
          f"band [{sc.c1:.6g}, {sc.c2:.6g}], first positive eigenvalue at k={sc.m}")
    return EXIT_OK


def _cmd_forward(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    es = build_eigensystem(cfg.operator, grid, cfg.n_modes)
    xi = project(read_grid_csv(args.xi_csv, grid), es)
    src = cfg.source_from_csv(args.phi) if args.phi else None
    field = solve_forward(xi, src, np.linspace(0.0, cfg.weight.horizon, cfg.n_times))
    write_field_csv(_out_dir(args) / "forward.csv", field)
    print(f"forward.csv written: {cfg.n_times} times x {grid.n_nodes} nodes")
    return EXIT_OK


def _report_text(*values: float) -> str:
    """``invert_report.txt``: one ``key = value`` line for each of residual_mu,
    amplification, c1, c2 and truncation_residual, in that order."""
    keys = ("residual_mu", "amplification", "c1", "c2", "truncation_residual")
    return "".join(f"{key} = {value:.17g}\n" for key, value in zip(keys, values))


def _cmd_invert_ill_posed(cfg: RunConfig, args) -> int:
    """``invert --allow-ill-posed`` with an inadmissible weight: write the blow-up
    diagnostics (NaN for the figures it leaves undefined), exit ill-posed."""
    grid = cfg.grid()
    es = build_eigensystem(cfg.operator, grid, cfg.n_modes)
    fit = fit_data(read_grid_csv(args.mu_csv, grid), es)
    with np.errstate(divide="ignore", over="ignore"):
        amp = 1.0 / np.abs(cfg.weight.multiplier(es.lambdas))
    fit.warn_if_rough()
    out = _out_dir(args)
    _write_csv(out / "amplification.csv", "k,lambda,amplification",
               range(1, es.n_modes + 1), [[es.lambdas, amp]])
    (out / "invert_report.txt").write_text(
        _report_text(np.nan, float(np.max(amp)), np.nan, np.nan, fit.truncation_residual))
    print("amplification.csv and invert_report.txt written despite the "
          "inadmissible weight", file=sys.stderr)
    return EXIT_ILL_POSED


def _cmd_invert(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    es = build_eigensystem(cfg.operator, grid, cfg.n_modes)
    mu = read_grid_csv(args.mu_csv, grid)
    src = cfg.source_from_csv(args.phi) if args.phi else None
    times = np.linspace(0.0, cfg.weight.horizon, cfg.n_times)
    field, rep = solve_inverse(mu, src, cfg.weight, es, times=times)
    sc = rep.stability
    report = _report_text(rep.residual_mu, rep.amplification, sc.c1, sc.c2, rep.truncation_residual)
    out = _out_dir(args)
    write_field_csv(out / "invert_field.csv", field)
    write_grid_csv(out / "invert_initial.csv", synthesize(rep.xi, es))
    (out / "invert_report.txt").write_text(report)
    print(report, end="")
    return EXIT_OK


def _cmd_oracle(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    xi = read_grid_csv(args.xi_csv, grid)
    src = cfg.source_from_csv(args.phi) if args.phi else None
    breakpoints = tuple(float(b) for b in cfg.weight.breakpoints())
    stepper = StepperConfig(n_nodes=cfg.n_nodes, n_steps=cfg.n_steps, breakpoints=breakpoints)
    # keep the evolution only at roughly n_times rows, to keep files sane
    at = np.linspace(0.0, cfg.weight.horizon, cfg.n_times)
    field, averaged = _march_average(cfg.operator, xi, src, cfg.weight, stepper, at)
    out = _out_dir(args)
    write_field_csv(out / "oracle_field.csv", field)
    write_grid_csv(out / "oracle_average.csv", averaged)
    print(f"oracle_field.csv ({field.times.size} times) and oracle_average.csv written")
    return EXIT_OK


_GNUPLOT_TEMPLATE = """\
set datafile separator ','
set key outside
set xlabel 'x'
set grid
set term pngcairo size 1200,700
"""


def _cmd_figure1(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    es = build_eigensystem(cfg.operator, grid, cfg.fig_n_modes)
    ws = cfg.weight

    mu = GridFunction(grid, cusp_bump(grid.nodes, grid.length))
    base_rep = recover_initial(mu, ws, es)
    out = _out_dir(args)
    base = synthesize(base_rep.xi, es)
    write_grid_csv(out / "figure1_mu.csv", mu)
    write_grid_csv(out / "figure1_initial.csv", base)

    summary = []
    plot = [_GNUPLOT_TEMPLATE]
    for freq in cfg.frequencies:
        tag = f"{freq:g}"
        bump = oscillatory_bump(grid.nodes, grid.length, freq)
        mu_pert = GridFunction(grid, mu.values + cfg.delta * bump)
        rep = recover_initial(mu_pert, ws, es)
        pert = synthesize(rep.xi, es)
        write_grid_csv(out / f"figure1_mu_freq_{tag}.csv", mu_pert)
        write_grid_csv(out / f"figure1_initial_freq_{tag}.csv", pert)
        deviation = float(np.max(np.abs(pert.values - base.values)))
        summary.append((freq, deviation))
        plot.append(
            f"set output 'figure1_freq_{tag}.png'\n"
            f"plot 'figure1_mu.csv' skip 1 using 1:2 with lines title 'average', \\\n"
            f"     'figure1_mu_freq_{tag}.csv' skip 1 using 1:2 with lines "
            f"title 'perturbed average (freq {tag})', \\\n"
            f"     'figure1_initial.csv' skip 1 using 1:2 with lines title 'recovered initial', \\\n"
            f"     'figure1_initial_freq_{tag}.csv' skip 1 using 1:2 with lines "
            f"title 'perturbed recovery (freq {tag})'\n"
        )
    (out / "figure1.gp").write_text("\n".join(plot))

    lines = [f"n_modes = {cfg.fig_n_modes}", f"delta = {cfg.delta:.17g}",
             f"min_recovered_initial = {float(np.min(base.values)):.17g}"]
    for freq, deviation in summary:
        lines.append(f"max_deviation_freq_{freq:g} = {deviation:.17g}")
    (out / "figure1_summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "forward": _cmd_forward,
    "invert": _cmd_invert,
    "figure1": _cmd_figure1,
    "oracle": _cmd_oracle,
}
