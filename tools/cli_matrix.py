"""Run the same CLI matrix from two source trees and compare what each writes.

    python tools/cli_matrix.py --parent OLD/src --change NEW/src

Each ``SRC_DIR`` is a directory that holds the ``heatavg`` package (a
checkout's ``src``).  The inputs are written once to a temporary directory;
every case then runs ``python -m heatavg`` from each tree with
``OPENBLAS_NUM_THREADS=1`` and ``PYTHONDONTWRITEBYTECODE=1``.  A case is
identical when the exit code, stdout, stderr (with the case's out-dir path
replaced by ``<out>``) and the SHA-256 of every file in its ``--out-dir``
agree.  The matrix is 5 operators x 6 weights x 16 commands, plus ``figure1``
on each of the 30 configs, on 129 nodes with N = 40, 128 oracle steps and 17
output times, plus each of the 5 ``oracle`` commands again with 2 output
times and with 2000, more than the oracle's time grid has, so that every row
is written: 810 cases.  The ``near_end`` weight's last piece ends at
``T (1 - 5e-13)``, within the oracle's 1e-12 relative slack of the horizon.
``phi.csv`` is ``(1 + t/T) sin(pi x/L)``, with its knots on the 128-step grid;
``phi_off.csv`` is ``sin(pi x/L)`` times 1, 3, -1 and 2 at 0, 0.013, 0.061
and 0.1, kinks off that grid.  One oracle case starts from a profile
near 1.2e306, which the oracle marches to a finite field, and another from
the same profile near 1.2e308 (scaled after the product, since 1e308 x
overflows first), whose first step overflows, so the matrix also compares
the non-finite-state error.
The operator q = -3000 grows its first mode so fast that at 128 steps
1 + lambda_1 dt / 2 is about -0.17: the oracle's step matrix is not positive
definite.
Besides the smooth average, ``invert`` and ``invert --allow-ill-posed`` each
read a hat profile, whose curvature tail passes the 1% warning threshold,
and a ramp that is nonzero at ``x = L``, which both refuse as an input error.
Only files are hashed, so an empty out-dir and a missing one compare equal.
Prints the identical and different counts and each different case; exits 1
if any case differs.  Where a different case's exit code, stdout and stderr
agree, each CSV that differs is read from both sides and its largest
relative difference, ``max|a - b| / max|a|`` over each column with ``a`` the
parent's, is printed under the case, so a change that moves bits can be
judged by size.  Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

LENGTH, HORIZON, N_NODES = 3.0, 0.1, 129

OPERATORS = {
    "q0": "q = 0.0\n",
    "q0.5_d1.3": "q = 0.5\ndiffusion = 1.3\n",
    "table": "coeff_table = coeffs.txt\n",
    "q-5": "q = -5\n",
    "q-3000": "q = -3000\n",
}
COEFF_TABLE = ("# x a a0\n"
               "0.0 1.0 0.0\n"
               "\n"
               "1.2 1.4 -0.3   # a bump in the diffusion\n"
               f"{LENGTH!r} 1.0 0.2\n")

WEIGHTS = {
    "average": "case = average\n",
    "quasi": "case = quasi\nepsilon = 0.01\n",
    "table": "case = table\ntable = w.txt\nkappa = 0.5\nT1 = 0.03\n",
    "zero": "case = zero\nkappa = 1\n",
    "tiny": "case = table\ntable = tiny.txt\n",
    "near_end": "case = table\ntable = near_end.txt\n",
}
ORACLE_N_TIMES = (2, 2000)  # n_times of the extra oracle cases; the base configs have 17

WEIGHT_TABLE = "0.0 0.03 1.0\n0.03 0.07 0.5\n0.07 0.1 2.0\n"
TINY_TABLE = "0.0 0.1 1e-310\n"  # multipliers below the smallest normal double
NEAR_END_TABLE = f"0.0 0.04 1.0\n0.04 {HORIZON * (1.0 - 5e-13)!r} 0.5\n"

COMMANDS = {
    "spectrum": ["spectrum", "{cfg}"],
    "forward": ["forward", "{cfg}", "xi.csv"],
    "forward_phi": ["forward", "{cfg}", "xi.csv", "--phi", "phi.csv"],
    "invert": ["invert", "{cfg}", "mu.csv"],
    "invert_phi": ["invert", "{cfg}", "mu.csv", "--phi", "phi.csv"],
    "invert_ill_posed": ["invert", "{cfg}", "mu.csv", "--allow-ill-posed"],
    "invert_hat": ["invert", "{cfg}", "hat.csv"],
    "invert_hat_ill_posed": ["invert", "{cfg}", "hat.csv", "--allow-ill-posed"],
    "invert_ramp": ["invert", "{cfg}", "ramp.csv"],
    "invert_ramp_ill_posed": ["invert", "{cfg}", "ramp.csv", "--allow-ill-posed"],
    "oracle": ["oracle", "{cfg}", "xi.csv"],
    "oracle_phi": ["oracle", "{cfg}", "xi.csv", "--phi", "phi.csv"],
    "oracle_phi_off": ["oracle", "{cfg}", "xi.csv", "--phi", "phi_off.csv"],
    "invert_phi_off": ["invert", "{cfg}", "mu.csv", "--phi", "phi_off.csv"],
    "oracle_huge": ["oracle", "{cfg}", "huge.csv"],
    "oracle_overflow": ["oracle", "{cfg}", "xi_overflow.csv"],
}


def _csv(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                            for row in rows))


def write_inputs(root: Path) -> list[str]:
    """Write the tables, profiles and configs under ``root``; return the config names."""
    x = np.linspace(0.0, LENGTH, N_NODES)
    _csv(root / "xi.csv", "x,value", zip(x, x * (LENGTH - x) * np.exp(-x / 2.0)))
    _csv(root / "huge.csv", "x,value", zip(x, 1e306 * x * (LENGTH - x) * np.exp(-x / 2.0)))
    _csv(root / "xi_overflow.csv", "x,value", zip(x, x * (LENGTH - x) * np.exp(-x / 2.0) * 1e308))
    _csv(root / "mu.csv", "x,value", zip(x, 0.19 * np.sin(np.pi * x / LENGTH)))
    _csv(root / "hat.csv", "x,value", zip(x, 0.19 * np.minimum(x, LENGTH - x)))
    _csv(root / "ramp.csv", "x,value", zip(x, 0.19 * x / LENGTH))
    times = np.linspace(0.0, HORIZON, 5)
    _csv(root / "phi.csv", "x,t,phi",
         ((xj, t, (1.0 + t / HORIZON) * np.sin(np.pi * xj / LENGTH)) for t in times for xj in x))
    knots = zip((0.0, 0.013, 0.061, HORIZON), (1.0, 3.0, -1.0, 2.0))
    _csv(root / "phi_off.csv", "x,t,phi", ((xj, t, c * np.sin(np.pi * xj / LENGTH))
                                           for t, c in knots for xj in x))
    (root / "coeffs.txt").write_text(COEFF_TABLE)
    (root / "w.txt").write_text(WEIGHT_TABLE)
    (root / "tiny.txt").write_text(TINY_TABLE)
    (root / "near_end.txt").write_text(NEAR_END_TABLE)
    configs = []
    for (op, op_text), (w, w_text) in itertools.product(OPERATORS.items(), WEIGHTS.items()):
        name = f"{op}__{w}.cfg"
        variants = {name: 17, **{f"{op}__{w}__n{n}.cfg": n for n in ORACLE_N_TIMES}}
        for path, n_times in variants.items():
            (root / path).write_text(
                f"[operator]\nL = {LENGTH!r}\n{op_text}\n[weight]\n{w_text}\n"
                f"[run]\nT = {HORIZON!r}\nN = 40\nn_nodes = {N_NODES}\nn_steps = 128\n"
                f"n_times = {n_times}\n\n[figure1]\nN = 30\n")
        configs.append(name)
    return configs


def cases(configs: list[str]):
    for cfg in configs:
        for name, argv in COMMANDS.items():
            yield f"{cfg[:-4]}/{name}", [a.format(cfg=cfg) for a in argv]
            if name.startswith("oracle"):
                for n in ORACLE_N_TIMES:
                    yield (f"{cfg[:-4]}/{name}_n_times_{n}",
                           [a.format(cfg=f"{cfg[:-4]}__n{n}.cfg") for a in argv])
        yield f"{cfg[:-4]}/figure1", ["figure1", cfg]


def run_case(src_dir: Path, root: Path, argv: list[str], out: Path):
    """Exit code, stdout, stderr and {file: sha256} of one CLI run."""
    env = {**os.environ, "PYTHONPATH": str(src_dir), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "heatavg", *argv, "--out-dir", str(out)],
                          cwd=root, env=env, capture_output=True, text=True)
    files = {}
    if out.is_dir():
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    strip = lambda text: text.replace(str(out), "<out>")
    return proc.returncode, strip(proc.stdout), strip(proc.stderr), files


def file_differences(parent_out: Path, change_out: Path, parent_files: dict,
                     change_files: dict) -> list[str]:
    """One line per file whose hash differs between the two out-dirs: for a
    CSV on both sides, the largest relative difference of its numbers,
    column by column, so a coordinate column sets no column's scale."""
    lines = []
    for name in sorted(parent_files.keys() | change_files.keys()):
        if parent_files.get(name) == change_files.get(name):
            continue
        if name not in parent_files or name not in change_files:
            side = "change" if name in change_files else "parent"
            lines.append(f"{name}: only in {side}")
            continue
        if not name.endswith(".csv"):
            lines.append(f"{name}: contents differ")
            continue
        a, b = (np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
                for out in (parent_out, change_out))
        if a.shape != b.shape:
            lines.append(f"{name}: shape {a.shape} -> {b.shape}")
            continue
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 in a column of zeros
            rel = np.max(np.abs(a - b), axis=0) / np.max(np.abs(a), axis=0)
        lines.append(f"{name}: max relative difference {np.where(np.isnan(rel), 0, rel).max():.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="source tree to compare against")
    parser.add_argument("--change", required=True, type=Path, help="source tree under test")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="cli_matrix_") as tmp:
        root = Path(tmp)
        configs = write_inputs(root)
        same, different, exits = 0, [], collections.Counter()
        for case, cli_args in cases(configs):
            outs = {side: root / side / case for side in trees}
            results = {side: run_case(src, root, cli_args, outs[side])
                       for side, src in trees.items()}
            exits[results["change"][0]] += 1
            parent, change = results["parent"], results["change"]
            if parent == change:
                same += 1
            elif parent[:3] == change[:3]:
                different.append((case, file_differences(outs["parent"], outs["change"],
                                                         parent[3], change[3])))
            else:
                different.append((case, []))
    print(f"{same} identical, {len(different)} different, of {same + len(different)} cases")
    print("exit codes (change): " + ", ".join(f"{code}: {n}" for code, n in sorted(exits.items())))
    for case, notes in different:
        print(f"different: {case}")
        for note in notes:
            print(f"  {note}")
    return 1 if different else 0


if __name__ == "__main__":
    raise SystemExit(main())
