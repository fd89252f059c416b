"""Config and CSV file formats shared by the command-line tools.

Configs are ini-style key = value files with sections [operator], [weight],
[run], and [figure1]; '#' starts a comment.  Grid functions travel as
two-column CSVs with header ``x,value``; space-time fields as three-column
CSVs with header ``x,t,u`` (sources use ``x,t,phi``), one block of rows
per time.  All floats are printed with 17 significant digits so files
round-trip exactly; one row writer serves every CSV the CLI emits.

Reading checks the header line, drops blank and whitespace-only lines and
parses the rest with ``np.loadtxt`` (comma-delimited, no comment
character): every row must hold the same number of fields, each a float
such as ``-1.5e-3``, ``inf`` or ``nan``.  Python's ``_`` digit separators
(``1_000``) are rejected.  A space-time CSV must repeat the grid's
abscissae in every block and carry one time per block.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import Grid, GridFunction, GridMismatch, OperatorSpec
from .forward import SolutionField, SourceTerm
from .weights import WeightSpec


# -- CSV ---------------------------------------------------------------------

def write_grid_csv(path, gf: GridFunction) -> None:
    _write_csv(path, "x,value", gf.grid.nodes, [[gf.values]])


def read_grid_csv(path, grid: Grid) -> GridFunction:
    data = _read_csv(path, lambda header: header == "x,value", "x,value")
    if data.shape != (grid.n_nodes, 2):
        raise GridMismatch(f"{path}: {data.shape[0]} rows but the grid has {grid.n_nodes} nodes")
    if not np.all(np.abs(data[:, 0] - grid.nodes) <= 1e-9 * max(grid.length, 1.0)):
        raise GridMismatch(f"{path}: abscissae do not match the configured grid")
    return GridFunction(grid, data[:, 1])


def write_field_csv(path, field: SolutionField, column: str = "u") -> None:
    _write_csv(path, f"x,t,{column}", field.grid.nodes,
               ([t, row] for t, row in zip(field.times, field.values)))


def read_space_time_csv(path, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Parse an ``x,t,<name>`` CSV into (times, values[n_times, n_nodes])."""
    data = _read_csv(path, lambda header: header.startswith("x,t,"), "x,t,<name>")
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected three columns")
    if data.shape[0] % grid.n_nodes != 0:
        raise GridMismatch(f"{path}: row count is not a multiple of the grid size")
    blocks = data.reshape(-1, grid.n_nodes, 3)
    times = blocks[:, 0, 1]
    if np.any(blocks[:, :, 1] != times[:, None]):
        raise ValueError(f"{path}: every row of a time block must carry the same t")
    if not np.all(np.diff(times) > 0):
        raise ValueError(f"{path}: time blocks must be strictly increasing")
    if not np.all(np.abs(blocks[:, :, 0] - grid.nodes) <= 1e-9 * max(grid.length, 1.0)):
        raise GridMismatch(f"{path}: abscissae do not match the configured grid")
    return times, blocks[:, :, 2]


def _read_csv(path, header_ok, expected: str) -> np.ndarray:
    """The rows under a header line that ``header_ok`` accepts, blank lines
    dropped; a file with no rows gives a (0, 0) array for the shape checks."""
    with open(path) as f:
        if not header_ok(f.readline().strip()):
            raise ValueError(f"{path}: expected header '{expected}'")
        rows = (line for line in f if line.strip())
        first = next(rows, None)
        if first is None:
            return np.empty((0, 0))
        try:
            return np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None,
                              ndmin=2)
        except ValueError as exc:  # loadtxt's text names the data row, not the file
            raise ValueError(f"{path}: {exc}") from None


def _write_csv(path, header: str, keys, blocks) -> None:
    """Write ``header``, then per block of columns one line per key: the key
    and its entry in each column, at 17 significant digits.  Keys are
    formatted once per file and a scalar column (a field's t) once per block."""
    keys = [f"{k:.17g}" for k in np.asarray(keys).tolist()]
    with open(path, "w") as f:
        f.write(header + "\n")
        for columns in blocks:
            cells = [[f"{col:.17g}"] * len(keys) if np.ndim(col) == 0
                     else [f"{v:.17g}" for v in col.tolist()] for col in columns]
            f.write("\n".join(map(",".join, zip(keys, *cells))) + "\n")


# -- config ------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    operator: OperatorSpec
    weight: WeightSpec
    n_modes: int
    n_nodes: int
    n_steps: int
    n_times: int
    onset: float
    delta: float
    frequencies: tuple[float, ...]
    fig_n_modes: int | None

    def grid(self) -> Grid:
        return Grid.uniform(self.operator.length, self.n_nodes)

    def source_from_csv(self, path, grid: Grid, es=None) -> SourceTerm:
        times, values = read_space_time_csv(path, grid)
        horizon = self.weight.horizon
        if abs(times[0]) > 1e-12 * horizon or abs(times[-1] - horizon) > 1e-12 * horizon:
            raise ValueError(f"{path}: source tabulation must cover [0, {horizon:g}]")
        t = np.array(times)
        t[0] = 0.0
        t[-1] = horizon
        return SourceTerm.from_grid_history(grid, t, values, onset=self.onset, es=es)


def load_config(path) -> RunConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise OSError(f"cannot read config file {path}")

    if "operator" not in parser or "L" not in parser["operator"]:
        raise ValueError(f"{path}: [operator] section with L is required")
    op_sec = parser["operator"]
    length = op_sec.getfloat("L")
    if "coeff_table" in op_sec:
        table = _resolve(path, op_sec["coeff_table"])
        OperatorSpec.constant(length)  # checks L first, so its errors do not name the table
        lines = table.read_text().splitlines()
        try:  # loadtxt's and from_table's texts do not name the file
            if not any(line.split("#", 1)[0].strip() for line in lines):
                raise ValueError("coefficient table has no data rows")
            data = np.loadtxt(lines, ndmin=2)
            if data.shape[1] != 3:
                raise ValueError("expected columns 'x a a0'")
            operator = OperatorSpec.from_table(length, *data.T)
        except ValueError as exc:
            raise ValueError(f"{table}: {exc}") from None
    else:
        operator = OperatorSpec.constant(length, q=op_sec.getfloat("q", 0.0),
                                         diffusion=op_sec.getfloat("diffusion", 1.0))

    if "run" not in parser or "T" not in parser["run"]:
        raise ValueError(f"{path}: [run] section with T is required")
    run = parser["run"]
    horizon = run.getfloat("T")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"{path}: T must be positive and finite")
    n_times = _int_key(path, run, "n_times", 129, minimum=2)
    n_nodes = _int_key(path, run, "n_nodes", 1025, minimum=3)

    weight = _load_weight(parser, path, horizon)

    fig = parser["figure1"] if "figure1" in parser else {}
    frequencies = tuple(
        float(f) for f in str(fig.get("frequencies", "1, 3")).replace(",", " ").split()
    )
    delta = float(fig.get("delta", 0.1))
    if not all(map(math.isfinite, frequencies)):
        raise ValueError(f"{path}: [figure1] frequencies must be finite")
    if not math.isfinite(delta):
        raise ValueError(f"{path}: [figure1] delta must be finite, not {delta:g}")

    return RunConfig(
        operator=operator,
        weight=weight,
        n_modes=_int_key(path, run, "N", 300),
        n_nodes=n_nodes,
        n_steps=_int_key(path, run, "n_steps", 2048, minimum=2),
        n_times=n_times,
        onset=run.getfloat("onset", 0.0),
        delta=delta,
        frequencies=frequencies,
        fig_n_modes=_int_key(path, fig, "N", None, where="[figure1] "),
    )


def _int_key(path: Path, sec, key: str, default, minimum: int | None = None,
             where: str = "") -> int | None:
    """The integer under ``key``, else ``default``; a non-integer or a value
    below ``minimum`` is named with the file (mode counts: `build_eigensystem`)."""
    raw = sec.get(key)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{path}: {where}{key} must be an integer, not '{raw}'") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{path}: {where}{key} must be at least {minimum}, not {value}")
    return value


def _load_weight(parser: configparser.ConfigParser, path: Path, horizon: float) -> WeightSpec:
    if "weight" not in parser:
        return WeightSpec.average(horizon)
    sec = parser["weight"]
    kappa = sec.getfloat("kappa", 0.0)
    case = sec.get("case", "table" if "table" in sec else "average").strip().lower()
    t1 = sec.getfloat("T1") if "T1" in sec else None
    if case == "average":
        return WeightSpec.average(horizon, kappa=kappa, t1=t1)
    if case == "quasi":
        eps = sec.getfloat("epsilon", None)
        if eps is None:
            raise ValueError(f"{path}: the quasi weight case needs 'epsilon'")
        if not 0.0 < eps <= horizon:
            raise ValueError(f"{path}: epsilon must lie in (0, T]")
        return WeightSpec.quasi_boundary(horizon, eps, kappa=sec.getfloat("kappa", 1.0), t1=t1)
    if case == "zero":
        return WeightSpec(kappa=kappa, pieces=(), horizon=horizon, t1=t1)
    if case == "table":
        if "table" not in sec:
            raise ValueError(f"{path}: the table weight case needs 'table'")
        return WeightSpec.from_table(_resolve(path, sec["table"]), horizon, kappa, t1)
    raise ValueError(f"{path}: unknown weight case '{case}'")


def _resolve(config_path: Path, ref: str) -> Path:
    p = Path(ref)
    if not p.is_absolute():
        p = config_path.parent / p
    if not p.exists():
        raise OSError(f"referenced file does not exist: {p}")
    return p
