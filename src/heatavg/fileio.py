"""Every text input is parsed here: the config, its tables, and the CSVs.

Configs are ini-style key = value files with sections [operator], [weight],
[run], and [figure1]; '#' starts a comment.  A numeric value that is not a
finite number (or an integer, for a count) is named with its key and file.
A table (``coeff_table``: ``x a a0``; weight ``table``: ``t_start t_end
value``) has one row of whitespace-separated finite floats per line, '#'
comments and blank lines skipped; its errors name the file and 1-based line.

Grid functions travel as two-column CSVs with header ``x,value``; space-time
fields as three-column CSVs with header ``x,t,u`` (sources use ``x,t,phi``),
one block of rows per time.  All floats are printed with 17 significant
digits so files round-trip exactly; one row writer serves every CSV the CLI
emits.  Reading checks the header line, drops blank and whitespace-only
lines and parses the rest with ``np.loadtxt`` (comma-delimited, no comment
character): every row must hold the same number of fields, each a finite
float such as ``-1.5e-3``.  Python's ``_`` digit separators (``1_000``) are
rejected.  A space-time CSV must repeat the grid's abscissae in every block
and carry one time per block.  CSV errors name the file.
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
            data = np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None,
                              ndmin=2)
        except ValueError as exc:  # loadtxt's text names the data row, not the file
            raise ValueError(f"{path}: {exc}") from None
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: CSV entries must be finite")
    return data


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


# -- tables ------------------------------------------------------------------

def read_table(path, columns: str, noun: str) -> np.ndarray:
    """The rows of a whitespace table with the named ``columns`` (e.g.
    ``"x a a0"``) as a float array, one row per data line; ``noun`` names the
    table in errors, each of which starts ``path:line:``."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != len(columns.split()):
            raise ValueError(f"{path}:{lineno}: expected '{columns}'")
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: {noun} values must be finite")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: {noun} has no data rows")
    return np.array(rows)


# -- config ------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    operator: OperatorSpec
    weight: WeightSpec
    n_modes: int
    n_nodes: int
    n_steps: int
    n_times: int
    delta: float
    frequencies: tuple[float, ...]
    fig_n_modes: int

    def grid(self) -> Grid:
        return Grid.uniform(self.operator.length, self.n_nodes)

    def source_from_csv(self, path) -> SourceTerm:
        grid = self.grid()
        times, values = read_space_time_csv(path, grid)
        horizon = self.weight.horizon
        if abs(times[0]) > 1e-12 * horizon or abs(times[-1] - horizon) > 1e-12 * horizon:
            raise ValueError(f"{path}: source tabulation must cover [0, {horizon:g}]")
        t = np.array(times)
        t[0] = 0.0
        t[-1] = horizon
        return SourceTerm.from_grid_history(grid, t, values)


def load_config(path) -> RunConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise OSError(f"cannot read config file {path}")

    if "operator" not in parser or "L" not in parser["operator"]:
        raise ValueError(f"{path}: [operator] section with L is required")
    op_sec = parser["operator"]
    length = _number(path, "L", op_sec["L"])
    if length <= 0.0:
        raise ValueError(f"{path}: L must be positive")
    if "coeff_table" in op_sec:
        table = _resolve(path, op_sec["coeff_table"])
        data = read_table(table, "x a a0", "coefficient table")
        try:  # from_table's texts do not name the file
            operator = OperatorSpec.from_table(length, *data.T)
        except ValueError as exc:
            raise ValueError(f"{table}: {exc}") from None
    else:
        q = _number(path, "q", op_sec.get("q", "0"))
        diffusion = _number(path, "diffusion", op_sec.get("diffusion", "1"))
        operator = OperatorSpec.constant(length, q=q, diffusion=diffusion)

    if "run" not in parser or "T" not in parser["run"]:
        raise ValueError(f"{path}: [run] section with T is required")
    run = parser["run"]
    horizon = _number(path, "T", run["T"])
    if horizon <= 0.0:
        raise ValueError(f"{path}: T must be positive")
    n_times = _number(path, "n_times", run.get("n_times", "129"), int, minimum=2)
    n_nodes = _number(path, "n_nodes", run.get("n_nodes", "1025"), int, minimum=3)

    weight = _load_weight(parser, path, horizon)

    fig = parser["figure1"] if "figure1" in parser else {}
    return RunConfig(
        operator=operator,
        weight=weight,
        n_modes=_number(path, "N", run.get("N", "300"), int),
        n_nodes=n_nodes,
        n_steps=_number(path, "n_steps", run.get("n_steps", "2048"), int, minimum=2),
        n_times=n_times,
        delta=_number(path, "[figure1] delta", fig.get("delta", "0.1")),
        frequencies=tuple(_number(path, "[figure1] frequencies", f)
                          for f in fig.get("frequencies", "1, 3").replace(",", " ").split()),
        fig_n_modes=_number(path, "[figure1] N", fig.get("N", run.get("N", "300")), int),
    )


def _number(path: Path, key: str, raw: str, kind=float, minimum: int | None = None):
    """``raw``, the text of config key ``key``, as a finite ``kind`` (float or
    int).  Text that is not one, a non-finite value, or a value below
    ``minimum`` is named with the key and the file; other range checks stay
    with the value's user (a mode count's with `build_eigensystem`)."""
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: {key} must be {noun}, not '{raw}'") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: {key} must be finite, not {value:g}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{path}: {key} must be at least {minimum}, not {value}")
    return value


def _load_weight(parser: configparser.ConfigParser, path: Path, horizon: float) -> WeightSpec:
    if "weight" not in parser:
        return WeightSpec.average(horizon)
    sec = parser["weight"]
    case = sec.get("case", "table" if "table" in sec else "average").strip().lower()
    kappa = _number(path, "kappa", sec.get("kappa", "1" if case == "quasi" else "0"))
    t1 = _number(path, "T1", sec["T1"]) if "T1" in sec else None
    if case == "average":
        return WeightSpec.average(horizon, kappa=kappa, t1=t1)
    if case == "quasi":
        if "epsilon" not in sec:
            raise ValueError(f"{path}: the quasi weight case needs 'epsilon'")
        eps = _number(path, "epsilon", sec["epsilon"])
        if not 0.0 < eps <= horizon:
            raise ValueError(f"{path}: epsilon must lie in (0, T]")
        return WeightSpec.quasi_boundary(horizon, eps, kappa=kappa, t1=t1)
    if case == "zero":
        return WeightSpec(kappa=kappa, pieces=(), horizon=horizon, t1=t1)
    if case == "table":
        if "table" not in sec:
            raise ValueError(f"{path}: the table weight case needs 'table'")
        table = _resolve(path, sec["table"])
        pieces = read_table(table, "t_start t_end value", "weight table")
        try:  # the record's texts do not name the file
            return WeightSpec.from_pieces(kappa, pieces.tolist(), horizon, t1)
        except ValueError as exc:
            raise ValueError(f"{table}: {exc}") from None
    raise ValueError(f"{path}: unknown weight case '{case}'")


def _resolve(config_path: Path, ref: str) -> Path:
    p = Path(ref)
    if not p.is_absolute():
        p = config_path.parent / p
    if not p.exists():
        raise OSError(f"referenced file does not exist: {p}")
    return p
