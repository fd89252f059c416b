import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import heatavg as ha
from heatavg.fileio import read_grid_csv, read_space_time_csv, write_field_csv, write_grid_csv

SPECIAL = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -42.0, 2.0**53, 0.1, -1.0 / 3.0]


# The per-row writers the shared block writer replaced, kept as the byte reference.
def reference_write_grid_csv(path, gf):
    lines = ["x,value"]
    for x, v in zip(gf.grid.nodes, gf.values):
        lines.append(f"{x:.17g},{v:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_write_field_csv(path, field, column="u"):
    lines = [f"x,t,{column}"]
    for j, t in enumerate(field.times):
        row = field.values[j]
        for x, v in zip(field.grid.nodes, row):
            lines.append(f"{x:.17g},{t:.17g},{v:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.fixture(params=[7.0, 2 * np.pi, 1e308], ids=["integer_x", "two_pi", "huge_x"])
def odd_grid(request):
    return ha.Grid.uniform(request.param, 8)


def test_grid_writer_matches_per_row_reference(tmp_path, odd_grid):
    gf = ha.GridFunction(odd_grid, np.array(SPECIAL[:odd_grid.n_nodes]))
    write_grid_csv(tmp_path / "new.csv", gf)
    reference_write_grid_csv(tmp_path / "ref.csv", gf)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_field_writer_matches_per_row_reference(tmp_path, odd_grid):
    times = np.array([0.0, 5e-324, 1.0, 7.0, 1e308])
    rng = np.random.default_rng(5)
    values = rng.standard_normal((times.size, odd_grid.n_nodes))
    values.flat[:len(SPECIAL)] = SPECIAL
    field = ha.SolutionField(grid=odd_grid, times=times, values=values)
    write_field_csv(tmp_path / "new.csv", field, column="phi")
    reference_write_field_csv(tmp_path / "ref.csv", field, column="phi")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_blank_and_whitespace_lines_are_skipped(tmp_path):
    grid = ha.Grid.uniform(2 * np.pi, 9)
    gf = ha.GridFunction(grid, np.sin(grid.nodes))
    write_grid_csv(tmp_path / "f.csv", gf)
    lines = (tmp_path / "f.csv").read_text().splitlines()
    spaced = lines[:3] + ["", "   ", "\t"] + lines[3:] + ["", " "]
    (tmp_path / "spaced.csv").write_text("\n".join(spaced) + "\n")
    assert np.array_equal(read_grid_csv(tmp_path / "spaced.csv", grid).values, gf.values)


def _three_block_source(path, grid):
    times = np.array([0.0, 0.05, 0.1])
    values = np.arange(3.0 * grid.n_nodes).reshape(3, grid.n_nodes)
    write_field_csv(path, ha.SolutionField(grid=grid, times=times, values=values), column="phi")
    lines = path.read_text().splitlines()
    return lines[0], [lines[1 + j * grid.n_nodes:1 + (j + 1) * grid.n_nodes] for j in range(3)]


def _reversed_x(blocks):
    blocks[1] = blocks[1][::-1]


def _mixed_t(blocks):
    # every row of the last block but its first carries the middle block's time
    blocks[2][1:] = [",".join([r.split(",")[0], "0.050000000000000003", r.split(",")[2]])
                     for r in blocks[2][1:]]


@pytest.mark.parametrize("scramble, error, message", [
    (_reversed_x, ha.GridMismatch, "abscissae do not match"),
    (_mixed_t, ValueError, "same t"),
], ids=["reversed_x", "mixed_t"])
def test_space_time_csv_checks_every_block(tmp_path, scramble, error, message):
    grid = ha.Grid.uniform(2 * np.pi, 33)
    header, blocks = _three_block_source(tmp_path / "phi.csv", grid)
    times, _ = read_space_time_csv(tmp_path / "phi.csv", grid)
    assert times.tolist() == [0.0, 0.05, 0.1]
    scramble(blocks)
    (tmp_path / "bad.csv").write_text("\n".join([header, *sum(blocks, [])]) + "\n")
    with pytest.raises(error, match=message):
        read_space_time_csv(tmp_path / "bad.csv", grid)


def test_benchmark_tracer_targets_resolve():
    # perfbench/spans.py wraps these by name; a rename would break every traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, names in spans.TARGETS.items():
        module = importlib.import_module(f"heatavg.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"heatavg.{mod_name}.{name}"
    for mod_name, cls_name, meth in spans.METHODS.values():
        cls = getattr(importlib.import_module(f"heatavg.{mod_name}"), cls_name)
        assert callable(cls.__dict__.get(meth)), f"heatavg.{mod_name}.{cls_name}.{meth}"
