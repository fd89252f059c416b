import importlib.machinery
import importlib.util
import sys

import numpy as np
import pytest
import scipy.linalg

import heatavg as ha
from heatavg import _lapack


def _lapack_results():
    """An oracle field with a source, and tabulated eigenpairs, on 65 nodes."""
    length, n_nodes = 1.5, 65
    grid = ha.Grid.uniform(length, n_nodes)
    op = ha.OperatorSpec(length, a=lambda x: 1.0 + 0.5 * np.sin(3.0 * x),
                         a0=lambda x: 2.0 - x)
    rng = np.random.default_rng(7)
    src = ha.SourceTerm.from_grid_history(grid, [0.0, 0.05, 0.2],
                                          rng.standard_normal((3, n_nodes)))
    xi = ha.GridFunction(grid, rng.standard_normal(n_nodes))
    field = ha.step_evolution(op, xi, src, 0.2, ha.StepperConfig(n_nodes=n_nodes, n_steps=64))
    es = ha.build_eigensystem(op, grid, n_nodes - 2)
    return field.values, es.lambdas, es.modes


def test_extension_file_is_found():
    spec = _lapack._locate()
    assert spec is not None and spec.origin == sys.modules[_lapack._NAME].__file__


def _unloadable_file(tmp_path):
    path = tmp_path / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    path.write_bytes(b"")
    return importlib.util.spec_from_file_location(_lapack._NAME, path)


@pytest.mark.parametrize("locate", [lambda tmp_path: None, _unloadable_file],
                         ids=["no_file", "unloadable_file"])
def test_fallback_to_scipy_linalg_gives_the_same_bits(monkeypatch, tmp_path, locate):
    fast = _lapack_results()
    monkeypatch.delitem(sys.modules, _lapack._NAME)
    monkeypatch.setattr(_lapack, "_locate", lambda: locate(tmp_path))
    assert _lapack.routines("dgttrf", "dstebz") == (scipy.linalg.lapack.dgttrf,
                                                    scipy.linalg.lapack.dstebz)
    assert _lapack._NAME not in sys.modules
    for got, want in zip(_lapack_results(), fast, strict=True):
        assert np.array_equal(got, want)
