import numpy as np
import pytest

import heatavg as ha

L_DEFAULT = 2.0 * np.pi
T_DEFAULT = 0.1


@pytest.fixture(scope="session")
def default_es():
    """Canonical experiment setup: L = 2*pi, q = 0, 1025 nodes, 300 modes."""
    grid = ha.Grid.uniform(L_DEFAULT, 1025)
    op = ha.OperatorSpec.constant(L_DEFAULT, q=0.0)
    return ha.build_eigensystem(op, grid, 300)


@pytest.fixture(scope="session")
def avg_ws():
    return ha.WeightSpec.average(T_DEFAULT)


@pytest.fixture(scope="session")
def pi_es():
    """Classical Dirichlet setup: L = pi, q = 0, eigenvalues k^2."""
    grid = ha.Grid.uniform(np.pi, 257)
    op = ha.OperatorSpec.constant(np.pi, q=0.0)
    return ha.build_eigensystem(op, grid, 20)


@pytest.fixture()
def broken_band(monkeypatch):
    """Scale mode 5's multiplier by ten, as a bug in `WeightSpec.multiplier`
    would; lambda * multiplier then leaves the band for every setup here."""
    multiplier = ha.WeightSpec.multiplier

    def broken(self, lam):
        out = multiplier(self, lam)
        if np.ndim(out):
            out[4] *= 10.0
        return out

    monkeypatch.setattr(ha.WeightSpec, "multiplier", broken)


def l2_distance(gf_a, gf_b):
    return ha.GridFunction(gf_a.grid, gf_a.values - gf_b.values).norm_l2()
