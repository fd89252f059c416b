"""Generated-input properties of the operator, the weight contract and the
multiplier band.  Deterministic: derandomized, with no example database."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import heatavg as ha

PROFILE = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def maybe(strategy):
    return st.none() | strategy


@PROFILE
@given(length=st.floats(), diffusion=maybe(st.floats()), q=maybe(st.floats()),
       a=maybe(st.sampled_from([np.ones_like, np.cos])),
       a0=maybe(st.sampled_from([np.zeros_like, np.sin])))
def test_operator_spec_is_built_or_refused_with_a_value_error(length, diffusion, q, a, a0):
    # any mix of given and missing coefficients; never a TypeError
    try:
        op = ha.OperatorSpec(length, diffusion=diffusion, q=q, a=a, a0=a0)
    except ValueError:
        return
    assert (diffusion is None) == (q is None) == (a is not None) == (a0 is not None)
    assert (op.a is None) == (diffusion is not None)


@st.composite
def weights(draw, admissible: bool):
    """Piecewise-constant weights on a partition of [0, horizon] into
    sixteenths; some pieces may be left out as gaps.  Admissible ones start
    with a positive piece at 0 and take no negative value or kappa."""
    horizon = draw(st.floats(0.01, 2.0))
    cuts = draw(st.lists(st.integers(1, 15), max_size=3, unique=True))
    ends = [0.0, *sorted(horizon * c / 16 for c in cuts), horizon]
    low = 0.0 if admissible else -1.0
    pieces = []
    for i, (s, e) in enumerate(zip(ends[:-1], ends[1:])):
        if admissible and i == 0:
            pieces.append((s, e, draw(st.floats(0.01, 3.0))))
        elif draw(st.booleans()):
            pieces.append((s, e, draw(st.floats(low, 3.0))))
    kappa = draw(st.floats(low, 2.0))
    t1 = None if admissible else draw(maybe(st.floats(0.0, 2.0 * horizon)))
    return ha.WeightSpec.from_pieces(kappa, pieces, horizon, t1)


@PROFILE
@given(ws=weights(admissible=False) | st.floats(0.01, 2.0).map(ha.WeightSpec.terminal))
def test_report_is_ok_exactly_when_nothing_is_violated(ws):
    report = ws.validate()
    assert report.ok == (not report.violations)


@PROFILE
@given(ws=weights(admissible=True), length=st.floats(1.0, np.pi),
       diffusion=st.floats(0.5, 2.0), q=st.floats(-1500.0, -1e-3))
def test_multiplier_band_holds_or_names_the_mode(ws, length, diffusion, q):
    # 60 modes on (0, L <= pi) reach lambda >= 0.5 * 60^2 - 1500 > 0; a very
    # negative q overflows exp(-lambda t) in the leading modes instead
    op = ha.OperatorSpec.constant(length, q=q, diffusion=diffusion)
    es = ha.build_eigensystem(op, ha.Grid.uniform(length, 129), 60)
    try:
        sc = ha.stability_constants(ws, es)
    except ha.MultiplierOverflow as exc:
        assert 1 <= exc.mode <= es.n_modes and f"mode {exc.mode} " in str(exc)
        assert es.lambdas[exc.mode - 1] < 0.0
        return
    except ha.BoundViolated as exc:
        assert "at modes [" in str(exc), exc
        return
    lam = es.lambdas
    assert sc.m == es.first_positive + 1 and lam[sc.m - 1] > 0.0 >= lam[: sc.m - 1].max(initial=0.0)
    mult = ws.multiplier(lam)
    scaled = np.where(lam > 0.0, lam * mult, mult)
    assert 0.0 < sc.c1 < sc.c2
    assert np.all(scaled >= sc.c1 * (1.0 - 1e-12)) and np.all(scaled <= sc.c2 * (1.0 + 1e-12))
