import math

import numpy as np
import pytest

from matconc.errors import DimMismatch, DomainError, GammaOutOfRange, ParamMismatch
from matconc.fixed_bounds import MgfSpec
from matconc.martingales import (
    MatSupermartingaleState,
    betting_gamma_interval,
    build_factors,
    default_gamma_schedule,
    doob_bound,
    mgf_growth_matrix,
    trace_pcheb_bound,
    ville_bound,
    ville_event,
    xmci2_bound,
    xmci_bound,
    xmpci_bound,
)
from matconc.processes import FactorProcess, MeanScan, first_crossing
from matconc.symmat import is_psd, mat_sqrt

from conftest import random_psd


def crosses(proc, path):
    """Whether ``proc`` crosses somewhere along one path ``(n, d, d)``."""
    return bool(first_crossing(proc, np.asarray(path, dtype=np.float64)[None])[0])


def test_default_gamma_schedule():
    sched = default_gamma_schedule(2.0)
    assert sched(1) == 2.0
    assert sched(4) == 1.0
    with pytest.raises(DomainError):
        default_gamma_schedule(0.0)


def test_mgf_growth_matrix_closed_forms():
    c = np.diag([1.0, 2.0])
    g = mgf_growth_matrix(MgfSpec("RADEMACHER", c), 0.5)
    assert np.allclose(g, np.diag([math.exp(0.125), math.exp(0.5)]))
    g = mgf_growth_matrix(MgfSpec("SYM_HOEFFDING", np.diag([4.0, 0.0])), 1.0)
    assert np.allclose(g, np.diag([math.exp(2.0), 1.0]))
    g = mgf_growth_matrix(MgfSpec("BENNETT_I", np.array([[1.0]])), 1.0)
    assert np.allclose(g, [[math.exp(math.e - 2.0)]])


def test_betting_gamma_interval():
    lo, hi = betting_gamma_interval(0.5 * np.eye(2), np.eye(2))
    assert (lo, hi) == (-2.0, 2.0)
    lo, hi = betting_gamma_interval(np.zeros((2, 2)), np.eye(2))
    assert lo == -1.0 and hi == math.inf
    lo, hi = betting_gamma_interval(np.eye(2), np.eye(2))
    assert lo == -math.inf and hi == 1.0


def test_betting_interval_keeps_factor_psd(gen):
    # at the extreme data points X = 0 and X = B, any admissible gamma
    # keeps I + gamma (X - M) positive semidefinite
    for _ in range(20):
        m = random_psd(gen, 3)
        b = m + random_psd(gen, 3) + 0.05 * np.eye(3)
        lo, hi = betting_gamma_interval(m, b)
        for t in (0.05, 0.5, 0.95):
            gamma = lo + t * (hi - lo)
            for x in (np.zeros((3, 3)), b):
                e = np.eye(3) + gamma * (x - m)
                assert is_psd(e)


def test_build_factors_mgf_one_dimensional():
    e, a = build_factors(
        "MGF", np.array([[1.0]]), np.array([[0.0]]), 0.5,
        mgf=MgfSpec("RADEMACHER", np.array([[1.0]])),
    )
    assert np.allclose(e, [[math.exp(0.5)]])
    assert np.allclose(a, [[math.exp(-0.125)]])


def test_build_factors_betting():
    m = 0.5 * np.eye(2)
    b = np.eye(2)
    x = np.diag([1.0, 0.0])
    e, a = build_factors("BETTING", x, m, 1.0, b=b)
    assert np.allclose(e, np.eye(2) + np.diag([0.5, -0.5]))
    assert np.array_equal(a, np.eye(2))
    with pytest.raises(GammaOutOfRange):
        build_factors("BETTING", x, m, 2.0, b=b)
    with pytest.raises(GammaOutOfRange):
        build_factors("BETTING", x, m, -2.0, b=b)


def test_build_factors_self_normalized_one_dimensional():
    e, a = build_factors(
        "SELF_NORMALIZED", np.array([[2.0]]), np.array([[0.5]]), 0.4,
        v=np.array([[1.5]]),
    )
    dev = 1.5
    assert np.allclose(e, [[math.exp(0.4 * dev - (0.16 / 6.0) * dev * dev)]])
    assert np.allclose(a, [[math.exp(-(0.16 / 3.0) * 1.5)]])


def test_build_factors_symmetric_dist_one_dimensional():
    e, a = build_factors("SYMMETRIC_DIST", np.array([[1.0]]), np.array([[0.0]]), 0.3)
    assert np.allclose(e, [[math.exp(0.3 - 0.045)]])
    assert np.array_equal(a, np.eye(1))


def test_build_factors_parameter_errors():
    x = np.eye(2)
    m = np.zeros((2, 2))
    with pytest.raises(ParamMismatch):
        build_factors("MGF", x, m, 0.5)
    with pytest.raises(ParamMismatch):
        build_factors("BETTING", x, m, 0.5)
    with pytest.raises(ParamMismatch):
        build_factors("SELF_NORMALIZED", x, m, 0.5)
    with pytest.raises(ParamMismatch):
        build_factors("KELLY", x, m, 0.5)
    with pytest.raises(DimMismatch):
        build_factors("SYMMETRIC_DIST", x, np.zeros((3, 3)), 0.5)
    with pytest.raises(DimMismatch):
        build_factors("MGF", x, m, 0.5, mgf=MgfSpec("RADEMACHER", np.eye(3)))


def test_state_product_consistency(gen):
    # stepping one factor at a time must reproduce the explicit product
    state = MatSupermartingaleState.start(3)
    left = np.eye(3)
    for _ in range(12):
        x = random_psd(gen, 3)
        m = 0.5 * np.eye(3)
        e, a = build_factors("SELF_NORMALIZED", x, m, 0.2, v=np.eye(3))
        state = state.step(e, a)
        left = left @ mat_sqrt(a) @ mat_sqrt(e)
    assert np.allclose(state.left, left, atol=1e-10)
    assert state.n == 12
    y = state.value()
    assert is_psd(y)
    assert np.array_equal(y, y.T)


def test_state_validation():
    state = MatSupermartingaleState.start(2)
    assert np.array_equal(state.value(), np.eye(2))
    with pytest.raises(DimMismatch):
        state.step(np.eye(3), np.eye(3))
    with pytest.raises(DomainError):
        state.step(np.eye(2), np.diag([1.0, 0.0]))


def test_ville_event_and_bound():
    y = np.array([[0.5]])
    a = np.array([[1.0]])
    assert not ville_event(y, a, 0.6 * np.eye(1))
    assert ville_event(y, a, 0.4 * np.eye(1))
    assert ville_bound(np.diag([1.0, 2.0]), np.diag([2.0, 4.0])) == pytest.approx(1.0)


def test_mvi_and_doob_events():
    # BETTING at gamma = 1 against M = 0 on 0.3 I: Y_1 = 1.3 I, Y_2 = 1.69 I
    path = [0.3 * np.eye(2)] * 2
    for n, want in ((1, 0), (2, 2)):
        mvi = FactorProcess("BETTING", np.zeros((2, 2)), 1.5 * np.eye(2))
        assert first_crossing(mvi, np.stack(path[:n])[None], np.ones(n)).tolist() == [want]
    # DOOB scans the squared mean deviation: 1.5^2 >= 1 at n = 1, 0.3^2 < 1
    assert crosses(MeanScan("DOOB", np.zeros((2, 2)), np.eye(2)), [1.5 * np.eye(2), -0.3 * np.eye(2)])
    assert not crosses(MeanScan("DOOB", np.zeros((2, 2)), np.eye(2)), [-0.3 * np.eye(2)])
    assert doob_bound(np.diag([1.0, 2.0]), np.diag([2.0, 4.0])) == pytest.approx(1.0)


def test_xmci_event_scans_running_means():
    m = np.zeros((1, 1))
    a = np.array([[1.0]])
    quiet = np.array([[[0.5]], [[-0.5]], [[0.2]]])
    assert not crosses(MeanScan("XMCI", m, a), quiet)
    # first observation exceeds the threshold; later averages do not
    loud = np.array([[[1.5]], [[-1.5]], [[0.0]]])
    assert first_crossing(MeanScan("XMCI", m, a), loud[None]).tolist() == [1]
    # a crossing beyond the horizon is not seen
    late = np.array([[[0.5]], [[0.5]], [[9.0]]])
    assert not crosses(MeanScan("XMCI", m, a), late[:2])
    assert first_crossing(MeanScan("XMCI", m, a), late[None]).tolist() == [3]


def test_xmci_bound_value():
    assert xmci_bound(np.diag([1.0, 4.0]), np.diag([2.0, 4.0])) == pytest.approx(0.5)


def test_xmci2_skips_early_steps():
    m = np.zeros((1, 1))
    a = np.array([[1.0]])
    xs = np.array([[[3.0]], [[-3.0]], [[0.0]]])
    assert crosses(MeanScan("XMCI2", m, a, n_start=1), xs)
    assert not crosses(MeanScan("XMCI2", m, a, n_start=2), xs)
    assert xmci2_bound(np.array([[2.0]]), a, n_start=4) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        xmci2_bound(np.array([[2.0]]), a, n_start=0)


def test_xmpci_event_and_bound():
    a = np.array([[1.0]])
    xs = np.array([[[0.5]], [[0.9]], [[0.1]]])
    assert not crosses(MeanScan("XMPCI", None, a, 1.5), xs)
    assert crosses(MeanScan("XMPCI", None, a, 1.5), np.array([[[2.0]], [[0.0]]]))
    assert xmpci_bound(np.array([[0.5]]), np.array([[2.0]]), 2.0) == pytest.approx(0.125)
    with pytest.raises(DomainError):
        xmpci_bound(np.array([[0.5]]), a, 2.5)
    with pytest.raises(DomainError):
        xmpci_bound(np.array([[0.5]]), a, 0.5)


def test_trace_pcheb_event_by_hand():
    m = np.zeros((2, 2))
    xs = np.stack([np.diag([0.9, -0.9]), np.diag([0.9, 0.9])])
    # n=1: 2 * 0.9^1.5 = 1.707... >= a^1.5 at a = 1.4 (1.656...), not at
    # a = 1.8 (2.414...); n=2: 0.9^1.5 + 0 after averaging
    assert crosses(MeanScan("TRACE_PCHEB", m, 1.4, 1.5), xs)
    assert not crosses(MeanScan("TRACE_PCHEB", m, 1.8, 1.5), xs)
    assert trace_pcheb_bound(3.0, 2.0, 1.5) == pytest.approx(3.0 / 2.0**1.5)
    with pytest.raises(DomainError):
        trace_pcheb_bound(3.0, 0.0, 1.5)
    with pytest.raises(DomainError):
        trace_pcheb_bound(3.0, 2.0, 0.5)
