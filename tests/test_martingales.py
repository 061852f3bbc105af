import math

import numpy as np
import pytest

from matconc.errors import DimMismatch, DomainError, GammaOutOfRange, ParamMismatch
from matconc.fixed_bounds import MgfSpec
from matconc.martingales import (
    DEFAULT_N_MAX,
    FactorStream,
    MatSupermartingaleState,
    betting_gamma_interval,
    build_factors,
    default_gamma_schedule,
    doob_bound,
    doob_event,
    eprocess_min,
    exchangeable_conditional_mean,
    mgf_growth_matrix,
    mvi_event,
    trace_pcheb_bound,
    trace_pcheb_event,
    ville_bound,
    ville_event,
    xmci2_bound,
    xmci2_event,
    xmci_bound,
    xmci_event,
    xmpci_bound,
    xmpci_event,
)
from matconc.symmat import is_psd, loewner_leq, mat_sqrt

from conftest import random_psd, random_symmetric


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


def test_factor_stream_gamma_handling():
    fs = FactorStream(kind="SYMMETRIC_DIST", m=np.zeros((2, 2)))
    assert fs.gamma_at(1) == 1.0
    assert fs.gamma_at(4) == 0.5
    fs = FactorStream(kind="SYMMETRIC_DIST", m=np.zeros((2, 2)), gamma=[0.3, 0.2])
    assert fs.gamma_at(2) == 0.2
    with pytest.raises(GammaOutOfRange):
        fs.gamma_at(3)
    fs = FactorStream(kind="SYMMETRIC_DIST", m=np.zeros((2, 2)), gamma=0.7)
    assert fs.gamma_at(9) == 0.7
    with pytest.raises(ParamMismatch):
        FactorStream(kind="MARKOV", m=np.zeros((2, 2)))
    with pytest.raises(ParamMismatch):
        FactorStream(kind="BETTING", m=np.eye(2))


def test_factor_stream_betting_default_stays_admissible():
    m = 0.5 * np.eye(2)
    fs = FactorStream(kind="BETTING", m=m, b=np.eye(2))
    # interval is (-2, 2); the default schedule starts at half the cap
    assert fs.gamma_at(1) == 1.0
    e, _ = fs.next_factors(np.eye(2))
    assert is_psd(e)
    assert fs.n == 1


def test_ville_event_and_bound():
    y = np.array([[0.5]])
    a = np.array([[1.0]])
    assert not ville_event(y, a, 0.6 * np.eye(1))
    assert ville_event(y, a, 0.4 * np.eye(1))
    assert ville_bound(np.diag([1.0, 2.0]), np.diag([2.0, 4.0])) == pytest.approx(1.0)


def test_mvi_and_doob_events():
    low = 0.3 * np.eye(2)
    high = 1.5 * np.eye(2)
    a = np.eye(2)
    assert not mvi_event([low, low], a)
    assert mvi_event([low, high, low], a)
    assert doob_event([low, high], a)
    assert doob_bound(np.diag([1.0, 2.0]), np.diag([2.0, 4.0])) == pytest.approx(1.0)


def test_eprocess_min_is_common_lower_bound(gen):
    for _ in range(20):
        mats = [random_symmetric(gen, 3) for _ in range(4)]
        low = eprocess_min(mats)
        for m in mats:
            assert loewner_leq(low, m)
    # ordered pair folds to the smaller one
    assert np.allclose(eprocess_min([np.eye(2), 2.0 * np.eye(2)]), np.eye(2))


def test_eprocess_min_accepts_states_and_validates():
    state = MatSupermartingaleState.start(2)
    out = eprocess_min([state, 0.5 * np.eye(2)])
    assert loewner_leq(out, np.eye(2))
    with pytest.raises(DomainError):
        eprocess_min([])
    with pytest.raises(DimMismatch):
        eprocess_min([np.eye(2), np.eye(3)])


def test_xmci_event_scans_running_means():
    m = np.zeros((1, 1))
    a = np.array([[1.0]])
    quiet = np.array([[[0.5]], [[-0.5]], [[0.2]]])
    assert not xmci_event(quiet, m, a)
    # first observation exceeds the threshold; later averages do not
    loud = np.array([[[1.5]], [[-1.5]], [[0.0]]])
    assert xmci_event(loud, m, a)
    # crossing beyond the truncation horizon is not seen
    late = np.array([[[0.5]], [[0.5]], [[9.0]]])
    assert xmci_event(late, m, a, n_max=2) is False
    assert xmci_event(late, m, a, n_max=3) is True
    assert DEFAULT_N_MAX == 500


def test_xmci_bound_value():
    assert xmci_bound(np.diag([1.0, 4.0]), np.diag([2.0, 4.0])) == pytest.approx(0.5)


def test_xmci2_skips_early_steps():
    m = np.zeros((1, 1))
    a = np.array([[1.0]])
    xs = np.array([[[3.0]], [[-3.0]], [[0.0]]])
    assert xmci2_event(xs, m, a, n_start=1)
    assert not xmci2_event(xs, m, a, n_start=2)
    assert xmci2_bound(np.array([[2.0]]), a, n_start=4) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        xmci2_event(xs, m, a, n_start=0)
    with pytest.raises(DomainError):
        xmci2_bound(np.array([[2.0]]), a, n_start=0)


def test_xmpci_event_and_bound():
    a = np.array([[1.0]])
    xs = np.array([[[0.5]], [[0.9]], [[0.1]]])
    assert not xmpci_event(xs, a, 1.5)
    assert xmpci_event(np.array([[[2.0]], [[0.0]]]), a, 1.5)
    assert xmpci_bound(np.array([[0.5]]), np.array([[2.0]]), 2.0) == pytest.approx(0.125)
    with pytest.raises(DomainError):
        xmpci_event(xs, a, 2.5)
    with pytest.raises(DomainError):
        xmpci_bound(np.array([[0.5]]), a, 0.5)


def test_trace_pcheb_event_by_hand():
    m = np.zeros((2, 2))
    xs = np.stack([np.diag([0.9, -0.9]), np.diag([0.9, 0.9])])
    # n=1: 2 * 0.9^1.5 = 1.707...; n=2: 0.9^1.5 + 0 after averaging
    assert trace_pcheb_event(xs, m, a_scalar=1.4, p=1.5)
    assert not trace_pcheb_event(xs, m, a_scalar=1.8, p=1.5)
    assert trace_pcheb_bound(3.0, 2.0, 1.5) == pytest.approx(3.0 / 2.0**1.5)
    with pytest.raises(DomainError):
        trace_pcheb_event(xs, m, a_scalar=0.0, p=1.5)
    with pytest.raises(DomainError):
        trace_pcheb_bound(3.0, 2.0, 0.5)


def test_exchangeable_conditional_mean_is_psd_for_even_power(gen):
    xs = np.stack([random_symmetric(gen, 2) for _ in range(6)])
    est = exchangeable_conditional_mean(xs, np.zeros((2, 2)), 2.0, gen, n_perms=50)
    assert est.shape == (2, 2)
    assert is_psd(est)
    with pytest.raises(DimMismatch):
        exchangeable_conditional_mean(xs[:1], np.zeros((2, 2)), 2.0, gen)
