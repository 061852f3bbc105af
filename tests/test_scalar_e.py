import dataclasses
import math

import numpy as np
import pytest

from matconc.errors import (
    AssumptionViolated,
    ConfigError,
    DimMismatch,
    DomainError,
    PreconditionFailed,
)
from matconc.scalar_e import (
    PSI_QUADRATIC,
    TraceExpState,
    calibrated_threshold,
    hoeffding_eprocess_value,
    log_hoeffding_eprocess_value,
    matrix_test_decide,
    mhi_threshold,
    oracle_A_choice,
    scalar_test_decide,
    sn_process_step,
    ursn_event,
    usmhi_event,
    usmhi_threshold,
    usmhi_threshold_from_state,
)
from matconc.symmat import lambda_max, trace, mat_inv

from conftest import random_symmetric


def test_start_value_is_dimension():
    for d in (1, 2, 7):
        state = TraceExpState.start(d)
        assert state.value() == pytest.approx(float(d), rel=1e-15)
        assert state.log_value() == pytest.approx(math.log(d), abs=1e-15)
    with pytest.raises(DomainError):
        TraceExpState.start(0)


def test_sn_step_one_dimensional_closed_form():
    state = TraceExpState.start(1)
    state = sn_process_step(state, np.array([[1.0]]), np.array([[0.5]]), np.array([[0.1]]), 2.0)
    # exponent: 2 * 0.5 - (4/6) * (0.5^2 + 2 * 0.1) = 1.0 - 0.3 = 0.7
    assert state.value() == pytest.approx(math.exp(0.7), rel=1e-14)
    assert state.n == 1
    assert state.sum_gamma == 2.0
    with pytest.raises(DomainError):
        sn_process_step(state, np.eye(1), np.eye(1), np.eye(1), 0.0)
    with pytest.raises(DimMismatch):
        sn_process_step(state, np.eye(2), np.eye(2), np.eye(2), 1.0)


def test_psi_quadratic():
    assert PSI_QUADRATIC(3.0) == 4.5


def test_kahan_accumulation_survives_tiny_steps():
    # after a first step of 1, each increment of 3e-17 is below half an
    # ulp of the tilt: a plain sum would drop every one of them
    zero = np.zeros((1, 1))
    state = sn_process_step(TraceExpState.start(1), np.eye(1), zero, zero, 1.0)
    x = np.array([[3e-17]])
    for _ in range(100_000):
        state = sn_process_step(state, x, zero, zero, 1.0)
    assert state.gz[0, 0] - 1.0 == pytest.approx(3e-12, rel=1e-3)


def test_sn_step_compensator():
    state = TraceExpState.start(1)
    state = sn_process_step(
        state, np.array([[1.5]]), np.array([[0.5]]), np.array([[2.0]]), 0.3
    )
    # exponent: 0.3 * 1 - (0.09/6) * (1 + 4) = 0.3 - 0.075
    assert math.log(state.value()) == pytest.approx(0.225, abs=1e-14)


def test_sn_step_tracks_square_bound_and_warns():
    state = TraceExpState.start(1)
    state = sn_process_step(
        state,
        np.array([[0.5]]),
        np.array([[0.0]]),
        np.array([[0.1]]),
        0.5,
        b=np.array([[1.0]]),
    )
    assert state.sum_gamma_sq_b[0, 0] == pytest.approx(0.25)
    with pytest.warns(AssumptionViolated):
        sn_process_step(
            state,
            np.array([[3.0]]),
            np.array([[0.0]]),
            np.array([[0.1]]),
            0.5,
            b=np.array([[1.0]]),
        )


def test_zero_deviation_stream_shrinks():
    # with X = M the self-normalized process is exp(-(gamma^2/3) tr-ish V)
    state = TraceExpState.start(2)
    x = m = 0.5 * np.eye(2)
    v = np.eye(2)
    state = sn_process_step(state, x, m, v, 0.6)
    want = 2.0 * math.exp(-(0.36 / 3.0))
    assert state.value() == pytest.approx(want, rel=1e-13)


def test_ursn_event_log_space():
    state = dataclasses.replace(TraceExpState.start(1), gz=np.array([[3.0]]))
    # L = e^3 ~ 20.09 against d u / alpha = 20
    assert ursn_event(state, alpha=0.05, u=1.0)
    assert not ursn_event(state, alpha=0.04, u=1.0)
    assert ursn_event(state, alpha=0.04, u=0.5)
    with pytest.raises(DomainError):
        ursn_event(state, alpha=1.5, u=1.0)
    with pytest.raises(DomainError):
        ursn_event(state, alpha=0.05, u=0.0)


def test_value_survives_huge_exponents():
    state = dataclasses.replace(TraceExpState.start(2), gz=np.diag([800.0, -5.0]))
    assert state.log_value() == pytest.approx(800.0, abs=1e-9)
    assert math.isinf(state.value()) or state.value() > 1e300


@pytest.mark.parametrize("log_l,want", [(709.5, math.exp(709.5)), (800.0, math.inf)])
def test_values_are_inf_exactly_where_exp_overflows(log_l, want):
    """Both e-process values are ``exp`` of their logs, inf only past the float range."""
    state = dataclasses.replace(TraceExpState.start(1), gz=np.array([[log_l]]))
    assert state.log_value() == log_hoeffding_eprocess_value(state) == log_l
    assert state.value() == hoeffding_eprocess_value(state) == want


def test_trace_exp_dominates_spectral_bound(gen):
    # pathwise: log L_n >= lambda_max(gz) - lambda_max(pc)
    for _ in range(50):
        state = TraceExpState.start(3)
        for _ in range(10):
            x = random_symmetric(gen, 3, scale=0.4)
            v = 0.2 * np.eye(3)
            state = sn_process_step(state, x, np.zeros((3, 3)), v, 0.3)
        assert state.log_value() >= state.log_spectral_lower_bound() - 1e-10


def test_hoeffding_value_from_accumulators():
    state = TraceExpState.start(2)
    x = np.diag([0.8, -0.2])
    b = np.eye(2)
    state = sn_process_step(state, x, np.zeros((2, 2)), 0.3 * np.eye(2), 0.5, b=b)
    # lambda_max(gz) = 0.4, lambda_max(sum g^2 B) = 0.25
    assert log_hoeffding_eprocess_value(state) == pytest.approx(0.4 - 0.125)
    assert hoeffding_eprocess_value(state) == pytest.approx(math.exp(0.275))


def test_usmhi_threshold_closed_form():
    # constant gamma, constant B = b I: (log(d u/alpha) + n g^2 b/2) / (n g)
    d, alpha, n, b = 2, 0.05, 100, 1.0
    length = math.log(d / alpha)
    g = math.sqrt(2.0 * length / (n * b))
    thr = usmhi_threshold([g] * n, [np.eye(d)] * n, alpha, 1.0, d)
    assert thr == pytest.approx(math.sqrt(2.0 * length * b / n), rel=1e-12)
    assert thr < mhi_threshold(b, n, d, alpha)
    assert mhi_threshold(b, n, d, alpha) == pytest.approx(2.0 * thr, rel=1e-12)


def test_usmhi_threshold_decreases_with_u():
    g = [0.1] * 20
    bs = [np.eye(2)] * 20
    t_half = usmhi_threshold(g, bs, 0.05, 0.5, 2)
    t_one = usmhi_threshold(g, bs, 0.05, 1.0, 2)
    assert t_half < t_one
    with pytest.raises(DomainError):
        usmhi_threshold([], [], 0.05, 1.0, 2)
    with pytest.raises(DomainError):
        usmhi_threshold([0.1, -0.1], bs[:2], 0.05, 1.0, 2)


def test_usmhi_threshold_from_state_matches_list_form(gen):
    state = TraceExpState.start(2)
    gammas, bs = [], []
    for i in range(8):
        g = 0.3 / math.sqrt(i + 1)
        b = (1.0 + 0.1 * i) * np.eye(2)
        x = random_symmetric(gen, 2, scale=0.3)
        state = sn_process_step(state, x, np.zeros((2, 2)), 0.2 * np.eye(2), g, b=b)
        gammas.append(g)
        bs.append(b)
    want = usmhi_threshold(gammas, bs, 0.05, 0.7, 2)
    got = usmhi_threshold_from_state(state, 0.05, 0.7)
    assert got == pytest.approx(want, rel=1e-12)


def test_usmhi_event_boundary():
    dev = np.diag([0.3, 0.1])
    assert usmhi_event(dev, 0.3)  # ties reject
    assert not usmhi_event(dev, 0.300001)


def test_decision_rules():
    assert matrix_test_decide(2.0 * np.eye(2), np.eye(2))
    assert not matrix_test_decide(0.5 * np.eye(2), np.eye(2))
    with pytest.raises(DomainError):
        matrix_test_decide(np.eye(2), np.diag([1.0, 0.0]))
    assert scalar_test_decide(40.0, d=2, alpha=0.05)
    assert not scalar_test_decide(39.9, d=2, alpha=0.05)
    # u < 1 lowers the threshold to d u / alpha = 36
    assert not scalar_test_decide(35.9, d=2, alpha=0.05, u=0.9)
    assert scalar_test_decide(36.1, d=2, alpha=0.05, u=0.9)


def test_threshold_calibration():
    assert trace(mat_inv(calibrated_threshold(0.05, np.eye(2)))) == pytest.approx(0.05, abs=1e-10)
    # already-calibrated input is kept bit-for-bit
    a = np.diag([40.0, 40.0])
    assert np.array_equal(calibrated_threshold(0.05, a), a)
    with pytest.raises(ConfigError):
        calibrated_threshold(0.05, np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        calibrated_threshold(0.0, np.eye(2))
    assert trace(mat_inv(calibrated_threshold(0.1, np.eye(3)))) == pytest.approx(0.1, abs=1e-10)


def test_oracle_choice_two_dimensional_worked_case():
    y1 = np.diag([1.0, 30.0])
    a = oracle_A_choice(y1, alpha=0.1, epsilon=0.05)
    assert np.allclose(a, np.diag([20.0, 20.0]))
    assert trace(mat_inv(a)) == pytest.approx(0.1, rel=1e-12)
    assert matrix_test_decide(y1, a)


def test_oracle_choice_validation_and_one_dimensional():
    assert np.allclose(oracle_A_choice(np.array([[25.0]]), 0.05, 0.01), [[20.0]])
    with pytest.raises(PreconditionFailed):
        oracle_A_choice(np.diag([1.0, 10.0]), 0.1, 0.05)
    with pytest.raises(PreconditionFailed):
        oracle_A_choice(np.diag([1.0, 30.0]), 0.1, 0.09)


def test_oracle_choice_rejects_along_top_direction(gen):
    for _ in range(25):
        q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
        lam = np.sort(gen.uniform(0.1, 5.0, size=3))
        lam[-1] = 30.0 + gen.uniform(0.0, 5.0)
        y1 = (q * lam) @ q.T
        a = oracle_A_choice(y1, alpha=0.1, epsilon=0.02)
        assert trace(mat_inv(a)) == pytest.approx(0.1, rel=1e-10)
        assert matrix_test_decide(y1, a)
        assert lambda_max(y1) > 10.0
