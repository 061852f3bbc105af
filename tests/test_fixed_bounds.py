import math

import numpy as np
import pytest

from matconc.errors import DimMismatch, DomainError, ParamMismatch
from matconc.fixed_bounds import (
    MgfSpec,
    chebyshev1_bound,
    chebyshev_event,
    chebyshev_n_bound,
    chebyshev_n_event,
    chernoff1_bound,
    chernoff1_event,
    chernoff_hoeffding_bound,
    chernoff_hoeffding_event,
    markov_threshold,
    mgf_trace_bound,
    pcheb1_bound,
    pcheb1_event,
    spectral_pcheb_moment_bound,
    sum_pth_moment_bound,
    ummi_bound,
    ummi_event,
    vector_pcheb_bound,
)
from matconc.randomizers import MatrixRandomizer
from matconc.symmat import mat_abs

from conftest import random_pd, random_psd


def test_markov_threshold_scaled_identity():
    a = np.diag([4.0, 9.0])
    thr = markov_threshold(a, 0.25 * np.eye(2))
    assert np.allclose(thr, np.diag([1.0, 2.25]))


def test_ummi_event_scalar_cases():
    a = np.eye(2)
    x = 0.5 * np.eye(2)
    assert not ummi_event(x, a, 0.6 * np.eye(2))
    assert ummi_event(x, a, 0.4 * np.eye(2))
    with pytest.raises(DimMismatch):
        ummi_event(np.eye(3), a, 0.5 * np.eye(2))


def test_ummi_bound_value():
    assert ummi_bound(np.diag([1.0, 2.0]), np.diag([2.0, 4.0])) == pytest.approx(1.0)


def test_ummi_bound_decreases_in_threshold(gen):
    for _ in range(20):
        m = random_psd(gen, 3)
        a = random_pd(gen, 3)
        bigger = a + random_psd(gen, 3) + 0.1 * np.eye(3)
        assert ummi_bound(m, bigger) <= ummi_bound(m, a) + 1e-12


def test_chebyshev_event_one_dimensional():
    x = np.array([[0.8]])
    m = np.array([[0.5]])
    a = np.array([[1.0]])
    # |x - m| = 0.3 against threshold sqrt(u)
    assert not chebyshev_event(x, m, a, 0.25 * np.eye(1))
    assert chebyshev_event(x, m, a, 0.04 * np.eye(1))


def test_chebyshev_bounds_values():
    v = np.diag([1.0, 4.0])
    a = np.diag([2.0, 4.0])
    assert chebyshev1_bound(v, a) == pytest.approx(0.5)
    assert chebyshev_n_bound(v, a, 10) == pytest.approx(0.05)
    with pytest.raises(DomainError):
        chebyshev_n_bound(v, a, 0)


def test_chebyshev_n_event_averages(gen):
    m = np.zeros((2, 2))
    a = np.eye(2)
    xs = np.stack([np.diag([0.9, 0.0]), np.diag([-0.9, 0.0])])
    # the average is exactly zero, no threshold can be exceeded
    assert not chebyshev_n_event(xs, m, a, 0.01 * np.eye(2))


def test_events_on_a_mean_of_no_trials_are_empty_and_need_a_step_axis():
    m, a = np.zeros((2, 2)), np.eye(2)
    for stack in (np.zeros((0, 3, 2, 2)), np.zeros((4, 0, 3, 2, 2))):
        assert chebyshev_n_event(stack, m, a, 1.0).shape == stack.shape[:-3]
        assert chernoff_hoeffding_event(stack, m, 1.0, 1.0, 1.0).shape == stack.shape[:-3]
    for bad in (np.zeros((2, 2)), np.zeros((5, 0, 2, 2))):
        with pytest.raises(DimMismatch):
            chebyshev_n_event(bad, m, a, 1.0)
        with pytest.raises(DimMismatch):
            chernoff_hoeffding_event(bad, m, 1.0, 1.0, 1.0)


def test_pcheb_reduces_to_chebyshev_at_p_two(gen):
    for _ in range(25):
        x = random_psd(gen, 3)
        m = random_psd(gen, 3)
        a = random_pd(gen, 3)
        u = MatrixRandomizer(kind="scaled_identity", dim=3).sample_given(
            float(1.0 - gen.random())
        )
        assert pcheb1_event(x, m, a, u, 2.0) == chebyshev_event(x, m, a, u)


def test_pcheb_reduces_to_markov_at_p_one(gen):
    for _ in range(25):
        x = random_psd(gen, 3)
        m = random_psd(gen, 3)
        a = random_pd(gen, 3)
        u = float(1.0 - gen.random()) * np.eye(3)
        assert pcheb1_event(x, m, a, u, 1.0) == ummi_event(mat_abs(x - m), a, u)


def test_pcheb1_bound_value():
    vp = np.diag([1.0, 8.0])
    a = np.diag([1.0, 4.0])
    assert pcheb1_bound(vp, a, 1.5) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        pcheb1_bound(vp, a, 2.5)


def test_event_monotone_in_randomizer_draw(gen):
    # raising u enlarges every threshold, so the event can only switch off
    r = MatrixRandomizer(kind="scaled_identity", dim=2)
    for _ in range(10):
        x = random_psd(gen, 2)
        a = random_pd(gen, 2)
        flags = [ummi_event(x, a, r.sample_given(u)) for u in (0.05, 0.35, 0.7, 1.0)]
        for earlier, later in zip(flags, flags[1:]):
            assert earlier or not later


def test_chernoff1_event_one_dimensional():
    a = np.array([[1.0]])
    # threshold is a + log(u) / (2 gamma)
    assert not chernoff1_event(np.array([[0.9]]), a, math.exp(-0.1) * np.eye(1), 0.5)
    assert chernoff1_event(np.array([[0.9]]), a, math.exp(-0.2) * np.eye(1), 0.5)
    # singular randomizer: event true by convention
    assert chernoff1_event(np.array([[-5.0]]), a, np.zeros((1, 1)), 0.5)
    with pytest.raises(DomainError):
        chernoff1_event(np.array([[0.0]]), a, np.eye(1), 0.0)


def test_chernoff1_bound_value():
    got = chernoff1_bound(np.array([[math.e]]), np.array([[1.0]]), 0.5)
    assert got == pytest.approx(1.0, rel=1e-14)


def test_mgf_trace_bound_closed_forms():
    c = np.diag([1.0, 2.0])
    got = mgf_trace_bound(MgfSpec("RADEMACHER", c), gamma=1.0, n=1)
    assert got == pytest.approx(math.exp(0.5) + math.exp(2.0), rel=1e-14)
    got = mgf_trace_bound(MgfSpec("UNI_GAUSSIAN", c), gamma=2.0, n=4)
    assert got == pytest.approx(math.exp(0.5) + math.exp(2.0), rel=1e-14)
    b = np.diag([1.0, 4.0])
    got = mgf_trace_bound(MgfSpec("SYM_HOEFFDING", b), gamma=1.0, n=2)
    assert got == pytest.approx(math.exp(0.25) + math.exp(1.0), rel=1e-14)
    v = np.array([[1.0]])
    got = mgf_trace_bound(MgfSpec("BENNETT_I", v), gamma=1.0, n=1)
    assert got == pytest.approx(math.exp(math.e - 2.0), rel=1e-14)
    with pytest.raises(DomainError):
        mgf_trace_bound(MgfSpec("RADEMACHER", c), gamma=0.0, n=1)
    with pytest.raises(DomainError):
        mgf_trace_bound(MgfSpec("RADEMACHER", c), gamma=1.0, n=0)


def test_bennett_coefficient_accurate_for_large_n():
    # n (e^{gamma/n} - gamma/n - 1) ~ gamma^2 / (2n); the direct float
    # difference loses most digits at n = 1e6, expm1 must not
    n = 1_000_000
    g = 1.0 / n
    series = n * (g**2 / 2.0 + g**3 / 6.0 + g**4 / 24.0)
    got = mgf_trace_bound(MgfSpec("BENNETT_II", np.array([[1.0]])), gamma=1.0, n=n)
    assert (got - 1.0) == pytest.approx(math.expm1(series), rel=1e-9)


def test_chernoff_hoeffding_event_one_dimensional():
    xs = np.array([[[1.2]], [[0.8]]])
    m = np.array([[0.5]])
    # mean deviation 0.5 against a + log(u) / gamma
    assert not chernoff_hoeffding_event(xs, m, 0.6, 1.0, np.eye(1))
    assert chernoff_hoeffding_event(xs, m, 0.6, 1.0, math.exp(-0.2) * np.eye(1))
    assert chernoff_hoeffding_event(xs, m, 0.6, 1.0, np.zeros((1, 1)))
    with pytest.raises(DomainError):
        chernoff_hoeffding_event(xs, m, -1.0, 1.0, np.eye(1))


def test_chernoff_hoeffding_bound_value():
    spec = MgfSpec("RADEMACHER", np.array([[1.0]]))
    got = chernoff_hoeffding_bound(spec, gamma=1.0, n=1, a_scalar=2.0)
    assert got == pytest.approx(math.exp(-1.5), rel=1e-14)


def test_sum_pth_moment_bound_endpoints():
    assert sum_pth_moment_bound(3.0, 5, 2.0) == pytest.approx(15.0)
    assert sum_pth_moment_bound(3.0, 5, 1.0) == pytest.approx(30.0)


def test_vector_pcheb_bound_values():
    assert vector_pcheb_bound(6.0, d=3, n=2, p=2.0, a_scalar=1.0) == pytest.approx(1.0)
    assert vector_pcheb_bound(1.0, d=4, n=1, p=1.0, a_scalar=2.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        vector_pcheb_bound(1.0, d=2, n=1, p=1.5, a_scalar=0.0)


def test_spectral_pcheb_moment_bound_values():
    assert spectral_pcheb_moment_bound(2.0, d=4, n=3, p=1.5) == pytest.approx(48.0)
    assert spectral_pcheb_moment_bound(1.0, d=2, n=1, p=2.0) == pytest.approx(2.0)


def test_mgf_spec_validation():
    with pytest.raises(ParamMismatch):
        MgfSpec("POISSON", np.eye(2))
    with pytest.raises(ParamMismatch):
        MgfSpec("BENNETT_I", -np.eye(2))
    spec = MgfSpec("RADEMACHER", np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert spec.dim == 2
