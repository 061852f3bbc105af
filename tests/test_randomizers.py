import numpy as np
import pytest

from matconc.errors import ConfigError, DomainError
from matconc.randomizers import (
    MatrixRandomizer,
    ScalarRandomizer,
    verify_trace_superuniform,
)
from matconc.rng import substream
from matconc.symmat import loewner_leq


def test_scalar_kinds():
    assert ScalarRandomizer(kind="constant_one").sample() == 1.0
    u = ScalarRandomizer(kind="uniform01", seed=3).sample()
    assert 0.0 < u <= 1.0
    r = ScalarRandomizer(kind="custom", sampler=lambda g: 0.5)
    assert r.sample() == 0.5
    with pytest.raises(ConfigError):
        ScalarRandomizer(kind="beta")
    with pytest.raises(ConfigError):
        ScalarRandomizer(kind="custom")
    bad = ScalarRandomizer(kind="custom", sampler=lambda g: 1.5)
    with pytest.raises(DomainError):
        bad.sample()
    bad0 = ScalarRandomizer(kind="custom", sampler=lambda g: 0.0)
    with pytest.raises(DomainError):
        bad0.sample()


def test_scalar_uniform_never_zero_and_seeded():
    r = ScalarRandomizer(kind="uniform01", seed=99)
    draws = [r.sample() for _ in range(1000)]
    assert min(draws) > 0.0
    r2 = ScalarRandomizer(kind="uniform01", seed=99)
    assert draws[:10] == [r2.sample() for _ in range(10)]


def test_matrix_sample_given():
    r = MatrixRandomizer(kind="scaled_identity", dim=3)
    assert np.array_equal(r.sample_given(0.25), 0.25 * np.eye(3))
    ident = MatrixRandomizer(kind="identity", dim=2)
    assert np.array_equal(ident.sample_given(0.1), np.eye(2))
    y = np.array([[0.3, 0.1], [0.1, 0.2]])
    sh = MatrixRandomizer(kind="shifted", dim=2, y=y)
    assert np.allclose(sh.sample_given(0.5), 0.5 * np.eye(2) + y)


@pytest.mark.parametrize("kind", ["identity", "scaled_identity", "shifted"])
def test_matrix_draw_is_the_batch_of_samples(kind):
    """``draw`` takes the draws ``sample`` takes one at a time from the same stream."""
    y = np.array([[0.3, 0.1], [0.1, 0.2]]) if kind == "shifted" else None
    r = MatrixRandomizer(kind=kind, dim=2, y=y)
    gen_a, gen_b = substream(5, 1), substream(5, 1)
    batch = r.draw(gen_a, 50)
    one_by_one = np.array([r.sample(gen_b) for _ in range(50)])
    if kind == "shifted":
        assert batch.shape == (50, 2, 2)
        np.testing.assert_array_equal(batch, one_by_one)
    else:
        # one u per trial, standing for u I
        assert batch.shape == (50,)
        np.testing.assert_array_equal(batch[:, None, None] * np.eye(2), one_by_one)
    # identity reads nothing of the stream
    assert (gen_a.random() == substream(5, 1).random()) == (kind == "identity")


def test_matrix_randomizer_validation():
    with pytest.raises(ConfigError):
        MatrixRandomizer(kind="wishart", dim=2)
    with pytest.raises(ConfigError):
        MatrixRandomizer(kind="scaled_identity", dim=0)
    with pytest.raises(ConfigError):
        MatrixRandomizer(kind="shifted", dim=2)
    with pytest.raises(ConfigError):
        MatrixRandomizer(kind="shifted", dim=2, y=np.eye(3))
    with pytest.raises(DomainError):
        MatrixRandomizer(kind="shifted", dim=2, y=-np.eye(2))
    with pytest.raises(ConfigError):
        MatrixRandomizer(kind="scaled_identity", dim=2, y=np.eye(2))


def test_matrix_sample_dominates_scaled_identity():
    # a shifted randomizer is >= the bare scaled identity for the same u
    y = np.array([[0.4, 0.2], [0.2, 0.3]])
    sh = MatrixRandomizer(kind="shifted", dim=2, y=y)
    for u in (0.01, 0.5, 1.0):
        assert loewner_leq(u * np.eye(2), sh.sample_given(u))


def test_trace_superuniform_equality_on_unit_trace_rank_one():
    # For U = u I and Y = c * v v^T with ||v|| = 1, the event {U not >= Y}
    # is exactly {u < c}: equality with tr Y = c
    r = MatrixRandomizer(kind="scaled_identity", dim=3)
    v = np.array([2.0, -1.0, 2.0]) / 3.0
    probes = [0.25 * np.outer(v, v), 0.64 * np.outer(v, v)]
    for (prob, tr), c in zip(verify_trace_superuniform(r, probes), (0.25, 0.64)):
        assert prob == pytest.approx(c, abs=1e-15)
        assert tr == pytest.approx(c, abs=1e-15)


def test_trace_superuniform_one_dimensional_exact():
    r = MatrixRandomizer(kind="scaled_identity", dim=1)
    assert verify_trace_superuniform(r, [np.array([[0.25]])]) == [(0.25, 0.25)]


def test_trace_superuniform_strict_for_spread_spectrum():
    # full-rank probe with the same trace: the event needs u below the top
    # eigenvalue only, which is smaller than the trace, so slack appears
    r = MatrixRandomizer(kind="scaled_identity", dim=2)
    assert verify_trace_superuniform(r, [np.diag([0.3, 0.3])]) == [(0.3, 0.6)]


def test_trace_superuniform_identity_randomizer():
    # U = I never fails against Y <= I (a tie included), always fails against lam_max > 1
    r = MatrixRandomizer(kind="identity", dim=2)
    probes = [0.5 * np.eye(2), np.diag([1.0, 0.0]), np.diag([1.5, 0.0])]
    assert verify_trace_superuniform(r, probes) == [(0.0, 1.0), (0.0, 1.0), (1.0, 1.5)]


def test_trace_superuniform_shifted_keeps_bound():
    y = np.array([[0.2, 0.05], [0.05, 0.1]])
    r = MatrixRandomizer(kind="shifted", dim=2, y=y)
    probes = [np.diag([0.4, 0.1]), y, 0.3 * np.eye(2), 2.0 * np.eye(2)]
    out = verify_trace_superuniform(r, probes)
    assert all(prob <= tr for prob, tr in out)
    # probe == shift: u I + Y >= Y always, probability exactly zero
    assert out[1][0] == 0.0
    # lambda_max(Y - S) >= 1: u I + S never dominates, probability one
    assert out[3][0] == 1.0


def test_trace_superuniform_rejects_bad_probes():
    r = MatrixRandomizer(kind="scaled_identity", dim=2)
    with pytest.raises(DomainError):
        verify_trace_superuniform(r, [np.eye(3)])
    with pytest.raises(DomainError):
        verify_trace_superuniform(r, [-np.eye(2)])


@pytest.mark.parametrize("kind", ["scaled_identity", "shifted"])
def test_trace_superuniform_matches_dense_loewner_check(kind):
    # the closed form must agree with per-draw loewner_leq calls on
    # sampled matrices, within the binomial noise of the draws
    y = np.array([[0.35, 0.1], [0.1, 0.15]])
    r = MatrixRandomizer(kind=kind, dim=2, y=0.05 * np.eye(2) if kind == "shifted" else None)
    prob = verify_trace_superuniform(r, [y])[0][0]
    gen, trials = substream(11, 1), 4000
    hits = sum(not loewner_leq(y, r.sample(gen)) for _ in range(trials))
    assert 0.0 < prob < 1.0
    assert abs(hits / trials - prob) <= 4.0 * np.sqrt(prob * (1.0 - prob) / trials)
