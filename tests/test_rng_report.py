import numpy as np
import pytest

from matconc.errors import ConfigError
from matconc.report import SIGMA_MARGIN, McReport, wilson_interval
from matconc.rng import default_seed, spawn_pair, substream


def test_substream_is_deterministic_and_path_sensitive():
    a = substream(7, 1, 2).random(5)
    b = substream(7, 1, 2).random(5)
    c = substream(7, 1, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substreams_do_not_collide_across_depth():
    # (seed, 1) and (seed, 1, 0) must be distinct streams
    a = substream(11, 1).random(4)
    b = substream(11, 1, 0).random(4)
    assert not np.array_equal(a, b)


def test_spawn_pair_gives_independent_streams():
    data, rand = spawn_pair(5, 9)
    x = data.random(8)
    u = rand.random(8)
    assert not np.array_equal(x, u)
    data2, rand2 = spawn_pair(5, 9)
    assert np.array_equal(x, data2.random(8))
    assert np.array_equal(u, rand2.random(8))


def test_default_seed_env_override(monkeypatch):
    monkeypatch.setenv("MATCONC_SEED", "314159")
    assert default_seed() == 314159
    monkeypatch.delenv("MATCONC_SEED")
    assert default_seed() == 20240817
    monkeypatch.setenv("MATCONC_SEED", "not-an-int")
    with pytest.raises(ConfigError):
        default_seed()


def wilson_oracle(k, n, z):
    """Solve |p_hat - p| = z sqrt(p(1-p)/n) for p via the quadratic roots."""
    ph = k / n
    coeffs = [1 + z * z / n, -(2 * ph + z * z / n), ph * ph]
    roots = np.roots(coeffs)
    return float(min(roots)), float(max(roots))


def test_wilson_interval_against_quadratic_roots():
    for k, n in [(0, 10), (5, 10), (10, 10), (3, 1000), (777, 1000)]:
        lo, hi = wilson_interval(k, n)
        olo, ohi = wilson_oracle(k, n, 1.959963984540054)
        assert np.isclose(lo, olo, atol=1e-12)
        assert np.isclose(hi, ohi, atol=1e-12)
        assert 0.0 <= lo <= hi <= 1.0
        assert lo <= k / n + 1e-12 and hi >= k / n - 1e-12


def test_wilson_degenerate_and_from_counts_validation():
    assert wilson_interval(5, 0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        McReport.from_counts(name="x", events=-1, trials=10, stated_bound=0.5)
    with pytest.raises(ValueError):
        McReport.from_counts(name="x", events=11, trials=10, stated_bound=0.5)
    with pytest.raises(ValueError):
        McReport.from_counts(name="x", events=0, trials=0, stated_bound=0.5)


def test_mcreport_verdict_uses_three_sigma():
    # freq 0.055 vs bound 0.05 on 1e3 trials: inside 3 sigma, passes
    rep = McReport.from_counts(name="x", events=55, trials=1000, stated_bound=0.05)
    assert rep.verdict
    # same frequency on 1e6 trials: well outside 3 sigma, fails
    rep = McReport.from_counts(name="x", events=55_000, trials=1_000_000, stated_bound=0.05)
    assert not rep.verdict
    assert rep.stderr == pytest.approx(
        np.sqrt(0.055 * 0.945 / 1_000_000), rel=1e-12
    )


def test_mcreport_vacuous_flag_and_serialization():
    rep = McReport.from_counts(name="v", events=990, trials=1000, stated_bound=1.7)
    assert rep.vacuous
    assert rep.verdict
    d = rep.to_dict()
    assert d["verdict"] == "PASS"
    assert d["stated_bound"] == 1.7  # never clipped to 1
    assert d["trials"] == 1000
    assert SIGMA_MARGIN == 3.0
