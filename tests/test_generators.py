import math

import numpy as np
import pytest

from matconc.errors import ConfigError
from matconc.generators import GENERATOR_KINDS, Draws, GeneratorSpec
from matconc.rng import substream
from matconc.symmat import is_psd, loewner_leq, spectral_norm

from conftest import spec_of_kind


def mc_mean(spec, trials=60_000, seed=101):
    xs = spec.sample_batch(substream(seed, 0), trials, 1)[:, 0]
    return xs.mean(axis=0), xs


def assert_matrix_close(got, want, xs):
    # entrywise three-sigma tolerance from the sample itself
    se = xs.std(axis=0, ddof=1) / math.sqrt(xs.shape[0])
    assert np.all(np.abs(got - want) <= 3.5 * se + 1e-12)


def test_kind_tuple_is_frozen():
    assert len(GENERATOR_KINDS) == 8


def test_validation_errors():
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="LOGNORMAL", dim=2)
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="RADEMACHER_SCALED", dim=0, c=np.eye(1))
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="RADEMACHER_SCALED", dim=2)  # missing c
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="RADEMACHER_SCALED", dim=2, c=np.eye(2), b=np.eye(2))
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="RADEMACHER_SCALED", dim=2, c=np.eye(3))
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="SYMMETRIC_HEAVY", dim=2, d_dir=np.eye(2), tail_index=1.0)
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="IID_WISHART_LIKE", dim=2, scale=0.0)
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="EXCHANGEABLE_MIXTURE", dim=2, d_dir=np.eye(2), tau=-0.5, c=np.eye(2))


def test_bounded_psd_needs_strict_interior():
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="BOUNDED_PSD", dim=2, m=np.zeros((2, 2)), b=np.eye(2))
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="BOUNDED_PSD", dim=2, m=np.eye(2), b=np.eye(2))
    spec = GeneratorSpec(kind="BOUNDED_PSD", dim=2, m=0.4 * np.eye(2), b=np.eye(2))
    xs = spec.sample_batch(substream(7, 0), 5000, 1)[:, 0]
    for x in xs[:200]:
        assert is_psd(x)
        assert loewner_leq(x, spec.b)


def test_mean_defaults_to_zero():
    spec = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=np.eye(2))
    assert np.array_equal(spec.m, np.zeros((2, 2)))


def test_rademacher_moments():
    c = np.array([[0.5, 0.2], [0.2, 0.8]])
    spec = GeneratorSpec(kind="RADEMACHER_SCALED", dim=2, m=0.1 * np.eye(2), c=c)
    got, xs = mc_mean(spec)
    assert_matrix_close(got, spec.mean(), xs)
    assert np.allclose(spec.variance(), c @ c)
    # squared deviation is exactly C^2 on every draw
    dev = xs[0] - spec.m
    assert np.allclose(dev @ dev, c @ c)
    assert spec.sq_dev_bound() is not None
    assert spec.deviations_symmetric()


def test_gaussian_moments():
    c = np.diag([0.5, 1.0])
    spec = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=c)
    got, xs = mc_mean(spec)
    assert_matrix_close(got, np.zeros((2, 2)), xs)
    sq = np.einsum("tij,tjk->tik", xs, xs).mean(axis=0)
    assert_matrix_close(sq, spec.variance(), np.einsum("tij,tjk->tik", xs, xs))
    # E|G|^p closed forms
    assert spec.pth_central(2.0)[1, 1] == pytest.approx(1.0)
    assert spec.pth_central(1.0)[1, 1] == pytest.approx(math.sqrt(2.0 / math.pi))
    want = 2.0**0.75 * math.gamma(1.25) / math.sqrt(math.pi)
    assert spec.pth_central(1.5)[1, 1] == pytest.approx(want)
    with pytest.raises(ConfigError):
        spec.sq_dev_bound()


def test_symmetric_heavy_moments():
    d_dir = 0.3 * np.eye(2)
    spec = GeneratorSpec(kind="SYMMETRIC_HEAVY", dim=2, d_dir=d_dir, tail_index=2.5)
    got, xs = mc_mean(spec, trials=100_000)
    assert_matrix_close(got, np.zeros((2, 2)), xs)
    assert np.allclose(spec.variance(), (2.5 / 0.5) * d_dir @ d_dir)
    assert np.allclose(spec.pth_central(1.5), (2.5 / 1.0) * 0.3**1.5 * np.eye(2))
    assert spec.spectral_pth_central(1.5) == pytest.approx(2.5 * 0.3**1.5)
    heavy = GeneratorSpec(kind="SYMMETRIC_HEAVY", dim=2, d_dir=d_dir, tail_index=1.8)
    with pytest.raises(ConfigError):
        heavy.variance()
    with pytest.raises(ConfigError):
        heavy.pth_central(1.9)


def test_symmetric_heavy_pareto_first_moment():
    # |T| ~ Pareto(q) + 1 shifted to [1, inf): E|T| = q/(q-1)
    spec = GeneratorSpec(kind="SYMMETRIC_HEAVY", dim=1, d_dir=np.eye(1), tail_index=3.0)
    xs = spec.sample_batch(substream(5, 0), 200_000, 1)[:, 0, 0, 0]
    assert abs(np.abs(xs).mean() - 1.5) < 4.0 * np.abs(xs).std() / math.sqrt(xs.size)


def test_exchangeable_mixture_is_exchangeable_not_iid():
    spec = GeneratorSpec(
        kind="EXCHANGEABLE_MIXTURE", dim=1, d_dir=np.eye(1), tau=1.0, c=0.1 * np.eye(1)
    )
    xs = spec.sample_batch(substream(17, 0), 50_000, 2)[..., 0, 0]
    # same-path draws share the latent shift: strong positive correlation
    corr = np.corrcoef(xs[:, 0], xs[:, 1])[0, 1]
    want = 1.0 / 1.01  # tau^2 / (tau^2 + c^2)
    assert abs(corr - want) < 0.02
    # the two coordinates have the same marginal law (exchangeability)
    assert abs(xs[:, 0].std() - xs[:, 1].std()) < 0.02
    assert np.allclose(spec.variance(), [[1.01]])


def test_wishart_like_moments():
    spec = GeneratorSpec(kind="IID_WISHART_LIKE", dim=3, scale=0.5)
    got, xs = mc_mean(spec, trials=80_000)
    assert_matrix_close(got, np.zeros((3, 3)), xs)
    assert np.allclose(spec.variance(), 0.25 * 4.0 * np.eye(3))
    sq = np.einsum("tij,tjk->tik", xs, xs)
    assert_matrix_close(sq.mean(axis=0), spec.variance(), sq)


def test_heavy_psd_moments():
    spec = GeneratorSpec(kind="HEAVY_PSD", dim=3, scale=0.6, tail_index=2.5)
    got, xs = mc_mean(spec, trials=150_000)
    assert np.allclose(spec.mean(), (0.6 * 2.5 / 1.5 / 3.0) * np.eye(3))
    assert_matrix_close(got, spec.mean(), xs)
    assert is_psd(xs[0])
    assert np.linalg.matrix_rank(xs[0], tol=1e-10) == 1
    # raw p-th moment: (s^p q / ((q-p) d)) I, exact because (u u^T)^p = u u^T
    assert np.allclose(spec.pth_raw(1.5), (0.6**1.5 * 2.5 / 1.0 / 3.0) * np.eye(3))
    with pytest.raises(ConfigError):
        spec.pth_raw(2.5)
    with pytest.raises(ConfigError):
        spec.variance()


def test_ellipsoid_rank1_support_and_mean():
    a = np.diag([1.0, 4.0])
    spec = GeneratorSpec(kind="ELLIPSOID_RANK1", dim=2, a=a)
    xs = spec.sample_batch(substream(23, 0), 50_000, 1)[:, 0]
    assert np.allclose(spec.mean(), a / 4.0)
    assert_matrix_close(xs.mean(axis=0), spec.mean(), xs)
    # support: x^T A^{-1} x = tr(A^{-1} X) <= 1 surely
    traces = np.einsum("ij,tji->t", np.linalg.inv(a), xs)
    assert traces.max() <= 1.0 + 1e-12
    assert traces.min() >= 0.0
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="ELLIPSOID_RANK1", dim=2, a=np.diag([1.0, 0.0]))


def test_betting_upper_only_for_bounded():
    spec = GeneratorSpec(kind="BOUNDED_PSD", dim=2, m=0.5 * np.eye(2), b=2.0 * np.eye(2))
    assert np.array_equal(spec.betting_upper(), 2.0 * np.eye(2))
    other = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=np.eye(2))
    with pytest.raises(ConfigError):
        other.betting_upper()
    assert not GeneratorSpec(kind="HEAVY_PSD", dim=2, scale=1.0, tail_index=2.0).deviations_symmetric()


def test_batch_matches_path_layout():
    spec = GeneratorSpec(kind="RADEMACHER_SCALED", dim=2, c=np.eye(2))
    batch = spec.sample_batch(substream(9, 0), 4, 6)
    assert batch.shape == (4, 6, 2, 2)
    single = spec.sample_path(substream(9, 0), 6)
    assert single.shape == (6, 2, 2)
    # every draw is symmetric
    assert np.array_equal(batch, np.swapaxes(batch, -1, -2))


def _same_state(a, b):
    """Equal bit-generator states (nested dicts holding arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_draw_builds_exact_slices_of_sample_batch(kind, d):
    spec = spec_of_kind(kind, d)
    trials, n, rows = 23, 7, 5
    g_batch, g_draw = substream(61, d), substream(61, d)
    stack = spec.sample_batch(g_batch, trials, n)
    draws = spec.draw(g_draw, trials, n)
    # the same RNG calls in the same order
    assert _same_state(g_draw.bit_generator.state, g_batch.bit_generator.state)
    assert draws.shape == stack.shape == (trials, n, d, d)
    for step in range(n):
        assert np.array_equal(draws[:, step], stack[:, step])
    # trial chunks, the last one ragged (23 = 4 x 5 + 3)
    for lo in range(0, trials, rows):
        assert np.array_equal(draws[lo:lo + rows], stack[lo:lo + rows])
        assert np.array_equal(draws[lo:lo + rows, n - 1], stack[lo:lo + rows, n - 1])
    assert np.array_equal(draws[:, :], stack)
    path = spec.sample_path(substream(62, d), n)
    assert np.array_equal(path, spec.sample_batch(substream(62, d), 1, n)[0])


@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_joined_draws_build_the_stacked_paths(kind, d):
    """Per-trial draws joined into one block build each trial's own path, bitwise."""
    spec = spec_of_kind(kind, d)
    n = 6
    joined = Draws.join([spec.draw(substream(63, t), 1, n) for t in range(9)])
    paths = np.stack([spec.sample_path(substream(63, t), n) for t in range(9)])
    assert joined.shape == paths.shape == (9, n, d, d)
    for step in range(n):
        assert joined[:, step].tobytes() == np.ascontiguousarray(paths[:, step]).tobytes()


def _built_by_expression(draws, key):
    """The matrices of ``draws[key]`` by each kind's elementwise expression,
    through temporaries, as indexing built them before it built in place."""
    g = draws.spec
    if g.kind in ("RADEMACHER_SCALED", "GAUSSIAN_SCALED"):
        return g.m + draws.coef[key][..., None, None] * g.c
    if g.kind == "BOUNDED_PSD":
        return g.m + draws.coef[key][..., None, None] * g._spread
    if g.kind == "SYMMETRIC_HEAVY":
        return g.m + draws.coef[key][..., None, None] * g.d_dir
    if g.kind == "EXCHANGEABLE_MIXTURE":
        t = draws.shift[key][..., None, None]
        return g.m + t * g.d_dir + draws.coef[key][..., None, None] * g.c
    v = draws.vec[key]
    outer = np.einsum("...i,...j->...ij", v, v)
    if g.kind == "IID_WISHART_LIKE":
        return g.m + g.scale * (outer - np.eye(g.dim))
    if g.kind == "HEAVY_PSD":
        return g.scale * draws.coef[key][..., None, None] * outer
    return outer


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_in_place_build_is_bitwise_the_expression(kind, d):
    """Indexing and ``steps`` build in place (``out = t C; out += M``): the
    bits of ``M + t C``, since IEEE addition commutes, in C order."""
    spec = spec_of_kind(kind, d)
    draws = spec.draw(substream(64, d), 11, 9)
    for key in ((slice(None), 4), (slice(None), slice(None)), (slice(2, 8), slice(3, 7)), (5, 0)):
        got, want = draws[key], _built_by_expression(draws, key)
        assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()
    for lo, hi in ((0, 1), (3, 7), (8, 9), (0, 9)):
        got = draws.steps(lo, hi)
        want = np.swapaxes(_built_by_expression(draws, (slice(None), slice(lo, hi))), 0, 1)
        assert got.flags.c_contiguous and got.shape == (hi - lo, 11, d, d)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_entries_are_the_step_major_entries_of_the_stack(kind, d):
    """``entries`` builds chosen entries of a run of steps, one step-major
    plane each, bitwise as the matrices of the stack hold them."""
    spec = spec_of_kind(kind, d)
    draws = spec.draw(substream(65, d), 11, 9)
    stack = draws[:, :]
    rng = np.random.default_rng(d)
    rows, cols = rng.integers(0, d, size=7), rng.integers(0, d, size=7)
    for lo, hi in ((0, 1), (3, 7), (8, 9), (0, 9)):
        got = draws.entries(lo, hi, rows, cols)
        want = np.moveaxis(stack[:, lo:hi][..., rows, cols], 0, -1)
        assert got.flags.c_contiguous and got.shape == (hi - lo, 7, 11)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "kind,params,field",
    [
        ("SYMMETRIC_HEAVY", {"d_dir": np.eye(2)}, "tail_index"),
        ("HEAVY_PSD", {"scale": 1.0}, "tail_index"),
        ("EXCHANGEABLE_MIXTURE", {"d_dir": np.eye(2), "c": np.eye(2)}, "tau"),
        ("IID_WISHART_LIKE", {}, "scale"),
        ("HEAVY_PSD", {"tail_index": 2.5}, "scale"),
    ],
)
def test_non_finite_scalars_are_rejected(kind, params, field, value):
    with pytest.raises(ConfigError, match=f"'{field}' must be a number"):
        GeneratorSpec(kind=kind, dim=2, **params, **{field: value})
