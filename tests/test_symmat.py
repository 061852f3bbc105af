import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matconc import fixed_bounds as fb
from matconc import martingales as mg
from matconc import scalar_e as se
from matconc.errors import DimMismatch, DomainError
from matconc.symmat import (
    apply_spectral,
    eigh_decomp,
    is_psd,
    lambda_max,
    lambda_min,
    loewner_leq,
    mat_abs,
    mat_exp,
    mat_inv,
    mat_log,
    mat_pow,
    mat_sqrt,
    parse_matrix_json,
    spectral_norm,
    symmat,
    tr_log,
    trace,
    trace_product,
)

from conftest import FIXTURES, random_pd, random_psd, random_symmetric


def expm_series(a, terms=40):
    """Scaling-and-squaring Taylor exponential, independent of eigh."""
    a = np.asarray(a, dtype=np.float64)
    norm = np.abs(a).sum(axis=1).max()
    k = max(0, int(math.ceil(math.log2(max(norm, 1e-300)))) + 1)
    small = a / 2.0**k
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for i in range(1, terms):
        term = term @ small / i
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# construction and parsing


def test_symmat_symmetrizes_and_copies():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmat(m)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == 1.0
    m[0, 0] = 99.0
    assert s[0, 0] == 1.0  # copy was made


def test_symmat_rejects_bad_shapes_and_values():
    with pytest.raises(DimMismatch):
        symmat(np.ones((2, 3)))
    with pytest.raises(DimMismatch):
        symmat(np.ones(4))
    with pytest.raises(DomainError):
        symmat([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(DomainError):
        symmat([[np.inf, 0.0], [0.0, 1.0]])


def test_parse_matrix_json():
    a = parse_matrix_json([[1.0, 2.0], [2.0, 5.0]])
    assert a.shape == (2, 2)
    with pytest.raises(DimMismatch):
        parse_matrix_json([[1.0, 2.0], [2.0]])
    with pytest.raises(DimMismatch):
        parse_matrix_json([])
    with pytest.raises(DomainError):
        parse_matrix_json([[1.0, "x"], ["x", 1.0]])
    # asymmetry beyond the load tolerance is an input error, not noise
    with pytest.raises(DomainError):
        parse_matrix_json([[1.0, 0.5], [0.0, 1.0]])
    # sub-tolerance asymmetry is accepted and averaged away
    eps = 1e-9
    a = parse_matrix_json([[1.0, eps], [0.0, 1.0]])
    assert a[0, 1] == a[1, 0]
    # a boolean or a string is not a number, even where numpy would read one
    for bad in ([[1, True], [True, 1]], [[1.0, 0.0], [0.0, False]], [["1", 0], [0, 1]],
                [[True]], [["0.5"]], [[None]]):
        with pytest.raises(DomainError, match="matrix entries must be numbers"):
            parse_matrix_json(bad)
    with pytest.raises(DomainError, match="matrix entries must be finite"):
        parse_matrix_json([[10**400]])
    assert parse_matrix_json([[1, 2], [2, 3.5]]).tolist() == [[1.0, 2.0], [2.0, 3.5]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("literal", [[[1.7e308]], [[1.0, 1.7e308], [1.7e308, 1.0]],
                                     [[0.0, 1.7e308], [-1.7e308, 0.0]]])
def test_a_literal_whose_symmetric_part_overflows_is_rejected_without_warning(literal):
    with pytest.raises(DomainError):
        parse_matrix_json(literal)
    # one below: its symmetric part is finite
    assert parse_matrix_json([[8.9e307]]).tolist() == [[8.9e307]]


#: public functions of matrix arguments, and their arguments as nested lists
MATRIX_CALLS = {
    "lambda_max": (lambda_max, [[[1.0, 2.0], [2.0, 1.0]]]),
    "ummi_bound": (fb.ummi_bound, [[[1.0, 0.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, 3.0]]]),
    "xmci_bound": (mg.xmci_bound, [[[1.0]], [[2.0]]]),
    "matrix_test_decide": (se.matrix_test_decide, [[[3.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]]),
    "usmhi_threshold": (
        lambda bs: se.usmhi_threshold([0.5, 0.25], bs, 0.05, 1.0, 2),
        [[[[1.0, 0.0], [0.0, 2.0]], [[2.0, 1.0], [1.0, 2.0]]]],
    ),
}


@pytest.mark.parametrize("form", ["nested list", "int array"])
@pytest.mark.parametrize("name", sorted(MATRIX_CALLS))
def test_matrix_arguments_may_be_nested_lists_or_int_arrays(name, form):
    fn, args = MATRIX_CALLS[name]
    want = fn(*[np.asarray(a, dtype=np.float64) for a in args])
    if form == "int array":
        args = [np.asarray(a, dtype=np.int64) for a in args]
    assert fn(*args) == want


# ---------------------------------------------------------------------------
# spectral calculus against independent oracles


def test_mat_exp_matches_taylor_series(gen):
    for _ in range(200):
        d = int(gen.integers(1, 7))
        a = random_symmetric(gen, d, scale=2.0)
        e1 = mat_exp(a)
        e2 = expm_series(a)
        assert np.allclose(e1, e2, rtol=1e-12, atol=1e-12)


def test_mat_exp_2x2_closed_form():
    # exp of [[a, b], [b, a]] is e^a [[cosh b, sinh b], [sinh b, cosh b]]
    a, b = 0.7, -1.3
    got = mat_exp(np.array([[a, b], [b, a]]))
    want = math.exp(a) * np.array(
        [[math.cosh(b), math.sinh(b)], [math.sinh(b), math.cosh(b)]]
    )
    assert np.allclose(got, want, rtol=1e-14)


def test_exp_log_inversion(gen):
    for _ in range(100):
        d = int(gen.integers(1, 7))
        a = random_symmetric(gen, d)
        back = mat_log(mat_exp(a))
        assert np.allclose(back, a, rtol=1e-9, atol=1e-9)
        p = random_pd(gen, d)
        assert np.allclose(mat_exp(mat_log(p)), p, rtol=1e-9, atol=1e-9)


def test_mat_log_rejects_non_pd():
    with pytest.raises(DomainError):
        mat_log(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        mat_log(np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_mat_sqrt_squares_back(gen):
    for _ in range(100):
        d = int(gen.integers(1, 7))
        p = random_psd(gen, d)
        r = mat_sqrt(p)
        assert np.allclose(r @ r, p, rtol=1e-9, atol=1e-9)
        assert is_psd(r)


def test_mat_sqrt_clamps_roundoff_but_rejects_negative():
    tiny = np.array([[1.0, 0.0], [0.0, -1e-12]])
    r = mat_sqrt(tiny)
    assert r[1, 1] == 0.0
    with pytest.raises(DomainError):
        mat_sqrt(np.array([[1.0, 0.0], [0.0, -1e-3]]))


def test_mat_abs_is_sqrt_of_square(gen):
    for _ in range(50):
        a = random_symmetric(gen, 4)
        assert np.allclose(mat_abs(a), mat_sqrt(a @ a), atol=1e-9)
    w = eigh_decomp(mat_abs(random_symmetric(gen, 5))).eigenvalues
    assert np.all(w >= 0)


def test_mat_pow_integer_matches_matmul(gen):
    a = random_symmetric(gen, 3)
    assert np.allclose(mat_pow(a, 0), np.eye(3), atol=1e-12)
    assert np.allclose(mat_pow(a, 1), a, atol=1e-12)
    assert np.allclose(mat_pow(a, 3), a @ a @ a, atol=1e-10)
    p = random_pd(gen, 3)
    assert np.allclose(mat_pow(p, -1) @ p, np.eye(3), atol=1e-9)
    assert np.allclose(mat_inv(p), mat_pow(p, -1))


def test_mat_pow_fractional(gen):
    p = random_psd(gen, 4)
    half = mat_pow(p, 0.5)
    assert np.allclose(half, mat_sqrt(p), atol=1e-10)
    onep5 = mat_pow(p, 1.5)
    assert np.allclose(onep5, half @ p, atol=1e-9)
    with pytest.raises(DomainError):
        mat_pow(np.diag([1.0, -1.0]), 1.5)


def test_mat_pow_condition_guard():
    with pytest.raises(DomainError):
        mat_pow(np.diag([1.0, 1e-13]), -1.0)
    with pytest.raises(DomainError):
        mat_inv(np.diag([1.0, 0.0]))
    # right at a benign conditioning level it still works
    out = mat_inv(np.diag([1.0, 1e-6]))
    assert np.isclose(out[1, 1], 1e6)


@pytest.mark.parametrize("k", [-1.0, 0.5, 1.5, 2.0])
def test_mat_pow_stack_matches_per_matrix_loop(gen, k):
    stack = np.stack([random_pd(gen, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
    out = mat_pow(stack, k)
    assert out.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], mat_pow(stack[idx], k))
    # the negative-power guards apply to every matrix of the stack
    bad = stack.copy()
    bad[1, 2] = np.diag([1.0, 1.0, 1e-13])
    with pytest.raises(DomainError):
        mat_pow(bad, -1.0)
    with pytest.raises(DomainError):
        mat_pow(np.stack([np.eye(2), np.diag([1.0, -1.0])]), 1.5)


def test_trace_helpers(gen):
    a = random_symmetric(gen, 4)
    b = random_symmetric(gen, 4)
    assert np.isclose(trace_product(a, b), trace(a @ b), rtol=1e-12)
    p = random_pd(gen, 4)
    sign, logdet = np.linalg.slogdet(p)
    assert sign > 0
    assert np.isclose(tr_log(p), logdet, rtol=1e-10)
    with pytest.raises(DomainError):
        tr_log(np.diag([1.0, 0.0]))


def test_lambda_extremes_and_norm(gen):
    a = np.diag([3.0, -5.0, 1.0])
    assert lambda_max(a) == 3.0
    assert lambda_min(a) == -5.0
    assert spectral_norm(a) == 5.0
    v = gen.standard_normal(3)
    assert np.isclose(spectral_norm(np.outer(v, v)), v @ v, rtol=1e-12)


# ---------------------------------------------------------------------------
# order predicates


def test_loewner_basics(gen):
    a = random_symmetric(gen, 3)
    assert loewner_leq(a, a)
    bump = random_psd(gen, 3)
    assert loewner_leq(a, a + bump)
    assert not loewner_leq(a + np.eye(3), a)


def test_loewner_tolerance_treats_ties_as_ordered():
    a = np.eye(2)
    b = np.eye(2) * (1.0 - 1e-12)  # below a, but within relative tolerance
    assert loewner_leq(a, b)
    assert loewner_leq(b, a)
    assert not loewner_leq(a, a - 1e-4 * np.eye(2))


def test_is_psd_scale_relative():
    big = np.diag([1e12, -1.0])  # -1 is tiny next to 1e12
    assert is_psd(big)
    assert not is_psd(np.diag([1.0, -1e-4]))


def test_log_and_sqrt_are_operator_monotone(gen):
    for _ in range(200):
        d = int(gen.integers(2, 6))
        a = random_pd(gen, d)
        b = a + random_psd(gen, d)
        assert loewner_leq(mat_log(a), mat_log(b))
        assert loewner_leq(mat_sqrt(a), mat_sqrt(b))


def test_square_is_not_operator_monotone_fixture():
    with open(os.path.join(FIXTURES, "square_not_monotone.json")) as fh:
        fx = json.load(fh)
    a = parse_matrix_json(fx["a"])
    b = parse_matrix_json(fx["b"])
    assert loewner_leq(a, b)
    assert not loewner_leq(a @ a, b @ b)


def test_square_counterexamples_are_easy_to_find():
    gen = np.random.default_rng(424242)
    hits = 0
    for _ in range(500):
        a = random_symmetric(gen, 2)
        b = a + random_psd(gen, 2)
        if not loewner_leq(a @ a, b @ b):
            hits += 1
    assert hits > 0


def test_apply_spectral_validates():
    with pytest.raises(DomainError):
        apply_spectral(lambda w: w[:1], np.eye(2))
    with pytest.raises(DomainError):
        apply_spectral(lambda w: np.full_like(w, np.inf), np.eye(2))


def test_eigh_decomp_contract(gen):
    for _ in range(50):
        d = int(gen.integers(1, 8))
        a = random_symmetric(gen, d)
        dec = eigh_decomp(a)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        q = dec.eigenvectors
        assert np.allclose(q.T @ q, np.eye(d), atol=1e-9)
        recon = (q * dec.eigenvalues) @ q.T
        scale = max(1.0, np.abs(a).max())
        assert np.abs(recon - a).max() <= 1e-9 * scale


# ---------------------------------------------------------------------------
# property-based spot checks


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_symmat_output_exactly_symmetric(seed):
    g = np.random.default_rng(seed)
    m = g.standard_normal((3, 3))
    s = symmat(m)
    assert np.array_equal(s, s.T)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_exp_of_ordered_pair_preserves_trace_order(seed):
    # tr exp is monotone for the Loewner order even though exp is not
    g = np.random.default_rng(seed)
    a = random_symmetric(g, 3)
    b = a + random_psd(g, 3)
    assert trace(mat_exp(a)) <= trace(mat_exp(b)) * (1 + 1e-12)
