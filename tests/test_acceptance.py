"""End-to-end acceptance gate.

Each test is one numbered criterion, prints one summary line, and fails
loudly if its tolerance or time budget is exceeded.  Scales (numbers of
trials, dimensions, tolerances) are contractual — do not shrink them to
make a failure go away.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from matconc.cli import _dump_json
from matconc.errors import PreconditionFailed
from matconc.fixed_bounds import (
    MgfSpec,
    chebyshev1_bound,
    chebyshev_event,
    chebyshev_n_bound,
    chernoff1_bound,
    chernoff1_event,
    chernoff_hoeffding_bound,
    chernoff_hoeffding_event,
    mgf_trace_bound,
    pcheb1_bound,
    pcheb1_event,
    spectral_pcheb_moment_bound,
    sum_pth_moment_bound,
    ummi_bound,
    ummi_event,
    vector_pcheb_bound,
)
from matconc.generators import GeneratorSpec
from matconc.martingales import (
    build_factors,
    doob_bound,
    trace_pcheb_bound,
    ville_bound,
    ville_event,
    xmci2_bound,
    xmci_bound,
    xmpci_bound,
)
from matconc.randomizers import MatrixRandomizer
from matconc.rng import substream
from matconc.scalar_e import (
    TraceExpState,
    hoeffding_eprocess_value,
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
from matconc.simulator import McConfig, default_generator, run_coverage, run_default_suite
from matconc.symmat import (
    eigh_decomp,
    loewner_leq,
    mat_exp,
    mat_log,
    mat_sqrt,
    trace,
    tr_log,
)

from conftest import FIXTURES, random_pd, random_symmetric


def rel_err(got, want):
    scale = max(1.0, float(np.linalg.norm(want, 2)))
    return float(np.linalg.norm(got - want, 2)) / scale


def test_criterion_01_spectral_identities():
    t0 = time.time()
    gen = np.random.default_rng(1001)
    worst = 0.0
    count = 0
    for d in (1, 2, 5, 20):
        for _ in range(250):
            a = random_symmetric(gen, d, scale=1.0)
            worst = max(worst, rel_err(mat_log(mat_exp(a)), a))
            dec = eigh_decomp(a)
            recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
            worst = max(worst, rel_err(recon, a))
            p = random_pd(gen, d)
            q = random_pd(gen, d)
            root = mat_sqrt(p)
            lhs = tr_log(root @ q @ root)
            rhs = tr_log(p) + tr_log(q)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            count += 1
    elapsed = time.time() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"[criterion 01] PASS spectral identities: {count} matrices, "
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_operator_monotonicity():
    t0 = time.time()
    gen = np.random.default_rng(1002)
    for _ in range(1000):
        d = int(gen.integers(1, 5))
        a = random_pd(gen, d)
        b = a + 3.0 * random_pd(gen, d)
        assert loewner_leq(mat_log(a), mat_log(b))
        assert loewner_leq(mat_sqrt(a), mat_sqrt(b))
    with open(os.path.join(FIXTURES, "square_not_monotone.json")) as fh:
        fix = json.load(fh)
    a = np.array(fix["a"])
    b = np.array(fix["b"])
    assert loewner_leq(a, b)
    assert not loewner_leq(a @ a, b @ b)
    assert np.linalg.eigvalsh(b @ b - a @ a)[0] == pytest.approx(
        fix["min_eig_sq_diff"], rel=1e-9
    )
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"[criterion 02] PASS log/sqrt monotone on 1000 pairs; persisted 2x2 "
          f"square counterexample holds, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_03_coverage_matrix():
    t0 = time.time()
    reports = run_default_suite(
        dims=(1, 2, 5),
        trials_fixed=100_000,
        trials_path=10_000,
        horizon=200,
        workers=1,
        base_seed=20240817,
    )
    elapsed = time.time() - t0
    bad = [r for r in reports if r.event_freq > r.stated_bound + 3.0 * r.stderr]
    for r in bad:
        print(f"  VIOLATION {r.name}: freq {r.event_freq:.5f} "
              f"vs bound {r.stated_bound:.5f} (stderr {r.stderr:.5f})")
    assert not bad
    assert len(reports) >= 18 * 3
    assert elapsed < 900.0
    print(f"[criterion 03] PASS coverage: {len(reports)} (bound, generator, dim) "
          f"runs all within bound + 3 stderr, {elapsed:.0f}s")


def test_criterion_04_ellipsoid_equality():
    a = np.diag([1.0, 3.0])
    gen = GeneratorSpec(kind="ELLIPSOID_RANK1", dim=2, a=a)
    rep = run_coverage("UMMI", gen, McConfig(trials=1_000_000, base_seed=44))
    # bound = tr(A^{-1} E x x^T) = 1/2 exactly for this generator
    assert rep.stated_bound == pytest.approx(0.5, rel=1e-12)
    assert abs(rep.event_freq - rep.stated_bound) <= 3.0 * rep.stderr
    print(f"[criterion 04] PASS equality case: freq {rep.event_freq:.5f} vs "
          f"bound {rep.stated_bound} within 3 x {rep.stderr:.5f} on 1e6 draws")


def test_criterion_05_hoeffding_closed_form():
    d, alpha, n, b_op = 2, 0.05, 100, 1.0
    length = math.log(d / alpha)  # log 40
    gamma = math.sqrt(2.0 * length / (n * b_op))
    got = usmhi_threshold([gamma] * n, [np.eye(d)] * n, alpha, 1.0, d)
    want = math.sqrt(2.0 * length / n)
    classical = mhi_threshold(b_op, n, d, alpha)
    assert abs(got - want) <= 1e-10
    assert classical == pytest.approx(math.sqrt(8.0 * length / n), abs=1e-10)
    assert got < classical
    print(f"[criterion 05] PASS closed form: threshold {got:.12f} = "
          f"sqrt(2 log 40 / 100) and < classical {classical:.12f}")


def test_criterion_06_one_dimensional_reductions():
    gen = np.random.default_rng(1006)
    checked = 0
    for _ in range(100):
        m0 = float(gen.uniform(0.1, 2.0))
        v = float(gen.uniform(0.1, 3.0))
        vp = float(gen.uniform(0.1, 3.0))
        a = float(gen.uniform(0.5, 4.0))
        p = float(gen.uniform(1.0, 2.0))
        g = float(gen.uniform(0.1, 2.0))
        n = int(gen.integers(1, 50))
        c = float(gen.uniform(0.1, 2.0))
        alpha = float(gen.uniform(0.01, 0.5))
        u = float(gen.uniform(0.05, 1.0))
        e1 = lambda x: np.array([[x]])
        tol = dict(rel=1e-12)
        # one-shot Markov / Chebyshev family against the scalar formulas
        assert ummi_bound(e1(m0), e1(a)) == pytest.approx(m0 / a, **tol)
        assert chebyshev1_bound(e1(v), e1(a)) == pytest.approx(v / a**2, **tol)
        assert chebyshev_n_bound(e1(v), e1(a), n) == pytest.approx(v / (n * a**2), **tol)
        assert pcheb1_bound(e1(vp), e1(a), p) == pytest.approx(vp / a**p, **tol)
        assert vector_pcheb_bound(vp, 1, n, p, a) == pytest.approx(
            2.0 ** (2.0 - p) * vp / (n ** (p - 1.0) * a**p), **tol
        )
        assert sum_pth_moment_bound(vp, n, p) == pytest.approx(
            2.0 ** (2.0 - p) * n * vp, **tol
        )
        assert spectral_pcheb_moment_bound(vp, 1, n, p) == pytest.approx(
            2.0 ** (2.0 - p) * n * vp, **tol
        )
        # Chernoff-Hoeffding per MGF family: bound = G(gamma/n)^n e^{-gamma a}
        lam = g / n
        rows = {
            "RADEMACHER": math.exp(lam * lam * c * c / 2.0),
            "UNI_GAUSSIAN": math.exp(lam * lam * c * c / 2.0),
            "SYM_HOEFFDING": math.exp(lam * lam * v / 2.0),
            "BENNETT_I": math.exp((math.expm1(lam) - lam) * v),
            "BENNETT_II": math.exp((math.expm1(lam) - lam) * v),
        }
        for kind, g_row in rows.items():
            mat = e1(c) if kind in ("RADEMACHER", "UNI_GAUSSIAN") else e1(v)
            spec = MgfSpec(kind, mat)
            assert mgf_trace_bound(spec, g, n) == pytest.approx(g_row**n, **tol)
            assert chernoff_hoeffding_bound(spec, g, n, a) == pytest.approx(
                g_row**n * math.exp(-g * a), **tol
            )
        exp_m = float(gen.uniform(0.5, 3.0))
        assert chernoff1_bound(e1(exp_m), e1(a), g) == pytest.approx(
            math.exp(-2.0 * g * a) * exp_m, **tol
        )
        # process-threshold bounds
        assert ville_bound(e1(m0), e1(a)) == pytest.approx(m0 / a, **tol)
        assert doob_bound(e1(m0), e1(a)) == pytest.approx(m0 / a, **tol)
        assert xmci_bound(e1(v), e1(a)) == pytest.approx(v / a**2, **tol)
        assert xmci2_bound(e1(v), e1(a), n) == pytest.approx(v / (n * a**2), **tol)
        assert xmpci_bound(e1(vp), e1(a), p) == pytest.approx(vp / a**p, **tol)
        assert trace_pcheb_bound(vp, a, p) == pytest.approx(vp / a**p, **tol)
        # stopped Hoeffding threshold at d=1 is the scalar expression
        gs = [g / math.sqrt(i + 1) for i in range(n)]
        want = (math.log(u / alpha) + 0.5 * v * sum(x * x for x in gs)) / sum(gs)
        got = usmhi_threshold(gs, [e1(v)] * n, alpha, u, 1)
        assert got == pytest.approx(want, **tol)
        checked += 1
    print(f"[criterion 06] PASS d=1 reductions: all evaluators match the scalar "
          f"formulas on {checked} random parameter sets")


def test_criterion_07_matrix_vs_scalar_test_propositions():
    alpha = 0.05
    d = 2
    a_iso = (d / alpha) * np.eye(d)
    gen = substream(1007, 0)
    # inclusion: with A = (d/alpha) I, a MATRIX rejection forces a SCALAR one
    rejected = 0
    violations = 0
    for _ in range(100_000):
        g = gen.standard_normal(d)
        y = 30.0 * np.outer(g, g)  # PSD with lambda_max often past 40
        m_rej = matrix_test_decide(y, a_iso)
        s_rej = scalar_test_decide(trace(y), d, alpha)
        if m_rej:
            rejected += 1
            if not s_rej:
                violations += 1
    assert violations == 0
    assert rejected > 1000  # the check must not be vacuous

    # fixture A with tr(A^{-1}) = 0.05 and unequal eigenvalues
    a_fix = np.diag([21.0, 420.0])
    assert trace(np.linalg.inv(a_fix)) == pytest.approx(alpha, rel=1e-12)
    # lambda_1 P_1 + eps I escapes A with a tiny trace: MATRIX only
    y_m = np.diag([21.0, 0.0]) + 0.1 * np.eye(2)
    assert matrix_test_decide(y_m, a_fix)
    assert not scalar_test_decide(trace(y_m), d, alpha)
    # 0.9 A stays below A with a huge trace: SCALAR only
    y_s = 0.9 * a_fix
    assert not matrix_test_decide(y_s, a_fix)
    assert scalar_test_decide(trace(y_s), d, alpha)

    # oracle threshold: always rejects once lambda_max(Y1) > 1/alpha
    alpha2 = 0.1
    gen2 = substream(1007, 1)
    for _ in range(1000):
        q, _ = np.linalg.qr(gen2.standard_normal((3, 3)))
        lam = np.sort(gen2.uniform(0.1, 5.0, size=3))
        lam[-1] = 1.0 / alpha2 + float(gen2.uniform(0.5, 30.0))
        y1 = (q * lam) @ q.T
        eps = 0.5 * (alpha2 - 1.0 / lam[-1])
        a_choice = oracle_A_choice(y1, alpha2, eps)
        assert matrix_test_decide(y1, a_choice)
    with pytest.raises(PreconditionFailed):
        oracle_A_choice(np.diag([1.0, 5.0]), alpha2, 0.01)
    print(f"[criterion 07] PASS test-comparison propositions: inclusion on 1e5 "
          f"draws ({rejected} rejections, 0 violations); both fixtures separate; "
          f"oracle threshold rejected 1000/1000")


def test_criterion_08_pathwise_sandwich():
    gen = np.random.default_rng(1008)
    worst_gap = math.inf
    for path in range(1000):
        if path % 2 == 0:
            spec = GeneratorSpec(
                kind="RADEMACHER_SCALED", dim=2,
                c=random_symmetric(gen, 2, scale=0.5),
            )
        else:
            spec = GeneratorSpec(
                kind="BOUNDED_PSD", dim=2, m=np.eye(2), b=3.0 * np.eye(2)
            )
        b = spec.sq_dev_bound()
        v = spec.variance()
        xs = spec.sample_batch(gen, 1, 50)[0]
        state = TraceExpState.start(2)
        for i, x in enumerate(xs):
            state = sn_process_step(
                state, x, spec.m, v, 0.4 / math.sqrt(i + 1), b=b
            )
            lo = hoeffding_eprocess_value(state)
            hi = state.value()
            assert lo <= hi * (1.0 + 1e-12)
            worst_gap = min(worst_gap, hi - lo)
    print(f"[criterion 08] PASS sandwich: closed-form e-process never exceeded "
          f"the trace-exp value on 1000 x 50 steps (smallest slack {worst_gap:.3e})")


def test_criterion_09_builder_one_step_means():
    n_draws = 100_000
    cases = {
        "MGF": dict(
            gen=GeneratorSpec(
                kind="RADEMACHER_SCALED", dim=2,
                c=np.array([[0.6, 0.1], [0.1, 0.3]]),
            ),
            gamma=0.5,
            kwargs=lambda g: {"mgf": MgfSpec("RADEMACHER", g.c)},
        ),
        "BETTING": dict(
            gen=GeneratorSpec(kind="BOUNDED_PSD", dim=2, m=np.eye(2), b=3.0 * np.eye(2)),
            gamma=0.2,
            kwargs=lambda g: {"b": g.betting_upper()},
        ),
        "SELF_NORMALIZED": dict(
            gen=GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=0.5 * np.eye(2)),
            gamma=0.6,
            kwargs=lambda g: {"v": g.variance()},
        ),
        "SYMMETRIC_DIST": dict(
            gen=GeneratorSpec(
                kind="SYMMETRIC_HEAVY", dim=2, d_dir=0.4 * np.eye(2), tail_index=1.5
            ),
            gamma=0.7,
            kwargs=lambda g: {},
        ),
    }
    lines = []
    for i, (kind, case) in enumerate(cases.items()):
        g = case["gen"]
        kwargs = case["kwargs"](g)
        gamma = case["gamma"]
        xs = g.sample_batch(substream(1009, i), n_draws, 1)[:, 0]
        e_fac, a_fac = build_factors(kind, xs, g.m, gamma, **kwargs)
        root = mat_sqrt(a_fac)
        samples = root @ e_fac @ root
        mean_s = samples.mean(axis=0)
        top = np.linalg.eigh(mean_s)[1][:, -1]
        proj = np.einsum("i,tij,j->t", top, samples, top)
        exceed = (proj.mean() - 1.0) / (proj.std(ddof=1) / math.sqrt(n_draws))
        assert exceed <= 3.0, (kind, proj.mean(), exceed)
        lines.append(f"{kind} {exceed:+.2f}se")
    print(f"[criterion 09] PASS builder one-step means on 1e5 draws each: "
          + ", ".join(lines))


def test_criterion_10_randomization_dominance():
    violations = 0
    checked = 0

    # fixed-time bounds: threshold at u must reject whenever u = 1 does
    gen_u = substream(1010, 99)
    fixtures = []
    heavy = default_generator("UMMI", "HEAVY_PSD", 2)
    fixtures.append(("UMMI", heavy, None))
    gauss = GeneratorSpec(kind="GAUSSIAN_SCALED", dim=2, c=0.7 * np.eye(2))
    fixtures.append(("CHEB", gauss, None))
    shvy = GeneratorSpec(kind="SYMMETRIC_HEAVY", dim=2, d_dir=0.5 * np.eye(2),
                         tail_index=1.75)
    fixtures.append(("PCHEB", shvy, 1.5))
    rad = GeneratorSpec(kind="RADEMACHER_SCALED", dim=2, c=np.diag([0.8, 0.5]))
    fixtures.append(("CHERNOFF", rad, None))
    fixtures.append(("CH", rad, None))
    r_mat = MatrixRandomizer(kind="scaled_identity", dim=2)
    a_thr = 0.8 * np.eye(2)
    for fam, (tag, g, p) in enumerate(fixtures):
        xs = g.sample_batch(substream(1010, fam), 2000, 4)
        for t in range(2000):
            u = 1.0 - float(gen_u.random())
            u_mat = r_mat.sample_given(u)
            one = np.eye(2)
            if tag == "UMMI":
                at_one = ummi_event(xs[t, 0], a_thr, one)
                at_u = ummi_event(xs[t, 0], a_thr, u_mat)
            elif tag == "CHEB":
                at_one = chebyshev_event(xs[t, 0], g.m, a_thr, one)
                at_u = chebyshev_event(xs[t, 0], g.m, a_thr, u_mat)
            elif tag == "PCHEB":
                at_one = pcheb1_event(xs[t, 0], g.m, a_thr, one, p)
                at_u = pcheb1_event(xs[t, 0], g.m, a_thr, u_mat, p)
            elif tag == "CHERNOFF":
                at_one = chernoff1_event(xs[t, 0], a_thr, one, 0.8)
                at_u = chernoff1_event(xs[t, 0], a_thr, u_mat, 0.8)
            else:
                at_one = chernoff_hoeffding_event(xs[t], g.m, 0.5, 1.2, one)
                at_u = chernoff_hoeffding_event(xs[t], g.m, 0.5, 1.2, u_mat)
            checked += 1
            if at_one and not at_u:
                violations += 1

    # stopped processes: randomized decisions contain the u = 1 decisions
    g = GeneratorSpec(kind="RADEMACHER_SCALED", dim=2, c=0.6 * np.eye(2))
    v = g.variance()
    b = g.sq_dev_bound()
    alpha = 0.2
    a_ville = np.diag([6.0, 15.0])
    for t in range(3400):
        data_gen, rand_gen = substream(1010, 7, t, 0), substream(1010, 7, t, 1)
        u = 1.0 - float(rand_gen.random())
        xs = g.sample_batch(data_gen, 1, 10)[0]
        state = TraceExpState.start(2)
        left = np.eye(2)
        for i, x in enumerate(xs):
            gamma = 0.5 / math.sqrt(i + 1)
            state = sn_process_step(state, x, g.m, v, gamma, b=b)
            e_fac, a_fac = build_factors("SELF_NORMALIZED", x, g.m, gamma, v=v)
            left = left @ mat_sqrt(a_fac) @ mat_sqrt(e_fac)
        y_tau = left @ left.T
        checked += 3
        if ville_event(y_tau, a_ville, np.eye(2)) and not ville_event(
            y_tau, a_ville, u * np.eye(2)
        ):
            violations += 1
        if ursn_event(state, alpha, 1.0) and not ursn_event(state, alpha, u):
            violations += 1
        dev = state.weighted_dev_mean()
        thr_one = usmhi_threshold_from_state(state, alpha, 1.0)
        thr_u = usmhi_threshold_from_state(state, alpha, u)
        if usmhi_event(dev, thr_one) and not usmhi_event(dev, thr_u):
            violations += 1
    assert violations == 0
    assert checked >= 20_000
    print(f"[criterion 10] PASS dominance: randomized rejection regions "
          f"contained every u=1 rejection on {checked} path checks")


def test_criterion_11_byte_identical_reports():
    kwargs = dict(
        dims=(1, 2, 5), trials_fixed=2000, trials_path=500, horizon=100,
        base_seed=777,
    )
    first = run_default_suite(workers=1, **kwargs)
    second = run_default_suite(workers=1, **kwargs)
    bytes1 = _dump_json([r.to_dict() for r in first]).encode()
    bytes2 = _dump_json([r.to_dict() for r in second]).encode()
    assert bytes1 == bytes2
    # scheduling must not matter either
    third = run_default_suite(workers=3, **kwargs)
    bytes3 = _dump_json([r.to_dict() for r in third]).encode()
    assert bytes3 == bytes1
    # and the seed must matter
    other = run_default_suite(workers=1, dims=(1, 2, 5), trials_fixed=2000,
                              trials_path=500, horizon=100, base_seed=778)
    assert _dump_json([r.to_dict() for r in other]).encode() != bytes1
    print(f"[criterion 11] PASS determinism: {len(bytes1)}-byte report identical "
          f"across reruns and across 1 vs 3 workers")
