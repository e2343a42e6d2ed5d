"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import math
import time
from fractions import Fraction as F

import pytest

from taukit.partitions import Partition, enumerate_partitions, partitions_of
from taukit.symfun import Poly1, PolyRing, PolySeries, Times, cauchy_truncated, schur
from taukit.weights import (
    ConstantOneContent,
    LinearContent,
    QRationalContent,
    RationalContent,
    content_product,
    hook_product,
    rational_r_decomposition,
)
from taukit.tau import (
    Eigs,
    Formal,
    TauSpec,
    TInf,
    det_rep_derivatives,
    det_rep_one_side,
    det_rep_two_side,
    hirota_residual,
    ode_residual,
    q_difference_residual,
    tau_series,
)
from taukit import fock, models, oracle

from fraction_reference import (
    hook_product_q,
    mu_annihilation_residual,
    mu_series_coeffs,
    pochhammer_partition,
    q_pochhammer_partition,
)

ONE = ConstantOneContent()
LIN = LinearContent()


def report(num, name, ok, extra=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_cauchy_identity():
    t0 = time.time()
    lhs, rhs = cauchy_truncated(10)
    elapsed = time.time() - t0
    ok = (lhs == rhs) and elapsed < 10.0
    report(1, "Cauchy identity, bidegree 10", ok, f"{elapsed:.2f}s")


def test_criterion_02_fock_equivalence():
    t0 = time.time()
    D = 6
    ring = PolyRing.bi_times_ring(D, cap=2 * D)
    tsym = Times.symbolic(ring, D, offset=0)
    usym = Times.symbolic(ring, D, offset=D)
    ok = True
    for r, n in [(RationalContent(a=[F(1, 2)]), 0), (RationalContent(a=[F(1, 2)]), 1), (LIN, 2)]:
        vac = fock.FockVector.vacuum(n, D)
        X = fock.exp_action(
            [(usym.get(m), fock.FockOperator.minus_A(m, r)) for m in range(1, D + 1)], vac
        )
        Z = fock.exp_action(
            [(tsym.get(m), fock.FockOperator.H(-m)) for m in range(1, D + 1)], vac
        )
        got = fock.pair(Z, X)
        expect = tau_series(TauSpec(r, n, Formal(), Formal()), D).as_polyseries(ring)
        ok = ok and got == expect
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(2, "Fock expectation = weighted Schur series, weight 6", ok, f"{elapsed:.2f}s")


def test_criterion_03_lemma1_all_patterns():
    checked = 0
    ok = True
    for s in range(0, 4):
        for k in range(0, s + 1):
            for i_list in itertools.combinations(range(9), s):
                i_list = tuple(sorted(i_list, reverse=True))
                for j_list in itertools.combinations(range(1, 9), k):
                    j_list = tuple(sorted(j_list, reverse=True))
                    try:
                        lam = fock.lemma_partition(i_list, j_list)
                    except ValueError:
                        continue
                    if lam.weight > 5:
                        continue
                    rep = fock.lemma1_check(i_list, j_list)
                    ok = ok and rep["ok"]
                    checked += 1
    report(3, "signed-Schur mode formula, |lambda| <= 5", ok, f"{checked} patterns")


def test_criterion_04_determinant_formulas():
    one_side = det_rep_one_side(RationalContent(a=[3]), 2, 2, TInf(), 6).matches()
    two_n2 = det_rep_two_side(RationalContent(a=[F(1, 2)]), 2, 2, 8).matches()
    two_n3 = det_rep_two_side(RationalContent(a=[3]), 3, 3, 8).matches()
    hciz_n2 = det_rep_two_side(RationalContent(b=[0]), 2, 2, 8).matches()
    hciz_n3 = det_rep_two_side(RationalContent(b=[0]), 3, 3, 8).matches()
    deriv = det_rep_derivatives(LIN, 2, 6).matches()
    ok = one_side and two_n2 and two_n3 and hciz_n2 and hciz_n3 and deriv
    report(
        4,
        "determinant representations",
        ok,
        f"one-side={one_side} two-side(2,3)={two_n2},{two_n3} "
        f"exp-kernel(2,3)={hciz_n2},{hciz_n3} derivative={deriv}",
    )


def test_criterion_05_residuals():
    hirota_ok = all(
        hirota_residual(r, n, 6).is_zero()
        for r, n in [(ONE, 0), (RationalContent(a=[2]), 0), (LIN, 1)]
    )
    ode = ode_residual([F(1, 2), F(1, 3)], [F(5, 4)], 30)
    ode_ok = all(v == 0 for v in ode[:30])
    qres = q_difference_residual([1, 2], [3], F(1, 3), 30)
    q_ok = all(v == 0 for v in qres[:30])
    ok = hirota_ok and ode_ok and q_ok
    report(5, "Hirota / ODE / q-difference residuals", ok,
           f"hirota={hirota_ok} ode={ode_ok} qdiff={q_ok}")


def test_criterion_06_quartic_model():
    t0 = time.time()
    qs = models.quartic_series(2)
    order1_ok = qs.coefficient(1) == Poly1([F(-1, 4), 0, F(-1, 2)])
    wick_ok = all(qs.coefficient(k) == oracle.quartic_wick_order(k) for k in (1, 2))
    # report (not assert) the comparison with the reference second-order values
    inner = Poly1([])
    for lam in partitions_of(8):
        inner = inner + models.quartic_contribution(lam)
    reference_inner = Poly1([0, 0, 488, 0, 320, 0, 32])
    reference_final = Poly1([488, 0, 320, 0, 32])
    inner_match = inner == reference_inner
    final_ratio = None
    if qs.coefficient(2) != Poly1([]):
        final_ratio = reference_final(3) / qs.coefficient(2)(3)
    print(
        f"  quartic second-order report: intermediate polynomial "
        f"{'MATCHES' if inner_match else 'DIFFERS from'} the reference "
        f"32N^6+320N^4+488N^2; the often-quoted final value differs from "
        f"the exact coefficient by the constant factor {final_ratio} "
        f"(a dropped 1/256 normalization)."
    )
    elapsed = time.time() - t0
    ok = order1_ok and wick_ok and elapsed < 120.0
    report(6, "quartic model vs Wick oracle", ok,
           f"order1={order1_ok} wick={wick_ok} {elapsed:.2f}s")


def test_criterion_07_two_matrix_closed_form():
    ok = models.two_matrix_vs_closed(10)
    report(7, "two-matrix Gauss closed form, bidegree 10", ok)


def test_criterion_08_monte_carlo_identities():
    t0 = time.time()
    A = [F(1), F(1, 2)]
    B = [F(1), F(1, 3)]
    n = 2
    samples = 100000
    lams = [l for l in enumerate_partitions(3) if l.length <= n]
    checks = 0
    fails = 0
    seed = 2024
    for lam in lams:
        for fn in (oracle.mc_schur_unitary_identity, oracle.mc_schur_ginibre_identity):
            rep = fn(lam, A, B, n, samples, seed=seed)
            seed += 1
            checks += 1
            fails += 0 if rep["pass"] else 1
    for lam in lams:
        for mu in lams:
            if lam.weight == 0 and mu.weight == 0:
                continue
            for fn in (oracle.mc_schur_unitary_identity, oracle.mc_schur_ginibre_identity):
                rep = fn(lam, A, B, n, samples, seed=seed, mu=mu)
                seed += 1
                checks += 1
                fails += 0 if rep["pass"] else 1
    # determinism: byte-exact repetition
    r1 = oracle.mc_schur_unitary_identity(Partition([2]), A, B, n, 5000, seed=7)
    r2 = oracle.mc_schur_unitary_identity(Partition([2]), A, B, n, 5000, seed=7)
    det_ok = r1 == r2
    elapsed = time.time() - t0
    # false-positive budget: proportional to the documented 1-in-20 allowance
    budget = max(1, checks // 20)
    ok = fails <= budget and det_ok and elapsed < 300.0
    report(8, "Monte Carlo unitary/Gaussian identities", ok,
           f"{checks} checks, {fails} outliers (budget {budget}), "
           f"deterministic={det_ok}, {elapsed:.1f}s")


def test_criterion_09_moment_measures():
    diag_ok = True
    for nn in range(5):
        v = oracle.moment_real_imaginary_limit(nn, nn)
        target = -2j * math.pi * math.factorial(nn)
        diag_ok = diag_ok and abs(v - target) / abs(target) < 1e-6
    off_ok = all(
        abs(oracle.moment_real_imaginary_limit(nn, mm))
        < 1e-6 * 2 * math.pi * math.factorial(max(nn, mm))
        for nn, mm in [(0, 2), (1, 3)]
    )
    unit_ok = True
    a = F(-1)
    from taukit.weights import pochhammer

    for nn in range(5):
        v = oracle.moment_unit_interval(nn, a)
        target = float(F(1, 2) * math.factorial(nn) / pochhammer(F(3), nn))
        unit_ok = unit_ok and abs(v - target) / abs(target) < 1e-6
    ann_ok = True
    for r in (LIN.scaled(-1), RationalContent(a=[0], b=[F(-5, 2)])):
        cs = mu_series_coeffs(r, 12)
        ann_ok = ann_ok and all(v == 0 for v in mu_annihilation_residual(cs, r))
    ok = diag_ok and off_ok and unit_ok and ann_ok
    report(9, "moment measures", ok,
           f"imag-axis={diag_ok and off_ok} unit-interval={unit_ok} annihilation={ann_ok}")


def test_criterion_10_rational_r_lemmas():
    q = F(1, 3)
    r = RationalContent(a=[F(1, 2), F(7, 3)], b=[F(9, 2)])
    rq = QRationalContent(a=[1, 3], b=[5], q=q)
    ok = True
    for lam in enumerate_partitions(6):
        rational_r_decomposition(r, 1, lam)  # raises on mismatch
        rational_r_decomposition(rq, 1, lam)
        # Pochhammer symbols: row definition vs cell product
        ok = ok and q_pochhammer_partition(2, q, lam) == content_product(
            QRationalContent(a=[2], q=q), 0, lam
        )
        a = F(7, 3)
        ok = ok and pochhammer_partition(a, lam) == content_product(
            RationalContent(a=[a]), 0, lam
        )
        # large-weight limits of the Schur specializations
        K = max(lam.weight, 1)
        ok = ok and schur(lam, Times.exp_point(K)) == F(1, hook_product(lam))
        ok = ok and schur(lam, Times.q_geometric(q, K)) == q ** lam.n_stat() / hook_product_q(lam, q)
    report(10, "rational-r factorization lemmas", ok)


def test_criterion_11_trace_formula():
    ok = True
    for r in (RationalContent(a=[F(1, 2)]), RationalContent(a=[1], b=[F(5, 2)])):
        for n in (0, 1):
            tr = fock.trace_h0(r, n, 6)
            for d in range(7):
                direct = sum(
                    (content_product(r, n, lam) for lam in partitions_of(d)),
                    start=F(0),
                )
                ok = ok and tr[d] == direct
    report(11, "graded trace = weight sum", ok)
