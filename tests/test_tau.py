from fractions import Fraction as F
from math import factorial

import pytest

from taukit.partitions import Partition, enumerate_partitions
from taukit.symfun import PolyRing, PolySeries, Times, exp_series, schur
from taukit.tau import (
    Eigs,
    Formal,
    QGeo,
    TauSpec,
    TInf,
    WeightA,
    baker_akhiezer,
    baker_akhiezer_dual,
    det_rep_derivatives,
    det_rep_one_side,
    det_rep_two_side,
    det_two_side_prefactor,
    hirota_residual,
    hyper_pfs,
    hyper_q,
    hyper_two_arg,
    ode_residual,
    pfs_one_var_coeffs,
    q_difference_residual,
    qphi_one_var_coeffs,
    symmetry_checks,
    tau_series,
)
from taukit.weights import (
    ConstantOneContent,
    ContentPoleError,
    LinearContent,
    QRationalContent,
    RationalContent,
    content_product,
    hook_product,
    hook_product_q,
    pochhammer_partition,
    q_pochhammer_partition,
)

ONE = ConstantOneContent()
LIN = LinearContent()


def test_tau_series_r_one_is_vacuum_exponential():
    D = 6
    ring = PolyRing.bi_times_ring(D, cap=2 * D)
    got = tau_series(TauSpec(ONE, 0, Formal(), Formal()), D).as_polyseries(ring)
    f = ring.zero()
    for m in range(1, D + 1):
        f = f + (ring.var(m - 1) * ring.var(D + m - 1)) * m
    assert got == exp_series(f)


def test_tau_series_two_matrix_weights():
    # r(k) = k at charge 1: only single rows survive, with weight m!
    ts = tau_series(TauSpec(LIN, 1, Formal(), Formal()), 7)
    assert set(ts.coeffs) == {Partition([m]) for m in range(8)}
    for lam, c in ts.items():
        assert c == factorial(lam.weight)


def test_zero_truncation_row_and_column():
    # r(n - k) = 0 kills l(lambda) > k; mirrored on the column side
    r = RationalContent(a=[-2])  # zero at k = 2
    ts = tau_series(TauSpec(r, 0, Formal(), Formal()), 6)  # r(0-(-...)): zero at +2
    assert all(lam.part(1) <= 2 for lam in ts.coeffs)
    ts2 = tau_series(TauSpec(r, 4, Formal(), Formal()), 6)  # zero at 4-2: row cut
    assert all(lam.length <= 2 for lam in ts2.coeffs)


def test_tau_pole_raises():
    r = RationalContent(b=[0])
    with pytest.raises(ContentPoleError):
        tau_series(TauSpec(r, 0, Formal(), Formal()), 3)


def test_eigenvalue_side_restricts_length():
    ts = tau_series(TauSpec(ONE, 0, Eigs([F(1, 2), F(1, 3)]), Formal()), 5)
    assert all(lam.length <= 2 for lam in ts.coeffs)


def test_hyper_pfs_against_one_variable_recurrence():
    a, b, c = F(1, 2), F(1, 3), F(5, 4)
    D = 30
    ts = hyper_pfs([a, b], [c], 0, Eigs([F(1)]), D)
    assert ts.one_variable_coeffs() == pfs_one_var_coeffs([a, b], [c], D)
    # p=s=0 exponential
    ts0 = hyper_pfs([], [], 0, Eigs([F(1)]), 8)
    assert ts0.one_variable_coeffs() == [F(1, factorial(m)) for m in range(9)]
    # 1F0(a;x) = (1-x)^{-a}
    cs = pfs_one_var_coeffs([F(2, 3)], [], 8)
    from taukit.weights import pochhammer

    assert cs == [pochhammer(F(2, 3), n) / factorial(n) for n in range(9)]
    # 2F1 coefficient of x^2
    assert pfs_one_var_coeffs([a, b], [c], 2)[2] == a * (a + 1) * b * (b + 1) / (c * (c + 1) * 2)


def test_hyper_pfs_matrix_argument_weights():
    # coefficients are prod (a_i+M)_lam / prod (b_j+M)_lam / H_lam * s_lam(x)
    a, b, M = F(1, 2), F(5, 4), 1
    xs = [F(1, 2), F(1, 3)]
    ts = hyper_pfs([a], [b], M, Eigs(xs), 5)
    from taukit.symfun import schur_from_eigenvalues

    for lam, got in ts.items():
        expect = (
            pochhammer_partition(a + M, lam)
            / pochhammer_partition(b + M, lam)
            / hook_product(lam)
            * schur_from_eigenvalues(lam, xs)
        )
        assert got == expect, lam


def test_hyper_two_arg():
    xs = [F(1, 2), F(1, 5)]
    ys = [F(1, 3), F(1, 7)]
    N = 2
    ts = hyper_two_arg([], [], 0, xs, ys, 4)
    # degree-1 term: (sum x)(sum y)/N
    assert ts.coeff(Partition([1])) == (xs[0] + xs[1]) * (ys[0] + ys[1]) / N
    assert ts.coeff(Partition([])) == 1
    # N=1 reduces to the ordinary series in xy
    ts1 = hyper_two_arg([F(1, 2)], [F(4, 3)], 0, [F(1, 2)], [F(1, 3)], 20)
    cs = ts1.one_variable_coeffs()
    ref = pfs_one_var_coeffs([F(1, 2)], [F(4, 3)], 20)
    xy = F(1, 6)
    assert cs == [r * xy**m for m, r in enumerate(ref)]


def test_hyper_q_single_and_two_sets():
    q = F(1, 3)
    # q-exponential: coefficients 1/(q;q)_n
    from taukit.weights import q_pochhammer

    ts = hyper_q([], [], q, 0, [F(1)], None, 8)
    assert ts.one_variable_coeffs() == [1 / q_pochhammer(q, q, n) for n in range(9)]
    # N=1 basic series with parameters
    ts2 = hyper_q([1, 2], [3], q, 0, [F(1)], None, 30)
    assert ts2.one_variable_coeffs() == qphi_one_var_coeffs([1, 2], [3], q, 30)
    # two sets at N=1 reduce to the one-variable series in xy
    ts3 = hyper_q([1], [2], q, 0, [F(1, 2)], [F(1, 3)], 12)
    ref = qphi_one_var_coeffs([1], [2], q, 12)
    xy = F(1, 6)
    assert ts3.one_variable_coeffs() == [r * xy**m for m, r in enumerate(ref)]
    # single-set weights: q^{n(lam)}/H_lam(q) times the q-Pochhammer ratio
    xs = [F(1, 2), F(1, 3)]
    ts4 = hyper_q([1], [4], q, 1, xs, None, 4)
    from taukit.symfun import schur_from_eigenvalues

    for lam, got in ts4.items():
        expect = (
            q_pochhammer_partition(1 + 1, q, lam)
            / q_pochhammer_partition(4 + 1, q, lam)
            * q ** lam.n_stat()
            / hook_product_q(lam, q)
            * schur_from_eigenvalues(lam, xs)
        )
        assert got == expect, lam


def test_q_to_one_degeneration_trend():
    # rescaled qPhi coefficients approach the pFs coefficients as q -> 1
    from taukit.symfun import schur_from_eigenvalues

    a, b = [1, 2], [3]
    D = 5
    errs = []
    for eps in (F(1, 2), F(1, 4), F(1, 8)):
        q = 1 - eps
        ts = hyper_q(a, b, q, 0, [F(1), F(1, 2)], None, D)
        worst = F(0)
        for lam in ts.coeffs:
            if lam.weight == 0:
                continue
            den = pochhammer_partition(F(3), lam)
            if den == 0:
                continue
            target = (
                pochhammer_partition(F(1), lam)
                * pochhammer_partition(F(2), lam)
                / den
                / hook_product(lam)
            )
            sx = schur_from_eigenvalues(lam, [F(1), F(1, 2)])
            if sx == 0 or target == 0:
                continue
            scaled = ts.coeff(lam) / sx * (1 - q) ** (lam.weight * (len(b) + 1 - len(a)))
            worst = max(worst, abs(scaled / target - 1))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2], errs


def test_det_rep_one_side():
    assert det_rep_one_side(RationalContent(a=[3]), 1, 1, TInf(), 6).matches()
    assert det_rep_one_side(RationalContent(a=[3]), 2, 2, TInf(), 6).matches()
    assert det_rep_one_side(LIN, 2, 2, WeightA(F(1, 2)), 5).matches()


def test_det_rep_two_side():
    assert det_rep_two_side(RationalContent(a=[3]), 1, 1, 6).matches()
    assert det_rep_two_side(RationalContent(a=[F(1, 2)]), 2, 2, 6).matches()
    assert det_rep_two_side(ONE, 2, 2, 6).matches()  # Cauchy determinant
    # kernel example: r(k) = 1/k at charge 1 gives the truncated exponential
    r = RationalContent(b=[0])
    kernel = [F(1)]
    acc = F(1)
    for j in range(1, 9):
        acc *= r(j)
        kernel.append(acc)
    assert kernel == [F(1, factorial(j)) for j in range(9)]


def test_det_two_side_prefactor_degenerations():
    # N = 1: no prefactor; r = 1: no prefactor; HCIZ: inverse superfactorial
    assert det_two_side_prefactor(RationalContent(a=[5]), 3, 1) == 1
    assert det_two_side_prefactor(ONE, 4, 4) == 1
    # HCIZ: prod_{k=1}^{n-1} k! (the 0!...(n-1)! normalization)
    assert det_two_side_prefactor(RationalContent(b=[0]), 3, 3) == 2
    assert det_two_side_prefactor(RationalContent(b=[0]), 4, 4) == 12


def test_det_rep_derivatives():
    assert det_rep_derivatives(LIN, 1, 4).matches()
    assert det_rep_derivatives(LIN, 2, 6).matches()
    assert det_rep_derivatives(RationalContent(a=[0, F(1, 2)]), 2, 5).matches()
    with pytest.raises(ValueError):
        det_rep_derivatives(ONE, 2, 4)


def test_hirota_residual():
    for r, n in [(ONE, 0), (RationalContent(a=[2]), 0), (LIN, 1)]:
        assert hirota_residual(r, n, 6).is_zero(), (r, n)


def test_ode_residual():
    assert all(v == 0 for v in ode_residual([], [], 10))  # e^x
    assert all(v == 0 for v in ode_residual([F(1, 2), F(1, 3)], [F(5, 4)], 30))
    # 1F0: (1-x) y' = a y encoded in the same operator
    assert all(v == 0 for v in ode_residual([F(2, 3)], [], 20))


def test_q_difference_residual():
    q = F(1, 3)
    assert all(v == 0 for v in q_difference_residual([], [], q, 10))
    assert all(v == 0 for v in q_difference_residual([1], [], q, 20))
    assert all(v == 0 for v in q_difference_residual([1, 2], [3], q, 30))


def test_baker_akhiezer():
    ba = baker_akhiezer(ONE, 0, Times.exp_point(5), 5)
    assert ba == [F((-1) ** m, factorial(m)) for m in range(6)]
    # zero of r terminates the series
    ba2 = baker_akhiezer(LIN, 2, Times.exp_point(6), 6)
    assert ba2[1] == -2 and ba2[2] == 1 and all(v == 0 for v in ba2[3:])
    # dual wave function uses increasing arguments and +t*:
    # r(1)...r(m) h_m(t_inf) = m!/m! = 1
    bd = baker_akhiezer_dual(LIN, 1, Times.exp_point(4), 4)
    assert bd == [F(1)] * 5
    # m = 0 term is always 1
    assert baker_akhiezer(RationalContent(a=[F(1, 2)]), 3, Times.weight_a(F(1, 3), 4), 4)[0] == 1


def test_symmetry_checks():
    for r, n in [(ONE, 0), (RationalContent(a=[2]), 1), (LIN, 2)]:
        rep = symmetry_checks(r, n, 5)
        assert all(rep.values()), (r, n, rep)


def test_tau_series_numeric_sides_golden():
    # sha256 of the sorted to_json() table, recorded when numeric sides always
    # took the h-determinant on lambda; every Jacobi-Trudi path must match it
    import hashlib
    import json

    cases = [
        (RationalContent([F(1, 2)], [F(7, 2)]), 1, WeightA(F(3, 2)), QGeo(F(1, 3)), 139,
         "cad5de5f63afc69855767d4943cc3924cda78e2fa1fe06e0ef7b551e64a9a77b"),
        (QRationalContent([-4], [12], F(1, 2)), 0, QGeo(F(-1, 2)), WeightA(F(-2, 3)), 94,
         "794ab5f627afdbdbac83449c4b46333e97a94937d17ddf0c9b11cf1e44e2396d"),
        (LIN, 3, WeightA(F(5, 2)), TInf(), 67,
         "c8c9c42648f716d78fa0b600ed5aeaa13c7e643d0a1d66373aeb99e39d05a066"),
        (RationalContent([F(1, 3), -6], [F(7, 4)]), 2, QGeo(F(2, 5)), TInf(), 94,
         "02c6e71acd4839db46c27974bd0966227561924e5e9625f8a5118550b2bce474"),
    ]
    for r, n, t, u, terms, digest in cases:
        ts = tau_series(TauSpec(r, n, t, u), 10)
        blob = json.dumps(ts.to_json(), sort_keys=True).encode()
        assert (len(ts.coeffs), hashlib.sha256(blob).hexdigest()) == (terms, digest), ts.spec.describe()


def test_tau_series_one_variable_coeffs_match_kernel():
    # tau_r(M, t(x), t*) one-variable coefficients = r-run times h_j(t*)
    r = RationalContent(a=[F(1, 2)])
    u = Times.weight_a(F(2), 7)
    ts = tau_series(TauSpec(r, 2, Eigs([F(1)]), WeightA(F(2))), 7)
    from taukit.symfun import h_list

    assert ts.one_variable_coeffs() == baker_akhiezer_dual(r, 2, u, 7)
