from fractions import Fraction as F
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from taukit.partitions import Partition, enumerate_partitions
from taukit.symfun import PolyRing, PolySeries, Times, _det, exp_series
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
    deriv_det_prefactor,
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
    ContentZeroError,
    LinearContent,
    QRationalContent,
    RationalContent,
    content_product,
    hook_product,
    hook_product_q,
    parse_content,
    pochhammer_partition,
    q_pochhammer_partition,
)

from schur_reference import jacobi_trudi

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
    # one eigenvalue keeps only the rows (k); degree 60 is far beyond any
    # character table, so only a recursion on the shapes themselves gets there
    for D in (30, 60):
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


def test_det_rep_two_side_weighs_only_what_the_cap_keeps(monkeypatch):
    # each alternant has degree |lambda| + N(N-1)/2 against the cap
    # D + N(N-1), so only 2|lambda| <= D contributes and only those lambda
    # are walked and weighed
    import taukit.tau as tau_mod

    walk = tau_mod._weighted_partitions
    seen = []

    def counting(*args, **kwargs):
        for item in walk(*args, **kwargs):
            seen.append(item[2])  # |lambda|
            yield item

    monkeypatch.setattr(tau_mod, "_weighted_partitions", counting)
    for N, D in [(1, 7), (2, 6), (3, 6)]:
        seen.clear()
        assert det_rep_two_side(RationalContent([F(1, 2)], [F(7, 2)]), 1, N, D).matches()
        assert seen and max(seen) == D // 2, (N, D)
    # the pole scan still covers |lambda| <= D: r(5) = 6/0 lies beyond the
    # contents of |lambda| <= 3 but inside the window of D = 6
    with pytest.raises(ContentPoleError):
        det_rep_two_side(RationalContent([1], [-5]), 1, 1, 6)


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
    # took the h-determinant on lambda; the border-strip engine must match it
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


def _cross(ring, ring_K, st, su):
    """st(t) * su(t*) in the bivariate ring, each factor zero-padded to ring_K."""
    ts = [(tuple(e) + (0,) * (ring_K - len(e)), c) for e, c in st.terms.items()]
    us = [(tuple(e) + (0,) * (ring_K - len(e)), c) for e, c in su.terms.items()]
    out = {}
    for et, ct in ts:
        for eu, cu in us:
            e = et + eu
            if ring.degree_of(e) <= ring.cap:
                out[e] = out.get(e, F(0)) + ct * cu
    return PolySeries(ring, out)


def jacobi_trudi_polyseries(ts, ring):
    """The reference expansion: one Jacobi-Trudi determinant per lambda, and
    for two formal sides its cross product with itself."""
    if ts.n_formal_sides() == 1:
        K = min(ts.D, ring.nvars())
        tsym = Times.symbolic(ring, max(K, 1))
        out = ring.zero()
        for lam, c in ts.coeffs.items():
            out = out + jacobi_trudi(tsym, lam) * c
        return out
    ring_K = ring.nvars() // 2
    K = min(ts.D, ring_K)
    small = PolyRing.times_ring(max(K, 1), cap=ts.D)
    ssym = Times.symbolic(small, max(K, 1))
    out = ring.zero()
    for lam, c in ts.coeffs.items():
        s = jacobi_trudi(ssym, lam)
        if not isinstance(s, PolySeries):
            s = small.const(s)
        out = out + _cross(ring, ring_K, s, s) * c
    return out


@pytest.mark.parametrize("sides", [1, 2])
@pytest.mark.parametrize("ring_K", [4, 6, 8])
@pytest.mark.parametrize("r, n", [
    (RationalContent([F(1, 2)], [F(7, 2)]), 1),  # no zero: every lambda up to D
    (LIN, 2),  # r(0) = 0: at most two rows
    (RationalContent([-3]), 1),  # r(3) = 0: at most two columns
])
def test_as_polyseries_matches_jacobi_trudi(sides, ring_K, r, n):
    D = 6
    if sides == 2:
        spec, ring = TauSpec(r, n, Formal(), Formal()), PolyRing.bi_times_ring(ring_K)
    else:
        spec, ring = TauSpec(r, n, Formal(), WeightA(F(3, 2))), PolyRing.times_ring(ring_K)
    ts = tau_series(spec, D)
    got = ts.as_polyseries(ring)
    assert got == jacobi_trudi_polyseries(ts, ring)
    assert got.terms  # a nonzero expansion is compared


# -- determinant and Hirota sides against the routes they replaced -----------
# The series sides were Schur functions of the Miwa times of the ring
# variables, multiplied by Vandermonde products; the derivative determinant
# and the Hirota residual were built in a ring capped above the compared
# degree and filtered to it afterwards.  Those routes are the references.

GRID_R = [
    RationalContent([F(1, 2)], [F(7, 2)]),
    parse_content("linear|scale:3/2"),
    parse_content("one|scale:2/3"),
]


def miwa_jacobi_trudi_side(coeffs, blocks, ring):
    """sum_lambda c_lambda prod_blocks s_lambda(x_block), each s_lambda the
    Jacobi-Trudi determinant at the Miwa times m t_m = sum_i x_i^m, times the
    Vandermonde product of every block."""
    times = [
        Times([sum((x**m for x in xs), start=ring.zero()) * F(1, m) for m in range(1, ring.cap + 1)])
        for xs in blocks
    ]
    series = ring.zero()
    for lam, c in coeffs.items():
        term = ring.const(c)
        for t in times:
            term = term * jacobi_trudi(t, lam)
        series = series + term
    for xs in blocks:
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                series = series * (xs[i] - xs[j])
    return series


def eigenvalue_ring(N, blocks, cap):
    names = [f"{x}{i}" for x in "xy"[:blocks] for i in range(1, N + 1)]
    return PolyRing(names, [1] * len(names), cap)


def block_degrees(f, K):
    """(monomial, t-block degree, u-block degree, coefficient) for each term
    of f, the t block being the first K variables."""
    w = f.ring.weights
    return [(e, sum(map(mul, e[:K], w[:K])), sum(map(mul, e[K:], w[K:])), c) for e, c in f.terms.items()]


def bidegree_terms(f, K, D):
    """The terms of f whose t-block and u-block weighted degrees are <= D."""
    return {e: c for e, dt, du, c in block_degrees(f, K) if dt <= D and du <= D}


def derivative_determinant_2j(r, n, D):
    """The derivative determinant in the ring capped at 2J = 2(D + n - 1)."""
    J = D + n - 1
    ring = PolyRing.bi_times_ring(J, cap=2 * J)
    tau1 = tau_series(TauSpec(r, 1, Formal(), Formal()), J).as_polyseries(ring)
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            ent = tau1
            for i, k in [(0, a), (J, b)]:
                for _ in range(k):
                    ent = ent.diff(i)
            row.append(ent)
        rows.append(row)
    return _det(rows) * deriv_det_prefactor(r, n)


def hirota_full_ring(r, n, D):
    """The Hirota residual in the ring capped at 2D, unfiltered."""
    ring = PolyRing.bi_times_ring(D, cap=2 * D)
    tn, tm, tp = (
        tau_series(TauSpec(r, k, Formal(), Formal()), D).as_polyseries(ring) for k in (n, n - 1, n + 1)
    )
    d1 = tn.diff(0)
    return tn * d1.diff(D) - d1 * tn.diff(D) - tm * tp * r(n)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("r", GRID_R, ids=repr)
def test_det_rep_two_side_series_side_matches_miwa_route(r, N):
    for n in range(-1, 3):
        for D in range(1, 8):
            try:
                det_two_side_prefactor(r, n, N)
            except ContentZeroError:
                with pytest.raises(ContentZeroError):
                    det_rep_two_side(r, n, N, D)
                continue
            res = det_rep_two_side(r, n, N, D)
            ring = eigenvalue_ring(N, 2, D + N * (N - 1))
            coeffs = tau_series(TauSpec(r, n, Formal(), Formal()), D, length_max=N).coeffs
            blocks = [[ring.var(i) for i in range(N)], [ring.var(N + i) for i in range(N)]]
            assert res.lhs == miwa_jacobi_trudi_side(coeffs, blocks, ring), (r, n, N, D)
            assert res.matches(), (r, n, N, D)


@pytest.mark.parametrize("r, uside", zip(GRID_R, [TInf(), WeightA(F(1, 2)), QGeo(F(1, 3))]), ids=repr)
def test_det_rep_one_side_series_side_matches_miwa_route(r, uside):
    for N in range(1, 4):
        for n in range(-1, 3):
            for D in range(1, 8):
                res = det_rep_one_side(r, n, N, uside, D)
                ring = eigenvalue_ring(N, 1, D + N * (N - 1) // 2)
                coeffs = tau_series(TauSpec(r, n, Formal(), uside), D, length_max=N).coeffs
                assert res.lhs == miwa_jacobi_trudi_side(coeffs, [[ring.var(i) for i in range(N)]], ring)
                assert res.matches(), (r, uside, n, N, D)


@pytest.mark.parametrize("r", [GRID_R[1], RationalContent(a=[0, F(1, 2)])], ids=repr)
def test_det_rep_derivatives_equals_filtered_2j_determinant(r):
    # both sides live in the ring capped at 2D: a cap of 2D - 1 loses the
    # (D, D) terms and one of 2D + 1 claims an odd degree nobody compares
    for n in range(1, 4):
        for D in range(1, 8):
            res = det_rep_derivatives(r, n, D)
            assert res.lhs.ring.cap == res.rhs.ring.cap == 2 * D
            J = D + n - 1
            assert res.rhs.terms == bidegree_terms(derivative_determinant_2j(r, n, D), J, D)
            lhs = tau_series(TauSpec(r, n, Formal(), Formal()), D).as_polyseries(PolyRing.bi_times_ring(J))
            assert res.lhs.terms == bidegree_terms(lhs, J, D)
            assert res.matches(), (r, n, D)


@pytest.mark.parametrize("r", GRID_R, ids=repr)
def test_hirota_residual_equals_filtered_full_ring_residual(r):
    for n in range(-1, 3):
        for D in range(1, 8):
            res = hirota_residual(r, n, D)
            assert res.ring.cap == 2 * D - 2
            assert res.terms == bidegree_terms(hirota_full_ring(r, n, D), D, D - 1) == {}, (r, n, D)


def test_hirota_residual_degree_zero_is_empty():
    for r in GRID_R:
        assert hirota_residual(r, 1, 0).is_zero()
    with pytest.raises(ValueError):
        hirota_residual(ONE, 0, -1)


def balanced(f, K):
    return all(dt == du for _, dt, du, _ in block_degrees(f, K))


non_integers = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
    lambda x: x.denominator > 1
)


@given(st.lists(non_integers, max_size=2), st.lists(non_integers, max_size=2), st.booleans(),
       st.integers(-1, 2), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_two_formal_side_series_are_balanced(a, b, vanish_at_zero, n, D):
    # every monomial of sum r_lambda s_lambda(t) s_lambda(t*) has equal t- and
    # t*-degree; this is why each check can truncate by the total-degree cap
    r = RationalContent(a + [0] * vanish_at_zero, b)
    series = tau_series(TauSpec(r, n, Formal(), Formal()), D).as_polyseries(PolyRing.bi_times_ring(D))
    assert series.terms and balanced(series, D)
    assert balanced(hirota_full_ring(r, n, D), D)
    if vanish_at_zero and n >= 1:
        assert balanced(derivative_determinant_2j(r, n, D), D + n - 1)


# -- numeric series against cell-by-cell weights and Jacobi-Trudi --------------

units = st.fractions(min_value=-1, max_value=1, max_denominator=6).filter(lambda x: 0 < abs(x) < 1)
numeric_sides = st.one_of(
    st.builds(WeightA, st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    st.builds(QGeo, units),
    st.just(TInf()),
    st.builds(Eigs, st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=5), min_size=1, max_size=4)),
)
far_offsets = st.integers(11, 14).flatmap(lambda b: st.sampled_from([b, -b]))


@given(st.data(), st.booleans(), st.integers(-2, 2), numeric_sides, numeric_sides, st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_numeric_tau_series_equals_cell_products_and_jacobi_trudi(data, q_kind, n, t, u, D):
    # r_lambda(n) cell by cell and both Schur factors by Jacobi-Trudi at the
    # same times; r vanishes at some content of the window, has no pole there,
    # and an eigenvalue side may hold more values than D
    zero = n + data.draw(st.integers(-max(D - 1, 0), max(D - 1, 0)))
    if q_kind:
        r = QRationalContent([-zero, *data.draw(st.lists(st.integers(-6, 6), max_size=1))],
                             data.draw(st.lists(far_offsets, max_size=2)), data.draw(units))
    else:
        r = RationalContent([-zero, *data.draw(st.lists(non_integers, max_size=1))],
                            data.draw(st.lists(non_integers, max_size=2)))
    tt, ut = t.times(D), u.times(D)
    want = {}
    for lam in enumerate_partitions(D):
        c = content_product(r, n, lam) * jacobi_trudi(tt, lam) * jacobi_trudi(ut, lam)
        if c:
            want[lam] = c
    assert tau_series(TauSpec(r, n, t, u), D).coeffs == want
