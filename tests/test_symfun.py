from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from taukit.partitions import Partition, SkewShape, enumerate_partitions, partitions_of
from taukit.symfun import (
    PolyRing,
    PolySeries,
    Poly1,
    Times,
    cauchy_truncated,
    characters,
    e_list,
    exp_series,
    h_list,
    inverse_series,
    miwa,
    schur,
    schur_expansion,
    schur_from_eigenvalues,
    skew_schur,
    standard_product,
)
from taukit.weights import hook_product

from schur_reference import jacobi_trudi, jacobi_trudi_determinant, newton_lists


def sym_ring(K, cap=None):
    ring = PolyRing.times_ring(K, cap=cap)
    return ring, Times.symbolic(ring, K)


def as_series(ring, x):
    return x if isinstance(x, PolySeries) else ring.const(x)


def test_complete_h_examples():
    ring, t = sym_ring(3)
    hs = h_list(t, 3)
    t1, t2, t3 = (ring.var(i) for i in range(3))
    assert hs[0] == 1
    assert hs[3] == t1**3 * F(1, 6) + t1 * t2 + t3
    # h_m(1,0,0,...) = 1/m!
    assert h_list(Times.exp_point(5), 5) == [F(1, factorial(m)) for m in range(6)]


def test_schur_examples():
    ring, t = sym_ring(3)
    t1, t2, t3 = (ring.var(i) for i in range(3))
    assert schur(Partition([1]), t) == t1
    assert schur(Partition([2, 1]), t) == t1**3 * F(1, 3) - t3
    # s_lambda(t(a)) = (a)_lambda / H_lambda   (weight-a specialization)
    from taukit.weights import hook_product, pochhammer_partition

    a = F(5, 3)
    for lam in enumerate_partitions(6):
        got = schur(lam, Times.weight_a(a, max(lam.weight, 1)))
        assert got == pochhammer_partition(a, lam) / hook_product(lam)


def test_skew_schur_examples():
    ring, t = sym_ring(4)
    hs = h_list(t, 4)
    assert skew_schur(SkewShape(Partition([2, 2]), Partition([2, 2])), t) == 1
    # two disconnected cells: s_(2) + s_(11) = h1^2
    assert skew_schur(SkewShape(Partition([2, 1]), Partition([1])), t) == ring.var(0) ** 2
    assert skew_schur(SkewShape(Partition([3]), Partition([1])), t) == hs[2]
    # empty inner reduces to schur
    for lam in enumerate_partitions(4):
        assert as_series(ring, skew_schur(SkewShape(lam, Partition([])), t)) == as_series(
            ring, schur(lam, t)
        )
    # the determinant vanishes whenever inner is not contained in outer
    for lam in enumerate_partitions(4):
        for mu in enumerate_partitions(4):
            if lam.contains(mu):
                continue
            assert as_series(ring, skew_schur((lam, mu), t)).is_zero(), (lam, mu)


def test_schur_from_eigenvalues():
    assert schur_from_eigenvalues(Partition([2]), [F(2), F(3)]) == 19
    assert schur_from_eigenvalues(Partition([1]), [F(1), F(2), F(3)]) == 6
    # (n)_lambda = H_lambda s_lambda(I_n)
    from taukit.weights import hook_product, pochhammer_partition

    for lam in enumerate_partitions(5):
        for n in (2, 3):
            lhs = pochhammer_partition(F(n), lam)
            rhs = hook_product(lam) * schur_from_eigenvalues(lam, [F(1)] * n)
            assert lhs == rhs
    # longer than the alphabet: zero
    assert schur_from_eigenvalues(Partition([1, 1, 1]), [F(1), F(2)]) == 0
    # degenerate points fall back to the Miwa route
    assert schur_from_eigenvalues(Partition([2]), [F(1), F(1)]) == 3


def test_jacobi_trudi_vs_bialternant():
    pts = [F(1, 2), F(2), F(-1, 3), F(3, 5)]
    for n in (1, 2, 3, 4):
        xs = pts[:n]
        for lam in enumerate_partitions(8):
            a = schur(lam, miwa(xs, max(lam.weight, 1)))
            b = schur_from_eigenvalues(lam, xs)
            assert a == b, (lam, n)


def test_miwa_examples():
    assert miwa([F(1)], 3).entries == (F(1), F(1, 2), F(1, 3))
    assert miwa([F(2), F(-2)], 4).entries == (F(0), F(4), F(0), F(8))
    assert Times.weight_a(F(7), 4).entries == (F(7), F(7, 2), F(7, 3), F(7, 4))
    with pytest.raises(ValueError):
        miwa([F(1)], 0)


def test_conjugation_rule():
    # s_{lambda'}(-t) = (-1)^{|lambda|} s_lambda(t) as a PolySeries identity
    ring, t = sym_ring(8, cap=8)
    for lam in enumerate_partitions(8):
        lhs = as_series(ring, schur(lam.conjugate(), t.negate()))
        rhs = as_series(ring, schur(lam, t)) * F((-1) ** lam.weight)
        assert lhs == rhs, lam


def test_standard_product():
    ring, t = sym_ring(6, cap=6)
    p2 = 2 * ring.var(1)
    assert standard_product(p2, p2) == 2
    S = {lam: as_series(ring, schur(lam, t)) for lam in enumerate_partitions(6)}
    for lam in enumerate_partitions(4):
        for mu in enumerate_partitions(4):
            assert standard_product(S[lam], S[mu]) == (1 if lam == mu else 0)


def test_skew_product_duality():
    # <s_{lambda/mu}, s_nu> = <s_lambda, s_mu s_nu> for |lambda| <= 6
    ring, t = sym_ring(6, cap=6)
    S = {lam: as_series(ring, schur(lam, t)) for lam in enumerate_partitions(6)}
    for lam in enumerate_partitions(6):
        for mu in enumerate_partitions(lam.weight):
            if not lam.contains(mu):
                continue
            sk = as_series(ring, skew_schur(SkewShape(lam, mu), t))
            for nu in partitions_of(lam.weight - mu.weight):
                assert standard_product(sk, S[nu]) == standard_product(
                    S[lam], S[mu] * S[nu]
                )


def test_cauchy_small_cases():
    lhs, rhs = cauchy_truncated(1)
    ring = lhs.ring
    assert lhs == rhs == ring.one() + ring.var(0) * ring.var(1)
    lhs, rhs = cauchy_truncated(2)
    assert lhs == rhs
    assert lhs.coefficient((0, 1, 0, 1)) == 2  # 2 t2 u2


def test_exp_and_inverse_series():
    ring = PolyRing.times_ring(4, cap=4)
    t1 = ring.var(0)
    e = exp_series(t1)
    assert e.coefficient((3, 0, 0, 0)) == F(1, 6)
    inv = inverse_series(ring.one() - t1)
    assert inv == ring.one() + t1 + t1**2 + t1**3 + t1**4
    with pytest.raises(ValueError):
        exp_series(ring.one())


def test_polyseries_json_and_scaling():
    ring = PolyRing.times_ring(2, cap=4)
    f = ring.var(0) * F(3, 2) + ring.var(1) ** 2
    d = f.to_json_dict()
    assert d == {"0,2": "1/1", "1,0": "3/2"}
    g = f.scale_vars([F(2), F(1, 2)])
    assert g.coefficient((1, 0)) == 3 and g.coefficient((0, 2)) == F(1, 4)


def test_poly1():
    x = Poly1.x()
    p = (x + 1) * (x - 1)
    assert p == Poly1([-1, 0, 1])
    assert p(F(3)) == 8
    assert (p * x).shift_divide(1) == p
    with pytest.raises(ValueError):
        (x + 1).shift_divide(1)
    assert Poly1([0, 0, 5]).is_even() and not Poly1([0, 1]).is_even()


partitions_to_8 = st.sampled_from(list(enumerate_partitions(8)))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@given(partitions_to_8, st.lists(rationals, min_size=1, max_size=8), st.booleans())
@settings(max_examples=40, deadline=None)
def test_h_determinant_equals_e_determinant_on_conjugate(lam, values, formal):
    # det(h_{lambda_i - i + j}) = det(e_{lambda'_i - i + j}), Macdonald I.3
    K = max(lam.weight, 1)
    if formal:
        ring = PolyRing.times_ring(K)
        t = Times([ring.var(m) * v for m, v in enumerate((values * K)[:K])])
    else:
        t = Times.of(values)
    conj = lam.conjugate()
    h_det = jacobi_trudi_determinant(h_list(t, lam.part(1) + lam.length), lam)
    e_det = jacobi_trudi_determinant(e_list(t, conj.part(1) + conj.length), conj)
    assert h_det == e_det == schur(lam, t), lam


@given(st.lists(rationals, min_size=1, max_size=6), st.lists(st.integers(0, 9), min_size=1, max_size=6),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_cached_symmetric_lists_grow_to_fresh_ones(values, steps, formal):
    D = max(steps)
    if formal:
        ring = PolyRing.times_ring(len(values), cap=D)
        entries = [ring.var(m) * v for m, v in enumerate(values)]
    else:
        entries = values
    t = Times.of(entries)
    for d in steps:
        assert h_list(t, d) == h_list(Times.of(entries), d)
        assert e_list(t, d) == e_list(Times.of(entries), d)
    # e_k(t) = (-1)^k h_k(-t)
    assert e_list(t, D) == [h * (-1) ** k for k, h in enumerate(h_list(t.negate(), D))]


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_cauchy_property(D):
    lhs, rhs = cauchy_truncated(D)
    assert lhs == rhs


partitions_to_10 = st.sampled_from(list(enumerate_partitions(10)))


@given(partitions_to_10, st.integers(1, 12), st.integers(0, 12), rationals)
@settings(max_examples=60, deadline=None)
def test_character_expansion_equals_jacobi_trudi(lam, K, cap, c):
    # [t^e] s_lambda = chi^lambda_mu / prod_m e_m!; parts above K and degrees
    # above the cap drop out of both sides
    ring, t = sym_ring(K, cap=cap)
    assert schur_expansion(ring, {lam: c}, 1) == as_series(ring, jacobi_trudi(t, lam)) * c, lam


def test_character_table_orthogonality_and_degrees():
    # sum_lambda chi^lambda_mu chi^lambda_nu = delta_{mu nu} z_mu, and
    # chi^lambda on the identity class is the hook-length count d!/H_lambda
    for d in range(11):
        parts, table = characters(d)
        assert parts == tuple(partitions_of(d))
        for j, mu in enumerate(parts):
            z = 1
            for m, e in mu.multiplicities().items():
                z *= m**e * factorial(e)
            for k in range(len(parts)):
                dot = sum(row[j] * row[k] for row in table)
                assert dot == (z if j == k else 0), (d, mu, parts[k])
        for lam, row in zip(parts, table):
            assert row[-1] == F(factorial(d), hook_product(lam))
    with pytest.raises(ValueError):
        characters(-1)


# -- the border-strip engine against Newton and Jacobi-Trudi -------------------

rationals_with_zero = st.one_of(st.just(F(0)), rationals)
time_kinds = st.sampled_from(["rational", "symbolic", "mixed"])


def times_of(kind, values, cap):
    """(times, normal form): rational times, symbolic ones t_m = v_m x_m in a
    ring capped at cap, or mixed ones with every other entry symbolic."""
    if kind == "rational":
        return Times.of(values), lambda x: x
    ring = PolyRing.times_ring(len(values), cap=cap)
    entries = [ring.var(m) * v if kind == "symbolic" or m % 2 == 0 else v for m, v in enumerate(values)]
    return Times.of(entries), lambda x: as_series(ring, x)


@given(partitions_to_10, st.lists(rationals_with_zero, min_size=1, max_size=10), time_kinds,
       st.integers(0, 10))
@settings(max_examples=80, deadline=None)
def test_engine_equals_jacobi_trudi(lam, values, kind, cap):
    t, norm = times_of(kind, values, cap)
    assert norm(schur(lam, t)) == norm(jacobi_trudi(t, lam)), lam


@given(partitions_to_8, st.data(), st.lists(rationals_with_zero, min_size=1, max_size=8), time_kinds,
       st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_skew_engine_equals_jacobi_trudi(lam, data, values, kind, cap):
    inside = [mu for mu in enumerate_partitions(lam.weight) if lam.contains(mu)]
    mu = data.draw(st.one_of(st.sampled_from(inside), partitions_to_8))
    t, norm = times_of(kind, values, cap)
    got = norm(skew_schur((lam, mu), t))
    assert got == norm(jacobi_trudi(t, lam, mu)), (lam, mu)
    if not lam.contains(mu):
        assert got == norm(F(0)), (lam, mu)


@given(st.lists(rationals_with_zero, min_size=1, max_size=8), time_kinds, st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_h_and_e_lists_equal_newton(values, kind, D):
    t, norm = times_of(kind, values, D)
    hs, es = newton_lists(t, D)
    assert list(map(norm, h_list(t, D))) == list(map(norm, hs))
    assert list(map(norm, e_list(t, D))) == list(map(norm, es))


@given(partitions_to_8, st.lists(rationals, min_size=1, max_size=4, unique=True))
@settings(max_examples=60, deadline=None)
def test_engine_at_miwa_times_equals_bialternant(lam, xs):
    assert schur(lam, miwa(xs, max(lam.weight, 1))) == schur_from_eigenvalues(lam, xs), (lam, xs)


small_ring = PolyRing(["a", "b", "c"], [1, 2, 1], 5)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
small_series = st.dictionaries(exponents, st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3)]),
                               max_size=8).map(lambda terms: PolySeries(small_ring, terms))


def naive_product(f, g):
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, F(0)) + ca * cb
    return PolySeries(f.ring, out)


@given(small_series, small_series, st.sampled_from([F(0), F(3), F(-1, 2)]), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_polyseries_results_are_already_filtered(f, g, c, i):
    # +, -, *, scalar * and diff build their results without the public
    # filter; re-filtering must change nothing
    results = [f + g, f - g, f + (-f), f * g, (f + g) * (f - g), f * c, c * g, f.diff(i), -f]
    for res in results:
        assert res == PolySeries(small_ring, res.terms), res.terms
    assert f * g == naive_product(f, g)
    assert (f + g) * (f - g) == naive_product(f + g, f - g)
