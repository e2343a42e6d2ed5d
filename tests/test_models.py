from fractions import Fraction as F
from math import factorial

import pytest

from taukit.partitions import Partition, enumerate_partitions, partitions_of
from taukit.symfun import Poly1, PolyRing, Times
from taukit.tau import Eigs, Formal, TauSpec, det_rep_derivatives, tau_series
from taukit.weights import (
    ConstantOneContent,
    LinearContent,
    ProductContent,
    RationalContent,
    content_product,
    pochhammer,
)
from taukit.models import (
    ModelSeries,
    VanishingMomentError,
    angle_hciz_average,
    gauss_closed_form,
    generalized_angle_integral,
    gross_witten_series,
    hciz,
    loop_scalar_product,
    normal_matrix_map,
    quartic_contribution,
    quartic_series,
    two_matrix_series,
    two_matrix_vs_closed,
    unitary_model_series,
)

from fraction_reference import pochhammer_partition
from polyseries_reference import is_even
from schur_reference import bialternant

ONE = ConstantOneContent()
LIN = LinearContent()


def quartic_conjugation_pairing(weight):
    """Conjugation bookkeeping at |lambda| = 4k: the conjugate partition
    contributes (-1)^k times the original at -N, which forces every order
    coefficient (after the N^k division) to be even in N."""
    if weight % 4 != 0:
        raise ValueError("quartic orders live at weights divisible by 4")
    k = weight // 4
    for lam in partitions_of(weight):
        c = quartic_contribution(lam)
        cc = quartic_contribution(lam.conjugate())
        at_minus = Poly1([v * F((-1) ** (i + k)) for i, v in enumerate(c.coeffs)])
        if cc != at_minus:
            return False
    return True


def hciz_series(n, xs, ys, D):
    """The HCIZ perturbation series at exact eigenvalues: r(k) = 1/k."""
    if len(xs) != n or len(ys) != n:
        raise ValueError("need n eigenvalues on each side")
    return tau_series(TauSpec(RationalContent(b=[0]), n, Eigs(xs), Eigs(ys)), D)


def normal_matrix_series(r, n, D):
    """The normal-matrix perturbation series for a caller-supplied content
    function (the analytic continuation of the tabulated negative window)."""
    return tau_series(TauSpec(r, n, Formal(), Formal()), D)


def test_two_matrix_series_weights():
    ts = two_matrix_series(1, 6)
    for lam, c in ts.items():
        assert lam.length <= 1 and c == factorial(lam.weight)
    # (n)_lambda weights at n = 3
    ts3 = two_matrix_series(3, 4)
    for lam, c in ts3.items():
        assert c == pochhammer_partition(F(3), lam)
    # the length cut comes from (n)_lambda vanishing (verified, not assumed)
    ts2 = two_matrix_series(2, 5)
    assert all(lam.length <= 2 for lam in ts2.coeffs)
    assert pochhammer_partition(F(2), Partition([1, 1, 1])) == 0


def test_two_matrix_closed_form():
    assert two_matrix_vs_closed(8)


def test_two_matrix_vs_derivative_determinant():
    assert det_rep_derivatives(LIN, 2, 4).matches()


def test_quartic_order_one_polynomial():
    qs = quartic_series(1)
    assert qs.coefficient(1) == Poly1([F(-1, 4), 0, F(-1, 2)])
    for N in range(1, 7):
        assert qs.coefficient(1)(N) == -(F(N * N, 2) + F(1, 4))


def test_quartic_lambda4_contribution():
    # the single-row weight-4 term: N(N+1)(N+2)(N+3) t4 (t2*)^2/2
    c = quartic_contribution(Partition([4]))
    x = Poly1.x()
    assert c == (x * (x + 1) * (x + 2) * (x + 3)) * F(1, 2)


def test_quartic_even_and_conjugation():
    qs = quartic_series(2)
    assert is_even(qs.coefficient(1)) and is_even(qs.coefficient(2))
    assert quartic_conjugation_pairing(4)
    assert quartic_conjugation_pairing(8)


def test_quartic_against_wick_oracle():
    from taukit.oracle import quartic_wick_order

    qs = quartic_series(2)
    assert qs.coefficient(1) == quartic_wick_order(1)
    assert qs.coefficient(2) == quartic_wick_order(2)


def test_quartic_reference_values():
    # the weight-8 inner polynomial equals the reference 32N^6+320N^4+488N^2;
    # the often-quoted final order-2 value differs by exactly a dropped 1/256
    acc = Poly1([])
    for lam in partitions_of(8):
        acc = acc + quartic_contribution(lam)
    assert acc == Poly1([0, 0, 488, 0, 320, 0, 32])
    qs = quartic_series(2)
    assert qs.coefficient(2) * 256 == Poly1([488, 0, 320, 0, 32])


def test_hciz_identity():
    assert hciz(2, 6).matches()
    # series at exact eigenvalues: n = 1 is e^{x y}
    ts = hciz_series(1, [F(1, 2)], [F(1, 3)], 8)
    cs = ts.one_variable_coeffs()
    xy = F(1, 6)
    assert cs == [xy**m / factorial(m) for m in range(9)]
    # identification with the unitary two-matrix series: weight 1/(n)_lambda
    xs, ys = [F(1, 2), F(1, 5)], [F(1, 3), F(1, 7)]
    ts2 = hciz_series(2, xs, ys, 4)
    for lam, c in ts2.items():
        expect = (
            bialternant(lam, xs)
            * bialternant(lam, ys)
            / pochhammer_partition(F(2), lam)
        )
        assert c == expect, lam


def test_gross_witten():
    # n = 1 scalar: sum (j jbar)^m / (m! (1)_m)
    gw = gross_witten_series(1, [F(1, 2)], 8)
    cs = gw.one_variable_coeffs()
    for m in range(9):
        assert cs[m] == F(1, 2) ** m / (factorial(m) * pochhammer(F(1), m))
    # degree-1 term Tr(JJ+)/n
    gw2 = gross_witten_series(3, [F(1), F(2), F(3)], 2)
    assert gw2.coeff(Partition([1])) == F(6, 3)
    assert gw2.coeff(Partition([])) == 1


def test_unitary_model_series():
    um = unitary_model_series(2, 5)
    for lam, c in um.items():
        assert lam.length <= 2 and c == 1
    # cut inactive when n >= D
    full = tau_series(TauSpec(ONE, 9, Formal(), Formal()), 5)
    assert dict(unitary_model_series(9, 5).items()) == dict(full.items())
    # n = 1: single rows only
    assert set(unitary_model_series(1, 4).coeffs) == {Partition([m]) for m in range(5)}


def test_normal_matrix_map():
    nm = normal_matrix_map(Times.exp_point(6), 6)
    for m in range(1, 7):
        assert nm["r_table"][-m] == m
        assert nm["h_moments"][m] == F(1, factorial(m))
    nm2 = normal_matrix_map(Times.of([F(1), F(1, 2)]), 5)
    hs = nm2["h_moments"]
    for m in range(1, 6):
        assert nm2["r_table"][-m] == hs[m - 1] / hs[m]
    with pytest.raises(VanishingMomentError):
        normal_matrix_map(Times.of([F(0), F(-1, 2)]), 4)  # h_1 = 0
    # a supplied analytic continuation reproduces the two-matrix weights
    ts = normal_matrix_series(LIN, 2, 4)
    assert dict(ts.items()) == dict(two_matrix_series(2, 4).items())


def test_angle_integrals():
    r = RationalContent(a=[F(1, 2)])
    # a = n cancels the ratio away from the removable point
    comp = angle_hciz_average(r, 4, 4)
    for k in [-2, -1, 1, 2, 3, 5]:
        assert comp(k) == r(k)
    # hciz-average weight: (a)_lam/(n)_lam r_lam(n)
    gh = generalized_angle_integral("hciz", r, 3, 4, a=F(5, 2))
    for lam, c in gh.items():
        assert c == pochhammer_partition(F(5, 2), lam) / pochhammer_partition(
            F(3), lam
        ) * content_product(r, 3, lam)
    # complex-average with r = 1 gives (a)_lambda
    g3 = generalized_angle_integral("complex", ONE, 2, 4, a=F(2))
    for lam, c in g3.items():
        assert lam.length <= 2 and c == pochhammer_partition(F(2), lam)
    # r rtilde = 1 reduces the gw average to the plain unitary average
    g1 = generalized_angle_integral("gw", r, 3, 4, a=F(2), rt=r.reciprocal())
    g2 = generalized_angle_integral("hciz", ONE, 3, 4, a=F(2))
    assert dict(g1.items()) == dict(g2.items())
    # XY = I_n: plain product tau, no length cut
    rt = RationalContent(a=[F(3, 2)])
    gu = generalized_angle_integral("gw_unit", r, 1, 4, rt=rt)
    direct = tau_series(TauSpec(ProductContent([r, rt]), 1, Formal(), Formal()), 4)
    assert dict(gu.items()) == dict(direct.items())


@pytest.mark.parametrize("kind", ["hciz", "complex", "gw"])
def test_generalized_angle_integral_without_a_names_it(kind):
    with pytest.raises(ValueError, match=f"^{kind} needs a$"):
        generalized_angle_integral(kind, ONE, 2, 3, rt=ONE)


def test_loop_scalar_product():
    assert loop_scalar_product([ONE], 0, 5) == [1, 1, 2, 3, 5, 7]
    assert loop_scalar_product([], 0, 4) == [1, 1, 2, 3, 5]
    r = RationalContent(a=[F(1, 2)])
    r2 = RationalContent(a=[F(1, 3)])
    from taukit.fock import trace_h0

    assert loop_scalar_product([r, r2], 1, 5) == trace_h0(ProductContent([r, r2]), 1, 5)
    # diagonal composition law: the product weight is the product of weights
    for lam in enumerate_partitions(4):
        assert content_product(ProductContent([r, r2]), 1, lam) == content_product(
            r, 1, lam
        ) * content_product(r2, 1, lam)


def test_gauss_closed_form_low_orders():
    f = gauss_closed_form(3)
    # constant 1, t1*u1 coefficient 1, 2 t2 u2 + t1^2 u1^2 terms at bidegree 2
    assert f.constant_term() == 1
    assert f.coefficient((1, 0, 1, 0)) == 1
    assert f.coefficient((0, 1, 0, 1)) == 2
    assert f.coefficient((2, 0, 2, 0)) == F(1, 2)
    assert f.coefficient((0, 1, 2, 0)) == 1
