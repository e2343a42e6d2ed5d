from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from taukit.partitions import Partition, enumerate_partitions
from taukit.symfun import Times, schur
from taukit.weights import (
    ConstantOneContent,
    ContentPoleError,
    ContentZeroError,
    LinearContent,
    ProductContent,
    QRationalContent,
    RationalContent,
    TabulatedContent,
    content_product,
    det_two_side_prefactor,
    hook_product,
    parse_content,
    rational_r_decomposition,
)

from fraction_reference import (
    hook_product_q,
    pochhammer_partition,
    q_pochhammer,
    q_pochhammer_partition,
    skew_content_product,
)
from schur_reference import contains

LIN = LinearContent()
ONE = ConstantOneContent()


def test_content_product_examples():
    # (3,3,1) at charge x: r(x+2) r(x+1)^2 r(x)^2 r(x-1) r(x-2)
    r = RationalContent(a=[F(1, 2)])
    x = 3
    expect = F(1)
    for c in [-2, -1, 0, 0, 1, 1, 2]:
        expect *= r(x + c)
    assert content_product(r, x, Partition([3, 3, 1])) == expect
    assert content_product(r, 0, Partition([])) == 1
    assert content_product(LIN, 7, Partition([2])) == 7 * 8


def test_content_product_pole_names_cell():
    r = RationalContent(b=[F(0)])
    with pytest.raises(ContentPoleError) as err:
        content_product(r, 0, Partition([1]))
    assert "cell" in str(err.value)


def test_skew_content_product():
    assert skew_content_product(LIN, 0, (Partition([2, 2]), Partition([2, 2]))) == 1
    # skew cells of (2,1)/(1): contents 1 and -1
    assert skew_content_product(LIN, 3, (Partition([2, 1]), Partition([1]))) == 4 * 2
    lam = Partition([3, 3, 1])
    assert skew_content_product(LIN, 4, (lam, Partition([]))) == content_product(
        LIN, 4, lam
    )


def test_hook_products():
    assert hook_product(Partition([2, 2])) == 12
    assert hook_product(Partition([1])) == 1
    assert hook_product_q(Partition([1]), F(1, 3)) == F(2, 3)
    with pytest.raises(ContentZeroError):
        hook_product_q(Partition([1]), F(1))


def test_pochhammer_partition():
    a = F(7, 3)
    assert pochhammer_partition(a, Partition([1])) == a
    assert pochhammer_partition(a, Partition([2, 1])) == a * (a + 1) * (a - 1)
    # definition agreement with the content product, |lambda| <= 10
    r = RationalContent(a=[a])
    for lam in enumerate_partitions(10):
        assert pochhammer_partition(a, lam) == content_product(r, 0, lam)


def test_q_pochhammer_partition_both_routes():
    q = F(1, 3)
    assert q_pochhammer(F(1, 2), q, 0) == 1
    for c in (1, 2, 4):
        rq = QRationalContent(a=[c], q=q)
        for lam in enumerate_partitions(6):
            assert q_pochhammer_partition(c, q, lam) == content_product(rq, 0, lam)


def test_c_constant():
    # c_n = prod_{k<n} r(k)^(k-n), the N = n + 1 case of the prefactor
    assert det_two_side_prefactor(RationalContent(a=[1]), 0, 1) == 1
    assert det_two_side_prefactor(RationalContent(a=[1]), 2, 3) == F(1, 2)
    assert det_two_side_prefactor(RationalContent(a=[3]), 3, 4) == F(1, 27 * 16 * 5)
    with pytest.raises(ContentZeroError):
        det_two_side_prefactor(LIN, 2, 3)


def test_rational_decomposition():
    r = RationalContent(a=[F(1, 2), 2], b=[F(7, 2)])
    for lam in enumerate_partitions(6):
        rep = rational_r_decomposition(r, 1, lam)
        assert rep["value"] == content_product(r, 1, lam)
    # single affine factor: (a)_(2) = a(a+1)
    rep = rational_r_decomposition(RationalContent(a=[F(5)]), 0, Partition([2]))
    assert rep["value"] == 5 * 6


def test_q_rational_decomposition():
    rq = QRationalContent(a=[1, 3], b=[5], q=F(1, 3))
    for lam in enumerate_partitions(6):
        rep = rational_r_decomposition(rq, 1, lam)
        assert rep["value"] == content_product(rq, 1, lam)


def test_decomposition_rejects_other_content():
    with pytest.raises(TypeError):
        rational_r_decomposition(LinearContent(), 1, Partition([2]))


def test_limit_degenerations():
    # s_lambda(t_inf) = 1/H_lambda and s_lambda(gamma(inf, q)) = q^n(lambda)/H_lambda(q)
    q = F(1, 3)
    for lam in enumerate_partitions(6):
        K = max(lam.weight, 1)
        assert schur(lam, Times.exp_point(K)) == F(1, hook_product(lam))
        assert schur(lam, Times.q_geometric(q, K)) == q ** lam.n_stat() / hook_product_q(lam, q)


def test_reflection_rule():
    # r'_lambda(n) = r_{lambda'}(-n)
    rs = [RationalContent(a=[F(1, 2), 2], b=[F(7, 2)]), LIN, QRationalContent(a=[2], q=F(1, 2))]
    for r in rs:
        for lam in enumerate_partitions(8):
            assert content_product(r.reflected(), 3, lam) == content_product(
                r, -3, lam.conjugate()
            )


def test_multiplicativity_over_skew_chains():
    r = RationalContent(a=[F(1, 2)])
    for lam in enumerate_partitions(6):
        for mu in enumerate_partitions(lam.weight):
            if contains(lam, mu):
                assert content_product(r, 1, lam) == content_product(
                    r, 1, mu
                ) * skew_content_product(r, 1, (lam, mu))


def zeros_on(r, lo, hi):
    """The k in [lo, hi] with r(k) = 0; poles are passed over."""
    out = []
    for k in range(lo, hi + 1):
        try:
            if r(k) == 0:
                out.append(k)
        except ContentPoleError:
            pass
    return out


def poles_on(r, lo, hi):
    """The k in [lo, hi] where r has a pole."""
    out = []
    for k in range(lo, hi + 1):
        try:
            r(k)
        except ContentPoleError:
            out.append(k)
    return out


def weight_table(r, n, D):
    """All weights r_lambda(n) for |lambda| <= D, in the canonical order."""
    return {lam: content_product(r, n, lam) for lam in enumerate_partitions(D)}


def test_zeros_and_windows():
    assert zeros_on(LIN, -2, 2) == [0]
    r = RationalContent(a=[2], b=[0])
    assert poles_on(r, -1, 1) == [0]
    tab = TabulatedContent({-1: F(1, 2), 0: F(0)})
    assert tab(-1) == F(1, 2)
    with pytest.raises(ContentPoleError):
        tab(5)
    # r.window(lo, hi) is the product over (lo, hi]: a one-row content product
    q = RationalContent(a=[-1, F(1, 3)], b=[F(5, 2)])
    for lo in range(-4, 3):
        for hi in range(lo, lo + 5):
            assert q.window(lo, hi) == content_product(q, lo + 1, Partition([hi - lo])), (lo, hi)
    # every r(k) of a window is evaluated, so a zero does not hide a pole after it
    with pytest.raises(ContentPoleError):
        tab.window(-1, 5)


@given(st.lists(st.tuples(st.integers(-4, 2), st.integers(-1, 6)), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_windows_asked_in_any_order_are_the_row_products(bounds):
    # each window extends the longest kept one of its lo; an empty or
    # reversed window is 1, and a pole met on the way still raises
    q = RationalContent(a=[-1, F(1, 3)], b=[F(5, 2)])
    tab = TabulatedContent({k: F(k + 3, 2) for k in range(-3, 4)})
    for lo, hi in bounds:
        hi = lo + hi
        assert q.window(lo, hi) == content_product(q, lo + 1, Partition([max(hi - lo, 0)])), (lo, hi)
        if hi > 3:
            with pytest.raises(ContentPoleError):
                tab.window(lo, hi)
        else:
            assert tab.window(lo, hi) == content_product(tab, lo + 1, Partition([max(hi - lo, 0)]))


def test_wrappers_and_product():
    r = LIN.shifted(2).scaled(F(1, 2))
    assert r(0) == 1
    pr = ProductContent([LIN, LIN])
    assert pr(3) == 9
    assert LIN.reciprocal()(2) == F(1, 2)
    with pytest.raises(ContentPoleError):
        LIN.reciprocal()(0)


def test_weight_table():
    wt = weight_table(RationalContent(a=[1]), 0, 3)
    assert wt[Partition([])] == 1
    assert wt[Partition([2])] == 2
    assert wt[Partition([1, 1])] == 0


def test_parse_content_syntax():
    assert parse_content("linear")(5) == 5
    assert parse_content("one")(-7) == 1
    assert parse_content("rational:a=1/2,2;b=3")(1) == (F(3, 2) * 3) / 4
    rq = parse_content("qrational:a=1;b=2;q=1/3")
    assert rq(0) == (1 - F(1, 3)) / (1 - F(1, 9))
    assert parse_content("table:{-2:1/3,-1:2}")(-2) == F(1, 3)
    assert parse_content("linear|shift:2|scale:1/2")(0) == 1
    with pytest.raises(ValueError):
        parse_content("nonsense:42")


def test_parse_content_field_errors_name_the_field():
    for spec, field in (("qrational:a=1;c=2;q=1/2", "qrational field 'c'"),
                        ("rational:a=1;q=2", "rational field 'q'")):
        with pytest.raises(ValueError, match=field):
            parse_content(spec)
    for spec in ("qrational:a=1", "qrational:q=1/2,1/3"):
        with pytest.raises(ValueError, match="needs one q="):
            parse_content(spec)


def test_q_validation():
    with pytest.raises(ValueError):
        QRationalContent(a=[1], q=F(3, 2))
    with pytest.raises(ValueError):
        QRationalContent(a=[1], q=F(0))


@given(st.integers(min_value=-6, max_value=6))
@settings(max_examples=30, deadline=None)
def test_qrational_matches_definition(k):
    q = F(1, 2)
    r = QRationalContent(a=[1, 4], b=[2], q=q)
    if k == -2:  # genuine pole of the b-factor
        with pytest.raises(ContentPoleError):
            r(k)
        return
    expect = (1 - q ** (1 + k)) * (1 - q ** (4 + k)) / (1 - q ** (2 + k))
    assert r(k) == expect
