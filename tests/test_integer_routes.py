"""The integer-pair routes against the Fraction routes of
``fraction_reference``, term for term: the one-variable pFs and qPhi series
and their residuals, QRationalContent values, the row-window loop scalar
product and the bead-mask Fock trace.  Where a pole stops a route, both
routes raise it with the same message."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
import taukit.tau as tau_mod
from taukit.fock import trace_h0
from taukit.models import loop_scalar_product
from taukit.tau import ode_residual, pfs_one_var_coeffs, q_difference_residual, qphi_one_var_coeffs
from taukit.weights import ContentPoleError, QRationalContent, RationalContent


def outcome(fn, *args):
    """fn's value, or the message of the pole it raises."""
    try:
        return fn(*args)
    except ContentPoleError as exc:
        return f"pole: {exc}"


# integers among the rationals put zeros and poles of r on the lattice
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
offsets = st.lists(st.integers(-3, 3), max_size=3)
qs = st.fractions(min_value=-1, max_value=1, max_denominator=7).filter(lambda q: 0 < abs(q) < 1)
contents = st.one_of(
    st.builds(RationalContent, st.lists(rationals, max_size=2), st.lists(rationals, max_size=2)),
    st.builds(QRationalContent, offsets, offsets, qs),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(contents, max_size=3), st.integers(-3, 3), st.integers(0, 9))
@example([RationalContent([-1], [-2])], 0, 5)  # a zero cell before the pole of (3): weight 0
@example([RationalContent([], [-2])], 0, 5)  # the pole named by its cell (1,3) of [3]
@example([RationalContent([1], [2]), RationalContent([], [-1])], 0, 5)  # the second g's pole
@example([RationalContent([0]), RationalContent([], [-1])], 0, 5)  # the first g's zero wins
def test_loop_scalar_product_equals_cell_by_cell(gs, n, D):
    assert outcome(loop_scalar_product, gs, n, D) == outcome(ref.loop_scalar_product, gs, n, D)


@settings(max_examples=300, deadline=None)
@given(contents, st.integers(-3, 3), st.integers(0, 10))
@example(RationalContent([-1], [-2]), 0, 5)  # the Fock route meets the pole behind the zero
def test_trace_h0_equals_frobenius_route(r, n, D):
    assert outcome(trace_h0, r, n, D) == outcome(ref.trace_h0, r, n, D)


@settings(max_examples=200, deadline=None)
@given(offsets, offsets, qs)
def test_q_rational_values_equal_fraction_powers(a, b, q):
    r = QRationalContent(a, b, q)
    for k in range(-6, 7):
        assert outcome(r, k) == outcome(ref.q_rational_value, a, b, q, k), k


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=3), st.lists(rationals, max_size=3), st.integers(0, 40))
def test_pfs_series_and_ode_residual_equal_fraction_routes(a, b, D):
    assert outcome(pfs_one_var_coeffs, a, b, D) == outcome(ref.pfs_one_var_coeffs, a, b, D)
    assert outcome(ode_residual, a, b, D) == outcome(ref.ode_residual, a, b, D)


@settings(max_examples=200, deadline=None)
@given(offsets, offsets, qs, st.integers(0, 40))
def test_qphi_series_and_q_difference_residual_equal_fraction_routes(a, b, q, D):
    assert outcome(qphi_one_var_coeffs, a, b, q, D) == outcome(ref.qphi_one_var_coeffs, a, b, q, D)
    assert outcome(q_difference_residual, a, b, q, D) == outcome(ref.q_difference_residual, a, b, q, D)


def test_verify_defaults_at_degree_300_equal_fraction_routes():
    a, b, q = [F(1, 2), F(1, 3)], [F(5, 4)], F(1, 3)
    assert pfs_one_var_coeffs(a, b, 300) == ref.pfs_one_var_coeffs(a, b, 300)
    assert qphi_one_var_coeffs([1, 2], [3], q, 300) == ref.qphi_one_var_coeffs([1, 2], [3], q, 300)


@pytest.mark.parametrize("k", range(12))
def test_one_perturbed_coefficient_makes_each_residual_nonzero(monkeypatch, k):
    D = 12
    a, b = [F(1, 2), F(-7, 3)], [F(5, 4)]
    cs = pfs_one_var_coeffs(a, b, D)
    cs[k] += 1
    monkeypatch.setattr(tau_mod, "pfs_one_var_coeffs", lambda *args: cs)
    res = ode_residual(a, b, D)
    assert any(res) and res == ref.ode_residual(a, b, D, cs)

    qa, qb, q = [1, -2], [3], F(-2, 5)
    cs = qphi_one_var_coeffs(qa, qb, q, D)
    cs[k + 1] += 1
    monkeypatch.setattr(tau_mod, "qphi_one_var_coeffs", lambda *args: cs)
    res = q_difference_residual(qa, qb, q, D)
    assert any(res) and res == ref.q_difference_residual(qa, qb, q, D, cs)
