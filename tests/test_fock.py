import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fock_reference
from taukit.partitions import Partition, SkewShape, enumerate_partitions, partitions_of
from taukit.symfun import PolyRing, PolySeries, Times, schur, skew_schur, standard_product
from taukit.fock import (
    FockOperator,
    FockState,
    FockVector,
    _family_power,
    exp_action,
    lemma1_check,
    lemma_partition,
    pair,
    psi_apply,
    schur_of_operators,
    state_from_modes,
    trace_h0,
)
from taukit.weights import (
    ConstantOneContent,
    LinearContent,
    RationalContent,
    content_product,
    parse_content,
    skew_content_product,
)

R_HALF = RationalContent(a=[F(1, 2)])
ONE = ConstantOneContent()
LIN = LinearContent()


def as_series(ring, x):
    return x if isinstance(x, PolySeries) else ring.const(x)


def vec_eq(a, b):
    return (a + b.scaled(-1)).is_zero()


def test_elementary_actions():
    v = FockVector.vacuum(0, 6)
    w = FockOperator.H(-1).apply(v)
    assert w.coeff(Partition([1]), 0) == 1 and len(w.amps) == 1
    assert FockOperator.H(2).apply(v).is_zero()
    w = FockOperator.minus_A(1, R_HALF).apply(v)
    assert w.coeff(Partition([1]), 0) == R_HALF(0)
    # A-tilde lowers: on |(1),0> it returns to the vacuum with rt(0)
    w = FockOperator.A_tilde(1, R_HALF).apply(FockVector.basis(Partition([1]), 0, 6))
    assert w.coeff(Partition([]), 0) == R_HALF(0)


def test_pauli_exclusion():
    # H_{-1} on |(1),0>: the move -1 -> 0 is blocked; only -2 -> -1 and 0 -> 1
    w = FockOperator.H(-1).apply(FockVector.basis(Partition([1]), 0, 6))
    assert set(w.amps) == {FockState(Partition([2]), 0), FockState(Partition([1, 1]), 0)}


def test_heisenberg_relations():
    for k, m in itertools.product([-4, -3, -2, -1, 1, 2, 3, 4], repeat=2):
        for lam in enumerate_partitions(3):
            for n in (-1, 0, 2):
                cut = 3 + abs(k) + abs(m)
                v = FockVector.basis(lam, n, cut)
                a = FockOperator.H(m).apply(FockOperator.H(k).apply(v))
                b = FockOperator.H(k).apply(FockOperator.H(m).apply(v))
                comm = a + b.scaled(-1)  # [H_m, H_k] = m delta_{k+m,0}
                expect = v.scaled(F(m)) if k + m == 0 else FockVector({}, cut)
                assert vec_eq(comm, expect), (k, m, lam, n)


def test_deformed_families_commute():
    for k, m in [(1, 2), (2, 3), (1, 3)]:
        for lam in enumerate_partitions(2):
            cut = 2 + k + m
            v = FockVector.basis(lam, 1, cut)
            a = FockOperator.minus_A(m, R_HALF).apply(FockOperator.minus_A(k, R_HALF).apply(v))
            b = FockOperator.minus_A(k, R_HALF).apply(FockOperator.minus_A(m, R_HALF).apply(v))
            assert vec_eq(a, b)
            at = FockOperator.A_tilde(m, R_HALF).apply(FockOperator.A_tilde(k, R_HALF).apply(v))
            bt = FockOperator.A_tilde(k, R_HALF).apply(FockOperator.A_tilde(m, R_HALF).apply(v))
            assert vec_eq(at, bt)


def test_pairing_orthonormal():
    v = FockVector.basis(Partition([2, 1]), 0, 6)
    assert pair(v, v) == 1
    assert pair(FockVector.basis(Partition([2]), 0, 6), FockVector.basis(Partition([1, 1]), 0, 6)) == 0
    assert pair(FockVector.basis(Partition([1]), 1, 6), FockVector.basis(Partition([1]), 0, 6)) == 0


def test_schur_of_operators_state_constructors():
    # s_lambda(H*)|n> = |lambda, n>;  s_lambda(-A)|n> = r_lambda(n) |lambda, n>
    for lam in enumerate_partitions(5):
        for n in (0, 1):
            v = FockVector.vacuum(n, 6)
            assert vec_eq(schur_of_operators(lam, "H*", v), FockVector.basis(lam, n, 6))
            got = schur_of_operators(lam, "-A", v, r=R_HALF)
            expect = FockVector.basis(lam, n, 6).scaled(content_product(R_HALF, n, lam))
            assert vec_eq(got, expect), (lam, n)
    # s_0 is the identity
    v = FockVector.basis(Partition([2]), 0, 4)
    assert vec_eq(schur_of_operators(Partition([]), "H", v), v)


@pytest.mark.parametrize("family", ["H", "H*", "-A", "At"])
def test_schur_of_operators_equals_jacobi_trudi_reference(family):
    # cutoff 4 cuts the raised images of weight 5 and more, cutoff 8 none
    rs = (R_HALF, LIN) if family in ("-A", "At") else (None,)
    for base, n, cutoff, r in itertools.product([Partition(), Partition([2, 1])], (-1, 0, 1), (4, 8), rs):
        v = FockVector.basis(base, n, cutoff)
        for lam in enumerate_partitions(5):
            got = schur_of_operators(lam, family, v, r=r)
            want = fock_reference.schur_of_operators(lam, family, v, r=r)
            assert got.amps == want.amps, (base, n, cutoff, r, lam)
            # where r vanishes, p_m can act on a signed sum whose cut terms
            # cancel in the end, so the recursion may see a cut no product sees
            assert got.truncated == want.truncated or (r is LIN and got.truncated), (base, n, cutoff, lam)


def test_a_tilde_bra_relation():
    # e^{At(t)}|lambda,n> = sum_{mu <= lambda} s_{lambda/mu}(t) rt_{lambda/mu}(n) |mu,n>
    D = 4
    ring = PolyRing.times_ring(D, cap=D)
    tsym = Times.symbolic(ring, D)
    terms = [(tsym.get(m), FockOperator.A_tilde(m, R_HALF)) for m in range(1, D + 1)]
    for lam in enumerate_partitions(3):
        w = exp_action(terms, FockVector.basis(lam, 0, D))
        for mu in enumerate_partitions(3):
            got = as_series(ring, w.coeff(mu, 0))
            if lam.contains(mu):
                expect = skew_schur(SkewShape(lam, mu), tsym) * skew_content_product(
                    R_HALF, 0, SkewShape(lam, mu)
                )
            else:
                expect = 0
            assert got == as_series(ring, expect), (lam, mu)


def test_exp_minus_a_matrix_elements():
    # <lambda,n| e^{-A(t*)} |mu,n> = s_{lambda/mu}(t*) r_{lambda/mu}(n)
    D = 5
    ring = PolyRing.times_ring(D, cap=D)
    usym = Times.symbolic(ring, D)
    terms = [(usym.get(m), FockOperator.minus_A(m, R_HALF)) for m in range(1, D + 1)]
    for mu in enumerate_partitions(3):
        w = exp_action(terms, FockVector.basis(mu, 0, D))
        for lam in enumerate_partitions(D):
            got = as_series(ring, w.coeff(lam, 0))
            if lam.contains(mu):
                expect = skew_schur(SkewShape(lam, mu), usym) * skew_content_product(
                    R_HALF, 0, SkewShape(lam, mu)
                )
            else:
                expect = 0
            assert got == as_series(ring, expect), (lam, mu)
    # spot value: <(2),0|e^{-A}|(1),0> = h_1(t*) r(1)
    w = exp_action(terms, FockVector.basis(Partition([1]), 0, D))
    assert w.coeff(Partition([2]), 0) == usym.get(1) * R_HALF(1)


def fock_tau(r, n, D, ring):
    tsym = Times.symbolic(ring, D, offset=0)
    usym = Times.symbolic(ring, D, offset=D)
    vac = FockVector.vacuum(n, D)
    X = exp_action([(usym.get(m), FockOperator.minus_A(m, r)) for m in range(1, D + 1)], vac)
    Z = exp_action([(tsym.get(m), FockOperator.H(-m)) for m in range(1, D + 1)], vac)
    return pair(Z, X)


def test_vacuum_expectation_is_tau_series():
    from taukit.tau import Formal, TauSpec, tau_series

    D = 5
    ring = PolyRing.bi_times_ring(D, cap=2 * D)
    for r, n in [(ONE, 0), (R_HALF, 1), (LIN, 2)]:
        got = fock_tau(r, n, D, ring)
        expect = tau_series(TauSpec(r, n, Formal(), Formal()), D).as_polyseries(ring)
        assert got == expect, (r, n)


def test_prop2_standard_product():
    ring = PolyRing.times_ring(5, cap=5)
    tt = Times.symbolic(ring, 5)
    S = {lam: as_series(ring, schur(lam, tt)) for lam in enumerate_partitions(4)}
    for lam in enumerate_partitions(4):
        for mu in enumerate_partitions(4):
            v = FockVector.vacuum(0, 6)
            a = schur_of_operators(lam, "H*", v)
            b = schur_of_operators(mu, "H*", v)
            assert pair(a, b) == standard_product(S[lam], S[mu])


def test_prop3_deformed_product():
    for lam in enumerate_partitions(4):
        for mu in enumerate_partitions(4):
            for n in (0, 1):
                v = FockVector.vacuum(n, 6)
                a = schur_of_operators(lam, "H*", v)
                b = schur_of_operators(mu, "-A", v, r=R_HALF)
                expect = content_product(R_HALF, n, lam) if lam == mu else F(0)
                assert pair(a, b) == expect


def test_psi_modes_and_lemma2_signs():
    # the mode construction of |lambda, 0> agrees with the basis state
    for lam in enumerate_partitions(6):
        al, be = lam.frobenius()
        i_list = tuple(al)
        j_list = tuple(b + 1 for b in be)
        window = sum(i_list) + sum(j_list) + len(i_list) + len(j_list) + 2
        v = state_from_modes(i_list, j_list, window)
        sgn = (-1) ** (sum(j_list) % 2)
        assert vec_eq(v.scaled(sgn), FockVector.basis(lam, 0, window)), lam


def test_lemma1_index_patterns():
    checked = 0
    for s in range(0, 4):
        for k in range(0, s + 1):
            for i_list in itertools.combinations(range(8), s):
                i_list = tuple(sorted(i_list, reverse=True))
                for j_list in itertools.combinations(range(1, 8), k):
                    j_list = tuple(sorted(j_list, reverse=True))
                    try:
                        lam = lemma_partition(i_list, j_list)
                    except ValueError:
                        continue
                    if lam.weight > 4:
                        continue
                    rep = lemma1_check(i_list, j_list)
                    assert rep["ok"], rep
                    checked += 1
    assert checked >= 40


def test_lemma1_rejects_bad_patterns():
    with pytest.raises(ValueError):
        lemma1_check((0, 1), ())  # not decreasing
    with pytest.raises(ValueError):
        lemma1_check((1,), (1, 2))  # k > s and not decreasing


def test_h0_eigenvalue_matches_weights():
    for r in (R_HALF, RationalContent(a=[1]), LIN):
        for lam in enumerate_partitions(6):
            for n in (-1, 0, 2):
                assert fock_reference.h0_eigenvalue(r, lam, n) == content_product(r, n, lam), (lam, n)


def test_trace_h0():
    assert trace_h0(RationalContent(a=[1]), 0, 2) == [F(1), F(1), F(2)]
    assert trace_h0(ONE, 0, 3) == [1, 1, 2, 3]
    for n in (0, 1):
        tr = trace_h0(R_HALF, n, 6)
        for d in range(7):
            assert tr[d] == sum(
                (content_product(R_HALF, n, lam) for lam in partitions_of(d)),
                start=F(0),
            )


def test_window_truncation_flag():
    v = FockVector.vacuum(0, 2)
    w = FockOperator.H(-3).apply(v)
    assert w.is_zero() and w.truncated


# -- bead-mask moves against the list-of-sites reference ----------------------

partitions_to_8 = st.sampled_from(list(enumerate_partitions(8)))
charges = st.integers(-3, 3)
# r(k) = k - 1 vanishes at 1, so some windows weigh zero and their moves drop
contents = st.sampled_from([ONE, R_HALF, LIN, RationalContent(a=[-1])])


@st.composite
def vectors(draw):
    """A combination of up to three basis states and a cutoff that may cut
    the input or its image (up to 5 above the largest weight)."""
    states = draw(st.lists(st.tuples(partitions_to_8, charges), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=5).filter(bool),
                           min_size=len(states), max_size=len(states)))
    cutoff = draw(st.integers(0, max(lam.weight for lam, _ in states) + 5))
    return FockVector({FockState(lam, n): c for (lam, n), c in zip(states, coeffs)}, cutoff)


operators = st.one_of(
    st.builds(FockOperator.H, st.integers(1, 5)),
    st.builds(FockOperator.H, st.integers(-5, -1)),
    st.builds(FockOperator.minus_A, st.integers(1, 5), contents),
    st.builds(FockOperator.A_tilde, st.integers(1, 5), contents),
)


@given(operators, vectors())
@settings(max_examples=300, deadline=None)
def test_moves_equal_reference(op, v):
    w = op.apply(v)
    assert (w.amps, w.truncated) == fock_reference.apply(op, v)


@given(vectors(), st.integers(-12, 12), st.booleans())
@settings(max_examples=200, deadline=None)
def test_psi_apply_equals_reference(v, site, create):
    w = psi_apply(v, site, create)
    assert (w.amps, w.truncated) == fock_reference.psi_apply(v, site, create)


@given(partitions_to_8, charges, st.integers(0, 6), operators)
@settings(max_examples=100, deadline=None)
def test_state_round_trips(lam, n, depth, op):
    st_ = FockState(lam, n)
    assert st_.lam == lam and st_.weight == lam.weight
    # a state is the tuple (charge, bead mask, weight), hashed as one
    assert st_ == (n, sum(1 << b for b in fock_reference.maya(lam, lam.length, 1)), lam.weight)
    assert FockState.__hash__ is tuple.__hash__
    floor = n - lam.length - depth
    assert fock_reference.state_maya(st_, floor) == fock_reference.maya(lam, n, floor)
    with pytest.raises(ValueError):
        fock_reference.state_maya(st_, n - lam.length + 1)
    # states built by moves from bead masks equal, and hash like, the same
    # states built from their partitions
    for moved in op.apply(FockVector.basis(lam, n, 16)).amps:
        again = FockState(moved.lam, moved.charge)
        assert moved == again and hash(moved) == hash(again) and moved.weight == moved.lam.weight
        assert fock_reference.state_maya(moved, floor - 6) == fock_reference.maya(moved.lam, n, floor - 6)
        assert moved != FockState(moved.lam, n + 1)


# -- the exponential and the pairing against the reference series -------------

# non-integer a and b; r(k) = -2k/3 and the constant 3/2; r(k) = k - 1, which
# vanishes at 1, inside the windows of moves near the charge
exp_contents = st.sampled_from(
    [parse_content(s) for s in ("rational:a=1/2;b=7/2", "linear|scale:-2/3", "one|scale:3/2", "rational:a=-1")]
)
small_fractions = st.fractions(-3, 3, max_denominator=4)


@st.composite
def exponentials(draw):
    """(terms, v): one family over some of m = 1..D, D <= 6, with Fraction
    coefficients or series in t_1..t_D (up to two terms each), on the
    vacuum, a basis state or a sum of states of charges near n in [-2, 2];
    the cutoff may cut the start vector and its images."""
    D = draw(st.integers(1, 6))
    n = draw(st.integers(-2, 2))
    family = draw(st.sampled_from(["H", "H*", "-A", "At"]))
    r = draw(exp_contents)
    ms = draw(st.lists(st.integers(1, D), min_size=1, max_size=D, unique=True))
    ring = PolyRing.times_ring(D, cap=D) if draw(st.booleans()) else None
    terms = []
    for m in ms:
        c = draw(small_fractions.filter(bool))
        if ring is not None:
            c = ring.var(m - 1) * c + ring.var(0) ** m * draw(small_fractions)
        terms.append((c, _family_power(family, m, r)))
    cutoff = draw(st.integers(0, D))
    kind = draw(st.sampled_from(["vacuum", "basis", "sum"]))
    if kind == "vacuum":
        return terms, FockVector.vacuum(n, cutoff)
    weights = st.integers(0, D).flatmap(lambda d: st.sampled_from(list(partitions_of(d))))
    if kind == "basis":
        return terms, FockVector.basis(draw(weights), n, cutoff)
    states = draw(st.lists(st.tuples(weights, st.integers(n - 1, n + 1)), min_size=2, max_size=3, unique=True))
    amps = {}
    for lam, charge in states:
        a = draw(small_fractions.filter(bool))
        amps[FockState(lam, charge)] = a if ring is None or draw(st.booleans()) else ring.var(0) * a + 1
    return terms, FockVector(amps, cutoff)


@given(exponentials())
@settings(max_examples=150, deadline=None)
def test_exp_action_and_pair_equal_reference(case):
    terms, v = case
    got = exp_action(terms, v)
    want, truncated = fock_reference.exp_action(terms, v)
    assert got.amps == want and got.truncated == truncated
    # a series or a Fraction as the coefficient arithmetic gives it: the
    # pairing's type sets how a result prints
    assert {st: type(a) for st, a in got.amps.items()} == {st: type(a) for st, a in want.items()}
    for bra, bra_want in ((got, want), (v, v.amps)):
        p, q = pair(bra, got), fock_reference.pair(bra_want, want)
        assert p == q and type(p) is type(q)
