"""The packed PolySeries against the tuple-keyed Fraction reference, term for
term, on the rings the library builds: bi rings of times up to K = 24,
weight-1 eigenvalue rings, the [1, 2, 1, 2] ring of the Gauss closed form,
cap 0 and the ring without variables of cap -2 that the Hirota residual
returns at degree 0.  Each result must also equal, with the same hash, the
series rebuilt from its own terms, so every operation leaves it reduced."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from taukit.partitions import enumerate_partitions
from taukit.symfun import PolyRing, PolySeries, _det, exp_series, inverse_series, schur_expansion

from polyseries_reference import RefSeries, ref_det, ref_exp, ref_inverse, ref_schur_expansion

RINGS = [
    PolyRing.bi_times_ring(2),
    PolyRing.bi_times_ring(4, cap=5),
    PolyRing.bi_times_ring(8, cap=16),
    PolyRing.bi_times_ring(12, cap=22),
    PolyRing.bi_times_ring(24, cap=48),
    PolyRing.bi_times_ring(24, cap=10),
    PolyRing.times_ring(6, cap=7),
    PolyRing([f"{x}{i}" for x in "xy" for i in range(1, 4)], [1] * 6, 9),
    PolyRing(["x1", "x2", "x3"], [1] * 3, 4),
    PolyRing(["t1", "t2", "u1", "u2"], [1, 2, 1, 2], 8),
    PolyRing.times_ring(3, cap=0),
    PolyRing.bi_times_ring(2, cap=0),
    PolyRing.bi_times_ring(0, cap=-2),
]
# rings whose exp, inverse and determinants stay small
SMALL_RINGS = [RINGS[i] for i in (0, 1, 2, 5, 7, 8, 9, 10, 11, 12)]

coefficients = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(4, 3), F(6), F(-3, 4), F(0)])


@st.composite
def monomials(draw, ring):
    """An exponent vector: up to three variables, each up to one past the
    largest power the cap allows, or that largest power alone."""
    n = ring.nvars()
    e = [0] * n
    if not n:
        return ()
    top = [max(ring.cap, 0) // w for w in ring.weights]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        e[i] = top[i]
        return tuple(e)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        e[i] = draw(st.integers(0, top[i] + 1))
    return tuple(e)


def series_on(ring, max_terms=6):
    return st.dictionaries(monomials(ring), coefficients, max_size=max_terms)


@st.composite
def ring_and_series(draw, rings=RINGS, count=2, max_terms=6):
    ring = draw(st.sampled_from(rings))
    return ring, [draw(series_on(ring, max_terms)) for _ in range(count)]


def same(p, ref):
    """p equals the reference term for term, and is in reduced form."""
    assert dict(p.terms) == ref.terms
    assert len(p.terms) == len(ref.terms)
    rebuilt = PolySeries(p.ring, p.terms)
    assert p == rebuilt and hash(p) == hash(rebuilt)


@given(ring_and_series(), coefficients, st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_arithmetic_equals_reference(rs, c, k, data):
    ring, (tf, tg) = rs
    f, g = PolySeries(ring, tf), PolySeries(ring, tg)
    rf, rg = RefSeries(ring, tf), RefSeries(ring, tg)
    same(f, rf)
    same(f + g, rf + rg)
    same(f - g, rf - rg)
    same(-f, -rf)
    same(f * g, rf * rg)
    same(f * f, rf * rf)
    same(f * c, rf * c)
    same(c * g, rg * c)
    same(f + c, rf + c)
    same(c - g, c - rg)
    same(f**k, rf**k)
    assert (f == g) == (rf == rg)
    assert f.constant_term() == rf.terms.get((0,) * ring.nvars(), 0)
    for e, v in rf.terms.items():
        assert f.coefficient(e) == v
    if ring.nvars():
        i = data.draw(st.integers(0, ring.nvars() - 1))
        same(f.diff(i), rf.diff(i))
        factors = data.draw(st.lists(st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3)]),
                                     min_size=ring.nvars(), max_size=ring.nvars()))
        same(f.scale_vars(factors), rf.scale_vars(factors))
        perm = data.draw(st.permutations(range(ring.nvars())))
        same(f.rename_swap(perm), rf.rename_swap(perm))
    half = ring.nvars() // 2
    swap = [*range(half, ring.nvars()), *range(half)]
    same(f.rename_swap(swap), rf.rename_swap(swap))
    lower = PolyRing(ring.names, ring.weights, data.draw(st.integers(min(ring.cap, -2), ring.cap)))
    same(f.truncate(lower), rf.truncate(lower))
    same((f * g).truncate(lower), (rf * rg).truncate(lower))


@given(ring_and_series(SMALL_RINGS, count=1, max_terms=3))
@settings(max_examples=60, deadline=None)
def test_exp_and_inverse_equal_reference(rs):
    ring, (tf,) = rs
    tf = {e: c for e, c in tf.items() if any(e)}  # no constant term
    f, rf = PolySeries(ring, tf), RefSeries(ring, tf)
    same(exp_series(f), ref_exp(rf))
    if ring.cap >= 0:
        same(inverse_series(1 + f), ref_inverse(1 + rf))


@given(st.integers(2, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_det_equals_reference(n, data):
    ring = data.draw(st.sampled_from(SMALL_RINGS))
    entries = [[data.draw(series_on(ring, 3)) for _ in range(n)] for _ in range(n)]
    got = _det([[PolySeries(ring, t) for t in row] for row in entries])
    want = ref_det([[RefSeries(ring, t) for t in row] for row in entries])
    same(got if isinstance(got, PolySeries) else ring.const(got), want)


@given(st.dictionaries(st.sampled_from(list(enumerate_partitions(6))), coefficients, max_size=12),
       st.integers(1, 2), st.integers(1, 7), st.integers(-1, 14))
@settings(max_examples=80, deadline=None)
def test_schur_expansion_equals_reference(coeffs, sides, K, cap):
    ring = PolyRing.times_ring(K, cap=cap) if sides == 1 else PolyRing.bi_times_ring(K, cap=cap)
    same(schur_expansion(ring, coeffs, sides), ref_schur_expansion(ring, coeffs, sides))
