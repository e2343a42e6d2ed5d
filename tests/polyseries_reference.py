"""Reference truncated series for the tests: tuple-keyed dicts of Fractions,
the representation ``taukit.symfun.PolySeries`` had before it packed each
monomial into one int with integer numerators over one denominator.  Every
operation here works term by term on exponent tuples and shares no code with
the packed form; only the ring's names, weights and cap are read."""

from fractions import Fraction as F
from itertools import permutations
from math import factorial, lcm, prod
from operator import add, mul

from taukit.symfun import characters


class RefSeries:
    """{exponent tuple: nonzero Fraction}, monomials above the cap dropped."""

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: F(c) for e, c in terms.items() if c != 0 and degree(ring, e) <= ring.cap}

    def _coerce(self, other):
        if isinstance(other, RefSeries):
            assert other.ring == self.ring
            return other
        return const(self.ring, other)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            out[e] = out.get(e, 0) + c
        return RefSeries(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return RefSeries(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return RefSeries(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = const(self.ring, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, RefSeries) and self.ring == other.ring and self.terms == other.terms

    def diff(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return RefSeries(self.ring, out)

    def scale_vars(self, factors):
        out = {}
        for e, c in self.terms.items():
            for ei, f in zip(e, factors):
                c *= F(f) ** ei
            out[e] = c
        return RefSeries(self.ring, out)

    def rename_swap(self, perm):
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(e)
            for i, ei in enumerate(e):
                e2[perm[i]] = ei
            out[tuple(e2)] = c
        return RefSeries(self.ring, out)

    def truncate(self, ring):
        return RefSeries(ring, self.terms)


def degree(ring, e):
    return sum(map(mul, e, ring.weights))


def const(ring, c):
    return RefSeries(ring, {(0,) * len(ring.names): F(c)})


def ref_exp(f):
    """exp(f) = sum_k f^k / k!, term by term until a power vanishes."""
    out = term = const(f.ring, 1)
    k = 1
    while True:
        term = term * f * F(1, k)
        if not term.terms:
            return out
        out = out + term
        k += 1


def ref_inverse(f):
    """1/f = sum_k (1 - f)^k for a series with constant term 1."""
    g = 1 - f
    out = term = const(f.ring, 1)
    while True:
        term = term * g
        if not term.terms:
            return out
        out = out + term


def ref_det(rows):
    """The Leibniz sum over permutations."""
    n = len(rows)
    total = const(rows[0][0].ring, 0)
    for p in permutations(range(n)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total = total + prod((rows[i][p[i]] for i in range(n)), start=const(total.ring, sign))
    return total


def ref_schur_expansion(ring, coeffs, sides):
    """The character-table expansion with one Fraction per monomial."""
    K = len(ring.names) // sides
    graded = {}
    for lam, c in coeffs.items():
        if c:
            graded.setdefault(lam.weight, []).append((lam, F(c)))
    out = {}
    for d in sorted(graded):
        if d * sides > ring.cap:
            continue
        parts, table = characters(d)
        row_of = dict(zip(parts, table))
        entries = graded[d]
        L = lcm(*(c.denominator for _, c in entries))
        scaled = [c.numerator * (L // c.denominator) for _, c in entries]
        columns = []
        for j, mu in enumerate(parts):
            if mu.length and mu.parts[0] > K:
                continue
            expo = [0] * K
            for p in mu.parts:
                expo[p - 1] += 1
            columns.append((tuple(expo), prod(map(factorial, expo)), [row_of[lam][j] for lam, _ in entries]))
        for et, ft, ct in columns:
            weighted = list(map(mul, scaled, ct))
            if sides == 1:
                out[et] = F(sum(weighted), L * ft)
                continue
            for eu, fu, cu in columns:
                out[et + eu] = F(sum(map(mul, weighted, cu)), L * ft * fu)
    return RefSeries(ring, out)


def standard_product(f, g):
    """The power-sum scalar product on polynomials in times t_m of weight m:
    diagonal on monomials with <t^e, t^e> = prod_m e_m! / m^{e_m}, so that
    <p_lambda, p_mu> = delta z_lambda."""
    assert f.ring == g.ring
    weights, other = f.ring.weights, g.terms
    total = F(0)
    for e, c in f.terms.items():
        if e in other:
            total += c * other[e] * prod(F(factorial(k), m**k) for k, m in zip(e, weights))
    return total


def is_even(p):
    """A Poly1 with no odd power of its variable."""
    return all(c == 0 for c in p.coeffs[1::2])
