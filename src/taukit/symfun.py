"""Exact symmetric-function algebra in higher-times coordinates.

Everything here is exact rational arithmetic.  The two workhorses are

* ``PolySeries`` -- a multivariate polynomial over Fraction, truncated at a
  fixed weighted total degree (variable i carries a weight, typically m for
  the time t_m), and
* ``Times`` -- a truncated vector (t_1, ..., t_K) of "higher times" whose
  entries are Fractions or PolySeries.  Each Times caches its complete and
  elementary symmetric functions h_0..h_k and e_0..e_k, grown on demand by
  the Newton recurrences, so every Schur function of the same Times shares
  them.

Schur functions are evaluated through one Jacobi-Trudi builder: the
h-determinant on lambda or the e-determinant on lambda', whichever is
shorter, and the shifted h-determinant for skew shapes.  Eigenvalue
specializations use the bialternant ratio with a Miwa-map fallback.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .partitions import Partition, SkewShape, enumerate_partitions

Scalar = Union[int, Fraction]
_EMPTY = Partition()


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _num_den(x) -> str:
    """An exact rational (Fraction or int) as "num/den", the output convention."""
    return f"{x.numerator}/{x.denominator}"


class PolyRing:
    """A truncated polynomial ring Q[x_1..x_n] with per-variable weights.

    Monomials of weighted total degree above ``cap`` are dropped on every
    operation, so a PolySeries is always a faithful truncation.
    """

    __slots__ = ("names", "weights", "cap")

    def __init__(self, names: Sequence[str], weights: Sequence[int], cap: int):
        if len(names) != len(weights):
            raise ValueError("names and weights must align")
        self.names = tuple(names)
        self.weights = tuple(int(w) for w in weights)
        self.cap = int(cap)

    @classmethod
    def times_ring(cls, K: int, cap: Optional[int] = None, prefix: str = "t") -> "PolyRing":
        """Ring of t_1..t_K with weight(t_m) = m."""
        return cls(
            [f"{prefix}{m}" for m in range(1, K + 1)],
            list(range(1, K + 1)),
            K if cap is None else cap,
        )

    @classmethod
    def bi_times_ring(cls, K: int, cap: Optional[int] = None) -> "PolyRing":
        """Ring of t_1..t_K, u_1..u_K (u = t*), each slot of weight m."""
        names = [f"t{m}" for m in range(1, K + 1)] + [f"u{m}" for m in range(1, K + 1)]
        weights = list(range(1, K + 1)) * 2
        return cls(names, weights, 2 * K if cap is None else cap)

    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "PolySeries":
        return PolySeries(self, {})

    def one(self) -> "PolySeries":
        return PolySeries(self, {(0,) * self.nvars(): Fraction(1)})

    def const(self, c) -> "PolySeries":
        c = _as_fraction(c)
        return PolySeries(self, {(0,) * self.nvars(): c} if c else {})

    def var(self, i: int) -> "PolySeries":
        e = [0] * self.nvars()
        e[i] = 1
        return PolySeries(self, {tuple(e): Fraction(1)})

    def var_named(self, name: str) -> "PolySeries":
        return self.var(self.names.index(name))

    def degree_of(self, expo: tuple[int, ...]) -> int:
        return sum(e * w for e, w in zip(expo, self.weights))

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.weights == other.weights
            and self.cap == other.cap
        )

    def __hash__(self):
        return hash((self.names, self.weights, self.cap))

    def __repr__(self):
        return f"PolyRing({self.names}, cap={self.cap})"


class PolySeries:
    """Truncated polynomial with exact Fraction coefficients.

    Zero coefficients are never stored; monomials above the ring cap are
    dropped by construction.  Supports +, -, *, ** and mixed arithmetic with
    ints and Fractions so it can stand in for a scalar in generic code.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {
            e: c
            for e, c in terms.items()
            if c != 0 and ring.degree_of(e) <= ring.cap
        }

    # -- ring arithmetic -----------------------------------------------

    def _coerce(self, other) -> "PolySeries":
        if isinstance(other, PolySeries):
            if other.ring != self.ring:
                raise ValueError("PolySeries from different rings")
            return other
        return self.ring.const(_as_fraction(other))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return PolySeries(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return PolySeries(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, PolySeries):
            c = _as_fraction(other)
            if not c:
                return self.ring.zero()
            return PolySeries(self.ring, {e: v * c for e, v in self.terms.items()})
        if other.ring != self.ring:
            raise ValueError("PolySeries from different rings")
        ring = self.ring
        cap = ring.cap
        out: dict = {}
        # iterate the smaller factor outside
        a, b = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        bdeg = {e: ring.degree_of(e) for e in b}
        for ea, ca in a.items():
            da = ring.degree_of(ea)
            for eb, cb in b.items():
                if da + bdeg[eb] > cap:
                    continue
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return PolySeries(ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a PolySeries")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, PolySeries) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and structure ------------------------------------------

    def diff(self, i: int) -> "PolySeries":
        """Partial derivative with respect to variable i."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return PolySeries(self.ring, out)

    def coefficient(self, expo: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nvars(), Fraction(0))

    def valuation(self) -> int:
        """Smallest weighted degree with a nonzero coefficient (cap+1 if zero)."""
        if not self.terms:
            return self.ring.cap + 1
        return min(self.ring.degree_of(e) for e in self.terms)

    def filter_degree(self, dmax: int) -> "PolySeries":
        return PolySeries(
            self.ring,
            {e: c for e, c in self.terms.items() if self.ring.degree_of(e) <= dmax},
        )

    def scale_vars(self, factors: Sequence[Fraction]) -> "PolySeries":
        """Substitute x_i -> factors[i] * x_i."""
        out = {}
        for e, c in self.terms.items():
            f = c
            for ei, fac in zip(e, factors):
                if ei:
                    f *= _as_fraction(fac) ** ei
            if f:
                out[e] = f
        return PolySeries(self.ring, out)

    def rename_swap(self, perm: Sequence[int]) -> "PolySeries":
        """Permute variable slots: new exponent vector e'[perm[i]] = e[i]."""
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(e)
            for i, ei in enumerate(e):
                e2[perm[i]] = ei
            out[tuple(e2)] = c
        return PolySeries(self.ring, out)

    def subs(self, values: Sequence) -> Fraction:
        """Evaluate at exact rational values (full substitution)."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for ei, x in zip(e, values):
                if ei:
                    v *= _as_fraction(x) ** ei
            total += v
        return total

    def to_json_dict(self) -> dict:
        """{"e1,e2,...": "num/den"} with keys sorted, for stable output."""
        items = {}
        for e in sorted(self.terms):
            items[",".join(map(str, e))] = _num_den(self.terms[e])
        return items

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (self.ring.degree_of(e), e)):
            c = self.terms[e]
            mono = "*".join(
                f"{n}^{k}" if k > 1 else n
                for n, k in zip(self.ring.names, e)
                if k
            )
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)


def exp_series(f: PolySeries) -> PolySeries:
    """exp(f) for a series with zero constant term, truncated at the ring cap."""
    if f.constant_term() != 0:
        raise ValueError("exp needs a series with zero constant term")
    out = f.ring.one()
    term = f.ring.one()
    k = 1
    while True:
        term = term * f * Fraction(1, k)
        if term.is_zero():
            break
        out = out + term
        k += 1
    return out


def inverse_series(f: PolySeries) -> PolySeries:
    """1/f for a series with constant term 1: 1/(1+g) = sum (-g)^k."""
    if f.constant_term() != 1:
        raise ValueError("inverse_series expects constant term 1")
    g = -(f - 1)
    out = f.ring.one()
    term = f.ring.one()
    while True:
        term = term * g
        if term.is_zero():
            break
        out = out + term
    return out


class Times:
    """A truncated vector of higher times (t_1, ..., t_K).

    Entries may be Fractions (numeric specializations) or PolySeries
    (symbolic variables); t_m for m > K is exactly zero.  The lists of
    h_k(t) and e_k(t) computed so far are kept on the object.
    """

    __slots__ = ("entries", "K", "_h", "_e")

    def __init__(self, entries: Sequence):
        self.entries = tuple(entries)
        self.K = len(self.entries)
        self._h = [Fraction(1)]
        self._e = [Fraction(1)]

    def get(self, m: int):
        """t_m (1-based); zero beyond the cutoff."""
        if 1 <= m <= self.K:
            return self.entries[m - 1]
        return Fraction(0)

    @classmethod
    def of(cls, values: Iterable) -> "Times":
        return cls([v if isinstance(v, PolySeries) else _as_fraction(v) for v in values])

    @classmethod
    def zero(cls, K: int) -> "Times":
        return cls([Fraction(0)] * K)

    @classmethod
    def symbolic(cls, ring: PolyRing, K: int, offset: int = 0) -> "Times":
        """t_m = ring variable offset+m-1 for m = 1..K."""
        return cls([ring.var(offset + m - 1) for m in range(1, K + 1)])

    @classmethod
    def exp_point(cls, K: int) -> "Times":
        """t_infinity = (1, 0, 0, ...): the exponential specialization."""
        return cls([Fraction(1)] + [Fraction(0)] * (K - 1))

    @classmethod
    def weight_a(cls, a, K: int) -> "Times":
        """t(a) = (a/1, a/2, a/3, ...)."""
        a = _as_fraction(a)
        return cls([Fraction(a, 1) / m for m in range(1, K + 1)])

    @classmethod
    def q_weight_a(cls, a: int, q, K: int) -> "Times":
        """gamma(a, q): t_m = (1 - q^(a m)) / (m (1 - q^m)); integer a."""
        q = _as_fraction(q)
        return cls([(1 - q ** (a * m)) / (m * (1 - q**m)) for m in range(1, K + 1)])

    @classmethod
    def q_geometric(cls, q, K: int) -> "Times":
        """gamma(+infinity, q): t_m = 1 / (m (1 - q^m))."""
        q = _as_fraction(q)
        return cls([Fraction(1, 1) / (m * (1 - q**m)) for m in range(1, K + 1)])

    def negate(self) -> "Times":
        return Times([-e for e in self.entries])

    def _symmetric(self, dual: bool, D: int) -> list:
        """The cached list h_0..h_D (e_0..e_D when dual), extended in place.

        Newton: k h_k = sum_m m t_m h_{k-m} and
        k e_k = sum_m (-1)^(m-1) m t_m e_{k-m}; t_m = 0 for m > K.
        """
        seq = self._e if dual else self._h
        for k in range(len(seq), D + 1):
            acc = None
            for m in range(1, min(k, self.K) + 1):
                tm = self.entries[m - 1]
                if isinstance(tm, Fraction) and tm == 0:
                    continue
                piece = ((-m if dual and m % 2 == 0 else m) * tm) * seq[k - m]
                acc = piece if acc is None else acc + piece
            seq.append(Fraction(0) if acc is None else acc * Fraction(1, k))
        return seq

    def __repr__(self):
        return f"Times({list(self.entries)})"


def miwa(xs: Sequence, K: int, sign: int = 1) -> Times:
    """Map eigenvalues to higher times via m t_m = +/- sum_i x_i^m."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    entries = []
    for m in range(1, K + 1):
        s = sum((x ** m for x in xs), start=Fraction(0))
        entries.append(sign * s / m if not isinstance(s, PolySeries) else s * Fraction(sign, m))
    return Times(entries)


def h_list(t: Times, D: int) -> list:
    """Complete symmetric functions h_0..h_D of the times t, defined by
    exp(sum_m t_m z^m) = sum_k h_k z^k (a copy of the list t caches)."""
    return t._symmetric(False, D)[: D + 1]


def e_list(t: Times, D: int) -> list:
    """Elementary symmetric functions e_0..e_D: e_k(t) = (-1)^k h_k(-t)
    (a copy of the list t caches)."""
    return t._symmetric(True, D)[: D + 1]


def _det(rows: list[list]) -> object:
    """Determinant over a commutative ring, expanding along rows with
    memoized column subsets (O(2^n * n) ring products)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    memo: dict[tuple[int, ...], object] = {}

    def expand(row: int, cols: tuple[int, ...]):
        if not cols:
            return Fraction(1)
        if cols in memo:
            return memo[cols]
        acc = None
        for pos, c in enumerate(cols):
            entry = rows[row][c]
            if isinstance(entry, Fraction) and entry == 0:
                continue
            if isinstance(entry, PolySeries) and entry.is_zero():
                continue
            sub = expand(row + 1, cols[:pos] + cols[pos + 1:])
            piece = entry * sub if pos % 2 == 0 else -(entry * sub)
            acc = piece if acc is None else acc + piece
        if acc is None:
            acc = Fraction(0)
        memo[cols] = acc
        return acc

    return expand(0, tuple(range(n)))


def _jacobi_trudi(seq: list, outer: Partition, inner: Partition) -> object:
    """det(seq[outer_i - inner_j - i + j]) of size max(l(outer), l(inner), 1),
    with seq[k] = 0 for k < 0; seq must reach index outer_1 + size - 1."""
    n = max(outer.length, inner.length, 1)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            k = outer.part(i) - inner.part(j) - i + j
            row.append(seq[k] if k >= 0 else Fraction(0))
        rows.append(row)
    return _det(rows)


def schur(lam: Partition, t: Times) -> object:
    """Schur function s_lambda(t) by the Jacobi-Trudi determinant.

    Uses the h-determinant on lambda or the e-determinant on the conjugate,
    whichever matrix is smaller.  s_0 = 1.
    """
    if lam.length == 0:
        return Fraction(1)
    conj = lam.conjugate()
    dual = conj.length < lam.length
    side = conj if dual else lam
    return _jacobi_trudi(t._symmetric(dual, side.part(1) + side.length - 1), side, _EMPTY)


def skew_schur(shape, t: Times) -> object:
    """Skew Schur function via det(h_{lambda_i - mu_j - i + j}).

    Accepts a SkewShape or a bare (outer, inner) pair; reduces to
    schur(outer) when the inner partition is empty, and the determinant
    vanishes identically whenever inner is not contained in outer.
    """
    if isinstance(shape, SkewShape):
        lam, mu = shape.outer, shape.inner
    else:
        lam, mu = shape
    if mu.length == 0:
        return schur(lam, t)
    n = max(lam.length, mu.length, 1)
    return _jacobi_trudi(t._symmetric(False, lam.part(1) + n - 1), lam, mu)


def schur_from_eigenvalues(lam: Partition, xs: Sequence) -> Fraction:
    """s_lambda(x_1..x_n) as the bialternant ratio of determinants.

    Falls back to the Miwa route when eigenvalues coincide.  Zero when the
    partition is longer than the number of variables.
    """
    xs = [_as_fraction(x) for x in xs]
    n = len(xs)
    if lam.length > n:
        return Fraction(0)
    if lam.length == 0 and n == 0:
        return Fraction(1)
    if len(set(xs)) < n:
        # degenerate: fall back to the Miwa image
        return schur(lam, miwa(xs, max(lam.weight, 1)))
    num_rows = [
        [x ** (lam.part(j) + n - j) for j in range(1, n + 1)] for x in xs
    ]
    den = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            den *= xs[i] - xs[j]
    return _det(num_rows) / den


def standard_product(f: PolySeries, g: PolySeries) -> Fraction:
    """The power-sum scalar product <,> on polynomials in t_1..t_K.

    On monomials t^e it is diagonal with value prod_m e_m! / m^{e_m}
    (equivalent to <p_lambda, p_mu> = delta z_lambda).  The ring's variables
    must be times t_m with weight m.
    """
    if f.ring != g.ring:
        raise ValueError("scalar product needs a common ring")
    from math import factorial

    weights = f.ring.weights
    total = Fraction(0)
    for e, cf in f.terms.items():
        cg = g.terms.get(e)
        if cg is None:
            continue
        z = Fraction(1)
        for em, m in zip(e, weights):
            if em:
                z *= Fraction(factorial(em), m**em)
        total += cf * cg * z
    return total


def cauchy_truncated(D: int, K: Optional[int] = None) -> tuple[PolySeries, PolySeries]:
    """Both sides of exp(sum m t_m t*_m) = sum_lambda s_lambda(t) s_lambda(t*),
    truncated to total bidegree D on each side.

    Returns (lhs, rhs) in the bivariate ring; they must be equal.
    """
    K = D if K is None else K
    ring = PolyRing.bi_times_ring(K, cap=2 * D)
    tsym = Times.symbolic(ring, K, offset=0)
    usym = Times.symbolic(ring, K, offset=K)
    f = ring.zero()
    for m in range(1, K + 1):
        f = f + (tsym.get(m) * usym.get(m)) * m
    lhs = exp_series(f)
    rhs = ring.zero()
    tring = PolyRing.times_ring(K, cap=D)
    tonly = Times.symbolic(tring, K)
    for lam in enumerate_partitions(D):
        s = schur(lam, tonly)
        if not isinstance(s, PolySeries):
            s = tring.const(s)
        if s.is_zero():
            continue
        rhs = rhs + _cross(ring, K, s, s)
    return lhs, rhs


def _cross(ring: PolyRing, ring_K: int, st: PolySeries, su: PolySeries) -> PolySeries:
    """st(t) * su(t*) embedded into the bivariate ring (u = upper block),
    each factor's exponents zero-padded to the block width ring_K."""
    ts = [(tuple(e) + (0,) * (ring_K - len(e)), c) for e, c in st.terms.items()]
    us = [(tuple(e) + (0,) * (ring_K - len(e)), c) for e, c in su.terms.items()]
    out: dict = {}
    for et, ct in ts:
        for eu, cu in us:
            e = et + eu
            if ring.degree_of(e) > ring.cap:
                continue
            c = ct * cu
            if c:
                out[e] = out.get(e, Fraction(0)) + c
    return PolySeries(ring, out)


class Poly1:
    """Dense univariate polynomial over Fraction (used for coefficients in N).

    Unlike PolySeries there is no truncation; these are honest polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls) -> "Poly1":
        return cls([0, 1])

    @classmethod
    def const(cls, c) -> "Poly1":
        return cls([c])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        other = other if isinstance(other, Poly1) else Poly1.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly1([-c for c in self.coeffs])

    def __sub__(self, other):
        other = other if isinstance(other, Poly1) else Poly1.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly1.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly1):
            c = _as_fraction(other)
            return Poly1([a * c for a in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly1(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = other if isinstance(other, Poly1) else Poly1.const(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_divide(self, k: int) -> "Poly1":
        """Exact division by x^k; raises if the low coefficients are nonzero."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("not divisible by x^k")
        return Poly1(self.coeffs[k:])

    def is_even(self) -> bool:
        return all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 1)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c})N^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs) if c != 0
        )
