"""Exact symmetric-function algebra in higher-times coordinates.

Everything here is exact rational arithmetic.  The two workhorses are

* ``PolySeries`` -- a multivariate polynomial over Fraction, truncated at a
  fixed weighted total degree (variable i carries a weight, typically m for
  the time t_m), and
* ``Times`` -- a truncated vector (t_1, ..., t_K) of "higher times" whose
  entries are Fractions or PolySeries.

The public ``PolySeries(ring, terms)`` drops zero coefficients and monomials
above the ring cap.  Sums, differences, products, scalar multiples and
derivatives build results that already satisfy both conditions, so they use
a private trusted constructor that skips this filter; a product sorts the
larger factor by weighted degree once and pairs each term of the other only
with the terms that fit under the cap.

One border-strip engine evaluates every Schur function of a Times: s_lambda,
s_{lambda/mu}, h_k = s_(k) and e_k = s_(1^k), by the Murnaghan-Nakayama
recursion on bead masks, memoised on the Times and run on integers when the
times are rational.  Schur series in formal times, sum c_lambda s_lambda(t)
and sum c_lambda s_lambda(t) s_lambda(t*), are expanded by ``schur_expansion``
from the integer character tables ``characters(d)``, built by the same strip
removal: [t^e] s_lambda = chi^lambda_mu / prod_m e_m!, one block per degree.
Eigenvalue specializations use the bialternant ratio with a Miwa-map fallback.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import islice
from math import factorial, lcm, perm, prod
from operator import add, itemgetter, mul
from typing import Iterable, Optional, Sequence, Union

from .partitions import Partition, SkewShape, enumerate_partitions, partitions_of

Scalar = Union[int, Fraction]


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

    def degree_of(self, expo: tuple[int, ...]) -> int:
        return sum(map(mul, expo, self.weights))

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

    @classmethod
    def _trusted(cls, ring: PolyRing, terms: dict) -> "PolySeries":
        """Wrap ``terms`` as they are: the caller guarantees that no
        coefficient is zero and no monomial lies above the ring cap."""
        out = cls.__new__(cls)
        out.ring = ring
        out.terms = terms
        return out

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
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return PolySeries._trusted(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return PolySeries._trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, PolySeries):
            c = _as_fraction(other)
            if not c:
                return self.ring.zero()
            return PolySeries._trusted(self.ring, {e: v * c for e, v in self.terms.items()})
        if other.ring != self.ring:
            raise ValueError("PolySeries from different rings")
        ring = self.ring
        cap = ring.cap
        # the smaller factor runs outside; the larger one is sorted by weighted
        # degree once, so each outer term meets only the terms that fit under
        # the cap, a prefix of that order
        a, b = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        degree_of = ring.degree_of
        graded = sorted(((degree_of(e), e, c) for e, c in b.items()), key=itemgetter(0))
        degrees = [d for d, _, _ in graded]
        out: dict = {}
        for ea, ca in a.items():
            for _, eb, cb in islice(graded, bisect_right(degrees, cap - degree_of(ea))):
                e = tuple(map(add, ea, eb))
                s = out.get(e)
                out[e] = ca * cb if s is None else s + ca * cb
        return PolySeries._trusted(ring, {e: c for e, c in out.items() if c})

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
        return PolySeries._trusted(self.ring, out)

    def coefficient(self, expo: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nvars(), Fraction(0))

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
    (symbolic variables); t_m for m > K is exactly zero.  Every Schur value
    the border-strip engine computes on it is memoised on the object.
    """

    __slots__ = ("entries", "K", "_scale", "_steps", "_memo")

    def __init__(self, entries: Sequence):
        self.entries = tuple(entries)
        self.K = len(self.entries)
        self._memo: dict[int, dict] = {}  # bead mask of the inner shape -> {bead mask: S}
        # the engine weights m t_m c^m: integers when every time is rational
        # and c is the lcm of their denominators, else c = 1
        rational = all(isinstance(x, (int, Fraction)) for x in self.entries)
        self._scale = lcm(*(x.denominator for x in self.entries)) if rational else 1
        self._steps = tuple(
            (m, int(x * m * self._scale**m) if rational else x * m)
            for m, x in enumerate(self.entries, start=1) if x
        )

    def get(self, m: int):
        """t_m (1-based); zero beyond the cutoff."""
        if 1 <= m <= self.K:
            return self.entries[m - 1]
        return Fraction(0)

    @classmethod
    def of(cls, values: Iterable) -> "Times":
        return cls([v if isinstance(v, PolySeries) else _as_fraction(v) for v in values])

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

    def __repr__(self):
        return f"Times({list(self.entries)})"


def miwa(xs: Sequence[Fraction], K: int) -> Times:
    """Map eigenvalues to higher times via m t_m = sum_i x_i^m."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return Times([sum((x**m for x in xs), start=Fraction(0)) / m for m in range(1, K + 1)])


def h_list(t: Times, D: int) -> list:
    """h_0..h_D, exp(sum_m t_m z^m) = sum_k h_k z^k: the engine on s_(k) is
    Newton's k h_k = sum_m m t_m h_{k-m}."""
    return [_schur_value(t, 1 << k if k else 0, k) for k in range(D + 1)]


def e_list(t: Times, D: int) -> list:
    """e_0..e_D, e_k(t) = (-1)^k h_k(-t): the engine on s_(1^k) is
    k e_k = sum_m (-1)^(m-1) m t_m e_{k-m}."""
    return [_schur_value(t, ((1 << k) - 1) << 1, k) for k in range(D + 1)]


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


def _key(parts: Sequence[int]) -> int:
    """The bead mask of a partition: bit lambda_i + l - i for each of its l
    parts (its beta-numbers).  Bit 0 is clear, as no part is zero."""
    n = len(parts)
    return sum(1 << (p + n - i) for i, p in enumerate(parts, start=1))


def _strips(key: int, m: int) -> list[tuple[int, int]]:
    """(sign, bead mask) of every partition left by removing a border strip
    of size m from the partition with bead mask key: a bead moved from b down
    to a free b - m, with sign (-1)^height for the beads it passes."""
    out = []
    movable = key & ~(key << m) & ~((1 << m) - 1)  # beads b >= m with b - m free
    between = (1 << (m - 1)) - 1
    while movable:
        low = movable & -movable
        movable ^= low
        height = (key >> (low.bit_length() - m) & between).bit_count()
        nu = key ^ low ^ (low >> m)
        nu >>= (~nu & (nu + 1)).bit_length() - 1  # beads at 0, 1, ... are zero parts
        out.append((-1 if height & 1 else 1, nu))
    return out


def _schur_value(t: Times, key: int, e: int, inner: int = 0):
    """s_{nu/mu}(t) for the bead masks key of nu and inner of mu, e = |nu| - |mu|:
    e s_{nu/mu} = sum_m m t_m sum_{m-strips S of nu} (-1)^ht(S) s_{(nu-S)/mu},
    as d/dt_m removes m-strips and sum_m m t_m d/dt_m is the weighted degree
    (Macdonald, Symmetric Functions, I.5, I.7); s_{mu/mu} = 1 and every other
    shape of size |mu| gives 0.  The memo on t holds S = e! c^e s, so
    S_nu = sum_m m t_m c^m (e-1)!/(e-m)! sum_S (-1)^ht(S) S_(nu-S) needs no
    division, and with rational times (c their common denominator) no Fraction.
    """
    memo = t._memo.setdefault(inner, {inner: 1})
    todo = [(key, e, None)]
    while todo:
        nu, d, terms = todo.pop()
        if nu in memo:
            continue
        if terms is None:  # d = 0 has no terms: S = 0 for any nu but the seeded inner
            terms = [
                (m, w * perm(d - 1, m - 1), strips)
                for m, w in t._steps if m <= d
                for strips in (_strips(nu, m),) if strips
            ]
            todo.append((nu, d, terms))
            todo.extend(
                (child, d - m, None)
                for m, _, strips in terms for _, child in strips if child not in memo
            )
            continue
        total = 0
        for _, w, strips in terms:
            part = 0
            for sign, child in strips:
                v = memo[child]
                if v:
                    part = part + v if sign > 0 else part - v
            if part:
                total = total + w * part
        memo[nu] = total
    return memo[key] * Fraction(1, factorial(e) * t._scale**e)


def schur(lam: Partition, t: Times) -> object:
    """Schur function s_lambda(t) by the border-strip recursion; s_0 = 1."""
    return _schur_value(t, _key(lam.parts), lam.weight)


def skew_schur(shape, t: Times) -> object:
    """Skew Schur function s_{lambda/mu}(t) by the border-strip recursion, for
    a SkewShape or an (outer, inner) pair; zero unless inner lies in outer."""
    if isinstance(shape, SkewShape):
        lam, mu = shape.outer, shape.inner
    else:
        lam, mu = shape
    if not lam.contains(mu):
        return Fraction(0)
    return _schur_value(t, _key(lam.parts), lam.weight - mu.weight, _key(mu.parts))


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


@cache
def characters(d: int) -> tuple[tuple[Partition, ...], tuple[tuple[int, ...], ...]]:
    """The integer character table of the symmetric group S_d.

    Returns (parts, table): parts are the partitions of d in reverse-
    lexicographic order and table[i][j] = chi^lambda_mu for lambda = parts[i]
    and the cycle type mu = parts[j].  Built by the Murnaghan-Nakayama rule
    (Macdonald, Symmetric Functions, I.7): with k = mu_1, chi^lambda_mu =
    sum (-1)^ht chi^(lambda - strip)_(mu - k) over the border strips of
    length k, as ``_strips`` removes them.  Memoised per d.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    parts = tuple(partitions_of(d))
    if d == 0:
        return parts, ((1,),)
    lower = {}  # k -> (table of d - k, row of each partition of d - k by bead mask)
    columns = []  # (k, row in the table of d - k of mu - k) for each cycle type mu
    for mu in parts:
        k = mu.parts[0]
        if k not in lower:
            sub_parts, sub_table = characters(d - k)
            lower[k] = sub_table, {_key(p.parts): i for i, p in enumerate(sub_parts)}
        columns.append((k, lower[k][1][_key(mu.parts[1:])]))
    rows = []
    for lam in parts:
        key = _key(lam.parts)
        strips: dict[int, list] = {}  # k -> [(sign, row of lambda - strip in the table of d - k)]
        row = []
        for k, j in columns:
            if k not in strips:
                sub_table, sub_index = lower[k]
                strips[k] = [(sign, sub_table[sub_index[nu]]) for sign, nu in _strips(key, k)]
            row.append(sum(sign * sub_row[j] for sign, sub_row in strips[k]))
        rows.append(tuple(row))
    return parts, tuple(rows)


def schur_expansion(ring: PolyRing, coeffs: dict, sides: int) -> PolySeries:
    """sum_lambda c_lambda s_lambda(t) in a times ring (sides = 1), or
    sum_lambda c_lambda s_lambda(t) s_lambda(t*) in a bivariate times ring
    whose upper half of the variables is the t* block (sides = 2).

    The variables must be times t_m of weight m.  In times coordinates
    [t^e] s_lambda = chi^lambda_mu / prod_m e_m!, where mu has e_m parts m,
    so the degree-d part is X_d^T c (one side) or X_d^T diag(c) X_d (two
    sides) for the integer character table X_d.  Each degree brings its
    c_lambda to one common denominator L, sums Python ints and emits one
    Fraction per monomial.  Parts larger than the block width and degrees
    above the ring cap are dropped.
    """
    K = ring.nvars() // sides
    if ring.weights != tuple(range(1, K + 1)) * sides:
        raise ValueError("schur_expansion needs a ring of times t_m of weight m")
    graded: dict[int, list] = {}
    for lam, c in coeffs.items():
        if c:
            graded.setdefault(lam.weight, []).append((lam, _as_fraction(c)))
    out: dict = {}
    for d in sorted(graded):
        if d * sides > ring.cap:
            continue
        parts, table = characters(d)
        row_of = {p: row for p, row in zip(parts, table)}
        entries = graded[d]
        L = lcm(*(c.denominator for _, c in entries))
        scaled = [c.numerator * (L // c.denominator) for _, c in entries]
        rows = [row_of[lam] for lam, _ in entries]
        columns = []  # (exponents of mu, prod_m e_m!, chi^lambda_mu over the entries)
        for j, mu in enumerate(parts):
            if mu.length and mu.parts[0] > K:
                continue
            expo = [0] * K
            for p in mu.parts:
                expo[p - 1] += 1
            columns.append((tuple(expo), prod(map(factorial, expo)), [row[j] for row in rows]))
        for et, ft, ct in columns:
            weighted = list(map(mul, scaled, ct))
            if sides == 1:
                acc = sum(weighted)
                if acc:
                    out[et] = Fraction(acc, L * ft)
                continue
            for eu, fu, cu in columns:
                acc = sum(map(mul, weighted, cu))
                if acc:
                    out[et + eu] = Fraction(acc, L * ft * fu)
    return PolySeries._trusted(ring, out)


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
    rhs = schur_expansion(ring, {lam: 1 for lam in enumerate_partitions(D)}, 2)
    return lhs, rhs


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
