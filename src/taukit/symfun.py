"""Exact symmetric-function algebra in higher-times coordinates.

Everything here is exact rational arithmetic.  The two workhorses are

* ``PolySeries`` -- a multivariate polynomial with rational coefficients,
  truncated at a fixed weighted total degree (variable i carries a weight,
  typically m for the time t_m), and
* ``Times`` -- a truncated vector (t_1, ..., t_K) of "higher times" whose
  entries are Fractions or PolySeries.

A PolySeries is one dict {packed monomial: int numerator} over one positive
denominator, with no common factor among them.  The ring packs each monomial
into one int: an exponent field per variable, sized by the cap, under a
weighted-degree field, so adding keys multiplies monomials and keys sort by
degree.  Arithmetic is on Python ints: a sum brings both sides to the lcm
of their denominators, a product pairs each term of the smaller factor with
the prefix of the larger factor's sorted keys that fits under the cap, and
every result is divided by the gcd of its numerators and denominator.  The
public ``PolySeries(ring, {exponent tuple: coefficient})`` and the read-only
``terms`` view speak in exponent tuples and Fractions.

One border-strip engine evaluates every Schur function of a Times, s_lambda
and h_k = s_(k), by the Murnaghan-Nakayama recursion on bead masks, memoised
on the Times and run on integers when the times are rational.  Schur series
in formal times, sum c_lambda s_lambda(t) and sum c_lambda s_lambda(t)
s_lambda(t*), are expanded by ``schur_expansion`` from the integer character
tables ``characters(d)``, built by the same strip removal: [t^e] s_lambda =
chi^lambda_mu / prod_m e_m!, one block per degree.
Eigenvalue specializations are the engine at the Miwa times of the eigenvalues.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import ItemsView, Mapping
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, perm, prod
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .partitions import Partition, enumerate_partitions, partitions_of

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

    A monomial x^e is packed into one int: variable i keeps e_i in a field
    at bit offset off_i, just wide enough for cap // w_i, and the weighted
    degree sum_i e_i w_i sits above all fields, at bit ``_shift``.  The key
    of x^e is sum_i e_i unit_i with unit_i = 2^off_i + w_i 2^_shift, so
    adding two keys adds both exponents and degrees, and keys sort by degree
    first (Monagan and Pearce, "Polynomial division using dynamic arrays,
    heaps, and packed exponent vectors", CASC 2007).
    """

    __slots__ = ("names", "weights", "cap", "_fields", "_units", "_shift")

    def __init__(self, names: Sequence[str], weights: Sequence[int], cap: int):
        if len(names) != len(weights):
            raise ValueError("names and weights must align")
        self.names = tuple(names)
        self.weights = tuple(int(w) for w in weights)
        self.cap = int(cap)
        if any(w < 1 for w in self.weights):
            raise ValueError("variable weights must be >= 1")
        fields = []  # (bit offset, mask) of each exponent field
        off = 0
        for w in self.weights:
            width = (max(self.cap, 0) // w).bit_length()
            fields.append((off, (1 << width) - 1))
            off += width
        self._fields = tuple(fields)
        self._shift = off
        self._units = tuple((1 << o) + (w << off) for (o, _), w in zip(fields, self.weights))

    @classmethod
    def times_ring(cls, K: int, cap: Optional[int] = None) -> "PolyRing":
        """Ring of t_1..t_K with weight(t_m) = m."""
        return cls(
            [f"t{m}" for m in range(1, K + 1)],
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
        return PolySeries._of(self, {}, 1)

    def one(self) -> "PolySeries":
        return self.const(1)

    def const(self, c) -> "PolySeries":
        c = _as_fraction(c)
        if not c or self.cap < 0:
            return self.zero()
        return PolySeries._of(self, {0: c.numerator}, c.denominator)

    def var(self, i: int) -> "PolySeries":
        unit = self._units[i]
        return PolySeries._of(self, {unit: 1}, 1) if self.weights[i] <= self.cap else self.zero()

    def degree_of(self, expo: tuple[int, ...]) -> int:
        return sum(map(mul, expo, self.weights))

    def _pack(self, expo: Sequence[int]) -> Optional[int]:
        """The key of the monomial x^expo, or None when it lies above the cap."""
        if len(expo) != len(self._units) or any(e < 0 for e in expo):
            raise ValueError(f"{tuple(expo)} is not an exponent vector of {self}")
        return sum(map(mul, expo, self._units)) if self.degree_of(expo) <= self.cap else None

    def _unpack(self, key: int) -> tuple[int, ...]:
        return tuple(key >> off & mask for off, mask in self._fields)

    def __eq__(self, other):
        return self is other or (
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
    """Truncated polynomial with exact rational coefficients.

    Held as {packed monomial: int numerator} over one positive denominator,
    reduced so that the denominator and all numerators have gcd 1; zero
    coefficients are never stored and monomials above the ring cap are
    dropped by construction.  Supports +, -, *, ** and mixed arithmetic with
    ints and Fractions so it can stand in for a scalar in generic code.
    ``terms`` shows the coefficients as {exponent tuple: Fraction}.
    """

    __slots__ = ("ring", "_nums", "_den")

    def __init__(self, ring: PolyRing, terms: Mapping):
        coeffs = {}
        for e, c in terms.items():
            c = _as_fraction(c)
            key = ring._pack(e)
            if c and key is not None:
                coeffs[key] = c
        # over the lcm of reduced denominators the numerators have gcd 1 with it
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.ring = ring
        self._nums = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self._den = den

    @classmethod
    def _of(cls, ring: PolyRing, nums: dict, den: int) -> "PolySeries":
        """Wrap ``nums`` over ``den`` as they are: the caller guarantees that
        they are reduced, no numerator is zero and no key lies above the cap."""
        out = cls.__new__(cls)
        out.ring = ring
        out._nums = nums
        out._den = den
        return out

    @classmethod
    def _reduced(cls, ring: PolyRing, nums: dict, den: int) -> "PolySeries":
        """``_of`` after dividing numerators and denominator by their gcd."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {k: v // g for k, v in nums.items()}
                den //= g
        return cls._of(ring, nums, den)

    @property
    def terms(self) -> Mapping:
        """The coefficients as a read-only {exponent tuple: Fraction} mapping,
        unpacked on demand; its length is the number of terms."""
        return _Terms(self)

    # -- ring arithmetic -----------------------------------------------

    def _operand(self, other) -> tuple[dict, int]:
        """(numerators, denominator) of a series of this ring or a scalar."""
        if isinstance(other, PolySeries):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("PolySeries from different rings")
            return other._nums, other._den
        c = _as_fraction(other)
        return ({0: c.numerator} if c and self.ring.cap >= 0 else {}), c.denominator

    def __add__(self, other, sign: int = 1):
        b, db = self._operand(other)
        if not b:
            return self
        a, da = self._nums, self._den
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = dict(a) if fa == 1 else {k: v * fa for k, v in a.items()}
        get = out.get
        for k, v in b.items():
            s = get(k, 0) + v * fb
            if s:
                out[k] = s
            else:
                del out[k]
        return PolySeries._reduced(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        return PolySeries._of(self.ring, {k: -v for k, v in self._nums.items()}, self._den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, PolySeries):
            return self._scaled(_as_fraction(other))
        ring = self.ring
        if other.ring is not ring and other.ring != ring:
            raise ValueError("PolySeries from different rings")
        a, b = self._nums, other._nums
        if len(a) > len(b):
            a, b = b, a
        # a key below (cap + 1) << shift - ka meets the term ka under the cap
        top = (ring.cap + 1) << ring._shift
        if len(a) == 1:
            (ka, va), = a.items()
            limit = top - ka
            out = {ka + kb: va * vb for kb, vb in b.items() if kb < limit}
            return PolySeries._reduced(ring, out, self._den * other._den)
        out: dict = {}
        _mul_into(out, a, b, 1, top)
        return PolySeries._reduced(ring, {k: v for k, v in out.items() if v}, self._den * other._den)

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "PolySeries":
        """c times the series; the result is reduced by two small gcds, as
        the series is already reduced and c is in lowest terms."""
        p, q = c.numerator, c.denominator
        if not p:
            return self.ring.zero()
        if p == q == 1:
            return self
        g = gcd(p, self._den)
        h = gcd(q, *self._nums.values()) if q != 1 else 1
        p //= g
        return PolySeries._of(
            self.ring,
            {k: v // h * p for k, v in self._nums.items()},
            self._den // g * (q // h),
        )

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
        return (
            isinstance(other, PolySeries)
            and self.ring == other.ring
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.ring, self._den, frozenset(self._nums.items())))

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self):
        return bool(self._nums)

    # -- calculus and structure ------------------------------------------

    def diff(self, i: int) -> "PolySeries":
        """Partial derivative with respect to variable i."""
        off, mask = self.ring._fields[i]
        unit = self.ring._units[i]
        out = {}
        for k, v in self._nums.items():
            e = k >> off & mask
            if e:
                out[k - unit] = v * e
        return PolySeries._reduced(self.ring, out, self._den)

    def truncate(self, ring: PolyRing) -> "PolySeries":
        """The series in a ring of the same variables and a cap no higher."""
        if ring.names != self.ring.names or ring.weights != self.ring.weights or ring.cap > self.ring.cap:
            raise ValueError(f"cannot truncate a series of {self.ring} to {ring}")
        top = (ring.cap + 1) << self.ring._shift
        kept = [(k, v) for k, v in self._nums.items() if k < top]
        keys = [k for k, _ in kept]
        # a field that narrows leaves zero bits on top of every kept exponent;
        # squeezing them out, highest first, gives the layout of ``ring``
        for (off, old), (_, new) in reversed(list(zip(self.ring._fields, ring._fields))):
            if old != new:
                at, gap = off + new.bit_length(), old.bit_length() - new.bit_length()
                low = (1 << at) - 1
                keys = [k & low | k >> gap + at << at for k in keys]
        return PolySeries._reduced(ring, dict(zip(keys, (v for _, v in kept))), self._den)

    def coefficient(self, expo: tuple[int, ...]) -> Fraction:
        key = self.ring._pack(expo)
        return Fraction(self._nums.get(key, 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(0, 0), self._den)

    def scale_vars(self, factors: Sequence[Fraction]) -> "PolySeries":
        """Substitute x_i -> factors[i] * x_i.

        With f_i = p_i / q_i and M_i the largest exponent of x_i in the
        series, a term x^e gains prod_i p_i^e_i q_i^(M_i - e_i) over the
        common prod_i q_i^M_i, read from one power table per variable (for
        an integer f_i, one over every exponent its field can hold).
        """
        tables = []  # (offset, mask, p^e q^(M - e) for e = 0..M)
        den = self._den
        for (off, mask), f in zip(self.ring._fields, factors):
            f = _as_fraction(f)
            if f == 1:
                continue
            p, q = f.numerator, f.denominator
            M = mask if q == 1 else max((k >> off & mask for k in self._nums), default=0)
            tables.append((off, mask, [p**e * q ** (M - e) for e in range(M + 1)]))
            den *= q**M
        out = {}
        for k, v in self._nums.items():
            for off, mask, table in tables:
                v *= table[k >> off & mask]
            if v:
                out[k] = v
        return PolySeries._reduced(self.ring, out, den)

    def swap_blocks(self) -> "PolySeries":
        """Exchange the lower and the upper half of the variables, as t and t*
        in a bivariate times ring.  The two halves must carry the same
        weights, so they share one layout: two masks and two shifts swap them."""
        ring = self.ring
        half = ring.nvars() // 2
        if ring.weights[:half] != ring.weights[half:]:
            raise ValueError(f"the two halves of {ring} carry different weights")
        top = ring._shift
        width = top // 2
        low = (1 << width) - 1
        out = {k >> top << top | (k & low) << width | k >> width & low: v for k, v in self._nums.items()}
        return PolySeries._of(ring, out, self._den)

    def __repr__(self):
        if not self._nums:
            return "0"
        bits = []
        degree_of = self.ring.degree_of
        for e, c in sorted(self.terms.items(), key=lambda ec: (degree_of(ec[0]), ec[0])):
            mono = "*".join(
                f"{n}^{k}" if k > 1 else n
                for n, k in zip(self.ring.names, e)
                if k
            )
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)


def _mul_into(out: dict, a: dict, b: dict, f: int, top: int) -> None:
    """out += f a b on numerator dicts: every pair of terms whose key sum lies
    below ``top``, the key of the first monomial past the cap.  Sums that
    cancel stay in ``out`` as zeros; the caller drops them."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    if len(a) == 1:
        (ka, va), = a.items()
        va *= f
        limit = top - ka
        for kb, vb in b.items():
            if kb < limit:
                k = ka + kb
                out[k] = get(k, 0) + va * vb
        return
    # keys sort by degree, so the keys that meet ka under the cap are a
    # prefix of the sorted ones
    items = sorted(b.items())
    keys = [k for k, _ in items]
    for ka, va in a.items():
        va *= f
        for kb, vb in items[:bisect_left(keys, top - ka)]:
            k = ka + kb
            out[k] = get(k, 0) + va * vb


class _Terms(Mapping):
    """Read-only {exponent tuple: Fraction} view of a PolySeries."""

    __slots__ = ("_series",)

    def __init__(self, series: PolySeries):
        self._series = series

    def __len__(self):
        return len(self._series._nums)

    def __iter__(self):
        return map(self._series.ring._unpack, self._series._nums)

    def __getitem__(self, expo):
        s = self._series
        v = s._nums.get(s.ring._pack(expo))
        if v is None:
            raise KeyError(expo)
        return Fraction(v, s._den)

    def items(self):
        return _TermItems(self)


class _TermItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        s = self._mapping._series
        unpack, den = s.ring._unpack, s._den
        return ((unpack(k), Fraction(v, den)) for k, v in s._nums.items())


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

    The engine's step weights are m t_m c^m for one scale c.  With rational
    times c is built greedily: for m = 1..K it is multiplied by whatever
    denominator m t_m c^m still has, so every weight is an integer and c
    divides the lcm of the denominators of the t_m (the Miwa times of
    1/2, 2/3, 3/4, 4/5, 1/7 get c = 420, t(3/2) gets c = 2).  Otherwise c = 1.
    """

    __slots__ = ("entries", "K", "_scale", "_steps", "_memo", "_levels")

    def __init__(self, entries: Sequence):
        self.entries = tuple(entries)
        self.K = len(self.entries)
        self._memo: dict[int, object] = {0: 1}  # bead mask -> S
        self._levels: list[tuple] = []  # by degree d: (d! c^d, steps of a shape of size d)
        times = [(m, x) for m, x in enumerate(self.entries, start=1) if x]
        c = 1
        if all(isinstance(x, (int, Fraction)) for x in self.entries):
            for m, x in times:
                c *= x.denominator // gcd(m * x.numerator * c**m, x.denominator)
            self._steps = tuple((m, m * x.numerator * c**m // x.denominator) for m, x in times)
        else:
            self._steps = tuple((m, x * m) for m, x in times)
        self._scale = c

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
            piece = entry * expand(row + 1, cols[:pos] + cols[pos + 1:])
            if acc is None:
                acc = piece if pos % 2 == 0 else -piece
            else:
                acc = acc + piece if pos % 2 == 0 else acc - piece
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


# The strips of a shape depend on neither the times nor r, so one table
# serves every Times and ``characters``: m -> {bead mask: _strips(mask, m)},
# filled only for the m asked for.  It stops growing at _STRIP_TABLE_MAX
# entries (about 1.2 MB); strips it cannot keep are computed on each request.
_STRIP_TABLE_MAX = 1 << 13
_STRIP_TABLE: dict[int, dict[int, tuple[tuple, tuple]]] = {}
_strip_table_size = 0
_NO_STRIPS = ((), ())


def _unpadded(beads: int) -> int:
    """Drop the run of occupied sites at the bottom of a padded bead mask."""
    return beads >> (~beads & (beads + 1)).bit_length() - 1


def _bead_moves(mask: int, shift: int) -> list[tuple[int, int, int]]:
    """Every single-particle move b -> b - shift on the bead mask ``mask``,
    sources in descending order, as (source bit, sign, canonical new mask).

    For shift < 0 the mask is first padded with -shift sea beads, the only
    ones below bit 0 that can rise to a free site, so a source bit may be
    negative; the sign is (-1)^(beads strictly between source and target),
    for shift = m > 0 that of the m-strip the move removes.
    """
    pad = -shift if shift < 0 else 0
    beads = mask << pad | (1 << pad) - 1
    if shift > 0:
        movable = beads & ~(beads << shift) & ~((1 << shift) - 1)
    else:
        movable = beads & ~(beads >> pad)
    out = []
    while movable:
        src = movable.bit_length() - 1
        movable ^= 1 << src
        dst = src - shift
        lo, hi = (dst, src) if shift > 0 else (src, dst)
        between = (beads >> lo + 1 & (1 << hi - lo - 1) - 1).bit_count()
        out.append((src - pad, -1 if between & 1 else 1, _unpadded(beads ^ 1 << src ^ 1 << dst)))
    return out


def _strips(key: int, m: int) -> tuple[tuple, tuple]:
    """The partitions left by removing a border strip of size m from the
    partition with bead mask key, as (bead masks with sign +1, bead masks
    with sign -1), lowest source bead first."""
    plus, minus = [], []
    for _, sign, nu in reversed(_bead_moves(key, m)):
        (plus if sign > 0 else minus).append(nu)
    return (tuple(plus), tuple(minus)) if plus or minus else _NO_STRIPS


def _kept_strips(key: int, m: int) -> tuple[tuple, tuple]:
    """``_strips(key, m)`` from the table, or computed and kept while it has room."""
    global _strip_table_size
    table = _STRIP_TABLE.setdefault(m, {})
    out = table.get(key)
    if out is None:
        out = _strips(key, m)
        if _strip_table_size < _STRIP_TABLE_MAX:
            table[key] = out
            _strip_table_size += 1
    return out


def _schur_numerator(t: Times, key: int, e: int) -> tuple[object, int]:
    """(S, e! c^e) with s_nu(t) = S / (e! c^e) for the bead mask key of nu,
    e = |nu|, and c the scale of the times.

    e s_nu = sum_m m t_m sum_{m-strips S of nu} (-1)^ht(S) s_(nu-S), as
    d/dt_m removes m-strips and sum_m m t_m d/dt_m is the weighted degree
    (Macdonald, Symmetric Functions, I.5, I.7); s_0 = 1.  The memo on t holds
    S = e! c^e s, so S_nu = sum_m m t_m c^m (e-1)!/(e-m)! sum_S (-1)^ht(S)
    S_(nu-S) needs no division, and with rational times (c as ``Times``
    picks it, else 1) S is an integer.
    """
    levels = t._levels
    while len(levels) <= e:  # a shape of size d takes m-strips with weight m t_m c^m (d-1)!/(d-m)!
        d = len(levels)
        steps = tuple((m, w * perm(d - 1, m - 1), _STRIP_TABLE.setdefault(m, {})) for m, w in t._steps if m <= d)
        levels.append((levels[-1][0] * d * t._scale if d else 1, steps))
    memo = t._memo
    if key not in memo:
        get = memo.__getitem__
        todo = [(key, e)]
        while todo:
            nu, d = todo[-1]
            if nu in memo:
                todo.pop()
                continue
            steps = levels[d][1]  # d > 0: the only shape of size 0 is the seeded empty one
            total = 0
            try:
                for m, w, table in steps:
                    plus, minus = table.get(nu) or _kept_strips(nu, m)
                    if plus or minus:
                        part = sum(map(get, plus)) - sum(map(get, minus)) if minus else sum(map(get, plus))
                        if part:
                            total = total + w * part
            except KeyError:  # first visit: every missing shape goes on the stack
                todo += [(c, d - m) for m, _, _ in steps for c in sum(_kept_strips(nu, m), ()) if c not in memo]
                continue
            memo[nu] = total
            todo.pop()
    return memo[key], levels[e][0]


def _schur_value(t: Times, key: int, e: int):
    """s_nu(t) = S / (e! c^e) from ``_schur_numerator``."""
    value, den = _schur_numerator(t, key, e)
    return value * Fraction(1, den)


def schur(lam: Partition, t: Times) -> object:
    """Schur function s_lambda(t) by the border-strip recursion; s_0 = 1."""
    return _schur_value(t, _key(lam.parts), lam.weight)


def schur_from_eigenvalues(lam: Partition, xs: Sequence) -> Fraction:
    """s_lambda(x_1..x_n): the engine at the Miwa times m t_m = sum_i x_i^m;
    zero when the partition is longer than the number of variables."""
    xs = [_as_fraction(x) for x in xs]
    if lam.length > len(xs):
        return Fraction(0)
    return schur(lam, miwa(xs, max(lam.weight, 1)))


@cache
def characters(d: int) -> tuple[tuple[Partition, ...], tuple[tuple[int, ...], ...]]:
    """The integer character table of the symmetric group S_d.

    Returns (parts, table): parts are the partitions of d in reverse-
    lexicographic order and table[i][j] = chi^lambda_mu for lambda = parts[i]
    and the cycle type mu = parts[j].  Built by the Murnaghan-Nakayama rule
    (Macdonald, Symmetric Functions, I.7): with k = mu_1, chi^lambda_mu =
    sum (-1)^ht chi^(lambda - strip)_(mu - k) over the border strips of
    length k, read from the strip table.  Memoised per d.
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
                strips[k] = [(sign, sub_table[sub_index[nu]])
                             for sign, side in zip((1, -1), _kept_strips(key, k)) for nu in side]
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
    c_lambda to one common denominator L_d and sums Python ints; every
    prod_m e_m! divides d!, so over the lcm of L_d (d!)^sides each sum is one
    integer numerator.  Parts larger than the block width and degrees above
    the ring cap are dropped.
    """
    K = ring.nvars() // sides
    if ring.weights != tuple(range(1, K + 1)) * sides:
        raise ValueError("schur_expansion needs a ring of times t_m of weight m")
    graded: dict[int, list] = {}
    for lam, c in coeffs.items():
        if c and lam.weight * sides <= ring.cap:
            graded.setdefault(lam.weight, []).append((lam, _as_fraction(c)))
    lcms = {d: lcm(*(c.denominator for _, c in entries)) for d, entries in graded.items()}
    den = lcm(*(L * factorial(d) ** sides for d, L in lcms.items()))
    units = ring._units
    out: dict = {}
    for d in sorted(graded):
        parts, table = characters(d)
        row_of = {p: row for p, row in zip(parts, table)}
        entries, L = graded[d], lcms[d]
        scaled = [c.numerator * (L // c.denominator) for _, c in entries]
        rows = [row_of[lam] for lam, _ in entries]
        fd = factorial(d)
        base = den // (L * fd**sides)
        columns = []  # (key of mu in the t and t* blocks, d! / prod_m e_m!, chi^lambda_mu over the entries)
        for j, mu in enumerate(parts):
            if mu.length and mu.parts[0] > K:
                continue
            expo = [0] * K
            for p in mu.parts:
                expo[p - 1] += 1
            kt, ku = sum(map(mul, expo, units)), sum(map(mul, expo, units[K:]))
            columns.append((kt, ku, fd // prod(map(factorial, expo)), [row[j] for row in rows]))
        for i, (kt, ku, ft, ct) in enumerate(columns):
            weighted = list(map(mul, scaled, ct))
            if sides == 1:
                acc = sum(weighted)
                if acc:
                    out[kt] = acc * ft * base
                continue
            # X_d^T diag(c) X_d is symmetric: (mu, nu) and (nu, mu) share a value
            ft *= base
            for kt2, ku2, fu, cu in columns[i:]:
                acc = sum(map(mul, weighted, cu))
                if acc:
                    out[kt + ku2] = out[kt2 + ku] = acc * ft * fu
    return PolySeries._reduced(ring, out, den)


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

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c})N^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs) if c != 0
        )
