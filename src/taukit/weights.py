"""Content functions r and the weights they induce.

A content function is an exact map k -> r(k) on an integer window.  The
weight of a partition at charge n is the product of r over the shifted
contents, r_lambda(n) = prod_{(i,j) in lambda} r(n + j - i); together with
hook products and Pochhammer symbols these drive every series in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .partitions import Partition
from .symfun import Times, _as_fraction, _num_den, schur


class ContentPoleError(ArithmeticError):
    """r has a pole at a lattice point a series needs."""


class ContentZeroError(ArithmeticError):
    """r vanishes where a formula divides by it."""


class ContentFunction:
    """Base class: evaluation with memoization plus pole/zero bookkeeping."""

    def __init__(self):
        self._cache: dict[int, Fraction] = {}
        self._windows: dict[tuple[int, int], Fraction] = {}

    def _eval(self, k: int) -> Fraction:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, k: int) -> Fraction:
        k = int(k)
        if k not in self._cache:
            self._cache[k] = self._eval(k)
        return self._cache[k]

    def window(self, lo: int, hi: int) -> Fraction:
        """prod_{lo < k <= hi} r(k); a pole anywhere in the window raises.

        Memoised as window(lo, hi - 1) r(hi), so the windows of one lo are
        one running product, extended from the longest one already kept."""
        windows = self._windows
        w = windows.get((lo, hi))
        if w is None:
            k = hi - 1
            while k > lo and (lo, k) not in windows:
                k -= 1
            w = windows[lo, k] if k > lo else Fraction(1)
            for k in range(max(k, lo) + 1, hi + 1):
                w = windows[lo, k] = w * self(k)
        return w

    # wrappers ---------------------------------------------------------

    def shifted(self, n0: int) -> "ShiftedContent":
        return ShiftedContent(self, n0)

    def scaled(self, c) -> "ScaledContent":
        return ScaledContent(self, c)

    def reflected(self) -> "ReflectedContent":
        """r'(k) = r(-k)."""
        return ReflectedContent(self)

    def reciprocal(self) -> "ReciprocalContent":
        return ReciprocalContent(self)

    def __mul__(self, other: "ContentFunction") -> "ProductContent":
        return ProductContent([self, other])


class RationalContent(ContentFunction):
    """r(k) = prod_i (k + a_i) / prod_j (k + b_j) with exact rational a, b."""

    def __init__(self, a: Sequence = (), b: Sequence = ()):
        super().__init__()
        self.a = tuple(_as_fraction(x) for x in a)
        self.b = tuple(_as_fraction(x) for x in b)

    def _eval(self, k):
        den = Fraction(1)
        for bj in self.b:
            f = k + bj
            if f == 0:
                raise ContentPoleError(f"r has a pole at k={k} (b={bj})")
            den *= f
        num = Fraction(1)
        for ai in self.a:
            num *= k + ai
        return num / den

    def __repr__(self):
        a, b = (", ".join(map(_num_den, xs)) for xs in (self.a, self.b))
        return f"RationalContent(a=[{a}], b=[{b}])"


class _OneMinusPowers(dict):
    """k -> (num, den) with 1 - q^k = num / den for an integer k, from integer
    powers of q = u/v: (v^k - u^k, v^k) for k >= 0, (u^-k - v^-k, u^-k)
    below; neither is reduced."""

    def __init__(self, q: Fraction):
        super().__init__()
        self.u, self.v = q.numerator, q.denominator

    def __missing__(self, k: int) -> tuple[int, int]:
        u, v, e = (self.u, self.v, k) if k >= 0 else (self.v, self.u, -k)
        ve = v**e
        pair = self[k] = (ve - u**e, ve)
        return pair


class QRationalContent(ContentFunction):
    """r(k) = prod_i (1 - q^(a_i + k)) / prod_j (1 - q^(b_j + k)).

    Offsets a_i, b_j are integers so every value stays rational; q is an
    exact rational with 0 < |q| < 1.  ``one_minus`` is the table
    k -> (num, den) of 1 - q^k as integer pairs, so a value is one Fraction.
    """

    def __init__(self, a: Sequence[int] = (), b: Sequence[int] = (), q=Fraction(1, 2)):
        super().__init__()
        self.a = tuple(int(x) for x in a)
        self.b = tuple(int(x) for x in b)
        q = _as_fraction(q)
        if not (0 < abs(q) < 1):
            raise ValueError("q must be a rational with 0 < |q| < 1")
        self.q = q
        self.one_minus = _OneMinusPowers(q)

    def _eval(self, k):
        num = den = 1
        for bj in self.b:
            f, g = self.one_minus[bj + k]
            if f == 0:
                raise ContentPoleError(f"q-pole at k={k} (b={bj})")
            num, den = num * g, den * f
        for ai in self.a:
            f, g = self.one_minus[ai + k]
            num, den = num * f, den * g
        return Fraction(num, den)

    def __repr__(self):
        return f"QRationalContent(a={list(self.a)}, b={list(self.b)}, q={_num_den(self.q)})"


class LinearContent(ContentFunction):
    """r(k) = k."""

    def _eval(self, k):
        return Fraction(k)

    def __repr__(self):
        return "LinearContent()"


class ConstantOneContent(ContentFunction):
    """r = 1."""

    def _eval(self, k):
        return Fraction(1)

    def __repr__(self):
        return "ConstantOneContent()"


class TabulatedContent(ContentFunction):
    """r given by a finite table; anything outside the window is a pole."""

    def __init__(self, table: dict):
        super().__init__()
        self.table = {int(k): _as_fraction(v) for k, v in table.items()}

    def _eval(self, k):
        if k not in self.table:
            raise ContentPoleError(f"tabulated r not defined at k={k}")
        return self.table[k]

    def __repr__(self):
        items = ", ".join(f"{k}: {_num_den(v)}" for k, v in self.table.items())
        return f"TabulatedContent({{{items}}})"


class ShiftedContent(ContentFunction):
    def __init__(self, base: ContentFunction, n0: int):
        super().__init__()
        self.base, self.n0 = base, int(n0)

    def _eval(self, k):
        return self.base(k + self.n0)

    def __repr__(self):
        return f"{self.base!r}.shifted({self.n0})"


class ScaledContent(ContentFunction):
    def __init__(self, base: ContentFunction, c):
        super().__init__()
        self.base, self.c = base, _as_fraction(c)

    def _eval(self, k):
        return self.c * self.base(k)

    def __repr__(self):
        return f"{self.base!r}.scaled({_num_den(self.c)})"


class ReflectedContent(ContentFunction):
    """r'(k) = r(-k)."""

    def __init__(self, base: ContentFunction):
        super().__init__()
        self.base = base

    def _eval(self, k):
        return self.base(-k)

    def __repr__(self):
        return f"{self.base!r}.reflected()"


class ReciprocalContent(ContentFunction):
    """1/r; zeros of r become poles."""

    def __init__(self, base: ContentFunction):
        super().__init__()
        self.base = base

    def _eval(self, k):
        v = self.base(k)
        if v == 0:
            raise ContentPoleError(f"1/r pole at k={k} (r vanishes)")
        return 1 / v

    def __repr__(self):
        return f"{self.base!r}.reciprocal()"


class ProductContent(ContentFunction):
    def __init__(self, factors: Sequence[ContentFunction]):
        super().__init__()
        self.factors = list(factors)

    def _eval(self, k):
        v = Fraction(1)
        for f in self.factors:
            v *= f(k)
        return v

    def __repr__(self):
        return f"ProductContent({self.factors})"


# -- derived weights ----------------------------------------------------


def content_product(r: ContentFunction, n: int, lam: Partition) -> Fraction:
    """r_lambda(n) = prod over cells of r(n + j - i); 1 on the zero partition."""
    out = Fraction(1)
    for (i, j) in lam.cells():
        try:
            v = r(n + j - i)
        except ContentPoleError as exc:
            raise ContentPoleError(
                f"pole at cell ({i},{j}) of {lam}: argument {n + j - i}"
            ) from exc
        if v == 0:
            return Fraction(0)
        out *= v
    return out


def _pair_sum(pairs) -> Fraction:
    """sum p/q over unreduced integer pairs (p, q) as one Fraction: each
    pair is brought to the lcm of the denominators before it."""
    num, den = 0, 1
    for p, q in pairs:
        if p:
            g = gcd(den, q)
            num, den = num * (q // g) + p * (den // g), den * (q // g)
    return Fraction(num, den)


def hook_product(lam: Partition) -> int:
    """H_lambda = product of hook lengths."""
    out = 1
    for h in lam.hooks():
        out *= h
    return out


def pochhammer(a, n: int) -> Fraction:
    """(a)_n = a (a+1) ... (a+n-1)."""
    a = _as_fraction(a)
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def det_two_side_prefactor(r: ContentFunction, M: int, N: int) -> Fraction:
    """prod_{v=M-N+1}^{M-1} r(v)^(v-M), the constant of the determinant
    identities: N = M + 1 gives c_M, N = M the derivative determinant's."""
    out = Fraction(1)
    for v in range(M - N + 1, M):
        rv = r(v)
        if rv == 0:
            raise ContentZeroError(f"prod r(v)^(v-{M}) needs r({v}) != 0")
        out *= rv ** (v - M)
    return out


def rational_r_decomposition(r: ContentFunction, n: int, lam: Partition, K: Optional[int] = None) -> dict:
    """Factor r_lambda(n) into Schur evaluations at special points:
    t(a_i+n), t(b_j+n) and t_inf for a RationalContent, gamma(a_i+n,q),
    gamma(b_j+n,q) and gamma(inf,q) for a QRationalContent.

    Returns the factorization data and the reassembled value; raises if the
    reassembled value disagrees with the direct content product.
    """
    K = K if K is not None else max(lam.weight, 1)
    if isinstance(r, RationalContent):
        inf_point, point = Times.exp_point(K), (lambda c: Times.weight_a(c, K))
    elif isinstance(r, QRationalContent):
        inf_point, point = Times.q_geometric(r.q, K), (lambda c: Times.q_weight_a(c, r.q, K))
    else:
        raise TypeError("rational_r_decomposition needs a RationalContent or QRationalContent")
    s_inf = schur(lam, inf_point)
    num = [schur(lam, point(ai + n)) for ai in r.a]
    den = [schur(lam, point(bj + n)) for bj in r.b]
    p, s = len(r.a), len(r.b)
    value = _as_fraction(s_inf) ** (s - p)
    for v in num:
        value *= v
    for v in den:
        if v == 0:
            raise ContentPoleError(f"s_lambda at the point b+n vanished for {lam}")
        value /= v
    direct = content_product(r, n, lam)
    if value != direct:
        raise AssertionError(f"decomposition mismatch for {lam}: {value} != {direct}")
    return {
        "s_inf_power": s - p,
        "s_inf": s_inf,
        "numerators": num,
        "denominators": den,
        "value": value,
    }


# -- parsing (CLI syntax) -------------------------------------------------


def parse_content(spec: str) -> ContentFunction:
    """Parse the CLI syntax for content functions.

    Examples: "linear", "one", "rational:a=1/2,2;b=3",
    "qrational:a=1;b=2;q=1/3", "table:{-2:1/3,-1:2}", with optional wrapper
    segments "|shift:n0" and "|scale:c" appended.
    """
    segments = [s.strip() for s in spec.split("|")]
    base = _parse_base_content(segments[0])
    for seg in segments[1:]:
        if seg.startswith("shift:"):
            base = base.shifted(int(seg[len("shift:"):]))
        elif seg.startswith("scale:"):
            base = base.scaled(Fraction(seg[len("scale:"):]))
        elif seg == "reflect":
            base = base.reflected()
        elif seg == "reciprocal":
            base = base.reciprocal()
        else:
            raise ValueError(f"unknown content wrapper {seg!r}")
    return base


def _parse_base_content(spec: str) -> ContentFunction:
    if spec == "linear":
        return LinearContent()
    if spec == "one":
        return ConstantOneContent()
    if spec.startswith("rational:"):
        f = _parse_fields("rational", spec[len("rational:"):], {"a": Fraction, "b": Fraction})
        return RationalContent(f.get("a", ()), f.get("b", ()))
    if spec.startswith("qrational:"):
        f = _parse_fields("qrational", spec[len("qrational:"):], {"a": int, "b": int, "q": Fraction})
        if len(f.get("q", ())) != 1:
            raise ValueError("qrational needs one q=")
        return QRationalContent(f.get("a", ()), f.get("b", ()), f["q"][0])
    if spec.startswith("table:"):
        body = spec[len("table:"):].strip()
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1]
        table = {}
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            k, _, v = item.partition(":")
            table[int(k)] = Fraction(v)
        return TabulatedContent(table)
    raise ValueError(f"unknown content function spec {spec!r}")


def _parse_fields(kind: str, body: str, types: dict) -> dict:
    """The "key=v1,v2;key=..." fields of a content spec, each value list read
    by ``types[key]``; a key missing from ``types`` is an error naming it."""
    out = {}
    for field in body.split(";"):
        field = field.strip()
        if not field:
            continue
        key, _, val = field.partition("=")
        if key not in types:
            raise ValueError(f"unknown {kind} field {key!r}")
        out[key] = tuple(types[key](x) for x in val.split(",") if x)
    return out
