"""Tau functions of hypergeometric type.

The central object is the truncated double Schur series

    tau_r(n, t, t*) = sum_lambda r_lambda(n) s_lambda(t) s_lambda(t*),

with each side of the series specialized to formal times, an eigenvalue
list, the weight vector t(a) = (a/1, a/2, ...), the exponential point
(1, 0, 0, ...) or the q-geometric point.  On top of the series sit the
hypergeometric families, determinant representations, the bilinear (Hirota)
residual, one-variable ODE and q-difference residuals, and the wave
(Baker-Akhiezer) coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Optional, Sequence

from .partitions import Partition, _parts_of_weight
from .symfun import (
    PolyRing,
    PolySeries,
    Times,
    _as_fraction,
    _det,
    _num_den,
    _schur_numerator,
    _schur_value,
    h_list,
    miwa,
    schur,  # noqa: F401 - taukit.tau.schur stays a name perfbench's tracer rebinds
    schur_expansion,
)
from .weights import (
    ContentFunction,
    ContentPoleError,
    QRationalContent,
    RationalContent,
    _OneMinusPowers,
    content_product,
    det_two_side_prefactor,
)

# -- side specializations -------------------------------------------------


class Side:
    """How one argument slot of the tau function is specialized.

    A side whose Schur values are hook-content products has a ``row``:
    parts -> (num, den), the integer pair of s_lambda / s_parent for lambda
    = parts and its parent parts[:-1], which the tau walk multiplies into
    the pair it carries for r_lambda(n).  Every other specialized side goes
    through the border-strip engine on ``times``.
    """

    row = None

    def times(self, D: int) -> Optional[Times]:  # pragma: no cover - abstract
        raise NotImplementedError

    def length_cap(self) -> Optional[int]:
        return None

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return self.describe()


def _hook_ratio(parts: tuple[int, ...], num: int, den: int) -> tuple[int, int]:
    """(num, den) times L! H_parent / H_lambda for lambda = parts, its
    parent parts[:-1] and L = parts[-1]: the product over the parent's rows
    i <= l of (h_i - L) / h_i, with h_i = lambda_i + l + 1 - i.

    A last row of L cells has hooks L, ..., 1, and the first L cells of each
    row above gain one in their legs, which multiplies that row's hooks by
    h_i / (h_i - L), so H_lambda / H_parent = L! prod_i h_i / (h_i - L)
    (Macdonald, Symmetric Functions, I.3)."""
    l, L = len(parts) - 1, parts[-1]
    for i in range(l):
        h = parts[i] + l - i
        num, den = num * (h - L), den * h
    return num, den


class Formal(Side):
    """Keep the side as formal times; the Schur factor stays symbolic."""

    def times(self, D):
        return None

    def describe(self):
        return "formal"


class Eigs(Side):
    """Eigenvalue list x^N via the Miwa map; restricts l(lambda) <= N."""

    def __init__(self, xs: Sequence):
        self.xs = [_as_fraction(x) for x in xs]

    def times(self, D):
        return miwa(self.xs, max(D, 1))

    def length_cap(self):
        return len(self.xs)

    def describe(self):
        return f"eigs([{', '.join(map(_num_den, self.xs))}])"


class WeightA(Side):
    """t(a) = (a/1, a/2, a/3, ...); s_lambda becomes (a)_lambda/H_lambda."""

    def __init__(self, a):
        self.a = _as_fraction(a)
        self._rows: dict[tuple[int, int], tuple[int, int]] = {}

    def times(self, D):
        return Times.weight_a(self.a, max(D, 1))

    def row(self, parts):
        """With a = u/v, the last row's contents -l .. L - 1 - l give
        prod_{j<L} (u + (j - l) v) / v^L, over the hook ratio."""
        l, L = len(parts) - 1, parts[-1]
        pair = self._rows.get((l, L))
        if pair is None:
            u, v = self.a.numerator, self.a.denominator
            pair = self._rows[l, L] = prod(u + (j - l) * v for j in range(L)), v**L * factorial(L)
        return _hook_ratio(parts, *pair)

    def describe(self):
        return f"t(a={_num_den(self.a)})"


class TInf(Side):
    """t_infinity = (1, 0, 0, ...); s_lambda becomes 1/H_lambda."""

    def times(self, D):
        return Times.exp_point(max(D, 1))

    def row(self, parts):
        return _hook_ratio(parts, 1, factorial(parts[-1]))

    def describe(self):
        return "t_inf"


class QGeo(Side):
    """t*_m = 1/(m(1-q^m)); s_lambda becomes q^{n(lambda)}/H_lambda(q)."""

    def __init__(self, q):
        self.q = _as_fraction(q)
        if not 0 < abs(self.q) < 1:
            raise ValueError(f"qgeo: q must satisfy 0 < |q| < 1, got q={_num_den(self.q)}")
        self._one_minus = _OneMinusPowers(self.q)
        self._rows: dict[tuple[int, int], tuple[int, int]] = {}

    def times(self, D):
        return Times.q_geometric(self.q, max(D, 1))

    def row(self, parts):
        """The hook ratio with each k read as 1 - q^k = (v^k - u^k) / v^k for
        q = u/v, and q^(l L) for the l L that n(lambda) gains; the powers of v
        leave v^(L (L + 1) / 2) over prod_{k<=L} (v^k - u^k)."""
        l, L = len(parts) - 1, parts[-1]
        one_minus = self._one_minus
        pair = self._rows.get((l, L))
        if pair is None:
            u, v = one_minus.u, one_minus.v
            pair = self._rows[l, L] = (
                u ** (l * L) * v ** (L * (L + 1) // 2), prod(one_minus[k][0] for k in range(1, L + 1))
            )
        num, den = pair
        for i in range(l):
            h = parts[i] + l - i
            num, den = num * one_minus[h - L][0], den * one_minus[h][0]
        return num, den

    def describe(self):
        return f"qgeo(q={_num_den(self.q)})"


class TauSpec:
    """Parameters that fully determine a tau series: r, charge, both sides."""

    def __init__(self, r: ContentFunction, n: int, tside: Side, uside: Side):
        self.r = r
        self.n = int(n)
        self.tside = tside
        self.uside = uside

    def describe(self) -> str:
        return (
            f"tau(r={self.r!r}, n={self.n}, t={self.tside.describe()}, "
            f"t*={self.uside.describe()})"
        )


class TauSeries:
    """Truncated tau series: partition -> exact coefficient.

    The stored coefficient is r_lambda(n) times the numeric Schur factors of
    every specialized side; formal sides keep their s_lambda factor implicit
    (expand with ``as_polyseries``).
    """

    def __init__(self, spec: TauSpec, D: int, coeffs: dict):
        self.spec = spec
        self.D = int(D)
        self.coeffs = {lam: c for lam, c in coeffs.items() if c != 0}

    def coeff(self, lam: Partition) -> Fraction:
        return self.coeffs.get(lam, Fraction(0))

    def items(self):
        """Coefficients in the canonical graded reverse-lex order."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def n_formal_sides(self) -> int:
        return sum(
            1 for s in (self.spec.tside, self.spec.uside) if isinstance(s, Formal)
        )

    def as_polyseries(self, ring: Optional[PolyRing] = None) -> PolySeries:
        """Expand the formal sides into an explicit polynomial.

        Two formal sides -> bivariate ring (t block then u block); one formal
        side -> times ring; zero formal sides -> a constant series.  When a
        ring is supplied its block structure is respected (the u block is the
        upper half of the variables).
        """
        nf = self.n_formal_sides()
        if ring is None:
            K = self.D
            if nf == 2:
                ring = PolyRing.bi_times_ring(K, cap=2 * K)
            else:
                ring = PolyRing.times_ring(max(K, 1), cap=K)
        if nf == 0:
            total = sum(self.coeffs.values(), start=Fraction(0))
            return ring.const(total)
        return schur_expansion(ring, self.coeffs, nf)

    def one_variable_coeffs(self) -> list[Fraction]:
        """Coefficients of (x)^m for a single-eigenvalue series (both sides
        specialized, one of them Eigs([x]) with x folded in)."""
        out = [Fraction(0)] * (self.D + 1)
        for lam, c in self.coeffs.items():
            out[lam.weight] += c
        return out

    def to_json(self) -> dict:
        return {str(lam): _num_den(c) for lam, c in self.items()}


def _weighted_partitions(
    r: ContentFunction, n: int, D: int, lmax: int, size: Optional[int] = None, rows: Sequence = ()
):
    """(parts, mask, |lambda|, p, q) with p / q = r_lambda(n) times s_lambda
    of each side whose ``row`` is in ``rows``, for the partitions lambda of
    |lambda| <= size (default D) and l(lambda) <= lmax, with zero weights
    skipped; mask is the bead mask of lambda (symfun's ``_key``).

    Scanning away from the charge over the window of |lambda| <= D, a zero
    of r truncates the series (no partition can reach past it), while a
    pole before any zero is an error.  The walk goes weight by weight over
    the part tuples of ``_parts_of_weight``, so lambda's parent, lambda
    without its last row, is already walked: the mask of lambda is the
    parent's shifted by one plus the bit of the last part, and its pair is
    the parent's times the r-window of that row (row l, of k cells, covers
    the contents n - l + 1 .. n - l + k) and each side's row pair, never
    reduced.  A zero pair stays zero below, as every factor is a product
    over the cells.
    """

    def reach(step: int, limit: int) -> int:
        for k in range(1, limit):
            try:
                v = r(n + step * k)
            except ContentPoleError:
                raise ContentPoleError(
                    f"pole of r at {n + step * k} inside the content window"
                )
            if v == 0:
                return k
        return limit

    depth = min(lmax, reach(-1, max(lmax, 1)))
    cols = reach(1, max(D, 1))
    size = D if size is None else size
    walked = {(): (0, 1, 1)}
    if size >= 0:
        yield (), 0, 0, 1, 1
    for e in range(1, size + 1):
        for parts in _parts_of_weight(e, min(e, cols), min(e, depth)):
            mask, p, q = walked[parts[:-1]]
            last = parts[-1]
            mask = mask << 1 | 1 << last
            if p:
                lo = n - len(parts)
                try:
                    w = r.window(lo, lo + last)
                except ContentPoleError:
                    # the scan leaves only r(n) unchecked; content_product
                    # raises the same pole, naming its cell
                    content_product(r, lo + 1, Partition._of((last,)))
                    raise
                p, q = p * w.numerator, q * w.denominator
                for row in rows:
                    f, g = row(parts)
                    p, q = p * f, q * g
            walked[parts] = mask, p, q
            if p:
                yield parts, mask, e, p, q


def tau_series(spec: TauSpec, D: int, length_max: Optional[int] = None) -> TauSeries:
    """The truncated series sum_{|lambda| <= D} r_lambda(n) s_lambda s_lambda.

    Honors the length restriction from eigenvalue sides, an explicit
    ``length_max`` (for integrals whose length cut is not induced by r),
    and the zero-of-r truncation; poles of r inside the reachable content
    window are errors.  The t(a), t_inf and q-geometric sides ride on the
    walk as hook-content row pairs; eigenvalue sides go through the strip
    engine.  Each coefficient is one Fraction of the product of the integer
    numerators of r_lambda(n) and of each specialized side, and a Partition
    is built only for a coefficient that is kept.
    """
    if D < 0:
        raise ValueError("cutoff must be >= 0")
    if length_max is not None and length_max < 0:
        raise ValueError(f"length_max must be >= 0 (got {length_max})")
    r, n = spec.r, spec.n
    lmax = D if length_max is None else min(D, length_max)
    for side in (spec.tside, spec.uside):
        cap = side.length_cap()
        if cap is not None:
            lmax = min(lmax, cap)
    sides = (spec.tside, spec.uside)
    rows = [side.row for side in sides if side.row is not None]
    specialized = [t for t in (side.times(D) for side in sides if side.row is None) if t is not None]
    coeffs: dict[Partition, Fraction] = {}
    for parts, key, e, p, q in _weighted_partitions(r, n, D, lmax, rows=rows):
        for times in specialized:
            s, den = _schur_numerator(times, key, e)
            p *= s
            if not p:
                break
            q *= den
        if p:
            coeffs[Partition._of(parts)] = Fraction(p, q)
    return TauSeries(spec, D, coeffs)


# -- hypergeometric families ------------------------------------------------


def hyper_pfs(
    a: Sequence,
    b: Sequence,
    M: int,
    argument: Side,
    D: int,
) -> TauSeries:
    """Hypergeometric series of (matrix) argument:
    sum (a_1+M)_lambda ... / (b_1+M)_lambda ... * s_lambda(arg) / H_lambda.

    Realized as tau_series with r(k) = prod(k+a_i)/prod(k+b_j) at charge M
    and t* at the exponential point.
    """
    r = RationalContent(a, b)
    return tau_series(TauSpec(r, M, argument, TInf()), D)


def hyper_two_arg(
    a: Sequence,
    b: Sequence,
    M: int,
    xs: Sequence,
    ys: Sequence,
    D: int,
) -> TauSeries:
    """Two-argument hypergeometric series with the (N)_lambda denominator.

    The content function gains the factor 1/(k + N - M); it is built here
    from (a, b, M, N) and never passed in by callers.
    """
    if len(xs) != len(ys):
        raise ValueError("x and y eigenvalue lists must have equal length")
    N = len(xs)
    r = RationalContent(list(a), list(b) + [Fraction(N - M)])
    return tau_series(TauSpec(r, M, Eigs(xs), Eigs(ys)), D)


def hyper_q(
    a: Sequence[int],
    b: Sequence[int],
    q,
    M: int,
    xs: Sequence,
    ys: Optional[Sequence] = None,
    D: int = 8,
) -> TauSeries:
    """Basic (q-deformed) hypergeometric series.

    Single set: weight q^{n(lambda)}/H_lambda(q) via the q-geometric t*.
    Two sets: the extra factor 1/(1 - q^{N-M+k}) enters the content function.
    """
    if ys is None:
        r = QRationalContent(a, b, q)
        return tau_series(TauSpec(r, M, Eigs(xs), QGeo(q)), D)
    if len(xs) != len(ys):
        raise ValueError("x and y eigenvalue lists must have equal length")
    N = len(xs)
    r = QRationalContent(list(a), list(b) + [N - M], q)
    return tau_series(TauSpec(r, M, Eigs(xs), Eigs(ys)), D)


def pfs_one_var_coeffs(a: Sequence, b: Sequence, D: int) -> list[Fraction]:
    """Taylor coefficients of the one-variable pFs by the term recurrence.

    With a_i = n_i / d_i and b_j = n'_j / d'_j, the term ratio
    prod (a_i + m) / ((m + 1) prod (b_j + m)) is the integer pair
    (prod (n_i + m d_i) prod d'_j, (m + 1) prod d_i prod (n'_j + m d'_j)),
    and each coefficient is the one before times its Fraction.
    """
    a = [_as_fraction(x) for x in a]
    b = [_as_fraction(x) for x in b]
    num0, den0 = prod(bj.denominator for bj in b), prod(ai.denominator for ai in a)
    cs = [Fraction(1)]
    for m in range(D):
        num, den = num0, (m + 1) * den0
        for ai in a:
            num *= ai.numerator + m * ai.denominator
        for bj in b:
            den *= bj.numerator + m * bj.denominator
        if den == 0:
            raise ContentPoleError(f"pFs parameter pole at term {m + 1}")
        cs.append(cs[-1] * Fraction(num, den))
    return cs


def qphi_one_var_coeffs(a: Sequence[int], b: Sequence[int], q, D: int) -> list[Fraction]:
    """Taylor coefficients of the one-variable basic series pPhi_s.

    The term ratio prod (1 - q^(a_i+m)) / ((1 - q^(m+1)) prod (1 - q^(b_j+m)))
    is one integer pair read from the table of 1 - q^k, and each
    coefficient is the one before times its Fraction.
    """
    one_minus = _OneMinusPowers(_as_fraction(q))
    cs = [Fraction(1)]
    for m in range(D):
        den, num = one_minus[m + 1]  # 1 / (1 - q^(m+1))
        for ai in a:
            f, g = one_minus[ai + m]
            num, den = num * f, den * g
        for bj in b:
            f, g = one_minus[bj + m]
            num, den = num * g, den * f
        if den == 0:
            raise ContentPoleError(f"qPhi parameter pole at term {m + 1}")
        cs.append(cs[-1] * Fraction(num, den))
    return cs


# -- determinant representations -------------------------------------------


class DetRepResult:
    """Both sides of a determinant identity, as exact polynomials.

    ``lhs`` is the Vandermonde-cleared series side, ``rhs`` the determinant
    side including its constant prefactor.  Both live in a ring whose cap is
    the degree the identity is compared through, so they must be equal.
    """

    def __init__(self, lhs: PolySeries, rhs: PolySeries, prefactor):
        self.lhs = lhs
        self.rhs = rhs
        self.prefactor = prefactor

    def matches(self) -> bool:
        return self.lhs == self.rhs


def _alternant(xs: Sequence[PolySeries], parts: tuple[int, ...]):
    """Delta(x) s_lambda(x) = det(x_i^(lambda_j + N - j)), the bialternant
    formula (Macdonald, Symmetric Functions, I.3), for the parts of a
    lambda with l(lambda) <= N."""
    N = len(xs)
    parts = parts + (0,) * (N - len(parts))
    return _det([[x ** (p + N - j) for j, p in enumerate(parts, start=1)] for x in xs])


def det_rep_one_side(
    r: ContentFunction, M: int, N: int, uside: Side, D: int
) -> DetRepResult:
    """Milne-type determinant identity in the eigenvalue variables x^N:

    Delta(x) tau_r(M, t(x^N), t*) = det( x_i^{N-k} tau_r(M-k+1, t(x_i), t*) ).

    Expanded symbolically in x_1..x_N through total degree D + deg Delta.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    dv = N * (N - 1) // 2
    cap = D + dv
    ring = PolyRing(
        [f"x{i}" for i in range(1, N + 1)], [1] * N, cap
    )
    xs = [ring.var(i) for i in range(N)]
    u_times = uside.times(cap + N)
    if u_times is None:
        raise ValueError("the t* side must be specialized for this identity")
    # series side
    lhs = ring.zero()
    for parts, key, e, p, q in _weighted_partitions(r, M, D, N):
        su = _schur_value(u_times, key, e)
        if su == 0:
            continue
        lhs = lhs + _alternant(xs, parts) * (su * Fraction(p, q))
    # determinant side
    # one eigenvalue keeps only single rows: c_j = r(m) ... r(m+j-1) h_j(t*)
    col_coeffs = [
        baker_akhiezer_dual(r, M - k + 1, u_times, cap) for k in range(1, N + 1)
    ]
    rows = []
    for i in range(N):
        row = []
        for k in range(1, N + 1):
            acc = ring.zero()
            for j, cj in enumerate(col_coeffs[k - 1]):
                if cj == 0:
                    continue
                acc = acc + (xs[i] ** j) * cj
            row.append((xs[i] ** (N - k)) * acc)
        rows.append(row)
    rhs = _det(rows)
    return DetRepResult(lhs, rhs, Fraction(1))


def det_rep_two_side(r: ContentFunction, M: int, N: int, D: int) -> DetRepResult:
    """Wick-type determinant identity on both eigenvalue sets:

    Delta(x) Delta(y) tau_r(M, t(x^N), t*(y^N))
        = prefactor * det( k(x_i, y_j) ),
    with the one-variable kernel k(x,y) = sum_m r(M-N+1)...r(M-N+m) (xy)^m.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    dv = N * (N - 1)
    cap = D + dv
    ring = PolyRing(
        [f"x{i}" for i in range(1, N + 1)] + [f"y{i}" for i in range(1, N + 1)],
        [1] * (2 * N),
        cap,
    )
    xs = [ring.var(i) for i in range(N)]
    ys = [ring.var(N + i) for i in range(N)]
    lhs = ring.zero()
    # each alternant has degree |lambda| + N(N-1)/2, so only 2|lambda| <= D
    # survives the cap; the pole scan still covers |lambda| <= D
    for parts, _, _, p, q in _weighted_partitions(r, M, D, N, D // 2):
        lhs = lhs + _alternant(xs, parts) * _alternant(ys, parts) * Fraction(p, q)
    # kernel entries
    m0 = M - N + 1
    rhos = [r.window(m0 - 1, m0 + j - 1) for j in range(cap // 2 + 1)]
    rows = []
    for i in range(N):
        row = []
        for j in range(N):
            acc = ring.zero()
            xy = xs[i] * ys[j]
            pw = ring.one()
            for m, rho in enumerate(rhos):
                if m > 0:
                    pw = pw * xy
                    if pw.is_zero():
                        break
                acc = acc + pw * rho
            row.append(acc)
        rows.append(row)
    pref = det_two_side_prefactor(r, M, N)
    rhs = _det(rows) * pref
    return DetRepResult(lhs, rhs, pref)


def det_rep_derivatives(r: ContentFunction, n: int, D: int) -> DetRepResult:
    """For r(0) = 0 and n > 0:

    tau_r(n, t, t*) = prefactor * det( d^{a+b} tau_r(1, t, t*) / dt_1^a dt*_1^b ).

    Both sides are bivariate polynomials in (t, t*), compared through
    bidegree (D, D).  Every monomial of either side has equal t- and
    t*-degree, so that is total degree 2D, the cap of the ring both sides
    are built in.
    """
    if r(0) != 0:
        raise ValueError("this identity needs r(0) = 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    J = D + n - 1
    ring = PolyRing.bi_times_ring(J, cap=2 * J)
    check = PolyRing.bi_times_ring(J, cap=2 * D)
    tau1 = tau_series(TauSpec(r, 1, Formal(), Formal()), J).as_polyseries(ring)
    rows = []
    for a in range(n):
        row = []
        base = tau1
        for _ in range(a):
            base = base.diff(0)
        for b in range(n):
            ent = base
            for _ in range(b):
                ent = ent.diff(J)
            row.append(ent.truncate(check))
        rows.append(row)
    pref = det_two_side_prefactor(r, n, n)  # r(0) = 0 leaves v = 0 out
    rhs = _det(rows) * pref
    lhs = tau_series(TauSpec(r, n, Formal(), Formal()), D).as_polyseries(check)
    return DetRepResult(lhs, rhs, pref)


# -- residual checks --------------------------------------------------------


def hirota_residual(r: ContentFunction, n: int, D: int) -> PolySeries:
    """tau(n) d_t1 d_t1* tau(n) - d_t1 tau(n) d_t1* tau(n)
       - r(n) tau(n-1) tau(n+1),
    as a bivariate polynomial through bidegree (D-1, D-1), where it vanishes
    for every tau of hypergeometric type.  Every monomial has equal t- and
    t*-degree, so the residual is built in the ring of total degree 2D - 2;
    the mixed derivative of tau(n) needs its (D, D) terms, so tau(n) alone
    is expanded through 2D first.
    """
    check = PolyRing.bi_times_ring(D, cap=2 * D - 2)
    if D == 0:
        return check.zero()
    tn = tau_series(TauSpec(r, n, Formal(), Formal()), D).as_polyseries(
        PolyRing.bi_times_ring(D, cap=2 * D)
    )
    tm = tau_series(TauSpec(r, n - 1, Formal(), Formal()), D).as_polyseries(check)
    tp = tau_series(TauSpec(r, n + 1, Formal(), Formal()), D).as_polyseries(check)
    d1 = tn.diff(0)
    t, dt, du, dtu = (f.truncate(check) for f in (tn, d1, tn.diff(D), d1.diff(D)))
    return t * dtu - dt * du - tm * tp * r(n)


def _difference(x: Fraction, f: tuple[int, int], y: Fraction, g: tuple[int, int]) -> Fraction:
    """x f - y g for Fractions x, y and integer pairs f, g, as one Fraction."""
    (fn, fd), (gn, gd) = f, g
    xd, yd = x.denominator * fd, y.denominator * gd
    return Fraction(x.numerator * fn * yd - y.numerator * gn * xd, xd * yd)


def ode_residual(a: Sequence, b: Sequence, D: int) -> list[Fraction]:
    """Residual coefficients of the generalized hypergeometric operator

        prod_{k=0}^{s} (x d/dx + b_k - 1) - x prod_j (x d/dx + a_j),  b_0 = 1,

    applied to the truncated one-variable series; zero through degree D-1.
    Each coefficient c_m m prod (m + b_k - 1) - c_{m-1} prod (m - 1 + a_j)
    is formed from integer pairs as one Fraction.
    """
    cs = pfs_one_var_coeffs(a, b, D)
    a = [_as_fraction(x) for x in a]
    b = [_as_fraction(x) for x in b]
    den_b, den_a = prod(bk.denominator for bk in b), prod(aj.denominator for aj in a)
    res = []
    for m in range(D):
        first = m * prod(bk.numerator + (m - 1) * bk.denominator for bk in b)
        second = prod(aj.numerator + (m - 1) * aj.denominator for aj in a) if m else 0
        res.append(_difference(cs[m], (first, den_b), cs[m - 1] if m else 0, (second, den_a)))
    return res


def q_difference_residual(a: Sequence[int], b: Sequence[int], q, D: int) -> list[Fraction]:
    """Residual of ((1/x)(1 - q^{x d/dx}) - r_q(x d/dx)) on the basic series;
    zero through degree D-1.  Each coefficient
    c_{m+1} (1 - q^(m+1)) - c_m r_q(m) is formed from integer pairs, with
    1 - q^(m+1) from the table of r_q = QRationalContent(a, b, q), as one
    Fraction."""
    cs = qphi_one_var_coeffs(a, b, q, D)
    rq = QRationalContent(a, b, q)
    res = []
    for m in range(D):
        r = rq(m)
        res.append(_difference(cs[m + 1], rq.one_minus[m + 1], cs[m], (r.numerator, r.denominator)))
    return res


# -- wave functions and symmetries ------------------------------------------


def baker_akhiezer(r: ContentFunction, n: int, u_times: Times, D: int) -> list:
    """Coefficients c_m of z^n (1 + sum_m c_m z^-m):
    c_m = r(n) r(n-1) ... r(n-m+1) h_m(-t*)."""
    hs = h_list(u_times.negate(), D)
    return [r.window(n - m, n) * h for m, h in enumerate(hs)]


def baker_akhiezer_dual(r: ContentFunction, n: int, u_times: Times, D: int) -> list:
    """Dual wave coefficients: c*_m = r(n) r(n+1) ... r(n+m-1) h_m(t*)."""
    hs = h_list(u_times, D)
    return [r.window(n - 1, n + m - 1) * h for m, h in enumerate(hs)]


def symmetry_checks(r: ContentFunction, n: int, D: int, scale=Fraction(2)) -> dict:
    """Verify the swap, reflection and scaling symmetries of the series.

    swap:       tau_r(n, t, t*) = tau_r(n, t*, t)
    reflection: tau_{r'}(-n, -t, -t*) = tau_r(n, t, t*) with r'(k) = r(-k)
    scaling:    invariant under t_m -> a^m t_m, t*_m -> a^-m t*_m
    """
    ring = PolyRing.bi_times_ring(D, cap=2 * D)
    base = tau_series(TauSpec(r, n, Formal(), Formal()), D).as_polyseries(ring)
    # swap: exchange the two variable blocks
    perm = list(range(D, 2 * D)) + list(range(0, D))
    swapped = base.rename_swap(perm)
    swap_ok = swapped == base
    # reflection
    refl = tau_series(
        TauSpec(r.reflected(), -n, Formal(), Formal()), D
    ).as_polyseries(ring)
    refl = refl.scale_vars([Fraction(-1)] * (2 * D))
    reflection_ok = refl == base
    # scaling
    a = _as_fraction(scale)
    factors = [a**m for m in range(1, D + 1)] + [a**-m for m in range(1, D + 1)]
    scaling_ok = base.scale_vars(factors) == base
    return {"swap": swap_ok, "reflection": reflection_ok, "scaling": scaling_ok}
