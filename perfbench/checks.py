"""Reference values the benchmark checks taukit's outputs against.

Everything here is written from the closed formulas, in plain Python over
``Fraction``, and imports nothing from taukit, so a check never shares code
with the layer it checks and never shows up in a traced run.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Callable, Iterator, Sequence

Content = Callable[[int], Fraction]


def partitions(weight_max: int, length_max: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of weight <= weight_max (as tuples), any order."""

    def parts(n: int, largest: int, slots: int):
        if n == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(n, largest), 0, -1):
            for rest in parts(n - first, first, slots - 1):
                yield (first,) + rest

    for n in range(weight_max + 1):
        yield from parts(n, n, n if length_max is None else length_max)


def show(lam: Sequence[int]) -> str:
    """The CLI's partition key, e.g. "[3,1]"."""
    return "[" + ",".join(map(str, lam)) + "]"


def cells(lam: Sequence[int]) -> Iterator[tuple[int, int]]:
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            yield i, j


def hooks(lam: Sequence[int]) -> list[int]:
    conj = [sum(1 for row in lam if row >= j) for j in range(1, (lam[0] if lam else 0) + 1)]
    return [lam[i - 1] - j + conj[j - 1] - i + 1 for i, j in cells(lam)]


def hook_product(lam: Sequence[int]) -> int:
    out = 1
    for h in hooks(lam):
        out *= h
    return out


def n_stat(lam: Sequence[int]) -> int:
    return sum(i * row for i, row in enumerate(lam))


# -- content functions --------------------------------------------------------


def rational(a: Sequence[Fraction], b: Sequence[Fraction]) -> Content:
    def r(k: int) -> Fraction:
        out = Fraction(1)
        for x in a:
            out *= k + x
        for y in b:
            out /= k + y
        return out

    return r


def q_rational(a: Sequence[int], b: Sequence[int], q: Fraction) -> Content:
    def r(k: int) -> Fraction:
        out = Fraction(1)
        for x in a:
            out *= 1 - q ** (x + k)
        for y in b:
            out /= 1 - q ** (y + k)
        return out

    return r


def linear(k: int) -> Fraction:
    return Fraction(k)


def one(k: int) -> Fraction:
    return Fraction(1)


def content_product(r: Content, n: int, lam: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for i, j in cells(lam):
        out *= r(n + j - i)
    return out


# -- Schur functions at special points -----------------------------------------


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return out


def schur_at(lam: Sequence[int], xs: Sequence[Fraction]) -> Fraction:
    """s_lambda(x_1..x_n) by Jacobi-Trudi, with h_k built variable by
    variable (repeated values are fine)."""
    if len(lam) > len(xs):
        return Fraction(0)
    if not lam:
        return Fraction(1)
    top = lam[0] + len(lam)
    h = [Fraction(1)] + [Fraction(0)] * top
    for x in xs:
        for k in range(1, top + 1):
            h[k] += x * h[k - 1]
    ell = len(lam)
    rows = []
    for i in range(ell):
        ks = [lam[i] - i + j for j in range(ell)]
        rows.append([h[k] if k >= 0 else Fraction(0) for k in ks])
    return det(rows)


def schur_weight_a(lam: Sequence[int], a: Fraction) -> Fraction:
    """s_lambda(t(a)) = prod (a + content) / H_lambda."""
    out = Fraction(1, hook_product(lam))
    for i, j in cells(lam):
        out *= a + j - i
    return out


def schur_q_geometric(lam: Sequence[int], q: Fraction) -> Fraction:
    """s_lambda(1, q, q^2, ...) = q^n(lambda) / prod (1 - q^hook)."""
    out = q ** n_stat(lam)
    for h in hooks(lam):
        out /= 1 - q**h
    return out


def schur_ones(lam: Sequence[int], n: int) -> Fraction:
    """s_lambda(1^n) = prod (n + content) / H_lambda."""
    return content_product(lambda k: Fraction(k), n, lam) / hook_product(lam)


# -- Gaussian moments ---------------------------------------------------------


def double_factorial(odd: int) -> int:
    out = 1
    while odd > 1:
        out *= odd
        odd -= 2
    return out


def harer_zagier(k: int) -> list[int]:
    """Coefficients in N of E[Tr M^2k] for the unit-propagator GUE:
    (k+1) T_k = (4k-2) N T_{k-1} + (k-1)(2k-1)(2k-3) T_{k-2}."""
    polys = [[0, 1], [0, 0, 1]]
    for m in range(2, k + 1):
        a = [0] + [(4 * m - 2) * c for c in polys[m - 1]]
        b = [(m - 1) * (2 * m - 1) * (2 * m - 3) * c for c in polys[m - 2]]
        b += [0] * (len(a) - len(b))
        polys.append([(x + y) // (m + 1) for x, y in zip(a, b)])
    return polys[k]


# -- Monte Carlo verdicts -----------------------------------------------------------


def mc_verdict(rep: dict) -> tuple[bool, bool, float | None]:
    """(outlier, zero_variance, z) for one taukit Monte Carlo report.

    When the averaged quantity is constant (e.g. s_11(AU) s_11(U^-1 B) =
    det A det B at n = 2) the estimate has std_error 0 and taukit's own
    verdict demands float equality with the exact value, which rounding
    breaks.  Such a result is an outlier only if it misses the exact value
    by more than 1e-12 relative; it has no z-score.
    """
    if rep["std_error"] == 0.0:
        exact = rep["exact_float"]
        return abs(rep["estimate"] - exact) > 1e-12 * max(1.0, abs(exact)), True, None
    return not rep["pass"], False, rep["z"]


# -- digests ------------------------------------------------------------------


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def digest(text: str) -> str:
    """Short content hash of one op's canonical exact output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def poly_text(terms: dict) -> str:
    """Canonical text of a PolySeries' term dict (exponents -> Fraction)."""
    return ";".join(f"{','.join(map(str, e))}:{frac(c)}" for e, c in sorted(terms.items()))
