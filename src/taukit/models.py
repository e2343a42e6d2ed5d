"""Matrix-model perturbation series as tau-series specializations.

Each model is a specialization of the double Schur series: the two-matrix
model weight (n)_lambda, the quartic one-matrix model through the coupling
substitution, the unitary-average integrals with their determinant closed
forms, the normal-matrix moment map, and the composed-weight angle
integrals.  Quartic coefficients are emitted as exact polynomials in the
matrix size so parity and oracle checks are identities, not spot values.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .partitions import Partition, _parts_of_weight, partitions_of
from .symfun import (
    PolyRing,
    PolySeries,
    Poly1,
    Times,
    _as_fraction,
    _num_den,
    exp_series,
    h_list,
    inverse_series,
    schur,
)
from .tau import (
    DetRepResult,
    Eigs,
    Formal,
    TauSeries,
    TauSpec,
    TInf,
    det_rep_two_side,
    tau_series,
)
from .weights import (
    ConstantOneContent,
    ContentFunction,
    ContentPoleError,
    LinearContent,
    RationalContent,
    _pair_sum,
    content_product,
)


# -- two-matrix model --------------------------------------------------------


def two_matrix_series(n: int, D: int, tside=None, uside=None) -> TauSeries:
    """Normalized two-matrix-model series sum (n)_lambda s_lambda(t) s_lambda(t*),
    the tau series of r(k) = k at charge n; sides default to formal times."""
    return tau_series(
        TauSpec(LinearContent(), n, tside or Formal(), uside or Formal()), D
    )


def gauss_closed_form(D: int) -> PolySeries:
    """exp((t1 t1* + t2 t1*^2 + t2* t1^2)/(1 - 4 t2 t2*)) / sqrt(1 - 4 t2 t2*)
    expanded to total weighted degree 2D in (t1, t2, t1*, t2*)."""
    ring = PolyRing(["t1", "t2", "u1", "u2"], [1, 2, 1, 2], 2 * D)
    t1, t2, u1, u2 = (ring.var(i) for i in range(4))
    w = t2 * u2 * 4
    inv = inverse_series(1 - w)
    # (1 - w)^(-1/2) as a series in w
    half = ring.one()
    term = ring.one()
    k = 0
    while True:
        k += 1
        # (-1/2 choose k)(-w)^k = binom(2k, k) / 4^k * w^k
        term = term * w
        if term.is_zero():
            break
        coeff = Fraction(factorial(2 * k), factorial(k) ** 2 * 4**k)
        half = half + term * coeff
    num = t1 * u1 + t2 * u1 * u1 + u2 * t1 * t1
    return exp_series(num * inv) * half


def two_matrix_vs_closed(D: int) -> bool:
    """Exact check of the n = 1 Gauss closed form through bidegree D."""
    series = two_matrix_series(1, D)
    ring = PolyRing(["t1", "t2", "u1", "u2"], [1, 2, 1, 2], 2 * D)
    # expand sum m! h_m(t) h_m(u) with only t1, t2 / u1, u2 alive
    t = Times.of([ring.var(0), ring.var(1)])
    u = Times.of([ring.var(2), ring.var(3)])
    ht = h_list(t, D)
    hu = h_list(u, D)
    lhs = ring.zero()
    for m in range(D + 1):
        lhs = lhs + ht[m] * hu[m] * factorial(m)
    rhs = gauss_closed_form(D)
    # the tau series must agree with its own restriction as well
    for lam, c in series.items():
        if lam.length > 1:
            return False
        if c != factorial(lam.weight):
            return False
    return lhs == rhs


# -- quartic Hermitian one-matrix model ---------------------------------------


# the quartic model's two specializations: t_4 = 1, resp. t_2 = 1, every other time zero
_T4, _T2 = (Times.of([0] * (slot - 1) + [1]) for slot in (4, 2))


def pochhammer_poly(lam: Partition) -> Poly1:
    """(N)_lambda as a polynomial in N: prod over cells (N + j - i)."""
    out = Poly1([1])
    x = Poly1.x()
    for (i, j) in lam.cells():
        out = out * (x + Fraction(j - i))
    return out


class QuarticModelParams:
    """Matrix size N >= 1 and couplings (g, g4) with g != 0."""

    def __init__(self, N: int, g, g4):
        if N < 1:
            raise ValueError("N must be >= 1")
        g = _as_fraction(g)
        if g == 0:
            raise ValueError("g must be nonzero")
        self.N = N
        self.g = g
        self.g4 = _as_fraction(g4)


class ModelSeries:
    """Coefficient table of a normalized model partition function.

    ``orders[k]`` is the exact coefficient of (g4/g^2)^k as a polynomial in
    N; ``evaluate`` substitutes numeric parameters.
    """

    def __init__(self, orders: list[Poly1], provenance: str):
        self.orders = orders
        self.provenance = provenance

    def coefficient(self, k: int) -> Poly1:
        return self.orders[k]

    def evaluate(self, params: QuarticModelParams) -> Fraction:
        total = Fraction(0)
        ratio = params.g4 / params.g**2
        for k, p in enumerate(self.orders):
            total += p(params.N) * ratio**k
        return total

    def to_json(self) -> dict:
        return {
            str(k): [_num_den(c) for c in p.coeffs]
            for k, p in enumerate(self.orders)
        }


def quartic_series(order: int) -> ModelSeries:
    """Perturbative expansion of the quartic one-matrix model.

    From the two-matrix series with t = (0,0,0,t4), t* = (0,t2*):
    only |lambda| = 4k contribute; the coupling map g4 = -4 t4 / N,
    g = 1/(2 N t2*) turns the order-k term into
    (-1)^k / (16^k N^k) * sum_{|lambda|=4k} (N)_lambda a_lambda b_lambda
    times (g4/g^2)^k, an exact polynomial in N after the division.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    orders = [Poly1([1])]
    for k in range(1, order + 1):
        acc = sum(map(quartic_contribution, partitions_of(4 * k)), Poly1())
        orders.append(acc.shift_divide(k) * Fraction((-1) ** k, 16**k))  # divide by N^k; exact
    return ModelSeries(orders, "quartic via two-matrix specialization")


def quartic_contribution(lam: Partition) -> Poly1:
    """(N)_lambda a_lambda b_lambda, the summand of one quartic order, with
    a = s_lambda at t_4 = 1 and b = s_lambda at t_2 = 1."""
    a = schur(lam, _T4)
    b = a and schur(lam, _T2)
    return pochhammer_poly(lam) * (a * b) if b else Poly1()


# -- HCIZ and unitary-average integrals ---------------------------------------


def hciz(n: int, D: int) -> DetRepResult:
    """The angle-average of exp(Tr A U B U^+): series
    sum s(A) s(B) / (H s(I_n)) against the det(e^{a_i b_j}) closed form,
    both expanded symbolically in the eigenvalues through degree D.
    """
    return det_rep_two_side(RationalContent(b=[0]), n, n, D)


def gross_witten_series(n: int, jj_eigs: Sequence, D: int) -> TauSeries:
    """One-plaquette average: sum_lambda s_lambda(JJ+) s_lambda(1,0,..)/(n)_lambda,
    the tau series of r(k) = 1/k at charge n with t* at the exponential point."""
    if len(jj_eigs) > n:
        raise ValueError("need at most n eigenvalues")
    return tau_series(TauSpec(RationalContent(b=[0]), n, Eigs(jj_eigs), TInf()), D)


def unitary_model_series(n: int, D: int) -> TauSeries:
    """sum_{l(lambda) <= n} s_lambda(t) s_lambda(t*): the r = 1 series with a
    hard length cut (the cut is not induced by a zero of r and is imposed
    explicitly)."""
    return tau_series(
        TauSpec(ConstantOneContent(), n, Formal(), Formal()), D, length_max=n
    )


# -- normal matrix model -------------------------------------------------------


class VanishingMomentError(ArithmeticError):
    """h_m(u) = 0: the moment-to-content map is undefined."""


def normal_matrix_map(u: Times, D: int) -> dict:
    """Recover r on the negative window from the potential moments:
    h_m(u) = 1/(r(-1)...r(-m)), i.e. r(-m) = h_{m-1}(u)/h_m(u).

    Returns the table {-m: r(-m)}, the h-moments, and the charge-1 series
    identification mu(xy) = sum_m h_m(u) (xy)^m.
    """
    hs = h_list(u, D)
    table = {0: Fraction(0)}
    for m in range(1, D + 1):
        if hs[m] == 0:
            raise VanishingMomentError(f"h_{m}(u) = 0; r(-{m}) undefined")
        table[-m] = hs[m - 1] / hs[m]
    return {"r_table": table, "h_moments": hs, "mu_coeffs": list(hs)}


# -- generalized angle integrals (composed weights) ----------------------------


def angle_hciz_average(r: ContentFunction, a, n: int) -> ContentFunction:
    """Average of tau_r(n, X U Y U^+, t(a)) over U(n): the weight gains
    (a)_lambda/(n)_lambda, i.e. the lattice factor (k + a - n)/k (the
    charge-relative index m = k - n + 1 turns this into (a+m-1)/(n+m-1))."""
    return r * RationalContent(a=[_as_fraction(a) - n], b=[Fraction(0)])


def angle_complex_average(r: ContentFunction, a, n: int) -> ContentFunction:
    """Average of tau_r(n, X Z Y Z^+, t(a)) over complex Gaussian Z: the
    weight gains (a)_lambda, i.e. the lattice factor (k + a - n)."""
    return r * RationalContent(a=[_as_fraction(a) - n])


def angle_gross_witten_average(
    r: ContentFunction, rt: ContentFunction, a, n: int
) -> ContentFunction:
    """Generalized one-plaquette average with t*_m = a/m: the composed
    weight is (a)_lambda/(n)_lambda times both content products."""
    return (r * rt) * RationalContent(a=[_as_fraction(a) - n], b=[Fraction(0)])


def generalized_angle_integral(
    kind: str,
    r: ContentFunction,
    n: int,
    D: int,
    a=None,
    rt: Optional[ContentFunction] = None,
) -> TauSeries:
    """Angle-averaged tau integrals with composed content functions.

    kind: "hciz" (unitary average, weight (a)_lam/(n)_lam r_lam),
          "complex" (Gaussian average, weight (a)_lam H_lam-side r_lam),
          "gw" (two-tau average, weight r rtilde composed), or
          "gw_unit" (X Y = I_n case: plain product weight r rtilde).
    """
    if rt is None and kind in ("gw", "gw_unit"):
        raise ValueError(f"{kind} needs rtilde")
    if kind == "hciz":
        comp = angle_hciz_average(r, a, n)
    elif kind == "complex":
        comp = angle_complex_average(r, a, n)
    elif kind == "gw":
        comp = angle_gross_witten_average(r, rt, a, n)
    elif kind == "gw_unit":
        comp = r * rt
    else:
        raise ValueError(f"unknown kind {kind!r}")
    spec = TauSpec(comp, n, Formal(), Formal())
    # the averaged integrals carry the hard l(lambda) <= n cut of the
    # underlying unitary/Gaussian integral; the XY = I_n case is a plain tau
    cap = None if kind == "gw_unit" else n
    return tau_series(spec, D, length_max=cap)


# -- loop scalar products -------------------------------------------------------


def loop_scalar_product(gs: Sequence[ContentFunction], n: int, D: int) -> list[Fraction]:
    """Graded trace sum_{|lambda|=d} prod_i r^{(i)}_lambda(n) for d = 0..D.

    The g's are the diagonal weight operators; composition in the diagonal
    case is the plain product of weights.  Partitions come graded by weight,
    so the weight of lambda is that of lambda without its last row, an
    unreduced integer pair, times the r-window of that row for each g (row
    l, of k cells, covers the contents n - l + 1 .. n - l + k); each degree
    sums its pairs into one Fraction.  A pole inside a row window falls
    back to the cell-by-cell ``content_product`` for that lambda: a zero
    cell before the pole still gives weight 0, else the pole is named by
    its cell.
    """
    walked = {(): (1, 1)}
    out = [Fraction(1)] if D >= 0 else []
    for d in range(1, D + 1):
        pairs = []
        for parts in _parts_of_weight(d, d, d):
            p, q = walked[parts[:-1]]
            lo = n - len(parts)
            try:
                for g in gs:
                    w = g.window(lo, lo + parts[-1])
                    p, q = p * w.numerator, q * w.denominator
            except ContentPoleError:
                lam = Partition._of(parts)
                if all(content_product(g, n, lam) for g in gs):
                    raise
                p = 0
            walked[parts] = p, q
            pairs.append((p, q))
        out.append(_pair_sum(pairs))
    return out
