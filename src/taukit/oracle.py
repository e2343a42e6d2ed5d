"""Independent numerical and combinatorial ground truth.

Three oracles live here, deliberately unaware of the series machinery:

* Monte Carlo averages of Schur functions over Haar-unitary and complex
  Gaussian matrices (checked against the exact unitary/Gaussian integration
  formulas at the 3-sigma level),
* exact Gaussian Wick moments of Hermitian trace products, as polynomials
  in the matrix size N, by the loop-equation (Tutte) recursion on the first
  half-edge of a trace,
* quadrature of the one-variable moment measures whose diagonal moments
  realize the deformed scalar product.

Randomness: numpy PCG64 seeded by SeedSequence(seed, stream).  Samples are
drawn in fixed-size blocks, one stream per block, and merged in block order,
so results are bit-identical for a given (seed, samples) regardless of how
the blocks are scheduled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .partitions import Partition
from .symfun import Poly1, _as_fraction, _num_den, schur_from_eigenvalues
from .weights import ContentFunction, hook_product, pochhammer

BLOCK = 1000  # samples per RNG stream; part of the determinism contract
ZERO_VARIANCE_RTOL = 1e-12  # verdict tolerance for an estimate with std_error 0


class RngStream:
    """Deterministic generator: (seed, stream id) fixes the sample sequence."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self.gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,)))
        )


@dataclass
class MCEstimate:
    mean: float
    std_error: float
    samples: int

    def _constant_matches(self, exact: float) -> bool:
        # a constant average (std_error 0) carries only rounding error
        return abs(self.mean - exact) <= ZERO_VARIANCE_RTOL * max(1.0, abs(exact))

    def within_sigma(self, exact: float, sigma: float = 3.0) -> bool:
        if self.std_error == 0.0:
            return self._constant_matches(exact)
        return abs(self.mean - exact) <= sigma * self.std_error

    def z_score(self, exact: float) -> float:
        if self.std_error == 0.0:
            return 0.0 if self._constant_matches(exact) else math.inf
        return (self.mean - exact) / self.std_error


def sample_haar_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    return sample_haar_unitary_batch(n, 1, gen)[0]


def sample_haar_unitary_batch(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitaries via QR of complex Ginibre matrices with the
    phases of the R diagonal normalized."""
    q, r = np.linalg.qr(sample_ginibre_batch(n, count, gen))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def sample_ginibre_batch(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrices with density exp(-Tr Z Z^+) pi^{-n^2}
    (unit-variance complex entries)."""
    if n < 1:
        raise ValueError(f"matrix size n must be >= 1, got n={n}")
    return (gen.standard_normal((count, n, n)) + 1j * gen.standard_normal((count, n, n))) / np.sqrt(2)


def _pairwise_sum(terms: list) -> np.ndarray:
    """terms[0] + terms[1] + ... in the order of numpy's pairwise summation
    (sequential below 4 terms, four running sums up to 64, halves above), so
    a sum of diagonal entries equals np.trace bit for bit."""
    k = len(terms)
    if k > 64:
        half = (k - k % 8) // 2
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if k < 4:
        return sum(terms[1:], terms[0])
    cut = k - k % 4
    s = terms[:4]
    for i in range(4, cut):
        s[i % 4] = s[i % 4] + terms[i]
    return sum(terms[cut:], (s[0] + s[1]) + (s[2] + s[3]))


def schur_of_matrix(lam: Partition, mats: np.ndarray) -> np.ndarray:
    """s_lambda of a (batch of) matrix argument(s) via trace power sums and
    the Jacobi-Trudi determinant; cheap for the small weights used here."""
    d = lam.weight
    if d == 0:
        return np.ones(mats.shape[0], dtype=complex)
    batch = mats.shape[0]
    powers = [None, mats]
    for _ in range(2, d + 1):
        powers.append(powers[-1] @ mats)
    # the traces without np.trace's reduction loop over every matrix of the stack
    p = [None] + [_pairwise_sum([P[:, i, i] for i in range(P.shape[-1])]) for P in powers[1:]]
    h = [np.ones(batch, dtype=complex)]
    for k in range(1, d + 1):
        acc = np.zeros(batch, dtype=complex)
        for m in range(1, k + 1):
            acc += p[m] * h[k - m]
        h.append(acc / k)
    n = lam.length
    mat = np.empty((batch, n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k = lam.part(i) - i + j
            mat[:, i - 1, j - 1] = h[k] if 0 <= k <= d else 0.0
    return np.linalg.det(mat)


def _blocked_mean(values_fn, samples: int, seed: int) -> MCEstimate:
    """Mean/σ accumulated over fixed blocks with one RNG stream per block."""
    total = 0.0
    total2 = 0.0
    for block_id, start in enumerate(range(0, samples, BLOCK)):
        vals = values_fn(min(BLOCK, samples - start), RngStream(seed, block_id).gen)
        total += float(np.sum(vals))
        total2 += float(np.sum(np.asarray(vals) ** 2))
    mean = total / samples
    var = max(total2 / samples - mean**2, 0.0)
    return MCEstimate(mean, math.sqrt(var / samples), samples)


def _mc_schur_identity(
    kind: str,
    sample: Callable[[int, int, np.random.Generator], np.ndarray],
    norm: Callable[[Partition, int], Fraction],
    lam: Partition,
    A: Sequence,
    B: Sequence,
    n: int,
    samples: int,
    seed: int,
    mu: Optional[Partition],
    sigma: float,
) -> dict:
    """The one Monte Carlo check behind both ensembles.

    ``sample(n, count, gen)`` draws a stack of n x n matrices X and
    ``norm(lam, n)`` is the exact-side factor c_lambda of

    mu is None:  E[s_lambda(A X B X^+)] = c_lambda s_lambda(A) s_lambda(B)
    mu given:    E[s_lambda(A X) s_mu(X^+ B)] = delta c_lambda s_lambda(A B)
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2 (got {samples})")
    if len(A) != n or len(B) != n:
        raise ValueError(f"A and B need n = {n} entries each (got {len(A)} and {len(B)})")
    if lam.length > n:
        raise ValueError("need l(lambda) <= n")
    if mu is not None and mu.length > n:
        raise ValueError("need l(mu) <= n")
    # diag(A) X diag(B) by scaling rows and columns, without matmuls
    a = np.array([float(x) for x in A], dtype=complex)[:, None]
    b = np.array([float(x) for x in B], dtype=complex)[None, :]
    if mu is None:
        exact = norm(lam, n) * schur_from_eigenvalues(lam, A) * schur_from_eigenvalues(lam, B)
    elif lam == mu:
        exact = norm(lam, n) * schur_from_eigenvalues(lam, [a * b for a, b in zip(A, B)])
    else:
        exact = Fraction(0)

    def values(count, gen):
        X = sample(n, count, gen)
        Xh = np.conjugate(np.transpose(X, (0, 2, 1)))
        if mu is None:
            return np.real(schur_of_matrix(lam, (a * X * b) @ Xh))
        return np.real(schur_of_matrix(lam, a * X) * schur_of_matrix(mu, Xh * b))

    est = _blocked_mean(values, samples, seed)
    exact_f = float(exact)
    return {
        "kind": kind,
        "lambda": str(lam),
        "mu": str(mu) if mu is not None else None,
        "estimate": est.mean,
        "std_error": est.std_error,
        "samples": est.samples,
        "exact": _num_den(exact),
        "exact_float": exact_f,
        "z": est.z_score(exact_f),
        "sigma": sigma,
        "pass": est.within_sigma(exact_f, sigma),
    }


def mc_schur_unitary_identity(
    lam: Partition,
    A: Sequence,
    B: Sequence,
    n: int,
    samples: int,
    seed: int = 0,
    mu: Optional[Partition] = None,
    sigma: float = 3.0,
) -> dict:
    """MC check of the unitary group averages (X = U Haar, X^+ = U^-1):

    mu is None:  E[s_lambda(A U B U^-1)] = s_lambda(A) s_lambda(B) / s_lambda(I_n)
    mu given:    E[s_lambda(A U) s_mu(U^-1 B)] = delta s_lambda(A B)/s_lambda(I_n)
    """
    def norm(lam, n):
        return 1 / schur_from_eigenvalues(lam, [Fraction(1)] * n)

    return _mc_schur_identity("unitary", sample_haar_unitary_batch, norm, lam, A, B, n, samples, seed, mu, sigma)


def mc_schur_ginibre_identity(
    lam: Partition,
    A: Sequence,
    B: Sequence,
    n: int,
    samples: int,
    seed: int = 0,
    mu: Optional[Partition] = None,
    sigma: float = 3.0,
) -> dict:
    """MC check of the complex Gaussian averages (X = Z Ginibre):

    mu is None:  E[s_lambda(A Z B Z^+)] = H_lambda s_lambda(A) s_lambda(B)
    mu given:    E[s_lambda(A Z) s_mu(Z^+ B)] = delta H_lambda s_lambda(A B)
    """
    def norm(lam, n):
        return Fraction(hook_product(lam))

    return _mc_schur_identity("ginibre", sample_ginibre_batch, norm, lam, A, B, n, samples, seed, mu, sigma)


# -- exact Wick moment oracle ---------------------------------------------------


def wick_gaussian_moment(trace_powers: Sequence[int]) -> Poly1:
    """E[prod_i Tr M^{k_i}] for the Hermitian Gaussian with propagator
    <M_ab M_cd> = delta_ad delta_bc * v, as a polynomial in N with the
    power v^(sum k / 2) left implicit (v = 1/(N g) in the quartic model).

    Loop equation on the first half-edge of the last trace Tr M^k (Tutte
    1962; Harer-Zagier 1986): pairing it with the half-edge j + 1 steps along
    its own trace splits the trace, pairing it with one of the k_i half-edges
    of another trace merges the two, and Tr M^0 = N:

        E[Tr M^k R] = sum_{j=0}^{k-2} E[Tr M^j Tr M^{k-2-j} R]
                      + sum_i k_i E[Tr M^{k+k_i-2} R / Tr M^{k_i}].
    """
    powers = list(trace_powers)
    if any(not isinstance(k, numbers.Integral) or k < 0 for k in powers):
        raise ValueError(f"powers must be non-negative integers (got {powers})")
    if sum(powers) % 2:
        raise ValueError("odd total power: moment vanishes")
    memo: dict = {(): [1]}  # local to the call, so memory does not grow across calls

    def moment(ks: tuple) -> list:
        # the moment of the sorted powers ks, as integer coefficients of N^0, N^1, ...
        if ks and ks[0] == 0:
            return [0] + moment(ks[1:])
        if ks not in memo:
            *rest, k = ks
            splits = [(rest + [j, k - 2 - j], 1) for j in range(k - 1)]
            merges = [(rest[:i] + rest[i + 1:] + [k + ki - 2], ki) for i, ki in enumerate(rest)]
            out = [0] * (sum(ks) // 2 + len(ks) + 1)  # degree <= T/2 + number of traces
            for sub, weight in splits + merges:
                for e, c in enumerate(moment(tuple(sorted(sub)))):
                    out[e] += weight * c
            memo[ks] = out
        return memo[ks]

    return Poly1(moment(tuple(sorted(powers))))


def quartic_wick_order(k: int) -> Poly1:
    """Coefficient of (g4/g^2)^k in the normalized quartic partition function
    from the Wick oracle.

    The coupling map g4 = -4 t4 / N, g = 1/(2 N t2*) makes the effective
    quartic vertex (-N g4 / 4) Tr M^4, so the order-k coefficient is
    (-1)^k W_k(N) / (4^k k! N^k) with W_k = E[(Tr M^4)^k] (N g)^(2k).
    Equivalently, in the two-matrix couplings the identity reads
    sum_{|lambda|=4k} (N)_lambda a_lambda b_lambda = 4^k W_k(N) / k!.
    """
    W = wick_gaussian_moment([4] * k)
    poly = W.shift_divide(k)
    return poly * Fraction((-1) ** k, math.factorial(k) * 4**k)


# -- moment measures -----------------------------------------------------------


class DivergenceError(ArithmeticError):
    """A quadrature failed to converge."""


def moment_real_imaginary(n: int, m: int, eps: float) -> complex:
    """Regularized moment integral over the real x axis and imaginary y axis:

        I_eps = int int x^n y^m e^{-x y} e^{-eps(x^2+s^2)} dx dy,  y = i s,

    with the y axis oriented from +i infinity to -i infinity (the orientation
    that makes the diagonal value -2 pi i n!).  The oscillatory s integral is
    a Gaussian Fourier transform done in closed form,

        int s^m e^{-eps s^2 - i x s} ds = i^m (d/dx)^m G(x),
        G(x) = sqrt(pi/eps) exp(-x^2/(4 eps)),

    leaving a concentrated real 1-D integral in x (quadrature after the
    rescaling x = 2 sqrt(eps) u).  As eps -> 0 the value converges to
    -2 pi i delta_{nm} n! with O(eps^2) error.
    """
    # In the scaled variable u = x/(2 sqrt(eps)):
    #   (d/dx)^m G(x) = (2 sqrt(eps))^-m sqrt(pi/eps) (-1)^m H_m(u) e^{-u^2}
    # with H_m the physicists' Hermite polynomial (O(1) coefficients, so no
    # cancellation blowup at small eps).
    hm = [np.polynomial.Polynomial([1.0]), np.polynomial.Polynomial([0.0, 2.0])]
    for k in range(1, m):
        hm.append(
            np.polynomial.Polynomial([0.0, 2.0]) * hm[k]
            - hm[k - 1] * (2.0 * k)
        )
    Hm = hm[m] if m >= 1 else hm[0]
    s2e = 2.0 * math.sqrt(eps)
    prefac = (-1.0) ** m * s2e ** (1 - m) * math.sqrt(math.pi / eps)

    def integrand(u):
        x = s2e * u
        return (x**n) * math.exp(-eps * x * x) * Hm(u) * math.exp(-u * u) * prefac

    import warnings

    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            integrand, -14.0, 14.0, limit=400, epsabs=1e-12, epsrel=1e-11
        )
    scale_ref = abs(prefac) * s2e**n * max(1.0, float(math.factorial(max(n, m))))
    if err > 1e-7 * max(abs(val), scale_ref):
        raise DivergenceError(f"x-quadrature error {err}")
    # reassemble: dy = i ds with downward orientation -> overall factor -i;
    # y^m = i^m s^m; the s integral contributed another i^m
    return (1j ** m) * (1j ** m) * (-1j) * val


def moment_real_imaginary_limit(n: int, m: int, eps: float = 1e-4) -> complex:
    """Richardson-extrapolated eps -> 0 limit of the regularized moment
    (the leading regularization error is linear in eps)."""
    v1 = moment_real_imaginary(n, m, eps)
    v2 = moment_real_imaginary(n, m, eps / 2)
    return 2 * v2 - v1


def moment_circle(n: int, m: int, grid: int = 256) -> complex:
    """oint oint x^n y^m e^{1/(x y)} dx dy/(x y) on the unit circles,
    spectrally accurate trapezoid; equals -4 pi^2 delta_{nm} / n!."""
    phi = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    psi = phi[:, None]
    x = np.exp(1j * phi)[None, :]
    y = np.exp(1j * psi)
    f = x**n * y**m * np.exp(1.0 / (x * y))
    # dx dy/(x y) = (i dphi)(i dpsi) = -dphi dpsi
    val = -np.sum(f) * (2 * np.pi / grid) ** 2
    return complex(val)


def moment_unit_interval(n: int, a: Fraction) -> float:
    """int_0^1 x^n (1-x)^(-a) dx for a < 1 (the 1F0 measure)."""
    if a >= 1:
        raise ValueError("the integral diverges unless a < 1")
    from scipy import integrate

    af = float(a)

    def integrand(x):
        return x**n * (1.0 - x) ** (-af)

    val, err = integrate.quad(integrand, 0.0, 1.0, limit=200)
    if err > 1e-10 * max(1.0, abs(val)):
        raise DivergenceError(f"quadrature error {err}")
    return val


def moment_halfline_pfs(n: int, a: Sequence, b: Sequence) -> float:
    """int_0^infty x^n pFs(a; b; -x) dx for p <= s and every a_i > n + 1:
    the moment n lies in the Mellin strip of pFs(-x), 0 < Re z < min a_i."""
    if len(a) > len(b) or any(ai <= n + 1 for ai in a):
        raise ValueError(f"moment {n} lies outside the Mellin strip: it needs p <= s and every a_i > {n + 1}")
    import mpmath
    from scipy import integrate

    al = [mpmath.mpf(float(x)) for x in a]
    bl = [mpmath.mpf(float(x)) for x in b]

    def integrand(x):
        return float(x**n * mpmath.hyper(al, bl, -x))

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=400)
    if err > 1e-8 * max(1.0, abs(val)):
        raise DivergenceError(f"quadrature error {err}")
    return val


def halfline_exact(n: int, a: Sequence, b: Sequence) -> Fraction:
    """(-)^((n+1)(p-s)) n! prod (1-b_i)_{n+1} / prod (1-a_i)_{n+1}."""
    p, s = len(a), len(b)
    num = Fraction(math.factorial(n))
    for bi in b:
        num *= pochhammer(1 - _as_fraction(bi), n + 1)
    den = Fraction(1)
    for ai in a:
        den *= pochhammer(1 - _as_fraction(ai), n + 1)
    sign = Fraction((-1) ** ((n + 1) * (p - s)))
    return sign * num / den


@dataclass
class MomentMeasure:
    """The one-variable measure series mu_r(x) = sum_m x^m / (r(-1)...r(-m)).

    The term ratio at step m is 1/r(-m); ``closed_form`` is an optional tag
    ("exp", "pfs", ...) recording a known resummation.
    """

    r: ContentFunction
    coeffs: list
    closed_form: Optional[str] = None

    @classmethod
    def from_content(cls, r: ContentFunction, D: int, closed_form: Optional[str] = None):
        return cls(r, mu_series_coeffs(r, D), closed_form)

    def annihilation_residual(self) -> list:
        return mu_annihilation_residual(self.coeffs, self.r)


def mu_series_coeffs(r: ContentFunction, D: int) -> list[Fraction]:
    """The formal measure series mu_r(x) = 1 + x/r(-1) + x^2/(r(-1)r(-2)) + ...
    (requires r(0) = 0 and r(-m) != 0 on the window)."""
    out = [Fraction(1)]
    acc = Fraction(1)
    for m in range(1, D + 1):
        rm = r(-m)
        if rm == 0:
            raise ZeroDivisionError(f"r(-{m}) = 0: measure series undefined")
        acc /= rm
        out.append(acc)
    return out


def mu_annihilation_residual(coeffs: Sequence[Fraction], r: ContentFunction) -> list[Fraction]:
    """Residual of (1 - (1/x) r(-D_x)) mu through degree D-1:
    coefficient at x^m is c_m - c_{m+1} r(-(m+1))."""
    out = []
    for m in range(len(coeffs) - 1):
        out.append(coeffs[m] - coeffs[m + 1] * r(-(m + 1)))
    return out
