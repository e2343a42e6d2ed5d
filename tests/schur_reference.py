"""Reference Schur functions for the tests: Newton's recurrences for h and e,
the Jacobi-Trudi determinants and the bialternant at eigenvalues (Macdonald,
Symmetric Functions, I.2, I.3, I.5).  They share no code with the
border-strip engine of ``taukit.symfun`` beyond the generic determinant
``_det``."""

from fractions import Fraction as F
from itertools import combinations
from math import prod

from taukit.partitions import Partition
from taukit.symfun import _det


def newton_lists(t, D):
    """(h_0..h_D, e_0..e_D) of the times t by Newton's identities
    k h_k = sum_m m t_m h_{k-m} and k e_k = sum_m (-1)^(m-1) m t_m e_{k-m}."""
    hs, es = [F(1)], [F(1)]
    for k in range(1, D + 1):
        h = e = F(0)
        for m in range(1, min(k, t.K) + 1):
            mt = t.entries[m - 1] * m
            h = h + mt * hs[k - m]
            e = e + mt * es[k - m] * (-1) ** (m - 1)
        hs.append(h * F(1, k))
        es.append(e * F(1, k))
    return hs, es


def jacobi_trudi_determinant(seq, outer, inner=Partition()):
    """det(seq[outer_i - inner_j - i + j]), seq[k] = 0 for k < 0."""
    n = max(outer.length, inner.length, 1)
    ks = [[outer.part(i) - inner.part(j) - i + j for j in range(1, n + 1)] for i in range(1, n + 1)]
    return _det([[seq[k] if k >= 0 else F(0) for k in row] for row in ks])


def jacobi_trudi(t, lam, mu=Partition()):
    """s_{lam/mu}(t) as det(h_{lam_i - mu_j - i + j}); for a straight shape the
    e-determinant on the conjugate when that matrix is smaller."""
    if mu.length == 0 and lam.part(1) < lam.length:
        conj = lam.conjugate()
        return jacobi_trudi_determinant(newton_lists(t, conj.part(1) + conj.length)[1], conj, mu)
    n = max(lam.length, mu.length, 1)
    return jacobi_trudi_determinant(newton_lists(t, lam.part(1) + n)[0], lam, mu)


def bialternant(lam, xs):
    """s_lambda(x_1..x_n) = det(x_i^(lambda_j + n - j)) / prod_{i<j} (x_i - x_j)
    at distinct x; zero when lambda is longer than the alphabet."""
    n = len(xs)
    if lam.length > n:
        return F(0)
    num = _det([[x ** (lam.part(j) + n - j) for j in range(1, n + 1)] for x in xs])
    return num / prod((xs[i] - xs[j] for i, j in combinations(range(n), 2)), start=F(1))
