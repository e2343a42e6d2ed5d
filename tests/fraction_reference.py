"""Reference routes for the tests: one Fraction per cell, per q-power and per
term, as the library computed them before its integer-pair routes.  They
share no code with the row-window, bead-mask and q-power-table routes of
``taukit``; a pole raises the same ContentPoleError message."""

from fractions import Fraction as F

from taukit.partitions import partitions_of
from taukit.weights import ContentPoleError, content_product


def loop_scalar_product(gs, n, D):
    """sum_{|lambda|=d} prod_i g_i,lambda(n) for d = 0..D, cell by cell; a
    zero weight stops before the g's after it."""
    out = []
    for d in range(D + 1):
        tot = F(0)
        for lam in partitions_of(d):
            w = F(1)
            for g in gs:
                w *= content_product(g, n, lam)
                if w == 0:
                    break
            tot += w
        out.append(tot)
    return out


def frobenius_eigenvalue(r, lam, n):
    """r_lambda(n) from the Frobenius coordinates of lambda: a particle
    alpha contributes r(n)..r(n+alpha), a hole beta r(n-beta)..r(n-1)."""
    alphas, betas = lam.frobenius()
    out = F(1)
    for a in alphas:
        for k in range(n, n + a + 1):
            out *= r(k)
    for b in betas:
        for k in range(n - b, n):
            out *= r(k)
    return out


def trace_h0(r, n, D):
    """sum_{|lambda|=d} of the Frobenius eigenvalue for d = 0..D."""
    return [sum((frobenius_eigenvalue(r, lam, n) for lam in partitions_of(d)), F(0)) for d in range(D + 1)]


def q_rational_value(a, b, q, k):
    """prod_i (1 - q^(a_i + k)) / prod_j (1 - q^(b_j + k)) by Fraction powers."""
    den = F(1)
    for bj in b:
        f = 1 - q ** (bj + k)
        if f == 0:
            raise ContentPoleError(f"q-pole at k={k} (b={bj})")
        den *= f
    num = F(1)
    for ai in a:
        num *= 1 - q ** (ai + k)
    return num / den


def pfs_one_var_coeffs(a, b, D):
    cs = [F(1)]
    for m in range(D):
        num = F(1)
        for ai in a:
            num *= ai + m
        den = F(m + 1)
        for bj in b:
            den *= bj + m
        if den == 0:
            raise ContentPoleError(f"pFs parameter pole at term {m + 1}")
        cs.append(cs[-1] * num / den)
    return cs


def qphi_one_var_coeffs(a, b, q, D):
    cs = [F(1)]
    for m in range(D):
        num = F(1)
        for ai in a:
            num *= 1 - q ** (ai + m)
        den = 1 - q ** (m + 1)
        for bj in b:
            den *= 1 - q ** (bj + m)
        if den == 0:
            raise ContentPoleError(f"qPhi parameter pole at term {m + 1}")
        cs.append(cs[-1] * num / den)
    return cs


def ode_residual(a, b, D, cs=None):
    """The residual of the pFs operator on cs (default: the reference
    coefficients)."""
    cs = pfs_one_var_coeffs(a, b, D) if cs is None else cs
    res = []
    for m in range(D):
        first = cs[m] * m
        for bk in b:
            first *= m + bk - 1
        second = cs[m - 1] if m >= 1 else F(0)
        for aj in a:
            second *= m - 1 + aj
        res.append(first - second)
    return res


def q_difference_residual(a, b, q, D, cs=None):
    """The residual of the q-difference operator on cs (default: the
    reference coefficients)."""
    cs = qphi_one_var_coeffs(a, b, q, D) if cs is None else cs
    return [cs[m + 1] * (1 - q ** (m + 1)) - cs[m] * q_rational_value(a, b, q, m) for m in range(D)]
