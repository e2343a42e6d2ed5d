"""Reference routes for the tests: one Fraction per cell, per q-power and per
term, as the library computed them before its integer-pair routes.  They
share no code with the row-window, bead-mask and q-power-table routes of
``taukit``; a pole raises the same ContentPoleError message.  Also the
products over skew cells, hooks and rows (q-hook products and partition
Pochhammer symbols) and the one-variable moment-measure series, which the
tests compare the library against and the library itself does not need."""

from fractions import Fraction as F

from taukit.partitions import partitions_of
from taukit.weights import ContentPoleError, ContentZeroError, content_product, pochhammer

from schur_reference import skew_cells


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
    """sum_{|lambda|=d} of the Frobenius eigenvalue for d = 0..D over the
    lambda whose cells stay inside the first zero of r on each side of the
    charge; the scan goes right, then left, and a pole it meets first raises
    r's own message."""
    bounds = []
    for step in (1, -1):
        k = 1
        while k < D and r(n + step * k) != 0:
            k += 1
        bounds.append(k)
    cols, rows = bounds
    return [
        sum((frobenius_eigenvalue(r, lam, n) for lam in partitions_of(d) if lam.part(1) <= cols and lam.length <= rows), F(0))
        for d in range(D + 1)
    ]


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


def skew_content_product(r, n, shape):
    """prod of r(n + j - i) over the cells of lam/mu, shape = (lam, mu)."""
    out = F(1)
    for i, j in skew_cells(*shape):
        out *= r(n + j - i)
    return out


def hook_product_q(lam, q):
    """H_lambda(q) = prod (1 - q^h) over the hooks."""
    out = F(1)
    for h in lam.hooks():
        f = 1 - q**h
        if f == 0:
            raise ContentZeroError(f"q is a root of unity at hook {h}")
        out *= f
    return out


def q_pochhammer(b, q, n):
    """(b; q)_n = (1-b)(1-bq)...(1-b q^(n-1)); (b; q)_0 = 1."""
    out = F(1)
    for i in range(n):
        out *= 1 - b * q**i
    return out


def pochhammer_partition(a, lam):
    """(a)_lambda = (a)_{l1} (a-1)_{l2} ... (a-k+1)_{lk}, the content product
    of r(k) = k + a at charge 0."""
    out = F(1)
    for i, p in enumerate(lam.parts, start=1):
        out *= pochhammer(a - i + 1, p)
    return out


def q_pochhammer_partition(c, q, lam):
    """(q^c; q)_lambda = prod_i (q^(c-i+1); q)_{l_i}, the cell product
    prod (1 - q^(c + j - i))."""
    out = F(1)
    for i, p in enumerate(lam.parts, start=1):
        out *= q_pochhammer(q ** (c - i + 1), q, p)
    return out


def mu_series_coeffs(r, D):
    """The formal measure series mu_r(x) = 1 + x/r(-1) + x^2/(r(-1)r(-2)) + ...
    (requires r(0) = 0 and r(-m) != 0 on the window)."""
    out = [F(1)]
    for m in range(1, D + 1):
        if (rm := r(-m)) == 0:
            raise ZeroDivisionError(f"r(-{m}) = 0: measure series undefined")
        out.append(out[-1] / rm)
    return out


def mu_annihilation_residual(coeffs, r):
    """Residual of (1 - (1/x) r(-D_x)) mu through degree D-1: the
    coefficient at x^m is c_m - c_{m+1} r(-(m+1))."""
    return [coeffs[m] - coeffs[m + 1] * r(-(m + 1)) for m in range(len(coeffs) - 1)]
