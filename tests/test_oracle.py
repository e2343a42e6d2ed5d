import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taukit.partitions import Partition, enumerate_partitions, partitions_of
from taukit.symfun import Poly1
from taukit.weights import LinearContent, RationalContent
from taukit.oracle import (
    BLOCK,
    DivergenceError,
    MCEstimate,
    RngStream,
    _blocked_mean,
    _halfline_pfs,
    _quad,
    _real_imaginary,
    _within,
    halfline_exact,
    mc_schur_ginibre_identity,
    mc_schur_unitary_identity,
    moment_circle,
    moment_real_imaginary_limit,
    moment_unit_interval,
    quartic_wick_order,
    sample_haar_unitary,
    sample_ginibre_batch,
    sample_haar_unitary_batch,
    schur_of_matrix,
    wick_gaussian_moment,
)

from fraction_reference import mu_annihilation_residual, mu_series_coeffs
from schur_reference import bialternant

A2 = [F(1), F(1, 2)]
B2 = [F(1), F(1, 3)]


def moment_real_imaginary(n, m, eps):
    """The regularized real/imaginary-axis moment I_eps, or DivergenceError
    when its quadrature misses its accuracy target."""
    return _within(*_real_imaginary(n, m, eps))


def moment_halfline_pfs(n, a, b):
    """int_0^infty x^n pFs(a; b; -x) dx, or DivergenceError when its
    quadrature misses its accuracy target."""
    return _within(*_halfline_pfs(n, a, b))


def test_rng_determinism():
    a = RngStream(123, 5).gen.standard_normal(8)
    b = RngStream(123, 5).gen.standard_normal(8)
    c = RngStream(123, 6).gen.standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_unitarity():
    U = sample_haar_unitary(3, RngStream(0).gen)
    assert np.linalg.norm(U @ U.conj().T - np.eye(3)) < 1e-12
    batch = sample_haar_unitary_batch(2, 4, RngStream(0).gen)
    for U in batch:
        assert np.linalg.norm(U @ U.conj().T - np.eye(2)) < 1e-12


def test_schur_of_matrix_vs_exact():
    M = np.diag([1.0 + 0j, 0.5])[None, :, :]
    for lam in enumerate_partitions(4):
        got = schur_of_matrix(lam, M)[0]
        expect = float(bialternant(lam, [F(1), F(1, 2)]))
        assert abs(got - expect) < 1e-12, lam


def _schur_of_matrix_by_np_trace(lam, mats):
    """schur_of_matrix as written with np.trace: the bitwise reference."""
    d = lam.weight
    if d == 0:
        return np.ones(mats.shape[0], dtype=complex)
    batch = mats.shape[0]
    powers = [None, mats]
    for _ in range(2, d + 1):
        powers.append(powers[-1] @ mats)
    p = [None] + [np.trace(powers[m], axis1=-2, axis2=-1) for m in range(1, d + 1)]
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
            if k < 0:
                mat[:, i - 1, j - 1] = 0.0
            else:
                mat[:, i - 1, j - 1] = h[k] if k <= d else 0.0
    return np.linalg.det(mat)


def _random_stack(rng, count, n):
    scale = 10.0 ** rng.uniform(-3, 3, (count, n, n))
    return (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) * scale


SMALL_PARTITIONS = [lam for d in range(4) for lam in partitions_of(d)]


def test_schur_of_matrix_bitwise_equals_np_trace_formula():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        mats = _random_stack(rng, 400, n)
        for lam in SMALL_PARTITIONS:
            if lam.length <= n:
                got = schur_of_matrix(lam, mats)
                assert got.tobytes() == _schur_of_matrix_by_np_trace(lam, mats).tobytes(), (n, lam)
    # larger n runs the other branches of numpy's pairwise summation order
    for n in (4, 5, 8, 9, 13, 65, 70):
        mats = _random_stack(rng, 20, n)
        for lam in (Partition([1]), Partition([2]), Partition([1, 1])):
            got = schur_of_matrix(lam, mats)
            assert got.tobytes() == _schur_of_matrix_by_np_trace(lam, mats).tobytes(), (n, lam)


@pytest.mark.parametrize("kind", ["unitary", "ginibre"])
def test_mc_body_bitwise_equals_diagonal_matmul_formula(kind):
    sample = {"unitary": sample_haar_unitary_batch, "ginibre": sample_ginibre_batch}[kind]
    rnd = random.Random(kind)
    for trial in range(9):
        n = 1 + trial % 3
        fits = [lam for lam in SMALL_PARTITIONS if lam.length <= n]
        lam = rnd.choice(fits)
        mu = rnd.choice(fits + [None])
        A = [F(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(n)]
        B = [F(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(n)]
        Ad = np.diag(np.array([float(a) for a in A], dtype=complex))
        Bd = np.diag(np.array([float(b) for b in B], dtype=complex))

        def values(count, gen):
            X = sample(n, count, gen)
            Xh = np.conjugate(np.transpose(X, (0, 2, 1)))
            if mu is None:
                return np.real(_schur_of_matrix_by_np_trace(lam, Ad @ X @ Bd @ Xh))
            return np.real(_schur_of_matrix_by_np_trace(lam, Ad @ X) * _schur_of_matrix_by_np_trace(mu, Xh @ Bd))

        rep = MC_FUNCTIONS[kind](lam, A, B, n, 1500, seed=trial, mu=mu)
        ref = _blocked_mean(values, 1500, trial)
        got = (float.hex(rep["estimate"]), float.hex(rep["std_error"]))
        assert got == (float.hex(ref.mean), float.hex(ref.std_error)), (n, lam, mu, A, B)


def test_mc_unitary_identities():
    lams = [l for l in enumerate_partitions(3) if l.length <= 2]
    fails = 0
    for lam in lams:
        rep = mc_schur_unitary_identity(lam, A2, B2, 2, 20000, seed=11)
        fails += 0 if rep["pass"] else 1
    # one pair identity and one orthogonality zero
    rep = mc_schur_unitary_identity(Partition([2]), A2, B2, 2, 20000, seed=13, mu=Partition([2]))
    fails += 0 if rep["pass"] else 1
    rep = mc_schur_unitary_identity(Partition([2]), A2, B2, 2, 20000, seed=14, mu=Partition([1, 1]))
    fails += 0 if rep["pass"] else 1
    assert fails <= 1


def test_mc_ginibre_identities():
    lams = [l for l in enumerate_partitions(3) if l.length <= 2]
    fails = 0
    for lam in lams:
        rep = mc_schur_ginibre_identity(lam, A2, B2, 2, 20000, seed=21)
        fails += 0 if rep["pass"] else 1
    rep = mc_schur_ginibre_identity(Partition([2, 1]), A2, B2, 2, 20000, seed=22, mu=Partition([2, 1]))
    fails += 0 if rep["pass"] else 1
    assert fails <= 1


def test_mc_determinism_byte_exact():
    r1 = mc_schur_unitary_identity(Partition([2]), A2, B2, 2, 3 * BLOCK, seed=99)
    r2 = mc_schur_unitary_identity(Partition([2]), A2, B2, 2, 3 * BLOCK, seed=99)
    assert r1 == r2


def test_mc_rejects_long_partition():
    with pytest.raises(ValueError):
        mc_schur_unitary_identity(Partition([1, 1, 1]), A2, B2, 2, 100)


def test_wick_small_moments():
    assert wick_gaussian_moment([2]) == Poly1([0, 0, 1])        # N^2 -> N/g
    assert wick_gaussian_moment([4]) == Poly1([0, 1, 0, 2])     # 2N^3 + N
    with pytest.raises(ValueError):
        wick_gaussian_moment([3])
    assert wick_gaussian_moment([]) == Poly1([1])
    # E[(Tr M^2)^2] = N^4 + 2 N^2 (disconnected + two connected)
    assert wick_gaussian_moment([2, 2]) == Poly1([0, 0, 2, 0, 1])
    # Tr M^0 = N
    assert wick_gaussian_moment([0]) == Poly1([0, 1])
    assert wick_gaussian_moment([0, 2]) == Poly1([0, 0, 0, 1])
    assert wick_gaussian_moment([4, 0, 0]) == Poly1([0, 0, 0, 1, 0, 2])
    for bad in ([-2, 4], [2, 1.5], ["a"]):
        with pytest.raises(ValueError, match="powers"):
            wick_gaussian_moment(bad)


def _all_pairings(items: list):
    """All perfect pairings of the given positions."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for idx, other in enumerate(rest):
        head = (first, other)
        for tail in _all_pairings(rest[:idx] + rest[idx + 1:]):
            yield [head] + tail


def _wick_by_pairings(trace_powers) -> Poly1:
    """Reference: sum over all (T-1)!! Wick pairings of the positive powers,
    each contributing N^(number of index loops), loops counted by union-find
    over the row-index variables after contraction."""
    T = sum(trace_powers)
    if T == 0:
        return Poly1([1])
    succ = {}
    base = 0
    for k in trace_powers:
        for p in range(base, base + k):
            succ[p] = base + (p - base + 1) % k
        base += k
    total = Poly1([])
    for pairing in _all_pairings(list(range(T))):
        parent = list(range(T))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        # pairing (p, q): row(p) ~ row(succ(q)), row(q) ~ row(succ(p))
        for p, q in pairing:
            union(p, succ[q])
            union(q, succ[p])
        loops = sum(1 for x in range(T) if find(x) == x)
        total = total + Poly1([0] * loops + [1])
    return total


# every multiset of positive trace powers with at most 12 half-edges
WICK_MULTISETS = [list(lam.parts) for T in range(0, 13, 2) for lam in partitions_of(T)]


def test_wick_recursion_equals_pairings_up_to_ten_half_edges():
    for powers in WICK_MULTISETS:
        if sum(powers) <= 10:
            assert wick_gaussian_moment(powers) == _wick_by_pairings(powers), powers


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(WICK_MULTISETS), st.randoms(use_true_random=False))
def test_wick_recursion_equals_pairings(powers, rnd):
    # the recursion does not depend on the order of the traces
    powers = rnd.sample(powers, len(powers))
    assert wick_gaussian_moment(powers) == _wick_by_pairings(powers)


def _harer_zagier(k: int) -> list:
    """E[Tr M^2k] in N: (k+1) T_k = (4k-2) N T_{k-1} + (k-1)(2k-1)(2k-3) T_{k-2}."""
    polys = [[0, 1], [0, 0, 1]]
    for m in range(2, k + 1):
        a = [0] + [(4 * m - 2) * c for c in polys[m - 1]]
        b = [(m - 1) * (2 * m - 1) * (2 * m - 3) * c for c in polys[m - 2]]
        b += [0] * (len(a) - len(b))
        polys.append([(x + y) // (m + 1) for x, y in zip(a, b)])
    return polys[k]


def test_wick_single_trace_harer_zagier():
    for k in range(11):
        assert wick_gaussian_moment([2 * k]) == Poly1(_harer_zagier(k)), k


def test_wick_at_one_counts_pairings():
    # at N = 1 every pairing contributes 1: E[(Tr M^4)^5] = 19!!
    assert sum(wick_gaussian_moment([4] * 5).coeffs) == math.prod(range(1, 20, 2))


def test_wick_order_two():
    assert wick_gaussian_moment([4, 4]) == Poly1([0, 0, 61, 0, 40, 0, 4])
    q2 = quartic_wick_order(2)
    assert q2 == Poly1([F(61, 32), 0, F(5, 4), 0, F(1, 8)])


def test_moment_real_imaginary():
    for n in range(5):
        v = moment_real_imaginary_limit(n, n)
        target = -2j * math.pi * math.factorial(n)
        assert abs(v - target) / abs(target) < 1e-6, n
    for (n, m) in [(0, 2), (1, 3)]:
        v = moment_real_imaginary_limit(n, m)
        assert abs(v) < 1e-6 * 2 * math.pi * math.factorial(max(n, m))


def test_moment_real_imaginary_of_odd_total_degree_is_zero():
    # x^n H_m(x) is odd when n + m is: its Gaussian integral vanishes exactly
    for n, m in [(0, 1), (1, 2), (4, 1)]:
        assert moment_real_imaginary_limit(n, m) == 0
    assert moment_real_imaginary(3, 0, 1e-3) == 0


def test_moment_circle():
    for n in range(4):
        v = moment_circle(n, n)
        target = -4 * math.pi**2 / math.factorial(n)
        assert abs(v - target) / abs(target) < 1e-10
    assert abs(moment_circle(1, 2)) < 1e-10


def test_quadrature_step_halving_convergence():
    # halving the step changes reported moments by < 1e-7 relative
    for n in range(3):
        a = moment_circle(n, n, grid=128)
        b = moment_circle(n, n, grid=256)
        assert abs(a - b) / abs(b) < 1e-7
    # halving the regulator: extrapolated values agree tightly too
    v1 = moment_real_imaginary(1, 1, 1e-4)
    v2 = moment_real_imaginary(1, 1, 5e-5)
    e1 = 2 * v2 - v1
    e2 = 2 * moment_real_imaginary(1, 1, 2.5e-5) - v2
    assert abs(e1 - e2) / abs(e2) < 1e-7


def test_moment_unit_interval():
    a = F(-1)
    for n in range(5):
        v = moment_unit_interval(n, a)
        target = float(F(1, 2) * math.factorial(n) / _poch(F(3), n))
        assert abs(v - target) / abs(target) < 1e-6


def _poch(a, n):
    from taukit.weights import pochhammer

    return pochhammer(a, n)


def test_moment_halfline():
    # 1F1(4; 3/2; -x) decays like x^-4, so moments n <= 2 converge absolutely
    a, b = [F(4)], [F(3, 2)]
    for n in range(3):
        v = moment_halfline_pfs(n, a, b)
        target = float(halfline_exact(n, a, b))
        assert abs(v - target) / abs(target) < 1e-6


@dataclass
class MomentMeasure:
    """The one-variable measure series mu_r(x) = sum_m x^m / (r(-1)...r(-m)),
    term ratio 1/r(-m); ``closed_form`` optionally tags a known resummation
    ("exp", "pfs", ...)."""

    r: object
    coeffs: list
    closed_form: Optional[str] = None

    @classmethod
    def from_content(cls, r, D: int, closed_form: Optional[str] = None):
        return cls(r, mu_series_coeffs(r, D), closed_form)

    def annihilation_residual(self) -> list:
        return mu_annihilation_residual(self.coeffs, self.r)


def test_mu_series_and_annihilation():
    neg_lin = LinearContent().scaled(-1)  # r(k) = -k: r(-m) = m, mu = e^x
    mm = MomentMeasure.from_content(neg_lin, 12, closed_form="exp")
    assert mm.coeffs[3] == F(1, 6)
    assert all(v == 0 for v in mm.annihilation_residual())
    # a 1F2-type measure from a rational r with r(0) = 0
    r = RationalContent(a=[0], b=[F(-5, 2)])
    cs = mu_series_coeffs(r, 12)
    assert all(v == 0 for v in mu_annihilation_residual(cs, r))
    # and the degree-0 term always balances
    assert mu_annihilation_residual([F(1), F(2)], neg_lin)[0] == 1 - 2 * 1


def test_mc_estimate_helpers():
    est = MCEstimate(mean=1.0, std_error=0.1, samples=100)
    assert est.within_sigma(1.2, 3.0)
    assert not est.within_sigma(1.5, 3.0)
    assert est.z_score(0.9) == pytest.approx(1.0)
    # a constant estimate that misses by more than rounding still fails
    const = MCEstimate(mean=1 / 6 + 1e-6, std_error=0.0, samples=5000)
    assert not const.within_sigma(1 / 6)
    assert const.z_score(1 / 6) == math.inf


MC_FUNCTIONS = {"unitary": mc_schur_unitary_identity, "ginibre": mc_schur_ginibre_identity}


@pytest.mark.parametrize("fn", MC_FUNCTIONS.values(), ids=MC_FUNCTIONS)
def test_mc_rejects_too_few_samples(fn):
    for samples in (0, 1):
        with pytest.raises(ValueError, match="samples"):
            fn(Partition([1]), A2, B2, 2, samples)


@pytest.mark.parametrize("fn", MC_FUNCTIONS.values(), ids=MC_FUNCTIONS)
def test_mc_rejects_diagonal_of_wrong_length(fn):
    with pytest.raises(ValueError, match="A and B"):
        fn(Partition([1]), A2 + [F(1, 4)], B2, 2, 100)
    with pytest.raises(ValueError, match="A and B"):
        fn(Partition([1]), A2, B2[:1], 2, 100)


@pytest.mark.parametrize("fn", MC_FUNCTIONS.values(), ids=MC_FUNCTIONS)
def test_mc_rejects_long_mu(fn):
    with pytest.raises(ValueError, match="mu"):
        fn(Partition([1]), A2, B2, 2, 100, mu=Partition([1, 1, 1]))


def test_mc_zero_variance_verdict():
    # s_11(A U) s_11(U^-1 B) = det A det B at n = 2: every sample is the same
    # number up to rounding, so std_error is 0 and only rounding separates
    # the estimate from 1/6
    for seed in (7, 13, 23, 24):
        rep = mc_schur_unitary_identity(Partition([1, 1]), A2, B2, 2, 5000, seed=seed, mu=Partition([1, 1]))
        assert rep["std_error"] == 0.0
        assert rep["estimate"] != rep["exact_float"]
        assert rep["pass"] and rep["z"] == 0.0


# float.hex of (estimate, std_error) for 4321 samples at seed 5: pins the
# determinism contract (SeedSequence(seed, block), blocks merged in order)
MC_GOLDEN = [
    ("unitary", [1], None, 2, "0x1.00f19400cf89bp+0", "0x1.80c1b56637941p-10"),
    ("unitary", [1], None, 3, "0x1.c98c9a1342c1bp-1", "0x1.cf7f15cd92050p-10"),
    ("unitary", [2], None, 2, "0x1.b336d5ebb64efp-1", "0x1.8196257e30401p-9"),
    ("unitary", [2], None, 3, "0x1.463cd1099fe59p-1", "0x1.88018b57b12c4p-9"),
    ("unitary", [1, 1], None, 2, "0x1.5555555555554p-3", "0x1.f27dd6497b553p-36"),
    ("unitary", [1, 1], None, 3, "0x1.6645813be1550p-3", "0x1.1e7357206d0a9p-12"),
    ("unitary", [1], [1], 2, "0x1.2e300fabdbc82p-1", "0x1.db87e083b2733p-8"),
    ("unitary", [1], [1], 3, "0x1.9ce277e9083d4p-2", "0x1.5dc2cff191f43p-8"),
    ("unitary", [2], [2], 2, "0x1.9dc3a704cb667p-2", "0x1.aba17e3b70e75p-8"),
    ("unitary", [2], [2], 3, "0x1.ae97ee2c9ff1ap-3", "0x1.0210c7c2a0cbbp-8"),
    ("unitary", [2], [1, 1], 2, "0x1.6151fd850096dp-11", "0x1.86bd344daf855p-9"),
    ("unitary", [2], [1, 1], 3, "-0x1.f9d6aed2eae12p-12", "0x1.b518c42faf4e8p-10"),
    ("ginibre", [1], None, 2, "0x1.01033b5c1a151p+1", "0x1.239f530cfb974p-6"),
    ("ginibre", [1], None, 3, "0x1.55edf038ac338p+1", "0x1.3071cf0528085p-6"),
    ("ginibre", [2], None, 2, "0x1.457176ee8c614p+2", "0x1.b01a88386b415p-4"),
    ("ginibre", [2], None, 3, "0x1.e43d422fa301bp+2", "0x1.fdbff60c7c7bdp-4"),
    ("ginibre", [1, 1], None, 2, "0x1.432d2320f4af9p-2", "0x1.a865be6536f4fp-8"),
    ("ginibre", [1, 1], None, 3, "0x1.0fcbddcc56f61p+0", "0x1.ba9fd86b38602p-7"),
    ("ginibre", [1], [1], 2, "0x1.307efb6ffb152p+0", "0x1.226d6a527c3acp-6"),
    ("ginibre", [1], [1], 3, "0x1.35f6bcdb2d53fp+0", "0x1.3412eaf4e8e7ap-6"),
    ("ginibre", [2], [2], 2, "0x1.34e9874637cbap+1", "0x1.2f87d622edcdfp-4"),
    ("ginibre", [2], [2], 3, "0x1.426ae90ac60c8p+1", "0x1.4c4e448da2a2bp-4"),
    ("ginibre", [2], [1, 1], 2, "0x1.d84659faa1e26p-7", "0x1.9cd32f1ca3465p-7"),
    ("ginibre", [2], [1, 1], 3, "0x1.64806139c76abp-11", "0x1.1edfd680d5174p-6"),
]


def test_mc_golden_floats():
    diagonals = {2: (A2, B2), 3: (A2 + [F(1, 4)], B2 + [F(1, 5)])}
    for kind, lam, mu, n, estimate, std_error in MC_GOLDEN:
        A, B = diagonals[n]
        rep = MC_FUNCTIONS[kind](
            Partition(lam), A, B, n, 4321, seed=5, mu=None if mu is None else Partition(mu)
        )
        assert (float.hex(rep["estimate"]), float.hex(rep["std_error"])) == (estimate, std_error), (kind, lam, mu, n)


def test_import_leaves_scipy_unloaded():
    # importing taukit does not load scipy, which it no longer depends on
    import taukit

    env = {**os.environ, "PYTHONPATH": str(Path(taukit.__file__).resolve().parent.parent)}
    code = "import sys, taukit; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_moment_oracles_run_without_scipy():
    # the four contours' quadratures run on numpy and mpmath alone
    import taukit

    env = {**os.environ, "PYTHONPATH": str(Path(taukit.__file__).resolve().parent.parent)}
    code = (
        "import sys; from fractions import Fraction as F; from taukit import oracle as o; "
        "o.moment_real_imaginary_limit(1, 1); o.moment_circle(1, 1); o.moment_unit_interval(1, F(-1, 2)); "
        "o._halfline_pfs(1, [F(4)], [F(3, 2)]); print('scipy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_moment_past_its_accuracy_range_raises_divergence():
    # 1F2(-x) oscillates with a growing amplitude: inside the Mellin strip of
    # its algebraic part, yet the quadrature cannot converge
    with pytest.raises(DivergenceError, match="error estimate"):
        moment_halfline_pfs(1, [F(4)], [F(3, 2), F(5, 2)])


def test_quad_reports_a_failed_quadrature_of_a_large_integral():
    # int_0^1 10^30 sin(2000 x) dx = 6.8e26: tanh-sinh misses it by 1.1e28,
    # while mpmath's own estimate, absolute and capped at 1, reads 1.0
    import mpmath

    val, err = _quad(lambda x: 10**30 * mpmath.sin(2000 * x), [0, 1])
    exact = 10**30 * (1 - math.cos(2000)) / 2000
    assert err >= abs(val - exact) > 1e27
    with pytest.raises(DivergenceError):
        _within(float(val), err)
    # a large integral that converges keeps an estimate far below its size
    val, err = _quad(lambda x: 10**30 * mpmath.exp(-x), [0, 1])
    assert _within(float(val), err) == pytest.approx(10**30 * (1 - math.exp(-1)), rel=1e-15)
