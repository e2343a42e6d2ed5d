import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from taukit.partitions import Partition, enumerate_partitions
from taukit.symfun import Poly1
from taukit.weights import LinearContent, RationalContent
from taukit.oracle import (
    BLOCK,
    DivergenceError,
    MCEstimate,
    MomentMeasure,
    RngStream,
    halfline_exact,
    mc_schur_ginibre_identity,
    mc_schur_unitary_identity,
    moment_circle,
    moment_halfline_pfs,
    moment_real_imaginary_limit,
    moment_unit_interval,
    mu_annihilation_residual,
    mu_series_coeffs,
    quartic_wick_order,
    sample_haar_unitary,
    sample_haar_unitary_batch,
    schur_of_matrix,
    wick_gaussian_moment,
)

A2 = [F(1), F(1, 2)]
B2 = [F(1), F(1, 3)]


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
    from taukit.symfun import schur_from_eigenvalues

    M = np.diag([1.0 + 0j, 0.5])[None, :, :]
    for lam in enumerate_partitions(4):
        got = schur_of_matrix(lam, M)[0]
        expect = float(schur_from_eigenvalues(lam, [F(1), F(1, 2)]))
        assert abs(got - expect) < 1e-12, lam


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
    from taukit.oracle import moment_real_imaginary

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
    # scipy is imported by the quadrature oracles only when they run
    import taukit

    env = {**os.environ, "PYTHONPATH": str(Path(taukit.__file__).resolve().parent.parent)}
    code = "import sys, taukit; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
