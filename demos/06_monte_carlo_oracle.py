"""The independent oracles: Monte Carlo, Wick moments, quadrature.

Nothing here knows about the series machinery.  Haar-unitary and complex
Gaussian averages of Schur functions are estimated by Monte Carlo and held
against the exact closed forms at 3 sigma; Gaussian trace moments come
exactly from the loop-equation recursion; the moment measures are
integrated numerically on their contours.
"""

import math
from fractions import Fraction as F

from taukit.partitions import Partition
from taukit.oracle import (
    mc_schur_ginibre_identity,
    mc_schur_unitary_identity,
    moment_circle,
    moment_real_imaginary_limit,
    moment_unit_interval,
    wick_gaussian_moment,
)

A = [F(1), F(1, 2)]
B = [F(1), F(1, 3)]

print("Haar-unitary average of s_lambda(A U B U^-1), 50k samples:")
for shape in [(1,), (2,), (2, 1)]:
    rep = mc_schur_unitary_identity(Partition(shape), A, B, 2, 50000, seed=1)
    print(f"  lambda={rep['lambda']:6s} estimate={rep['estimate']:+.5f} "
          f"exact={rep['exact_float']:+.5f} z={rep['z']:+.2f} pass={rep['pass']}")

print("complex Gaussian average of s_lambda(A Z B Z^+), 50k samples:")
for shape in [(1,), (1, 1)]:
    rep = mc_schur_ginibre_identity(Partition(shape), A, B, 2, 50000, seed=2)
    print(f"  lambda={rep['lambda']:6s} estimate={rep['estimate']:+.5f} "
          f"exact={rep['exact_float']:+.5f} z={rep['z']:+.2f} pass={rep['pass']}")
print()

print("Wick moments (exact polynomials in N):")
for powers in ([2], [4], [4, 4]):
    print(f"  E[prod Tr M^{powers}] * (Ng)^{sum(powers)//2} =",
          wick_gaussian_moment(powers))
print()

print("moment measure on the real x imaginary contour (target -2 pi i n!):")
for n in range(3):
    v = moment_real_imaginary_limit(n, n)
    print(f"  n=m={n}: {v:.6f}  target {-2j * math.pi * math.factorial(n):.6f}")
print("off-diagonal n=0, m=2:", f"{abs(moment_real_imaginary_limit(0, 2)):.2e}")
print()

print("circle contour (target -4 pi^2 / n!):")
for n in range(3):
    print(f"  n=m={n}: {moment_circle(n, n).real:+.6f}")

print("[0,1] contour, 1F0(-1; x) measure (target n!/(2) / (3)_n):")
for n in range(3):
    print(f"  n={n}: {moment_unit_interval(n, F(-1)):.8f}")
