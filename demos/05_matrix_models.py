"""Matrix-model perturbation series as tau-series specializations.

The two-matrix model carries the weight (n)_lambda; freezing its couplings
to (t4, t2*) gives the quartic one-matrix model, whose order coefficients
come out as exact polynomials in the matrix size N and are cross-checked
against the independent Wick-moment oracle.
"""

from fractions import Fraction as F

from taukit import Partition, RationalContent
from taukit.models import (
    gross_witten_series,
    hciz,
    loop_scalar_product,
    normal_matrix_map,
    quartic_series,
    two_matrix_series,
    two_matrix_vs_closed,
    unitary_model_series,
)
from taukit.oracle import quartic_wick_order
from taukit.symfun import Times

print("two-matrix model weights (n = 3):")
ts = two_matrix_series(3, 3)
for lam, c in ts.items():
    print(f"  {str(lam):8s} (3)_lambda = {c}")
print("n = 1 closed form to bidegree 10:",
      "exact" if two_matrix_vs_closed(10) else "MISMATCH")
print()

qs = quartic_series(2)
print("quartic model, coefficients of (g4/g^2)^k as polynomials in N:")
for k in (1, 2):
    wick = quartic_wick_order(k)
    print(f"  order {k}: {qs.coefficient(k)}   wick oracle agrees: {qs.coefficient(k) == wick}")
print()

print("angle-average determinant identity (n=2, deg 6):",
      "exact" if hciz(2, 6).matches() else "MISMATCH")

gw = gross_witten_series(1, [F(1, 2)], 6)
print("one-plaquette series (n=1, scalar):",
      [str(v) for v in gw.one_variable_coeffs()])

um = unitary_model_series(2, 4)
print("unitary model keeps only l(lambda) <= 2:",
      all(lam.length <= 2 for lam in um.coeffs))
print()

nm = normal_matrix_map(Times.exp_point(5), 5)
print("normal-matrix moment map for u = (1,0,0,...):",
      {str(k): str(v) for k, v in sorted(nm['r_table'].items())})
print("loop scalar product of two weights (graded):",
      [str(v) for v in loop_scalar_product(
          [RationalContent(a=[F(1, 2)]), RationalContent(a=[F(1, 3)])], 1, 4)])
