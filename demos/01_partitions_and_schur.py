"""Partitions, Schur polynomials and the Cauchy identity.

Walks through the combinatorial layer: diagrams, Frobenius coordinates,
hooks and contents, then Schur functions in the higher-times coordinates
t_m = p_m / m and the exact Cauchy identity check.
"""

from fractions import Fraction as F
from itertools import combinations, permutations
from math import prod

from taukit import (
    Partition,
    PolyRing,
    Times,
    cauchy_truncated,
    enumerate_partitions,
    schur,
    schur_from_eigenvalues,
)

lam = Partition([3, 3, 1])
print("partition       ", lam)
print("weight / length ", lam.weight, "/", lam.length)
print("conjugate       ", lam.conjugate())
print("Frobenius       ", lam.frobenius())
print("contents        ", sorted(lam.contents()))
print("hooks           ", sorted(lam.hooks()))
print()

print("partitions of weight <= 4, canonical order:")
print(" ", [str(p) for p in enumerate_partitions(4)])
print()

# Schur functions as polynomials in t_1, t_2, ...
ring = PolyRing.times_ring(4)
t = Times.symbolic(ring, 4)
print("s_(2,1)(t) =", schur(Partition([2, 1]), t))
print()

# two routes to the same number: the library's Schur function at the Miwa
# times m t_m = sum_i x_i^m vs the bialternant ratio
# det(x_i^(lambda_j + n - j)) / det(x_i^(n - j)) at explicit eigenvalues
def alternant(xs, exponents):
    """det(x_i^(e_j)), summed over the permutations of the columns."""
    return sum(
        (-1) ** sum(a > b for a, b in combinations(perm, 2)) * prod(x ** exponents[j] for x, j in zip(xs, perm))
        for perm in permutations(range(len(xs)))
    )


xs = [F(1, 2), F(2), F(-1, 3)]
delta = [len(xs) - j for j in range(1, len(xs) + 1)]
for shape in [(2,), (2, 1), (3, 1)]:
    lam = Partition(shape)
    a = schur_from_eigenvalues(lam, xs)
    b = alternant(xs, [lam.part(j) + d for j, d in enumerate(delta, start=1)]) / alternant(xs, delta)
    print(f"s_{lam}({xs}) = {a}   (bialternant: {b})")
    assert a == b
print()

# the Cauchy identity, coefficient-exactly to bidegree 6
lhs, rhs = cauchy_truncated(6)
print("Cauchy identity to bidegree 6:", "exact match" if lhs == rhs else "MISMATCH")
