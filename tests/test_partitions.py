from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import taukit.partitions as partitions_mod
from taukit.partitions import (
    Partition,
    enumerate_partitions,
    from_frobenius,
    partitions_of,
)


@st.composite
def partition_strategy(draw, max_weight=12):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return Partition(parts)


def pentagonal_count(n, cache={0: 1}):
    """Euler's pentagonal-number recurrence for p(n): the independent oracle."""
    if n in cache:
        return cache[n]
    if n < 0:
        return 0
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (pentagonal_count(n - g1) if g1 <= n else 0)
        total += sign * (pentagonal_count(n - g2) if g2 <= n else 0)
        k += 1
    cache[n] = total
    return total


def test_conjugate_examples():
    assert Partition([3, 3, 1]).conjugate() == Partition([3, 2, 2])
    assert Partition([]).conjugate() == Partition([])
    assert Partition([5]).conjugate() == Partition([1, 1, 1, 1, 1])


def test_frobenius_examples():
    # alpha_i = lambda_i - i, beta_i = lambda'_i - i
    assert Partition([3, 3, 1]).frobenius() == ((2, 1), (2, 0))
    assert Partition([]).frobenius() == ((), ())
    assert Partition([4, 2, 2, 1]).frobenius() == ((3, 0), (3, 1))


def test_contents_examples():
    assert sorted(Partition([3, 3, 1]).contents()) == [-2, -1, 0, 0, 1, 1, 2]
    assert Partition([1]).contents() == [0]
    assert sorted(Partition([2, 2]).contents()) == [-1, 0, 0, 1]


def test_hooks_examples():
    assert sorted(Partition([2, 2]).hooks()) == [1, 2, 2, 3]
    assert Partition([1]).hooks() == [1]
    assert sorted(Partition([2, 1]).hooks()) == [1, 1, 3]


def test_enumerate_examples():
    got = [tuple(p) for p in enumerate_partitions(4)]
    assert got == [
        (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    assert [tuple(p) for p in enumerate_partitions(0)] == [()]
    assert [tuple(p) for p in enumerate_partitions(3, length_max=1)] == [(), (1,), (2,), (3,)]


def test_enumerate_counts_match_pentagonal_recurrence():
    for k in range(13):
        count = sum(1 for _ in enumerate_partitions(k))
        assert count == sum(pentagonal_count(d) for d in range(k + 1))


def test_enumerate_col_max():
    got = [tuple(p) for p in enumerate_partitions(4, col_max=2)]
    assert got == [(), (1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_parse_and_str():
    assert Partition.parse("[3,3,1]") == Partition([3, 3, 1])
    assert Partition.parse("[]") == Partition([])
    assert str(Partition([3, 3, 1])) == "[3,3,1]"
    with pytest.raises(ValueError):
        Partition.parse("[3,x]")


def test_invalid_partition_rejected():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


@given(partition_strategy())
@settings(max_examples=120, deadline=None)
def test_conjugate_involution_and_weight(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().weight == lam.weight


@given(partition_strategy())
@settings(max_examples=120, deadline=None)
def test_contents_negate_under_conjugation(lam):
    assert sorted(lam.conjugate().contents()) == sorted(-c for c in lam.contents())


@given(partition_strategy())
@settings(max_examples=120, deadline=None)
def test_hooks_invariant_under_conjugation(lam):
    assert sorted(lam.conjugate().hooks()) == sorted(lam.hooks())


@given(partition_strategy())
@settings(max_examples=120, deadline=None)
def test_frobenius_roundtrip(lam):
    al, be = lam.frobenius()
    assert all(a > b for a, b in zip(al, al[1:]))
    assert all(a > b for a, b in zip(be, be[1:]))
    assert from_frobenius(al, be) == lam


def test_order_is_graded_revlex():
    ps = list(enumerate_partitions(6))
    assert ps == sorted(ps)


def table_walks():
    """What the walks that read the partition table give: enumerations,
    numeric and formal tau series (one with an eigenvalue length cap), the
    Fock trace and the loop scalar product."""
    from taukit.fock import trace_h0
    from taukit.models import loop_scalar_product
    from taukit.tau import Eigs, Formal, QGeo, TauSpec, TInf, WeightA, tau_series
    from taukit.weights import RationalContent

    r = RationalContent([Fraction(1, 2), 3], [Fraction(-5, 2)])
    return (
        [tuple(p) for p in enumerate_partitions(12)],
        [tuple(p) for p in enumerate_partitions(9, length_max=3, col_max=4)],
        [tuple(p) for p in partitions_of(10, length_max=4)],
        tau_series(TauSpec(r, 1, WeightA(Fraction(2, 3)), QGeo(Fraction(1, 3))), 11).coeffs,
        tau_series(TauSpec(r, -1, Eigs([Fraction(1, 2), Fraction(1, 3)]), TInf()), 10).coeffs,
        tau_series(TauSpec(r, 0, Formal(), Formal()), 6).coeffs,
        trace_h0(r, 2, 9),
        loop_scalar_product([r, r.reflected()], 1, 8),
    )


@pytest.mark.parametrize("bound", [0, 40])
def test_partition_table_past_its_bound_gives_the_same_walks(bound):
    # an entry the table cannot keep is built on each request, with the
    # same tuples in the same order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions_mod, "_PARTS_TABLE", {})
        mp.setattr(partitions_mod, "_parts_table_size", 0)
        mp.setattr(partitions_mod, "_PARTS_TABLE_MAX", bound)
        capped = table_walks()
        assert partitions_mod._parts_table_size <= bound
    assert table_walks() == capped
