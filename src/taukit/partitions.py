"""Integer partitions: diagrams, conjugation, Frobenius coordinates, hooks, contents.

Partitions index every series in this package.  They are immutable and
hashable so they can be used as dictionary keys in series tables.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterator, Optional


@total_ordering
class Partition:
    """A weakly decreasing sequence of positive integers (possibly empty)."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if p != 0)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "Partition":
        """The partition of a tuple of positive ints already weakly
        decreasing, as the walks of ``_parts_of_weight`` yield them; no checks."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "parts", parts)
        return lam

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    # -- basic views ---------------------------------------------------

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """Row length lambda_i with 1-based i; zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def cells(self) -> Iterator[tuple[int, int]]:
        """Yield cells (i, j), 1-based, row by row."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def contents(self) -> list[int]:
        """j - i over all cells."""
        return [j - i for (i, j) in self.cells()]

    def hooks(self) -> list[int]:
        """Hook lengths lambda_i + lambda'_j - i - j + 1 over all cells."""
        conj = self.conjugate()
        return [
            self.part(i) + conj.part(j) - i - j + 1 for (i, j) in self.cells()
        ]

    def frobenius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(alphas, betas) with alpha_i = lambda_i - i, beta_i = lambda'_i - i."""
        conj = self.conjugate()
        alphas, betas = [], []
        i = 1
        while self.part(i) >= i:
            alphas.append(self.part(i) - i)
            betas.append(conj.part(i) - i)
            i += 1
        return tuple(alphas), tuple(betas)

    def n_stat(self) -> int:
        """The statistic sum_i (i-1) * lambda_i."""
        return sum((i - 1) * p for i, p in enumerate(self.parts, start=1))

    def multiplicities(self) -> dict[int, int]:
        """How many parts equal each value."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def contains(self, inner: "Partition") -> bool:
        """Cell-wise containment: inner_i <= self_i for all rows."""
        return all(inner.part(i) <= self.part(i) for i in range(1, inner.length + 1))

    # -- dunder plumbing -----------------------------------------------

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        # graded reverse-lexicographic: the canonical series order
        if self.weight != other.weight:
            return self.weight < other.weight
        return self.parts > other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return "[" + ",".join(map(str, self.parts)) + "]"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the textual syntax "[3,3,1]" (also accepts "3,3,1" and "[]")."""
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        body = body.strip()
        if not body:
            return cls()
        if not re.fullmatch(r"\d+(\s*,\s*\d+)*", body):
            raise ValueError(f"bad partition syntax: {text!r}")
        return cls(int(tok) for tok in body.split(","))


def from_frobenius(alphas, betas) -> Partition:
    """Rebuild the partition from Frobenius coordinates (alpha | beta)."""
    alphas, betas = list(alphas), list(betas)
    if len(alphas) != len(betas):
        raise ValueError("alpha and beta lists must have equal length")
    for seq in (alphas, betas):
        for a, b in zip(seq, seq[1:]):
            if a <= b:
                raise ValueError(f"Frobenius coordinates not strictly decreasing: {seq}")
        if seq and seq[-1] < 0:
            raise ValueError(f"negative Frobenius coordinate: {seq}")
    r = len(alphas)
    if r == 0:
        return Partition()
    nrows = betas[0] + 1
    parts = []
    for i in range(1, nrows + 1):
        if i <= r:
            parts.append(alphas[i - 1] + i)
        else:
            # below the diagonal block: hook k fills column k down to row k + beta_k
            parts.append(sum(1 for k, b in enumerate(betas, start=1) if k + b >= i))
    return Partition(parts)


class SkewShape:
    """A pair of nested partitions outer/inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition):
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, *a):
        raise AttributeError("SkewShape is immutable")

    def cells(self) -> Iterator[tuple[int, int]]:
        for i in range(1, self.outer.length + 1):
            for j in range(self.inner.part(i) + 1, self.outer.part(i) + 1):
                yield (i, j)

    def weight(self) -> int:
        return self.outer.weight - self.inner.weight

    def __eq__(self, other):
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape({self.outer}/{self.inner})"


def _parts_of_weight(n: int, max_part: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Partitions of exactly n, first part <= max_part, length <= max_len,
    descending lexicographic order.  A first part below n / max_len leaves
    too much for the other rows, so it is not tried."""
    if n == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(n, max_part), (n - 1) // max_len if max_len > 0 else 0, -1):
        for rest in _parts_of_weight(n - first, first, max_len - 1):
            yield (first,) + rest


def enumerate_partitions(
    weight_max: int,
    length_max: Optional[int] = None,
    col_max: Optional[int] = None,
) -> Iterator[Partition]:
    """All partitions with |lambda| <= weight_max (and optional length / first
    part bounds), graded by weight then reverse-lexicographic.

    The order is the canonical one used for every series table, so outputs
    are byte-stable across runs.
    """
    if weight_max < 0:
        raise ValueError("weight_max must be >= 0")
    for n in range(weight_max + 1):
        lmax = length_max if length_max is not None else n
        cmax = col_max if col_max is not None else n
        for parts in _parts_of_weight(n, min(n, cmax), min(n, lmax)):
            yield Partition(parts)


def partitions_of(n: int, length_max: Optional[int] = None) -> Iterator[Partition]:
    """Partitions of exactly n in reverse-lexicographic order."""
    lmax = length_max if length_max is not None else n
    for parts in _parts_of_weight(n, n, min(n, lmax)):
        yield Partition(parts)
