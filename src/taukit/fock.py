"""Truncated charged free-fermion Fock space on the partition/Maya basis.

A basis state |lambda, n> is the Maya particle configuration
{ n + lambda_i - i : i >= 1 } on the integer lattice, with every site deep
enough always occupied.  It is held as its charge n and the bead mask of
lambda (symfun's, Macdonald I.1 Ex. 7): bit b stands for the site
b + n - l(lambda), bit 0 is clear and every site below it is occupied.  All
operators used here move one particle at a time, two bit flips on the mask;
the fermionic sign of a move is (-1)^(number of occupied sites strictly
between source and target), which is the wedge-ordering sign for the
annihilate-then-create order and is validated against the classical sign
formulas by the test suite.

Coefficients are duck-typed: exact Fractions for numeric work, PolySeries
for symbolic times.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .partitions import Partition, _parts_of_weight, partitions_of
from .symfun import PolySeries, _key
from .weights import ContentFunction, _pair_sum

# z_mu^-1 coefficients for expressing h_k in power sums are rebuilt on the
# fly; they are tiny for the weights used here.

_set = object.__setattr__


class FockState:
    """Basis vector |lambda, n>, held as (charge, bead mask) plus its weight.

    Equality and hashing read charge and mask; the partition is built from
    the mask only when ``lam`` is asked for, and then kept.
    """

    __slots__ = ("charge", "mask", "weight", "_lam")

    def __init__(self, lam: Partition, charge: int):
        _set(self, "charge", int(charge))
        _set(self, "mask", _key(lam.parts))
        _set(self, "weight", lam.weight)
        _set(self, "_lam", lam)

    @classmethod
    def _of(cls, charge: int, mask: int, weight: int) -> "FockState":
        """The state with a canonical bead mask (bit 0 clear) of that weight."""
        st = cls.__new__(cls)
        _set(st, "charge", charge)
        _set(st, "mask", mask)
        _set(st, "weight", weight)
        _set(st, "_lam", None)
        return st

    def __setattr__(self, *a):
        raise AttributeError("FockState is immutable")

    @property
    def lam(self) -> Partition:
        if self._lam is None:
            mask = self.mask
            beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
            _set(self, "_lam", Partition([b - i for i, b in enumerate(beads)][::-1]))
        return self._lam

    def maya(self, floor: int) -> list[int]:
        """Occupied sites >= floor, descending (all sites < floor occupied).

        floor must not exceed charge - length(lam) or deep rows would be cut.
        """
        mask = self.mask
        base = self.charge - mask.bit_count()  # the site of bit 0
        if floor > base:
            raise ValueError("floor cuts into the partition rows")
        beads = [b + base for b in range(mask.bit_length() - 1, 0, -1) if mask >> b & 1]
        return beads + list(range(base - 1, floor - 1, -1))

    def __eq__(self, other):
        return (
            isinstance(other, FockState)
            and self.mask == other.mask
            and self.charge == other.charge
        )

    def __hash__(self):
        return hash((self.charge, self.mask))

    def __repr__(self):
        return f"|{self.lam}, {self.charge}>"


def _canonical(beads: int) -> int:
    """Drop the run of occupied sites at the bottom of a padded bead mask."""
    return beads >> (~beads & (beads + 1)).bit_length() - 1


def _moves(mask: int, shift: int) -> list[tuple[int, int, int]]:
    """Every single-particle move b -> b - shift on the bead mask ``mask``,
    sources in descending order, as (source bit, sign, canonical new mask).

    For shift < 0 the mask is first padded with -shift sea beads, the only
    ones below bit 0 that can rise to a free site, so a source bit may be
    negative; the sign is (-1)^(beads strictly between source and target).
    """
    pad = -shift if shift < 0 else 0
    beads = mask << pad | (1 << pad) - 1
    if shift > 0:
        movable = beads & ~(beads << shift) & ~((1 << shift) - 1)
    else:
        movable = beads & ~(beads >> pad)
    out = []
    while movable:
        src = movable.bit_length() - 1
        movable ^= 1 << src
        dst = src - shift
        lo, hi = (dst, src) if shift > 0 else (src, dst)
        between = (beads >> lo + 1 & (1 << hi - lo - 1) - 1).bit_count()
        out.append((src - pad, -1 if between & 1 else 1, _canonical(beads ^ 1 << src ^ 1 << dst)))
    return out


class WindowOverflowError(RuntimeError):
    """An operator needed a state beyond the configured weight window."""


class FockVector:
    """Finitely supported map FockState -> coefficient with a weight cutoff.

    Components whose partition weight exceeds the cutoff are dropped and the
    ``truncated`` flag records that this happened.
    """

    __slots__ = ("amps", "cutoff", "truncated")

    def __init__(self, amps: Optional[dict] = None, cutoff: int = 0, truncated: bool = False):
        self.cutoff = int(cutoff)
        self.truncated = truncated
        self.amps = {}
        if amps:
            for st, c in amps.items():
                if _is_zero(c):
                    continue
                if st.weight > self.cutoff:
                    self.truncated = True
                    continue
                self.amps[st] = c

    @classmethod
    def vacuum(cls, charge: int, cutoff: int) -> "FockVector":
        return cls({FockState(Partition(), charge): Fraction(1)}, cutoff)

    @classmethod
    def basis(cls, lam: Partition, charge: int, cutoff: int) -> "FockVector":
        return cls({FockState(lam, charge): Fraction(1)}, cutoff)

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.cutoff != other.cutoff:
            raise ValueError("cutoff mismatch")
        out = dict(self.amps)
        for st, c in other.amps.items():
            _accum(out, st, c)
        return FockVector(out, self.cutoff, self.truncated or other.truncated)

    def scaled(self, c) -> "FockVector":
        if _is_zero(c):
            return FockVector({}, self.cutoff, self.truncated)
        return FockVector(
            {st: v * c for st, v in self.amps.items()}, self.cutoff, self.truncated
        )

    def is_zero(self) -> bool:
        return not self.amps

    def coeff(self, lam: Partition, charge: int):
        return self.amps.get(FockState(lam, charge), Fraction(0))

    def __repr__(self):
        bits = [f"({c})*{st}" for st, c in list(self.amps.items())[:6]]
        more = " + ..." if len(self.amps) > 6 else ""
        return " + ".join(bits) + more if bits else "0"


def _is_zero(c) -> bool:
    if isinstance(c, PolySeries):
        return c.is_zero()
    return c == 0


def _accum(d: dict, st: FockState, val):
    prev = d.get(st)
    s = val if prev is None else prev + val
    if _is_zero(s):
        d.pop(st, None)
    else:
        d[st] = s


def pair(bra: FockVector, ket: FockVector):
    """Orthonormal pairing <lambda,n | mu,m> = delta delta, bilinear."""
    small, big = (bra, ket) if len(bra.amps) <= len(ket.amps) else (ket, bra)
    total = None
    for st, c in small.amps.items():
        d = big.amps.get(st)
        if d is None:
            continue
        piece = c * d
        total = piece if total is None else total + piece
    return Fraction(0) if total is None else total


# -- one-particle operators ---------------------------------------------------


class FockOperator:
    """A charge-preserving one-particle-move operator.

    kinds:
      H(m):      sum_k psi_k psi*_{k+m}, moves src -> src - m, weight 1
      A(m, r):   raising part of the deformed family; -A(m) carries
                 + prod r over the traversed window (src, src+m]
      At(m, rt): lowering family with rt over (src-m, src]

    The r-window products are memoised on r (``ContentFunction.window``).
    """

    def __init__(self, kind: str, m: int = 0, r: Optional[ContentFunction] = None):
        self.kind = kind
        self.m = m
        self.r = r

    @classmethod
    def H(cls, m: int) -> "FockOperator":
        if m == 0:
            raise ValueError("H_0 is not part of the Heisenberg family here")
        return cls("H", m=m)

    @classmethod
    def minus_A(cls, m: int, r: ContentFunction) -> "FockOperator":
        """The operator -A_m: raises the weight by m with r-products."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return cls("mA", m=m, r=r)

    @classmethod
    def A_tilde(cls, m: int, rt: ContentFunction) -> "FockOperator":
        """The operator Atilde_m: lowers the weight by m with rt-products."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return cls("At", m=m, r=rt)

    def apply(self, v: FockVector) -> FockVector:
        out: dict = {}
        cutoff, truncated = v.cutoff, v.truncated
        m, r = self.m, self.r
        # a move src -> src - shift lowers |lambda| by shift; an r-window
        # (lo, lo + m] starts at the target when lowering, at the source when raising
        shift = -m if self.kind == "mA" else m
        below = m if self.kind == "At" else 0
        for st, c in v.amps.items():
            weight = st.weight - shift
            over = weight > cutoff
            if over and truncated:
                continue
            n = st.charge
            base = n - st.mask.bit_count()
            for src, sign, mask in _moves(st.mask, shift):
                if r is not None:
                    lo = src + base - below
                    w = r.window(lo, lo + m)
                    if not w:
                        continue
                if over:
                    truncated = True
                    break
                val = c if r is None else c * w
                _accum(out, FockState._of(n, mask, weight), val if sign > 0 else -val)
        return FockVector(out, cutoff, truncated)


# -- polynomial families ----------------------------------------------------


def _zmu_inverse(mu: Partition) -> Fraction:
    """1/z_mu with z_mu = prod i^{m_i} m_i!."""
    from math import factorial

    z = 1
    for part, mult in mu.multiplicities().items():
        z *= part**mult * factorial(mult)
    return Fraction(1, z)


def _family_power(family: str, m: int, r: Optional[ContentFunction]) -> FockOperator:
    """The power-sum slot p_m of the operator family."""
    if family == "H":
        return FockOperator.H(m)
    if family == "H*":
        return FockOperator.H(-m)
    if family == "-A":
        return FockOperator.minus_A(m, r)
    if family == "At":
        return FockOperator.A_tilde(m, r)
    raise ValueError(f"unknown family {family!r}")


def h_of_operators(k: int, ops: dict[int, FockOperator], v: FockVector) -> FockVector:
    """h_k evaluated on an operator family, applied to v:
    h_k = sum_{|mu|=k} z_mu^{-1} p_mu with p_m = ops[m]."""
    if k == 0:
        return v
    out = FockVector({}, v.cutoff)
    for mu in partitions_of(k):
        w = v
        for part in mu.parts:
            w = ops[part].apply(w)
            if w.is_zero():
                break
        if not w.is_zero():
            out = out + w.scaled(_zmu_inverse(mu))
    return out


def schur_of_operators(
    lam: Partition, family: str, v: FockVector, r: Optional[ContentFunction] = None
) -> FockVector:
    """s_lambda of a commuting operator family applied to v (Jacobi-Trudi).

    The determinant is expanded over permutations; family components commute
    so the ordering inside each product is immaterial.
    """
    from itertools import combinations, permutations

    n = lam.length
    if n == 0:
        return v
    # one operator per power sum p_m, m <= lambda_1 + n - 1, so that its
    # r-window memo serves every vector it is applied to
    ops = {m: _family_power(family, m, r) for m in range(1, lam.part(1) + n)}
    out = FockVector({}, v.cutoff)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        ks = [lam.part(i + 1) - (i + 1) + (perm[i] + 1) for i in range(n)]
        if any(k < 0 for k in ks):
            continue
        w = v
        for k in ks:
            w = h_of_operators(k, ops, w)
            if w.is_zero():
                break
        if not w.is_zero():
            out = out + w.scaled(Fraction(sign))
    return out


def exp_action(
    terms: Sequence[tuple[object, FockOperator]], v: FockVector
) -> FockVector:
    """exp(sum_m c_m Op_m) applied to v, truncated at the vector's cutoff.

    The generator is applied as a whole, so the terms need not commute with
    each other for the truncation to be consistent (ours do anyway).
    """
    cutoff, truncated = v.cutoff, v.truncated
    out = dict(v.amps)
    acc = v
    k = 1
    while True:
        nxt: dict = {}
        for c, op in terms:
            piece = op.apply(acc)
            truncated = truncated or piece.truncated
            ck = c * Fraction(1, k)
            for st, a in piece.amps.items():
                _accum(nxt, st, a * ck)
        if not nxt:
            break
        for st, a in nxt.items():
            _accum(out, st, a)
        acc = FockVector(nxt, cutoff, truncated)
        k += 1
        if k > 4 * cutoff + 8:
            raise WindowOverflowError("exponential failed to truncate")
    return FockVector(out, cutoff, truncated)


# -- single fermion modes ---------------------------------------------------


def psi_apply(v: FockVector, site: int, create: bool) -> FockVector:
    """Apply a single fermion mode (creation when ``create`` else
    annihilation) at a lattice site.  Charge changes by +/- 1.

    Signs follow the wedge ordering: inserting or removing a site picks up
    (-1)^(occupied sites above it).
    """
    out: dict = {}
    truncated = v.truncated
    for st, c in v.amps.items():
        b = site - st.charge + st.mask.bit_count()  # the site's bit; the sea lies below 0
        pad = -b if b < 0 else 0
        beads = st.mask << pad | (1 << pad) - 1
        b += pad
        if bool(beads >> b & 1) is create:
            continue  # Pauli: the site is already occupied, or has nothing to remove
        L = beads.bit_count()
        if create:
            beads, weight = beads | 1 << b, st.weight + b - L
        else:
            beads, weight = beads ^ 1 << b, st.weight - b + L - 1
        if weight > v.cutoff:
            truncated = True
            continue
        ns = FockState._of(st.charge + (1 if create else -1), _canonical(beads), weight)
        _accum(out, ns, -c if (beads >> b + 1).bit_count() & 1 else c)
    return FockVector(out, v.cutoff, truncated)


# -- diagonal charge operator and traces -------------------------------------


def _h0_pair(r: ContentFunction, mask: int, n: int) -> tuple[int, int]:
    """The eigenvalue of the diagonal charge operator on the state of charge
    n and bead mask ``mask``, as an unreduced integer pair, read from the
    Maya data: a particle at site s >= n contributes prod_{k=n..s} r(k), a
    hole at site h < n contributes prod_{k=h+1..n-1} r(k).  Particles are
    the beads at bits >= l(lambda), holes the empty bits below, and this
    telescopes to the content product without forming it cell by cell."""
    L = mask.bit_count()
    p = q = 1
    particles = mask >> L  # bit j: the site n + j
    while particles:
        j = particles.bit_length() - 1
        particles ^= 1 << j
        w = r.window(n - 1, n + j)
        p, q = p * w.numerator, q * w.denominator
    holes = ~mask & (1 << L) - 1  # bit b: the site n - L + b
    while holes:
        low = holes & -holes
        holes ^= low
        w = r.window(n - L + low.bit_length() - 1, n - 1)
        p, q = p * w.numerator, q * w.denominator
    return p, q


def h0_eigenvalue(r: ContentFunction, lam: Partition, n: int) -> Fraction:
    """Eigenvalue of the diagonal charge operator on |lambda, n>, relative to
    the charge-n vacuum (vacuum eigenvalue normalized to 1): r_lambda(n),
    from the particles and holes of lambda's bead mask."""
    return Fraction(*_h0_pair(r, _key(lam.parts), n))


def trace_h0(r: ContentFunction, n: int, D: int) -> list[Fraction]:
    """Graded trace over the charge-n sector: [sum_{|lambda|=d} r_lambda(n)]
    for d = 0..D, summing the diagonal charge operator's eigenvalues over
    the bead masks of weight d."""
    return [
        _pair_sum(_h0_pair(r, _key(parts), n) for parts in _parts_of_weight(d, d, d))
        for d in range(D + 1)
    ]


# -- Lemma-style constructions ----------------------------------------------


def state_from_modes(i_list: Sequence[int], j_list: Sequence[int], cutoff: int) -> FockVector:
    """psi*_{-j_1} ... psi*_{-j_k} psi_{i_s} ... psi_{i_1} |0>.

    The string acts right to left: creation at i_1 first, ..., i_s last,
    then annihilation at -j_k first, ..., -j_1 last.
    """
    v = FockVector.vacuum(0, cutoff)
    for i in i_list:
        v = psi_apply(v, i, create=True)
        if v.is_zero():
            return v
    for j in reversed(list(j_list)):
        v = psi_apply(v, -j, create=False)
        if v.is_zero():
            return v
    return v


def lemma_partition(i_list: Sequence[int], j_list: Sequence[int]) -> Partition:
    """Assemble the partition labeled by the mode indices
    (i_1 > ... > i_s >= 0, j_1 > ... > j_k >= 1, s >= k): the first s-k parts
    are i_u - (s-k) + u, the rest is the Frobenius block
    (i_{s-k+1}, ..., i_s | j_1 - 1, ..., j_k - 1)."""
    s, k = len(i_list), len(j_list)
    if k > s:
        raise ValueError("need s >= k")
    head = [i_list[u - 1] - (s - k) + u for u in range(1, s - k + 1)]
    alphas = list(i_list[s - k:])
    betas = [j - 1 for j in j_list]
    from .partitions import from_frobenius

    tail = from_frobenius(alphas, betas) if alphas else Partition()
    return Partition(head + list(tail.parts))


def lemma1_sign(i_list: Sequence[int], j_list: Sequence[int]) -> int:
    s, k = len(i_list), len(j_list)
    e = sum(j_list) + (k - s) * (k - s + 1) // 2
    return -1 if e % 2 else 1


def lemma1_check(i_list: Sequence[int], j_list: Sequence[int]) -> dict:
    """Check <s-k| e^{H(t)} psi*_{-j_1}..psi*_{-j_k} psi_{i_s}..psi_{i_1} |0>
    against the signed Schur function of the assembled partition, expanded
    from the character table.

    Index constraints: i_1 > ... > i_s >= 0, j_1 > ... > j_k >= 1, s >= k.
    The window is chosen automatically from the mode indices so intermediate
    states are never truncated.
    """
    i_list = tuple(i_list)
    j_list = tuple(j_list)
    s, k = len(i_list), len(j_list)
    if any(a <= b for a, b in zip(i_list, i_list[1:])) or (i_list and i_list[-1] < 0):
        raise ValueError("need i_1 > ... > i_s >= 0")
    if any(a <= b for a, b in zip(j_list, j_list[1:])) or (j_list and j_list[-1] < 1):
        raise ValueError("need j_1 > ... > j_k >= 1")
    if k > s:
        raise ValueError("need s >= k")
    lam = lemma_partition(i_list, j_list)
    from .symfun import PolyRing, Times, schur_expansion

    D = max(lam.weight, 1)
    window = sum(i_list) + sum(j_list) + s + k + 2
    ring = PolyRing.times_ring(D, cap=D)
    ts = Times.symbolic(ring, D)
    v = state_from_modes(i_list, j_list, window)
    charge = s - k
    vac = FockVector.vacuum(charge, window)
    Z = exp_action(
        [(ts.get(m), FockOperator.H(-m)) for m in range(1, D + 1)], vac
    )
    got = pair(Z, v)
    got = got if isinstance(got, PolySeries) else ring.const(got)
    expect = schur_expansion(ring, {lam: lemma1_sign(i_list, j_list)}, 1)
    return {
        "i": i_list,
        "j": j_list,
        "partition": lam,
        "ok": got == expect,
        "got": got,
        "expected": expect,
    }
