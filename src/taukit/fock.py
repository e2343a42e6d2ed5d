"""Truncated charged free-fermion Fock space on the partition/Maya basis.

A basis state |lambda, n> is the Maya particle configuration
{ n + lambda_i - i : i >= 1 } on the integer lattice, with every site deep
enough always occupied.  It is the tuple (n, bead mask of lambda, |lambda|),
the mask symfun's (Macdonald I.1 Ex. 7): bit b stands for the site
b + n - l(lambda), bit 0 is clear and every site below it is occupied.  All
operators used here move one particle at a time, two bit flips on the mask
(``symfun._bead_moves``, the move that also removes border strips);
the fermionic sign of a move is (-1)^(number of occupied sites strictly
between source and target), which is the wedge-ordering sign for the
annihilate-then-create order and is validated against the classical sign
formulas by the test suite.

Coefficients are duck-typed: exact Fractions for numeric work, PolySeries
for symbolic times.  The exponential and the pairing work on the integers
under them: each amplitude is a PolySeries' {packed monomial: numerator}
dict (a Fraction's numerator at key 0 when there is no ring), and a whole
vector shares one denominator.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .partitions import Partition, _parts_of_weight
from .symfun import PolyRing, PolySeries, _as_fraction, _bead_moves, _key, _kept_strips, _mul_into, _unpadded
from .weights import ContentFunction, _pair_sum


class FockState(namedtuple("FockState", "charge mask weight")):
    """Basis vector |lambda, n>, the tuple (charge, bead mask, weight).

    Equality and hashing are the tuple's; the partition is rebuilt from the
    mask when ``lam`` is asked for.
    """

    __slots__ = ()

    def __new__(cls, lam: Partition, charge: int):
        return tuple.__new__(cls, (int(charge), _key(lam.parts), lam.weight))

    @classmethod
    def _of(cls, charge: int, mask: int, weight: int) -> "FockState":
        """The state with a canonical bead mask (bit 0 clear) of that weight."""
        return tuple.__new__(cls, (charge, mask, weight))

    @property
    def lam(self) -> Partition:
        mask = self.mask
        beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
        return Partition([b - i for i, b in enumerate(beads)][::-1])

    def __repr__(self):
        return f"|{self.lam}, {self.charge}>"


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


def _ring_top(values: Iterable) -> tuple[Optional[PolyRing], int]:
    """(ring, top) of the first PolySeries among ``values``: top is the key of
    the first monomial past the ring's cap.  Without a series every key is 0,
    so (None, 1) sets no cap."""
    ring = next((x.ring for x in values if isinstance(x, PolySeries)), None)
    return ring, 1 if ring is None else (ring.cap + 1) << ring._shift


def _split(x, ring: Optional[PolyRing]) -> tuple[dict, int]:
    """(numerators, denominator) of a series of ``ring`` or an exact scalar."""
    if isinstance(x, PolySeries):
        if x.ring is not ring and x.ring != ring:
            raise ValueError("PolySeries from different rings")
        return x._nums, x._den
    x = _as_fraction(x)
    return ({0: x.numerator} if x else {}), x.denominator


def _joined(ring: Optional[PolyRing], nums: dict, den: int):
    """The reduced PolySeries of ``nums`` over ``den``, or the Fraction when
    there is no ring; ``nums`` has no zero numerator."""
    return Fraction(nums.get(0, 0), den) if ring is None else PolySeries._reduced(ring, nums, den)


def _summed(parts: Iterable[tuple[FockState, dict, int]]) -> tuple[dict, int]:
    """The sum of (state, numerators, denominator) parts as {state: {key:
    numerator}} over the lcm of their denominators; cancelled sums stay as
    zeros for ``_nonzero``."""
    parts = list(parts)
    den = lcm(*(q for *_, q in parts))
    out: dict = {}
    for st, nums, q in parts:
        t, f = out.setdefault(st, {}), den // q
        for key, x in nums.items():
            t[key] = t.get(key, 0) + x * f
    return out, den


def _nonzero(vec: dict) -> dict:
    """{state: {key: numerator}} without its zero numerators and empty states."""
    return {st: t for st, nums in vec.items() if (t := {key: x for key, x in nums.items() if x})}


def pair(bra: FockVector, ket: FockVector):
    """Orthonormal pairing <lambda,n | mu,m> = delta delta, bilinear: the
    products of the shared states' amplitudes, summed over one denominator."""
    small, big = (bra, ket) if len(bra.amps) <= len(ket.amps) else (ket, bra)
    get = big.amps.get
    both = [(c, d) for st, c in small.amps.items() if (d := get(st)) is not None]
    if not both:
        return Fraction(0)
    ring, top = _ring_top(chain.from_iterable(both))
    parts = [(_split(c, ring), _split(d, ring)) for c, d in both]
    den = lcm(*(p * q for (_, p), (_, q) in parts))
    out: dict = {}
    for (a, p), (b, q) in parts:
        _mul_into(out, a, b, den // (p * q), top)
    return _joined(ring, {k: v for k, v in out.items() if v}, den)


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

    def _moved(self, amps: dict, cutoff: int, truncated: bool) -> tuple[list, bool]:
        """The moves of the operator on the states of ``amps``, whatever their
        amplitudes are: (moves, truncated), each move (amplitude, target,
        sign, r-window or None without r), states and sources in order.
        A state whose image lies past the cutoff gives no move; it sets
        ``truncated`` at its first move with a nonzero window."""
        moves = []
        m, r = self.m, self.r
        # a move src -> src - shift lowers |lambda| by shift; an r-window
        # (lo, lo + m] starts at the target when lowering, at the source when raising
        shift = -m if self.kind == "mA" else m
        below = m if self.kind == "At" else 0
        w = None
        for st, c in amps.items():
            n, mask, weight = st
            weight -= shift
            over = weight > cutoff
            if over and truncated:
                continue
            base = n - mask.bit_count()
            for src, sign, target in _bead_moves(mask, shift):
                if r is not None:
                    lo = src + base - below
                    w = r.window(lo, lo + m)
                    if not w:
                        continue
                if over:
                    truncated = True
                    break
                moves.append((c, FockState._of(n, target, weight), sign, w))
        return moves, truncated

    def apply(self, v: FockVector) -> FockVector:
        out: dict = {}
        moves, truncated = self._moved(v.amps, v.cutoff, v.truncated)
        for c, st, sign, w in moves:
            val = c if w is None else c * w
            _accum(out, st, val if sign > 0 else -val)
        return FockVector(out, v.cutoff, truncated)


# -- polynomial families ----------------------------------------------------


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


def schur_of_operators(
    lam: Partition, family: str, v: FockVector, r: Optional[ContentFunction] = None
) -> FockVector:
    """s_lambda of a commuting operator family applied to v, by the border-strip
    recursion of ``symfun._schur_numerator`` on bead masks:

        |nu| s_nu = sum_m p_m sum_{m-strips S of nu} (-1)^ht(S) s_{nu-S},

    with p_m the family's power-sum slot.  Each s_nu v is kept for the call,
    and p_m acts once on the signed sum of the s_{nu-S} v.
    """
    memo = {0: v}

    def of(nu: int, d: int) -> FockVector:
        if nu not in memo:
            out = FockVector({}, v.cutoff)
            for m in range(1, d + 1):
                plus, minus = _kept_strips(nu, m)
                if plus or minus:
                    signed = [of(c, d - m) for c in plus] + [of(c, d - m).scaled(-1) for c in minus]
                    out = out + _family_power(family, m, r).apply(reduce(FockVector.__add__, signed))
            memo[nu] = out.scaled(Fraction(1, d))
        return memo[nu]

    return of(_key(lam.parts), lam.weight)


def exp_action(
    terms: Sequence[tuple[object, FockOperator]], v: FockVector
) -> FockVector:
    """exp(sum_m c_m Op_m) applied to v, truncated at the vector's cutoff.

    The generator is applied as a whole, so the terms need not commute with
    each other for the truncation to be consistent (ours do anyway).  Each
    power G^k v / k! is {state: {key: numerator}} over one denominator, which
    takes in 1/k, the coefficients' denominators and the r-windows'; it is
    reduced once by the gcd of all its numerators.  The amplitudes are
    formed once, at the end, over the lcm of the powers' denominators: a
    PolySeries when any coefficient or amplitude is one, else a Fraction.
    A state of v that no power reaches keeps its amplitude as given.
    """
    cutoff, truncated = v.cutoff, v.truncated
    ring, top = _ring_top(chain((c for c, _ in terms), v.amps.values()))
    gens = [(*_split(c, ring), op) for c, op in terms]
    acc, den = _summed((st, *_split(c, ring)) for st, c in v.amps.items())
    powers = [(acc, den)]
    k = 1
    while True:
        moved = []
        for c, q, op in gens:
            moves, truncated = op._moved(acc, cutoff, truncated)
            moved.append((c, q, q * lcm(*(w.denominator for *_, w in moves if w is not None)), moves))
        scale = lcm(*(qw for _, _, qw, _ in moved))
        nxt: dict = {}
        for c, q, _, moves in moved:
            f = scale // q  # a multiple of every window denominator of these moves
            for nums, st, sign, w in moves:
                g = f * sign if w is None else f // w.denominator * w.numerator * sign
                _mul_into(nxt.setdefault(st, {}), c, nums, g, top)
        nxt = _nonzero(nxt)
        if not nxt:
            break
        den *= k * scale
        g = gcd(den, *chain.from_iterable(t.values() for t in nxt.values()))
        if g != 1:
            den //= g
            nxt = {st: {key: x // g for key, x in nums.items()} for st, nums in nxt.items()}
        powers.append((nxt, den))
        acc = nxt
        k += 1
        if k > 4 * cutoff + 8:
            raise WindowOverflowError("exponential failed to truncate")
    out, den = _summed((st, nums, q) for vec, q in powers for st, nums in vec.items())
    reached = {st for vec, _ in powers[1:] for st in vec}
    amps = {st: _joined(ring, nums, den) if st in reached else v.amps[st] for st, nums in _nonzero(out).items()}
    return FockVector(amps, cutoff, truncated)


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
        charge, mask, weight = st
        b = site - charge + mask.bit_count()  # the site's bit; the sea lies below 0
        pad = -b if b < 0 else 0
        beads = mask << pad | (1 << pad) - 1
        b += pad
        if bool(beads >> b & 1) is create:
            continue  # Pauli: the site is already occupied, or has nothing to remove
        L = beads.bit_count()
        if create:
            beads, weight = beads | 1 << b, weight + b - L
        else:
            beads, weight = beads ^ 1 << b, weight - b + L - 1
        if weight > v.cutoff:
            truncated = True
            continue
        ns = FockState._of(charge + (1 if create else -1), _unpadded(beads), weight)
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


def trace_h0(r: ContentFunction, n: int, D: int) -> list[Fraction]:
    """Graded trace over the charge-n sector: [sum_{|lambda|=d} r_lambda(n)]
    for d = 0..D, summing the diagonal charge operator's eigenvalues over
    the bead masks of weight d.

    As in the tau walk, the first zero of r on each side of the charge
    bounds the first part and the length, so a pole behind a zero is never
    reached; a pole met first by the scan keeps r's own message."""

    def reach(step: int) -> int:
        return next((k for k in range(1, D) if r(n + step * k) == 0), D)

    cols, rows = reach(1), reach(-1)
    return [
        _pair_sum(_h0_pair(r, _key(parts), n) for parts in _parts_of_weight(d, min(d, cols), min(d, rows)))
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
    # H(-m) is the transpose of H(m), so pairing e^{sum t_m H(-m)}|s-k> with
    # the mode state reads the vacuum amplitude of e^{sum t_m H(m)} on it
    v = state_from_modes(i_list, j_list, window)
    v = exp_action([(ts.get(m), FockOperator.H(m)) for m in range(1, D + 1)], v)
    got = v.coeff(Partition(), s - k)
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
