"""Reference Fock moves for the tests: states as explicit lists of occupied
Maya sites, rebuilt into a validated partition after every move.  They share
no code with the bead-mask moves of ``taukit.fock``; results are keyed by
``FockState(partition, charge)`` so they compare with the library's dicts.
Schur functions of the operator families are Jacobi-Trudi determinants over
these moves, independent of the library's border-strip recursion, and the
exponential of a family is its power series over these moves, on the
coefficients' own arithmetic.

Two readers of the library's bead masks that only the tests use live here
too: ``state_maya`` and ``h0_eigenvalue``."""

from fractions import Fraction as F
from itertools import combinations, permutations
from math import factorial, prod

from taukit.fock import FockState, FockVector, WindowOverflowError, _family_power, _h0_pair, _is_zero
from taukit.partitions import Partition, partitions_of
from taukit.symfun import _key


def maya(lam, charge, floor):
    """Occupied sites >= floor, descending: n + lam_i - i for i >= 1."""
    out = []
    i = 1
    while charge + lam.part(i) - i >= floor:
        out.append(charge + lam.part(i) - i)
        i += 1
    return out


def state_maya(st, floor):
    """The occupied sites >= floor of the library state ``st``, descending,
    read from its charge and bead mask (all sites < floor occupied).

    floor must not exceed charge - length(lam) or deep rows would be cut.
    """
    mask = st.mask
    base = st.charge - mask.bit_count()  # the site of bit 0
    if floor > base:
        raise ValueError("floor cuts into the partition rows")
    beads = [b + base for b in range(mask.bit_length() - 1, 0, -1) if mask >> b & 1]
    return beads + list(range(base - 1, floor - 1, -1))


def h0_eigenvalue(r, lam, n):
    """Eigenvalue of the diagonal charge operator on |lambda, n>, relative to
    the charge-n vacuum (vacuum eigenvalue normalized to 1): r_lambda(n),
    from the particles and holes of lambda's bead mask."""
    return F(*_h0_pair(r, _key(lam.parts), n))


def state_from_maya(positions, charge):
    """(lambda, charge) from the occupied sites >= some floor, descending."""
    parts = [pos - charge + i for i, pos in enumerate(positions, start=1)]
    while parts and parts[-1] == 0:
        parts.pop()
    return FockState(Partition(parts), charge)


def single_moves(lam, charge, shift, weight_of):
    """(coefficient, state) of every move source -> source - shift, with the
    sign (-1)^(occupied sites strictly between source and target)."""
    floor = charge - lam.length - abs(shift) - 1
    sites = maya(lam, charge, floor)
    occ = set(sites)
    for src in sites:
        dst = src - shift
        if dst < floor or dst in occ:
            continue
        lo, hi = min(src, dst), max(src, dst)
        w = weight_of(src, dst)
        if _is_zero(w):
            continue
        if sum(1 for p in occ if lo < p < hi) % 2:
            w = -w
        yield w, state_from_maya(sorted((occ - {src}) | {dst}, reverse=True), charge)


def range_product(r, lo, hi):
    """prod of r(k) for k in (lo, hi]."""
    out = F(1)
    for k in range(lo + 1, hi + 1):
        out *= r(k)
    return out


def _add(out, st, val):
    s = out.get(st, 0) + val
    if _is_zero(s):
        out.pop(st, None)
    else:
        out[st] = s


def apply(op, v):
    """(amps, truncated) of the one-particle operator op on the vector v."""
    out, truncated = {}, v.truncated
    if op.kind == "H":
        shift, weight_of = op.m, lambda s, d: F(1)
    elif op.kind == "mA":
        shift, weight_of = -op.m, lambda s, d: range_product(op.r, s, d)
    else:
        shift, weight_of = op.m, lambda s, d: range_product(op.r, d, s)
    for st, c in v.amps.items():
        for w, ns in single_moves(st.lam, st.charge, shift, weight_of):
            if ns.lam.weight > v.cutoff:
                truncated = True
            else:
                _add(out, ns, c * w)
    return out, truncated


def psi_apply(v, site, create):
    """(amps, truncated) of the fermion mode at ``site`` on the vector v."""
    out, truncated = {}, v.truncated
    for st, c in v.amps.items():
        n, lam = st.charge, st.lam
        occ = set(maya(lam, n, min(site, n - lam.length) - 1))
        if (site in occ) == create:
            continue
        sign = -1 if sum(1 for p in occ if p > site) % 2 else 1
        rest = occ | {site} if create else occ - {site}
        ns = state_from_maya(sorted(rest, reverse=True), n + (1 if create else -1))
        if ns.lam.weight > v.cutoff:
            truncated = True
        else:
            _add(out, ns, c * sign)
    return out, truncated


def _applied(op, w):
    """The one-particle operator op on w by ``apply``, as a FockVector."""
    amps, truncated = apply(op, w)
    return FockVector(amps, w.cutoff, truncated)


def _sum(pieces, cutoff):
    """The sum of the (coefficient, vector) pairs, truncated if any of them is."""
    out = {}
    for c, w in pieces:
        for st, a in w.amps.items():
            _add(out, st, a * c)
    return FockVector(out, cutoff, any(w.truncated for _, w in pieces))


def h_of_operators(k, family, r, v):
    """h_k of the family on v: sum_{|mu|=k} p_mu / z_mu, z_mu = prod_i i^(m_i) m_i!
    (Macdonald I.2), each p_m moved by ``apply``."""
    if k == 0:
        return v
    pieces = []
    for mu in partitions_of(k):
        w = v
        for part in mu.parts:
            w = _applied(_family_power(family, part, r), w)
        pieces.append((F(1, prod(i**m * factorial(m) for i, m in mu.multiplicities().items())), w))
    return _sum(pieces, v.cutoff)


def schur_of_operators(lam, family, v, r=None):
    """s_lambda of the family on v by Jacobi-Trudi, det(h_{lambda_i - i + j})
    expanded over all permutations (the family's members commute)."""
    n = lam.length
    if n == 0:
        return v
    pieces = []
    for perm in permutations(range(n)):
        ks = [lam.part(i + 1) - (i + 1) + (perm[i] + 1) for i in range(n)]
        if min(ks) >= 0:
            w = v
            for k in ks:
                w = h_of_operators(k, family, r, w)
            pieces.append(((-1) ** sum(a > b for a, b in combinations(perm, 2)), w))
    return _sum(pieces, v.cutoff)


def exp_action(terms, v):
    """(amps, truncated) of exp(sum_m c_m Op_m) on v: the powers G^k v / k!
    of the generator, each a sum of ``apply`` images times c_m / k, added up
    until a power vanishes."""
    cutoff, truncated = v.cutoff, v.truncated
    out = dict(v.amps)
    acc = v
    k = 1
    while True:
        nxt = {}
        for c, op in terms:
            amps, cut = apply(op, acc)
            truncated = truncated or cut
            ck = c * F(1, k)
            for st, a in amps.items():
                _add(nxt, st, a * ck)
        if not nxt:
            break
        for st, a in nxt.items():
            _add(out, st, a)
        acc = FockVector(nxt, cutoff, truncated)
        k += 1
        if k > 4 * cutoff + 8:
            raise WindowOverflowError("exponential failed to truncate")
    return out, truncated


def pair(bra_amps, ket_amps):
    """sum over the shared states of the products of their amplitudes."""
    total = F(0)
    for st, c in bra_amps.items():
        if st in ket_amps:
            total = c * ket_amps[st] + total
    return total
