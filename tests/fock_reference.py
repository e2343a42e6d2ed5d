"""Reference Fock moves for the tests: states as explicit lists of occupied
Maya sites, rebuilt into a validated partition after every move.  They share
no code with the bead-mask moves of ``taukit.fock``; results are keyed by
``FockState(partition, charge)`` so they compare with the library's dicts."""

from fractions import Fraction as F

from taukit.fock import FockState, _is_zero
from taukit.partitions import Partition


def maya(lam, charge, floor):
    """Occupied sites >= floor, descending: n + lam_i - i for i >= 1."""
    out = []
    i = 1
    while charge + lam.part(i) - i >= floor:
        out.append(charge + lam.part(i) - i)
        i += 1
    return out


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
