"""The benchmark's three workloads: ops generated from the seed, run against
taukit's public API, and checked.

A workload is an endless sequence of *rounds*.  Every round holds the same
strata (an op kind at a fixed degree or size); only the other inputs are
drawn from the seed.  Runs execute whole rounds, so every run sees the same
mix of cheap and expensive ops and its throughput and latency quantiles do
not depend on where the clock stopped.  No two ops of a workload share all
their inputs: a draw that repeats an earlier one is redrawn, and a stratum
whose inputs are used up drops out of later rounds.

Library ops call module attributes at call time (``taukit.tau.
hirota_residual(...)``), so the wrappers a traced run installs are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import taukit
import taukit.cli

import checks as C

F = Fraction

MC_SAMPLES = 100_000


@dataclass(frozen=True)
class Op:
    index: int
    round: int
    kind: str
    params: tuple


@dataclass
class Outcome:
    """What the harness learned from one op.

    ``text`` is the canonical exact output that feeds the digest; ``outlier``
    ``z`` and ``zero_variance`` are set for Monte Carlo checks only.
    """

    ok: bool
    text: str = ""
    why: str = ""
    outlier: bool = False
    z: float | None = None
    zero_variance: bool = False


# -- drawing inputs -------------------------------------------------------------


def _nonint(rng: random.Random, bound: int = 3) -> Fraction:
    while True:
        q = rng.choice((2, 3))
        p = rng.randint(-bound * q, bound * q)
        if p % q:
            return F(p, q)


def _unit(rng: random.Random, den_max: int = 9) -> Fraction:
    """A rational in (0, 1]."""
    q = rng.randint(1, den_max)
    return F(rng.randint(1, q), q)


def _distinct_units(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    while len(out) < k:
        x = _unit(rng)
        if x not in out:
            out.append(x)
    return tuple(out)


def _rational(rng: random.Random, na: tuple[int, int] = (1, 2)) -> tuple:
    a = tuple(_nonint(rng) for _ in range(rng.randint(*na)))
    return ("rational", a, (_nonint(rng),))


def _scale(rng: random.Random) -> Fraction:
    while True:
        c = F(rng.randint(-9, 9), rng.randint(1, 3))
        if c:
            return c


def _any_r(rng: random.Random, cycle: int) -> tuple:
    """r from rational (non-integer a, b), linear and one, in a fixed cycle;
    linear and one carry a random scale c (r = c k, r = c)."""
    kind = ("rational", "linear", "rational", "one")[cycle % 4]
    return _rational(rng) if kind == "rational" else (kind, _scale(rng))


def r_spec(r: tuple) -> str:
    """The content-function syntax of taukit.weights.parse_content."""
    if r[0] == "rational":
        return f"rational:a={','.join(map(str, r[1]))};b={','.join(map(str, r[2]))}"
    return f"{r[0]}|scale:{r[1]}"


def r_fn(r: tuple) -> C.Content:
    if r[0] == "rational":
        return C.rational(r[1], r[2])
    base = C.linear if r[0] == "linear" else C.one
    return lambda k: r[1] * base(k)


def _csv(xs) -> str:
    return ",".join(map(str, xs))


# The draw functions take (kind, stratum, rng, round, phase).  Parameters that
# drive an op's cost (the kind of r, the side kinds, the Monte Carlo shape)
# follow round + phase through a fixed cycle, so every run of a few rounds
# has the same cost mix whatever the seed; phase is the stratum's slot in
# the round plus a seed-drawn offset.  Values that barely move the cost are
# drawn at random.


def _draw_formal(kind: str, stratum, rng: random.Random, round_: int, phase: int) -> tuple:
    n = rng.randint(-1, 2)
    cycle = round_ + phase
    if kind == "cauchy":
        # cauchy_truncated takes only (D, K).  K > D adds times that cannot
        # reach degree D, so K = D + round // 3 keeps every input fresh at a
        # near-constant cost.
        D = 6 + cycle % 3
        return (D, D + round_ // 3)
    if kind in ("hirota", "symmetry", "fock"):
        return (stratum, _any_r(rng, cycle), n)
    if kind == "det":
        N, D = stratum
        r = _any_r(rng, cycle)
        if r[0] == "linear" and n - N + 1 <= 0 <= n - 1:
            r = _rational(rng)  # the prefactor needs r(v) != 0 on [n-N+1, n-1]
        return (N, D, r, n)
    if kind == "deriv":
        # the identity needs r(0) = 0, so a = 0 is the one integer parameter
        nn, D = stratum
        r = ("linear", _scale(rng)) if cycle % 2 else ("rational", (F(0), _nonint(rng)), (_nonint(rng),))
        return (nn, D, r)
    raise ValueError(kind)


def _side(rng: random.Random, kind: str) -> tuple:
    if kind == "ta":
        return ("ta", _nonint(rng))
    if kind == "qgeo":
        q = rng.randint(2, 5)
        return ("qgeo", F(rng.randint(1, q - 1), q))
    return ("inf",)


def _side_spec(side: tuple) -> str:
    return side[0] if side[0] == "inf" else f"{side[0]}:{side[1]}"


_OF_WEIGHT: dict[int, list[tuple[int, ...]]] = {}


def _random_partition(rng: random.Random, weight: int) -> tuple[int, ...]:
    if weight not in _OF_WEIGHT:
        _OF_WEIGHT[weight] = [p for p in C.partitions(weight) if sum(p) == weight]
    return rng.choice(_OF_WEIGHT[weight])


_SIDE_KINDS = ("ta", "qgeo", "inf")


def _draw_specialized(kind: str, stratum, rng: random.Random, round_: int, phase: int) -> tuple:
    n = rng.randint(-1, 2)
    cycle = round_ + phase
    if kind == "tau":
        t, u = _SIDE_KINDS[cycle % 3], _SIDE_KINDS[cycle // 3 % 3]
        return (stratum, _rational(rng, (2, 2)), n, _side(rng, t), _side(rng, u))
    if kind == "tau_eigs":
        k = 3 + cycle % 3
        return (12 + cycle % 5, _rational(rng), n, _distinct_units(rng, k), _distinct_units(rng, k))
    if kind == "pfs":
        return (tuple(_nonint(rng) for _ in range(2)), (_nonint(rng),), rng.randint(0, 2), rng.randint(10, 14))
    if kind == "qphi":
        q = rng.randint(2, 5)
        return ((rng.randint(1, 3), rng.randint(1, 3)), (rng.randint(1, 4),), F(rng.randint(1, q - 1), q),
                rng.randint(0, 2), _unit(rng), rng.randint(8, 12))
    if kind == "two":
        return ((_nonint(rng),), (_nonint(rng),), rng.randint(0, 2), _distinct_units(rng, 2),
                _distinct_units(rng, 2), rng.randint(6, 8))
    if kind == "ode":
        return (tuple(_nonint(rng) for _ in range(2)), (_nonint(rng),), rng.randint(200, 400))
    if kind == "qdiff":
        q = rng.randint(2, 5)
        return ((rng.randint(1, 3), rng.randint(1, 3)), (rng.randint(1, 4),), F(rng.randint(1, q - 1), q),
                rng.randint(200, 400))
    if kind == "fock_trace":
        return (_rational(rng), n, rng.randint(10, 14))
    if kind == "model_two":
        return (rng.randint(-3, 3), rng.randint(6, 10))
    if kind == "model_gw":
        return (rng.randint(2, 4), _distinct_units(rng, 2), rng.randint(6, 10))
    if kind == "model_unitary":
        return (rng.randint(1, 4), rng.randint(6, 10))
    if kind == "model_loop":
        return (tuple(_rational(rng, (1, 1)) for _ in range(rng.randint(2, 3))), n, rng.randint(6, 9))
    if kind == "model_quartic":
        return (stratum,)
    if kind == "rdecomp":
        return (_rational(rng), n, _random_partition(rng, rng.randint(1, 10)))
    raise ValueError(kind)


_SMALL_PARTITIONS = [p for p in C.partitions(3) if p]


def _draw_mc_wick(kind: str, stratum, rng: random.Random, round_: int, phase: int) -> tuple:
    if kind == "mc":
        # the shape cycles through single, paired with lambda = mu, paired
        # with lambda != mu (one side possibly empty); |lambda| cycles 1, 2, 3
        ensemble, n = stratum
        fits = [p for p in _SMALL_PARTITIONS if len(p) <= n]
        cycle = round_ + phase
        shape = cycle % 3
        lam = rng.choice([p for p in fits if sum(p) == 1 + cycle // 3 % 3])
        if shape == 0:
            mu = None
        elif shape == 1:
            mu = lam
        else:
            mu = rng.choice([p for p in fits + [()] if p != lam])
            if rng.random() < 0.5:
                lam, mu = mu, lam
        A = tuple(_unit(rng) for _ in range(n))
        B = tuple(_unit(rng) for _ in range(n))
        return (ensemble, n, lam, mu, A, B, rng.getrandbits(32))
    if kind == "wick":
        return (_random_partition(rng, stratum),)
    if kind == "qwick":
        return (stratum,)
    raise ValueError(kind)


# -- running and checking ----------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """taukit's command line, in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = taukit.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _r(r: tuple):
    return taukit.weights.parse_content(r_spec(r))


def run_cauchy(p):
    lhs, rhs = taukit.symfun.cauchy_truncated(p[0], p[1])
    return lhs == rhs, lhs


def run_hirota(p):
    res = taukit.tau.hirota_residual(_r(p[1]), p[2], p[0])
    return res.is_zero(), res


def run_symmetry(p):
    return taukit.tau.symmetry_checks(_r(p[1]), p[2], p[0])


def run_det(p):
    N, D, r, n = p
    res = taukit.tau.det_rep_two_side(_r(r), n, N, D)
    return res.matches(), res


def run_deriv(p):
    nn, D, r = p
    res = taukit.tau.det_rep_derivatives(_r(r), nn, D)
    return res.matches(), res


def run_fock(p):
    """Criterion 02: <0| e^{sum t_m H_m} e^{sum t*_m (-A_m)} |0> = tau_r."""
    D, r_, n = p
    s, fk = taukit.symfun, taukit.fock
    r = _r(r_)
    ring = s.PolyRing.bi_times_ring(D, cap=2 * D)
    tsym = s.Times.symbolic(ring, D, offset=0)
    usym = s.Times.symbolic(ring, D, offset=D)
    vac = fk.FockVector.vacuum(n, D)
    X = fk.exp_action([(usym.get(m), fk.FockOperator.minus_A(m, r)) for m in range(1, D + 1)], vac)
    Z = fk.exp_action([(tsym.get(m), fk.FockOperator.H(-m)) for m in range(1, D + 1)], vac)
    got = fk.pair(Z, X)
    t = taukit.tau
    expect = t.tau_series(t.TauSpec(r, n, t.Formal(), t.Formal()), D).as_polyseries(ring)
    return got == expect, got


def _flag_and_poly(label):
    def check(p, raw):
        ok, value = raw
        # fock.pair returns a plain Fraction when no state contributes a series
        text = C.poly_text(value.terms) if hasattr(value, "terms") else C.frac(F(value))
        return Outcome(ok, text, "" if ok else f"{label} failed")
    return check


def check_symmetry(p, rep):
    ok = rep == {"swap": True, "reflection": True, "scaling": True}
    return Outcome(ok, json.dumps(rep, sort_keys=True), "" if ok else f"symmetry flags {rep}")


def _check_det(p, raw):
    ok, res = raw
    text = C.poly_text(res.lhs.terms) + "|" + C.frac(F(res.prefactor))
    return Outcome(ok, text, "" if ok else "determinant side differs from series side")


# specialized: command lines and their checks

def _opts(**kw) -> list[str]:
    """--name=value pairs; the = keeps argparse from reading "-1/2,3" as a flag."""
    return [f"--{k}={v}" for k, v in kw.items()]


def argv_tau(p):
    D, r, n, t, u = p
    return ["tau", *_opts(r=r_spec(r), n=n, t=_side_spec(t), tstar=_side_spec(u), deg=D)]


def argv_tau_eigs(p):
    D, r, n, xs, ys = p
    return ["tau", *_opts(r=r_spec(r), n=n, t="eigs:" + _csv(xs), tstar="eigs:" + _csv(ys), deg=D)]


ARGV: dict[str, Callable[[tuple], list[str]]] = {
    "tau": argv_tau,
    "tau_eigs": argv_tau_eigs,
    "pfs": lambda p: ["hyper", "pfs", *_opts(a=_csv(p[0]), b=_csv(p[1]), m=p[2], x=1, deg=p[3])],
    "qphi": lambda p: ["hyper", "qphi", *_opts(a=_csv(p[0]), b=_csv(p[1]), q=p[2], m=p[3], x=p[4], deg=p[5])],
    "two": lambda p: ["hyper", "two", *_opts(a=_csv(p[0]), b=_csv(p[1]), m=p[2], x=_csv(p[3]), y=_csv(p[4]),
                                             deg=p[5])],
    "ode": lambda p: ["verify", "ode", *_opts(a=_csv(p[0]), b=_csv(p[1]), deg=p[2])],
    "qdiff": lambda p: ["verify", "qdiff", *_opts(qa=_csv(p[0]), qb=_csv(p[1]), q=p[2], deg=p[3])],
    "fock_trace": lambda p: ["fock", "verify", *_opts(suite="trace", r=r_spec(p[0]), n=p[1], deg=p[2])],
    "model_two": lambda p: ["model", "two", *_opts(n=p[0], deg=p[1])],
    "model_gw": lambda p: ["model", "gw", *_opts(n=p[0], x=_csv(p[1]), deg=p[2])],
    "model_unitary": lambda p: ["model", "unitary", *_opts(n=p[0], deg=p[1])],
    "model_loop": lambda p: ["model", "loop", *[f"--g={r_spec(g)}" for g in p[0]], *_opts(n=p[1], deg=p[2])],
    "model_quartic": lambda p: ["model", "quartic", *_opts(order=p[0]), "--check-oracle"],
}


def _side_value(side: tuple, lam) -> Fraction:
    if side[0] == "ta":
        return C.schur_weight_a(lam, side[1])
    if side[0] == "qgeo":
        return C.schur_q_geometric(lam, side[1])
    return F(1, C.hook_product(lam))


def _table_matches(got: dict, expect: dict) -> str:
    """Empty when the CLI's {"[..]": "num/den"} table equals ``expect``."""
    if set(got) != set(expect):
        missing = sorted(set(expect) - set(got))[:3]
        extra = sorted(set(got) - set(expect))[:3]
        return f"partition set differs: missing {missing} extra {extra}"
    for key, val in expect.items():
        if F(got[key]) != val:
            return f"coefficient {key}: {got[key]} != {C.frac(val)}"
    return ""


def _expected_table(p, kind: str) -> dict:
    if kind == "tau":
        D, r, n, t, u = p
        rf = r_fn(r)
        return {C.show(lam): C.content_product(rf, n, lam) * _side_value(t, lam) * _side_value(u, lam)
                for lam in C.partitions(D)}
    if kind == "two":
        a, b, M, xs, ys, D = p
        rf = C.rational(a, tuple(b) + (F(2 - M),))
        return {C.show(lam): C.content_product(rf, M, lam) * C.schur_at(lam, xs) * C.schur_at(lam, ys)
                for lam in C.partitions(D, 2)}
    if kind == "qphi":
        a, b, q, M, x, D = p
        rf = C.q_rational(a, b, q)
        return {C.show(lam): C.content_product(rf, M, lam) * x ** sum(lam) * C.schur_q_geometric(lam, q)
                for lam in C.partitions(D, 1)}
    if kind == "model_two":
        n, D = p
        table = {C.show(lam): C.content_product(C.linear, n, lam) for lam in C.partitions(D)}
        return {k: v for k, v in table.items() if v}
    if kind == "model_gw":
        n, xs, D = p
        rf = C.rational((), (F(0),))
        return {C.show(lam): C.content_product(rf, n, lam) * C.schur_at(lam, xs) / C.hook_product(lam)
                for lam in C.partitions(D, len(xs))}
    if kind == "model_unitary":
        n, D = p
        return {C.show(lam): F(1) for lam in C.partitions(D, n)}
    raise ValueError(kind)


def check_cli(kind: str):
    def check(p, raw) -> Outcome:
        rc, out, err = raw
        if rc != 0:
            return Outcome(False, why=f"exit {rc}: {err.strip()[:200]}")
        payload = json.loads(out)
        why = ""
        if kind in ("tau", "two", "qphi", "model_two", "model_gw", "model_unitary"):
            text = json.dumps(payload["coefficients"], sort_keys=True)
            why = _table_matches(payload["coefficients"], _expected_table(p, kind))
        elif kind == "tau_eigs":
            D, r, n, xs, ys = p
            got = payload["coefficients"]
            text = json.dumps(got, sort_keys=True)
            keys = [lam for lam in C.partitions(D, len(xs))]
            if set(got) != {C.show(lam) for lam in keys}:
                why = "partition set differs"
            else:
                rf = r_fn(r)
                # Jacobi-Trudi at five eigenvalues is slow in Fractions: spot-check
                for lam in random.Random(repr(p)).sample(keys, min(12, len(keys))):
                    want = C.content_product(rf, n, lam) * C.schur_at(lam, xs) * C.schur_at(lam, ys)
                    if F(got[C.show(lam)]) != want:
                        why = f"coefficient {C.show(lam)} differs"
                        break
        elif kind == "pfs":
            a, b, M, D = p
            got = payload["coefficients"]
            text = json.dumps(got, sort_keys=True)
            coeff = F(1)
            for d in range(D + 1):
                if d:
                    coeff *= F(1, d)
                    for x in a:
                        coeff *= x + M + d - 1
                    for y in b:
                        coeff /= y + M + d - 1
                if F(got[str(d)]) != coeff:
                    why = f"coefficient {d} differs"
                    break
        elif kind in ("ode", "qdiff"):
            text = json.dumps([[r["check"], r["pass"]] for r in payload["reports"]] + [payload["pass"]])
            why = "" if payload["pass"] else "residual not zero"
        elif kind == "fock_trace":
            text = json.dumps([payload["pass"], payload["counterexamples"]])
            why = "" if payload["pass"] else "graded trace differs from weight sum"
        elif kind == "model_loop":
            gs, n, D = p
            fns = [r_fn(g) for g in gs]
            want = [F(0)] * (D + 1)
            for lam in C.partitions(D):
                w = F(1)
                for fn in fns:
                    w *= C.content_product(fn, n, lam)
                want[sum(lam)] += w
            text = json.dumps(payload["graded_trace"])
            if [F(v) for v in payload["graded_trace"]] != want:
                why = "graded trace differs"
        elif kind == "model_quartic":
            text = json.dumps([payload["orders_in_N"], payload["wick_oracle_agrees"]], sort_keys=True)
            why = "" if payload["wick_oracle_agrees"] else "quartic series differs from Wick oracle"
        else:
            raise ValueError(kind)
        return Outcome(not why, text, why)

    return check


def run_rdecomp(p):
    r, n, lam = p
    rc = taukit.weights.RationalContent(r[1], r[2])
    return taukit.weights.rational_r_decomposition(rc, n, taukit.partitions.Partition(lam))


def check_rdecomp(p, rep):
    r, n, lam = p
    want = C.content_product(r_fn(r), n, lam)
    ok = rep["value"] == want
    return Outcome(ok, C.frac(rep["value"]), "" if ok else "decomposition value differs")


# mc-wick


def run_mc(p):
    ensemble, n, lam, mu, A, B, seed = p
    P = taukit.partitions.Partition
    fn = (taukit.oracle.mc_schur_unitary_identity if ensemble == "U"
          else taukit.oracle.mc_schur_ginibre_identity)
    return fn(P(lam), list(A), list(B), n, MC_SAMPLES, seed=seed, mu=None if mu is None else P(mu))


def mc_exact(p) -> Fraction:
    ensemble, n, lam, mu, A, B, _ = p
    if mu is None:
        val = C.schur_at(lam, A) * C.schur_at(lam, B)
    elif lam == mu:
        val = C.schur_at(lam, [a * b for a, b in zip(A, B)])
    else:
        return F(0)
    if ensemble == "U":
        return val / C.schur_ones(lam, n)
    return val * C.hook_product(lam)


def check_mc(p, rep):
    want = mc_exact(p)
    why = ""
    if F(rep["exact"]) != want:
        why = f"exact side {rep['exact']} != {C.frac(want)}"
    elif rep["samples"] != MC_SAMPLES:
        why = f"{rep['samples']} samples"
    # a 3-sigma miss is an outlier with its own budget, not a failed op
    outlier, zero_variance, z = C.mc_verdict(rep)
    return Outcome(not why, rep["exact"], why, outlier=outlier, z=z, zero_variance=zero_variance)


def run_wick(p):
    return taukit.oracle.wick_gaussian_moment(list(p[0]))


def check_wick(p, poly):
    powers = p[0]
    coeffs = [F(c) for c in poly.coeffs]
    why = ""
    if sum(coeffs) != C.double_factorial(sum(powers) - 1):
        why = "sum of coefficients (N = 1) != (T-1)!!"
    elif len(powers) == 1 and coeffs != [F(c) for c in C.harer_zagier(powers[0] // 2)]:
        why = "single trace differs from the Harer-Zagier recursion"
    return Outcome(not why, ",".join(map(C.frac, coeffs)), why)


def run_qwick(p):
    return taukit.oracle.quartic_wick_order(p[0])


def check_qwick(p, poly):
    # (-1)^k 4^k k! N^k q_k(N) = E[(Tr M^4)^k], which is (4k-1)!! at N = 1
    k = p[0]
    factorial = 1
    for i in range(2, k + 1):
        factorial *= i
    at_one = sum(F(c) for c in poly.coeffs) * (-4) ** k * factorial
    ok = at_one == C.double_factorial(4 * k - 1)
    return Outcome(ok, ",".join(C.frac(F(c)) for c in poly.coeffs), "" if ok else "order-k value at N = 1")


def _cli_kind(kind: str):
    argv = ARGV[kind]
    return (lambda p: _cli(argv(p))), check_cli(kind)


KINDS: dict[str, tuple[Callable, Callable]] = {
    "cauchy": (run_cauchy, _flag_and_poly("lhs == rhs")),
    "hirota": (run_hirota, _flag_and_poly("residual is_zero")),
    "symmetry": (run_symmetry, check_symmetry),
    "det": (run_det, _check_det),
    "deriv": (run_deriv, _check_det),
    "fock": (run_fock, _flag_and_poly("Fock pairing == as_polyseries")),
    **{kind: _cli_kind(kind) for kind in ARGV},
    "rdecomp": (run_rdecomp, check_rdecomp),
    "mc": (run_mc, check_mc),
    "wick": (run_wick, check_wick),
    "qwick": (run_qwick, check_qwick),
}

CLI_KINDS = frozenset(ARGV)


# -- the workloads -----------------------------------------------------------------


def _formal_round(r: int) -> list:
    return ([("cauchy", None)]
            + [(k, D) for k in ("hirota", "symmetry") for D in (5, 6, 7)]
            + [("det", (2, D)) for D in (6, 7, 8)] + [("det", (3, 6))]
            + [("deriv", (n, D)) for n in (2, 3) for D in (4, 5)]
            + [("fock", D) for D in (5, 6)])


# Round sizes are chosen so the latency quantiles fall inside a group of
# similar ops rather than on the edge between two groups: with N ops per
# round the median sits at rank N/2 and the 90th percentile 0.1 N from the
# top, so N is odd and 0.1 N lands mid-way into a stratum (formal 17 ops:
# p90 inside the second-costliest stratum; specialized 27: p50 among the
# light CLI commands, p90 on the two tau ops at D 11; mc-wick 9: p50 among
# the n = 2 checks and 12-half-edge Wick moments, p90 inside the unitary
# n = 3 checks).


def _specialized_round(r: int) -> list:
    strata = ([("tau", D) for D in (10, 11, 11, 12, 13)] + [("tau_eigs", None)] * 3
              + [(k, None) for k in ("fock_trace", "ode", "qdiff", "pfs", "qphi", "two",
                                     "model_two", "model_gw", "model_unitary", "model_loop")]
              + [("rdecomp", None)] * 9)
    if r < 2:
        strata.append(("model_quartic", r + 1))  # only orders 1 and 2 exist as distinct inputs
    return strata


def _mc_wick_round(r: int) -> list:
    strata = [("mc", (e, n)) for n in (2, 3) for e in ("U", "G")] + [("wick", T) for T in (8, 10, 10, 12, 12)]
    if r < 2:
        strata.append(("qwick", r + 1))
    return strata


@dataclass(frozen=True)
class Spec:
    name: str
    round_strata: Callable[[int], list]
    draw: Callable
    stated: dict  # degrees and sample counts, recorded with every result


WORKLOADS = {
    "formal": Spec("formal", _formal_round, _draw_formal, {
        "cauchy_truncated": "D 6-8, K = D + round // 3",
        "hirota_residual": "D 5, 6, 7", "symmetry_checks": "D 5, 6, 7",
        "det_rep_two_side": "N = 2 at D 6, 7, 8; N = 3 at D 6",
        "det_rep_derivatives": "n 2-3 at D 4-5", "fock_pairing": "D 5, 6",
        "r": "cycled: rational (non-integer a, b), linear|scale:c, one|scale:c; n in -1..2",
    }),
    "specialized": Spec("specialized", _specialized_round, _draw_specialized, {
        "tau ta/qgeo/inf": "D 10, 11, 11, 12, 13", "tau eigs (3-5 values)": "D 12-16, three per round",
        "hyper pfs|qphi|two": "D 10-14 | 8-12 | 6-8", "verify ode|qdiff": "D 200-400",
        "fock verify --suite trace": "D 10-14",
        "model two|gw|unitary|loop": "D 6-10", "model quartic --check-oracle": "order 1, 2 (rounds 0, 1)",
        "rational_r_decomposition": "|lambda| 1-10, nine per round",
    }),
    "mc-wick": Spec("mc-wick", _mc_wick_round, _draw_mc_wick, {
        "mc_schur_unitary/ginibre_identity": f"n 2 and 3, |lambda|,|mu| <= 3, {MC_SAMPLES} samples each",
        "wick_gaussian_moment": "8, 10 (x2) and 12 (x2) half-edges per round",
        "quartic_wick_order": "order 1, 2 (rounds 0, 1)",
    }),
}

DRAW_ATTEMPTS = 200


class OpStream:
    """The op sequence of one workload and seed, generated round by round.

    Op i depends only on (workload, seed, i): generation always starts at
    round 0 and redraws duplicates deterministically.
    """

    def __init__(self, workload: str, seed: int):
        self.spec = WORKLOADS[workload]
        self.rng = random.Random(f"taukit-bench/{workload}/{seed}")
        self.offset = self.rng.randrange(60)
        self.seen: set = set()
        self.exhausted: set = set()
        self.rounds: list[list[Op]] = []
        self.count = 0

    def round(self, r: int) -> list[Op]:
        while len(self.rounds) <= r:
            self._generate()
        return self.rounds[r]

    def _generate(self) -> None:
        r = len(self.rounds)
        ops = []
        for slot, (kind, stratum) in enumerate(self.spec.round_strata(r)):
            if (kind, stratum) in self.exhausted:
                continue
            for _ in range(DRAW_ATTEMPTS):
                params = self.spec.draw(kind, stratum, self.rng, r, self.offset + slot)
                if (kind, params) not in self.seen:
                    self.seen.add((kind, params))
                    ops.append((kind, params))
                    break
            else:  # this stratum's inputs are used up; it drops out
                self.exhausted.add((kind, stratum))
        self.rng.shuffle(ops)
        out = [Op(self.count + i, r, kind, params) for i, (kind, params) in enumerate(ops)]
        self.count += len(out)
        self.rounds.append(out)


def describe(op: Op) -> str:
    """One line naming the op, e.g. for a failure report."""
    if op.kind in CLI_KINDS:
        return "taukit " + " ".join(ARGV[op.kind](op.params))
    return f"{op.kind}{op.params}"
