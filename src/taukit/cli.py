"""Command-line front end.

Subcommands: tau, hyper (pfs|two|qphi), model (quartic|two|hciz|nmm|gw|
unitary|gen43|loop), fock, oracle (haar|ginibre|wick|mu), verify.  All exact
values are printed as "num/den" strings; floats appear only in Monte Carlo
and quadrature reports and always carry their error estimate.  Exit codes:
0 success, 1 verification failure (with counterexample), 2 usage error,
3 an oracle ran past its accuracy range (the message names the parameter
and the error estimate).
Every option value is converted while the command line is parsed, so a value
that does not parse exits 2 with a message naming its option, e.g.
"taukit tau: error: argument --t: invalid value 'ta:1/0' (zero denominator)".
The checks of verify are one table, CHECKS; every failing check names its
witness, and --poison takes the name of a check the command runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .partitions import Partition, enumerate_partitions
from .symfun import PolySeries, Times, _num_den, cauchy_truncated
from .tau import (
    Eigs,
    Formal,
    QGeo,
    TauSpec,
    TInf,
    WeightA,
    det_rep_two_side,
    hirota_residual,
    hyper_pfs,
    hyper_q,
    hyper_two_arg,
    ode_residual,
    q_difference_residual,
    symmetry_checks,
    tau_series,
)
from .weights import ContentPoleError, content_product, parse_content, pochhammer
from . import models as models_mod
from . import oracle as oracle_mod
from . import fock as fock_mod


def _list_of(parse):
    """Parser of a comma-separated list of ``parse`` values; blank is empty."""
    return lambda text: [parse(tok) for tok in text.strip().split(",")] if text.strip() else []


def _at_least(low: int, text: str) -> int:
    k = int(text)
    if k < low:
        raise ValueError(f"must be >= {low}")
    return k


def _positive(text: str) -> float:
    x = float(text)
    if not 0 < x < math.inf:
        raise ValueError("must be positive and finite")
    return x


def _unit_q(text: str) -> Fraction:
    q = Fraction(text)
    if not 0 < abs(q) < 1:
        raise ValueError("must satisfy 0 < |q| < 1")
    return q


def _bad_value(option: str, values, why) -> ValueError:
    """A value that parsed but fails once the command runs, reported as
    argparse reports a value that does not parse."""
    return ValueError(f"argument {option}: invalid value {_joined(values)!r} ({why})")


def _require(ok: bool, option: str, values, why) -> None:
    """Report ``values`` of ``option`` as a bad value unless ``ok``."""
    if not ok:
        raise _bad_value(option, values, why)


def _poles_name(option: str, values, fn, *args):
    """fn(*args), with a parameter pole reported as a bad value of ``option``."""
    try:
        return fn(*args)
    except ContentPoleError as exc:
        raise _bad_value(option, values, exc) from None


def _arg(parse):
    """argparse type running ``parse``: its ValueError or ArithmeticError
    becomes a usage error that argparse reports with the option's name."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ArithmeticError) as exc:
            why = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            raise argparse.ArgumentTypeError(f"invalid value {text!r} ({why})") from None

    return convert


def _joined(values) -> str:
    return ",".join(map(str, values))


def parse_side(spec: str):
    """Side syntax: "t:K" (formal; K is a non-negative integer, and the
    width of the formal block is --deg, not K), "eigs:1,1/2", "ta:3/2",
    "inf", "qgeo:1/3"."""
    if spec.startswith("t:"):
        _at_least(0, spec[len("t:"):])
        return Formal()
    if spec.startswith("eigs:"):
        return Eigs(_list_of(Fraction)(spec[len("eigs:"):]))
    if spec.startswith("ta:"):
        return WeightA(Fraction(spec[len("ta:"):]))
    if spec == "inf":
        return TInf()
    if spec.startswith("qgeo:"):
        return QGeo(Fraction(spec[len("qgeo:"):]))
    raise ValueError(f"unknown side spec {spec!r}")


def _strip_volatile(obj):
    """Drop wall-clock fields so the result digest depends only on content."""
    if isinstance(obj, dict):
        return {
            k: _strip_volatile(v)
            for k, v in obj.items()
            if k not in ("seconds", "wall_time")
        }
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _emit(args, payload: dict) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for key, val in payload.items():
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    writer.writerow([key, k2, v2])
            elif isinstance(val, list):
                for i, v2 in enumerate(val):
                    writer.writerow([key, i, v2])
            else:
                writer.writerow([key, val])
        out = buf.getvalue()
    else:
        out = json.dumps(payload, indent=2, default=str) + "\n"
    sys.stdout.write(out)
    if args.manifest:
        import hashlib

        canon = json.dumps(_strip_volatile(payload), sort_keys=True, default=str)
        digest = hashlib.sha256(canon.encode()).hexdigest()
        manifest = {
            "config": {
                k: v for k, v in vars(args).items() if k not in ("func", "manifest", "_t0")
            },
            "version": __version__,
            "wall_time": round(time.time() - args._t0, 6),
            "digest": digest,
        }
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
            fh.write("\n")


# -- subcommand handlers -----------------------------------------------------


def cmd_tau(args) -> int:
    spec = TauSpec(args.r, args.n, args.t, args.tstar)
    ts = tau_series(spec, args.deg)
    _emit(args, {"spec": spec.describe(), "deg": args.deg, "coefficients": ts.to_json()})
    return 0


def cmd_hyper_pfs(args) -> int:
    side = Formal() if args.x is None else Eigs(args.x)
    ts = _poles_name("--b", args.b, hyper_pfs, args.a, args.b, args.m, side, args.deg)
    if args.x == [1]:
        coeffs = {str(d): _num_den(c) for d, c in enumerate(ts.one_variable_coeffs())}
    else:
        coeffs = ts.to_json()
    _emit(args, {"family": "pFs", "a": _joined(args.a), "b": _joined(args.b), "M": args.m,
                 "coefficients": coeffs})
    return 0


def cmd_hyper_two(args) -> int:
    _require(len(args.y) == len(args.x), "--y", args.y, f"needs as many eigenvalues as --x, {len(args.x)}")
    ts = _poles_name("--b", args.b, hyper_two_arg, args.a, args.b, args.m, args.x, args.y, args.deg)
    _emit(args, {"family": "two-argument", "coefficients": ts.to_json()})
    return 0


def cmd_hyper_qphi(args) -> int:
    same = args.y is None or len(args.y) == len(args.x)
    _require(same, "--y", args.y, f"needs as many eigenvalues as --x, {len(args.x)}")
    ts = _poles_name("--b", args.b, hyper_q, args.a, args.b, args.q, args.m, args.x, args.y, args.deg)
    _emit(args, {"family": "qPhi", "q": str(args.q), "coefficients": ts.to_json()})
    return 0


def cmd_model(args) -> int:
    which = args.which
    if args.n < 0 and (which in ("unitary", "gw") or which == "gen43" and args.kind != "gw_unit"):
        raise _bad_value("--n", [args.n], "the length cap l(lambda) <= n needs n >= 0")
    if which == "quartic":
        ms = models_mod.quartic_series(args.order)
        payload = {"model": "quartic", "orders_in_N": ms.to_json()}
        if args.check_oracle:
            agree = all(
                ms.coefficient(k) == oracle_mod.quartic_wick_order(k)
                for k in range(1, args.order + 1)
            )
            payload["wick_oracle_agrees"] = agree
            if not agree:
                _emit(args, payload)
                return 1
        _emit(args, payload)
        return 0
    if which == "two":
        ts = models_mod.two_matrix_series(args.n, args.deg)
        _emit(args, {"model": "two-matrix", "n": args.n, "coefficients": ts.to_json()})
        return 0
    if which == "hciz":
        res = models_mod.hciz(args.n, args.deg)
        ok = res.matches()
        _emit(args, {"model": "hciz", "n": args.n, "deg": args.deg, "series_equals_determinant": ok})
        return 0 if ok else 1
    if which == "nmm":
        try:
            rep = models_mod.normal_matrix_map(Times.of(args.u), args.deg)
        except models_mod.VanishingMomentError as exc:
            raise _bad_value("--u", args.u, exc) from None
        _emit(args, {
            "model": "normal-matrix",
            "r_table": {str(k): _num_den(v) for k, v in sorted(rep["r_table"].items())},
            "h_moments": [_num_den(h) for h in rep["h_moments"]],
        })
        return 0
    if which == "gw":
        _require(len(args.x) <= args.n, "--x", args.x, f"needs at most --n {args.n} eigenvalues")
        ts = models_mod.gross_witten_series(args.n, args.x, args.deg)
        _emit(args, {"model": "gross-witten", "coefficients": ts.to_json()})
        return 0
    if which == "unitary":
        ts = models_mod.unitary_model_series(args.n, args.deg)
        _emit(args, {"model": "unitary", "coefficients": ts.to_json()})
        return 0
    if which == "gen43":
        needs = (("--a", args.a, ("hciz", "complex", "gw")), ("--rtilde", args.rtilde, ("gw", "gw_unit")))
        for option, value, kinds in needs:
            _require(value is not None or args.kind not in kinds, option, [], f"--kind {args.kind} needs a value")
        ts = models_mod.generalized_angle_integral(args.kind, args.r, args.n, args.deg, a=args.a, rt=args.rtilde)
        _emit(args, {"model": f"angle-integral/{args.kind}", "coefficients": ts.to_json()})
        return 0
    if which == "loop":
        vals = models_mod.loop_scalar_product(args.g, args.n, args.deg)
        _emit(args, {"model": "loop", "graded_trace": [_num_den(v) for v in vals]})
        return 0
    raise ValueError(which)


def cmd_fock(args) -> int:
    suite = args.suite
    report: dict = {"suite": suite}
    failures: list = []
    if suite == "heisenberg":
        for k, m in itertools.product([-3, -2, -1, 1, 2, 3], repeat=2):
            for lam in enumerate_partitions(2):
                cut = 2 + abs(k) + abs(m)
                v = fock_mod.FockVector.basis(lam, args.n, cut)
                a = fock_mod.FockOperator.H(m).apply(fock_mod.FockOperator.H(k).apply(v))
                b = fock_mod.FockOperator.H(k).apply(fock_mod.FockOperator.H(m).apply(v))
                comm = a + b.scaled(-1)
                expect = v.scaled(Fraction(m)) if k + m == 0 else fock_mod.FockVector({}, cut)
                if not (comm + expect.scaled(-1)).is_zero():
                    failures.append({"k": k, "m": m, "state": str(lam)})
    elif suite == "lemma1":
        for s in range(0, 4):
            for kk in range(0, s + 1):
                for i_list in itertools.combinations(range(8), s):
                    i_list = tuple(sorted(i_list, reverse=True))
                    for j_list in itertools.combinations(range(1, 8), kk):
                        j_list = tuple(sorted(j_list, reverse=True))
                        # the weight of the lemma's partition, read before it is built
                        if sum(i_list) + sum(j_list) - (s - kk) * (s - kk - 1) // 2 > args.deg:
                            continue
                        try:
                            fock_mod.lemma_partition(i_list, j_list)
                        except ValueError:
                            continue
                        rep = fock_mod.lemma1_check(i_list, j_list)
                        if not rep["ok"]:
                            failures.append({"i": i_list, "j": j_list})
    elif suite == "prop3":
        v = fock_mod.FockVector.vacuum(args.n, args.deg + 1)
        parts = list(enumerate_partitions(args.deg))
        bras = [fock_mod.schur_of_operators(lam, "H*", v) for lam in parts]
        kets = [fock_mod.schur_of_operators(mu, "-A", v, r=args.r) for mu in parts]
        for lam, a in zip(parts, bras):
            for mu, b in zip(parts, kets):
                got = fock_mod.pair(a, b)
                expect = content_product(args.r, args.n, lam) if lam == mu else Fraction(0)
                if got != expect:
                    failures.append({"lambda": str(lam), "mu": str(mu)})
    elif suite == "trace":
        got = fock_mod.trace_h0(args.r, args.n, args.deg)
        want = models_mod.loop_scalar_product([args.r], args.n, args.deg)
        for d, direct in enumerate(want):
            if got[d] != direct:
                failures.append({"degree": d, "fock": _num_den(got[d]), "weights": _num_den(direct)})
    else:
        raise ValueError(suite)
    report["pass"] = not failures
    report["counterexamples"] = failures
    _emit(args, report)
    return 0 if not failures else 1


def cmd_oracle(args) -> int:
    which = args.which
    if which == "haar":
        import numpy as np

        gen = oracle_mod.RngStream(args.seed, 0).gen
        U = oracle_mod.sample_haar_unitary(args.n, gen)
        dev = float(np.linalg.norm(U @ U.conj().T - np.eye(args.n)))
        _emit(args, {"oracle": "haar", "n": args.n, "unitarity_deviation": dev})
        return 0 if dev < 1e-12 else 1
    if which in ("ginibre", "unitary-mc"):
        for option, values in (("--A", args.A), ("--B", args.B)):
            _require(len(values) == args.n, option, values, f"needs --n {args.n} entries")
        for option, lam in (("--l", args.l), ("--mu", args.mu)):
            _require(lam is None or lam.length <= args.n, option, [lam], f"needs at most --n {args.n} parts")
        fn = (
            oracle_mod.mc_schur_ginibre_identity
            if which == "ginibre"
            else oracle_mod.mc_schur_unitary_identity
        )
        rep = fn(args.l, args.A, args.B, args.n, args.samples, seed=args.seed, mu=args.mu, sigma=args.sigma)
        _emit(args, rep)
        return 0 if rep["pass"] else 1
    if which == "wick":
        powers = _joined(args.powers)
        try:
            poly = oracle_mod.wick_gaussian_moment(args.powers)
        except ValueError as exc:
            raise ValueError(f"--powers {powers!r}: {exc}") from None
        _emit(args, {
            "oracle": "wick",
            "powers": powers,
            "N_polynomial": [_num_den(c) for c in poly.coeffs],
            "note": "multiply by (N g)^(-sum/2) for the quartic propagator",
        })
        return 0
    if which == "mu":
        n, m = args.moment, args.moment2 if args.moment2 is not None else args.moment
        est = 0.0
        if args.contour == "imag":
            try:
                target = -2j * math.pi * math.factorial(n) if n == m else 0j
            except OverflowError:
                raise _bad_value("--moment", [n], "the target -2 pi i n! overflows a float") from None
            val, est = oracle_mod._real_imaginary_limit(n, m, 1e-4)
            report = {"n": n, "m": m, "value": str(val), "target": str(target)}
        elif args.contour == "circle":
            val = oracle_mod.moment_circle(n, m)
            target = -4 * math.pi**2 / math.factorial(n) if n == m else 0.0
            report = {"n": n, "m": m, "value": str(val)}
        elif args.contour == "unit":
            a = args.a_param
            try:
                val, est = oracle_mod._unit_interval(n, a)
            except ValueError as exc:
                raise ValueError(f"--a-param {_num_den(a)}: {exc}") from None
            target = float(
                Fraction(1) / (1 - a) * math.factorial(n) / pochhammer(2 - a, n)
            )
            report = {"n": n, "a": str(a), "value": val, "target": target}
        else:
            try:
                val, est = oracle_mod._halfline_pfs(n, args.A, args.B)
            except ValueError as exc:
                raise _bad_value("--A", args.A, exc) from None
            except oracle_mod.DivergenceError as exc:
                raise oracle_mod.DivergenceError(f"--moment {n}: {exc}") from None
            target = float(oracle_mod.halfline_exact(n, args.A, args.B))
            report = {"n": n, "value": val, "target": target}
        scale = max(abs(target), 1.0)
        if not (rel := est / scale) <= args.tol:  # a nan estimate is past the range too
            raise oracle_mod.DivergenceError(
                f"--moment {n}: the {args.contour} quadrature's relative error estimate "
                f"{oracle_mod._two_digits(rel)} exceeds --tol {args.tol:g}"
            )
        err = abs(val - target) / scale
        _emit(args, {"contour": args.contour, **report, "rel_error": err})
        return 0 if err < args.tol else 1
    raise ValueError(which)


def _witness(got, want, left: str, right: str) -> str:
    """The first monomial, degree or flag where a check's two sides differ,
    with the value each side gives it; a residual also counts its nonzero
    entries."""
    if isinstance(got, PolySeries):
        what, keys = "monomial", sorted((got - want).terms)
        value = lambda side, e: _num_den(side.coefficient(e))  # noqa: E731
    elif isinstance(got, dict):
        what, keys, value = "flag", [k for k in got if got[k] != want[k]], dict.get
    else:
        what, keys = "degree", [i for i, v in enumerate(got) if v != want[i]]
        value = lambda side, i: _num_den(side[i])  # noqa: E731
    e = keys[0]
    text = f"first differing {what} {e}: {left} {value(got, e)} != {right} {value(want, e)}"
    return f"nonzero residual {what}s: {len(keys)}; {text}" if left == "residual" else text


def _poisoned(name: str, value, deg: int):
    """The fault --poison injects: x_1 added to a series whose ring holds it,
    else the constant 1, 1 added to the first coefficient of a residual list
    and the first flag of a flag dict cleared; a check that compares nothing
    at this degree has no room for it."""
    if isinstance(value, dict):
        return {**value, next(iter(value)): False}
    if isinstance(value, list) and value:
        return [value[0] + 1] + value[1:]
    if isinstance(value, PolySeries) and value.ring.cap >= 0:
        ring = value.ring
        return value + (ring.var(0) if ring.nvars() and ring.weights[0] <= ring.cap else 1)
    raise ValueError(f"--deg {deg}: the {name} check compares no coefficient, "
                     "so --poison has nothing to change")


def _residual(res) -> tuple:
    """A residual series or coefficient list against its zero."""
    zero = res.ring.zero() if isinstance(res, PolySeries) else [0] * len(res)
    return res, zero, "residual", "expected"


# The checks of `verify`, in the order `verify all` runs them:
# name -> run(args) -> (got, want, left label, right label).
CHECKS = {
    "cauchy": lambda a: (*cauchy_truncated(a.deg), "exponential", "Schur sum"),
    "hirota": lambda a: _residual(hirota_residual(a.r, a.n, a.deg)),
    "ode": lambda a: _residual(_poles_name("--b", a.b, ode_residual, a.a, a.b, a.deg)),
    "qdiff": lambda a: _residual(_poles_name("--qb", a.qb, q_difference_residual, a.qa, a.qb, a.q, a.deg)),
    "det": lambda a: ((res := det_rep_two_side(a.r, a.n, a.n, a.deg)).lhs, res.rhs, "series", "determinant"),
    "symmetry": lambda a: ((rep := symmetry_checks(a.r, a.n, a.deg)), dict.fromkeys(rep, True), "holds", "expected"),
}


def _judge(name: str, args) -> dict:
    """Run one check, poison it if asked, compare its sides and name the
    witness of a failure; a flag dict that passes reports its flags."""
    t0 = time.time()
    got, want, left, right = CHECKS[name](args)
    if args.poison == name:
        got = _poisoned(name, got, args.deg)
    ok = got == want
    if not ok:
        detail = _witness(got, want, left, right)
    else:
        detail = str(got) if isinstance(got, dict) else ""
    return {"check": name, "pass": ok, "detail": detail, "seconds": round(time.time() - t0, 3)}


def _mc_identities(args) -> dict:
    """The Monte Carlo block of `verify all --profile full`: both ensembles'
    Schur identities for |lambda| <= 2, one 3-sigma outlier tolerated."""
    t0 = time.time()
    fails = 0
    for lam in enumerate_partitions(2):
        if lam.weight == 0:
            continue
        for fn in (oracle_mod.mc_schur_unitary_identity, oracle_mod.mc_schur_ginibre_identity):
            rep = fn(lam, [Fraction(1), Fraction(1, 2)], [Fraction(1), Fraction(1, 3)], 2,
                     args.samples, seed=args.seed)
            fails += not rep["pass"]
    return {"check": "mc-identities", "pass": fails <= 1, "detail": f"{fails} failures",
            "seconds": round(time.time() - t0, 3)}


def cmd_verify(args) -> int:
    names = list(CHECKS) if args.what == "all" else [args.what]
    if "det" in names and args.n < 1:  # the other checks take any charge
        raise _bad_value("--n", [args.n], "the det check needs n >= 1 eigenvalues on each side")
    if args.poison not in (None, *names):
        raise ValueError(f"--poison {args.poison}: verify {args.what} does not run that check")
    reports = [_judge(n, args) for n in names]
    if args.what == "all" and args.profile == "full":
        reports.append(_mc_identities(args))
    payload = {"reports": reports, "pass": all(r["pass"] for r in reports)}
    _emit(args, payload)
    return 0 if payload["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    fracs, ints, frac, unit_q = _arg(_list_of(Fraction)), _arg(_list_of(int)), _arg(Fraction), _arg(_unit_q)
    content, side, partition = _arg(parse_content), _arg(parse_side), _arg(Partition.parse)
    nonneg, positive_int = _arg(functools.partial(_at_least, 0)), _arg(functools.partial(_at_least, 1))
    samples = _arg(functools.partial(_at_least, 2))
    positive = _arg(_positive)
    p = argparse.ArgumentParser(prog="taukit", description=__doc__)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--manifest", help="write a run manifest (config + digest) to this file")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tau", help="truncated tau series")
    sp.add_argument("--r", type=content, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=side, required=True)
    sp.add_argument("--tstar", type=side, required=True)
    sp.add_argument("--deg", type=nonneg, required=True)
    sp.set_defaults(func=cmd_tau)

    hyper = sub.add_parser("hyper", help="hypergeometric families").add_subparsers(
        dest="family", required=True
    )
    hp = hyper.add_parser("pfs")
    hp.add_argument("--a", type=fracs, default="")
    hp.add_argument("--b", type=fracs, default="")
    hp.add_argument("--m", type=int, default=0)
    hp.add_argument("--x", type=fracs, default=None)
    hp.add_argument("--deg", type=nonneg, required=True)
    hp.set_defaults(func=cmd_hyper_pfs)
    ht = hyper.add_parser("two")
    ht.add_argument("--a", type=fracs, default="")
    ht.add_argument("--b", type=fracs, default="")
    ht.add_argument("--m", type=int, default=0)
    ht.add_argument("--x", type=fracs, required=True)
    ht.add_argument("--y", type=fracs, required=True)
    ht.add_argument("--deg", type=nonneg, required=True)
    ht.set_defaults(func=cmd_hyper_two)
    hq = hyper.add_parser("qphi")
    hq.add_argument("--a", type=ints, default="")
    hq.add_argument("--b", type=ints, default="")
    hq.add_argument("--q", type=unit_q, required=True)
    hq.add_argument("--m", type=int, default=0)
    hq.add_argument("--x", type=fracs, required=True)
    hq.add_argument("--y", type=fracs, default=None)
    hq.add_argument("--deg", type=nonneg, required=True)
    hq.set_defaults(func=cmd_hyper_qphi)

    mp = sub.add_parser("model", help="matrix-model series")
    mp.add_argument("which", choices=["quartic", "two", "hciz", "nmm", "gw", "unitary", "gen43", "loop"])
    mp.add_argument("--order", type=positive_int, default=2)
    mp.add_argument("--deg", type=nonneg, default=6)
    mp.add_argument("--n", type=int, default=2)
    mp.add_argument("--u", type=fracs, default="")
    mp.add_argument("--x", type=fracs, default="")
    mp.add_argument("--r", type=content, default="one")
    mp.add_argument("--rtilde", type=content, default=None)
    mp.add_argument("--a", type=frac, default=None)
    mp.add_argument("--kind", default="hciz", choices=["hciz", "complex", "gw", "gw_unit"])
    mp.add_argument("--g", type=content, action="append", default=[])
    mp.add_argument("--check-oracle", action="store_true")
    mp.set_defaults(func=cmd_model)

    fp = sub.add_parser("fock", help="Fock-space verification suites")
    fsub = fp.add_subparsers(dest="fockcmd", required=True)
    fv = fsub.add_parser("verify")
    fv.add_argument("--suite", required=True, choices=["heisenberg", "lemma1", "prop3", "trace"])
    fv.add_argument("--r", type=content, default="one")
    fv.add_argument("--n", type=int, default=0)
    fv.add_argument("--deg", type=nonneg, default=4)
    fv.set_defaults(func=cmd_fock)

    op = sub.add_parser("oracle", help="Monte Carlo / Wick / quadrature oracles")
    op.add_argument("which", choices=["haar", "unitary-mc", "ginibre", "wick", "mu"])
    op.add_argument("--n", type=positive_int, default=2)
    op.add_argument("--l", type=partition, default="[1]")
    op.add_argument("--mu", type=partition, default=None)
    op.add_argument("--A", type=fracs, default="1,1/2")
    op.add_argument("--B", type=fracs, default="1,1/3")
    op.add_argument("--samples", type=samples, default=100000)
    op.add_argument("--seed", type=nonneg, default=0)
    op.add_argument("--sigma", type=positive, default=3.0)
    op.add_argument("--powers", type=ints, default="4")
    op.add_argument("--contour", default="imag",
                    choices=["imag", "circle", "unit", "halfline"])
    op.add_argument("--moment", type=nonneg, default=1)
    op.add_argument("--moment2", type=nonneg, default=None)
    op.add_argument("--a-param", type=frac, default="-1",
                    help="exponent parameter for the unit-interval measure")
    op.add_argument("--tol", type=positive, default=1e-6)
    op.set_defaults(func=cmd_oracle)

    vp = sub.add_parser("verify", help="identity verification suites")
    vp.add_argument("what", choices=[*CHECKS, "all"])
    vp.add_argument("--deg", type=nonneg, default=6)
    vp.add_argument("--n", type=int, default=1)
    vp.add_argument("--r", type=content, default="rational:a=2")
    vp.add_argument("--a", type=fracs, default="1/2,1/3")
    vp.add_argument("--b", type=fracs, default="5/4")
    vp.add_argument("--qa", type=ints, default="1,2")
    vp.add_argument("--qb", type=ints, default="3")
    vp.add_argument("--q", type=unit_q, default="1/3")
    vp.add_argument("--profile", choices=["fast", "full"], default="fast",
                    help="full adds the Monte Carlo identity block to 'all'")
    vp.add_argument("--samples", type=samples, default=20000)
    vp.add_argument("--seed", type=nonneg, default=0)
    vp.add_argument("--poison", choices=list(CHECKS), default=None,
                    help="inject a fault into the named check (negative-path testing)")
    vp.set_defaults(func=cmd_verify)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: its tree does not depend on argv, so it is
    built on the first call of ``main`` and reused."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._t0 = time.time()
    try:
        return args.func(args)
    except oracle_mod.DivergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
