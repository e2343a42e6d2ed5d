import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import taukit
from taukit import cli
from taukit.cli import main, parse_side
from taukit.tau import Eigs, Formal, QGeo, TInf, WeightA


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_side():
    assert isinstance(parse_side("t:4"), Formal)
    assert isinstance(parse_side("inf"), TInf)
    assert isinstance(parse_side("ta:3/2"), WeightA)
    assert isinstance(parse_side("qgeo:1/3"), QGeo)
    e = parse_side("eigs:1,1/2")
    assert isinstance(e, Eigs) and len(e.xs) == 2
    with pytest.raises(ValueError):
        parse_side("wat:1")


def test_hyper_pfs_exponential(capsys):
    code, out = run_cli(capsys, "hyper", "pfs", "--a", "", "--b", "", "--x", "1", "--deg", "5")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == {
        "0": "1/1", "1": "1/1", "2": "1/2", "3": "1/6", "4": "1/24", "5": "1/120",
    }


def test_tau_subcommand(capsys):
    code, out = run_cli(
        capsys, "tau", "--r", "linear", "--n", "1", "--t", "t:4", "--tstar", "t:4", "--deg", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"]["[4]"] == "24/1"
    code, out = run_cli(
        capsys, "tau", "--r", "rational:a=1/2;b=3", "--n", "1", "--t", "eigs:1/2,3", "--tstar", "ta:2",
        "--deg", "2",
    )
    assert json.loads(out)["spec"] == (
        "tau(r=RationalContent(a=[1/2], b=[3/1]), n=1, t=eigs([1/2, 3/1]), t*=t(a=2/1))"
    )
    # the lambda = (4) entry reproduces the quartic t4 (t2*)^2 bookkeeping:
    # weight (1)_(4) = 4! on the single-row series at charge 1


def test_verify_cauchy_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "cauchy", "--deg", "6")
    assert code == 0
    assert json.loads(out)["pass"] is True


POISON_WITNESS = {
    "cauchy": "first differing monomial (1, 0, 0, 0, 0, 0, 0, 0): exponential 1/1 != Schur sum 0/1",
    "hirota": "nonzero residual monomials: 1; first differing monomial (1, 0, 0, 0, 0, 0, 0, 0): "
              "residual 1/1 != expected 0/1",
    "ode": "nonzero residual degrees: 1; first differing degree 0: residual 1/1 != expected 0/1",
    "qdiff": "nonzero residual degrees: 1; first differing degree 0: residual 1/1 != expected 0/1",
    "det": "first differing monomial (1, 0): series 1/1 != determinant 0/1",
    "symmetry": "first differing flag swap: holds False != expected True",
}


def test_verify_poison_exits_one(capsys):
    # a failing check names its first differing monomial with both values
    for check, witness in POISON_WITNESS.items():
        code, out = run_cli(capsys, "verify", check, "--deg", "4", "--poison", check)
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        assert data["reports"][0]["detail"] == witness


@pytest.mark.parametrize("check", list(cli.CHECKS))
def test_verify_poison_fails_at_every_degree(capsys, check):
    # the injected fault shows at every degree and names its witness; where
    # the check compares no coefficient at all (both sides empty, as the
    # Hirota residual and the residual lists are at degree 0) there is
    # nothing to poison, which exits 2 naming --deg
    got, want, *_ = cli.CHECKS[check](cli.build_parser().parse_args(["verify", check, "--deg", "0"]))
    empty_at_zero = not (got or want)
    for what in (check, "all"):
        for deg in ("0", "1", "2"):
            code = main(["verify", what, "--deg", deg, "--poison", check])
            out, err = capsys.readouterr()
            if deg == "0" and empty_at_zero:
                assert (code, out) == (2, ""), (what, deg)
                assert err.startswith("error: --deg 0:") and "Traceback" not in err, err
            else:
                assert code == 1 and err == "", (what, deg, err)
                reports = [r for r in json.loads(out)["reports"] if r["check"] == check]
                assert [r["pass"] for r in reports] == [False], (what, deg)
                assert "first differing" in reports[0]["detail"], (what, deg)


@pytest.mark.parametrize("argv", [
    ["verify", "cauchy", "--deg", "3", "--poison", "nosuch"],
    ["verify", "cauchy", "--deg", "3", "--poison", "hirota"],
])
def test_verify_poison_of_a_check_not_run_exits_two(capsys, argv):
    # a poison that would change nothing is a usage error, not a pass
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--poison" in err, err


def test_verify_all_fast(capsys):
    code, out = run_cli(capsys, "verify", "all", "--deg", "5")
    assert code == 0
    data = json.loads(out)
    assert [r["check"] for r in data["reports"]] == [
        "cauchy", "hirota", "ode", "qdiff", "det", "symmetry",
    ]
    assert data["pass"] is True


def test_verify_degree_zero_exits_zero(capsys):
    # no bidegree <= -1 to compare: the Hirota residual is empty, and the
    # determinant identity holds for the constant term alone
    for check in ("hirota", "det", "all"):
        code, out = run_cli(capsys, "verify", check, "--deg", "0")
        assert code == 0 and json.loads(out)["pass"] is True
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("profile, digest", [
    ("fast", "92e19310859156fd43e15b2a0b7879c405da361292dd65c8a5e72e8c46e10969"),
    ("full", "179bdd9a35ba56de7f98594aaacf8af0895b74b3a014824c79985c06be64020d"),
])
def test_verify_all_manifest_digest_is_pinned(tmp_path, capsys, profile, digest):
    mpath = tmp_path / "m.json"
    code, _ = run_cli(capsys, "--manifest", str(mpath), "verify", "all", "--deg", "6", "--profile", profile)
    assert code == 0
    assert json.loads(mpath.read_text())["digest"] == digest


def test_byte_stable_output(capsys):
    _, out1 = run_cli(capsys, "tau", "--r", "one", "--n", "0", "--t", "t:3", "--tstar", "t:3", "--deg", "3")
    _, out2 = run_cli(capsys, "tau", "--r", "one", "--n", "0", "--t", "t:3", "--tstar", "t:3", "--deg", "3")
    assert out1 == out2


def test_manifest_digest(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    run_cli(capsys, "--manifest", str(mpath), "verify", "cauchy", "--deg", "5")
    m1 = json.loads(mpath.read_text())
    run_cli(capsys, "--manifest", str(mpath), "verify", "cauchy", "--deg", "5")
    m2 = json.loads(mpath.read_text())
    assert m1["digest"] == m2["digest"]
    assert m1["config"] == m2["config"]
    assert m1["config"]["deg"] == 5
    assert "version" in m1


def test_usage_error_exit_two(capsys):
    code = main(["tau", "--r", "nonsense:1", "--n", "0", "--t", "t:2", "--tstar", "t:2", "--deg", "2"])
    assert code == 2
    code = main(["no-such-command"])
    assert code == 2
    for q in ("1", "2", "0", "-1"):
        code = main(["tau", "--r", "one", "--n", "0", "--t", "ta:1", "--tstar", f"qgeo:{q}", "--deg", "2"])
        assert code == 2 and f"q={q}/1" in capsys.readouterr().err


def test_oracle_mc_bad_input_exit_two(capsys):
    code = main(["oracle", "unitary-mc", "--samples", "0"])
    assert code == 2 and "samples" in capsys.readouterr().err
    code = main(["oracle", "ginibre", "--A", "1,1/2,1/4"])
    assert code == 2 and "A and B" in capsys.readouterr().err


def test_csv_format(capsys):
    code, out = run_cli(
        capsys, "--format", "csv", "hyper", "pfs", "--a", "", "--b", "", "--x", "1", "--deg", "2"
    )
    assert code == 0
    assert "coefficients,0,1/1" in out.replace("\r", "")


def test_fock_suites(capsys):
    code, out = run_cli(capsys, "fock", "verify", "--suite", "trace", "--r", "rational:a=1", "--n", "0", "--deg", "4")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run_cli(capsys, "fock", "verify", "--suite", "heisenberg", "--n", "0")
    assert code == 0 and json.loads(out)["pass"] is True


def test_oracle_wick_cli(capsys):
    code, out = run_cli(capsys, "oracle", "wick", "--powers", "4")
    assert code == 0
    data = json.loads(out)
    assert data["N_polynomial"] == ["0/1", "1/1", "0/1", "2/1"]
    # E[Tr M^0 Tr M^2] = N^3
    code, out = run_cli(capsys, "oracle", "wick", "--powers", "0,2")
    assert code == 0 and json.loads(out)["N_polynomial"] == ["0/1", "0/1", "0/1", "1/1"]
    # 2 027 025 = 15!! pairings, each worth 1 at N = 1
    code, out = run_cli(capsys, "oracle", "wick", "--powers", "4,4,4,4")
    assert code == 0
    assert sum(Fraction(c) for c in json.loads(out)["N_polynomial"]) == 2027025


def test_oracle_wick_bad_powers_exit_two(capsys):
    for powers in ("--powers=-2,4", "--powers=a"):
        code = main(["oracle", "wick", powers])
        assert code == 2 and "--powers" in capsys.readouterr().err, powers


def test_model_quartic_cli(capsys):
    code, out = run_cli(capsys, "model", "quartic", "--order", "1", "--check-oracle")
    assert code == 0
    data = json.loads(out)
    assert data["wick_oracle_agrees"] is True
    assert data["orders_in_N"]["1"] == ["-1/4", "0/1", "-1/2"]


def test_model_loop_cli(capsys):
    code, out = run_cli(capsys, "model", "loop", "--g", "one", "--n", "0", "--deg", "4")
    assert code == 0
    assert json.loads(out)["graded_trace"] == ["1/1", "1/1", "2/1", "3/1", "5/1"]


def test_routing_table_covers_every_operation():
    # every module operation is reachable from exactly one subcommand
    from taukit.cli import build_parser

    parser = build_parser()
    subs = {a.dest: a for a in parser._subparsers._group_actions}["command"]
    assert set(subs.choices) == {"tau", "hyper", "model", "fock", "oracle", "verify"}
    hyper = {a.dest: a for a in subs.choices["hyper"]._subparsers._group_actions}["family"]
    assert set(hyper.choices) == {"pfs", "two", "qphi"}
    model_choices = next(
        a for a in subs.choices["model"]._actions if a.dest == "which"
    ).choices
    assert set(model_choices) == {
        "quartic", "two", "hciz", "nmm", "gw", "unitary", "gen43", "loop",
    }
    oracle_choices = next(
        a for a in subs.choices["oracle"]._actions if a.dest == "which"
    ).choices
    assert set(oracle_choices) == {"haar", "unitary-mc", "ginibre", "wick", "mu"}
    verify_choices = next(
        a for a in subs.choices["verify"]._actions if a.dest == "what"
    ).choices
    assert set(verify_choices) == {
        "cauchy", "hirota", "ode", "qdiff", "det", "symmetry", "all",
    }


TAU = ["tau", "--n", "0", "--deg", "2"]

# (option the message must name, argv); every value fails to parse or is out of range
BAD_INPUTS = [
    ("--a", ["hyper", "pfs", "--a", "1/2,y", "--deg", "2"]),
    ("--b", ["hyper", "pfs", "--b", "1/0", "--deg", "2"]),
    ("--x", ["hyper", "two", "--x", "1,z", "--y", "1", "--deg", "2"]),
    ("--y", ["hyper", "two", "--x", "1", "--y", "q", "--deg", "2"]),
    ("--a", ["hyper", "qphi", "--a", "x", "--q", "1/3", "--x", "1", "--deg", "2"]),
    ("--q", ["hyper", "qphi", "--q", "1/0", "--x", "1", "--deg", "2"]),
    ("--t", TAU + ["--r", "one", "--t", "ta:1/0", "--tstar", "t:2"]),
    ("--tstar", TAU + ["--r", "one", "--t", "t:2", "--tstar", "eigs:1,x"]),
    ("--r", TAU + ["--r", "one|shift:x", "--t", "t:2", "--tstar", "t:2"]),
    ("--r", TAU + ["--r", "table:{1:x}", "--t", "t:2", "--tstar", "t:2"]),
    ("--u", ["model", "nmm", "--u", "a"]),
    ("--rtilde", ["model", "gen43", "--kind", "gw", "--rtilde", "qrational:a=1;c=2;q=1/2"]),
    ("--a", ["model", "gen43", "--a", "x"]),
    ("--g", ["model", "loop", "--g", "rational:a=1/0"]),
    ("--r", ["fock", "verify", "--suite", "trace", "--r", "rational:a=x"]),
    ("--l", ["oracle", "ginibre", "--l", "[x]"]),
    ("--mu", ["oracle", "ginibre", "--mu", "[1,x]"]),
    ("--A", ["oracle", "ginibre", "--A", "1,w"]),
    ("--a-param", ["oracle", "mu", "--contour", "unit", "--a-param", "x"]),
    ("--moment", ["oracle", "mu", "--moment", "-1"]),
    ("--moment2", ["oracle", "mu", "--moment2", "-2"]),
    ("--q", ["verify", "qdiff", "--q", "1/0"]),
    ("--qa", ["verify", "qdiff", "--qa", "1,b"]),
    ("--qb", ["verify", "qdiff", "--qb", "x"]),
    ("--a", ["verify", "ode", "--a", "1/2,/"]),
    ("--r", ["verify", "det", "--r", "rational:a=2|scale:1/0"]),
    ("--samples", ["verify", "all", "--profile", "full", "--samples", "1"]),
    ("--samples", ["oracle", "ginibre", "--samples", "1"]),
    ("--seed", ["verify", "all", "--profile", "full", "--seed", "-1"]),
    ("--seed", ["oracle", "unitary-mc", "--seed", "-1"]),
    ("--tol", ["oracle", "mu", "--tol", "-1"]),
    ("--sigma", ["oracle", "ginibre", "--sigma", "0"]),
    ("--sigma", ["oracle", "ginibre", "--sigma", "nan"]),
    ("--q", ["verify", "qdiff", "--q=1"]),
    ("--q", ["verify", "qdiff", "--q=2"]),
    ("--q", ["hyper", "qphi", "--q=-1", "--x", "1", "--deg", "2"]),
    # parameter poles of the one-variable recurrences, met once the command runs
    ("--b", ["verify", "ode", "--b=0"]),
    ("--qb", ["verify", "qdiff", "--qb=-2"]),
]


@pytest.mark.parametrize("option, argv", BAD_INPUTS, ids=[" ".join(a) for _, a in BAD_INPUTS])
def test_bad_value_exits_two_naming_its_option(capsys, option, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid value" in err, err


NEGATIVE_DEG = [
    ["tau", "--r", "one", "--n", "0", "--t", "t:2", "--tstar", "t:2"],
    ["hyper", "pfs", "--x", "1"],
    ["hyper", "two", "--x", "1", "--y", "1"],
    ["hyper", "qphi", "--q", "1/2", "--x", "1"],
    ["model", "quartic"],
    ["fock", "verify", "--suite", "trace"],
    *(["verify", what] for what in ("cauchy", "hirota", "ode", "qdiff", "det", "symmetry", "all")),
]


@pytest.mark.parametrize("argv", NEGATIVE_DEG, ids=[" ".join(w for w in a[:2] if w[0] != "-") for a in NEGATIVE_DEG])
def test_negative_deg_exits_two_naming_deg(capsys, argv):
    assert main([*argv, "--deg", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --deg: invalid value '-1' (must be >= 0)" in err, err


@pytest.mark.parametrize("a", ["1", "3/2", "2"])
def test_oracle_mu_unit_diverging_a_exits_two(capsys, a):
    assert main(["oracle", "mu", "--contour", "unit", f"--a-param={a}"]) == 2
    assert "--a-param" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--moment", "0"], ["--moment", "1"], ["--moment", "3"],  # the defaults --A 1,1/2 --B 1,1/3
    ["--moment", "1", "--A=4,3", "--B=1"],  # p > s
])
def test_oracle_mu_halfline_outside_the_mellin_strip_exits_two(capsys, argv):
    assert main(["oracle", "mu", "--contour", "halfline", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --A: invalid value" in err and "Mellin strip" in err, err
    assert main(["oracle", "mu", "--contour", "halfline", "--moment", "1", "--A=4", "--B=3/2"]) == 0


def test_oracle_haar_bad_size_exits_two(capsys):
    assert main(["oracle", "haar", "--n", "-1"]) == 2
    assert "n=-1" in capsys.readouterr().err


# sha256 of stdout, recorded before the options were converted by argparse
GOLDEN_STDOUT = [
    ("401eee47a654d25e5e924908b0d69b2d18ab5dc1c5d8ed426a43de3da8cfcc42",
     ["tau", "--r", "rational:a=1/2;b=3", "--n", "1", "--t", "eigs:1/2,3", "--tstar", "ta:2", "--deg", "3"]),
    ("8680f3f8f98665690f9cde76523ac933fc94be90b9a93d138ca6c68f53d2c83a",
     ["tau", "--r", "linear|shift:1", "--n", "0", "--t", "t:3", "--tstar", "qgeo:1/3", "--deg", "3"]),
    ("5dc82f49aa859ed0bb6d5bb16eee178397edca4c546e450749b78f8c50a989e2",
     ["hyper", "pfs", "--a", "1/2,1/3", "--b", "5/4", "--x", "1", "--deg", "6"]),
    ("0f2b7cfcc73a24af4de78aaf902722af000202a087fe5e63a89605deb5b729e1",
     ["hyper", "pfs", "--a", "1/2", "--deg", "3"]),
    ("fe0d28d1a4fc01a0bf1239f55e7436499e207c5069a19a778ec44655f903ec8b",
     ["hyper", "two", "--a", "1/2", "--x", "1/2,1/5", "--y", "1/3,1/7", "--deg", "3"]),
    ("e03bd4ec8a2a24061e0a139804164da8b6aa4727ff9c473f4763267f00489020",
     ["hyper", "qphi", "--a", "1,2", "--b", "3", "--q", "1/3", "--x", "1", "--deg", "4"]),
    ("ea6882c512d01cc75f043993d8ff3f5ee89020af0a1894ad20968506218de571",
     ["hyper", "qphi", "--a", "1", "--q=-1/2", "--x", "1/2", "--y", "1", "--deg", "3"]),
    ("f67db6ea8d69f85b2241a8eebc55ff038cfb6bb3631bb43606e4962c6337ddec",
     ["model", "gen43", "--kind", "gw", "--r", "rational:a=1/2", "--rtilde", "qrational:a=1;b=2;q=1/3",
      "--a", "3/2", "--n", "2", "--deg", "3"]),
    ("f1af33edde3171b2312da93791000d006058c72742a0a893fada4e42ee0ff155",
     ["model", "loop", "--g", "one", "--g", "rational:a=1/2|scale:2", "--n", "1", "--deg", "4"]),
    ("28b07a7ca668df1043d69931dc205c568cc9c210d22fbb92a641c5e47e191443",
     ["fock", "verify", "--suite", "trace", "--r", "table:{-3:1,-2:2,-1:1/3,0:1,1:2,2:1/3,3:5}",
      "--n", "0", "--deg", "4"]),
    ("f1e3f5a37934334c999441c8af934a27c9a7125bfb613316674a20d53f63d3e7",
     ["oracle", "wick", "--powers", "4,2"]),
    ("5a6c2f0c987d070bb522e37274a03cf061d088ae17673895eaf5e30708bd13a8",
     ["oracle", "mu", "--contour", "unit", "--moment", "2", "--a-param=-2"]),
    ("21070d6fff2e8ecb7517c38a4509a92b8370759e0623b40229a2926caac25835",
     ["--format", "csv", "hyper", "pfs", "--a", "1/2,1/3", "--b", "5/4", "--x", "1", "--deg", "4"]),
]


@pytest.mark.parametrize("digest, argv", GOLDEN_STDOUT, ids=[" ".join(a) for _, a in GOLDEN_STDOUT])
def test_golden_stdout(capsys, digest, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# sha256 of stdout, with the timing of a verify report set to 0, recorded
# from the cell-by-cell, Frobenius and Fraction-power routes before the
# integer-pair routes replaced them
INTEGER_ROUTE_STDOUT = [
    ("dfe127b49903edf9138293a93783fab0b0e2de82c1c58d8660a0d86a8bcf82d5", ["verify", "ode", "--deg", "300"]),
    ("5d9e9ba5db918ddc678231fe280d794e005c3ccd49b0348ba9a4c279918614ad", ["verify", "qdiff", "--deg", "300"]),
    ("b5187158b3802342491293c9609932838999e9dce9f22db6b2a84f9a7141b1c5",
     ["model", "loop", "--g", "rational:a=1/2;b=-3/2", "--g", "rational:a=-1/3;b=5/2", "--n", "1", "--deg", "9"]),
    ("28b07a7ca668df1043d69931dc205c568cc9c210d22fbb92a641c5e47e191443",
     ["fock", "verify", "--suite", "trace", "--deg", "12"]),
    ("9bbe4437b486ae2356a00e9f683ebcf203404f426bc868367dbb6722c157f0c2",
     ["tau", "--r", "rational:a=1/2,-5/3;b=7/2", "--n", "1", "--t", "ta:5/3", "--tstar", "qgeo:1/3", "--deg", "12"]),
    ("a4f60f536c2075c04f71b5928ecd215f22b2a89f471fdbc7196f841502ff2eb0",
     ["tau", "--r", "rational:a=1/2;b=7/2", "--n=-1", "--t", "eigs:1,1/2,1/3", "--tstar", "eigs:2/3,1/5,1/7,1/9",
      "--deg", "12"]),
]


@pytest.mark.parametrize("digest, argv", INTEGER_ROUTE_STDOUT, ids=[" ".join(a) for _, a in INTEGER_ROUTE_STDOUT])
def test_integer_route_stdout_is_pinned(capsys, digest, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    out = re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# (argv, exit code, stdout, stderr) of a pole inside a row window: a zero
# cell before it gives weight 0, else it is named by its cell; the Fock
# trace meets it in r's own window products first
POLE_PARITY = [
    (["model", "loop", "--g", "rational:b=-2", "--n", "0", "--deg", "5"], 2, "",
     "error: pole at cell (1,3) of [3]: argument 2\n"),
    (["model", "loop", "--g", "rational:a=1;b=2", "--g", "rational:b=-1", "--n", "0", "--deg", "5"], 2, "",
     "error: pole at cell (1,2) of [2]: argument 1\n"),
    (["model", "loop", "--g", "rational:a=-1;b=-2", "--n", "0", "--deg", "5"], 0,
     '{\n  "model": "loop",\n  "graded_trace": [\n    "1/1",\n    "1/2",\n    "1/3",\n    "1/4",\n    "1/5",\n'
     '    "1/6"\n  ]\n}\n', ""),
    (["fock", "verify", "--suite", "trace", "--r", "rational:b=-2", "--n", "0", "--deg", "5"], 2, "",
     "error: r has a pole at k=2 (b=-2)\n"),
    (["fock", "verify", "--suite", "trace", "--r", "rational:a=-1;b=-2", "--n", "0", "--deg", "5"], 2, "",
     "error: r has a pole at k=2 (b=-2)\n"),
]


@pytest.mark.parametrize("argv, code, out, err", POLE_PARITY, ids=[" ".join(a) for a, *_ in POLE_PARITY])
def test_pole_inside_a_row_window(capsys, argv, code, out, err):
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


# valid and bad commands alternate; the parser is built once per process, so
# each must still behave exactly as in a fresh process
ONE_PROCESS = [
    ["model", "unitary", "--n", "2", "--deg", "4"],
    ["tau", "--r", "one", "--n", "0", "--t", "ta:1/0", "--tstar", "t:2", "--deg", "2"],
    ["hyper", "pfs", "--a", "1/2", "--deg", "3"],
    ["no-such-command"],
    ["model", "unitary", "--n", "2", "--deg", "4"],
    ["tau", "--n", "0", "--deg", "2"],
    ["oracle", "wick", "--powers", "4,2"],
    ["tau", "--r", "one", "--n", "0", "--t", "inf", "--tstar", "qgeo:2", "--deg", "2"],
    ["hyper", "two", "--a", "1/2", "--x", "1/2,1/5", "--y", "1/3,1/7", "--deg", "3"],
]


def test_commands_in_one_process_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(taukit.__file__).parents[1]))
    codes = []
    for argv in ONE_PROCESS:
        code = main(argv)
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from taukit.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0, 2, 0, 2, 0, 2, 0]
