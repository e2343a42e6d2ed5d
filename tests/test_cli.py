import json

import pytest

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


def test_verify_poison_exits_one(capsys):
    code, out = run_cli(capsys, "verify", "hirota", "--deg", "4", "--poison", "hirota")
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    assert data["reports"][0]["detail"]


def test_verify_all_fast(capsys):
    code, out = run_cli(capsys, "verify", "all", "--deg", "5")
    assert code == 0
    data = json.loads(out)
    assert [r["check"] for r in data["reports"]] == [
        "cauchy", "hirota", "ode", "qdiff", "det", "symmetry",
    ]
    assert data["pass"] is True


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
