"""Negative-path self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the harness catches what it claims to catch: a poisoned
``taukit verify`` op counts as failed, a perturbed digest fails the gate,
the recorded reference matches a fresh run, nested spans give the expected
self times, tracing can be removed again, and BENCHMARK.json names exactly
the metrics the harness measures.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import taukit  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


class FixedStream:
    """A stream of given ops, all in round 0."""

    def __init__(self, ops):
        self.ops = ops

    def round(self, r):
        return self.ops if r == 0 else []


def poisoned_verify_counts_as_failed() -> None:
    ops = [op for op in W.OpStream("specialized", 0).round(0) if op.kind in ("ode", "qdiff")]
    check = W.KINDS[ops[0].kind][1]
    W.KINDS["poisoned"] = (lambda p: W._cli(W.ARGV[p[0]](p[1]) + ["--poison", p[0]]), lambda p, raw: check(p[1], raw))
    try:
        bad = W.Op(len(ops), 0, "poisoned", (ops[0].kind, ops[0].params))
        results = run.Runner().rounds(FixedStream(ops + [bad]), 0.0, last=0)
    finally:
        del W.KINDS["poisoned"]
    summary = run.summarize(results)
    expect(summary["failed"] == 1 and not results[-1]["outcome"].ok,
           f"taukit verify {ops[0].kind} --poison {ops[0].kind} is counted as failed "
           f"(fail_frac {summary['failed']}/{summary['ops']}; {results[-1]['outcome'].why})")


def perturbed_digest_fails_the_gate() -> None:
    op = min((op for op in W.OpStream("formal", 0).round(0)), key=lambda o: o.index)
    good = run.Runner().execute(op)["digest"]
    expect(run.Runner([good]).execute(op)["outcome"].ok, "an op whose digest matches the reference passes")
    flipped = ("0" if good[0] != "0" else "1") + good[1:]
    res = run.Runner([flipped]).execute(op)
    expect(not res["outcome"].ok and "digest" in res["outcome"].why,
           "the same op against a perturbed reference digest fails")


def reference_matches_a_fresh_run() -> None:
    with open(run.HERE / "reference.json") as fh:
        reference = json.load(fh)
    for name in W.WORKLOADS:
        ops = W.OpStream(name, reference["seed"]).round(0)
        results = run.Runner(reference["ops"][name]).rounds(FixedStream(ops), 0.0, last=0)
        expect(all(r["outcome"].ok for r in results),
               f"round 0 of {name} at seed {reference['seed']} matches the recorded digests")


def nested_spans_give_self_times() -> None:
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 10.5, 11.0, 20.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracing.span(tracer, "leaf", lambda: None)
    inner = tracing.span(tracer, "inner", lambda: None)
    inner2 = tracing.span(tracer, "inner2", lambda: leaf())
    outer = tracing.span(tracer, "outer", lambda: (inner(), inner2()))
    outer()
    expect(tracer.self_s == {"outer": 11.0, "inner": 2.0, "inner2": 6.5, "leaf": 0.5},
           f"nested spans: self time = duration minus children ({tracer.self_s})")
    parents = dict(zip(tracer.rows[0], tracer.rows[1]))
    expect(parents == {0: -1, 1: 0, 2: 0, 3: 2}, "spans record their parents")

    ticks = iter([0.0, 1.0, 5.0, 7.0, 100.0, 101.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    gen = tracing.span_each_item(tracer, "gen", lambda: iter("ab"))
    items = list(gen())
    expect(items == ["a", "b"] and tracer.self_s == {"gen": 4.0}
           and tracer.counts == {"gen.calls": 1, "gen.items": 2},
           "generator spans time only next(), not the consumer")


def tracing_is_removable() -> None:
    originals = (taukit.symfun.schur, taukit.tau.schur, taukit.weights.schur, taukit.cli.tau_series,
                 taukit.tau.content_product, taukit.symfun.PolySeries.__mul__, taukit.symfun.PolySeries.__rmul__)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, taukit)
    try:
        expect(taukit.tau.schur is taukit.symfun.schur is taukit.weights.schur is not originals[0],
               "every alias of symfun.schur is rebound")
        expect(taukit.cli.tau_series is taukit.tau.tau_series is not originals[3],
               "the CLI's alias of tau_series is rebound")
        expect(taukit.symfun.PolySeries.__rmul__ is taukit.symfun.PolySeries.__mul__ is not originals[5],
               "PolySeries.__rmul__ follows __mul__")
        op = next(op for op in W.OpStream("formal", 0).round(0) if op.kind == "hirota")
        run.Runner().execute(op)
        expect(tracer.spans.get("tau.hirota_residual") == 1 and tracer.spans.get("symfun.PolySeries.mul", 0) > 0,
               "a traced op records spans in the layers it uses")
    finally:
        uninstall()
    now = (taukit.symfun.schur, taukit.tau.schur, taukit.weights.schur, taukit.cli.tau_series,
           taukit.tau.content_product, taukit.symfun.PolySeries.__mul__, taukit.symfun.PolySeries.__rmul__)
    expect(all(a is b for a, b in zip(now, originals)), "uninstall restores every original")


def benchmark_json_matches_the_harness() -> None:
    bench = run._load_benchmark()
    names = [m["name"] for m in bench["per_layer"]]
    expect(names == list(tracing.PER_LAYER) + ["setup.import_s", "setup.inputs_s", "trace.overhead_ratio"],
           "BENCHMARK.json per_layer lists exactly the traced metrics")
    expect(all(m["unit"] == tracing.PER_LAYER[m["name"]] for m in bench["per_layer"] if m["name"] in tracing.PER_LAYER),
           "per-layer units agree")
    expect([w["name"] for w in bench["workloads"]] == list(W.WORKLOADS), "workload names agree")


def main() -> int:
    benchmark_json_matches_the_harness()
    nested_spans_give_self_times()
    tracing_is_removable()
    perturbed_digest_fails_the_gate()
    poisoned_verify_counts_as_failed()
    reference_matches_a_fresh_run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
