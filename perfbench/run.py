#!/usr/bin/env python3
"""taukit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload formal --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, one table

Run from the repository root.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The full
record (machine, versions, seed, stated sizes, digest, every metric) goes
to perfbench/out/.  See perfbench/README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 12  # fresh interpreters per run; setup_s is their median
MIN_OPS = 100  # so that at least 10 op latencies lie beyond the 90th percentile
HARD_CAP_S = 120.0  # no new round starts after this, however few ops ran
REFERENCE_SEED = 0  # the seed whose per-op digests are recorded in reference.json
PREGEN_ROUNDS = 40  # rounds of inputs generated during set-up
CAL_REF_S = 0.002  # calibration kernel time on the reference machine (see README)
# Set-up time grew with the square root of the kernel time, not in
# proportion to it: process start, file reads and library loading do not
# slow down as pure-Python work does (see README).
SETUP_CAL_EXPONENT = 0.5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def calibration_kernel() -> dict:
    """Fixed pure-Python work in the style of taukit's exact arithmetic
    (tuple-keyed dicts of Fractions); it touches no taukit code."""
    acc: dict = {}
    for i in range(1, 700):
        key = (i % 5, i % 7, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i % 11 + 1)
    return acc


def kernel_seconds() -> float:
    """The kernel's time with the collector off, so that it does not
    depend on how many objects the program keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, k_before: float, k_after: float, exponent: float = 1.0) -> float:
    """A measured time in reference seconds: the host this runs on changes
    speed by up to 1.7x within seconds, so each measurement is scaled by
    how long the calibration kernel took just before and just after it,
    raised to ``exponent`` for work that tracks the kernel only in part."""
    return seconds * (CAL_REF_S / ((k_before + k_after) / 2)) ** exponent


class Runner:
    """Executes ops one after another and checks each one.

    An op fails when it raises, exits non-zero, fails its own check, or (at
    the reference seed) its digest differs from the recorded one.
    """

    def __init__(self, reference: list[str] | None = None):
        self.reference = reference or []
        self.tracer = None

    def execute(self, op) -> dict:
        import workloads as W
        import checks as C

        run, check = W.KINDS[op.kind]
        tracer = self.tracer
        if tracer is not None:
            tracer.enter("op." + op.kind)
        t0 = time.perf_counter()
        try:
            raw, error = run(op.params), ""
        except Exception as exc:  # a failing op is counted, the run goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit()
            if op.kind in W.CLI_KINDS and raw is not None:
                tracer.add("cli.stdout_bytes", len(raw[1].encode()))
        if error:
            outcome = W.Outcome(False, why=error)
        else:
            try:
                outcome = check(op.params, raw)
            except Exception as exc:
                outcome = W.Outcome(False, why=f"check raised {type(exc).__name__}: {exc}")
        digest = C.digest(outcome.text) if outcome.ok else ""
        outcome.text = ""  # keep only the digest, so that peak RSS does not grow with ops run
        if outcome.ok and op.index < len(self.reference) and self.reference[op.index] != digest:
            outcome.ok, outcome.why = False, f"digest {digest} != reference {self.reference[op.index]}"
        return {"op": op, "latency": latency, "outcome": outcome, "digest": digest}

    def rounds(self, stream, seconds: float, min_ops: int = 0, last: int | None = None,
               hard_cap: float = HARD_CAP_S):
        """Run whole rounds from round 0 until ``seconds`` have passed and
        ``min_ops`` ops completed, or round ``last`` or ``hard_cap`` seconds
        are reached."""
        results = []
        kernels = []
        t0 = time.perf_counter()
        r = 0
        while True:
            for op in stream.round(r):
                kernels.append(kernel_seconds())
                results.append(self.execute(op))
            r += 1
            elapsed = time.perf_counter() - t0
            if last is not None and r > last:
                break
            if (elapsed >= seconds and len(results) >= min_ops) or elapsed >= hard_cap:
                break
        kernels.append(kernel_seconds())
        for i, res in enumerate(results):
            res["kernel"] = kernels[i]
            res["scaled"] = calibrated(res["latency"], kernels[i], kernels[i + 1])
        return results


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until its first op is
    ready, as measured and as calibrated by kernels timed in that process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline().split()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or len(line) != 3 or line[0] != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return ready, calibrated(ready, float(line[1]), float(line[2]), SETUP_CAL_EXPONENT)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def code_identity() -> dict:
    """The git commit when the checkout has one, and always a hash of src/."""
    import hashlib

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def summarize(results: list[dict]) -> dict:
    import workloads as W

    failed = [r for r in results if not r["outcome"].ok]
    mc = [r["outcome"] for r in results if r["op"].kind == "mc"]
    return {
        "ops": len(results),
        "failed": len(failed),
        "failures": [{"index": r["op"].index, "op": W.describe(r["op"]), "why": r["outcome"].why}
                     for r in failed[:20]],
        "mc_checks": len(mc),
        "mc_outliers": sum(o.outlier for o in mc),
        "mc_outlier_budget": max(1, len(mc) // 20),
        "mc_zero_variance": sum(o.zero_variance for o in mc),
        "mc_max_abs_z": max((abs(o.z) for o in mc if o.z is not None), default=0.0),
    }


def latency_stats(lat: list[float]) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[8],
    }


def run_digest(results: list[dict], rounds: int = 4) -> dict:
    """Digest over the ops of the first ``rounds`` rounds: two runs of the
    same seed agree on it whatever their length."""
    import checks as C

    done = max(r["op"].round for r in results) + 1 if results else 0
    rounds = min(rounds, done)
    digests = [r["digest"] for r in results if r["op"].round < rounds]
    return {"rounds": rounds, "ops": len(digests), "digest": C.digest(",".join(digests))}


def measure(args, bench: dict) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import taukit

    t1 = time.perf_counter()
    import workloads as W

    stream = W.OpStream(args.workload, args.seed)
    stream.round(PREGEN_ROUNDS - 1)
    t2 = time.perf_counter()

    reference = None
    if args.seed == REFERENCE_SEED:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)["ops"][args.workload]
    runner = Runner(reference)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stated": W.WORKLOADS[args.workload].stated,
        "machine": machine_info(),
        "code": code_identity(),
        "reference_checked": reference is not None,
    }
    if args.trace == 0:
        # half the probes before the timed loop and half after it, so that
        # one burst of host load does not reach all of them
        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
        results = runner.rounds(stream, args.seconds, MIN_OPS)
        probes += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - len(probes))]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary = summarize(results)
        scaled = [r["scaled"] for r in results]
        values = {
            "setup_s": statistics.median(p[1] for p in probes),
            **latency_stats(scaled),
            "peak_rss_mb": rss_mb,
        }
        record.update(summary, digest=run_digest(results), fail_frac=summary["failed"] / summary["ops"],
                      op_latencies=[[r["op"].index, r["op"].kind, r["latency"], r["scaled"]] for r in results],
                      samples={"setup_s": len(probes), "op_latency": len(scaled),
                               "beyond_p90": sum(x > values["op_p90_s"] for x in scaled)},
                      setup_probes=probes,
                      uncalibrated={"setup_s": statistics.median(p[0] for p in probes),
                                    **latency_stats([r["latency"] for r in results])},
                      calibration={"ref_s": CAL_REF_S, "setup_exponent": SETUP_CAL_EXPONENT,
                                   "kernel_median_s": statistics.median(r["kernel"] for r in results)})
        metrics = bench["end_to_end"]
    else:
        import tracing

        untraced = runner.rounds(stream, args.seconds / 2)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer, taukit)
        runner.tracer = tracer
        try:
            traced = runner.rounds(stream, args.seconds / 2, last=untraced[-1]["op"].round)
        finally:
            uninstall()
            runner.tracer = None
        m = len(traced)
        overhead = sum(r["scaled"] for r in traced) / sum(r["scaled"] for r in untraced[:m])
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        values = {name: tracing.metric(tracer, name, m) for name in tracing.PER_LAYER}
        values.update({"setup.import_s": t1 - t0, "setup.inputs_s": t2 - t1, "trace.overhead_ratio": overhead})
        summary = summarize(untraced + traced)
        # the traced pass repeats ops of the untraced one: count Monte Carlo checks once
        summary.update({k: v for k, v in summarize(untraced).items() if k.startswith("mc_")})
        record.update(summary, traced_ops=m, spans_recorded=min(tracer.next_id, tracing.MAX_SPANS),
                      spans_dropped=tracer.dropped, self_s_by_layer=tracing.self_time_by_layer(tracer),
                      digest=run_digest(untraced))
        metrics = bench["per_layer"]
    out = {}
    for spec in metrics:
        name = spec["name"]
        if name not in values:
            raise KeyError(f"BENCHMARK.json names {name!r}, which this run does not measure")
        out[name] = {"value": values[name], "unit": spec["unit"]}
    record["metrics"] = out
    record["gc"] = {"count": gc.get_count(), "collections": [g["collections"] for g in gc.get_stats()]}
    correct = summary["failed"] == 0 and summary["mc_outliers"] <= summary["mc_outlier_budget"]
    record["correct"] = correct
    result = {"correct": correct, "attempted": summary["ops"], "failed": summary["failed"], "metrics": out}
    return result, record


def run_all(args, bench: dict) -> int:
    """Every workload in its own process; one table of every metric."""
    rows = {}
    for w in (spec["name"] for spec in bench["workloads"]):
        proc = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{w}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    width = max(len(n) for n in names + ["fail_frac"]) + 2
    print(f"{'metric':<{width}}{'unit':<12}" + "".join(f"{w:>16}" for w in rows))
    for name in names:
        unit = rows[next(iter(rows))]["metrics"][name]["unit"]
        print(f"{name:<{width}}{unit:<12}" + "".join(f"{r['metrics'][name]['value']:>16.6g}" for r in rows.values()))
    print(f"{'fail_frac':<{width}}{'ratio':<12}" + "".join(f"{r['failed'] / r['attempted']:>16.6g}" for r in rows.values()))
    print(f"{'ops':<{width}}{'count':<12}" + "".join(f"{r['attempted']:>16d}" for r in rows.values()))
    print(f"{'correct':<{width}}{'':<12}" + "".join(f"{str(r['correct']):>16}" for r in rows.values()))
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    bench = _load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]] + ["all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "taukit" / "__init__.py").is_file():
        print(f"error: taukit sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, bench)
    result, record = measure(args, bench)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    summary = {k: record[k] for k in ("ops", "failed", "fail_frac", "mc_outliers", "mc_outlier_budget",
                                      "mc_zero_variance", "digest") if k in record}
    print(json.dumps(summary, default=str), file=sys.stderr)
    for f in record["failures"]:
        print(f"failed op {f['index']} ({f['op']}): {f['why']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
