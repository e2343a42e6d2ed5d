"""Spans and counters around taukit's public functions, installed from outside.

``install`` wraps the functions and methods each layer exposes and rebinds
every alias callers use (``taukit.tau.schur`` is the same object as
``taukit.symfun.schur``; both are replaced), so the program itself is not
edited.  A span is (id, parent, name, start, end); a layer's self time is
its spans' durations minus the time covered by their child spans.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import time
from array import array
from typing import Callable

import checks

MAX_SPANS = 100_000  # spans kept for the CSV; later ones only count towards self times


class Tracer:
    """A span stack with per-name self time, plus free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [span id, name, start, time covered by children]
        self.next_id = 0
        self.self_s: dict[str, float] = {}
        self.spans: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.names: dict[str, int] = {}
        self.rows = (array("q"), array("q"), array("l"), array("d"), array("d"))
        self.dropped = 0

    def enter(self, name: str) -> None:
        self.stack.append([self.next_id, name, self.clock(), 0.0])
        self.next_id += 1

    def exit(self) -> None:
        end = self.clock()
        sid, name, start, covered = self.stack.pop()
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
        self.spans[name] = self.spans.get(name, 0) + 1
        parent = -1
        if self.stack:
            top = self.stack[-1]
            top[3] += dur
            parent = top[0]
        if sid < MAX_SPANS:
            for column, value in zip(self.rows, (sid, parent, self.names.setdefault(name, len(self.names)),
                                                 start, end)):
                column.append(value)
        else:
            self.dropped += 1

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def write_spans(self, path) -> None:
        """Spans as CSV, in the order they ended (at most ``MAX_SPANS``)."""
        names = {i: n for n, i in self.names.items()}
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, parent, name, start, end in zip(*self.rows):
                out.writerow([sid, parent, names[name], f"{start:.9f}", f"{end:.9f}"])


def span(tracer: Tracer, name, fn: Callable, before=None, after=None) -> Callable:
    """Wrap fn in a span.  ``name`` may be a function of the call's
    arguments; ``before(args)`` and ``after(args, result)`` record counts
    outside the span."""
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args)
        enter(name(args, kwargs) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(args, out)
        return out

    return traced


def span_each_item(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function: one span per ``next()``, and counters
    ``<name>.calls`` and ``<name>.items``."""

    def items(it):
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.add(name + ".items", 1)
            yield item

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.add(name + ".calls", 1)
        return items(fn(*args, **kwargs))

    return traced


def counted(tracer: Tracer, key: str, fn: Callable) -> Callable:
    """Count calls without a span (for hot one-line functions)."""
    add = tracer.add

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        add(key, 1)
        return fn(*args, **kwargs)

    return traced


def install(tracer: Tracer, taukit) -> Callable[[], None]:
    """Wrap taukit's public functions; returns a function that undoes it."""
    import taukit.cli  # noqa: F401 - the CLI's module-level aliases are rebound too

    modules = [taukit] + [getattr(taukit, m) for m in
                          ("partitions", "symfun", "weights", "tau", "fock", "models", "oracle", "cli")]
    undo: list[tuple[object, str, object]] = []

    def rebind(owners, orig, new) -> None:
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is orig:
                    undo.append((owner, attr, orig))
                    setattr(owner, attr, new)

    def function(module, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        orig = getattr(module, attr)
        rebind(modules, orig, wrap(orig))

    def method(cls, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        orig = vars(cls)[attr]
        rebind([cls], orig, wrap(orig))  # also catches __rmul__ = __mul__

    p, s, w, t, fk, m, o, cli = modules[1:]
    add, peak = tracer.add, tracer.peak
    PolySeries = s.PolySeries

    # partitions
    for attr in ("enumerate_partitions", "partitions_of"):
        function(p, attr, lambda fn, a=attr: span_each_item(tracer, f"partitions.{a}", fn))

    # weights
    for attr in ("content_product", "rational_r_decomposition"):
        function(w, attr, lambda fn, a=attr: span(tracer, f"weights.{a}", fn))
    method(w.ContentFunction, "__call__", lambda fn: counted(tracer, "weights.r.calls", fn))
    pending = [w.ContentFunction]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "_eval" in vars(cls):
            method(cls, "_eval", lambda fn: counted(tracer, "weights.r.evals", fn))

    # symfun
    def schur_kind(args, kwargs):
        times = args[1] if len(args) > 1 else kwargs["t"]
        formal = any(isinstance(e, PolySeries) for e in times.entries)
        return "symfun.schur.formal" if formal else "symfun.schur.numeric"

    function(s, "schur", lambda fn: span(tracer, schur_kind, fn))
    for attr in ("exp_series", "h_list", "schur_from_eigenvalues"):
        function(s, attr, lambda fn, a=attr: span(tracer, f"symfun.{a}", fn))

    def mul_before(args):
        a, b = args
        add("symfun.PolySeries.mul.term_pairs",
            len(a.terms) * (len(b.terms) if isinstance(b, PolySeries) else 1))

    method(PolySeries, "__mul__", lambda fn: span(
        tracer, "symfun.PolySeries.mul", fn, before=mul_before,
        after=lambda args, out: add("symfun.PolySeries.mul.terms_out", len(out.terms))))
    method(PolySeries, "__init__", lambda fn: span(tracer, "symfun.PolySeries.init", fn))
    method(PolySeries, "__add__", lambda fn: span(tracer, "symfun.PolySeries.add", fn))

    # tau
    def series_after(args, out):
        add("tau.tau_series.terms", len(out.coeffs))
        for c in out.coeffs.values():
            peak("tau.result.max_coeff_bits", max(c.numerator.bit_length(), c.denominator.bit_length()))

    function(t, "tau_series", lambda fn: span(tracer, "tau.tau_series", fn, after=series_after))
    method(t.TauSeries, "as_polyseries", lambda fn: span(
        tracer, "tau.TauSeries.as_polyseries", fn,
        after=lambda args, out: add("tau.TauSeries.as_polyseries.terms_out", len(out.terms))))
    for attr in ("hirota_residual", "det_rep_two_side", "det_rep_derivatives", "symmetry_checks"):
        function(t, attr, lambda fn, a=attr: span(tracer, f"tau.{a}", fn))
    for attr in ("hyper_pfs", "hyper_q", "hyper_two_arg"):
        function(t, attr, lambda fn: span(tracer, "tau.hyper", fn))

    # fock
    method(fk.FockOperator, "apply", lambda fn: span(
        tracer, "fock.FockOperator.apply", fn,
        after=lambda args, out: add("fock.FockOperator.apply.states_out", len(out.amps))))
    for attr in ("exp_action", "pair", "trace_h0"):
        function(fk, attr, lambda fn, a=attr: span(tracer, f"fock.{a}", fn))

    # models
    for attr in MODEL_ENTRY_POINTS:
        function(m, attr, lambda fn, a=attr: span(tracer, f"models.{a}", fn))

    # oracle
    for attr in ("sample_haar_unitary_batch", "sample_ginibre_batch"):
        function(o, attr, lambda fn: span(tracer, "oracle.sample", fn,
                                          before=lambda args: add("oracle.sample.matrices", args[1])))
    function(o, "schur_of_matrix", lambda fn: span(tracer, "oracle.schur_of_matrix", fn))
    method(o.RngStream, "__init__", lambda fn: counted(tracer, "oracle.mc.blocks", fn))

    def mc_after(args, rep):
        outlier, _, z = checks.mc_verdict(rep)
        add("oracle.mc.outliers", int(outlier))
        if z is not None:
            peak("oracle.mc.max_abs_z", abs(z))

    for attr in ("mc_schur_unitary_identity", "mc_schur_ginibre_identity"):
        function(o, attr, lambda fn: span(tracer, "oracle.mc", fn, after=mc_after))
    function(o, "wick_gaussian_moment", lambda fn: span(
        tracer, "oracle.wick_gaussian_moment", fn,
        before=lambda args: add("oracle.wick_gaussian_moment.pairings", checks.double_factorial(sum(args[0]) - 1))))

    # cli
    function(cli, "main", lambda fn: span(tracer, "cli.main", fn))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


MODEL_ENTRY_POINTS = ("quartic_series", "two_matrix_series", "gross_witten_series",
                      "unitary_model_series", "loop_scalar_product")


def _names(base: str, *quantities: str, unit: str = "s/op") -> dict[str, str]:
    return {f"{base}.{q}": ("s/op" if q == "self_s" else unit) for q in quantities}


# Every per-layer metric with its unit.  Counts and self times are totals
# over the traced ops divided by their number; ratios, maxima and the
# outlier count are not.
PER_LAYER: dict[str, str] = {
    **_names("partitions.enumerate_partitions", "calls", unit="calls/op"),
    **_names("partitions.enumerate_partitions", "items", "self_s", unit="items/op"),
    **_names("partitions.partitions_of", "items", "self_s", unit="items/op"),
    **_names("weights.content_product", "calls", "self_s", unit="calls/op"),
    **_names("weights.r", "calls", unit="calls/op"),
    **_names("weights.r", "evals", unit="evals/op"),
    "weights.r.cache_hit_ratio": "ratio",
    **_names("weights.rational_r_decomposition", "self_s"),
    **_names("symfun.schur.formal", "calls", "self_s", unit="calls/op"),
    **_names("symfun.PolySeries.mul", "calls", "self_s", unit="calls/op"),
    **_names("symfun.PolySeries.mul", "term_pairs", unit="pairs/op"),
    **_names("symfun.PolySeries.mul", "terms_out", unit="terms/op"),
    **_names("symfun.PolySeries.init", "calls", "self_s", unit="calls/op"),
    **_names("symfun.PolySeries.add", "self_s"),
    **_names("symfun.exp_series", "self_s"),
    **_names("symfun.schur.numeric", "calls", "self_s", unit="calls/op"),
    **_names("symfun.h_list", "self_s"),
    **_names("symfun.schur_from_eigenvalues", "self_s"),
    **_names("tau.tau_series", "calls", "self_s", unit="calls/op"),
    **_names("tau.tau_series", "terms", unit="terms/op"),
    **_names("tau.TauSeries.as_polyseries", "self_s", "terms_out", unit="terms/op"),
    **{f"tau.{a}.self_s": "s/op" for a in ("hirota_residual", "det_rep_two_side", "det_rep_derivatives",
                                            "symmetry_checks", "hyper")},
    "tau.result.max_coeff_bits": "bits",
    **_names("fock.FockOperator.apply", "calls", "self_s", unit="calls/op"),
    **_names("fock.FockOperator.apply", "states_out", unit="states/op"),
    **{f"fock.{a}.self_s": "s/op" for a in ("exp_action", "pair", "trace_h0")},
    **{f"models.{a}.self_s": "s/op" for a in MODEL_ENTRY_POINTS},
    **_names("oracle.sample", "calls", "self_s", unit="calls/op"),
    **_names("oracle.sample", "matrices", unit="matrices/op"),
    **_names("oracle.schur_of_matrix", "calls", "self_s", unit="calls/op"),
    **_names("oracle.mc", "blocks", unit="blocks/op"),
    **_names("oracle.mc", "self_s"),
    "oracle.mc.outliers": "count",
    "oracle.mc.max_abs_z": "sigma",
    **_names("oracle.wick_gaussian_moment", "calls", "self_s", unit="calls/op"),
    **_names("oracle.wick_gaussian_moment", "pairings", unit="pairings/op"),
    **_names("cli.main", "calls", "self_s", unit="calls/op"),
    "cli.stdout_bytes": "bytes/op",
}


def metric(tracer: Tracer, name: str, ops: int) -> float:
    """The value of one PER_LAYER metric after ``ops`` traced ops."""
    if name not in PER_LAYER:
        raise KeyError(f"no per-layer metric named {name!r}")
    if name == "weights.r.cache_hit_ratio":
        calls = tracer.counts.get("weights.r.calls", 0)
        return 1 - tracer.counts.get("weights.r.evals", 0) / calls if calls else 0.0
    if name in tracer.maxima or name in ("tau.result.max_coeff_bits", "oracle.mc.max_abs_z"):
        return float(tracer.maxima.get(name, 0.0))
    if name == "oracle.mc.outliers":
        return float(tracer.counts.get(name, 0))
    base, _, quantity = name.rpartition(".")
    if quantity == "self_s":
        return tracer.self_s.get(base, 0.0) / ops
    if quantity == "calls" and name not in tracer.counts:
        return tracer.spans.get(base, 0) / ops
    return tracer.counts.get(name, 0) / ops


def layer_of(span_name: str) -> str:
    """The layer a span belongs to, for ranking layers by self time.

    symfun is split in two: formal (PolySeries arithmetic, Schur functions
    of formal times, exp_series) and numeric (Schur functions at numbers,
    h_list, the bialternant).  The spans the harness puts around whole ops
    are "harness"."""
    if span_name in ("symfun.schur.numeric", "symfun.h_list", "symfun.schur_from_eigenvalues"):
        return "symfun (numeric)"
    if span_name.startswith("symfun."):
        return "symfun (formal)"
    if span_name.startswith("op."):
        return "harness"
    return span_name.split(".")[0]


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, secs in tracer.self_s.items():
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + secs
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
