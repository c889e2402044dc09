"""Spans around the calls into each qrsmux layer, recorded from the benchmark's side.

A traced run replaces each public layer function at the module attribute its
callers resolve (``analysis`` calls ``sumsynth.synth_sum``, ``cli`` calls its
own imported ``parse``) with a wrapper that records a span: name, start,
end, parent span and job id.  Each job opens a root span, so every span
belongs to one job's tree.  Spans stay in memory until the run ends.
Per-gate functions (``Gate`` construction, ``lower_general``) are never
wrapped, and an untraced run installs nothing.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts")

    def __init__(self, name: str, start: float, parent: int | None, job: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._job_span: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: str):
        """Root span of one job; spans opened inside it carry its id."""
        self._job = job_id
        span = self._open("job")
        self._job_span = span
        try:
            yield span
        finally:
            self._close(span)
            self._job = None

    def count(self, name: str, value: int) -> None:
        """Add a count to the most recent job's root span."""
        counts = self._job_span.counts
        counts[name] = counts.get(name, 0) + value

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``counts`` maps (args, kwargs, result) to the counts the span records.
        """
        original = getattr(owner, attr)
        naming = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(naming(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self, first: int = 0) -> dict:
        """Self time and calls per span name, and summed counts, over spans[first:].

        A span's self time is its duration minus the durations of its direct
        children.
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None and span.parent >= first:
                child_time[span.parent - first] += span.end - span.start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        for span, inner in zip(spans, child_time):
            self_s[span.name] = self_s.get(span.name, 0.0) + (span.end - span.start - inner)
            calls[span.name] = calls.get(span.name, 0) + 1
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
        return {"self_s": self_s, "calls": calls, "counts": counts}

    def write(self, path, summaries: list[dict]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "job", "counts"],
                "spans": [[s.name, s.start, s.end, s.parent, s.job, s.counts] for s in self.spans],
                "per_pass_summary": summaries,
            }, fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from qrsmux import analysis, circuit, cli, gf2m, lowering, revsim, sumsynth

    tracer.wrap(sumsynth, "plan", "sumsynth.plan")
    tracer.wrap(sumsynth, "synth_sum", "sumsynth.synth_sum",
                lambda a, k, r: {"sumsynth.synth_sum.gates": len(r.gates)})
    tracer.wrap(sumsynth, "predicted_counts", "sumsynth.predicted_counts")

    tracer.wrap(circuit.Circuit, "count", "circuit.count")
    serialize_counts = lambda a, k, r: {"circuit.serialize.bytes": len(r.encode())}
    parse_counts = lambda a, k, r: {"circuit.parse.gates": len(r.gates)}
    for owner in (circuit, cli):
        tracer.wrap(owner, "serialize", "circuit.serialize", serialize_counts)
        tracer.wrap(owner, "parse", "circuit.parse", parse_counts)

    def lowering_name(args, kwargs):
        strategy = args[1] if len(args) > 1 else kwargs["strategy"]
        return f"lowering.lower_circuit.{strategy.name}"

    def lowering_counts(args, kwargs, report):
        return {
            "lowering.lower_circuit.gates": len(args[0].gates),
            "lowering.lower_circuit.fallback_gates": sum(1 for r in report.rows if r.fallback),
            "lowering.lower_circuit.gadgets": len(report.gadgets),
        }

    tracer.wrap(lowering, "lower_circuit", lowering_name, lowering_counts)
    tracer.wrap(lowering, "report_rows", "lowering.report_rows",
                lambda a, k, r: {"lowering.report_rows.rows": len(r)})

    tracer.wrap(analysis, "sweep", "analysis.sweep")
    tracer.wrap(analysis, "emit_csv", "analysis.emit_csv")
    tracer.wrap(analysis, "emit_svg", "analysis.emit_svg")

    tracer.wrap(revsim, "verify_sum", "revsim.verify_sum", lambda a, k, r: {
        "revsim.verify_sum.cases": r.total_cases,
        "revsim.verify_sum.gate_evals": r.total_cases * len(a[1].gates),
        "revsim.verify_sum.ancilla_dirty": r.ancilla_dirty_cases,
    })

    tracer.wrap(gf2m, "build_code", "gf2m.build_code")
    tracer.wrap(gf2m, "synth_encoder_gf2m", "gf2m.synth_encoder_gf2m")
    tracer.wrap(gf2m, "expand_cmuladds", "gf2m.expand_cmuladds", lambda a, k, r: {
        "gf2m.expand_cmuladds.cx_gates":
            sum(1 for g in r[0].gates if g.kind == "MCX" and len(g.controls) == 1),
    })
    tracer.wrap(gf2m, "synth_cmuladd", "gf2m.synth_cmuladd")
    tracer.wrap(gf2m, "verify_cmuladd", "gf2m.verify_cmuladd",
                lambda a, k, r: {"gf2m.verify_cmuladd.cases": 4 ** a[1].m})

    tracer.wrap(cli, "main", lambda a, k: f"cli.main.{a[0][0]}")
