"""The workloads: seeded inputs, jobs, and output checks.

Every workload is a closed loop with one client: the next job is sent only
after the previous one returns.  A pass runs every job of the workload once,
in an order fixed by the seed; every pass of a run repeats the same inputs.
The program receives only the generated inputs.  Checks compare each job's
output with ``oracles`` and run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

import oracles

STRATEGIES = ("general", "ralph", "multiplexed")
CONVENTION = "default-v1"


def stratified_draws(rng: random.Random, items: list, cost, strata: int, per_stratum: int) -> list:
    """Sort items by cost, cut them into equal strata and draw from each.

    Drawing within narrow cost bands keeps a pass's total cost nearly the
    same for every seed, while every item stays reachable.
    """
    ranked = sorted(items, key=cost)
    out = []
    for s in range(strata):
        band = ranked[s * len(ranked) // strata:(s + 1) * len(ranked) // strata]
        out.extend(rng.choice(band) for _ in range(per_stratum))
    return out


@dataclass
class Pass:
    """Timing and outcome of one pass.

    ``busy_s`` sums the timed calls, so checks and bookkeeping between jobs
    do not count as the program's time.
    """

    tracer: object = None
    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    work: int = 0
    attempted: int = 0
    failed: set = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    def run(self, label: str, fn, *args, job: bool = True):
        """Time one call; a job also yields a latency sample.  Returns None if it raised."""
        self.attempted += 1
        span = self.tracer.job(label) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                result = fn(*args)
        except Exception as exc:  # a failed job is counted and reported; the pass goes on
            self.busy_s += time.perf_counter() - start
            self.fail(label, f"raised {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        if job:
            self.latencies.append(elapsed)
        return result

    def check(self, label: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(label, message)

    def fail(self, label: str, message: str) -> None:
        self.failed.add(label)
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")

    def count(self, name: str, value: int) -> None:
        if self.tracer:
            self.tracer.count(name, value)


# ----------------------------------------------------------------------
# sweep: the paper's headline report
# ----------------------------------------------------------------------

class Sweep:
    unit = "sweep rows"
    primes = oracles.primes_between(3, 1021)

    def __init__(self, seed: int, workdir: str):
        self.order = list(self.primes)
        random.Random(seed).shuffle(self.order)
        self.csv_path = os.path.join(workdir, "sweep.csv")
        self.svg_path = os.path.join(workdir, "sweep.svg")

    def prepare_checks(self):
        self.expected = {d: oracles.sum_cx_totals(d) for d in self.primes}

    def run_pass(self, p: Pass):
        from qrsmux import analysis

        rows = []
        for d in self.order:
            label = f"d={d}"
            report = p.run(label, analysis.sweep, d, d, STRATEGIES, CONVENTION)
            if report is None:
                continue
            row = report.rows[0]
            got = {s: getattr(row, f"nsum_{s}") for s in STRATEGIES}
            p.check(label, got == self.expected[d], f"N_SUM {got} != closed form {self.expected[d]}")
            if d == 139:
                for name, target in oracles.D139_ANCHORS.items():
                    p.check(label, abs(got[name] - target) <= oracles.ANCHOR_TOLERANCE * target,
                            f"{name} N_SUM {got[name]} not within 5% of {target}")
            rows.append(row)
            p.work += 1

        merged = analysis.SweepReport(rows=sorted(rows, key=lambda r: r.d), convention=CONVENTION)
        p.run("report", self._emit, merged, job=False)
        p.check("report", len(rows) == oracles.PINNED_SWEEP_ROWS,
                f"{len(rows)} rows, expected {oracles.PINNED_SWEEP_ROWS}")
        with open(self.csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        p.check("report", digest == oracles.SWEEP_CSV_SHA256, f"CSV sha256 {digest}")
        p.check("report", os.path.getsize(self.svg_path) > 0, "empty SVG")

    def _emit(self, report):
        from qrsmux import analysis

        analysis.emit_csv(report, self.csv_path)
        analysis.emit_svg(analysis.series_points(report, "nsum"), ("d", "nsum"),
                          self.svg_path, log_y=True)


# ----------------------------------------------------------------------
# verify: exhaustive simulation
# ----------------------------------------------------------------------

class Verify:
    unit = "simulated basis cases"
    m = 7

    def __init__(self, seed: int, workdir: str):
        from qrsmux.galois import FieldSpec

        rng = random.Random(seed)
        cost = lambda d: d * d * oracles.sum_gate_total(d)
        mid = stratified_draws(rng, oracles.primes_between(67, 251), cost, strata=6, per_stratum=1)
        small = stratified_draws(rng, oracles.primes_between(3, 61), cost, strata=4, per_stratum=6)
        jobs = [("sum", 257, None)] + [("sum", d, None) for d in mid]
        jobs += [("sum", d, rng.randrange(oracles.sum_gate_total(d))) for d in small]
        jobs += [("cmuladd", n, None) for n in range(2 ** self.m - 1)]
        rng.shuffle(jobs)
        self.jobs = jobs
        self.field = FieldSpec.binary_extension(self.m)

    def prepare_checks(self):
        self.sum_cases = {d: oracles.SumCases(d) for kind, d, _ in self.jobs if kind == "sum"}
        self.cmuladd_cases = oracles.CmulAddCases(self.m, self.field.poly)

    @staticmethod
    def _verify_sum(d, mutant):
        from qrsmux import revsim, sumsynth

        circuit = sumsynth.synth_sum(d)
        if mutant is not None:
            circuit = circuit.without_gate(mutant)
        return circuit, revsim.verify_sum(d, circuit)

    def _verify_cmuladd(self, n):
        from qrsmux import gf2m

        circuit = gf2m.synth_cmuladd(self.field, n)
        return circuit, gf2m.verify_cmuladd(circuit, self.field, n)

    def run_pass(self, p: Pass):
        for kind, x, mutant in self.jobs:
            if kind == "cmuladd":
                label = f"cmuladd n={x}"
                out = p.run(label, self._verify_cmuladd, x)
                if out is None:
                    continue
                circuit, verdict = out
                bad = self.cmuladd_cases.failures(circuit, x)
                p.check(label, verdict and bad == 0, f"verdict {verdict}, evaluator finds {bad} failures")
                p.work += self.cmuladd_cases.n_cases
                continue

            label = f"verify d={x}" + ("" if mutant is None else f" without gate {mutant}")
            out = p.run(label, self._verify_sum, x, mutant)
            if out is None:
                continue
            circuit, report = out
            want = self.sum_cases[x].check(circuit)
            got = {"cases": report.total_cases, "failures": len(report.failures),
                   "ancilla_dirty": report.ancilla_dirty_cases}
            p.check(label, got == want, f"report {got} != evaluator {want}")
            if mutant is None:
                p.check(label, report.verified, "unmutated circuit fails")
            else:
                p.count("revsim.mutants.tried", 1)
                p.count("revsim.mutants.detected", int(not report.verified))
            pinned = oracles.PINNED_VERIFY_SUM.get(x)
            if pinned and mutant is None:
                p.check(label, {k: got[k] for k in pinned} == pinned, f"{got} != pinned {pinned}")
            p.work += report.total_cases


# ----------------------------------------------------------------------
# encoder: GF(2^m) encoders for m = 2..8
# ----------------------------------------------------------------------

class Encoder:
    """GF(2^m) encoders for m = 2..8: field algebra, 522k Gate objects, CX-only lowering, memory.

    Runnable by name but not listed in BENCHMARK.json: a pass takes about
    17 s and yields seven jobs, too few latency samples for a median that
    stays steady while the host's speed drifts.
    """

    unit = "emitted CX gates"
    degrees = range(2, 9)

    def __init__(self, seed: int, workdir: str):
        from qrsmux.galois import FieldSpec

        self.poly8 = random.Random(seed).choice(oracles.primitive_polys(8))
        FieldSpec.binary_extension(8, self.poly8)  # the program accepts the drawn polynomial

    def prepare_checks(self):
        from qrsmux import galois

        self.polys = {m: galois.DEFAULT_PRIMITIVE_POLYS[m] for m in self.degrees}
        self.polys[8] = self.poly8
        self.powers = {m: oracles.alpha_powers(self.polys[m], m) for m in self.degrees}

    def _encode(self, m):
        from qrsmux import circuit, gf2m, lowering

        spec = gf2m.build_code(m, 2 ** (m - 1), poly=self.poly8 if m == 8 else None)
        encoder = gf2m.synth_encoder_gf2m(spec)
        parsed = circuit.parse(circuit.serialize(encoder))
        expanded, _ = gf2m.expand_cmuladds(parsed)
        general = lowering.lower_circuit(expanded, lowering.general()).cx_total
        multiplexed = lowering.lower_circuit(expanded, lowering.multiplexed()).cx_total
        return spec, encoder, parsed, expanded, general, multiplexed

    def run_pass(self, p: Pass):
        from qrsmux import gf2m

        for m in self.degrees:
            label = f"m={m}"
            out = p.run(label, self._encode, m)
            if out is None:
                continue
            spec, encoder, parsed, expanded, general, multiplexed = out
            own = sum(oracles.cmuladd_cx(self.powers[m], g.n, m)
                      for g in encoder.gates if g.kind == "CMulAdd")
            closed = gf2m.encoder_classical_cx_cost(spec)
            p.check(label, general == multiplexed == closed == own,
                    f"CX general {general}, multiplexed {multiplexed}, "
                    f"encoder_classical_cx_cost {closed}, Hamming weights {own}")
            if m == 8:
                pinned = oracles.PINNED_ENCODER_CX_M8[self.poly8]
                p.check(label, own == pinned, f"{own} CX, pinned {pinned}")
            p.check(label, all(g.kind == "MCX" and len(g.controls) == 1 for g in expanded.gates)
                    and len(expanded.gates) == own, "expanded circuit is not CX-only with one CX per weight")
            p.check(label, parsed.gates == encoder.gates, "parse(serialize(encoder)) changed the gates")
            p.work += general


# ----------------------------------------------------------------------
# interchange: the CLI document path
# ----------------------------------------------------------------------

class Interchange:
    unit = "gates lowered from parsed documents"
    columns = ["gate-index", "kind", "arity", "photons", "strategy", "cx", "h", "t", "tdag", "os",
               "fallback-flag"]

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.primes = stratified_draws(rng, oracles.primes_between(3, 1021), oracles.sum_gate_total,
                                       strata=24, per_stratum=1)
        rng.shuffle(self.primes)
        self.doc = os.path.join(workdir, "doc.json")
        self.reports = {s: os.path.join(workdir, f"lower-{s}.csv") for s in STRATEGIES}

    def prepare_checks(self):
        self.expected = {d: (oracles.sum_gate_total(d), oracles.sum_cx_totals(d)) for d in self.primes}

    def _cli(self, d):
        from qrsmux import cli

        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["synth-sum", "--d", str(d), "--emit", self.doc])]
            for s in STRATEGIES:
                codes.append(cli.main(["lower", "--in", self.doc, "--strategy", s,
                                       "--report", self.reports[s]]))
        return codes

    def run_pass(self, p: Pass):
        for d in self.primes:
            label = f"d={d}"
            codes = p.run(label, self._cli, d)
            if codes is None:
                continue
            p.check(label, codes == [0] * 4, f"exit codes {codes}")
            gates, cx = self.expected[d]
            with open(self.doc, encoding="utf-8") as fh:
                n_doc = len(json.load(fh)["gates"])
            p.check(label, n_doc == gates, f"document has {n_doc} gates, expected {gates}")
            for s, path in self.reports.items():
                with open(path, newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))
                p.check(label, rows[0] == self.columns, f"{s} report header {rows[0]}")
                total = sum(int(r[5]) for r in rows[1:])
                p.check(label, len(rows) - 1 == n_doc, f"{s} report has {len(rows) - 1} rows")
                p.check(label, total == cx[s], f"{s} cx column sums to {total}, expected {cx[s]}")
            p.work += 3 * n_doc


WORKLOADS = {"sweep": Sweep, "verify": Verify, "encoder": Encoder, "interchange": Interchange}

# Seconds one pass took when the benchmark was defined (2 cores, Python 3.11),
# rounded up.  A run makes max(1, seconds // PASS_SECONDS) passes, so every
# run of one commit pools the same number of job samples.
PASS_SECONDS = {"sweep": 13.0, "verify": 28.0, "encoder": 17.0, "interchange": 11.0}
