#!/usr/bin/env python3
"""Exhaustively verify every synthesized SUM gate for prime dimensions <= 257,
the range scripts/make_figures.py sweeps.

For each prime the circuit is simulated over all d^2 basis inputs and the
gate tally is checked against the closed form.  Exits nonzero on any
failure.
"""

import sys
import time

from qrsmux import analysis
from qrsmux.revsim import verify_sum
from qrsmux.sumsynth import predicted_counts, synth_sum

D_MAX = 257


def main() -> int:
    failures = 0
    start = time.perf_counter()
    for d in analysis.primes_in(3, D_MAX):
        circuit = synth_sum(d)
        tally_ok = circuit.count() == predicted_counts(d)
        report = verify_sum(d, circuit)
        status = "ok" if (report.verified and tally_ok) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"d={d:3d}: {report.total_cases:5d} cases, tally {'ok' if tally_ok else 'MISMATCH'}, "
              f"simulation {'ok' if report.verified else 'FAIL'} "
              f"({report.elapsed_s:.2f}s, {report.ancilla_dirty_cases} dirty-ancilla cases)")
        if not report.verified:
            for a, b, want, got in report.failures[:5]:
                print(f"    A={a} B={b}: expected {want}, got {got}")
    print(f"\ntotal: {time.perf_counter() - start:.1f}s, {failures} failing dimensions")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
