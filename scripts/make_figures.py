#!/usr/bin/env python3
"""Reproduce the gate-count study end to end.

Sweeps every prime dimension in [3, 257], writes the full CSV report plus
SVG charts (per-gate totals, whole-encoder totals, improvement ratios, RCA
plateaus, check-if resources), and prints the reference-point deviations.

Outputs land in QRS_OUT_DIR (default ./out).
"""

import os
import sys

from qrsmux import analysis

D_MIN, D_MAX = 3, 257
REFERENCE_D = 139
REFERENCE_TOTALS = {"general": 21182, "multiplexed": 1049}

CHARTS = [
    ("nsum", "fig_nsum.svg", True),          # CX per SUM gate, log scale
    ("ntot", "fig_ntot.svg", True),          # CX for the whole encoder, log scale
    ("ratio", "fig_ratio.svg", False),       # general/multiplexed and ralph/multiplexed
    ("nrca", "fig_nrca.svg", False),         # adder part: flat between powers of two
    ("ncheckif", "fig_ncheckif.svg", False),  # check-if qubits per dimension
    ("checkif_cx", "fig_ncheckif_cx.svg", False),  # flag phase in CX equivalents
]


def main() -> int:
    out_dir = os.environ.get("QRS_OUT_DIR", "out")
    os.makedirs(out_dir, exist_ok=True)

    report = analysis.sweep(D_MIN, D_MAX)
    csv_path = os.path.join(out_dir, "sweep.csv")
    analysis.emit_csv(report, csv_path)
    print(f"wrote {csv_path} ({len(report.rows)} rows, convention {report.convention})")

    for series, filename, log_y in CHARTS:
        path = os.path.join(out_dir, filename)
        analysis.emit_svg(analysis.series_points(report, series), ("d", series), path, log_y=log_y)
        print(f"wrote {path}")

    print()
    for line in analysis.deviation_lines(report, REFERENCE_D, REFERENCE_TOTALS):
        print(line)

    print(f"\nratio jumps at: {sorted(analysis.detect_jumps(report).values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
