"""Sweep engine and report generation for the gate-count curves.

Every sweep row is produced by synthesizing the SUM circuit and lowering it,
never from closed forms alone; the closed-form prediction acts as a
consistency gate that aborts the row on any mismatch.  Every CX figure,
checkif_cx and the nrca series included, is read off a LoweringReport.  A
convention id names the multiplexed lowering.Strategy a sweep lowers with;
the id is stamped into every CSV row and on the report, so totals are
reproducible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from . import lowering, sumsynth
from .errors import InvalidDimensionError, SweepConsistencyError
from .galois import WITNESS_BOUND, is_prime
from .lowering import MULTIPLEXED, STRATEGY_NAMES, Strategy


# ----------------------------------------------------------------------
# Counting conventions
# ----------------------------------------------------------------------

CONVENTIONS: dict[str, Strategy] = {
    "default-v1": lowering.multiplexed(),
    # Non-default variant: the inner Toffoli of a collapsed carry-controlled
    # flag gate is itself multiplexed down to one CX (carry and check-if
    # share the ancilla photon).  Excluded from comparison reports.
    "inner-collapse-v1": lowering.multiplexed(collapse_inner_c2x=True),
}

DEFAULT_CONVENTION_ID = "default-v1"


def get_convention(convention_id: str) -> Strategy:
    """The multiplexed Strategy a convention id names."""
    try:
        return CONVENTIONS[convention_id]
    except KeyError:
        raise ValueError(f"unknown convention {convention_id!r}; registered: {sorted(CONVENTIONS)}") from None


# ----------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------

def sum_gate_count(d: int) -> int:
    """Number of SUM gates in the whole dimension-d encoder: (d^2 + d - 4) / 2."""
    if d >= WITNESS_BOUND:  # refused for its size: no primality test of it ends quickly
        raise InvalidDimensionError(f"d={d} is at or above {WITNESS_BOUND}, too large to prove prime")
    if not is_prime(d) or d < 3:
        raise InvalidDimensionError(f"d={d} must be an odd prime")
    value = d * d + d - 4
    assert value % 2 == 0
    return value // 2


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by sieve."""
    if hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(math.isqrt(hi)) + 1):
        if sieve[p]:
            sieve[p * p::p] = b"\x00" * len(sieve[p * p::p])
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------

CSV_HEADER = ("d,k,n_sum_gates,nsum_general,nsum_ralph,nsum_multiplexed,"
              "ntot_general,ntot_ralph,ntot_multiplexed,ratio_general,ratio_ralph,"
              "n_checkif,n_aux,os_count,n_dft,convention")


@dataclass
class SweepRow:
    d: int
    k: int
    n_sum_gates: int
    nsum_general: int | None = None
    nsum_ralph: int | None = None
    nsum_multiplexed: int | None = None
    ntot_general: int | None = None
    ntot_ralph: int | None = None
    ntot_multiplexed: int | None = None
    ratio_general: float | None = None
    ratio_ralph: float | None = None
    n_checkif: int = 0
    n_aux: int = 0
    os_count: int | None = None
    n_dft: int = 0
    convention: str = DEFAULT_CONVENTION_ID
    # Flag-phase cost under multiplexing, in CX equivalents.  Reported as an
    # SVG series and via the API; not part of the pinned CSV header.
    checkif_cx: int | None = None


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)
    convention: str = DEFAULT_CONVENTION_ID

    def row(self, d: int) -> SweepRow:
        for r in self.rows:
            if r.d == d:
                return r
        raise KeyError(f"no sweep row for d={d}")


def sweep_row(d: int, strategies=STRATEGY_NAMES, convention: str = DEFAULT_CONVENTION_ID) -> SweepRow:
    """Synthesize, gate-check against the closed form, and lower one dimension."""
    multiplexed = get_convention(convention)
    circuit = sumsynth.synth_sum(d)
    counted = circuit.count()
    predicted = sumsynth.predicted_counts(d)
    if counted != predicted:
        raise SweepConsistencyError(
            f"d={d}: synthesized tally {counted.as_dict()} != predicted {predicted.as_dict()}")

    checkif = {reg.name for reg in circuit.table.registers if reg.role == "check-if"}
    n_checkif = sum(circuit.table[name].width for name in checkif)
    row = SweepRow(
        d=d, k=circuit.table["A"].width, n_sum_gates=sum_gate_count(d),
        n_checkif=n_checkif, n_aux=circuit.table["carry"].width + n_checkif, convention=convention,
    )
    for name in strategies:
        report = lowering.lower_circuit(circuit, multiplexed if name == MULTIPLEXED else Strategy(name))
        setattr(row, f"nsum_{name}", report.cx_total)
        setattr(row, f"ntot_{name}", row.n_sum_gates * report.cx_total)
        if name == MULTIPLEXED:
            row.os_count = report.os_total
            row.checkif_cx = sum(len(lowered.indices) * lowered.tally["C1X"]
                                 for (_, _, target), lowered in report.signatures.items() if target in checkif)
    if row.nsum_multiplexed:
        if row.nsum_general is not None:
            row.ratio_general = row.nsum_general / row.nsum_multiplexed
        if row.nsum_ralph is not None:
            row.ratio_ralph = row.nsum_ralph / row.nsum_multiplexed
    return row


def sweep(d_min: int, d_max: int, strategies=STRATEGY_NAMES,
          convention: str = DEFAULT_CONVENTION_ID) -> SweepReport:
    """One row per prime in [d_min, d_max], sorted by d.  Non-primes are
    skipped, and so is 2: ``sum_gate_count`` is defined for odd primes only."""
    if d_max < d_min:
        raise ValueError(f"empty sweep range [{d_min}, {d_max}]")
    get_convention(convention)  # an unknown id is refused before any work
    unknown = set(strategies) - set(STRATEGY_NAMES)
    if unknown:
        raise ValueError(f"unknown strategies: {sorted(unknown)}")
    lo = max(d_min, 3)
    if d_max >= WITNESS_BOUND:
        # No prime that large is proven prime quickly, so d_max itself is
        # refused for its size, which is past k_max.
        sumsynth.plan(d_max)
    top = next((p for p in range(d_max, lo - 1, -1) if is_prime(p)), None)
    if top is not None and sumsynth.compute_k(top) > sumsynth.K_MAX:
        # The largest prime needs the most qubits: raise on it before sieving
        # or any work.  An accepted prime is planned by its own row alone.
        sumsynth.plan(top)
    primes = primes_in(lo, top) if top else []
    report = SweepReport(convention=convention)
    for d in primes:
        report.rows.append(sweep_row(d, strategies, convention))
    return report


# ----------------------------------------------------------------------
# Boundary jumps
# ----------------------------------------------------------------------

def detect_jumps(report: SweepReport) -> dict[int, int]:
    """First prime after each power-of-two boundary present in the sweep."""
    jumps: dict[int, int] = {}
    prev = None
    for row in report.rows:
        if prev is not None and row.k > prev.k:
            jumps[prev.k] = row.d
        prev = row
    return jumps


# ----------------------------------------------------------------------
# Emitters
# ----------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def csv_document(report: SweepReport) -> str:
    """The sweep CSV, with the fixed column order."""
    if not report.rows:
        raise ValueError("refusing to write an empty sweep report")
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER] + [",".join(_cell(getattr(row, col)) for col in columns) for row in report.rows]
    return "\n".join(lines) + "\n"


def emit_csv(report: SweepReport, path: str | os.PathLike) -> None:
    """Write the sweep CSV."""
    document = csv_document(report)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(document)
    except OSError as e:
        raise OSError(f"cannot write sweep CSV to {path}: {e}") from e


SVG_SERIES = {
    "nsum": ("nsum_general", "nsum_ralph", "nsum_multiplexed"),
    "ntot": ("ntot_general", "ntot_ralph", "ntot_multiplexed"),
    "ratio": ("ratio_general", "ratio_ralph"),
    "ncheckif": ("n_checkif",),
    "checkif_cx": ("checkif_cx",),
    "nrca": (),  # handled specially: RCA CX count per d
}

_SERIES_COLORS = ("#1f6fd0", "#c03fae", "#d03f3f", "#2f9e44", "#e8861a")


def series_points(report: SweepReport, series: str) -> list[tuple[str, list[tuple[int, float]]]]:
    """(label, points) pairs for a named SVG series."""
    if series == "nrca":
        adder_cx = {k: lowering.lower_circuit(sumsynth.synth_rca(k), lowering.general()).cx_total
                    for k in {r.k for r in report.rows}}
        return [("nrca_cx", [(r.d, float(adder_cx[r.k])) for r in report.rows])]
    try:
        columns = SVG_SERIES[series]
    except KeyError:
        raise ValueError(f"unknown series {series!r}; known: {sorted(SVG_SERIES)}") from None
    out = []
    for col in columns:
        pts = [(r.d, float(getattr(r, col))) for r in report.rows if getattr(r, col) is not None]
        if pts:
            out.append((col, pts))
    return out


def svg_document(series: list[tuple[str, list[tuple[int, float]]]], axes: tuple[str, str],
                 log_y: bool = False) -> str:
    """Simple polyline chart; log_y plots log10 of the values."""
    if not series or all(not pts for _, pts in series):
        raise ValueError("refusing to write an empty SVG chart")
    width, height, margin = 640, 420, 56
    xs = [x for _, pts in series for x, _ in pts]
    ys = [math.log10(y) if log_y else y for _, pts in series for _, y in pts if not log_y or y > 0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" '
        'stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="13">{axes[0]}</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{axes[1]}{" (log10)" if log_y else ""}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">{x_lo:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" font-size="11">{x_hi:g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" font-size="11">{y_lo:.3g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" font-size="11">{y_hi:.3g}</text>',
    ]
    for s, (label, pts) in enumerate(series):
        color = _SERIES_COLORS[s % len(_SERIES_COLORS)]
        coords = " ".join(
            f"{px(x):.1f},{py(math.log10(y) if log_y else y):.1f}"
            for x, y in pts if not log_y or y > 0
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * s + 8}" font-size="11" '
                     f'fill="{color}" text-anchor="end">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_svg(series: list[tuple[str, list[tuple[int, float]]]], axes: tuple[str, str],
             path: str | os.PathLike, log_y: bool = False) -> None:
    """Write the svg_document chart."""
    document = svg_document(series, axes, log_y)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(document)
    except OSError as e:
        raise OSError(f"cannot write SVG to {path}: {e}") from e


def deviation_lines(report: SweepReport, d: int, targets: dict[str, int]) -> list[str]:
    """Absolute/relative deviations of one row's totals from reference values."""
    row = report.row(d)
    lines = [f"d={d} (convention {row.convention}):"]
    for name, target in targets.items():
        actual = getattr(row, f"nsum_{name}")
        dev = abs(actual - target)
        lines.append(
            f"  {name}: N_SUM={actual}, reference {target}, |deviation|={dev} ({dev / target:.2%})")
    return lines
