import csv
import hashlib
import math
import time
import xml.etree.ElementTree as ET

import pytest

from qrsmux import analysis, sumsynth
from qrsmux.analysis import (
    CSV_HEADER, SweepReport, detect_jumps, emit_csv, emit_svg, get_convention,
    primes_in, series_points, sum_gate_count, sweep, sweep_row,
)
from qrsmux.errors import InvalidDimensionError
from qrsmux.galois import is_prime
from test_sumsynth import outcomes


@pytest.fixture(scope="module")
def small_report():
    return sweep(3, 61)


# ---------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------

def test_sum_gate_count_values():
    assert sum_gate_count(5) == 13
    assert sum_gate_count(3) == 4
    assert sum_gate_count(139) == 9728


def test_sum_gate_count_rejects_bad_dimension():
    for bad in (4, 9, 2, 1, 10**25 + 13):
        start = time.perf_counter()
        with pytest.raises(InvalidDimensionError):
            sum_gate_count(bad)
        assert time.perf_counter() - start < 2  # proving a prime this large by trial division never ends


def test_sum_gate_count_integral_for_all_primes():
    for d in primes_in(3, 257):
        assert (d * d + d - 4) % 2 == 0
        sum_gate_count(d)


def test_primes_in_matches_trial_division():
    assert primes_in(3, 257) == [n for n in range(3, 258) if is_prime(n)]
    assert primes_in(10, 10) == []
    assert primes_in(17, 3) == []


# ---------------------------------------------------------------
# Sweep rows
# ---------------------------------------------------------------

def test_rows_sorted_and_complete(small_report):
    ds = [r.d for r in small_report.rows]
    assert ds == primes_in(3, 61)
    assert all(r.convention == "default-v1" for r in small_report.rows)


def test_ntot_identity(small_report):
    for r in small_report.rows:
        assert r.ntot_general == r.n_sum_gates * r.nsum_general
        assert r.ntot_ralph == r.n_sum_gates * r.nsum_ralph
        assert r.ntot_multiplexed == r.n_sum_gates * r.nsum_multiplexed


def test_general_dominates_everywhere(small_report):
    for r in small_report.rows:
        assert r.nsum_general >= r.nsum_ralph
        assert r.nsum_general >= r.nsum_multiplexed


def test_full_dominance_chain_from_d11():
    # Ralph's 3-gate Toffoli beats the cross-photon fallback below d=11,
    # so the full chain starts there.
    for r in sweep(11, 257).rows:
        assert r.nsum_multiplexed <= r.nsum_ralph <= r.nsum_general, r.d
        assert r.ratio_ralph >= 1.0


def test_strategy_subset_leaves_blank_columns():
    report = sweep(5, 7, strategies=("general",))
    row = report.rows[0]
    assert row.nsum_general is not None
    assert row.nsum_multiplexed is None and row.ratio_general is None


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        sweep(3, 7, strategies=("general", "qft"))


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        sweep(20, 10)


def test_convention_variants_change_totals():
    base = sweep_row(7)
    collapsed = sweep_row(7, convention="inner-collapse-v1")
    assert collapsed.convention == "inner-collapse-v1"
    # five carry-controlled flags drop from one Toffoli tally to one CX each
    assert base.nsum_multiplexed - collapsed.nsum_multiplexed == 5 * 5
    assert base.checkif_cx == 5 * 6 + 1 and collapsed.checkif_cx == 6


@pytest.mark.parametrize("convention_id, cx_per_carry_flag", [("default-v1", 6), ("inner-collapse-v1", 1)])
def test_checkif_cx_counts_flags_by_hand(convention_id, cx_per_carry_flag):
    # Independent of lowering: a plain flag collapses to one CX; a
    # carry-controlled flag costs one Toffoli (6 CX) or, with its inner
    # Toffoli collapsed, one CX.  The carry-substituted outcome has no gate.
    report = sweep(3, 257, strategies=("multiplexed",), convention=convention_id)
    assert len(report.rows) == len(primes_in(3, 257))
    for row in report.rows:
        flags = [f for f in outcomes(row.d) if not f.uses_carry_substitute]
        n_carry = sum(f.needs_carry_control for f in flags)
        assert row.checkif_cx == (len(flags) - n_carry) + cx_per_carry_flag * n_carry, row.d


def test_unknown_convention_rejected(monkeypatch):
    with pytest.raises(ValueError):
        get_convention("nope-v0")
    # sweep refuses the id before synthesizing any row
    monkeypatch.setattr(sumsynth, "synth_sum", lambda d: pytest.fail(f"synth_sum({d}) ran before the check"))
    with pytest.raises(ValueError, match="unknown convention 'nope-v0'"):
        sweep(3, 31, convention="nope-v0")


def test_consistency_gate_aborts_on_mismatch(monkeypatch):
    from qrsmux import sumsynth
    from qrsmux.circuit import CostBreakdown
    from qrsmux.errors import SweepConsistencyError

    monkeypatch.setattr(sumsynth, "predicted_counts",
                        lambda d: CostBreakdown({"C1X": 1}))
    with pytest.raises(SweepConsistencyError, match="d=5"):
        sweep_row(5)


def test_sweep_checks_k_max_before_synthesizing(monkeypatch):
    def fail(d):
        raise AssertionError(f"synth_sum({d}) ran before the k_max check")

    monkeypatch.setattr(sumsynth, "synth_sum", fail)
    with pytest.raises(InvalidDimensionError, match="d=1031"):
        sweep(3, 1031)


def test_sweep_plans_each_prime_once(monkeypatch):
    planned = []
    monkeypatch.setattr(sumsynth, "plan", lambda d, *args, plan=sumsynth.plan: planned.append(d) or plan(d, *args))
    sweep(3, 31)
    assert planned == primes_in(3, 31)
    planned.clear()
    sweep(29, 29)
    assert planned == [29]


# ---------------------------------------------------------------
# Ratio and boundary jumps
# ---------------------------------------------------------------

def test_jump_detection(small_report):
    assert detect_jumps(small_report) == {2: 5, 3: 11, 4: 17, 5: 37}


def test_ratio_jumps_upward_at_boundaries(small_report):
    ratio = {r.d: r.ratio_general for r in small_report.rows}
    rows = small_report.rows
    for prev, cur in zip(rows, rows[1:]):
        if cur.k > prev.k:
            assert ratio[cur.d] > ratio[prev.d], (prev.d, cur.d)


def test_ratio_increases_19_to_31(small_report):
    ratio = {r.d: r.ratio_general for r in small_report.rows}
    seq = [ratio[d] for d in (19, 23, 29, 31)]
    assert all(b > a for a, b in zip(seq, seq[1:]))


def test_ratio_net_decrease_within_regions():
    report = sweep(37, 255)
    ratio = {r.d: r.ratio_general for r in report.rows}
    for lo, hi in [(37, 63), (67, 127), (131, 255)]:
        primes = [d for d in primes_in(lo, hi)]
        first, last = primes[0], primes[-1]
        assert ratio[last] < ratio[first]
        assert all(ratio[d] < ratio[first] for d in primes[1:])


# ---------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------

def test_csv_header_bit_exact(small_report, tmp_path):
    path = tmp_path / "report.csv"
    emit_csv(small_report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("d,k,n_sum_gates,nsum_general,nsum_ralph,nsum_multiplexed,"
                        "ntot_general,ntot_ralph,ntot_multiplexed,ratio_general,ratio_ralph,"
                        "n_checkif,n_aux,os_count,n_dft,convention")
    assert lines[0] == CSV_HEADER


def test_csv_round_trips_values(small_report, tmp_path):
    path = tmp_path / "report.csv"
    emit_csv(small_report, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(small_report.rows)
    first = rows[0]
    assert int(first["d"]) == 3 and int(first["n_sum_gates"]) == 4
    assert math.isclose(float(first["ratio_general"]),
                        small_report.rows[0].ratio_general, rel_tol=1e-5)
    assert first["convention"] == "default-v1"


# SHA-256 of the sweep 3..1021 CSV under each convention: the bytes the
# curves and the acceptance criteria are read from.
SWEEP_CSV_SHA256 = {
    "default-v1": "f9a5903868800719ae22d231864e06521bf70bab2d126f29ca2761461ed46045",
    "inner-collapse-v1": "5c115b22d28ada1ccbd7a8338afefcfa92b7e902f038c3b159a542e8eb2c85fd",
}


@pytest.mark.parametrize("convention", SWEEP_CSV_SHA256)
def test_sweep_3_to_1021_csv_bytes_are_pinned(convention, tmp_path):
    path = tmp_path / "sweep.csv"
    emit_csv(sweep(3, 1021, convention=convention), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_CSV_SHA256[convention]


def test_empty_report_writes_nothing(tmp_path):
    path = tmp_path / "nope.csv"
    with pytest.raises(ValueError):
        emit_csv(SweepReport(), path)
    assert not path.exists()


def test_svg_chart(small_report, tmp_path):
    path = tmp_path / "fig.svg"
    emit_svg(series_points(small_report, "nsum"), ("d", "nsum"), path, log_y=True)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3  # general, ralph, multiplexed


def test_svg_rejects_empty_series(tmp_path):
    with pytest.raises(ValueError):
        emit_svg([], ("d", "y"), tmp_path / "x.svg")


def test_series_points_names(small_report):
    assert [name for name, _ in series_points(small_report, "ratio")] == [
        "ratio_general", "ratio_ralph"]
    with pytest.raises(ValueError):
        series_points(small_report, "bogus")


def test_nrca_series_is_flat_between_powers_of_two(small_report):
    (_, pts), = series_points(small_report, "nrca")
    by_d = dict(pts)
    # k = 5 plateau: primes 17..31 share one adder cost
    plateau = {by_d[d] for d in (17, 19, 23, 29, 31)}
    assert len(plateau) == 1
    assert by_d[37] != by_d[31]


def test_nrca_series_matches_adder_formula(small_report):
    # 3k-2 Toffolis at 6 CX each plus 2k-1 CX
    (_, pts), = series_points(small_report, "nrca")
    assert [y for _, y in pts] == [6 * (3 * r.k - 2) + (2 * r.k - 1) for r in small_report.rows]
    assert dict(pts)[17] == 87  # k = 5


def test_checkif_series_available(small_report):
    (_, qubits), = series_points(small_report, "ncheckif")
    (_, cxcost), = series_points(small_report, "checkif_cx")
    assert len(qubits) == len(cxcost) == len(small_report.rows)


def test_deviation_lines(small_report):
    lines = analysis.deviation_lines(small_report, 61, {"general": 7412})
    assert any("deviation" in line and "7412" in line for line in lines)
    assert "default-v1" in lines[0]
