"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints a
[PASS]/[FAIL] line (run with `pytest -s` to see the lines for passing tests).

Criterion 8 is split.  8a checks the drop after the 2^6 boundary.  8b
derives multiplexed N_SUM at d = 127, 131 and 137 from the counting rules in
plain arithmetic, asserts that the sweep reports exactly those values under
every registered convention, and pins the relation they fix: N_SUM(137)
exceeds N_SUM(131) (by 168 CX under default-v1), while the drop after the
2^7 boundary is N_SUM(131) < N_SUM(127).
"""

import contextlib
import csv
import random
import time

import pytest

from qrsmux import analysis, gf2m, lowering
from qrsmux import circuit as ir
from qrsmux.circuit import Circuit, Control, CostBreakdown, Register, RegisterTable, Wire
from qrsmux.circuit import parse, serialize
from qrsmux.galois import FieldSpec
from qrsmux.revsim import verify_sum
from qrsmux.sumsynth import plan, predicted_counts, synth_mod, synth_sum
from test_lowering import _gadget_truth_table, _mcx_truth_table
from test_sumsynth import outcomes


@contextlib.contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    print(f"\n[PASS] criterion {num}: {label} ({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def full_sweep(tmp_path_factory):
    """Sweep 3..257, emitted to CSV and parsed back; curve criteria read the CSV."""
    report = analysis.sweep(3, 257)
    path = tmp_path_factory.mktemp("sweep") / "report.csv"
    analysis.emit_csv(report, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return report, rows


def test_criterion_1_sum_count_formula():
    with criterion(1, "SUM-count formula values and integrality"):
        start = time.perf_counter()
        assert analysis.sum_gate_count(5) == 13
        assert analysis.sum_gate_count(139) == 9728
        for d in analysis.primes_in(3, 257):
            assert (d * d + d - 4) % 2 == 0
            assert analysis.sum_gate_count(d) == (d * d + d - 4) // 2
        assert time.perf_counter() - start < 1.0


def test_criterion_2_table_oracle_equality():
    with criterion(2, "closed-form tally equals synthesized tally for every prime 3..257"):
        start = time.perf_counter()
        classes = lambda k: {f"C{k + 1}X", f"C{k}X", "C2X", "C1X"}
        for d in analysis.primes_in(3, 257):
            c = synth_sum(d)
            k = plan(d).k
            assert c.count().restrict(classes(k)) == predicted_counts(d).restrict(classes(k)), d
            assert c.count() == predicted_counts(d), d  # no stray gate classes either
        assert time.perf_counter() - start < 10.0


def test_criterion_3_semantic_correctness():
    with criterion(3, "exhaustive simulation for every prime d <= 61"):
        start = time.perf_counter()
        for d in analysis.primes_in(3, 61):
            report = verify_sum(d, synth_sum(d))
            assert report.verified, (d, report.failures[:3])
            assert report.total_cases == d * d
        for d in (7, 11, 13):  # carry-controlled flag path
            assert any(f.needs_carry_control for f in outcomes(d))
        assert time.perf_counter() - start < 60.0


def test_criterion_4_d5_worked_layout():
    with criterion(4, "d=5 corrections 2+3+2+2, three check-if qubits plus carry substitution, "
                      "n_aux = 6"):
        p, table = plan(5), outcomes(5)
        assert [bin(f.correction_mask).count("1") for f in table] == [2, 3, 2, 2]
        assert [f.correction_mask for f in table] == [0b101, 0b111, 0b101, 0b011]
        assert p.n_checkif == 3
        assert table[-1].uses_carry_substitute and table[-1].value == 8
        assert p.n_aux == 6 == p.k + 5 - 2
        mod = synth_mod(p)
        by_flag = {}
        for g in mod.gates:
            if g.kind == "MCX" and g.arity == 1:
                by_flag.setdefault(g.controls[0].wire, []).append(g)
        assert sorted(len(v) for v in by_flag.values()) == [2, 2, 2, 3]
        assert sum(1 for g in mod.gates if g.kind == "MCX" and g.arity >= 2) == 3


def test_criterion_5_decomposition_constants():
    with criterion(5, "general/Ralph decomposition constants, formula vs expansion"):
        assert lowering.TOFFOLI_TALLY == {"C1X": 6, "H": 2, "Tdag": 3, "T": 5}
        table = RegisterTable([Register("c", 14, 0, "work"), Register("t", 1, 1, "work")])
        def tally(arity, strategy):  # of a one-gate circuit, from its Lowered record
            c = Circuit(table, [ir.mcx([Wire("c", i) for i in range(arity)], Wire("t", 0))])
            (lowered,) = lowering.lower_circuit(c, strategy).signatures.values()
            return lowered.tally

        for k in range(2, 13):
            n_tof_k = 1 if k == 2 else 4 * (k - 2)
            exp_k = tally(k, lowering.general())
            assert exp_k == CostBreakdown(
                {key: n_tof_k * v for key, v in lowering.TOFFOLI_TALLY.items()})
            exp_k1 = tally(k + 1, lowering.general())
            assert exp_k1["C1X"] == 6 * 4 * (k - 1)
            assert tally(k, lowering.ralph())["C1X"] == 2 * k - 1


def test_criterion_6_d139_anchors(full_sweep):
    with criterion(6, "d=139 totals within 5% of the reference pair 21182 / 1049"):
        start = time.perf_counter()
        fresh = analysis.sweep_row(139)  # timed on its own, independent of the fixture
        assert time.perf_counter() - start < 5.0
        report, _ = full_sweep
        targets = {"general": 21182, "multiplexed": 1049}
        for line in analysis.deviation_lines(report, 139, targets):
            print(line)
        for name, target in targets.items():
            actual = getattr(fresh, f"nsum_{name}")
            assert actual == getattr(report.row(139), f"nsum_{name}")
            assert abs(actual - target) / target < 0.05, (name, actual, target)


def test_criterion_7_curve_shape(full_sweep):
    with criterion(7, "ratio jumps at {5,11,17,37,67,131}, net decrease per region, "
                      "increase 19..31"):
        report, csv_rows = full_sweep
        jumps = analysis.detect_jumps(report)
        assert {kb: d for kb, d in jumps.items() if 2 <= kb <= 7} == {
            2: 5, 3: 11, 4: 17, 5: 37, 6: 67, 7: 131}
        ratio = {int(r["d"]): float(r["ratio_general"]) for r in csv_rows}
        prev = None
        for r in report.rows:
            if prev is not None and r.k > prev.k:
                assert ratio[r.d] > ratio[prev.d], ("no upward jump", prev.d, r.d)
            prev = r
        # decrease across the three named regions: the boundary prime is the
        # strict maximum and the final prime sits strictly below it
        for lo, hi in [(37, 63), (67, 127), (131, 255)]:
            region = analysis.primes_in(lo, hi)
            first = region[0]
            assert all(ratio[d] < ratio[first] for d in region[1:]), (lo, hi)
            assert ratio[region[-1]] < ratio[first]
        seq = [ratio[d] for d in (19, 23, 29, 31)]
        assert all(b > a for a, b in zip(seq, seq[1:]))


def test_criterion_8a_boundary_drop_67_vs_61(full_sweep):
    with criterion("8a", "multiplexed N_SUM(67) < N_SUM(61)"):
        report, _ = full_sweep
        assert report.row(67).nsum_multiplexed < report.row(61).nsum_multiplexed


# CX cost of one collapsed carry-controlled flag gate per convention: a full
# Toffoli tally, or one CX when its inner Toffoli is itself multiplexed.
CARRY_FLAG_CX = {"default-v1": 6, "inner-collapse-v1": 1}


def _nsum_multiplexed_components(d):
    """k and (plain flags, carry-controlled flags, correction CX) for prime d, by hand."""
    k = (d - 1).bit_length()  # 2^(k-1) < d <= 2^k
    top = 1 << k
    plain = carry = correction = 0
    for i in range(d, 2 * (d - 1) + 1):
        correction += bin((i % top) ^ (i % d)).count("1")
        if i == top and 2 * (d - 1) == top:
            continue  # the top carry is this outcome's flag: no flag gate
        if i >= top:
            carry += 1
        else:
            plain += 1
    return k, (plain, carry, correction)


def _nsum_multiplexed(d, carry_flag_cx):
    k, (plain, carry, correction) = _nsum_multiplexed_components(d)
    adder = 6 * (3 * k - 2) + (2 * k - 1)
    return adder + plain + carry_flag_cx * carry + correction


def test_criterion_8b_137_vs_131(full_sweep):
    with criterion("8b", "multiplexed N_SUM at 127/131/137 equals its derivation under every "
                         "convention; N_SUM(137) - N_SUM(131) = +168 and "
                         "N_SUM(131) < N_SUM(127) under default-v1"):
        assert _nsum_multiplexed_components(131) == (8, (125, 5, 509))
        assert _nsum_multiplexed_components(137) == (8, (119, 17, 611))
        assert set(CARRY_FLAG_CX) == set(analysis.CONVENTIONS)
        nsum = {}
        for cid, carry_flag_cx in CARRY_FLAG_CX.items():
            if cid == analysis.DEFAULT_CONVENTION_ID:
                report, _ = full_sweep
            else:
                report = analysis.sweep(127, 137, (lowering.MULTIPLEXED,), cid)
            assert report.convention == cid
            nsum[cid] = {d: report.row(d).nsum_multiplexed for d in (127, 131, 137)}
            assert nsum[cid] == {d: _nsum_multiplexed(d, carry_flag_cx)
                                 for d in (127, 131, 137)}, cid
            assert nsum[cid][137] > nsum[cid][131], cid
        default = nsum[analysis.DEFAULT_CONVENTION_ID]
        # +12 carry-controlled flags at 6 CX, -6 plain flags at 1 CX, +102 corrections
        assert default[137] - default[131] == 12 * 6 - 6 * 1 + 102 == 168
        assert default[131] < default[127]


def test_criterion_9_gf2m():
    with criterion(9, "GF(2^m) matrices, gate costs, encoder free of multi-controlled gates"):
        start = time.perf_counter()
        spec = gf2m.build_code(2, 2)
        alpha = spec.field.alpha_power(1)
        alpha2 = spec.field.alpha_power(2)
        assert spec.gen_poly_dual == (alpha, 1 ^ alpha, 1)
        assert spec.G == ((1, 0, alpha), (0, 1, alpha2))
        assert spec.H == ((alpha, alpha2, 1),)
        for n, want in [(0, 2), (1, 3), (2, 3)]:
            c = gf2m.synth_cmuladd(spec.field, n)
            assert c.count()["C1X"] == want
            assert gf2m.verify_cmuladd(c, spec.field, n)
        for m in range(1, 9):
            f = FieldSpec.binary_extension(m)
            for n in range(max(1, f.order - 1)):
                assert gf2m.synth_cmuladd(f, n).count()["C1X"] == \
                    gf2m.cmuladd_cx_formula(f, n), (m, n)
        for m in range(2, 9):
            enc = gf2m.synth_encoder_gf2m(gf2m.build_code(m, 1 << (m - 1)))
            assert all(g.kind != "MCX" for g in enc.gates)
            expanded, _ = gf2m.expand_cmuladds(enc)
            assert all(g.arity < 2 for g in expanded.gates if g.kind == "MCX")
            gen = lowering.lower_circuit(expanded, lowering.general()).cx_total
            mux = lowering.lower_circuit(expanded, lowering.multiplexed()).cx_total
            assert gen == mux, m
        assert time.perf_counter() - start < 30.0


def test_criterion_10_gadget_soundness():
    with criterion(10, "switch-gadget truth tables match C_kX for k <= 6"):
        def lowered_of(circ):  # the one-gate circuit's Lowered record, multiplexed
            (lowered,) = lowering.lower_circuit(circ, lowering.multiplexed()).signatures.values()
            return lowered

        for arity in range(1, 7):
            table = RegisterTable([Register("c", arity, 1, "data-B"),
                                   Register("t", 1, 2, "check-if")])
            pols = [ir.ZERO if i % 2 else ir.POSITIVE for i in range(arity)]
            g = ir.mcx([Control(Wire("c", i), p) for i, p in enumerate(pols)], Wire("t", 0))
            lowered = lowered_of(Circuit(table, [g]))
            assert not lowered.fallback
            assert _gadget_truth_table(g, lowered.gadget) == _mcx_truth_table(g)
        # collapsed carry-controlled gate costs exactly one Toffoli tally
        table = RegisterTable([Register("B", 3, 1, "data-B"), Register("carry", 1, 2, "carry"),
                               Register("checkif", 1, 2, "check-if")])
        g = ir.mcx([Wire("B", 0), Wire("B", 1), Wire("B", 2), Wire("carry", 0)],
                   Wire("checkif", 0))
        lowered = lowered_of(Circuit(table, [g]))
        assert not lowered.fallback and lowered.gadget.inner == "C2X"
        assert lowered.tally.restrict(["C1X", "H", "T", "Tdag"]) == CostBreakdown(lowering.TOFFOLI_TALLY)
        assert _gadget_truth_table(g, lowered.gadget) == _mcx_truth_table(g)


def test_criterion_11_round_trip_1000_circuits():
    with criterion(11, "serialize/parse preserves counts for 1000 randomized circuits"):
        start = time.perf_counter()
        rng = random.Random(20260809)
        roles = ("data-A", "data-B", "carry", "check-if", "work")
        for case in range(1000):
            width = rng.randint(1, 3)
            regs = [Register(f"r{i}", width, rng.randint(0, 2), rng.choice(roles))
                    for i in range(rng.randint(2, 4))]
            table = RegisterTable(regs)
            wires = [Wire(r.name, i) for r in regs for i in range(width)]
            meta = ir.Meta(d=rng.choice([None, 2, 5, 8]), strategy=rng.choice(["", "general"]),
                           note=f"case {case}")
            gates = []
            for _ in range(rng.randint(0, 15)):
                kind = rng.choice(("X", "H", "T", "Tdag", "OS", "MCX", "MCX", "MCX",
                                   "SUM", "DFT", "CMulAdd"))
                if kind == "MCX":
                    k = rng.randint(2, min(5, len(wires)))
                    chosen = rng.sample(wires, k)
                    ctrls = [Control(w, rng.choice((ir.POSITIVE, ir.ZERO)))
                             for w in chosen[:-1]]
                    gates.append(ir.mcx(ctrls, chosen[-1]))
                elif kind in ("SUM", "CMulAdd"):
                    a, b = rng.sample(regs, 2)
                    if kind == "SUM":
                        gates.append(ir.sum_gate(a.name, b.name, d=1 << width))
                    else:
                        gates.append(ir.cmuladd(a.name, b.name, n=rng.randint(0, 6)))
                elif kind == "DFT":
                    gates.append(ir.dft(rng.choice(regs).name, d=1 << width))
                else:
                    gates.append(ir.Gate(kind, targets=(rng.choice(wires),)))
            c = Circuit(table, gates, meta)
            back = parse(serialize(c))
            assert back.count() == c.count(), case
            assert back.gates == c.gates, case
        assert time.perf_counter() - start < 10.0
