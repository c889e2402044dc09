import itertools
import operator
from typing import NamedTuple

import pytest

from qrsmux import analysis, sumsynth
from qrsmux.analysis import primes_in
from qrsmux.circuit import POSITIVE, ZERO, Circuit, Control, Gate, Wire, cx, toffoli
from qrsmux.errors import InvalidDimensionError
from qrsmux.revsim import truth_table
from qrsmux.sumsynth import (
    correction_cx_total, plan, predicted_counts, sum_registers, synth_mod, synth_rca, synth_sum,
)
from test_emitter import SAMPLED_MOD_PRIMES


# ---------------------------------------------------------------
# Planning
# ---------------------------------------------------------------

class Outcome(NamedTuple):
    """One adder outcome needing modulo conversion."""

    value: int                   # outcome i in [d, 2(d-1)]
    pattern: int                 # i mod 2^k over k bits, read by the flag gate
    needs_carry_control: bool    # i >= 2^k
    correction_mask: int         # pattern XOR (i mod d)
    uses_carry_substitute: bool  # top carry doubles as the flag qubit (no flag gate)
    checkif_index: int | None    # index into the check-if register, None when substituted


def outcomes(d):
    """The reference outcome table of the dimension-d SUM gate: one Outcome
    per adder outcome in [d, 2(d-1)], in order."""
    top = 1 << sumsynth.compute_k(d)
    table, checkif_index = [], 0
    for i in range(d, 2 * (d - 1) + 1):
        substituted = i == top and 2 * (d - 1) == top
        table.append(Outcome(i, i % top, i >= top, (i % top) ^ (i % d), substituted,
                             None if substituted else checkif_index))
        checkif_index += not substituted
    return tuple(table)


def test_plan_d5():
    p = plan(5)
    assert (p.k, p.case, p.n_checkif, p.n_aux) == (3, "A", 3, 6)
    values = [f.value for f in outcomes(5)]
    assert values == [5, 6, 7, 8]
    # 2(d-1) = 8 = 2^3, value 8 rides on Carry_8
    assert [f.uses_carry_substitute for f in outcomes(5)] == [False, False, False, True]


def test_plan_d7_case_b():
    p = plan(7)
    assert (p.k, p.case) == (3, "B")
    assert [f.value for f in outcomes(7)] == [7, 8, 9, 10, 11, 12]
    # outcome 7 reads data bits only; 8..12 additionally control on the top carry
    assert [f.needs_carry_control for f in outcomes(7)] == [False, True, True, True, True, True]
    assert not any(f.uses_carry_substitute for f in outcomes(7))
    assert p.n_checkif == 6 and p.n_aux == 9


def test_plan_d3_boundary():
    p = plan(3)
    assert (p.k, p.case, p.n_checkif) == (2, "A", 1)
    assert outcomes(3)[-1].uses_carry_substitute  # value 4 = 2^2


def test_plan_validation():
    with pytest.raises(InvalidDimensionError):
        plan(9)
    with pytest.raises(InvalidDimensionError):
        plan(2053)  # k = 12 > K_MAX


def test_plan_invariants_all_primes():
    for d in primes_in(2, 257):
        p, table = plan(d), outcomes(d)
        assert (1 << (p.k - 1)) < d <= (1 << p.k)
        assert p.n_aux == p.k + p.n_checkif
        assert p.n_checkif == sum(f.checkif_index is not None for f in table), d
        assert any(f.uses_carry_substitute for f in table) == (2 * (d - 1) == 1 << p.k)
        for f in table:
            assert f.needs_carry_control == (f.value >= (1 << p.k))
            assert f.pattern == f.value % (1 << p.k)
            assert f.correction_mask == f.pattern ^ (f.value % d)
    assert [d for d in primes_in(3, 257) if outcomes(d)[-1].uses_carry_substitute] == [3, 5, 17, 257]


# ---------------------------------------------------------------
# Ripple-carry adder
# ---------------------------------------------------------------

def test_rca_tally_formula():
    assert synth_rca(3).count().as_dict() == {"C2X": 7, "C1X": 5}
    assert synth_rca(1).count().as_dict() == {"C2X": 1, "C1X": 1}
    for k in range(1, 8):
        assert synth_rca(k).count() == predicted_counts_rca(k)


def test_the_adder_is_built_once_per_width():
    for k in range(1, 11):
        assert synth_rca(k) is synth_rca(k), k


def test_every_sum_circuit_starts_with_the_shared_adder_of_its_width():
    """The adder's records are taken in, the same objects, not emitted again."""
    for d in primes_in(2, 1021):
        k = plan(d).k
        head, adder = synth_sum(d).records[:5 * k - 3], synth_rca(k).records
        assert head == adder and all(map(operator.is_, head, adder)), d


def predicted_counts_rca(k):
    from qrsmux.circuit import CostBreakdown
    return CostBreakdown({"C2X": 3 * k - 2, "C1X": 2 * k - 1})


def adder_table(c):
    """truth_table over the A, B and carry wires, as (A, B, carry) -> (A, B, carry)."""
    k = c.table["A"].width
    wires = [Wire(reg, j) for reg in ("A", "B", "carry") for j in range(k)]
    split = lambda bits: (bits & ((1 << k) - 1), bits >> k & ((1 << k) - 1), bits >> 2 * k)
    return {split(key): split(out) for key, out in truth_table(c, wires).items()}


def test_rca_adds_3_plus_4():
    a, b, carry = adder_table(synth_rca(3))[3, 4, 0]
    assert b == 7
    assert a == 3
    assert (carry >> 2) & 1 == 0  # no overflow


def test_rca_truth_table_exhaustive():
    """B <- (A+B) mod 2^k with the overflow in the top carry, for k <= 3."""
    for k in (1, 2, 3):
        table = adder_table(synth_rca(k))
        for a in range(1 << k):
            for b in range(1 << k):
                got_a, got_b, carry = table[a, b, 0]
                assert got_a == a
                assert got_b == (a + b) % (1 << k)
                assert (carry >> (k - 1)) & 1 == ((a + b) >> k) & 1


def test_rca_tally_constant_within_k_plateau():
    # the adder part depends only on k, so it is flat between powers of two
    for k in (3, 4, 5):
        tallies = {synth_rca(k).count().as_dict() == predicted_counts_rca(k).as_dict()
                   for _ in primes_in((1 << (k - 1)) + 1, 1 << k)}
        assert tallies == {True}


# ---------------------------------------------------------------
# Modulo conversion
# ---------------------------------------------------------------

def test_mod_d5_correction_pattern():
    """Corrections for 5,6,7,8 -> 0,1,2,3 flip (X I X), (X X X), (X I X), (I X X)."""
    masks = [f.correction_mask for f in outcomes(5)]
    assert masks == [0b101, 0b111, 0b101, 0b011]
    assert [bin(m).count("1") for m in masks] == [2, 3, 2, 2]
    c = synth_mod(plan(5))
    corrections = [g for g in c.gates if g.kind == "MCX" and g.arity == 1]
    assert len(corrections) == 9
    # the value-8 corrections are controlled by the top carry, not a check-if qubit
    carry_controlled = [g for g in corrections if g.controls[0].wire == Wire("carry", 2)]
    assert len(carry_controlled) == 2


def test_mod_d5_three_flag_gates():
    c = synth_mod(plan(5))
    flags = [g for g in c.gates if g.kind == "MCX" and g.arity >= 2]
    assert len(flags) == 3
    assert all(g.arity == 3 for g in flags)


def test_mod_d7_tally():
    # 2d - 2^k - 1 = 5 carry-controlled flags, 2^k - d = 1 plain flag,
    # and sum of Hamming distances = 11 correction CX
    assert correction_cx_total(7) == 11
    c = synth_mod(plan(7))
    assert c.count().as_dict() == {"C4X": 5, "C3X": 1, "C1X": 11}


def test_flag_phase_exclusivity():
    """At most one flag fires for every achievable adder output."""
    for d in primes_in(3, 61):
        k = plan(d).k
        top = 1 << k
        for v in range(0, 2 * (d - 1) + 1):
            data, carry = v % top, v >> k
            fired = 0
            for f in outcomes(d):
                if f.uses_carry_substitute:
                    fired += carry
                elif f.needs_carry_control:
                    fired += int(data == f.pattern and carry == 1)
                else:
                    fired += int(data == f.pattern)
            assert fired <= (1 if v >= d else 0), (d, v)
            if d <= v:
                assert fired == 1, (d, v)


# ---------------------------------------------------------------
# Full SUM gate and the closed-form oracle
# ---------------------------------------------------------------

def test_synth_sum_semantics_spot():
    a, b, _ = adder_table(synth_sum(5))[3, 4, 0]
    assert b == 2 and a == 3
    _, b, _ = adder_table(synth_sum(7))[6, 6, 0]
    assert b == 5


def test_predicted_counts_d139():
    want = {"C9X": 21, "C8X": 117, "C2X": 22, "C1X": 15 + correction_cx_total(139)}
    assert predicted_counts(139).as_dict() == want


def test_predicted_counts_d3():
    # flags merge into the Toffoli class when k = 2
    assert predicted_counts(3).as_dict() == {"C2X": 5, "C1X": 6}
    assert synth_sum(3).count() == predicted_counts(3)


def test_oracle_equality_sampled():
    for d in (3, 5, 7, 11, 13, 17, 31, 37, 127, 131, 139, 257):
        assert synth_sum(d).count() == predicted_counts(d), d


def test_synth_sum_rejects_non_prime():
    with pytest.raises(InvalidDimensionError):
        synth_sum(15)


def test_metadata_records_dirty_ancillas():
    c = synth_sum(5)
    assert "ancillas" in c.meta.note
    assert c.meta.d == 5


def test_d2_boundary_half_adder():
    c = synth_sum(2)
    assert c.count().as_dict() == {"C2X": 1, "C1X": 1}
    # table key bit 0 = A, bit 1 = B; output B' = A xor B with A preserved
    tt = truth_table(c, [Wire("A", 0), Wire("B", 0)])
    assert tt == {0b00: 0b00, 0b01: 0b11, 0b10: 0b10, 0b11: 0b01}


# ---------------------------------------------------------------
# Table-driven emission against a per-bit reference
# ---------------------------------------------------------------

def reference_rca_gates(k):
    """The ripple-carry adder, gate by gate through the checked constructors."""
    a, b, c = ([Wire(reg, i) for i in range(k)] for reg in ("A", "B", "carry"))
    gates = [toffoli(a[0], b[0], c[0]), cx(a[0], b[0])]
    for i in range(1, k):
        gates += [toffoli(a[i], b[i], c[i]), toffoli(a[i], c[i - 1], c[i]), toffoli(b[i], c[i - 1], c[i]),
                  cx(a[i], b[i]), cx(c[i - 1], b[i])]
    return gates


def reference_mod_gates(p):
    """The modulo conversion, built bit by bit through the checked Gate(...):
    each flag reads every pattern bit in turn, and each correction walks all k
    bits of its mask."""
    k = p.k
    b = [Wire("B", j) for j in range(k)]
    b_out = [(w,) for w in b]
    b_by_bit = [(Control(w, ZERO), Control(w, POSITIVE)) for w in b]  # [j][pattern bit j]
    top_carry = Control(Wire("carry", k - 1))
    checkif_out = [(Wire("checkif", i),) for i in range(p.n_checkif)]
    gates = []
    for f in outcomes(p.d):
        if f.uses_carry_substitute:
            continue
        controls = tuple([b_by_bit[j][f.pattern >> j & 1] for j in range(k)])
        if f.needs_carry_control:
            controls += (top_carry,)
        gates.append(Gate("MCX", controls, checkif_out[f.checkif_index]))
    for f in outcomes(p.d):
        if f.uses_carry_substitute:
            controls = (top_carry,)
        else:
            controls = (Control(checkif_out[f.checkif_index][0]),)
        for j in range(k):
            if f.correction_mask >> j & 1:
                gates.append(Gate("MCX", controls, b_out[j]))
    return gates


def assert_matches_reference(emitted, gates, label):
    reference = Circuit(emitted.table, gates, emitted.meta)
    assert emitted.gates == reference.gates, label
    assert list(emitted.signature_histogram().items()) == list(reference.signature_histogram().items()), label


def test_synth_sum_equals_the_per_bit_reference():
    for d in primes_in(2, 1021):
        p = plan(d)
        assert_matches_reference(synth_sum(d), reference_rca_gates(p.k) + reference_mod_gates(p), d)


def test_synth_mod_equals_the_per_bit_reference():
    for d in SAMPLED_MOD_PRIMES:
        p = plan(d)
        emitted = synth_mod(p)
        assert emitted.table == sum_registers(p)
        assert_matches_reference(emitted, reference_mod_gates(p), d)


def correction_records(c):
    """c's corrections from its check-if qubits, keyed by (check-if index q, B bit j)."""
    first_b, first_q = c.table.offset("B"), c.table.offset("checkif")
    corrections = [c.records[i] for i in c.signature_histogram()[("MCX", ("checkif",), "B")]]
    return {(r[0][0] - first_q, r[1] - first_b): r for r in corrections}


def flag_controls(c, d):
    """c's flag controls, keyed by the outcome i = d + check-if index that each flags."""
    first_q = c.table.offset("checkif")
    return {d + c.records[i][1] - first_q: c.records[i][0]
            for sig, indices in c.signature_histogram().items() if sig[2] == "checkif" for i in indices}


def test_circuits_of_one_width_share_their_modulo_tables():
    widths = [correction_records(c) for c in (synth_sum(521), synth_sum(1021), synth_mod(plan(1019)))]
    for x, y in itertools.combinations(widths, 2):
        shared = x.keys() & y.keys()
        assert shared and all(x[key] is y[key] for key in shared)
    x, y = flag_controls(synth_sum(521), 521), flag_controls(synth_sum(1019), 1019)
    shared = x.keys() & y.keys()
    assert shared == set(range(1019, 1041))  # the arity-k flags 1019..1023 and the carry flags after them
    assert all(x[i] == y[i] and x[i] is y[i] for i in shared)
    tables = sumsynth._modulo_tables
    tables.cache_clear()
    analysis.sweep(3, 1021)
    ks = sorted({plan(d).k for d in primes_in(3, 1021)})
    assert ks == list(range(2, 11))
    before = tables.cache_info()
    rows = [tables(k)[2] for k in ks]
    assert tables.cache_info().misses == before.misses and before.currsize == len(ks)
    assert all(len(table) == 1 << k and {len(row) for row in table} == {k} for table, k in zip(rows, ks))
    assert sum(len(row) for table in rows for row in table) == 18432
