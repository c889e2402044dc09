from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrsmux import circuit as ir, lowering
from qrsmux.circuit import Circuit, Control, Register, RegisterTable, Wire
from qrsmux.errors import LoweringError
from qrsmux.lowering import (
    TOFFOLI_TALLY, explicit_general_circuit, lower_circuit,
    _collapse, _general_tally, _ralph_tally,
)
from qrsmux.sumsynth import synth_sum


def mk_mcx(arity, polarities=None):
    table = RegisterTable([Register("c", arity, 1, "data-B"), Register("t", 1, 2, "check-if")])
    pols = polarities or [ir.POSITIVE] * arity
    gate = ir.mcx([Control(Wire("c", i), p) for i, p in enumerate(pols)], Wire("t", 0))
    circ = Circuit(table, [gate])
    return circ, gate


def lowered_of(circ, strategy=None):
    """The Lowered record of a one-gate circuit's gate (multiplexed by default)."""
    (lowered,) = lower_circuit(circ, strategy or lowering.multiplexed()).signatures.values()
    return lowered


def carry_controlled(arity=4, carry_width=3):
    """A one-gate circuit: an MCX on B[0..arity-2] and the top carry wire, the
    carry and check-if registers sharing a photon."""
    table = RegisterTable([
        Register("B", arity - 1, 1, "data-B"),
        Register("carry", carry_width, 2, "carry"),
        Register("checkif", 1, 2, "check-if"),
    ])
    g = ir.mcx([Wire("B", i) for i in range(arity - 1)] + [Wire("carry", carry_width - 1)], Wire("checkif", 0))
    return Circuit(table, [g]), g


# ---------------------------------------------------------------
# General decomposition
# ---------------------------------------------------------------

def test_general_cx_passthrough():
    circ, _ = mk_mcx(1)
    assert lowered_of(circ, lowering.general()).tally.as_dict() == {"C1X": 1}


def test_general_toffoli_tally():
    circ, _ = mk_mcx(2)
    assert lowered_of(circ, lowering.general()).tally.as_dict() == {"C1X": 6, "H": 2, "T": 5, "Tdag": 3}
    assert TOFFOLI_TALLY == {"C1X": 6, "H": 2, "Tdag": 3, "T": 5}


def test_general_c3x_four_toffolis():
    circ, _ = mk_mcx(3)
    assert lowered_of(circ, lowering.general()).tally.as_dict() == {"C1X": 24, "H": 8, "T": 20, "Tdag": 12}


def test_general_c8x():
    circ, _ = mk_mcx(8)
    assert lowered_of(circ, lowering.general()).tally["C1X"] == 144  # 4*(8-2) Toffolis at 6 CX each


@given(st.integers(3, 13))
def test_general_formula_vs_expansion(j):
    circ, _ = mk_mcx(j)
    tally = lowered_of(circ, lowering.general()).tally
    n_toffoli = 4 * (j - 2)
    assert tally["C1X"] == 6 * n_toffoli
    assert tally["H"] == 2 * n_toffoli
    assert tally["Tdag"] == 3 * n_toffoli
    assert tally["T"] == 5 * n_toffoli


def test_general_ignores_polarity_for_counting():
    circ, _ = mk_mcx(4, [ir.ZERO, ir.POSITIVE, ir.ZERO, ir.POSITIVE])
    assert lowered_of(circ, lowering.general()).tally["C1X"] == 6 * 8


def test_toffoli_tally_charges_more_than_the_explicit_construction():
    """The general tally is a cost model, not a count of explicit_general_circuit:
    its Toffoli has one T fewer than TOFFOLI_TALLY, and its C3X takes 3
    Toffolis with one clean work qubit where the tally charges 4(j-2) = 4."""
    assert explicit_general_circuit(2).count().as_dict() == {"C1X": 6, "H": 2, "T": 4, "Tdag": 3}
    assert TOFFOLI_TALLY["T"] == 5
    c3x = explicit_general_circuit(3)
    assert len(c3x) == 3 * len(explicit_general_circuit(2)) and c3x.count()["C1X"] == 18
    assert c3x.table["work"].width == 1
    assert lowered_of(mk_mcx(3)[0], lowering.general()).tally == \
        ir.CostBreakdown({k: 4 * v for k, v in TOFFOLI_TALLY.items()})


# ---------------------------------------------------------------
# Ralph cost model
# ---------------------------------------------------------------

def test_ralph_formula():
    for j, want in [(2, 3), (3, 5), (8, 15)]:
        lowered = lowered_of(mk_mcx(j)[0], lowering.ralph())
        assert lowered.tally.as_dict() == {"C1X": want}
        assert lowered.qudit_dim == j
    circ1, _ = mk_mcx(1)
    lowered = lowered_of(circ1, lowering.ralph())
    assert (lowered.tally, lowered.qudit_dim) == (lowered_of(circ1, lowering.general()).tally, None)


# ---------------------------------------------------------------
# Multiplexed decomposition
# ---------------------------------------------------------------

def test_multiplexed_single_photon_collapses_to_one_cx():
    circ, _ = mk_mcx(3)
    lowered = lowered_of(circ)
    gadget = lowered.gadget
    assert not lowered.fallback
    assert lowered.tally.as_dict() == {"C1X": 1, "OS": 6}
    assert gadget.inner == "CX" and gadget.routed_photon == 1
    assert gadget.stages_in == gadget.stages_out == 3
    assert (gadget.collapsed, gadget.residual) == ((0, 1, 2), ())


def test_multiplexed_carry_controlled_gate_costs_one_toffoli():
    circ, _ = carry_controlled()
    lowered = lowered_of(circ)
    assert not lowered.fallback
    assert lowered.gadget.inner == "C2X"
    assert lowered.tally.as_dict() == {"C1X": 6, "H": 2, "T": 5, "Tdag": 3, "OS": 6}
    assert (lowered.gadget.collapsed, lowered.gadget.residual) == ((0, 1, 2), (3,))


def test_multiplexed_cross_photon_toffoli_falls_back():
    table = RegisterTable([
        Register("A", 1, 0, "data-A"),
        Register("B", 1, 1, "data-B"),
        Register("carry", 1, 2, "carry"),
    ])
    circ = Circuit(table, [ir.toffoli(Wire("A", 0), Wire("B", 0), Wire("carry", 0))])
    lowered = lowered_of(circ)
    assert lowered.fallback and lowered.gadget is None
    assert lowered.tally == lowered_of(circ, lowering.general()).tally


def test_multiplexed_three_photons_falls_back():
    table = RegisterTable([Register(n, 1, p, "work") for n, p in
                           [("a", 0), ("b", 1), ("c", 2), ("t", 3)]])
    circ = Circuit(table, [ir.mcx([Wire("a", 0), Wire("b", 0), Wire("c", 0)], Wire("t", 0))])
    lowered = lowered_of(circ)
    assert lowered.fallback and lowered.tally == lowered_of(circ, lowering.general()).tally
    report = lower_circuit(circ, lowering.multiplexed())
    assert any("3 photons" in n for n in report.notes)


def test_multiplexed_balanced_two_photon_split_falls_back():
    table = RegisterTable([Register("a", 2, 0, "work"), Register("b", 2, 1, "work"),
                           Register("t", 1, 2, "work")])
    circ = Circuit(table, [ir.mcx([Wire("a", 0), Wire("a", 1), Wire("b", 0), Wire("b", 1)], Wire("t", 0))])
    lowered = lowered_of(circ)
    assert lowered.fallback and lowered.tally == lowered_of(circ, lowering.general()).tally


def test_multiplexed_os_cost_configurable():
    circ, _ = mk_mcx(4)
    assert lowered_of(circ, lowering.multiplexed(3)).tally["OS"] == 12


def test_inner_collapse_variant():
    circ, _ = carry_controlled()
    lowered = lowered_of(circ, lowering.multiplexed(collapse_inner_c2x=True))
    assert not lowered.fallback and lowered.tally.as_dict() == {"C1X": 1, "OS": 8}
    assert (lowered.gadget.collapsed, lowered.gadget.residual) == ((0, 1, 2), (3,))


def test_arity_1_gadget_is_kept_on_the_record_but_not_listed():
    circ, _ = mk_mcx(1)
    report = lower_circuit(circ, lowering.multiplexed())
    (lowered,) = report.signatures.values()
    assert lowered.gadget == lowering.GadgetDescriptor(1, 1, 1, 1, "CX", 2, (0,), ())
    assert report.gadgets == []


# ---------------------------------------------------------------
# Whole-circuit lowering
# ---------------------------------------------------------------

def recount(circuit, per_class_cx):
    """Independent CX total from the gate-class tally."""
    counts = circuit.count()
    return sum(per_class_cx[cls] * n for cls, n in counts.as_dict().items())


def test_lower_circuit_general_d5():
    c = synth_sum(5)
    report = lower_circuit(c, lowering.general())
    want = recount(c, {"C3X": 24, "C2X": 6, "C1X": 1})
    assert report.cx_total == want == 128


def test_lower_circuit_multiplexed_d5():
    c = synth_sum(5)
    report = lower_circuit(c, lowering.multiplexed())
    # flags collapse to one CX; adder Toffolis cross photons and keep the 6-CX tally
    want = recount(c, {"C3X": 1, "C2X": 6, "C1X": 1})
    assert report.cx_total == want == 59
    assert report.os_total == 2 * 3 * 3 + 2 * 14  # three 3-control collapses + degenerate CX pairs
    assert len(report.gadgets) == 3


def qudit_ancillas(report):
    """(gate index, dimension) of every gate whose Lowered record takes a qudit ancilla, in gate order."""
    return sorted((i, lowered.qudit_dim) for lowered in report.signatures.values()
                  if lowered.qudit_dim is not None for i in lowered.indices)


def test_lower_circuit_ralph_d5():
    c = synth_sum(5)
    report = lower_circuit(c, lowering.ralph())
    want = recount(c, {"C3X": 5, "C2X": 3, "C1X": 1})
    assert report.cx_total == want == 50
    assert report.notes and "lower bound" in report.notes[0]
    assert (qudit_ancillas(report) and
            all(dim == arity for (_, dim), arity in
                zip(qudit_ancillas(report), [g.arity for g in c.gates if g.arity >= 2])))


def test_lower_circuit_rejects_qudit_gates():
    table = RegisterTable([Register("A", 2, 0, "data-A"), Register("B", 2, 1, "data-B")])
    c = Circuit(table, [ir.sum_gate("A", "B", 4)])
    with pytest.raises(LoweringError, match=r"gate 0 \(SUM\)"):
        lower_circuit(c, lowering.general())


def test_lower_circuit_passthrough_gates():
    table = RegisterTable([Register("q", 2, 0, "work")])
    c = Circuit(table, [ir.h(Wire("q", 0)), ir.x(Wire("q", 1)), ir.cx(Wire("q", 0), Wire("q", 1))])
    report = lower_circuit(c, lowering.general())
    assert report.total.as_dict() == {"C1X": 1, "X": 1, "H": 1}
    assert report.cx_total == 1  # X and H stay out of CX figures


def test_report_rows_shape():
    c = synth_sum(3)
    report = lower_circuit(c, lowering.multiplexed())
    rows = lowering.report_rows(report)
    assert len(rows) == len(c)
    assert len(lowering.REPORT_COLUMNS) == 11
    idx = lowering.REPORT_COLUMNS.index("fallback-flag")
    assert {r[idx] for r in rows} == {0, 1}  # adder Toffolis fall back, flags collapse


def per_gate_reference(c, strategy):
    """Report fields from calling the strategy's rule on every gate, one by one."""
    rows, total, gadgets, ancillas, notes = [], ir.CostBreakdown(), [], [], []
    for i, g in enumerate(c.gates):
        photons, fallback = "-", False
        if g.kind != "MCX":
            tally = ir.CostBreakdown({g.kind: 1})
        else:
            on = [c.table[ct.wire.reg].photon for ct in g.controls]
            sizes = Counter(on)
            photons = "+".join(f"{p}:{n}" for p, n in sorted(sizes.items()))
            if strategy.name == lowering.GENERAL:
                tally = _general_tally(g.arity)
            elif strategy.name == lowering.RALPH:
                tally, dim = _ralph_tally(g.arity)
                if dim is not None:
                    ancillas.append((i, dim))
                    if lowering.RALPH_NOTE not in notes:
                        notes.append(lowering.RALPH_NOTE)
            else:
                rule = _collapse(g.arity, sizes, strategy)
                if rule is None:
                    tally, fallback = _general_tally(g.arity), True
                else:
                    routed_photon, routed, inner, tally = rule
                    if g.arity >= 2:
                        gadgets.append((i, lowering.GadgetDescriptor(
                            g.arity, routed_photon, routed, routed, inner, tally["OS"],
                            tuple(k for k, p in enumerate(on) if p == routed_photon),
                            tuple(k for k, p in enumerate(on) if p != routed_photon))))
                if len(sizes) >= 3:
                    notes.append(f"gate {i}: controls span {len(sizes)} photons; "
                                 "fell back to the general tally")
        rows.append([i, g.kind, g.arity, photons, strategy.name, tally["C1X"], tally["H"],
                     tally["T"], tally["Tdag"], tally["OS"], int(fallback)])
        total = total + tally
    return rows, total, gadgets, ancillas, notes


def assert_equals_per_gate_reference(c, strategy):
    """lower_circuit(c, strategy) gives the per-gate reference's rows, total,
    gadgets, qudit ancillas and notes; returns the rows."""
    report = lower_circuit(c, strategy)
    rows, total, gadgets, want_ancillas, notes = per_gate_reference(c, strategy)
    assert lowering.report_rows(report) == rows
    assert report.total.as_dict() == total.as_dict()
    assert report.gadgets == gadgets
    assert (qudit_ancillas(report), report.notes) == (want_ancillas, notes)
    return rows


@st.composite
def spread_circuits(draw):
    """Circuits of MCX/X/H/T/Tdag gates on registers spread over 3-4 photons."""
    n_photons = draw(st.integers(3, 4))
    widths = draw(st.lists(st.integers(1, 3), min_size=n_photons, max_size=6))
    photons = list(range(n_photons)) + [draw(st.integers(0, n_photons - 1))
                                        for _ in widths[n_photons:]]
    regs = [Register(f"r{k}", w, p, "work") for k, (w, p) in enumerate(zip(widths, photons))]
    wires = [Wire(r.name, j) for r in regs for j in range(r.width)]
    gates = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["MCX", "MCX", "MCX", "X", "H", "T", "Tdag"]))
        if kind == "MCX":
            chosen = draw(st.permutations(wires))[:draw(st.integers(2, min(6, len(wires))))]
            gates.append(ir.mcx([Control(w, draw(st.sampled_from(ir.POLARITIES))) for w in chosen[:-1]],
                                chosen[-1]))
        else:
            gates.append(ir.Gate(kind, targets=(draw(st.sampled_from(wires)),)))
    return Circuit(RegisterTable(regs), gates)


@pytest.mark.parametrize("os_cost", [2, 3])
@pytest.mark.parametrize("name", lowering.STRATEGY_NAMES)
@settings(deadline=None, max_examples=60)
@given(c=spread_circuits())
def test_lower_circuit_equals_per_gate_rules(name, os_cost, c):
    assert_equals_per_gate_reference(c, lowering.Strategy(name, os_cost))


def test_lower_circuit_signature_table_sums_to_total():
    c = synth_sum(137)
    for name in lowering.STRATEGY_NAMES:
        report = lower_circuit(c, lowering.Strategy(name))
        histogram = c.signature_histogram()
        assert report.signatures.keys() == histogram.keys()
        indices = [i for lowered in report.signatures.values() for i in lowered.indices]
        assert sorted(indices) == list(range(len(c)))
        for key, lowered in report.signatures.items():
            assert lowered.indices == histogram[key]
            assert all(ir.signature(c.gates[i]) == key for i in lowered.indices)
        total = sum((ir.CostBreakdown({k: len(lowered.indices) * v for k, v in lowered.tally.as_dict().items()})
                     for lowered in report.signatures.values()), ir.CostBreakdown())
        assert total == report.total


def test_rules_follow_photons_not_register_names():
    """Two tables that name the same registers but place B on different
    photons, lowered in turn in one process: each report is its own table's."""
    c = synth_sum(137)
    moved = RegisterTable([Register(r.name, r.width, 0 if r.name == "B" else r.photon, r.role)
                           for r in c.table.registers])
    on_photon_0 = Circuit(moved, c.gates, c.meta)
    assert on_photon_0.records == c.records
    for name in lowering.STRATEGY_NAMES:
        for circ in (c, on_photon_0, c):
            assert_equals_per_gate_reference(circ, lowering.Strategy(name))
    # the adder's A-B Toffolis collapse only when B shares A's photon
    assert lower_circuit(c, lowering.multiplexed()).total != lower_circuit(on_photon_0, lowering.multiplexed()).total


def test_each_strategy_is_served_its_own_rules():
    c = synth_sum(137)
    strategies = [lowering.Strategy(lowering.MULTIPLEXED, 2), lowering.Strategy(lowering.MULTIPLEXED, 3),
                  lowering.multiplexed(collapse_inner_c2x=True)]
    first = [assert_equals_per_gate_reference(c, s) for s in strategies]
    assert len({tuple(map(tuple, rows)) for rows in first}) == 3  # three strategies, three reports
    for s, rows in zip(strategies * 2, first * 2):
        assert assert_equals_per_gate_reference(c, s) == rows


@pytest.mark.parametrize("name", lowering.STRATEGY_NAMES)
@pytest.mark.parametrize("unexpanded", [ir.sum_gate("A", "B", 4), ir.dft("B", 4), ir.cmuladd("A", "B", 1)],
                         ids=["SUM", "DFT", "CMulAdd"])
def test_lower_circuit_raises_on_unexpanded_gate_before_any_read(name, unexpanded):
    table = RegisterTable([Register("A", 2, 0, "data-A"), Register("B", 2, 1, "data-B")])
    c = Circuit(table, [ir.cx(Wire("A", 0), Wire("B", 0)), ir.h(Wire("A", 1)), unexpanded,
                        ir.cx(Wire("A", 1), Wire("B", 1))])
    with pytest.raises(LoweringError, match=rf"gate 2 \({unexpanded.kind}\)"):
        lower_circuit(c, lowering.Strategy(name))


@pytest.mark.parametrize("name", lowering.STRATEGY_NAMES)
def test_report_rows_are_those_of_the_gates_lowered(name):
    emitted = synth_sum(5)
    checked = Circuit(emitted.table, emitted.gates)  # its histogram is built by walking the gates
    strategy = lowering.Strategy(name)
    report = lower_circuit(checked, strategy)
    want = lower_circuit(emitted, strategy)
    assert len(report.rows) == len(emitted)
    assert lowering.report_rows(report) == lowering.report_rows(want)
    assert (report.gadgets, qudit_ancillas(report), report.notes) == (want.gadgets, qudit_ancillas(want), want.notes)
    assert report.total == want.total


@pytest.mark.parametrize("d", [5, 137, 1021])
@pytest.mark.parametrize("name", lowering.STRATEGY_NAMES)
def test_rows_and_report_csv_agree_with_report_rows(name, d):
    c = synth_sum(d)
    report = lower_circuit(c, lowering.Strategy(name))
    assert len(report.rows) == len(c)
    assert all(i in lowered.indices for i, lowered in enumerate(report.rows))
    lines = [lowering.REPORT_COLUMNS] + lowering.report_rows(report)
    assert lowering.report_csv(report) == "".join(",".join(map(str, line)) + "\n" for line in lines)


# ---------------------------------------------------------------
# Signature histogram
# ---------------------------------------------------------------

def per_gate_count(gates):
    """Gate-class tally taken gate by gate, without the signature histogram."""
    return ir.CostBreakdown(Counter(f"C{len(g.controls)}X" if g.kind == "MCX" else g.kind for g in gates))


@st.composite
def spread_circuits_with_qudit_gates(draw):
    """spread_circuits with register-level SUM and DFT gates inserted."""
    base = draw(spread_circuits())
    regs = base.table.registers
    gates = list(base.gates)
    for _ in range(draw(st.integers(1, 6))):
        reg = draw(st.sampled_from(regs))
        partners = [r for r in regs if r.width == reg.width and r is not reg]
        if partners and draw(st.booleans()):
            g = ir.sum_gate(draw(st.sampled_from(partners)).name, reg.name, 1 << reg.width)
        else:
            g = ir.dft(reg.name, 1 << reg.width)
        gates.insert(draw(st.integers(0, len(gates))), g)
    return Circuit(base.table, gates)


@settings(deadline=None, max_examples=60)
@given(c=spread_circuits_with_qudit_gates())
def test_count_equals_per_gate_tally(c):
    assert c.count() == c.count() == per_gate_count(c.gates)
    histogram = c.signature_histogram()
    assert list(histogram) == list(dict.fromkeys(ir.signature(g) for g in c.gates))
    assert sorted(i for indices in histogram.values() for i in indices) == list(range(len(c)))
    for key, indices in histogram.items():
        assert list(indices) == sorted(indices)
        assert [i for i, g in enumerate(c.gates) if ir.signature(g) == key] == list(indices)


@settings(deadline=None, max_examples=40)
@given(c=spread_circuits_with_qudit_gates(), data=st.data())
def test_without_gate_count_drops_that_gates_class(c, data):
    before = c.count()  # fills the circuit's histogram
    i = data.draw(st.integers(0, len(c) - 1))
    g = c.gates[i]
    dropped = ir.CostBreakdown({f"C{g.arity}X" if g.kind == "MCX" else g.kind: 1})
    assert c.without_gate(i).count() + dropped == before
    assert c.count() == before


# ---------------------------------------------------------------
# Gadget descriptors and soundness
# ---------------------------------------------------------------

def _gadget_truth_table(gate, gadget):
    """Independent reading of the gadget: the inner gate acts exactly on the
    basis states where every collapsed control matches its polarity."""
    controls = list(gate.controls)
    arity = len(controls)
    table = {}
    for bits in range(1 << (arity + 1)):
        assignment = {ct.wire: (bits >> i) & 1 for i, ct in enumerate(controls)}
        def satisfied(position):
            ct = controls[position]
            return assignment[ct.wire] == (1 if ct.pol == ir.POSITIVE else 0)
        fire = all(satisfied(k) for k in gadget.collapsed) and \
            all(satisfied(k) for k in gadget.residual)
        table[bits] = bits ^ (fire << arity)
    return table


def _mcx_truth_table(gate):
    controls = list(gate.controls)
    arity = len(controls)
    table = {}
    for bits in range(1 << (arity + 1)):
        fire = all(((bits >> i) & 1) == (1 if ct.pol == ir.POSITIVE else 0)
                   for i, ct in enumerate(controls))
        table[bits] = bits ^ (fire << arity)
    return table


@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5, 6])
def test_gadget_soundness_single_photon(arity):
    pols = [ir.ZERO if i % 2 else ir.POSITIVE for i in range(arity)]
    circ, g = mk_mcx(arity, pols)
    lowered = lowered_of(circ)
    assert not lowered.fallback
    assert _gadget_truth_table(g, lowered.gadget) == _mcx_truth_table(g)


@pytest.mark.parametrize("arity", [3, 4, 5, 6])
def test_gadget_soundness_carry_controlled(arity):
    circ, g = carry_controlled(arity, carry_width=1)
    lowered = lowered_of(circ)
    assert not lowered.fallback and lowered.gadget.inner == "C2X"
    assert lowered.tally.restrict(["C1X", "H", "T", "Tdag"]) == ir.CostBreakdown(TOFFOLI_TALLY)
    assert _gadget_truth_table(g, lowered.gadget) == _mcx_truth_table(g)


# ---------------------------------------------------------------
# Semantic preservation of the explicit general construction
# ---------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_T = np.diag([1, np.exp(1j * np.pi / 4)])
_ONEQ = {"H": _H, "T": _T, "Tdag": _T.conj()}


def _statevector_permutation(circ, inputs):
    """Map each basis input to its basis output (asserting outputs stay basis states)."""
    nq = circ.table.total_width
    perm = {}
    for basis in inputs:
        state = np.zeros(1 << nq, dtype=complex)
        state[basis] = 1.0
        for g in circ.gates:
            if g.kind == "MCX":
                cbit = circ.table.resolve(g.controls[0].wire)
                tbit = circ.table.resolve(g.targets[0])
                out = state.copy()
                for b in range(1 << nq):
                    if (b >> cbit) & 1:
                        out[b] = state[b ^ (1 << tbit)]
                state = out
            else:
                mat = _ONEQ[g.kind]
                q = circ.table.resolve(g.targets[0])
                psi = np.moveaxis(state.reshape([2] * nq), nq - 1 - q, 0)
                psi = np.tensordot(mat, psi, axes=([1], [0]))
                state = np.moveaxis(psi, 0, nq - 1 - q).reshape(-1)
        idx = int(np.argmax(np.abs(state)))
        assert abs(abs(state[idx]) - 1.0) < 1e-9, "output is not a basis state"
        perm[basis] = idx
    return perm


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_explicit_general_circuit_matches_mcx(arity):
    circ = explicit_general_circuit(arity)
    ctrl_mask = (1 << arity) - 1
    tgt_bit = circ.table.resolve(Wire("tgt", 0))
    inputs = [(b & ctrl_mask) | (((b >> arity) & 1) << tgt_bit) for b in range(1 << (arity + 1))]
    perm = _statevector_permutation(circ, inputs)
    for b in inputs:
        want = b ^ (1 << tgt_bit) if (b & ctrl_mask) == ctrl_mask else b
        assert perm[b] == want


def test_explicit_general_circuit_gate_set():
    for arity in (2, 3, 4):
        kinds = {g.kind for g in explicit_general_circuit(arity).gates}
        assert kinds <= {"MCX", "H", "T", "Tdag"}
        assert all(g.arity == 1 for g in explicit_general_circuit(arity).gates
                   if g.kind == "MCX")
