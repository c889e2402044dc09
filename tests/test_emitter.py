"""Trusted emission: every synthesizer builds its gates through circuit.Emitter,
which skips the per-gate checks, and so does parse for the qubit MCX gates of
a document.  Each emitted or parsed circuit must equal the one the checked
path (Gate(...) plus Circuit(...)) builds from the same values, and its
pre-built signature histogram must equal the one computed from its gates.
"""

import contextlib
import functools
import gc
import io
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from qrsmux import circuit as ir, cli, lowering, sumsynth
from qrsmux.analysis import primes_in
from qrsmux.circuit import (
    ZERO, Circuit, Control, Emitter, Gate, Meta, Register, RegisterTable, Wire, mcx, parse, serialize, signature,
)
from qrsmux.errors import ParseError
from qrsmux.galois import FieldSpec
from qrsmux.gf2m import build_code, expand_cmuladds, synth_cmuladd, synth_encoder_gf2m
from qrsmux.lowering import explicit_general_circuit
from test_circuit import assert_parses_as_checked, circuits, laid_out, named

SAMPLED_MOD_PRIMES = [2, 3, 5, 7, 17, 31, 61, 127, 131, 137, 257, 509, 1021]


def sum_circuits():
    for d in primes_in(2, 1021):
        yield f"synth_sum({d})", sumsynth.synth_sum(d)


def rca_circuits():
    for k in range(1, 11):
        yield f"synth_rca({k})", sumsynth.synth_rca(k)


def mod_circuits():
    for d in SAMPLED_MOD_PRIMES:
        yield f"synth_mod(plan({d}))", sumsynth.synth_mod(sumsynth.plan(d))


def cmuladd_circuits():
    for m in range(1, 9):
        f = FieldSpec.binary_extension(m)
        for n in range(max(1, f.order - 1)):
            yield f"synth_cmuladd(m={m}, n={n})", synth_cmuladd(f, n)


@functools.lru_cache(maxsize=None)
def encoder(m):
    return synth_encoder_gf2m(build_code(m, 1 << (m - 1)))


def expanded_circuits():
    for m in range(2, 9):
        expanded, _ = expand_cmuladds(encoder(m))
        yield f"expand_cmuladds(m={m})", expanded


def checked_built_circuits():
    """Circuits built by Circuit(...), which checks each gate before it emits it."""
    for i, c in enumerate(gate_built_circuits()):
        yield f"gate_built_circuits()[{i}]", c
    for arity in range(1, 5):
        yield f"explicit_general_circuit({arity})", explicit_general_circuit(arity)
    for m in range(2, 6):
        yield f"synth_encoder_gf2m(m={m})", encoder(m)


FAMILIES = {
    "synth_sum": sum_circuits,
    "synth_rca": rca_circuits,
    "synth_mod": mod_circuits,
    "synth_cmuladd": cmuladd_circuits,
    "expand_cmuladds": expanded_circuits,
    "Circuit": checked_built_circuits,
}


def checked_gates(c: Circuit) -> list[Gate]:
    """c's gates rebuilt one by one through Gate(...)."""
    return [Gate(g.kind, g.controls, g.targets, d=g.d, n=g.n, poly=g.poly) for g in c.gates]


def checked_copy(c: Circuit) -> Circuit:
    """c rebuilt gate by gate through Gate(...) and Circuit(...)."""
    return Circuit(c.table, checked_gates(c), c.meta)


@pytest.mark.parametrize("family", FAMILIES)
def test_trusted_gates_equal_checked_gates(family):
    for label, emitted in FAMILIES[family]():
        gates = checked_gates(emitted)
        checked = Circuit(emitted.table, gates, emitted.meta)
        # checked.gates is rebuilt from its records, so compare with the Gates themselves too
        assert emitted.gates == tuple(gates) == checked.gates, label
        assert list(map(hash, emitted.gates)) == list(map(hash, checked.gates)), label


def walked_histogram(gates) -> list:
    """(signature, gate indices) pairs in order of first use, from one walk over the gates."""
    groups: dict[tuple, list[int]] = {}
    for i, g in enumerate(gates):
        groups.setdefault(signature(g), []).append(i)
    return [(key, tuple(indices)) for key, indices in groups.items()]


@pytest.mark.parametrize("family", FAMILIES)
def test_prebuilt_histogram_equals_computed(family):
    rng = random.Random(11)
    for label, emitted in FAMILIES[family]():
        prebuilt = list(emitted.signature_histogram().items())
        assert prebuilt == walked_histogram(emitted.gates), label
        assert all(indices for _, indices in prebuilt), label

        n = len(emitted)
        for i in sorted({0, rng.randrange(n)}) if n else ():
            mutant = emitted.without_gate(i)
            # gate i leaves its signature; later gates move down one place, and
            # a signature whose first gate was i may now come later in use order
            shifted = [(key, tuple(j - (j > i) for j in indices if j != i)) for key, indices in prebuilt]
            want = sorted([(key, indices) for key, indices in shifted if indices], key=lambda kv: kv[1][0])
            assert list(mutant.signature_histogram().items()) == want, (label, i)
            assert list(mutant.signature_histogram().items()) == walked_histogram(mutant.gates), (label, i)


def test_extend_emits_a_gate_per_record_and_none_without_records():
    table = RegisterTable([Register("q", 4, 0, "work"), Register("r", 2, 1, "work")])
    q1 = (Control(Wire("q", 1)),)
    em = Emitter(table)  # q holds offsets 0..3 and r offsets 4 and 5
    em.extend([])
    em.extend([((1,), 4), ((1,), 5)])
    em.extend([])
    em.mcx((1,), 0)
    c = em.circuit(Meta())
    assert c.gates == (Gate("MCX", q1, (Wire("r", 0),)), Gate("MCX", q1, (Wire("r", 1),)),
                       Gate("MCX", q1, (Wire("q", 0),)))
    assert list(c.signature_histogram().items()) == [
        (("MCX", ("q",), "r"), (0, 1)), (("MCX", ("q",), "q"), (2,))]
    assert list(c.signature_histogram().items()) == walked_histogram(c.gates)


def test_emitting_after_circuit_leaves_the_circuit_unchanged():
    table = RegisterTable([Register("q", 3, 0, "work")])
    em = Emitter(table)
    em.mcx((0,), 1)
    c = em.circuit(Meta())
    em.mcx((1,), 2)
    assert (len(c), c.records, c.count().as_dict()) == (1, (((0,), 1),), {"C1X": 1})
    assert len(em.circuit(Meta())) == 2


def test_include_appends_a_circuit_and_its_histogram_shifted():
    table = RegisterTable([Register("q", 4, 0, "work"), Register("r", 2, 1, "work")])
    part = Circuit(RegisterTable(table.registers[:1]), [ir.cx(Wire("q", 0), Wire("q", 1)), ir.x(Wire("q", 2))])
    em = Emitter(table)
    em.mcx((4,), 0)
    em.include(part)
    em.mcx((1,), 3)
    c = em.circuit(Meta())
    assert c.records == (((4,), 0), ((0,), 1), part.records[1], ((1,), 3))
    assert list(c.signature_histogram().items()) == [
        (("MCX", ("r",), "q"), (0,)), (("MCX", ("q",), "q"), (1, 3)), (("X", (), "q"), (2,))]
    assert list(c.signature_histogram().items()) == walked_histogram(c.gates)


@pytest.mark.parametrize("registers", [
    [Register("r", 2, 1, "work")],
    [Register("q", 4, 0, "work"), Register("s", 2, 1, "work")],
    [Register("q", 4, 1, "work")],
    [Register("q", 4, 0, "work"), Register("r", 2, 1, "work"), Register("s", 1, 2, "work")],
], ids=["other-register", "other-second-register", "other-photon", "longer-table"])
def test_include_refuses_a_circuit_whose_table_is_not_a_prefix(registers):
    em = Emitter(RegisterTable([Register("q", 4, 0, "work"), Register("r", 2, 1, "work")]))
    em.mcx((4,), 0)
    first = registers[0].name
    with pytest.raises(ValueError, match="not a prefix"):
        em.include(Circuit(RegisterTable(registers), [ir.cx(Wire(first, 0), Wire(first, 1))]))
    assert em.records == [((4,), 0)]


def test_checked_circuit_stores_the_records_of_the_emitted_one():
    circuits = [sumsynth.synth_sum(d) for d in primes_in(3, 257)]
    circuits += [expand_cmuladds(encoder(m))[0] for m in range(2, 6)]
    for c in circuits:
        assert Circuit(c.table, c.gates, c.meta).records == c.records, c.meta


def gate_built_circuits():
    """Circuits built gate by gate: X gates, zero-polarity controls, and an
    MCX that carries d, so it is stored as its Gate."""
    table = RegisterTable([Register("q", 4, 0, "work"), Register("r", 2, 1, "work")])
    q0, q1, q2, q3, r0, r1 = Wire("q", 0), Wire("q", 1), Wire("q", 2), Wire("q", 3), Wire("r", 0), Wire("r", 1)
    yield Circuit(table, [ir.x(q0), mcx([Control(q2, ZERO), r1], q3), mcx([r0], r1), ir.x(r1)], Meta(d=5))
    yield Circuit(table, [mcx([Control(q1, ZERO), Control(q2, ZERO), q0], q3), ir.h(q1),
                          Gate("MCX", (Control(q1), Control(r0, ZERO)), (r1,), d=3), ir.x(q3)])


def same_table_variants(c: Circuit) -> list[Circuit]:
    """c, its checked copy, its parsed copy and circuits on its table whose
    gates differ from c's: a gate removed, the order reversed, the first
    MCX's first control flipped in polarity."""
    gates = list(c.gates)
    at = next(i for i, g in enumerate(gates) if g.kind == "MCX")
    (wire, pol), *rest = gates[at].controls
    flip = Control(wire, ZERO if pol == ir.POSITIVE else ir.POSITIVE)
    flipped = gates[:at] + [gates[at]._replace(controls=(flip, *rest))] + gates[at + 1:]
    return [c, Circuit(c.table, gates, c.meta), parse(serialize(c)), c.without_gate(0),
            c.without_gate(len(c) - 1), Circuit(c.table, gates[::-1], c.meta), Circuit(c.table, flipped, c.meta)]


def test_records_encode_gates_one_to_one_on_the_round_trip_corpus():
    """On one table, two circuits have equal records exactly when they have
    equal gates, so comparing records compares gates."""
    corpus = [sumsynth.synth_sum(d) for d in primes_in(3, 257)]
    corpus += [expand_cmuladds(encoder(m))[0] for m in range(2, 6)]
    corpus += gate_built_circuits()
    for c in corpus:
        variants = same_table_variants(c)
        assert ir._gates_of(c.table, c.records) == c.gates, c.meta
        assert [u.gates == c.gates for u in variants] == [True] * 3 + [False] * 4, c.meta
        for i, u in enumerate(variants):
            for v in variants[i:]:
                assert u.table == v.table
                assert (u.records == v.records) == (u.gates == v.gates), (c.meta, i)
                assert (u == v) == ((u.gates, u.meta) == (v.gates, v.meta)), (c.meta, i)


def test_held_records_are_not_tracked_by_the_garbage_collector():
    # A record whose controls tuple lies behind it in the collector's list
    # stays tracked through the collection that untracks the controls, so
    # one collection may leave records tracked; the next untracks them.
    for d in (13, 61, 257, 1021):
        c = sumsynth.synth_sum(d)
        gc.collect()
        gc.collect()
        assert len(c.records) == len(c) and not any(gc.is_tracked(r) for r in c.records), d


def test_without_gate_on_an_emitted_circuit_equals_it_on_the_checked_copy():
    emitted = sumsynth.synth_sum(13)
    checked = Circuit(emitted.table, emitted.gates, emitted.meta)
    for i in range(len(emitted)):
        mutant, want = emitted.without_gate(i), checked.without_gate(i)
        assert mutant.gates == want.gates, i
        assert list(mutant.signature_histogram().items()) == list(want.signature_histogram().items()), i
        assert (mutant.count(), len(mutant)) == (want.count(), len(want)), i


def test_built_and_mutant_circuits_are_read_without_emitting(monkeypatch):
    """Circuit(...) and without_gate hand over a whole circuit: reading its
    histogram, count or lowering emits nothing."""
    emitted = sumsynth.synth_sum(13)
    built = [Circuit(emitted.table, emitted.gates, emitted.meta), explicit_general_circuit(4),
             *gate_built_circuits()]

    def refuse(*args):
        raise AssertionError("a built circuit was emitted again on read")

    monkeypatch.setattr(Emitter, "extend", refuse)
    monkeypatch.setattr(Emitter, "add", refuse)
    for c in built + [emitted.without_gate(i) for i in range(len(emitted))]:
        assert list(c.signature_histogram().items()) == walked_histogram(c.gates), c.meta
        assert c.count().total() == len(c), c.meta
        for strategy in (lowering.general(), lowering.ralph(), lowering.multiplexed()):
            assert lowering.lower_circuit(c, strategy).cx_total >= 0, (c.meta, strategy)


def test_mixed_polarity_controls_out_of_order_survive_parse_and_serialize():
    table = RegisterTable([Register("q", 4, 0, "work"), Register("r", 2, 1, "work")])
    controls = (Control(Wire("r", 1)), Control(Wire("q", 3), ZERO), Control(Wire("q", 0)),
                Control(Wire("r", 0), ZERO))
    gates = (Gate("MCX", controls, (Wire("q", 1),)), Gate("MCX", controls[::-1], (Wire("q", 2),)))
    document = serialize(Circuit(table, gates))
    parsed = parse(document)
    assert serialize(parsed) == document
    assert parsed.gates == gates
    assert parsed.records == (((5, ~3, 0, ~4), 1), ((~4, 0, ~3, 5), 2))  # q at offsets 0..3, r at 4 and 5


# ---------------------------------------------------------------
# parse: every parsed gate equals the checked Gate of its values
# ---------------------------------------------------------------

# The smallest and largest prime of each register width k = 2..10; 1021 is
# the largest prime the sweep takes.
STRATIFIED_PRIMES = [p for width_k in (primes_in(1 << (k - 1), (1 << k) - 1) for k in range(2, 11))
                     for p in (width_k[0], width_k[-1])]


def assert_parsed_like_checked(document: str, label) -> Circuit:
    parsed = parse(document)
    checked = checked_copy(parsed)
    assert parsed.gates == checked.gates, label
    assert list(map(hash, parsed.gates)) == list(map(hash, checked.gates)), label
    assert list(parsed.signature_histogram().items()) == list(checked.signature_histogram().items()), label
    return parsed


def test_parsed_sum_documents_equal_checked_gates():
    assert STRATIFIED_PRIMES[-1] == 1021 and len(STRATIFIED_PRIMES) == 18
    for d in STRATIFIED_PRIMES:
        c = sumsynth.synth_sum(d)
        parsed = assert_parsed_like_checked(serialize(c), d)
        assert parsed.gates == c.gates, d


@pytest.mark.parametrize("m", range(2, 6))
def test_parsed_encoder_documents_equal_checked_gates(m):
    parsed = assert_parsed_like_checked(serialize(encoder(m)), m)
    assert parsed.gates == encoder(m).gates


@settings(deadline=None)
@given(circuits())
def test_parsed_random_documents_equal_checked_gates(c):
    parsed = assert_parsed_like_checked(serialize(c), c)
    assert parsed.gates == c.gates


def _doc(*gates):
    """A document over register q (4 qubits, photon 0) and register r (photon 1)."""
    return json.dumps({
        "registers": [{"name": "q", "width": 4, "photon": 0, "role": "work"},
                      {"name": "r", "width": 2, "photon": 1, "role": "work"}],
        "gates": [{"kind": "MCX", "controls": [{"reg": "q", "idx": 1}], "targets": [{"reg": "q", "idx": 0}]},
                  *gates],
        "meta": {},
    })


def q(idx, pol="positive"):
    return {"reg": "q", "idx": idx, "pol": pol}


@pytest.mark.parametrize("gate, message", [
    ({"kind": "MCX", "controls": [q(0), q(9)], "targets": [{"reg": "q", "idx": 0}]},
     "gates[1]: MCX gate reuses a wire: [Wire(reg='q', idx=0), Wire(reg='q', idx=9), Wire(reg='q', idx=0)]"),
    ({"kind": "MCX", "controls": [q(2), q(0)], "targets": [{"reg": "q", "idx": 0}]},
     "gates[1]: MCX gate reuses a wire: [Wire(reg='q', idx=2), Wire(reg='q', idx=0), Wire(reg='q', idx=0)]"),
    ({"kind": "MCX", "controls": [q(1, "zero"), q(1)], "targets": [{"reg": "q", "idx": 0}]},
     "gates[1]: MCX gate reuses a wire: [Wire(reg='q', idx=1), Wire(reg='q', idx=1), Wire(reg='q', idx=0)]"),
    ({"kind": "MCX", "controls": [q(1), {"reg": "r", "idx": None}], "targets": [{"reg": "q", "idx": 0}]},
     "gates[1]: MCX wires must be single qubits"),
    ({"kind": "MCX", "controls": [], "targets": [{"reg": "q", "idx": 0}]},
     "gates[1]: MCX takes >= 1 control and exactly one target"),
    ({"kind": "MCX", "controls": [q(1)], "targets": [{"reg": "q", "idx": 0}, {"reg": "q", "idx": 2}]},
     "gates[1]: MCX takes >= 1 control and exactly one target"),
    ({"kind": "MCX", "controls": [q(1), q(4)], "targets": [{"reg": "q", "idx": 0}]},
     "gates[1]: index 4 out of range for register 'q' of width 4"),
    ({"kind": "MCX", "controls": [q(1)], "targets": [{"reg": "s", "idx": 0}]},
     "gates[1]: unknown register 's'"),
    ({"kind": "X", "controls": [q(1)], "targets": [{"reg": "q", "idx": 0}]},
     "gates[1]: X takes no controls and exactly one target"),
], ids=["repeat-and-out-of-range", "target-is-control", "repeat-across-polarities", "register-control", "no-controls",
        "two-targets", "out-of-range", "unknown-register", "x-with-control"])
def test_parse_faults_at_the_fast_path_edge(gate, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(_doc(gate))


T0, RS = {"reg": "q", "idx": 0}, {"reg": "r", "idx": None}


@pytest.mark.parametrize("gate, message", [
    (["MCX"], "gates[1]: expected an object, got ['MCX']"),
    ({"controls": [q(1)], "targets": [T0]}, "gates[1]: missing field 'kind'"),
    ({"kind": "MCX", "controls": {"reg": "q"}, "targets": [T0]},
     "gates[1].controls: expected a list, got {'reg': 'q'}"),
    ({"kind": "MCX", "controls": [q(1)], "targets": "q"}, "gates[1].targets: expected a list, got 'q'"),
    ({"kind": "MCX", "controls": ["q"], "targets": [T0]}, "gates[1].controls[0]: expected an object, got 'q'"),
    ({"kind": "MCX", "controls": [{"reg": 3, "idx": 1}], "targets": [T0]},
     "gates[1].controls[0].reg: expected a string, got 3"),
    ({"kind": "MCX", "controls": [q(1)], "targets": [{"reg": "q", "idx": True}]},
     "gates[1].targets[0].idx: expected an integer >= 0, got True"),
    ({"kind": "MCX", "controls": [q(-1)], "targets": [T0]},
     "gates[1].controls[0].idx: expected an integer >= 0, got -1"),
    ({"kind": "MCX", "controls": [q(1, "negative")], "targets": [T0]},
     "gates[1].controls[0]: unknown polarity 'negative'"),
    ({"kind": "SUM", "d": 1, "controls": [q(None)], "targets": [RS]}, "gates[1].d: expected an integer >= 2, got 1"),
    ({"kind": "CMulAdd", "n": -1, "controls": [q(None)], "targets": [RS]},
     "gates[1].n: expected an integer >= 0, got -1"),
    ({"kind": "CMulAdd", "n": 1, "poly": True, "controls": [q(None)], "targets": [RS]},
     "gates[1].poly: expected an integer >= 0, got True"),
    ({"kind": "CSWAP", "controls": [q(1)], "targets": [T0]}, "gates[1]: unknown gate kind 'CSWAP'"),
    ({"kind": "SUM", "d": 3, "controls": [q(None, "zero")], "targets": [RS]},
     "gates[1]: zero-polarity control is only permitted on MCX, not SUM"),
    ({"kind": "SUM", "d": 3, "controls": [q(None)], "targets": [RS]},
     "gates[1]: SUM needs equal-width registers, got 4 and 2"),
    ({"kind": "MCX", "d": 3, "controls": [q(1)], "targets": [{"reg": "r", "idx": 2}]},
     "gates[1]: index 2 out of range for register 'r' of width 2"),
], ids=["not-object", "no-kind", "controls-not-list", "targets-not-list", "control-not-object", "reg-not-string",
        "idx-true", "idx-negative", "unknown-polarity", "d-1", "n-negative", "poly-true", "unknown-kind",
        "zero-control-on-sum", "sum-unequal-widths", "mcx-with-d-out-of-range"])
def test_checked_reader_names_each_entry_fault(gate, message):
    """The checked reader's own text for each entry-level fault, pinned
    exactly; the MCX shape faults are pinned above.  The differential tests
    compare parse with the checked reader, so they cannot see its texts drift."""
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(_doc(gate))


def test_parse_keeps_a_qubit_mcx_that_carries_d():
    gate = {"kind": "MCX", "d": 3, "controls": [q(1), q(2, "zero")], "targets": [{"reg": "r", "idx": 1}]}
    parsed = assert_parsed_like_checked(_doc(gate, gate), "d=3")
    assert [g.d for g in parsed.gates] == [None, 3, 3]
    assert list(parsed.signature_histogram().items()) == [
        (("MCX", ("q",), "q"), (0,)), (("MCX", ("q", "q"), "r"), (1, 2))]
    back = parse(serialize(parsed))
    assert (back.gates, back.signature_histogram()) == (parsed.gates, parsed.signature_histogram())


# ---------------------------------------------------------------
# parse: the records form, and the named layout of older documents
# ---------------------------------------------------------------

def assert_read_as_source(c, label) -> None:
    """parse reads c's document back equal to c, histogram key order included."""
    parsed = parse(serialize(c))
    assert parsed == c, label
    assert list(parsed.signature_histogram().items()) == list(c.signature_histogram().items()), label


def test_every_sum_document_is_read_by_its_text():
    """Every SUM circuit the sweep takes parses back from its document."""
    for d in primes_in(2, 1021):
        assert_read_as_source(sumsynth.synth_sum(d), d)


@pytest.mark.parametrize("m", range(2, 9))
def test_expanded_encoder_documents_are_read_by_their_text(m):
    expanded, _ = expand_cmuladds(encoder(m))
    assert_read_as_source(expanded, m)


def _records_doc(*entries, form=2):
    """A records-form document over register q (4 qubits, offsets 0..3) and r
    (2 qubits, offsets 4 and 5) whose first entry is a valid CX."""
    return json.dumps({"format": form,
                       "registers": [{"name": "q", "width": 4, "photon": 0, "role": "work"},
                                     {"name": "r", "width": 2, "photon": 1, "role": "work"}],
                       "gates": [[[1], 0], *entries], "meta": {}})


@pytest.mark.parametrize("document, message", [
    (_records_doc([[True], 0]), "gates[1][0][0]: expected an integer from -6 to 5, got True"),
    (_records_doc([[2, 1.0], 0]), "gates[1][0][1]: expected an integer from -6 to 5, got 1.0"),
    (_records_doc([[[1]], 0]), "gates[1][0][0]: expected an integer from -6 to 5, got [1]"),
    (_records_doc([[-7], 0]), "gates[1][0][0]: expected an integer from -6 to 5, got -7"),
    (_records_doc([[6], 0]), "gates[1][0][0]: expected an integer from -6 to 5, got 6"),
    (_records_doc([[1], 6]), "gates[1][1]: expected an integer from 0 to 5, got 6"),
    (_records_doc([[1], -1]), "gates[1][1]: expected an integer from 0 to 5, got -1"),
    (_records_doc([[1], True]), "gates[1][1]: expected an integer from 0 to 5, got True"),
    (_records_doc([[4, 1, ~1], 0]), "gates[1][0][2]: reuses wire 1"),
    (_records_doc([[~3], 3]), "gates[1][1]: reuses wire 3"),
    (_records_doc([[4, ~3], 3]), "gates[1][1]: reuses wire 3"),
    (_records_doc([[2], 2]), "gates[1][1]: reuses wire 2"),
    (_records_doc([[], 0]), "gates[1][0]: expected a list of controls, got []"),
    (_records_doc([1, 0]), "gates[1][0]: expected a list of controls, got 1"),
    (_records_doc([[1], 0, 2]), "gates[1]: expected [controls, target], got [[1], 0, 2]"),
    (_records_doc([]), "gates[1]: expected [controls, target], got []"),
    (_records_doc(form=3), "document.format: expected 2, got 3"),
    (_records_doc(form="2"), "document.format: expected 2, got '2'"),
    (_records_doc(form=2.0), "document.format: expected 2, got 2.0"),
    (_records_doc(form=True), "document.format: expected 2, got True"),
], ids=["control-true", "control-1.0", "control-nested-list", "control-below-range", "control-n", "target-n",
        "target-negative", "target-true", "repeat-as-zero-control", "zero-control-on-the-target-wire",
        "zero-control-of-two-on-the-target-wire", "control-is-target", "empty-controls", "controls-not-list",
        "three-items", "empty-entry", "format-3", "format-string", "format-float", "format-true"])
def test_records_form_names_each_entry_fault(document, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(document)


def test_records_form_reads_object_entries_and_a_document_without_format_refuses_records():
    gates = [[[1, ~4], 5], {"kind": "MCX", "controls": [q(2, "zero")], "targets": [{"reg": "r", "idx": 0}]},
             {"kind": "X", "controls": [], "targets": [{"reg": "q", "idx": 3}]}]
    c = assert_parses_as_checked(_records_doc(*gates))
    assert c.records == (((1,), 0), ((1, ~4), 5), ((~2,), 4), Gate("X", (), (Wire("q", 3),)))
    assert list(c.signature_histogram().items()) == [
        (("MCX", ("q",), "q"), (0,)), (("MCX", ("q", "r"), "r"), (1,)), (("MCX", ("q",), "r"), (2,)),
        (("X", (), "q"), (3,))]
    older = json.loads(_records_doc(*gates))
    del older["format"]
    with pytest.raises(ParseError, match=r"^gates\[0\]: expected an object, got \[\[1\], 0\]$"):
        parse(json.dumps(older))


def test_named_translation_is_the_document_serialize_wrote_before_format_2():
    """laid_out(named(...)), which the named-layout tests build their documents
    with, gives tests/data/sum5_v1.json, written by synth-sum --d 5 --emit
    before "format" 2, byte for byte."""
    older = (Path(__file__).resolve().parent / "data" / "sum5_v1.json").read_text(encoding="utf-8")
    assert laid_out(named(json.loads(serialize(sumsynth.synth_sum(5))))) == older


def edge_document(names=("q", "r"), gates=True):
    """The named-layout document, as serialize wrote it before "format" 2, of
    three MCX gates on registers q (4 qubits) and r (2)."""
    q, r = names
    table = RegisterTable([Register(q, 4, 0, "work"), Register(r, 2, 1, "work")])
    records = [mcx([Wire(q, 1)], Wire(q, 0)), mcx([Control(Wire(q, 2), ZERO), Wire(r, 1)], Wire(q, 3)),
               mcx([Wire(r, 0)], Wire(r, 1))]
    return laid_out(named(json.loads(serialize(Circuit(table, records if gates else [], Meta(d=5, note="edge"))))))


def edited(old, new):
    """edge_document() with its first old text replaced by new."""
    document = edge_document()
    assert old in document
    return document.replace(old, new, 1)


# Named-layout documents at the edge of the layout serialize wrote for them
# before "format" 2, and whether parse reads each or refuses it.
NEAR_CANONICAL = {
    "canonical": (edge_document(), True),
    "photon-negative": (edited('"photon": 0', '"photon": -1'), False),
    "width-true": (edited('"width": 4', '"width": true'), False),
    "duplicate-register": (edited('"name": "r"', '"name": "q"'), False),
    "meta-d-1": (edited('"meta": {"d": 5', '"meta": {"d": 1'), False),
    "target-repeats-a-control": (edited('"targets": [{"reg": "q", "idx": 0}]', '"targets": [{"reg": "q", "idx": 1}]'),
                                 False),
    "control-repeats-a-control": (edited('{"reg": "r", "idx": 1, "pol": "positive"}',
                                         '{"reg": "q", "idx": 2, "pol": "positive"}'), False),
    "target-repeats-a-zero-control-of-two": (edited('"targets": [{"reg": "q", "idx": 3}]',
                                                    '"targets": [{"reg": "q", "idx": 2}]'), False),
    "zero-control-on-the-target-wire": (edited('{"reg": "r", "idx": 0, "pol": "positive"}',
                                               '{"reg": "r", "idx": 1, "pol": "zero"}'), False),
    "two-targets": (edited('"targets": [{"reg": "q", "idx": 0}]',
                           '"targets": [{"reg": "q", "idx": 0}, {"reg": "r", "idx": 0}]'), False),
    "mcx-without-controls": (edited('"controls": [{"reg": "r", "idx": 0, "pol": "positive"}]', '"controls": []'),
                             False),
    "lines-joined-by-comma-space": (edited(']},\n{"kind"', ']}, {"kind"'), True),
    "trailing-line-separator": (edited(']}\n],\n"meta"', ']},\n\n],\n"meta"'), False),
    "x-line-between-mcx-lines": (edited(']},\n', ']},\n{"kind": "X", "controls": [], '
                                                  '"targets": [{"reg": "q", "idx": 2}]},\n'), True),
    "idx-out-of-range": (edited('"targets": [{"reg": "q", "idx": 3}]', '"targets": [{"reg": "q", "idx": 4}]'), False),
    "idx-1.0": (edited('{"reg": "q", "idx": 1, "pol"', '{"reg": "q", "idx": 1.0, "pol"'), False),
    "name-with-wire-opener": (edge_document(('{"reg": ', "r")), True),
    "name-with-entry-separator": (edge_document(("}, {", "r")), True),
    "non-ascii-name-raw": (edge_document(("\u00e9", "r")).replace("\\u00e9", "\u00e9", 1), True),
    "register-key-order": (edited('"width": 4, "photon": 0', '"photon": 0, "width": 4'), True),
    "meta-key-order": (edited('{"d": 5, "strategy": ""', '{"strategy": "", "d": 5'), True),
    "crlf": (edge_document().replace("\n", "\r\n"), True),
    "trailing-spaces": (edge_document().replace("\n", " \n"), True),
    "zero-gates": (edge_document(gates=False), True),
    "utf-8-bytes": (edge_document().encode(), True),
}


@pytest.mark.parametrize("document, reads", NEAR_CANONICAL.values(), ids=NEAR_CANONICAL)
def test_near_canonical_documents_parse_as_the_checked_reader_parses_them(document, reads):
    assert (assert_parses_as_checked(document) is not None) == reads


@pytest.mark.parametrize("layout", ["records", "named"])
def test_a_document_of_wide_registers_lowers_in_little_memory(tmp_path, layout):
    """Per-wire lookups are sized by the offsets a document's records use, not
    by its registers' declared widths: one CX on a register of 10**9 qubits
    lowers to a one-row report, and its gates view and walked histogram are
    built, in a few MiB."""
    table = RegisterTable([Register("q", 10 ** 9, 0, "work")])
    c = Circuit(table, [ir.cx(Wire("q", 0), Wire("q", 10 ** 9 - 1))], Meta(d=5))
    document = serialize(c) if layout == "records" else laid_out(named(json.loads(serialize(c))))
    assert len(document) < 300
    path, report = tmp_path / "wide.json", tmp_path / "wide.csv"
    path.write_text(document, encoding="utf-8")
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["lower", "--in", str(path), "--strategy", "general", "--report", str(report)])
        parsed = parse(document)
        walked = Circuit(parsed.table, parsed.gates, parsed.meta).signature_histogram()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and parsed == c and walked == parsed.signature_histogram()
    assert len(report.read_text(encoding="utf-8").splitlines()) == 2  # header and one row
    assert peak < 50 * 2 ** 20
