import json

import pytest
from hypothesis import given, settings, strategies as st

from qrsmux import analysis, circuit as ir, cli, gf2m, lowering, revsim, sumsynth
from qrsmux.circuit import (
    Circuit, Control, CostBreakdown, Gate, Meta, Register, RegisterTable, Wire,
    parse, serialize,
)
from qrsmux.errors import InvalidGateError, ParseError, ResolutionError
from qrsmux.sumsynth import synth_sum


def two_reg_table():
    return RegisterTable([
        Register("B", 3, 1, "data-B"),
        Register("carry", 2, 2, "carry"),
    ])


# ---------------------------------------------------------------
# Gate and circuit validation
# ---------------------------------------------------------------

def test_circuit_of_one_cx():
    c = Circuit(two_reg_table(), [ir.cx(Wire("B", 0), Wire("carry", 0))])
    assert len(c) == 1


def test_mcx_control_equals_target_rejected():
    with pytest.raises(InvalidGateError, match="reuses a wire"):
        ir.mcx([Wire("B", 0)], Wire("B", 0))


_B0, _B1, _B2 = Wire("B", 0), Wire("B", 1), Wire("B", 2)


@pytest.mark.parametrize("controls, targets, message", [
    ((Control(_B0, "up"), Control(_B0)), (_B1,),
     "MCX gate reuses a wire: [Wire(reg='B', idx=0), Wire(reg='B', idx=0), Wire(reg='B', idx=1)]"),
    ((Control(_B0),), (_B0,), "MCX gate reuses a wire: [Wire(reg='B', idx=0), Wire(reg='B', idx=0)]"),
    ((Control(_B0), Control(_B1, "up"), Control(_B2, None)), (Wire("t", 0),), "unknown polarity 'up'"),
    ((Control(_B0, "up"),), (_B1, _B2), "unknown polarity 'up'"),
    ((Control(Wire("B")), Control(_B0, None)), (_B1,), "unknown polarity None"),
    ((), (_B1,), "MCX takes >= 1 control and exactly one target"),
    ((Control(_B0),), (_B1, _B2), "MCX takes >= 1 control and exactly one target"),
    ((Control(Wire("B")),), (), "MCX takes >= 1 control and exactly one target"),
    ((Control(_B0), Control(Wire("B"))), (_B1,), "MCX wires must be single qubits"),
    ((Control(_B0),), (Wire("t"),), "MCX wires must be single qubits"),
], ids=["reuse-before-polarity", "reuse-with-target", "first-bad-polarity", "polarity-before-shape",
        "polarity-before-qubits", "no-controls", "two-targets", "shape-before-qubits",
        "whole-register-control", "whole-register-target"])
def test_mcx_reports_its_first_fault(controls, targets, message):
    with pytest.raises(InvalidGateError) as info:
        Gate("MCX", controls, targets)
    assert str(info.value) == message


def test_replace_and_make_run_the_gate_checks():
    g = ir.cx(_B0, _B1)
    with pytest.raises(InvalidGateError, match="^unknown gate kind 'CSWAP'$"):
        g._replace(kind="CSWAP")
    with pytest.raises(InvalidGateError, match=r"^MCX gate reuses a wire: \[Wire\(reg='B', idx=0\), "
                                               r"Wire\(reg='B', idx=0\)\]$"):
        Gate._make(["MCX", (Control(_B0),), (_B0,), None, None, None])
    assert g._replace(targets=(_B2,)) == ir.cx(_B0, _B2)
    assert type(Gate._make(g)) is Gate and Gate._make(g) == g


def test_gate_equals_and_hashes_by_its_fields():
    """Equal fields give equal gates with the hash of the tuple of those fields."""
    g = Gate("MCX", (Control(_B0), Control(_B1, ir.ZERO)), (_B2,))
    fields = ("MCX", (Control(_B0), Control(_B1, ir.ZERO)), (_B2,), None, None, None)
    assert g == Gate(*fields) and hash(g) == hash(Gate(*fields)) == hash(fields)
    assert (g.kind, g.controls, g.targets, g.d, g.n, g.poly) == fields and g.arity == 2
    assert g != Gate("MCX", (Control(_B0), Control(_B1)), (_B2,))
    assert len({g, Gate(*fields), ir.mcx([_B0], _B2)}) == 2
    assert repr(ir.dft("B", 5)) == "Gate(kind='DFT', controls=(), targets=(Wire(reg='B', idx=None),), d=5, n=None, poly=None)"


def test_out_of_range_index_rejected():
    ok = ir.x(Wire("B", 2))
    with pytest.raises(ResolutionError, match=r"^index 3 out of range for register 'B' of width 3$"):
        Circuit(two_reg_table(), [ir.cx(Wire("B", 3), Wire("carry", 0))])
    with pytest.raises(ResolutionError, match=r"^index 2 out of range for register 'carry' of width 2$"):
        Circuit(two_reg_table(), [ok, ir.cx(Wire("B", 0), Wire("carry", 2))])
    with pytest.raises(ResolutionError, match=r"^unknown register 'nope'$"):
        Circuit(two_reg_table(), [ok, ir.x(Wire("nope", 0))])


def test_gate_on_unknown_register_rejected():
    # Before the constructor checked its gates, this circuit was counted and
    # serialized into a document that parse rejects.
    table = RegisterTable([Register("A", 2, 0, "data-A")])
    with pytest.raises(ResolutionError, match=r"^unknown register 'Z'$"):
        Circuit(table, [ir.cx(Wire("A", 0), Wire("Z", 5))])
    with pytest.raises(ResolutionError, match=r"^unknown register 'Z'$"):
        Circuit(table, [ir.sum_gate("Z", "A", 4)])


def test_circuit_keeps_its_own_copy_of_the_gates():
    gates = [ir.cx(Wire("B", 0), Wire("carry", 0)), ir.x(Wire("B", 1))]
    c = Circuit(two_reg_table(), gates)
    histogram = dict(c.signature_histogram())
    gates.append(ir.x(Wire("B", 2)))
    gates[0] = ir.h(Wire("B", 0))
    assert c.gates == (ir.cx(Wire("B", 0), Wire("carry", 0)), ir.x(Wire("B", 1)))
    assert c.signature_histogram() == histogram == {
        ("MCX", ("B",), "carry"): (0,), ("X", (), "B"): (1,)}
    assert c.count().as_dict() == {"C1X": 1, "X": 1}


def test_stored_gates_and_records_cannot_be_changed():
    c = Circuit(RegisterTable([Register("q", 2, 0, "work")]), [ir.x(Wire("q", 0))])
    with pytest.raises(AttributeError):
        c.gates.append(ir.h(Wire("q", 5)))  # outside the table, and never checked
    with pytest.raises(AttributeError):
        c.records.append(((0,), 1))
    assert (c.gates, c.records, len(c)) == ((ir.x(Wire("q", 0)),), (ir.x(Wire("q", 0)),), 1)


def test_register_offsets():
    table = two_reg_table()
    assert (table.offset("B"), table.offset("carry")) == (0, 3)
    assert table.resolve(Wire("carry", 1)) == table.offset("carry") + 1
    with pytest.raises(ResolutionError, match="unknown register"):
        table.offset("nope")


def test_polarity_restricted_to_mcx():
    with pytest.raises(InvalidGateError, match="zero-polarity"):
        Gate("SUM", controls=(Control(Wire("A"), ir.ZERO),), targets=(Wire("B"),), d=5)
    ir.mcx([Control(Wire("B", 0), ir.ZERO)], Wire("B", 1))  # fine on MCX


def test_single_qubit_gate_shape():
    with pytest.raises(InvalidGateError):
        Gate("H", controls=(Control(Wire("B", 0)),), targets=(Wire("B", 1),))
    with pytest.raises(InvalidGateError):
        Gate("X", targets=(Wire("B", 0), Wire("B", 1)))
    with pytest.raises(InvalidGateError):
        Gate("X", targets=(Wire("B"),))  # register-level wire on a qubit gate


def test_register_level_gate_shape():
    with pytest.raises(InvalidGateError):
        Gate("DFT", targets=(Wire("B", 0),), d=5)  # qubit wire on a qudit gate
    with pytest.raises(InvalidGateError):
        Gate("SUM", controls=(Control(Wire("A")),), targets=(Wire("B"),))  # missing d
    with pytest.raises(InvalidGateError):
        Gate("CMulAdd", controls=(Control(Wire("a")),), targets=(Wire("b"),))  # missing n


def test_sum_requires_equal_widths():
    table = RegisterTable([
        Register("A", 3, 0, "data-A"),
        Register("B", 2, 1, "data-B"),
    ])
    with pytest.raises(InvalidGateError, match="^SUM needs equal-width registers, got 3 and 2$"):
        Circuit(table, [ir.sum_gate("A", "B", 5)])
    with pytest.raises(InvalidGateError, match="^CMulAdd needs equal-width registers, got 2 and 3$"):
        Circuit(table, [ir.x(Wire("A", 0)), ir.cmuladd("B", "A", 1)])


# ---------------------------------------------------------------
# Counting
# ---------------------------------------------------------------

def test_count_by_control_arity():
    c = Circuit(two_reg_table(), [ir.toffoli(Wire("B", 0), Wire("B", 1), Wire("carry", 0))] * 7
                + [ir.cx(Wire("B", 2), Wire("carry", 1))] * 5)
    assert c.count().as_dict() == {"C2X": 7, "C1X": 5}


def test_count_empty():
    c = Circuit(two_reg_table())
    assert c.count().total() == 0
    assert c.count()["C1X"] == 0


def test_count_synth_sum_5():
    # 3 flag gates (value 8 rides on the top carry), 7 adder Toffolis,
    # 5 adder CX + 9 correction CX.
    assert synth_sum(5).count().as_dict() == {"C3X": 3, "C2X": 7, "C1X": 14}


def test_cost_breakdown_cx_alias_and_addition():
    a = CostBreakdown({"CX": 2, "H": 1})
    assert a["C1X"] == 2 and a["CX"] == 2
    b = CostBreakdown({"C1X": 3, "T": 4})
    assert (a + b).as_dict() == {"C1X": 5, "H": 1, "T": 4}
    assert a + b == CostBreakdown({"CX": 5, "H": 1, "T": 4})
    with pytest.raises(ValueError):
        CostBreakdown({"C1X": -1})


def test_count_total_equals_length():
    c = synth_sum(7)
    assert c.count().total() == len(c)


# ---------------------------------------------------------------
# Photons of a gate's controls
# ---------------------------------------------------------------

def photons_column(c):
    """The lowering report's photons column, one entry per gate."""
    column = lowering.REPORT_COLUMNS.index("photons")
    lines = lowering.report_csv(lowering.lower_circuit(c, lowering.general())).splitlines()[1:]
    return [line.split(",")[column] for line in lines]


def test_photons_column_groups_controls_by_photon():
    table = RegisterTable([
        Register("A", 3, 0, "data-A"),
        Register("B", 3, 1, "data-B"),
        Register("carry", 3, 2, "carry"),
        Register("checkif", 2, 2, "check-if"),
    ])
    all_b = ir.mcx([Wire("B", i) for i in range(3)], Wire("checkif", 0))
    with_carry = ir.mcx([Wire("B", 0), Wire("B", 1), Wire("B", 2), Wire("carry", 2)],
                        Wire("checkif", 1))
    carry_first = ir.mcx([Wire("carry", 2), Wire("B", 0), Wire("B", 1), Wire("B", 2)],
                         Wire("checkif", 1))
    plain = ir.cx(Wire("A", 0), Wire("B", 0))
    c = Circuit(table, [all_b, with_carry, carry_first, plain])
    assert photons_column(c) == ["1:3", "1:3+2:1", "1:3+2:1", "0:1"]


def test_photons_column_of_a_non_mcx_gate_is_a_dash():
    c = Circuit(two_reg_table(), [ir.x(Wire("B", 0)), ir.h(Wire("carry", 1))])
    assert photons_column(c) == ["-", "-"]


# ---------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------

def gate_text(g: Gate) -> str:
    """The JSON text of one gate: its fields in order, d, n and poly only where set."""
    entry = {"kind": g.kind}
    entry.update((key, value) for key, value in (("d", g.d), ("n", g.n), ("poly", g.poly)) if value is not None)
    entry["controls"] = [{"reg": ct.wire.reg, "idx": ct.wire.idx, "pol": ct.pol} for ct in g.controls]
    entry["targets"] = [{"reg": w.reg, "idx": w.idx} for w in g.targets]
    return json.dumps(entry)


def test_round_trip_sum_circuit():
    c = synth_sum(5)
    back = parse(serialize(c))
    assert back.count() == c.count()
    assert back.gates == c.gates
    assert back.table == c.table
    assert back.meta == c.meta
    # every gate kind, each written as the JSON text of its fields
    table = RegisterTable([Register("A", 2, 0, "gf-message"), Register("B", 2, 1, "gf-code")])
    a0, b1 = Wire("A", 0), Wire("B", 1)
    kinds = Circuit(table, [ir.x(a0), ir.h(b1), ir.t(a0), ir.tdag(b1), ir.sum_gate("A", "B", 4), ir.dft("B", 4),
                            ir.cmuladd("A", "B", 3), ir.cmuladd("B", "A", 0, poly=0b111),
                            Gate("MCX", (Control(a0), Control(b1, ir.ZERO)), (Wire("A", 1),), d=3),
                            ir.mcx([Control(b1, ir.ZERO), a0], Wire("B", 0))], Meta(d=4, note="kinds"))
    for c in (synth_sum(5), kinds):
        document = serialize(c)
        # an MCX record as [controls, target], any other gate as its object
        texts = [json.dumps(r) if type(r) is tuple else gate_text(r) for r in c.records]
        lines = document.splitlines()
        assert (lines[0], lines[2]) == ('{"format": 2,', '"gates": [')
        assert lines[3:3 + len(c)] == [text + "," for text in texts[:-1]] + texts[-1:]
        assert parse(document) == c


@pytest.mark.parametrize("role", ["control", "target"])
@pytest.mark.parametrize("idx", [True, 1.0], ids=["true", "1.0"])
def test_circuit_rejects_a_non_int_qubit_index(role, idx):
    # True and 1.0 equal 1, which is in range, but would serialize as true and 1.0.
    table = RegisterTable([Register("A", 3, 0, "work"), Register("B", 3, 1, "work")])
    gate = ir.cx(Wire("A", idx), Wire("B", 0)) if role == "control" else ir.cx(Wire("A", 0), Wire("B", idx))
    reg = "A" if role == "control" else "B"
    with pytest.raises(ResolutionError, match=rf"^index {idx!r} for register '{reg}' is not an int$"):
        Circuit(table, [gate])
    with pytest.raises(ResolutionError, match=rf"^index {idx!r} for register '{reg}' is not an int$"):
        table.resolve(Wire(reg, idx))


def named(doc):
    """doc, a decoded document, in the named layout that documents without
    "format" use: "format" dropped and each [controls, target] entry written
    as the MCX object serialize wrote for it before, a signed offset o < 0 as
    a zero-polarity control on wire ~o.  Raises ValueError for an entry whose
    offsets are not ints inside the registers."""
    if not isinstance(doc, dict):
        return doc
    doc = {key: value for key, value in doc.items() if key != "format"}
    if not isinstance(doc.get("gates"), list) or not any(type(e) is list for e in doc["gates"]):
        return doc
    starts, n = [], 0
    for r in doc["registers"]:
        if type(r["width"]) is not int or r["width"] < 1:
            raise ValueError(f"width {r['width']!r}")
        starts.append((n, r["name"]))
        n += r["width"]

    def wire(o):
        if type(o) is not int or not 0 <= o < n:
            raise ValueError(f"offset {o!r}")
        start, name = max(s for s in starts if s[0] <= o)
        return {"reg": name, "idx": o - start}

    def control(c):
        if type(c) is not int:
            raise ValueError(f"control {c!r}")
        return {**wire(c if c >= 0 else ~c), "pol": ir.POSITIVE if c >= 0 else ir.ZERO}

    def entry(e):
        if type(e) is not list:
            return e
        if len(e) != 2 or type(e[0]) is not list:
            raise ValueError(f"entry {e!r}")
        return {"kind": "MCX", "controls": [control(c) for c in e[0]], "targets": [wire(e[1])]}

    return {**doc, "gates": [entry(e) for e in doc["gates"]]}


def named_doc(c: Circuit) -> dict:
    """c's decoded document in the named layout."""
    return named(json.loads(serialize(c)))


def test_parse_unknown_gate_kind():
    doc = named_doc(synth_sum(3))
    doc["gates"][0]["kind"] = "CSWAP"
    with pytest.raises(ParseError, match=r"gates\[0\].*CSWAP"):
        parse(json.dumps(doc))


def test_parse_polarity_on_h_gate():
    doc = {
        "registers": [{"name": "q", "width": 2, "photon": 0, "role": "work"}],
        "gates": [{"kind": "H",
                   "controls": [{"reg": "q", "idx": 0, "pol": "zero"}],
                   "targets": [{"reg": "q", "idx": 1}]}],
        "meta": {"d": None, "strategy": "", "note": ""},
    }
    with pytest.raises(ParseError, match=r"gates\[0\]"):
        parse(json.dumps(doc))


def test_parse_malformed_json_reports_line():
    with pytest.raises(ParseError, match="line"):
        parse("{\n  \"registers\": [,]\n}")


def test_parse_unknown_register_reference():
    doc = named_doc(synth_sum(3))
    doc["gates"][0]["targets"][0]["reg"] = "ghost"
    with pytest.raises(ParseError, match="ghost"):
        parse(json.dumps(doc))


def test_parse_bad_polarity_value():
    doc = named_doc(synth_sum(3))
    doc["gates"][0]["controls"][0]["pol"] = "negative"
    with pytest.raises(ParseError, match="negative"):
        parse(json.dumps(doc))


def qudit_doc():
    """Document with a SUM, a DFT and a CMulAdd gate (in that order)."""
    table = RegisterTable([Register("A", 2, 0, "data-A"), Register("B", 2, 1, "data-B")])
    c = Circuit(table, [ir.sum_gate("A", "B", 4), ir.dft("B", 4), ir.cmuladd("A", "B", 1)])
    return json.loads(serialize(c))


def _set(path, value, doc_fn=lambda: named_doc(synth_sum(3))):
    """A malformed document: doc_fn()'s field at path replaced by value."""
    def build():
        doc = doc_fn()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(doc)
    return build


@pytest.mark.parametrize("build, where", [
    (_set(["registers"], {"name": "A"}), "registers: expected a list"),
    (_set(["gates"], "MCX"), "gates: expected a list"),
    (_set(["gates", 0], ["MCX"]), r"gates\[0\]: expected an object"),
    (_set(["gates", 0, "controls"], {"reg": "A"}), r"gates\[0\].controls: expected a list"),
    (_set(["gates", 0, "controls", 0], "A"), r"gates\[0\].controls\[0\]: expected an object"),
    (_set(["gates", 0, "targets", 0], 3), r"gates\[0\].targets\[0\]: expected an object"),
    (_set(["gates", 0, "controls", 0, "idx"], "0"), r"gates\[0\].controls\[0\].idx: expected an integer"),
    (_set(["registers", 0, "name"], ["A"]), r"registers\[0\].name: expected a string"),
    (_set(["meta"], ["d", 3]), "meta: expected an object"),
    (_set(["registers", 0, "width"], True), r"registers\[0\].width: expected an integer >= 1"),
    (_set(["registers", 0, "photon"], "p"), r"registers\[0\].photon: expected an integer >= 0"),
    (_set(["gates", 0, "d"], -4, qudit_doc), r"gates\[0\].d: expected an integer >= 2, got -4"),
    (_set(["gates", 1, "d"], "4", qudit_doc), r"gates\[1\].d: expected an integer >= 2"),
    (_set(["gates", 2, "n"], 1.5, qudit_doc), r"gates\[2\].n: expected an integer >= 0, got 1.5"),
    (lambda: "[" * 100_000 + "]" * 100_000, "document: maximum recursion depth"),
    (lambda: '{"registers": [], "gates": [], "meta": {"d": 1' + "0" * 5000 + "}}", "document: Exceeds the limit"),
], ids=["registers-not-list", "gates-not-list", "gate-not-object", "controls-not-list",
        "control-not-object", "target-not-object", "idx-string", "register-name-unhashable",
        "meta-list", "width-true", "photon-string", "sum-d-negative", "dft-d-string",
        "cmuladd-n-float", "deep-nesting", "integer-too-long"])
def test_parse_rejects_malformed_shape(build, where):
    with pytest.raises(ParseError, match=where):
        parse(build())


@pytest.mark.parametrize("role", ["controls", "targets"])
@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
def test_parse_rejects_non_integer_index_equal_to_a_valid_one(role, value):
    q = lambda idx: {"reg": "q", "idx": idx}
    doc = {
        "registers": [{"name": "q", "width": 4, "photon": 0, "role": "work"}],
        "gates": [{"kind": "MCX", "controls": [q(1)], "targets": [q(0)]},
                  {"kind": "MCX", "controls": [q(0)], "targets": [q(1)]},
                  {"kind": "MCX", "controls": [q(2), q(1)], "targets": [q(3)]}],
        "meta": {},
    }
    doc["gates"][2][role][-1]["idx"] = value  # a valid entry with idx 1 came before it
    j = len(doc["gates"][2][role]) - 1
    with pytest.raises(ParseError, match=rf"^gates\[2\]\.{role}\[{j}\]\.idx: expected an integer >= 0, got {value}$"):
        parse(json.dumps(doc))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from(["A", "B", "carry", "MCX", "SUM", "zero", "work"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def laid_out(doc) -> str:
    """doc as JSON text in serialize's layout, one field and one gate entry
    per line, where doc is an object with a list of gates."""
    if not (isinstance(doc, dict) and isinstance(doc.get("gates"), list)):
        return json.dumps(doc)
    fields = [f"{json.dumps(key)}: "
              + ("[\n" + ",\n".join(map(json.dumps, value)) + "\n]" if key == "gates" else json.dumps(value))
              for key, value in doc.items()]
    return "{" + ",\n".join(fields) + "}\n"


def assert_parses_as_checked(document) -> Circuit | None:
    """parse(document) raises ParseError, or reads the circuit that the
    checked path, Circuit(...) on the gates read, builds, histogram key order
    included; the circuit, if any."""
    try:
        c = parse(document)
    except ParseError:
        return None
    checked = Circuit(c.table, c.gates, c.meta)
    assert (c.table, c.records, c.meta) == (checked.table, checked.records, checked.meta)
    assert list(c.signature_histogram().items()) == list(checked.signature_histogram().items())
    return c


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_parse_mutated_document_round_trips_or_raises(data):
    document = serialize(data.draw(st.one_of(circuits(), record_circuits)))
    doc = json.loads(document)
    assert laid_out(doc) == document
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(json_values)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    c = assert_parses_as_checked(data.draw(st.sampled_from([laid_out, json.dumps]))(doc))
    try:
        translated = named(doc)
    except (ValueError, TypeError, KeyError):
        assert c is None  # an entry the test cannot translate is refused
        return
    # each [controls, target] entry reads as its named object does through the checked path
    expected = assert_parses_as_checked(laid_out(translated))
    if c is not None:
        assert (c.table, c.records, c.meta) == (expected.table, expected.records, expected.meta)
        assert list(c.signature_histogram().items()) == list(expected.signature_histogram().items())
    elif isinstance(doc, dict) and type(doc.get("format")) is int and doc["format"] == 2:
        assert expected is None
    if c is None:
        return
    back = parse(serialize(c))
    assert (back.table, back.gates, back.meta) == (c.table, c.gates, c.meta)


# ---------------------------------------------------------------
# Property tests over randomized circuits
# ---------------------------------------------------------------

ROLE_SAMPLES = ("data-A", "data-B", "carry", "check-if", "work")


# Any text, with the characters a JSON encoder must escape drawn often.
names = st.text(st.sampled_from('"\\/\n\t\x00\u2028\u2029é☃𝄞') | st.characters(), max_size=8)


@st.composite
def circuits(draw, kinds=("X", "H", "T", "Tdag", "OS", "MCX", "MCX", "SUM", "DFT", "CMulAdd")):
    n_regs = draw(st.integers(2, 4))
    width = draw(st.integers(1, 3))
    regs = [Register(name, width, draw(st.integers(0, 2)), draw(st.sampled_from(ROLE_SAMPLES)))
            for name in draw(st.lists(names, min_size=n_regs, max_size=n_regs, unique=True))]
    table = RegisterTable(regs)
    wires = [Wire(r.name, i) for r in regs for i in range(width)]
    meta = Meta(d=draw(st.one_of(st.none(), st.integers(2, 9))),
                strategy=draw(st.one_of(st.sampled_from(["", "general", "multiplexed"]), names)),
                note=draw(names))
    gates = []
    n_gates = draw(st.integers(0, 12))
    for _ in range(n_gates):
        kind = draw(st.sampled_from(kinds))
        if kind == "MCX":
            k = draw(st.integers(1, min(4, len(wires) - 1)))
            chosen = draw(st.lists(st.sampled_from(wires), min_size=k + 1, max_size=k + 1, unique=True))
            controls = [Control(w, draw(st.sampled_from([ir.POSITIVE, ir.ZERO]))) for w in chosen[:-1]]
            gates.append(ir.mcx(controls, chosen[-1]))
        elif kind in ("SUM", "CMulAdd"):
            a, b = draw(st.lists(st.sampled_from(regs), min_size=2, max_size=2, unique=True))
            if kind == "SUM":
                gates.append(ir.sum_gate(a.name, b.name, d=1 << width))
            else:
                gates.append(ir.cmuladd(a.name, b.name, n=draw(st.integers(0, 5))))
        elif kind == "DFT":
            gates.append(ir.dft(draw(st.sampled_from(regs)).name, d=1 << width))
        else:
            gates.append(Gate(kind, targets=(draw(st.sampled_from(wires)),)))
    return Circuit(table, gates, meta)


# Circuits of MCX gates alone, whose documents hold records alone.
record_circuits = circuits(kinds=("MCX",))


@settings(deadline=None)
@given(st.one_of(circuits(), record_circuits))
def test_round_trip_preserves_everything(c):
    back = parse(serialize(c))
    assert serialize(back) == serialize(c)
    assert back.gates == c.gates
    assert back.count() == c.count()
    assert back.table == c.table
    assert back.meta == c.meta


@settings(deadline=None)
@given(circuits(), circuits())
def test_count_additive_over_concatenation(c1, c2):
    assert (c1.count() + c2.count()).total() == len(c1) + len(c2)
    if c1.table == c2.table:
        combined = Circuit(c1.table, list(c1.gates) + list(c2.gates))
        assert combined.count() == c1.count() + c2.count()


# ---------------------------------------------------------------
# The checked Gate side stays off the hot paths
# ---------------------------------------------------------------

def test_hot_paths_build_and_check_no_gate(monkeypatch, tmp_path):
    """A sweep, the synth-sum --emit -> lower document path and verify_sum run
    on records alone: none builds a Gate, reads the gates view or checks a gate
    against a table, and lower reads each synth-sum document's records, not
    through the named-entry path.  Gate.__new__, _gates_of, _check_in_table and
    _named_entry are plain code, untuned, because of this; a failure here
    means they are hot again."""
    def fail(*args, **kwargs):
        raise AssertionError("a hot path built, viewed or checked a Gate, or read a named entry")

    monkeypatch.setattr(Gate, "__new__", fail)
    monkeypatch.setattr(ir, "_gates_of", fail)
    monkeypatch.setattr(ir, "_check_in_table", fail)
    monkeypatch.setattr(ir, "_named_entry", fail)
    assert len(analysis.sweep(3, 257).rows) == len(analysis.primes_in(3, 257))
    document = tmp_path / "sum137.json"
    assert cli.main(["synth-sum", "--d", "137", "--emit", str(document)]) == 0
    for strategy in ("general", "ralph", "multiplexed"):
        assert cli.main(["lower", "--in", str(document), "--strategy", strategy,
                         "--report", str(tmp_path / f"{strategy}.csv")]) == 0
    c = sumsynth.synth_sum(61)
    assert revsim.verify_sum(61, c).verified
    assert not revsim.verify_sum(61, c.without_gate(0)).verified


def test_gf2m_document_is_read_by_the_checked_reader(monkeypatch, capsys, tmp_path):
    """gf2m --emit writes DFT and CMulAdd gates, which only the checked reader,
    the named-entry path, reads: each gate entry goes through it once."""
    entries = []
    checked = ir._named_entry
    monkeypatch.setattr(ir, "_named_entry", lambda gd, i, table: entries.append(i) or checked(gd, i, table))
    path = tmp_path / "gf2m3.json"
    assert cli.main(["gf2m", "--m", "3", "--emit", str(path)]) == 0
    document = path.read_text(encoding="utf-8")
    encoder = gf2m.synth_encoder_gf2m(gf2m.build_code(3, 4))
    assert parse(document) == encoder
    assert entries == list(range(len(encoder)))
