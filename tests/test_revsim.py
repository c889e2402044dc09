import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from qrsmux import circuit as ir, revsim
from qrsmux.analysis import primes_in
from qrsmux.circuit import Circuit, Control, Register, RegisterTable, Wire
from qrsmux.errors import InvalidDimensionError, ResolutionError, ResourceLimitError, UnsupportedGateError
from qrsmux.galois import FieldSpec
from qrsmux.gf2m import build_code, expand_cmuladds, find_cmuladd_counterexample, synth_cmuladd, synth_encoder_gf2m
from qrsmux.revsim import truth_table, verify_sum
from qrsmux.sumsynth import synth_rca, synth_sum


def single_reg(width=3):
    return RegisterTable([Register("q", width, 0, "work")])


# ---------------------------------------------------------------
# Gate semantics through truth_table and compile_permutation
# ---------------------------------------------------------------

def test_x_flips():
    c = Circuit(single_reg(1), [ir.x(Wire("q", 0))])
    assert truth_table(c, [Wire("q", 0)]) == {0: 1, 1: 0}


def test_zero_polarity_control_fires_on_zero():
    c = Circuit(single_reg(2), [ir.mcx([Control(Wire("q", 0), ir.ZERO)], Wire("q", 1))])
    # q1 flips exactly where q0 is 0
    tt = truth_table(c, [Wire("q", 0), Wire("q", 1)])
    assert tt == {0b00: 0b10, 0b01: 0b01, 0b10: 0b00, 0b11: 0b11}


def test_empty_circuit_is_identity():
    c = Circuit(single_reg())
    tt = truth_table(c, [Wire("q", i) for i in range(3)])
    assert tt == {bits: bits for bits in range(8)}


def test_unsupported_gate_named():
    c = Circuit(single_reg(), [ir.x(Wire("q", 0)), ir.h(Wire("q", 1))])
    with pytest.raises(UnsupportedGateError, match=r"gate 1 \(H\)"):
        revsim.compile_permutation(c)


@pytest.mark.parametrize("gates, first", [
    ([ir.x(Wire("q", 0)), ir.t(Wire("q", 2)), ir.h(Wire("q", 1)), ir.t(Wire("q", 1))], "gate 1 (T)"),
    ([ir.cx(Wire("q", 0), Wire("q", 1)), ir.x(Wire("q", 2)), ir.tdag(Wire("q", 0)), ir.h(Wire("q", 0))],
     "gate 2 (Tdag)"),
    ([ir.h(Wire("q", 0)), ir.x(Wire("q", 0)), ir.h(Wire("q", 0))], "gate 0 (H)"),
], ids=["second-gate", "after-an-x-and-a-cx", "first-gate"])
def test_the_first_non_permutation_gate_is_named_by_its_index(gates, first):
    """Also where several gates share the refused signature, or another
    refused signature follows."""
    c = Circuit(single_reg(), gates)
    with pytest.raises(UnsupportedGateError, match=f"^{re.escape(first)} is not a permutation gate$"):
        revsim.compile_permutation(c)
    with pytest.raises(UnsupportedGateError, match=f"^{re.escape(first)} is not a permutation gate$"):
        truth_table(c, [Wire("q", 0)])


# ---------------------------------------------------------------
# truth_table
# ---------------------------------------------------------------

def test_truth_table_cx():
    table = single_reg(2)
    c = Circuit(table, [ir.cx(Wire("q", 0), Wire("q", 1))])
    tt = truth_table(c, [Wire("q", 0), Wire("q", 1)])
    assert tt == {0b00: 0b00, 0b01: 0b11, 0b10: 0b10, 0b11: 0b01}


def test_truth_table_c3x_fires_only_on_all_ones():
    table = single_reg(4)
    c = Circuit(table, [ir.mcx([Wire("q", 0), Wire("q", 1), Wire("q", 2)], Wire("q", 3))])
    tt = truth_table(c, [Wire("q", i) for i in range(4)])
    for key, out in tt.items():
        if key & 0b111 == 0b111:
            assert out == key ^ 0b1000
        else:
            assert out == key


def test_truth_table_rca2_is_mod4_addition():
    c = synth_rca(2)
    wires = [Wire("A", 0), Wire("A", 1), Wire("B", 0), Wire("B", 1)]
    tt = truth_table(c, wires)
    for key, out in tt.items():
        a, b = key & 0b11, key >> 2
        assert out & 0b11 == a            # A preserved
        assert out >> 2 == (a + b) % 4    # B holds the mod-4 sum


def test_truth_table_width_limit():
    table = RegisterTable([Register("q", 25, 0, "work")])
    c = Circuit(table)
    with pytest.raises(ResourceLimitError):
        truth_table(c, [Wire("q", i) for i in range(25)])


def test_truth_table_refuses_a_repeated_wire(monkeypatch):
    c = Circuit(single_reg(2), [ir.cx(Wire("q", 0), Wire("q", 1))])
    monkeypatch.setattr(revsim, "compile_permutation", None)  # refused before any simulation
    with pytest.raises(ValueError, match=re.escape(f"truth table repeats wire {Wire('q', 0)}")):
        truth_table(c, [Wire("q", 0), Wire("q", 1), Wire("q", 0)])


@pytest.mark.parametrize("idx", [True, 1.0], ids=["true", "1.0"])
def test_truth_table_refuses_a_non_int_wire_index(idx):
    # True and 1.0 equal 1: resolved as such, the first read as offset 1 and
    # the second indexed the kernel's state with a float.
    c = Circuit(single_reg(2), [ir.cx(Wire("q", 0), Wire("q", 1))])
    with pytest.raises(ResolutionError, match=rf"^index {idx!r} for register 'q' is not an int$"):
        truth_table(c, [Wire("q", 0), Wire("q", idx)])


# ---------------------------------------------------------------
# affine_images
# ---------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_affine_images_rebuild_the_truth_table(seed):
    """An X/CX circuit's output on every input is img_0 xor the XOR of
    (img_1+i xor img_0) over the input's set bits i, so the images alone give
    truth_table on all 2^n inputs, here for n up to 8 wires in two registers."""
    rng = random.Random(seed)
    wa = rng.randint(1, 4)
    table = RegisterTable([Register("a", wa, 0, "work"), Register("b", rng.randint(1, 8 - wa), 1, "work")])
    wires = [Wire(r.name, i) for r in table.registers for i in range(r.width)]
    gates = []
    for _ in range(rng.randint(0, 24)):
        if rng.random() < 0.25:
            gates.append(ir.x(rng.choice(wires)))
        else:
            control, target = rng.sample(wires, 2)
            gates.append(ir.mcx([Control(control, rng.choice([ir.POSITIVE, ir.ZERO]))], target))
    c = Circuit(table, gates)
    rng.shuffle(wires)
    offsets = [table.resolve(w) for w in wires]
    images = revsim.affine_images(c, offsets)
    assert len(images) == table.total_width and all(s < 1 << (len(offsets) + 1) for s in images)

    def image(case):  # the outputs over offsets in case `case`, packed as offsets[i] -> bit i
        return sum((images[o] >> case & 1) << i for i, o in enumerate(offsets))

    img0 = image(0)
    rebuilt = {}
    for x in range(1 << len(offsets)):
        out = img0
        for i in range(len(offsets)):
            if x >> i & 1:
                out ^= image(1 + i) ^ img0
        rebuilt[x] = out
    assert rebuilt == truth_table(c, wires)


def two_register_cx():
    table = RegisterTable([Register("a", 2, 0, "work"), Register("b", 2, 1, "work")])
    return Circuit(table, [ir.cx(Wire("a", 0), Wire("b", 1)), ir.x(Wire("a", 1))])


def test_affine_images_of_a_small_circuit():
    # case 0: a1 flips; case 1+i: wire i alone, and a0 copies onto b1
    assert revsim.affine_images(two_register_cx(), [0, 2]) == [0b010, 0b111, 0b100, 0b010]


@pytest.mark.parametrize("extra, wires, error, match", [
    (ir.toffoli(Wire("a", 0), Wire("a", 1), Wire("b", 0)), [0, 1, 2, 3], UnsupportedGateError, "not C2X$"),
    (ir.h(Wire("b", 1)), [0, 1, 2, 3], UnsupportedGateError, "not H$"),
    (None, [0, -1], ResolutionError, "^offset -1 lies outside the table's 4 wires$"),
    (None, [0, 4], ResolutionError, "^offset 4 lies outside the table's 4 wires$"),
    (None, [0, 1.0], ResolutionError, "^offset 1.0 lies outside the table's 4 wires$"),
    (None, [True], ResolutionError, "^offset True lies outside the table's 4 wires$"),
    (None, [1, 2, 1], ValueError, "^affine images repeat offset 1$"),
], ids=["toffoli", "h", "offset-minus-1", "offset-total-width", "offset-float", "offset-bool", "repeated-offset"])
def test_affine_images_refuse_before_any_simulation(extra, wires, error, match, monkeypatch):
    # -1 would set the last wire, the total width would index past the state,
    # and 1.0 would index it with a float
    c = two_register_cx()
    if extra is not None:
        c = Circuit(c.table, c.gates + (extra,))
    monkeypatch.setattr(revsim, "compile_permutation", lambda c: pytest.fail("simulated before the check"))
    with pytest.raises(error, match=match):
        revsim.affine_images(c, wires)


# ---------------------------------------------------------------
# verify_sum
# ---------------------------------------------------------------

def test_verify_sum_d5():
    report = verify_sum(5, synth_sum(5))
    assert report.verified and report.total_cases == 25
    assert report.elapsed_s < 1.0


def test_verify_sum_d7_carry_controlled_path():
    report = verify_sum(7, synth_sum(7))
    assert report.verified and report.total_cases == 49
    # the carry-controlled corrections leave ancillas dirty on the wrapping cases
    assert report.ancilla_dirty_cases > 0


def test_verify_sum_mutation_fails_exactly_on_affected_value():
    c = synth_sum(5)
    # find one correction CX whose control is the check-if qubit for value 6
    p_flag_wire = Wire("checkif", 1)
    idx = next(i for i, g in enumerate(c.gates)
               if g.kind == "MCX" and g.arity == 1 and g.controls[0].wire == p_flag_wire)
    report = verify_sum(5, c.without_gate(idx))
    assert not report.verified
    assert {(a, b) for a, b, _, _ in report.failures} == {(a, b) for a in range(5) for b in range(5)
                                                          if a + b == 6}


def test_verify_sum_d1021_k_max_boundary():
    report = verify_sum(1021, synth_sum(1021))
    assert report.verified and report.total_cases == 1_042_441


@pytest.mark.parametrize("d, c", [(0, 3), (1, 3), (11, 7), (9, 7)])
def test_verify_sum_refuses_a_d_register_a_cannot_hold(d, c, monkeypatch):
    # 2 <= d <= 2^k for A of k qubits: d = 0 divided by zero, and a d past
    # 2^k packed truncated inputs and reported meaningless failures.
    monkeypatch.setattr(revsim, "compile_permutation", lambda c: pytest.fail("simulated before the check"))
    with pytest.raises(InvalidDimensionError, match=f"d={d} must lie in"):
        verify_sum(d, synth_sum(c))


def test_verify_report_summary_text():
    report = verify_sum(3, synth_sum(3))
    text = report.summary()
    assert "9/9" in text and "PASS" in text


# ---------------------------------------------------------------
# Bijection property over random permutation circuits
# ---------------------------------------------------------------

@st.composite
def permutation_circuits(draw):
    width = draw(st.integers(2, 5))
    table = RegisterTable([Register("q", width, 0, "work")])
    wires = [Wire("q", i) for i in range(width)]
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            gates.append(ir.x(draw(st.sampled_from(wires))))
        else:
            k = draw(st.integers(1, width - 1))
            chosen = draw(st.lists(st.sampled_from(wires), min_size=k + 1, max_size=k + 1,
                                   unique=True))
            controls = [Control(w, draw(st.sampled_from([ir.POSITIVE, ir.ZERO])))
                        for w in chosen[:-1]]
            gates.append(ir.mcx(controls, chosen[-1]))
    return Circuit(table, gates)


def full_table(c):
    """truth_table over every wire of the circuit, in offset order."""
    return truth_table(c, [Wire("q", i) for i in range(c.table.total_width)])


@settings(deadline=None)
@given(permutation_circuits())
def test_permutation_circuits_are_bijections(c):
    outputs = set(full_table(c).values())
    assert len(outputs) == 1 << c.table.total_width


@settings(deadline=None)
@given(permutation_circuits())
def test_reversed_circuit_inverts(c):
    # X and MCX are self-inverse, so running the gates backwards undoes the circuit
    rev = Circuit(c.table, list(reversed(c.gates)))
    forward, backward = full_table(c), full_table(rev)
    assert all(backward[out] == bits for bits, out in forward.items())


# ---------------------------------------------------------------
# Independent per-case reference for the bit-sliced kernel.  It reads only
# Gate fields and RegisterTable.resolve, and runs one basis state at a time.
# ---------------------------------------------------------------

def reference_runner(c):
    """Per-case simulator of an X/MCX circuit over global-offset bitmasks."""
    resolve = c.table.resolve
    gates = [(1 << resolve(g.targets[0]),
              [(resolve(ct.wire), int(ct.pol == ir.POSITIVE)) for ct in g.controls])
             for g in c.gates]

    def run(bits):
        for flip, controls in gates:
            if all(bits >> pos & 1 == want for pos, want in controls):
                bits ^= flip
        return bits
    return run


def register_positions(table, name):
    return [table.resolve(Wire(name, j)) for j in range(table[name].width)]


def pack(value, positions):
    return sum((value >> j & 1) << pos for j, pos in enumerate(positions))


def unpack(bits, positions):
    return sum((bits >> pos & 1) << j for j, pos in enumerate(positions))


def reference_verify_sum(d, c):
    """(failures, dirty-ancilla cases) of verify_sum, one (A, B) pair at a time."""
    run = reference_runner(c)
    a_pos, b_pos = register_positions(c.table, "A"), register_positions(c.table, "B")
    ancillas = [pos for reg in c.table.registers if reg.role in ("carry", "check-if", "work")
                for pos in register_positions(c.table, reg.name)]
    failures, dirty = [], 0
    for a in range(d):
        for b in range(d):
            out = run(pack(a, a_pos) | pack(b, b_pos))
            got_a, got_b = unpack(out, a_pos), unpack(out, b_pos)
            if got_a != a or got_b != (a + b) % d:
                failures.append((a, b, (a + b) % d, got_b if got_a == a else -1))
            dirty += any(out >> pos & 1 for pos in ancillas)
    return failures, dirty


@pytest.mark.parametrize("d, sampled", [pytest.param(d, None, id=str(d)) for d in (3, 5, 7, 11, 13, 17)]
                         + [pytest.param(31, 30, id="31")])
def test_verify_sum_matches_reference_on_every_single_gate_mutant(d, sampled):
    """Every single-gate mutant, or a seeded sample of them where the per-case
    reference would be slow."""
    c = synth_sum(d)
    # No gate of synth_sum targets A, so one extra gate corrupts A on some cases
    # and exercises the got = -1 convention.
    corrupt_a = Circuit(c.table, c.gates + (ir.cx(Wire("B", 0), Wire("A", 0)),))
    removed = range(len(c)) if sampled is None else random.Random(d).sample(range(len(c)), sampled)
    for circuit in [c, corrupt_a] + [c.without_gate(i) for i in removed]:
        report = verify_sum(d, circuit)
        failures, dirty = reference_verify_sum(d, circuit)
        assert report.total_cases == d * d
        assert report.failures == failures
        assert report.ancilla_dirty_cases == dirty
    assert any(got == -1 for *_, got in verify_sum(d, corrupt_a).failures)


@pytest.mark.parametrize("cap", [1, 40, 500])
def test_verify_sum_in_blocks_equals_one_block(cap, monkeypatch):
    """verify_sum runs consecutive A values block by block.  A small cap on the
    cases per block splits primes up to 61 into several blocks, and every
    report equals the single-block one."""
    rng = random.Random(cap)
    circuits = []
    for d in primes_in(3, 61):
        c = synth_sum(d)
        corrupt_a = Circuit(c.table, c.gates + (ir.cx(Wire("B", 0), Wire("A", 0)),))
        circuits += [(d, c), (d, corrupt_a)] + [(d, c.without_gate(i)) for i in rng.sample(range(len(c)), 3)]
    whole = [verify_sum(d, circuit) for d, circuit in circuits]
    failures = [f for r in whole for f in r.failures]
    assert any(got == -1 for *_, got in failures) and any(got >= 0 for *_, got in failures)
    blocks = []
    monkeypatch.setattr(revsim, "_CASES_PER_BLOCK", cap)
    monkeypatch.setattr(revsim, "_run", lambda *a, run=revsim._run: blocks.append(a[3]) or run(*a))
    for (d, circuit), one in zip(circuits, whole):
        blocked = verify_sum(d, circuit)
        assert blocked.total_cases == one.total_cases == d * d
        assert blocked.failures == one.failures, d
        assert blocked.ancilla_dirty_cases == one.ancilla_dirty_cases, d
    assert len(blocks) > 2 * len(circuits) and max(blocks) <= max(cap, 61)


def test_verify_sum_blocks_past_the_first_match_per_case_sums(monkeypatch):
    """Blocks of a few A values each, so most start at a0 > 0 and the last is
    short.  For every prime up to 61 the synthesized circuit passes, and a
    mutant that also corrupts A reports what the per-case (a + b) mod d
    reference finds."""
    rng = random.Random(61)
    blocks, failures = [], []
    monkeypatch.setattr(revsim, "_run", lambda *a, run=revsim._run: blocks.append(a[3]) or run(*a))
    for d in primes_in(3, 61):
        c = synth_sum(d)
        mutant = c.without_gate(rng.randrange(len(c)))
        broken = Circuit(c.table, mutant.gates + (ir.cx(Wire("B", 0), Wire("A", 0)),))
        rows = max(1, d // 3)
        monkeypatch.setattr(revsim, "_CASES_PER_BLOCK", rows * d)
        reports = []
        for circuit in (c, broken):
            blocks.clear()
            reports.append(verify_sum(d, circuit))
            assert blocks == [min(rows, d - a0) * d for a0 in range(0, d, rows)]
        clean, bad = reports
        assert clean.verified and clean.total_cases == bad.total_cases == d * d
        assert (bad.failures, bad.ancilla_dirty_cases) == reference_verify_sum(d, broken), d
        failures += bad.failures
    assert any(got == -1 for *_, got in failures) and any(got >= 0 for *_, got in failures)


def reference_compile(c):
    """compile_permutation, one RegisterTable.resolve call per wire: a
    zero-polarity control is written ~offset."""
    resolve = c.table.resolve
    return [(tuple(resolve(ct.wire) if ct.pol == ir.POSITIVE else ~resolve(ct.wire) for ct in g.controls),
             resolve(g.targets[0])) for g in c.gates]


def test_compile_permutation_matches_per_wire_resolve():
    circuits = [synth_sum(d) for d in primes_in(3, 257)]
    for m in range(2, 6):
        circuits.append(expand_cmuladds(synth_encoder_gf2m(build_code(m, 1 << (m - 1))))[0])
    built = Circuit(single_reg(3), [ir.x(Wire("q", 2)),
                                    ir.mcx([Control(Wire("q", 0), ir.ZERO), Wire("q", 2)], Wire("q", 1))])
    em = ir.Emitter(single_reg(3))  # the same MCX as an emitted record
    em.mcx((~0, 2), 1)
    emitted = em.circuit(ir.Meta())
    circuits += [built, emitted]
    for c in circuits:
        # the kernel runs the stored records themselves, which encode every gate
        assert revsim.compile_permutation(c) is c.records
        assert list(c.records) == reference_compile(c)
        assert [ir.record_of(c.table, g) for g in c.gates] == reference_compile(c)
    # an X has no controls; a zero-polarity control at offset 0 is ~0 == -1
    assert revsim.compile_permutation(built) == (((), 2), ((-1, 2), 1))
    assert revsim.compile_permutation(emitted) == (((-1, 2), 1),)
    q = [Wire("q", i) for i in range(3)]
    assert truth_table(emitted, q) == truth_table(Circuit(single_reg(3), built.gates[1:]), q) == {
        bits: bits ^ (0b010 if bits & 0b101 == 0b100 else 0) for bits in range(8)}


@pytest.mark.parametrize("wire", [Wire("q", 3), Wire("r", 0)], ids=["index-out-of-range", "unknown-register"])
@pytest.mark.parametrize("role", ["control", "target"])
def test_compile_permutation_reports_an_unresolvable_wire_as_resolve_does(wire, role):
    """No circuit that compile_permutation can be given holds a wire outside
    its table: building one raises resolve's own error, for an MCX and for an
    X, each of which Emitter.add encodes through record_of."""
    table = single_reg(3)
    with pytest.raises(ResolutionError) as direct:
        table.resolve(wire)
    exact = f"^{re.escape(str(direct.value))}$"
    control, target = (wire, Wire("q", 0)) if role == "control" else (Wire("q", 0), wire)
    with pytest.raises(ResolutionError, match=exact):
        Circuit(table, [ir.cx(control, target)])
    with pytest.raises(ResolutionError, match=exact):
        Circuit(table, [ir.x(wire)])


def shift_and_xor_product(a, b, poly):
    """a * b in GF(2)[x]/(poly), computed without the field's exp/log tables."""
    top = 1 << (poly.bit_length() - 1)
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return product


@pytest.mark.parametrize("m, poly", [pytest.param(m, None, id=str(m)) for m in (2, 3, 4)]
                         + [pytest.param(4, 0b11001, id="4-0b11001")])
def test_cmuladd_witness_is_first_failing_pair(m, poly):
    """The checker simulates 2m+1 basis cases; the reference runs all 4^m
    pairs.  Beside the single-gate mutants, three affine mutants: an X on a
    b wire and a zero-polarity CX from a to b fail at (0, 0), a CX between
    two b wires first fails on a b unit."""
    f = FieldSpec.binary_extension(m, poly)
    size = 1 << m
    for n in range(f.order - 1):
        c = synth_cmuladd(f, n)
        a_pos, b_pos = register_positions(c.table, "a"), register_positions(c.table, "b")
        affine = [ir.cx(Wire("b", 0), Wire("a", 0)), ir.x(Wire("b", 1)),
                  ir.mcx([Control(Wire("a", m - 1), ir.ZERO)], Wire("b", 0)), ir.cx(Wire("b", 0), Wire("b", m - 1))]
        mutants = [Circuit(c.table, c.gates + (g,)) for g in affine]
        for k, circuit in enumerate([c] + mutants + [c.without_gate(i) for i in range(len(c))]):
            run = reference_runner(circuit)
            first = None
            for a in range(size):
                for b in range(size):
                    out = run(pack(a, a_pos) | pack(b, b_pos))
                    want = shift_and_xor_product(f.alpha_power(n), a, f.poly) ^ b
                    if (unpack(out, a_pos), unpack(out, b_pos)) != (a, want):
                        first = first or (a, b)
            assert find_cmuladd_counterexample(circuit, f, n) == first, (n, first)
            if k in (2, 3):  # the X and the zero-polarity CX
                assert first == (0, 0)


@settings(deadline=None)
@given(permutation_circuits())
def test_truth_table_matches_reference(c):
    wires = [Wire("q", i) for i in range(c.table.total_width)]
    positions = [c.table.resolve(w) for w in wires]
    run = reference_runner(c)
    reference = {key: unpack(run(pack(key, positions)), positions) for key in range(1 << len(wires))}
    assert truth_table(c, wires) == reference
