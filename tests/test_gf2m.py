import random
import re

import pytest

from qrsmux import galois, gf2m, lowering
from qrsmux.circuit import Circuit, Meta, Register, RegisterTable, Wire, cmuladd, cx, dft, h, toffoli, x
from qrsmux.errors import InvalidDimensionError, UnsupportedConfigurationError, UnsupportedGateError
from qrsmux.galois import FieldSpec
from qrsmux.gf2m import (
    build_code, cmuladd_cx_formula, encoder_classical_cx_cost, expand_cmuladds,
    find_cmuladd_counterexample, synth_cmuladd, synth_encoder_gf2m, verify_cmuladd,
)


def gf4():
    return FieldSpec.binary_extension(2)


# ---------------------------------------------------------------
# Code construction
# ---------------------------------------------------------------

def test_gf4_code_matches_worked_example():
    spec = build_code(2, 2)
    alpha = spec.field.alpha_power(1)
    alpha2 = spec.field.alpha_power(2)
    # g_dual(x) = (x - 1)(x - alpha) = x^2 + (1+alpha)x + alpha, ascending coefficients
    assert spec.gen_poly_dual == (alpha, 1 ^ alpha, 1) == (2, 3, 1)
    assert spec.G == ((1, 0, alpha), (0, 1, alpha2))
    assert spec.H == ((alpha, alpha2, 1),)


def test_code_polynomial_degrees():
    for m, K in [(2, 2), (3, 3), (3, 4), (4, 6), (4, 11)]:
        spec = build_code(m, K)
        assert len(spec.gen_poly) - 1 == spec.n - K
        assert len(spec.gen_poly_dual) - 1 == K


def test_g_h_orthogonal_and_unit_messages():
    for m, K in [(2, 2), (3, 2), (3, 4), (3, 5), (4, 8), (5, 16)]:
        spec = build_code(m, K)
        f = spec.field
        for i in range(K):
            codeword = spec.G[i]  # unit message i encoded through G
            for h_row in spec.H:
                acc = 0
                for c, h in zip(codeword, h_row):
                    acc ^= galois.mul_int(f, c, h)
                assert acc == 0


# Every K at m = 2..5 over the default polynomials, and every primitive
# polynomial of m = 3 and 4 at K = (n+1)/2.
CODE_ROOT_CASES = ([(m, K, None) for m in range(2, 6) for K in range(1, (1 << m) - 1)]
                   + [(3, 4, poly) for poly in (0b1011, 0b1101)]
                   + [(4, 8, poly) for poly in (0b10011, 0b11001)])


def test_g_rows_vanish_on_code_roots():
    for m, K, poly in CODE_ROOT_CASES:
        spec = build_code(m, K, poly=poly)
        f = spec.field
        for row in spec.G:
            for e in range(1, spec.n - K + 1):
                x = f.alpha_power(e)
                acc = 0
                for coeff in reversed(row):  # Horner, highest degree first
                    acc = galois.mul_int(f, acc, x) ^ coeff
                assert acc == 0


def test_parity_is_built_once():
    spec = build_code(4, 8)
    assert spec.parity is spec.parity
    assert spec.parity == tuple(row[spec.K:] for row in spec.G)


def test_build_code_k_range():
    with pytest.raises(ValueError):
        build_code(2, 3)
    with pytest.raises(ValueError):
        build_code(3, 0)


def test_build_code_poly_override():
    spec = build_code(3, 4, poly=0b1101)
    assert spec.field.poly == 0b1101
    assert spec.dual_contained()


def full_product_is_zero(spec) -> bool:
    """H . H^T = 0 by the full product over the field, entry by entry."""
    f = spec.field
    for row in spec.H:
        for col in spec.H:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc ^= galois.mul_int(f, a, b)
            if acc:
                return False
    return True


def test_dual_containment_agrees_with_the_full_product_and_the_closed_form():
    rng = random.Random(23)
    cases = [(m, K) for m in range(2, 7) for K in range(1, (1 << m) - 1)]
    for m, n_samples in ((7, 3), (8, 1)):
        n = (1 << m) - 1
        cases += [(m, n // 2), (m, n // 2 + 1)] + [(m, K) for K in rng.sample(range(1, n), n_samples)]
    for m, K in cases:
        spec = build_code(m, K)
        assert spec.dual_contained() == full_product_is_zero(spec) == (2 * K > spec.n), (m, K)


@pytest.mark.parametrize("K", [3, 4])
def test_encoder_raises_a_construction_bug_when_the_two_checks_disagree(monkeypatch, K):
    spec = build_code(3, K)
    monkeypatch.setattr(gf2m.RSCodeSpec, "dual_contained", lambda self: 2 * self.K <= self.n)
    with pytest.raises(AssertionError, match="^construction bug"):
        synth_encoder_gf2m(spec)


# ---------------------------------------------------------------
# Multiplier-add gates
# ---------------------------------------------------------------

def test_gf4_gate_cx_counts():
    f = gf4()
    for n, want in [(0, 2), (1, 3), (2, 3)]:
        c = synth_cmuladd(f, n)
        assert c.count()["C1X"] == want == cmuladd_cx_formula(f, n)
        assert verify_cmuladd(c, f, n)


def test_gf8_c1_exhaustive():
    f = FieldSpec.binary_extension(3)
    assert verify_cmuladd(synth_cmuladd(f, 0), f, 0)  # all 64 basis pairs


def test_mutated_cmuladd_fails_with_witness():
    f = gf4()
    c = synth_cmuladd(f, 1)
    broken = c.without_gate(0)
    witness = find_cmuladd_counterexample(broken, f, 1)
    assert witness is not None
    assert not verify_cmuladd(broken, f, 1)
    a, b = witness
    assert 0 <= a < 4 and 0 <= b < 4


def test_cmuladd_circuits_at_one_m_share_one_table():
    for m, poly in [(3, None), (4, 0b11001), (7, None)]:
        f = FieldSpec.binary_extension(m, poly)
        circuits = [synth_cmuladd(f, n) for n in range(f.order - 1)]
        assert all(c.table is circuits[0].table for c in circuits)
        fresh = RegisterTable([Register("a", m, 0, "gf-message"), Register("b", m, 1, "gf-code")])
        for n, c in enumerate(circuits):
            pairs = [(p, j) for p, column in enumerate(galois.mul_by_alpha_matrix(f, n))
                     for j in range(m) if column >> j & 1]
            want = Circuit(fresh, [cx(Wire("a", p), Wire("b", j)) for p, j in pairs], c.meta)
            assert c == want and c.signature_histogram() == want.signature_histogram(), (m, n)


def test_cmuladd_expansion_is_built_once_per_field_and_exponent():
    """synth_cmuladd and expand_cmuladds share one CX expansion per (field,
    exponent); an out-of-range exponent is refused on every call."""
    f = FieldSpec.binary_extension(7)
    first = gf2m._cmuladd_cx_pairs(f, 5)
    assert gf2m._cmuladd_cx_pairs(FieldSpec.binary_extension(7), 5) is first
    assert type(first) is tuple and len(first) == cmuladd_cx_formula(f, 5)
    exponents = [g.n for g in synth_encoder_gf2m(build_code(3, 4)).gates if g.kind == "CMulAdd"]
    hits = gf2m._cmuladd_cx_pairs.cache_info().hits
    expand_cmuladds(synth_encoder_gf2m(build_code(3, 4)))
    # each exponent after its first use is a hit
    assert gf2m._cmuladd_cx_pairs.cache_info().hits - hits >= len(exponents) - len(set(exponents)) > 0
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^exponent 127 out of range \[0, 127\)$"):
            synth_cmuladd(f, 127)


def test_cx_count_formula_all_fields():
    for m in range(1, 9):
        f = FieldSpec.binary_extension(m)
        for n in range(max(1, f.order - 1)):
            assert synth_cmuladd(f, n).count()["C1X"] == cmuladd_cx_formula(f, n), (m, n)


def test_cmuladd_semantics_m_up_to_5():
    for m in range(1, 6):
        f = FieldSpec.binary_extension(m)
        for n in range(max(1, f.order - 1)):
            assert verify_cmuladd(synth_cmuladd(f, n), f, n), (m, n)


@pytest.mark.parametrize("gate, gate_class", [(toffoli(Wire("a", 0), Wire("a", 1), Wire("b", 0)), "C2X"),
                                               (h(Wire("b", 1)), "H")], ids=["toffoli", "h"])
def test_cmuladd_checker_refuses_a_gate_outside_x_and_cx(gate, gate_class):
    """The checker proves a circuit from its basis images, which decide only
    an affine circuit; a Toffoli or an H is refused, not simulated."""
    f = FieldSpec.binary_extension(3)
    c = synth_cmuladd(f, 1)
    with pytest.raises(UnsupportedGateError, match=f"not {gate_class}$"):
        find_cmuladd_counterexample(Circuit(c.table, c.gates + (gate,)), f, 1)


@pytest.mark.parametrize("circuit_m, field_m, one_register", [(2, 3, False), (3, 2, False), (2, 2, True)],
                         ids=["narrower", "wider", "one-register"])
def test_cmuladd_checker_refuses_registers_that_do_not_fit_the_field(circuit_m, field_m, one_register):
    c = synth_cmuladd(FieldSpec.binary_extension(circuit_m), 1)
    if one_register:
        c = Circuit(RegisterTable([c.table["a"]]), [cx(Wire("a", 0), Wire("a", 1))])
    found = "a (2)" if one_register else f"a ({circuit_m}), b ({circuit_m})"
    with pytest.raises(InvalidDimensionError, match=re.escape(f"two {field_m}-qubit registers first, not {found}")):
        verify_cmuladd(c, FieldSpec.binary_extension(field_m), 1)


def test_cmuladd_checker_reads_no_field_table(monkeypatch):
    """The checker derives its expected outputs from carry-less products, not
    from the exp/log tables the circuit's multiplication matrix comes from."""
    cases = []
    for m, poly in [(1, None), (2, None), (4, None), (4, 0b11001), (7, None)]:
        f = FieldSpec.binary_extension(m, poly)
        for n in range(f.order - 1):
            c = synth_cmuladd(f, n)  # built before the tables are shut off
            cases.append((f, n, c, c.without_gate(len(c) // 2)))

    def refuse(*args, **kwargs):
        raise AssertionError("the checker read the field's exp/log tables")
    monkeypatch.setattr(galois, "mul_int", refuse)
    monkeypatch.setattr(FieldSpec, "alpha_power", refuse)
    monkeypatch.setattr(FieldSpec, "_exp_log", property(refuse))
    for f, n, c, broken in cases:
        assert find_cmuladd_counterexample(c, f, n) is None, (f, n)
        assert find_cmuladd_counterexample(broken, f, n) is not None, (f, n)


# ---------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------

def test_encoder_gf4_gate_list():
    spec = build_code(2, 2)
    enc = synth_encoder_gf2m(spec)
    kinds = [(g.kind, g.n) for g in enc.gates]
    assert kinds == [("DFT", None), ("CMulAdd", 1), ("CMulAdd", 2)]
    # gates drawn from {C1, Calpha, Calpha^2} only
    assert {g.n for g in enc.gates if g.kind == "CMulAdd"} <= {0, 1, 2}
    assert enc.gates[1].controls[0].wire.reg == "msg0"
    assert enc.gates[1].targets[0].reg == "par0"


def test_encoder_has_no_multi_controlled_gates():
    for m, K in [(2, 2), (3, 4), (4, 8)]:
        enc = synth_encoder_gf2m(build_code(m, K))
        assert all(g.kind != "MCX" for g in enc.gates)
        expanded, _ = expand_cmuladds(enc)
        assert all(g.arity == 1 for g in expanded.gates if g.kind == "MCX")


def test_encoder_classical_cost_matches_recount():
    for m, K in [(2, 2), (3, 4), (3, 5), (4, 8)]:
        spec = build_code(m, K)
        expanded, n_dft = expand_cmuladds(synth_encoder_gf2m(spec))
        assert expanded.count()["C1X"] == encoder_classical_cx_cost(spec)
        assert n_dft == spec.n - spec.K


def relabeled(c, src, dst):
    """The gates of a synth_cmuladd circuit moved from registers a, b onto src, dst."""
    names = {"a": src, "b": dst}
    return tuple(cx(Wire(names[g.controls[0].wire.reg], g.controls[0].wire.idx),
                    Wire(names[g.targets[0].reg], g.targets[0].idx)) for g in c.gates)


def test_expansion_is_each_cmuladd_circuit_on_its_registers():
    for m, K in [(2, 2), (3, 4), (4, 8), (5, 16)]:
        spec = build_code(m, K)
        enc = synth_encoder_gf2m(spec)
        want = ()
        for g in enc.gates:
            if g.kind == "CMulAdd":
                want += relabeled(synth_cmuladd(spec.field, g.n), g.controls[0].wire.reg, g.targets[0].reg)
        expanded, _ = expand_cmuladds(enc)
        assert expanded.gates == want


def test_expansion_builds_one_field_per_polynomial(monkeypatch):
    """The m = 4 encoder uses 15 exponents of one field; the expansion checks
    and tables that field once, not once per exponent."""
    enc = synth_encoder_gf2m(build_code(4, 8))
    assert len({g.n for g in enc.gates if g.kind == "CMulAdd"}) == 15
    built = []
    binary_extension = FieldSpec.binary_extension.__func__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return binary_extension(cls, *args, **kwargs)
    monkeypatch.setattr(FieldSpec, "binary_extension", classmethod(counting))
    expand_cmuladds(enc)
    assert built == [(4, None)]


def test_expansion_passes_other_gates_through():
    f = FieldSpec.binary_extension(3)
    table = RegisterTable([Register("u", 3, 0, "gf-message"), Register("v", 3, 1, "gf-code")])
    c = Circuit(table, [x(Wire("u", 2)), dft("u", 8), cmuladd("u", "v", 4), h(Wire("v", 0))])
    expanded, n_dft = expand_cmuladds(c)
    assert n_dft == 1
    assert expanded.gates == (x(Wire("u", 2)),) + relabeled(synth_cmuladd(f, 4), "u", "v") + (h(Wire("v", 0)),)
    walked = Circuit(table, expanded.gates)  # histogram built from the gates
    assert list(expanded.signature_histogram().items()) == list(walked.signature_histogram().items())


def test_expansion_keeps_mcx_records_as_records():
    """An MCX passes through the expansion as its record, so the expanded
    circuit equals the checked circuit of its gates."""
    for m, K in [(2, 2), (3, 4), (4, 8), (5, 16)]:
        expanded, _ = expand_cmuladds(synth_encoder_gf2m(build_code(m, K)))
        again, n_dft = expand_cmuladds(expanded)
        assert (again, n_dft) == (expanded, 0)
        assert all(type(r) is tuple for r in again.records)
    table = RegisterTable([Register("u", 3, 0, "gf-message"), Register("v", 3, 1, "gf-code")])
    c = Circuit(table, [x(Wire("u", 2)), cx(Wire("v", 1), Wire("u", 0)), cmuladd("u", "v", 4)], Meta(d=8))
    expanded, _ = expand_cmuladds(c)
    assert expanded == Circuit(table, expanded.gates, Meta(d=8))


def test_encoder_multiplexing_gives_no_advantage():
    for m, K in [(2, 2), (3, 4), (4, 8), (5, 16)]:
        expanded, _ = expand_cmuladds(synth_encoder_gf2m(build_code(m, K)))
        gen = lowering.lower_circuit(expanded, lowering.general()).cx_total
        mux = lowering.lower_circuit(expanded, lowering.multiplexed()).cx_total
        assert gen == mux


def test_encoder_rejects_codes_without_dual_containment():
    with pytest.raises(UnsupportedConfigurationError):
        synth_encoder_gf2m(build_code(3, 2))
    with pytest.raises(UnsupportedConfigurationError):
        synth_encoder_gf2m(build_code(4, 7))


def test_encoder_metadata_labels_generalized_cases():
    assert "generalized" not in synth_encoder_gf2m(build_code(2, 2)).meta.note
    assert "generalized" in synth_encoder_gf2m(build_code(3, 4)).meta.note


def test_encoder_round_trips_through_interchange():
    from qrsmux.circuit import parse, serialize
    enc = synth_encoder_gf2m(build_code(3, 4))
    back = parse(serialize(enc))
    assert back.gates == enc.gates
    assert back.count() == enc.count()
