"""GF(2^m) Reed-Solomon encoder building blocks.

Builds the classical [n, K] code over GF(2^m) with n = 2^m - 1: the dual's
generator polynomial has roots 1, alpha, ..., alpha^(K-1); the parity-check
matrix H stacks its shifts.  The code's own generator polynomial g(x) has
roots alpha, ..., alpha^(n-K), and the generator matrix G = [I | P] is
systematic: row i of P is the remainder x^(n-K+i) mod g(x), built by
repeated multiplication by x and reduction (the textbook systematic encoder
of a cyclic code), with no matrix algebra.  The encoder circuit applies DFT
gates to the coset qudits and one multiplier-add gate per nonzero parity
entry of G, so it contains no multi-controlled X gate of any arity >= 2 and
quantum multiplexing cannot reduce its CX count.

Every multiplier-add gate b <- alpha^n * a + b synthesizes to plain CX gates:
one per set entry of the multiplication matrix, giving
sum_p H_w(alpha^(n+p)) CX in total.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import galois
from .circuit import Circuit, Emitter, Meta, Register, RegisterTable, cmuladd, dft
from .errors import UnsupportedConfigurationError
from .galois import FieldSpec, mul_by_alpha_matrix
from .revsim import pair_slices, simulate_slices


# ----------------------------------------------------------------------
# Polynomials over the field (coefficient lists, ascending degree)
# ----------------------------------------------------------------------

def _poly_mul(f: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            out[i + j] ^= galois.mul_int(f, ai, bj)
    return out


def _poly_from_roots(f: FieldSpec, root_exponents: list[int]) -> list[int]:
    poly = [1]
    for e in root_exponents:
        poly = _poly_mul(f, poly, [f.alpha_power(e), 1])  # (x + alpha^e); char 2
    return poly


# ----------------------------------------------------------------------
# Field matrices
# ----------------------------------------------------------------------

def _matmul_transposed(f: FieldSpec, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a @ b^T over the field."""
    out = []
    for row in a:
        out_row = []
        for col in b:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc ^= galois.mul_int(f, x, y)
            out_row.append(acc)
        out.append(out_row)
    return out


# ----------------------------------------------------------------------
# Code construction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RSCodeSpec:
    """[n, K] Reed-Solomon code over GF(2^m) with n = 2^m - 1, plus its dual data."""

    field: FieldSpec
    n: int
    K: int
    gen_poly: tuple[int, ...]        # generator of the code itself, degree n - K, roots alpha^1..alpha^(n-K)
    gen_poly_dual: tuple[int, ...]   # generator of the dual, degree K, roots alpha^0..alpha^(K-1)
    G: tuple[tuple[int, ...], ...]   # K x n systematic generator matrix [I | P]
    H: tuple[tuple[int, ...], ...]   # (n-K) x n parity-check matrix

    @cached_property
    def parity(self) -> tuple[tuple[int, ...], ...]:
        """The P block of G = [I | P]:  K x (n-K); built on first read."""
        return tuple(row[self.K:] for row in self.G)

    def dual_contained(self) -> bool:
        """True when the dual code lies inside the code (H . H^T = 0).

        The rows of H are shifts of g_dual that never wrap, so H . H^T is
        the symmetric Toeplitz matrix whose entry (j, j') is the
        autocorrelation of g_dual at lag |j - j'|: n - K lags of at most K + 1
        products each, in place of the full product.
        """
        f, g = self.field, self.gen_poly_dual
        for lag in range(self.n - self.K):
            acc = 0
            for x, y in zip(g, g[lag:]):
                if x and y:
                    acc ^= galois.mul_int(f, x, y)
            if acc:
                return False
        return True


def build_code(m: int, K: int, poly: int | None = None) -> RSCodeSpec:
    """Construct the [n, K] code and verify G . H^T = 0 exhaustively.

    The parity block P of G = [I | P] is read off g_code (row i is
    x^(n-K+i) mod g_code) and H off g_dual, so the check compares two
    independent derivations.
    """
    f = FieldSpec.binary_extension(m, poly)
    n = f.order - 1
    if not 1 <= K < n:
        raise ValueError(f"message length K={K} must satisfy 1 <= K < n={n}")

    g_dual = _poly_from_roots(f, list(range(K)))           # degree K
    g_code = _poly_from_roots(f, list(range(1, n - K + 1)))  # degree n - K

    # H rows are the shifts x^j * g_dual, j = 0 .. n-K-1.
    H = []
    for j in range(n - K):
        row = [0] * n
        for deg, coeff in enumerate(g_dual):
            row[j + deg] = coeff
        H.append(row)

    # Systematic G = [I | P]: row i of P is x^(n-K+i) mod g_code, since the
    # codeword x^(n-K+i) + (x^(n-K+i) mod g_code), shifted cyclically by K
    # places, is x^i + x^K (x^(n-K+i) mod g_code).
    low = g_code[:n - K]  # x^(n-K) mod g_code, as g_code is monic
    P = [low]
    for _ in range(1, K):
        prev = P[-1]
        row = [0] + prev[:-1]  # x * prev without its x^(n-K) term,
        if prev[-1]:           # which reduces to prev[-1] * low
            row = [v ^ galois.mul_int(f, prev[-1], c) for v, c in zip(row, low)]
        P.append(row)
    G = [[1 if i == j else 0 for j in range(K)] + P[i] for i in range(K)]

    ght = _matmul_transposed(f, G, H)
    if any(v != 0 for row in ght for v in row):
        raise AssertionError("construction bug: G . H^T != 0")

    return RSCodeSpec(
        field=f, n=n, K=K,
        gen_poly=tuple(g_code), gen_poly_dual=tuple(g_dual),
        G=tuple(tuple(r) for r in G), H=tuple(tuple(r) for r in H),
    )


# ----------------------------------------------------------------------
# Gate synthesis
# ----------------------------------------------------------------------

def cmuladd_cx_formula(f: FieldSpec, n: int) -> int:
    """Closed-form CX count of the multiplier-add gate: sum_p H_w(alpha^(n+p))."""
    return sum(f.alpha_power(n + p).bit_count() for p in range(f.m))


def _cmuladd_cx_pairs(f: FieldSpec, n: int) -> list[tuple[int, int]]:
    """(p, j) per CX a[p] -> b[j] of b <- alpha^n * a + b, in emission order."""
    columns = mul_by_alpha_matrix(f, n)
    return [(p, j) for p, col in enumerate(columns) for j in range(f.m) if col >> j & 1]


def synth_cmuladd(f: FieldSpec, n: int) -> Circuit:
    """CX-only circuit on registers a, b realizing b <- alpha^n * a + b."""
    m = f.m
    table = RegisterTable([
        Register("a", m, 0, "gf-message"),
        Register("b", m, 1, "gf-code"),
    ])
    a = [(table.offset("a") + p,) for p in range(m)]
    b = [table.offset("b") + j for j in range(m)]
    em = Emitter(table)
    em.extend([(a[p], b[j]) for p, j in _cmuladd_cx_pairs(f, n)])
    return em.circuit(Meta(d=f.order, note=f"b <- alpha^{n} * a + b over GF({f.order})"))


def find_cmuladd_counterexample(c: Circuit, f: FieldSpec, n: int) -> tuple[int, int] | None:
    """Lexicographically first basis pair (a, b) on which the circuit disagrees with b <- alpha^n * a + b.

    All 4^m pairs run through the circuit at once.  The expected b slices
    follow from the specification by linearity: bit j of alpha^n * a is the
    XOR of the bits a_p for which bit j of c_p = alpha^n * x^p is set.  Each
    c_p is a carry-less product reduced by the field polynomial, with alpha^n
    by square-and-multiply, so the check reads neither the circuit's gates
    nor the exp/log tables that ``mul_by_alpha_matrix`` builds them from.
    """
    table = c.table
    m = f.m
    size = 1 << m
    a_pos = [table.offset(table.registers[0].name) + j for j in range(m)]
    b_pos = [table.offset(table.registers[1].name) + j for j in range(m)]
    a_in, b_in = pair_slices(size, m)

    mulmod, poly = galois.gf2_mulmod, f.poly
    column, square, e = 1, mulmod(0b10, 1, poly), n % (size - 1)  # square starts at alpha = x mod poly
    while e:  # column <- alpha^n
        if e & 1:
            column = mulmod(column, square, poly)
        square = mulmod(square, square, poly)
        e >>= 1
    want = list(b_in)
    for p in range(m):  # column is c_p
        for j in range(m):
            if column >> j & 1:
                want[j] ^= a_in[p]
        column = mulmod(column, 0b10, poly)

    out = simulate_slices(c, dict(zip(a_pos + b_pos, a_in + b_in)), size * size)
    bad = 0
    for pos, expect in zip(a_pos + b_pos, (*a_in, *want)):
        bad |= out[pos] ^ expect
    if not bad:
        return None
    return divmod((bad & -bad).bit_length() - 1, size)  # lowest failing case is the first (a, b)


def verify_cmuladd(c: Circuit, f: FieldSpec, n: int) -> bool:
    """Exhaustive check over all 2^(2m) basis pairs that (a, b) -> (a, alpha^n * a + b)."""
    return find_cmuladd_counterexample(c, f, n) is None


# ----------------------------------------------------------------------
# Encoder emission
# ----------------------------------------------------------------------

def encoder_registers(spec: RSCodeSpec) -> RegisterTable:
    m = spec.field.m
    regs = [Register(f"msg{i}", m, i, "gf-message") for i in range(spec.K)]
    regs += [Register(f"par{j}", m, spec.K + j, "gf-code") for j in range(spec.n - spec.K)]
    return RegisterTable(regs)


def synth_encoder_gf2m(spec: RSCodeSpec) -> Circuit:
    """Encoder circuit: DFT on the coset qudits, then one multiplier-add per
    nonzero parity entry of G, from message qudit i onto parity qudit j.

    DFT gates stay opaque at qudit level and never enter CX totals.  Requires
    the dual code to lie inside the code (K >= (n+1)/2), which also makes the
    logical count 2K - n positive.
    """
    n, K, f = spec.n, spec.K, spec.field
    # A cyclic code with defining set Z contains its dual iff Z and -Z mod n
    # are disjoint (Aly, Klappenecker and Sarvepalli 2007); here Z = {1, ..., n-K}.
    contains_dual = 2 * K > n
    if contains_dual != spec.dual_contained():
        raise AssertionError("construction bug: H . H^T = 0 disagrees with 2K > n")
    if not contains_dual:
        raise UnsupportedConfigurationError(
            f"[{n},{K}] over GF({f.order}) does not contain its dual; encoder needs K >= (n+1)/2")
    n_logical = 2 * K - n
    default = galois.DEFAULT_PRIMITIVE_POLYS.get(f.m)
    gate_poly = None if f.poly == default else f.poly

    label = f"[[{n},{n_logical},>={n - K + 1}]]_{f.order} encoder"
    if (f.m, K) != (2, 2):
        label += "; generalized construction"
    gates = [dft(f"msg{i}", f.order) for i in range(n_logical, K)]
    gates += [cmuladd(f"msg{i}", f"par{j}", f.exponent_of(entry), poly=gate_poly)
              for i, row in enumerate(spec.parity) for j, entry in enumerate(row) if entry]
    return Circuit(encoder_registers(spec), gates, Meta(d=f.order, note=label))


def expand_cmuladds(c: Circuit) -> tuple[Circuit, int]:
    """Qubit-level classical part of an encoder circuit.

    Replaces every multiplier-add gate by its CX expansion on the same
    registers and drops DFT gates; returns the expanded circuit and the
    number of DFT gates dropped.
    """
    em = Emitter(c.table)
    n_dft = 0
    pairs_cache: dict[tuple[int | None, int, int], list[tuple[int, int]]] = {}
    # register -> the 1-tuple control offset, and the target offset, of each of its qubits
    table = c.table
    targets = {r.name: list(range(table.offset(r.name), table.offset(r.name) + r.width)) for r in table.registers}
    controls = {name: [(o,) for o in offsets] for name, offsets in targets.items()}
    for r in c.records:
        if type(r) is tuple:  # an MCX record passes through as a record
            em.mcx(*r)
        elif r.kind == "DFT":
            n_dft += 1
        elif r.kind == "CMulAdd":
            src, dst = r.controls[0].wire.reg, r.targets[0].reg
            m = c.table[dst].width
            key = (r.poly, m, r.n)
            pairs = pairs_cache.get(key)
            if pairs is None:
                pairs = pairs_cache[key] = _cmuladd_cx_pairs(FieldSpec.binary_extension(m, r.poly), r.n)
            src_controls, dst_targets = controls[src], targets[dst]
            em.extend([(src_controls[p], dst_targets[j]) for p, j in pairs])
        else:
            em.add(r)
    return em.circuit(c.meta), n_dft


def encoder_classical_cx_cost(spec: RSCodeSpec) -> int:
    """CX cost of the encoder's classical part, from the per-gate closed form
    summed once per exponent and weighted by that exponent's gate count."""
    f = spec.field
    uses = Counter(f.exponent_of(entry) for row in spec.parity for entry in row if entry)
    return sum(n * cmuladd_cx_formula(f, exponent) for exponent, n in uses.items())
