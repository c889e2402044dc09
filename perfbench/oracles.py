"""Expected outputs derived without the code under test.

Everything here is recomputed from the paper's construction and from plain
integer arithmetic, without calling the functions under test: the primes,
the SUM gate's gate tally and its CX totals under each lowering rule, a
bit-sliced evaluator of permutation circuits, and GF(2^m) multiplication by
shift-and-XOR.  The evaluator only reads ``Gate`` fields and
``RegisterTable.resolve``, so it checks the simulator in ``revsim`` and
``gf2m`` without sharing any of its code.  The pinned values below are the
program's outputs when the benchmark was defined; they catch drift.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# SHA-256 of the sweep CSV for every prime in 3..1021 under default-v1 with
# all three strategies, as the program wrote it when this benchmark was
# defined.  The CSV header is a contract, so the bytes must not drift.
SWEEP_CSV_SHA256 = "f9a5903868800719ae22d231864e06521bf70bab2d126f29ca2761461ed46045"

# Reference totals for d = 139 (paper anchors): general and multiplexed N_SUM.
D139_ANCHORS = {"general": 21182, "multiplexed": 1049}
ANCHOR_TOLERANCE = 0.05

# Counts pinned when this benchmark was defined; later count-based claims
# cite them.
PINNED_VERIFY_SUM = {257: {"cases": 66049, "ancilla_dirty": 59486}}
PINNED_SWEEP_ROWS = 171

# Expanded CX gates of the m = 8 encoder (K = 128) for every primitive
# polynomial of degree 8.  0x11d is the package default.
PINNED_ENCODER_CX_M8 = {
    0x11d: 521916, 0x12b: 521076, 0x12d: 522292, 0x14d: 523198,
    0x15f: 521868, 0x163: 523764, 0x165: 523198, 0x169: 522292,
    0x171: 521916, 0x187: 521890, 0x18d: 523764, 0x1a9: 521076,
    0x1c3: 521890, 0x1cf: 522790, 0x1e7: 522790, 0x1f5: 521868,
}


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by trial division."""
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % p for p in range(2, math.isqrt(n) + 1))]


# ----------------------------------------------------------------------
# SUM gate: tally and CX totals from the construction
# ----------------------------------------------------------------------

def sum_tally(d: int) -> dict:
    """Gate tally of the dimension-d SUM circuit, derived from its layout.

    The adder has 3k-2 Toffolis and 2k-1 CX.  Each outcome i in [d, 2(d-1)]
    gets a flag gate reading the k bits of B (plus the top carry when
    i >= 2^k), except i = 2^k when 2(d-1) = 2^k, whose flag is the top carry
    itself.  Corrections are one CX per bit where i mod 2^k and i mod d
    differ.
    """
    k = (d - 1).bit_length()
    top = 1 << k
    flags_k = flags_k1 = corrections = 0
    for i in range(d, 2 * (d - 1) + 1):
        if not (i == top and 2 * (d - 1) == top):
            if i >= top:
                flags_k1 += 1
            else:
                flags_k += 1
        corrections += bin((i % top) ^ (i % d)).count("1")
    return {"k": k, "cx": 2 * k - 1 + corrections, "toffoli": 3 * k - 2,
            "flags_k": flags_k, "flags_k1": flags_k1}


def _general_cx(j: int) -> int:
    return 1 if j == 1 else 6 if j == 2 else 24 * (j - 2)


def sum_cx_totals(d: int) -> dict[str, int]:
    """N_SUM of the dimension-d SUM gate under each strategy (default-v1).

    general: C_jX costs 1, 6 or 24(j-2) CX.  ralph: 2j-1.  multiplexed: the
    adder Toffolis span two photons with one control each and keep the full
    6 CX; a flag reading only B collapses to one CX; a flag that also reads
    the top carry collapses to one Toffoli, 6 CX.
    """
    t = sum_tally(d)
    k = t["k"]
    classes = {1: t["cx"], 2: t["toffoli"]}
    classes[k] = classes.get(k, 0) + t["flags_k"]
    classes[k + 1] = classes.get(k + 1, 0) + t["flags_k1"]
    return {
        "general": sum(n * _general_cx(j) for j, n in classes.items()),
        "ralph": sum(n * (2 * j - 1) for j, n in classes.items()),
        "multiplexed": t["cx"] + 6 * t["toffoli"] + t["flags_k"] + 6 * t["flags_k1"],
    }


def sum_gate_total(d: int) -> int:
    t = sum_tally(d)
    return t["cx"] + t["toffoli"] + t["flags_k"] + t["flags_k1"]


# ----------------------------------------------------------------------
# Bit-sliced evaluation of X / MCX circuits
# ----------------------------------------------------------------------

def evaluate(circuit, slices: dict[int, int], n_cases: int) -> list[int]:
    """Run every input case at once: wire w holds an int whose bit i is w's value in case i.

    ``slices`` maps global bit offsets to their input slices; other wires
    start at 0.  Returns the output slice of every wire.
    """
    full = (1 << n_cases) - 1
    table = circuit.table
    state = [0] * table.total_width
    for pos, value in slices.items():
        state[pos] = value
    for g in circuit.gates:
        target = table.resolve(g.targets[0])
        if g.kind == "X":
            state[target] ^= full
        elif g.kind == "MCX":
            fire = full
            for ctrl in g.controls:
                value = state[table.resolve(ctrl.wire)]
                fire &= value if ctrl.pol == "positive" else full ^ value
            state[target] ^= fire
        else:
            raise ValueError(f"cannot evaluate a {g.kind} gate")
    return state


def _block_slices(block: int, n_blocks: int, width: int, value_of) -> list[int]:
    """Slices over cases i = a*block + b (a < n_blocks, b < block) of value_of(a) per bit."""
    ones = (1 << block) - 1
    out = [0] * width
    for a in range(n_blocks):
        v = value_of(a)
        for j in range(width):
            if v >> j & 1:
                out[j] |= ones << (a * block)
    return out


def _inner_slices(block: int, n_blocks: int, width: int, value_of) -> list[int]:
    """Slices over cases i = a*block + b of value_of(b) per bit, the same in every block."""
    repunit = sum(1 << (a * block) for a in range(n_blocks))
    out = []
    for j in range(width):
        pattern = sum(1 << b for b in range(block) if value_of(b) >> j & 1)
        out.append(pattern * repunit)
    return out


class _Wire(NamedTuple):
    reg: str
    idx: int


def _offsets(circuit, name: str) -> list[int]:
    """Global bit offsets of a register's wires, low bit first."""
    table = circuit.table
    return [table.resolve(_Wire(name, j)) for j in range(table[name].width)]


class SumCases:
    """All d^2 inputs (A, B) of a SUM circuit with the expected (A, (A+B) mod d)."""

    def __init__(self, d: int):
        self.d = d
        self.k = (d - 1).bit_length()
        self.n_cases = d * d
        self.a = _block_slices(d, d, self.k, lambda a: a)
        self.b = _inner_slices(d, d, self.k, lambda b: b)
        d_ones = (1 << d) - 1
        base = [sum(1 << v for v in range(d) if v >> j & 1) for j in range(self.k)]
        self.want = [0] * self.k
        for a in range(d):
            for j in range(self.k):
                rotated = ((base[j] >> a) | (base[j] << (d - a))) & d_ones
                self.want[j] |= rotated << (a * d)

    def check(self, circuit) -> dict[str, int]:
        """Failing cases and cases with a dirty ancilla, counted over every input."""
        a_pos, b_pos = _offsets(circuit, "A"), _offsets(circuit, "B")
        slices = dict(zip(a_pos, self.a))
        slices.update(zip(b_pos, self.b))
        out = evaluate(circuit, slices, self.n_cases)
        bad = 0
        for j in range(self.k):
            bad |= (out[a_pos[j]] ^ self.a[j]) | (out[b_pos[j]] ^ self.want[j])
        data = set(a_pos) | set(b_pos)
        dirty = 0
        for pos, value in enumerate(out):
            if pos not in data:
                dirty |= value
        return {"cases": self.n_cases, "failures": bad.bit_count(), "ancilla_dirty": dirty.bit_count()}


# ----------------------------------------------------------------------
# GF(2^m) by shift-and-XOR
# ----------------------------------------------------------------------

def gf_mul(x: int, y: int, poly: int, m: int) -> int:
    """x * y in GF(2)[x] / poly, where poly includes its x^m term."""
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x >> m & 1:
            x ^= poly
    return acc


def alpha_powers(poly: int, m: int) -> list[int]:
    """alpha^0 .. alpha^(2^m - 2) with alpha = x."""
    out = [1]
    for _ in range(2 ** m - 2):
        out.append(gf_mul(out[-1], 2, poly, m))
    return out


def _x_pow(e: int, poly: int, m: int) -> int:
    acc, base = 1, 2
    while e:
        if e & 1:
            acc = gf_mul(acc, base, poly, m)
        base = gf_mul(base, base, poly, m)
        e >>= 1
    return acc


def primitive_polys(m: int) -> list[int]:
    """Every degree-m polynomial over GF(2) under which x has order 2^m - 1."""
    n = 2 ** m - 1
    factors = [q for q in primes_between(2, n) if n % q == 0]
    return [poly for poly in range(2 ** m + 1, 2 ** (m + 1), 2)
            if _x_pow(n, poly, m) == 1 and all(_x_pow(n // q, poly, m) != 1 for q in factors)]


def cmuladd_cx(powers: list[int], n: int, m: int) -> int:
    """CX gates of b <- alpha^n a + b: the Hamming weights of alpha^(n+p), p < m."""
    order = len(powers)
    return sum(bin(powers[(n + p) % order]).count("1") for p in range(m))


class CmulAddCases:
    """All 2^(2m) inputs (a, b) of a multiplier-add circuit and the expected outputs."""

    def __init__(self, m: int, poly: int):
        self.m, self.poly = m, poly
        self.size = 1 << m
        self.n_cases = self.size * self.size
        self.a = _block_slices(self.size, self.size, m, lambda a: a)
        self.b = _inner_slices(self.size, self.size, m, lambda b: b)
        self.powers = alpha_powers(poly, m)

    def failures(self, circuit, n: int) -> int:
        """Number of inputs on which the circuit differs from (a, alpha^n a + b)."""
        scale = self.powers[n]
        prod = _block_slices(self.size, self.size, self.m,
                             lambda a: gf_mul(a, scale, self.poly, self.m))
        a_pos, b_pos = _offsets(circuit, "a"), _offsets(circuit, "b")
        slices = dict(zip(a_pos, self.a))
        slices.update(zip(b_pos, self.b))
        out = evaluate(circuit, slices, self.n_cases)
        bad = 0
        for j in range(self.m):
            bad |= (out[a_pos[j]] ^ self.a[j]) | (out[b_pos[j]] ^ self.b[j] ^ prod[j])
        return bad.bit_count()
