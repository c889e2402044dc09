"""Qubit-level synthesis of the d-dimensional SUM gate.

The gate splits into a ripple-carry adder computing B <- (A+B) mod 2^k with
the overflow in the top carry qubit, followed by a modulo conversion that
flags every adder outcome i in [d, 2(d-1)] on a check-if qubit and then
corrects the B register from i mod 2^k to i mod d.

Layout choices that pin the exact gate tally:

* A sits on photon 0, B on photon 1 and every ancilla (carry, check-if) on
  photon 2; multiplexed lowering collapses controls that share a photon.
* RCA stage i >= 1 computes the next carry as a 3-Toffoli majority
  (a_i b_i, a_i c_{i-1}, b_i c_{i-1} into carry_i) before updating b_i with
  two CX; stage 0 is a half adder.  Total: 3k-2 Toffolis, 2k-1 CX.
* Flag gates read the B register pattern with zero-polarity controls where a
  pattern bit is 0.  Outcomes i >= 2^k additionally control on the top carry
  (arity k+1).  When 2(d-1) = 2^k, the outcome 2^k needs no flag gate at
  all: the top carry is its flag.
* Corrections are CX from the flag qubit onto each B bit set in
  (i mod 2^k) XOR (i mod d).  The mask is k bits wide; corrections never
  touch the carry, and no ancilla is uncomputed.  Cascading SUM gates
  therefore needs fresh (or reset) carry/check-if ancillas, exactly as the
  per-gate cost model assumes.

Gates are emitted as ``circuit.Emitter`` records of register offsets, which
each synthesis takes once from its register table, and the emitter keys each
record's signature from that table.  ``synth_rca`` is cached, so the adder is
built once per width, and ``synth_sum`` starts from it by ``Emitter.include``.

The modulo conversion is emitted from half tables built once per synthesis.
The low bits 0..h-1 of B (h = k // 2) and the high bits h..k-1 each get a
table, indexed by their part of a k-bit value v, of the flag control offsets
that read that part of v and of the B bit indices that its set bits select.
The controls of pattern v are then ``low[v & (2^h - 1)] + high[v >> h]``,
one concatenation of two tables of at most 2^ceil(k/2) entries, and the bits
of a correction mask come from its two half tables the same way.  The
correction records from the check-if qubits alone are shared like the adder:
every circuit of width k takes them from ``_correction_rows``, cached on its
layout.  Its 2^k * k records per width are 1.8 to 6.0 times one circuit's,
0.8 MB at k = 10 and 1.4 MB for k = 2..10.

``_emit_mod`` emits each of its four signatures from its own range of the
outcomes i in [d, 2(d-1)], in gate order: the flags of arity k over
d..min(2^k, 2d-1)-1, the carry-controlled flags over 2^k..2(d-1), the
corrections from the check-if qubits and the corrections from the
substituted top carry.  Outcome i is flagged on check-if qubit i - d, and
its correction bits are computed once, from (i mod 2^k) XOR (i - d); the
carry-substituted outcome is the last one, so its corrections reuse the last
entry.  It reads no closed-form count, so ``count()`` and
``predicted_counts`` stay two derivations.  ``SumPlan.flags`` describes the
same outcomes, one ``FlagSpec`` each, for tests and readers; it is built
only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from .circuit import CostBreakdown, Circuit, Emitter, Meta, Register, RegisterTable
from .errors import InvalidDimensionError
from .galois import is_prime

K_MAX = 10  # the widest adder: d <= 2^K_MAX = 1024

CASE_A = "A"   # 2(d-1) <= 2^k: every flagged outcome fits in k bits
CASE_B = "B"   # 2(d-1) >  2^k: outcomes >= 2^k also control on the top carry

DIRTY_ANCILLA_NOTE = (
    "carry/check-if ancillas are not uncomputed; cascading SUM gates requires fresh or reset ancillas"
)


class FlagSpec(NamedTuple):
    """One adder outcome needing modulo conversion."""

    value: int                 # outcome i in [d, 2(d-1)]
    pattern: int               # i mod 2^k over k bits, read by the flag gate
    needs_carry_control: bool  # i >= 2^k
    correction_mask: int       # pattern XOR (i mod d)
    uses_carry_substitute: bool  # top carry doubles as the flag qubit (no flag gate)
    checkif_index: int | None  # index into the check-if register, None when substituted


@dataclass(frozen=True)
class SumPlan:
    d: int
    k: int
    case: str
    n_checkif: int
    n_aux: int

    @property
    def carry_substituted(self) -> bool:
        return 2 * (self.d - 1) == 1 << self.k

    @cached_property
    def flags(self) -> tuple[FlagSpec, ...]:
        """One FlagSpec per adder outcome in [d, 2(d-1)]; built on first read.
        Synthesis walks the outcomes itself and never reads it."""
        d, top = self.d, 1 << self.k
        flags = []
        checkif_index = 0
        for i in range(d, 2 * (d - 1) + 1):
            substituted = i == top and 2 * (d - 1) == top
            pattern = i % top
            # value, pattern, needs_carry_control, correction_mask, uses_carry_substitute, checkif_index
            flags.append(FlagSpec(i, pattern, i >= top, pattern ^ (i % d), substituted,
                                  None if substituted else checkif_index))
            if not substituted:
                checkif_index += 1
        return tuple(flags)


def compute_k(d: int) -> int:
    """The unique k with 2^(k-1) < d <= 2^k."""
    k = 1
    while (1 << k) < d:
        k += 1
    return k


def _checked_k(d: int) -> int:
    """compute_k(d), after checking that k fits K_MAX and then that d is
    prime, so a d too large to test quickly is refused for its size."""
    k = compute_k(d)
    if k > K_MAX:
        raise InvalidDimensionError(f"d={d} needs k={k} qubits, above the limit k_max={K_MAX}")
    if not is_prime(d):
        raise InvalidDimensionError(f"d={d} is not prime")
    return k


def plan(d: int) -> SumPlan:
    """Register and flag plan for the dimension-d SUM gate."""
    k = _checked_k(d)
    top = 1 << k
    case = CASE_A if 2 * (d - 1) <= top else CASE_B
    # one check-if qubit per outcome in [d, 2(d-1)], except a carry-substituted 2^k
    n_checkif = d - 2 if 2 * (d - 1) == top else d - 1
    return SumPlan(d=d, k=k, case=case, n_checkif=n_checkif, n_aux=k + n_checkif)


def sum_registers(p: SumPlan) -> RegisterTable:
    """The registers of synth_rca(p.k), the same objects, then the check-if qubits."""
    regs = list(synth_rca(p.k).table.registers)
    if p.n_checkif:
        regs.append(Register("checkif", p.n_checkif, 2, "check-if"))
    return RegisterTable(regs)


def _pick_table(choices: list[tuple[tuple, tuple]]) -> list[tuple]:
    """table[v] = choices[0][bit 0 of v] + choices[1][bit 1 of v] + ...,
    for every v below 2^len(choices)."""
    table = [()]
    for if_zero, if_one in choices:
        table = [t + if_zero for t in table] + [t + if_one for t in table]
    return table


@cache
def _correction_rows(first_b: int, first_checkif: int, k: int) -> tuple[tuple[tuple, ...], ...]:
    """rows[q][j] is the record of the CX from check-if qubit q < 2^k onto bit j of B."""
    return tuple(tuple((controls, first_b + j) for j in range(k))
                 for controls in [(first_checkif + q,) for q in range(1 << k)])


def _emit_mod(em: Emitter, p: SumPlan) -> None:
    """Flag phase then correction phase for the modulo conversion, each
    signature's gates emitted by one comprehension over its own outcome range."""
    table, d, k, half = em.table, p.d, p.k, p.k // 2
    top, last = 1 << k, 2 * (d - 1)
    low_mask = (1 << half) - 1
    b = [table.offset("B") + j for j in range(k)]
    reads = [((~o,), (o,)) for o in b]      # bit j of a pattern -> its control
    flips = [((), (j,)) for j in range(k)]  # bit j of a mask -> its bit index
    controls_low, controls_high = _pick_table(reads[:half]), _pick_table(reads[half:])
    bits_low, bits_high = _pick_table(flips[:half]), _pick_table(flips[half:])
    top_carry = (table.offset("carry") + k - 1,)
    first_checkif = table.offset("checkif") if p.n_checkif else 0
    checkif = range(first_checkif, first_checkif + p.n_checkif)
    # Outcome i is flagged on check-if qubit i - d.  Outcomes d..2^k-1 read
    # the pattern i, and outcomes 2^k..2(d-1) read v = i - 2^k and the top
    # carry.  The outcome 2^k = 2(d-1) alone has no flag gate: the top carry
    # is its flag.  It is the last outcome and has no check-if qubit, so
    # zipping each range with its check-if qubits leaves it out, and its
    # correction reads the top carry instead.
    bits = [bits_low[m & low_mask] + bits_high[m >> half]
            for m in [(i % top) ^ (i - d) for i in range(d, last + 1)]]  # by i - d
    rows = _correction_rows(b[0], first_checkif, k)[:p.n_checkif]
    em.extend([(controls_low[i & low_mask] + controls_high[i >> half], q)
               for i, q in zip(range(d, min(top, last + 1)), checkif)])
    em.extend([(controls_low[v & low_mask] + controls_high[v >> half] + top_carry, q)
               for v, q in zip(range(last + 1 - top), checkif[top - d:])])
    em.extend([row[j] for row, js in zip(rows, bits) for j in js])
    em.extend([(top_carry, b[j]) for j in bits[-1]] if last == top else [])


@cache
def synth_rca(k: int) -> Circuit:
    """Ripple-carry adder over A(k), B(k), carry(k): B <- (A+B) mod 2^k,
    overflow in carry[k-1]; built once per width, as a circuit never changes."""
    if k < 1:
        raise InvalidDimensionError(f"k={k} must be >= 1")
    em = Emitter(RegisterTable([Register("A", k, 0, "data-A"), Register("B", k, 1, "data-B"),
                                Register("carry", k, 2, "carry")]))
    a, b, c = (range(em.table.offset(name), em.table.offset(name) + k) for name in ("A", "B", "carry"))
    em.mcx((a[0], b[0]), c[0])
    em.mcx((a[0],), b[0])
    for i in range(1, k):
        em.mcx((a[i], b[i]), c[i])
        em.mcx((a[i], c[i - 1]), c[i])
        em.mcx((b[i], c[i - 1]), c[i])
        em.mcx((a[i],), b[i])
        em.mcx((c[i - 1],), b[i])
    return em.circuit(Meta(note=f"{k}-bit ripple-carry adder"))


def synth_mod(p: SumPlan) -> Circuit:
    """Standalone modulo-conversion circuit (expects the adder to have run)."""
    em = Emitter(sum_registers(p))
    _emit_mod(em, p)
    note = f"modulo conversion for d={p.d} (case {p.case}); {DIRTY_ANCILLA_NOTE}"
    return em.circuit(Meta(d=p.d, note=note))


def synth_sum(d: int) -> Circuit:
    """Full SUM gate: the adder of its width, then the modulo conversion."""
    p = plan(d)
    em = Emitter(sum_registers(p))
    em.include(synth_rca(p.k))
    _emit_mod(em, p)
    note = f"SUM gate, case {p.case}, k={p.k}; {DIRTY_ANCILLA_NOTE}"
    return em.circuit(Meta(d=d, note=note))


def correction_cx_total(d: int) -> int:
    """Sum over i in [d, 2(d-1)] of the Hamming distance between i mod 2^k and i mod d.

    With k = compute_k(d), both residues are below 2^k, so the top carry
    never receives a correction.
    """
    top = 1 << compute_k(d)
    return sum(((i % top) ^ (i % d)).bit_count() for i in range(d, 2 * (d - 1) + 1))


def predicted_counts(d: int) -> CostBreakdown:
    """Closed-form gate tally of synth_sum(d), computed without synthesizing.

    RCA: 3k-2 Toffolis and 2k-1 CX.  Modulo flags: d-1 gates of arity k
    (minus the carry-substituted one when 2(d-1) = 2^k) when every outcome
    fits in k bits, else 2^k - d gates of arity k and 2d - 2^k - 1 gates of
    arity k+1.  Corrections: one CX per set correction-mask bit.
    """
    k = _checked_k(d)
    top = 1 << k
    counts = {"C2X": 3 * k - 2, "C1X": (2 * k - 1) + correction_cx_total(d)}
    if 2 * (d - 1) <= top:
        n_flags = (d - 1) - (1 if 2 * (d - 1) == top else 0)
        counts[f"C{k}X"] = counts.get(f"C{k}X", 0) + n_flags
    else:
        counts[f"C{k + 1}X"] = counts.get(f"C{k + 1}X", 0) + (2 * d - top - 1)
        counts[f"C{k}X"] = counts.get(f"C{k}X", 0) + (top - d)
    return CostBreakdown(counts)
