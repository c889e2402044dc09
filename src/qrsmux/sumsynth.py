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

The modulo conversion is looked up in tables built once per width, like the
adder, by ``_modulo_tables(k)``: the flag controls of every outcome, the B
bits of every correction mask and the correction records from the top carry
and the check-if qubits.  ``_emit_mod`` emits each of its four signatures
from its own range of the outcomes i in [d, 2(d-1)], in gate order: the
flags of arity k over d..min(2^k, 2d-1)-1, the carry-controlled flags over
2^k..2(d-1), the corrections from the check-if qubits and the corrections
from the substituted top carry.  It reads no closed-form count, so
``count()`` and ``predicted_counts`` stay two derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .circuit import CostBreakdown, Circuit, Emitter, Meta, Register, RegisterTable
from .errors import InvalidDimensionError
from .galois import is_prime

K_MAX = 10  # the widest adder: d <= 2^K_MAX = 1024

CASE_A = "A"   # 2(d-1) <= 2^k: every flagged outcome fits in k bits
CASE_B = "B"   # 2(d-1) >  2^k: outcomes >= 2^k also control on the top carry

DIRTY_ANCILLA_NOTE = (
    "carry/check-if ancillas are not uncomputed; cascading SUM gates requires fresh or reset ancillas"
)


@dataclass(frozen=True)
class SumPlan:
    d: int
    k: int
    case: str
    n_checkif: int
    n_aux: int


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
    """Register plan for the dimension-d SUM gate: its width k, case and ancilla counts."""
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


def _pick_table(choices: list[tuple[tuple, tuple]]) -> tuple[tuple, ...]:
    """table[v] = choices[0][bit 0 of v] + choices[1][bit 1 of v] + ...,
    for every v below 2^len(choices)."""
    table = [()]
    for if_zero, if_one in choices:
        table = [t + if_zero for t in table] + [t + if_one for t in table]
    return tuple(table)


@cache
def _modulo_tables(k: int) -> tuple[tuple[tuple, ...], tuple[tuple, ...], tuple[tuple[tuple, ...], ...]]:
    """The modulo conversion's tables for width k, on synth_rca(k)'s offsets
    with the check-if qubits right after the top carry: reads[i] holds the flag
    controls of outcome i < 2^(k+1) (i mod 2^k on B, zero-polarity where a bit
    is 0, then the top carry if i >= 2^k), bits[m] the B bits set in the k-bit
    mask m, and rows[r][j] the CX onto B bit j from the r-th qubit from the
    top carry on (r = 0 is the top carry, r >= 1 check-if qubit r - 1)."""
    table = synth_rca(k).table
    b, top_carry = table.offset("B"), table.offset("carry") + k - 1
    reads = _pick_table([((~o,), (o,)) for o in range(b, b + k)] + [((), (top_carry,))])
    bits = _pick_table([((), (j,)) for j in range(k)])
    rows = tuple(tuple((controls, b + j) for j in range(k))
                 for controls in [(c,) for c in range(top_carry, top_carry + (1 << k))])
    return reads, bits, rows


def _emit_mod(em: Emitter, p: SumPlan) -> None:
    """Flag phase then correction phase for the modulo conversion, each
    signature's gates looked up in its width's tables by one comprehension
    over its own outcome range."""
    d, n = p.d, p.n_checkif
    top, last = 1 << p.k, 2 * (d - 1)
    reads, bits, rows = _modulo_tables(p.k)
    first = em.table.offset("checkif") if n else 0
    checkif = range(first, first + n)
    # Outcome i is flagged on check-if qubit i - d, and its correction mask is
    # (i mod 2^k) XOR (i - d).  The outcome 2^k = 2(d-1) alone has no flag
    # gate: the top carry is its flag.  It is the last outcome and has no
    # check-if qubit, so zipping each range with its check-if qubits leaves
    # it out, and its correction reads the top carry, rows[0], instead.
    em.extend([(reads[i], q) for i, q in zip(range(d, top), checkif)])
    em.extend([(reads[i], q) for i, q in zip(range(top, last + 1), checkif[top - d:])])
    em.extend([row[j] for i, row in zip(range(d, last + 1), rows[1:n + 1])
               for j in bits[(i % top) ^ (i - d)]])
    em.extend([rows[0][j] for j in bits[top - d]] if last == top else [])


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
