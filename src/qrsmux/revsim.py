"""Exhaustive classical simulation of reversible (permutation) circuits.

Circuits made of X and MCX gates permute computational basis states, so
they are simulated on many basis inputs at once by bit-slicing (Biham, FSE
1997).  A slice is one integer per wire whose bit i is that wire's value in
input case i; an MCX then XORs the AND of its control slices into its
target slice, with zero-polarity controls complemented against the all-cases
mask.  The kernel runs a circuit's records (``circuit.Circuit.records``) as
they are stored: each X or MCX is (signed control offsets, target offset), a
zero-polarity control written as ``~offset`` and an X without controls.  The
kernel is reached through three proofs, each of which runs the whole circuit
once over its whole case set: ``truth_table`` (every input over a few wires),
``affine_images`` (the images of 0 and of the unit vectors, which decide an
X/CX circuit) and ``verify_sum``.

Inputs are packed and outputs unpacked a whole slice at a time, never one
bit at a time on a huge integer.  The checkers build their expected outputs
with the same slice arithmetic, from the input slices and the specification
alone: ``verify_sum`` adds the A and B slices with a bit-sliced ripple adder
and subtracts d wherever the sum reaches d.  Neither it nor the
multiplier-add checker reads the circuit under test, ``sumsynth.plan(d)`` or
the field's exp/log tables, so the expected outputs are a second
derivation, not a replay of the synthesis.
``verify_sum`` runs its d^2 cases in blocks of consecutive A values, so each
wire's slice stays below a fixed number of cases however large d is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .circuit import Circuit, Wire
from .errors import InvalidDimensionError, ResolutionError, ResourceLimitError, UnsupportedGateError

TRUTH_TABLE_WIDTH_LIMIT = 24


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------

def compile_permutation(c: Circuit) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The circuit's records, which the kernel runs as stored.  Refuses the
    first gate that is neither X nor MCX by its index: the histogram lists
    signatures in order of first use, so the first refused signature's first
    index is that gate's."""
    for (kind, _, _), indices in c.signature_histogram().items():
        if kind not in ("X", "MCX"):
            raise UnsupportedGateError(f"gate {indices[0]} ({kind}) is not a permutation gate")
    return c.records


def _run(records: tuple, width: int, inputs: dict[int, int], n_cases: int) -> list[int]:
    """Every wire's output slice, by offset, after the records run once over n_cases
    basis inputs: inputs maps an offset to its input slice, other wires start at 0."""
    full = (1 << n_cases) - 1
    state = [0] * width
    for pos, value in inputs.items():
        state[pos] = value
    for controls, target in records:
        fire = full
        for o in controls:
            # a zero-polarity control ~o complements its slice against the mask: negative ints are slow
            fire &= state[o] if o >= 0 else full ^ state[~o]
        state[target] ^= fire
    return state


# ----------------------------------------------------------------------
# Packing inputs and unpacking outputs
# ----------------------------------------------------------------------

def _tile(pattern: int, period: int, n_cases: int) -> int:
    """Repeat a period-bit pattern across n_cases bits by doubling."""
    length = period
    while length < n_cases:
        pattern |= pattern << length
        length *= 2
    return pattern & ((1 << n_cases) - 1)


def _counter_slice(n_cases: int, j: int, run: int = 1) -> int:
    """Bit j of i // run for every case i < n_cases."""
    half = run << j
    return _tile(((1 << half) - 1) << half, 2 * half, n_cases)


def _add_mod(a: list[int], b: list[int], d: int, full: int) -> list[int]:
    """Slices of (a + b) mod d from the slices of a, b < d, low bit first.

    A ripple add into one more slice than a has, then s - d with a borrow
    chain: a borrow out of the top bit marks s < d, and there s is kept,
    elsewhere the difference.  Every step is one operation on whole slices.
    """
    s, carry = [], 0
    for x, y in zip(a, b):
        s.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    s.append(carry)
    diff, borrow = [], 0
    for j, bit in enumerate(s):
        if d >> j & 1:
            diff.append(full ^ bit ^ borrow)
            borrow |= full ^ bit
        else:
            diff.append(bit ^ borrow)
            borrow &= full ^ bit
    return [low ^ (borrow & (bit ^ low)) for bit, low in zip(s, diff[:len(a)])]


def _columns(slices: list[int], n_cases: int) -> list[str]:
    """Each slice as a string whose character i is its bit in case i."""
    return [format(s, f"0{n_cases}b")[::-1] for s in slices]


# ----------------------------------------------------------------------
# The proofs
# ----------------------------------------------------------------------

def truth_table(c: Circuit, wires: list[Wire]) -> dict[int, int]:
    """Complete input->output map over a wire subset, all other wires starting at 0.

    Input bit i of the table key corresponds to wires[i]; a wire may appear
    only once.
    """
    if len(wires) > TRUTH_TABLE_WIDTH_LIMIT:
        raise ResourceLimitError(
            f"truth table over {len(wires)} wires exceeds the {TRUTH_TABLE_WIDTH_LIMIT}-wire limit")
    if len(set(wires)) < len(wires):
        raise ValueError(f"truth table repeats wire {next(w for i, w in enumerate(wires) if w in wires[:i])}")
    n_cases = 1 << len(wires)
    positions = [c.table.resolve(w) for w in wires]
    out = _run(compile_permutation(c), c.table.total_width,
               {pos: _counter_slice(n_cases, i) for i, pos in enumerate(positions)}, n_cases)
    if not wires:
        return {0: 0}
    columns = _columns([out[pos] for pos in reversed(positions)], n_cases)
    return {case: int("".join(bits), 2) for case, bits in enumerate(zip(*columns))}


def affine_images(c: Circuit, wires: list[int]) -> list[int]:
    """Output slice of every wire, indexed by offset, over 1 + len(wires)
    cases: case 0 starts every wire at 0, and case 1+i sets wires[i] alone.

    An X/CX circuit is affine over GF(2) (Patel, Markov and Hayes,
    quant-ph/0302002): with img_k its output in case k, it maps an input x
    over these wires to img_0 xor the XOR of (img_1+i xor img_0) over the
    set bits i of x.  So these cases decide it against an affine
    specification on all 2^len(wires) inputs.  Any other gate, an offset
    outside the table and a repeated offset are refused before simulating.
    """
    for kind, controls, _ in c.signature_histogram():
        if kind != "X" and (kind != "MCX" or len(controls) != 1):
            gate_class = f"C{len(controls)}X" if kind == "MCX" else kind
            raise UnsupportedGateError(f"affine proof takes X and CX circuits only, not {gate_class}")
    width = c.table.total_width
    outside = [o for o in wires if type(o) is not int or not 0 <= o < width]  # True and 1.0 equal 1
    if outside:
        raise ResolutionError(f"offset {outside[0]!r} lies outside the table's {width} wires")
    if len(set(wires)) < len(wires):
        raise ValueError(f"affine images repeat offset {next(o for i, o in enumerate(wires) if o in wires[:i])}")
    return _run(compile_permutation(c), width, {o: 2 << i for i, o in enumerate(wires)}, len(wires) + 1)


@dataclass
class VerificationReport:
    d: int
    total_cases: int = 0
    failures: list[tuple[int, int, int, int]] = field(default_factory=list)  # (A, B, expected, got)
    ancilla_dirty_cases: int = 0
    elapsed_s: float = 0.0

    @property
    def verified(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.verified else f"FAIL ({len(self.failures)} failures)"
        lines = [
            f"verify d={self.d}: {self.total_cases - len(self.failures)}/{self.total_cases} cases pass -> {status}",
            f"  ancillas dirty after run: {self.ancilla_dirty_cases}/{self.total_cases} cases",
            f"  elapsed: {self.elapsed_s:.3f}s",
        ]
        for a, b, want, got in self.failures[:10]:
            lines.append(f"  A={a} B={b}: expected {want}, got {got}")
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


# Cases per simulation block of verify_sum.  It bounds the slices every wire
# holds at once; every d <= 257 (d^2 <= 66,049 cases) runs as one block.
_CASES_PER_BLOCK = 1 << 17


def verify_sum(d: int, c: Circuit) -> VerificationReport:
    """Exhaustively check B' = (A+B) mod d with A unchanged over all d^2 input pairs.

    Ancillas start at 0; their final values are recorded but not asserted.
    Failures are sorted by (A, B); got is -1 where A was corrupted.  The
    cases are simulated in blocks of consecutive A values.  A d that register
    A cannot hold, or below 2, is refused before any simulation.
    """
    start = time.perf_counter()
    table = c.table
    k = table["A"].width
    if not 2 <= d <= 1 << k:
        raise InvalidDimensionError(f"d={d} must lie in [2, {1 << k}] for a register A of {k} qubits")
    a_pos = [table.offset("A") + j for j in range(k)]
    b_pos = [table.offset("B") + j for j in range(k)]
    ancillas = [table.offset(reg.name) + j for reg in table.registers
                if reg.role in ("carry", "check-if", "work") for j in range(reg.width)]
    compiled = compile_permutation(c)
    patterns = [_counter_slice(d, j) for j in range(k)]  # bit j of b, for b < d
    rows = max(1, _CASES_PER_BLOCK // d)  # A values per block

    failures, dirty = [], 0
    for a0 in range(0, d, rows):
        a1 = min(d, a0 + rows)
        n_cases = (a1 - a0) * d  # case i is (a0 + i // d, i % d)
        a_in = [_counter_slice(a1 * d, j, d) >> (a0 * d) for j in range(k)]
        b_in = [_tile(pattern, d, n_cases) for pattern in patterns]
        want = _add_mod(a_in, b_in, d, (1 << n_cases) - 1)

        out = _run(compiled, table.total_width, dict(zip(a_pos + b_pos, a_in + b_in)), n_cases)
        a_bad = b_bad = block_dirty = 0
        for pos, expect in zip(a_pos, a_in):
            a_bad |= out[pos] ^ expect
        for pos, expect in zip(b_pos, want):
            b_bad |= out[pos] ^ expect
        for pos in ancillas:
            block_dirty |= out[pos]
        dirty += block_dirty.bit_count()

        bad = a_bad | b_bad
        if bad:
            failing, a_col = _columns([bad, a_bad], n_cases)
            b_cols = _columns([out[pos] for pos in reversed(b_pos)], n_cases)
            case = failing.find("1")
            while case >= 0:
                a, b = divmod(case, d)
                a += a0
                got = -1 if a_col[case] == "1" else int("".join(col[case] for col in b_cols), 2)
                failures.append((a, b, (a + b) % d, got))
                case = failing.find("1", case + 1)
    return VerificationReport(d=d, total_cases=d * d, failures=failures, ancilla_dirty_cases=dirty,
                              elapsed_s=time.perf_counter() - start)
