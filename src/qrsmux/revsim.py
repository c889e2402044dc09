"""Exhaustive classical simulation of reversible (permutation) circuits.

Circuits made of X and MCX gates permute computational basis states, so a
state is a single integer bitmask over the register table.  Each gate is
compiled once into a (control-mask, control-value, flip-mask) triple: the
gate fires exactly when the masked state equals the control value, which
encodes positive and zero polarities uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .circuit import Circuit, RegisterTable, Wire, ZERO
from .errors import ResourceLimitError, UnsupportedGateError

TRUTH_TABLE_WIDTH_LIMIT = 24


@dataclass(frozen=True)
class BasisState:
    """Bit assignment per wire, addressed through the circuit's register table."""

    bits: int
    table: RegisterTable

    @classmethod
    def zeros(cls, table) -> "BasisState":
        return cls(0, table)

    @classmethod
    def from_registers(cls, table, **values: int) -> "BasisState":
        bits = 0
        for name, value in values.items():
            reg = table[name]
            if not 0 <= value < (1 << reg.width):
                raise ValueError(f"value {value} does not fit register {name!r} of width {reg.width}")
            bits |= value << table.offset(name)
        return cls(bits, table)

    def register(self, name: str) -> int:
        reg = self.table[name]
        return (self.bits >> self.table.offset(name)) & ((1 << reg.width) - 1)

    def wire(self, w: Wire) -> int:
        return (self.bits >> self.table.resolve(w)) & 1


def compile_permutation(c: Circuit) -> list[tuple[int, int, int]]:
    """(control-mask, control-value, flip-mask) per gate; rejects non-permutation gates."""
    compiled = []
    for i, g in enumerate(c.gates):
        if g.kind == "X":
            compiled.append((0, 0, 1 << c.table.resolve(g.targets[0])))
        elif g.kind == "MCX":
            cmask = cval = 0
            for ctrl in g.controls:
                bit = 1 << c.table.resolve(ctrl.wire)
                cmask |= bit
                if ctrl.pol != ZERO:
                    cval |= bit
            compiled.append((cmask, cval, 1 << c.table.resolve(g.targets[0])))
        else:
            raise UnsupportedGateError(f"gate {i} ({g.kind}) is not a permutation gate")
    return compiled


def run_compiled(compiled: list[tuple[int, int, int]], bits: int) -> int:
    """Apply a compile_permutation result to one basis state given as a bitmask."""
    for cmask, cval, flip in compiled:
        if bits & cmask == cval:
            bits ^= flip
    return bits


def simulate_basis(c: Circuit, s: BasisState) -> BasisState:
    """Apply the circuit to one basis state; MCX flips its target iff every control matches its polarity."""
    return BasisState(run_compiled(compile_permutation(c), s.bits), s.table)


def truth_table(c: Circuit, wires: list[Wire]) -> dict[int, int]:
    """Complete input->output map over a wire subset, all other wires starting at 0.

    Input bit i of the table key corresponds to wires[i].
    """
    if len(wires) > TRUTH_TABLE_WIDTH_LIMIT:
        raise ResourceLimitError(
            f"truth table over {len(wires)} wires exceeds the {TRUTH_TABLE_WIDTH_LIMIT}-wire limit")
    compiled = compile_permutation(c)
    positions = [c.table.resolve(w) for w in wires]
    table = {}
    for assignment in range(1 << len(wires)):
        bits = 0
        for i, pos in enumerate(positions):
            if assignment >> i & 1:
                bits |= 1 << pos
        out_bits = run_compiled(compiled, bits)
        table[assignment] = sum(((out_bits >> pos) & 1) << i for i, pos in enumerate(positions))
    return table


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


def verify_sum(d: int, c: Circuit) -> VerificationReport:
    """Exhaustively check B' = (A+B) mod d with A unchanged over all d^2 input pairs.

    Ancillas start at 0; their final values are recorded but not asserted.
    """
    start = time.perf_counter()
    report = VerificationReport(d=d)
    compiled = compile_permutation(c)
    table = c.table
    a_off, b_off = table.offset("A"), table.offset("B")
    k = table["A"].width
    mask = (1 << k) - 1
    ancilla_mask = 0
    for reg in table.registers:
        if reg.role in ("carry", "check-if", "work"):
            ancilla_mask |= ((1 << reg.width) - 1) << table.offset(reg.name)

    for a in range(d):
        for b in range(d):
            out = run_compiled(compiled, (a << a_off) | (b << b_off))
            got_b = (out >> b_off) & mask
            got_a = (out >> a_off) & mask
            want = (a + b) % d
            report.total_cases += 1
            if got_b != want or got_a != a:
                report.failures.append((a, b, want, got_b if got_a == a else -1))
            if out & ancilla_mask:
                report.ancilla_dirty_cases += 1
    report.failures.sort()
    report.elapsed_s = time.perf_counter() - start
    return report
