"""Rewrite multi-controlled X gates into the target gate set under three strategies.

Every gate-cost rule lives here and is applied in _class_rule alone; sweeps
and reports only read LoweringReports.  lower_circuit lowers each signature
of a circuit's signature histogram (signature -> indices of its gates) into
one Lowered record, and totals gate count times tally.  A record's values
come from its gate class: the kind, the photons of the controls in control
order, and the strategy.  The rule of a class is a pure function of those
three and is cached, so it runs once per class per process; it is keyed on
photons, never on register names, which mean different photons in different
tables.  rows, gadgets, notes and the report CSV put each record's values at
its indices when read.

* general: arity j >= 3 becomes 4(j-2) Toffolis, each Toffoli costing
  {6 CX, 2 H, 3 Tdag, 5 T}; arity 2 is one Toffoli; arity 1 is a CX.
  This pure cost model (no work-qubit bookkeeping) is what reports charge.
  explicit_general_circuit, the construction the semantic checks simulate,
  is cheaper: its Toffoli has 4 T, and its C3X is 3 Toffolis, not 4.
* ralph: arity j costs 2j-1 two-qubit gates plus one j-dimensional qudit
  ancilla.  The two-qubit gates are tallied 1:1 as CX equivalents; the
  companion single-qudit helper gates are counted as free, so the totals
  are a lower bound (a note to that effect is attached to every report).
* multiplexed: controls sharing a photon collapse behind optical switches;
  a gadget routing s controls costs os-cost-per-control * s switches.  All
  j controls on one photon -> one CX, routing j.  j-1 controls on one photon
  plus one elsewhere -> one Toffoli tally routing j-1 (collapse_inner_c2x:
  one CX routing j).  A two-photon split with one control on each (the adder
  Toffolis) falls back to the general Toffoli tally, as do three or more photons.
  A class's GadgetDescriptor names its controls by position in control order.

OS counts never enter CX totals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

from . import circuit as ir
from .circuit import CostBreakdown, Circuit
from .errors import LoweringError

GENERAL = "general"
RALPH = "ralph"
MULTIPLEXED = "multiplexed"
STRATEGY_NAMES = (GENERAL, RALPH, MULTIPLEXED)

# Per-Toffoli tally in the target gate set.
TOFFOLI_TALLY = {"C1X": 6, "H": 2, "Tdag": 3, "T": 5}

RALPH_NOTE = (
    "two-qubit totals counted 1:1 against CX; companion single-qudit gates are treated as free,"
    " so these totals are a lower bound"
)


@dataclass(frozen=True)
class Strategy:
    name: str
    os_cost_per_control: int = 2
    collapse_inner_c2x: bool = False  # non-default variant; excluded from comparison reports

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {self.name!r}")
        if self.os_cost_per_control < 1:
            raise ValueError("os-cost-per-control must be >= 1")


def general() -> Strategy:
    return Strategy(GENERAL)


def ralph() -> Strategy:
    return Strategy(RALPH)


def multiplexed(os_cost_per_control: int = 2, collapse_inner_c2x: bool = False) -> Strategy:
    return Strategy(MULTIPLEXED, os_cost_per_control, collapse_inner_c2x)


@dataclass(frozen=True)
class GadgetDescriptor:
    """Optical-switch gadget realizing a collapsed multi-controlled gate.

    The switch stages isolate the unique time-bin component on which every
    collapsed control matches its polarity, apply the inner gate to that
    component, and restore the single spatial mode.  collapsed holds the
    positions, in control order, of the controls on the routed photon, and
    residual those of the rest, so gate.controls[i] is the control at i.
    """

    arity: int
    routed_photon: int
    stages_in: int
    stages_out: int
    inner: str  # "CX" | "C2X"
    os_count: int
    collapsed: tuple[int, ...] = ()
    residual: tuple[int, ...] = ()


def _general_tally(j: int) -> CostBreakdown:
    if j == 1:
        return CostBreakdown({"C1X": 1})
    n_toffoli = 1 if j == 2 else 4 * (j - 2)
    return CostBreakdown({key: n_toffoli * v for key, v in TOFFOLI_TALLY.items()})


def _ralph_tally(j: int) -> tuple[CostBreakdown, int | None]:
    if j == 1:
        return CostBreakdown({"C1X": 1}), None
    return CostBreakdown({"C1X": 2 * j - 1}), j


# Tally of the gate a gadget applies to the satisfying time-bin component.
_INNER_TALLY = {"CX": {"C1X": 1}, "C2X": TOFFOLI_TALLY}


def _collapse(j: int, sizes: dict[int, int], strategy: Strategy) -> tuple[int, int, str, CostBreakdown] | None:
    """(routed photon, controls routed, inner gate, tally) of the switch gadget
    for an MCX of arity j whose controls number sizes[p] on photon p, or None
    when the pattern falls back to the general tally."""
    groups = sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(groups) == 1:
        routed, inner = j, "CX"
    elif len(groups) == 2 and groups[0][1] == j - 1 and j >= 3:
        if strategy.collapse_inner_c2x:
            routed, inner = j, "CX"  # the residual control is routed too
        else:
            routed, inner = j - 1, "C2X"
    else:
        return None
    # The switch-gadget rule: routing s controls takes s OS stages in, s
    # stages out and os_cost_per_control * s switches.
    tally = CostBreakdown({**_INNER_TALLY[inner], "OS": strategy.os_cost_per_control * routed})
    return groups[0][0], routed, inner, tally


class Lowered(NamedTuple):
    """One signature lowered by its strategy's rule."""

    indices: tuple[int, ...]          # its gates, in gate order
    tally: CostBreakdown              # of one gate
    columns: tuple                    # report columns between the gate index and the fallback flag
    fallback: bool
    qudit_dim: int | None             # ralph qudit-ancilla dimension
    gadget: GadgetDescriptor | None   # the switch gadget it collapses into, of any arity
    note: str | None                  # why it fell back, when that needs saying


@dataclass
class LoweringReport:
    """One circuit lowered under one strategy.

    signatures maps each signature of the circuit's histogram to its Lowered
    record, and total is each record's tally times its gate count; both come
    from lower_circuit.  rows, gadgets, notes and report_csv put each record's
    values at its gate indices, in gate order, when they are read.
    """

    strategy: Strategy
    total: CostBreakdown = field(default_factory=CostBreakdown)
    signatures: dict[tuple, Lowered] = field(default_factory=dict)

    @property
    def cx_total(self) -> int:
        return self.total["C1X"]

    @property
    def os_total(self) -> int:
        return self.total["OS"]

    def _gate_values(self, value=None) -> list:
        """value(record), or the record itself, at each of the record's gate
        indices: one entry per gate, in gate order."""
        values = [None] * sum(len(lowered.indices) for lowered in self.signatures.values())
        for lowered in self.signatures.values():
            v = lowered if value is None else value(lowered)
            for i in lowered.indices:
                values[i] = v
        return values

    @property
    def rows(self) -> list[Lowered]:
        """Each gate's Lowered record, in gate order."""
        return self._gate_values()

    @property
    def gadgets(self) -> list[tuple[int, GadgetDescriptor]]:
        """(gate index, gadget) of each gate whose class collapses into a
        switch gadget of arity >= 2, in gate order."""
        return sorted((i, lowered.gadget) for lowered in self.signatures.values()
                      if lowered.gadget and lowered.gadget.arity >= 2 for i in lowered.indices)

    @property
    def notes(self) -> list[str]:
        """One note per gate that fell back with a note, in gate order, then
        RALPH_NOTE if any gate takes a qudit ancilla."""
        noted = sorted((i, lowered.note) for lowered in self.signatures.values() if lowered.note
                       for i in lowered.indices)  # walks only the gates whose record has a note
        notes = [f"gate {i}: {note}" for i, note in noted]
        if any(lowered.qudit_dim is not None for lowered in self.signatures.values()):
            notes.append(RALPH_NOTE)
        return notes


_PASSTHROUGH = ("X", "H", "T", "Tdag")


@cache
def _class_rule(kind: str, photons: tuple[int, ...], strategy: Strategy) -> tuple[tuple, tuple]:
    """(tally, columns, fallback, qudit_dim, gadget, note) of every gate of
    this kind whose controls sit on these photons, in control order, under the
    strategy, and the tally's items; the photons fix the arity and the photon
    partition, so the rule reads nothing else."""
    qudit_dim, gadget, note, fallback, j = None, None, None, False, len(photons)
    if kind in _PASSTHROUGH:
        tally, text = CostBreakdown({kind: 1}), "-"
    else:
        sizes = Counter(photons)  # photon -> its controls
        text = "+".join(f"{p}:{n}" for p, n in sorted(sizes.items()))
        if strategy.name == GENERAL:
            tally = _general_tally(j)
        elif strategy.name == RALPH:
            tally, qudit_dim = _ralph_tally(j)
        else:
            rule = _collapse(j, sizes, strategy)
            if rule is None:
                tally, fallback = _general_tally(j), True
            else:
                routed_photon, routed, inner, tally = rule
                gadget = GadgetDescriptor(
                    j, routed_photon, routed, routed, inner, tally["OS"],
                    collapsed=tuple(i for i, p in enumerate(photons) if p == routed_photon),
                    residual=tuple(i for i, p in enumerate(photons) if p != routed_photon))
            if len(sizes) >= 3:
                note = f"controls span {len(sizes)} photons; fell back to the general tally"
    columns = (kind, j, text, strategy.name, tally["C1X"], tally["H"], tally["T"], tally["Tdag"], tally["OS"])
    return (tally, columns, fallback, qudit_dim, gadget, note), tuple(tally.as_dict().items())


def lower_circuit(c: Circuit, strategy: Strategy) -> LoweringReport:
    """Lower every gate of a circuit; raises LoweringError on a gate that must be expanded first."""
    # A gate's kind and the photons of its controls fix its cost, so each
    # signature takes its record from _class_rule, and no Gate is built.
    photon = {r.name: r.photon for r in c.table.registers}
    signatures, total = {}, {}
    for key, indices in c.signature_histogram().items():
        kind, registers, _ = key
        if kind != "MCX" and kind not in _PASSTHROUGH:
            raise LoweringError(f"gate {indices[0]} ({kind}) must be expanded before lowering")
        rule, items = _class_rule(kind, tuple([photon[name] for name in registers]), strategy)
        signatures[key] = Lowered(indices, *rule)
        for cls, v in items:
            total[cls] = total.get(cls, 0) + len(indices) * v
    return LoweringReport(strategy, CostBreakdown(total), signatures)


REPORT_COLUMNS = ("gate-index", "kind", "arity", "photons", "strategy", "cx", "h", "t", "tdag", "os", "fallback-flag")


def report_csv(report: LoweringReport) -> str:
    """The lowering report CSV: the REPORT_COLUMNS header, then one line per gate.

    The columns after the gate index are rendered once per signature.
    """
    suffixes = report._gate_values(
        lambda lowered: ",".join([*map(str, lowered.columns), str(int(lowered.fallback))]))
    lines = [",".join(REPORT_COLUMNS)] + [f"{i},{suffix}" for i, suffix in enumerate(suffixes)]
    return "\n".join(lines) + "\n"


def report_rows(report: LoweringReport) -> list[list]:
    """Rows for the lowering report CSV, in REPORT_COLUMNS order."""
    return [[i, *lowered.columns, int(lowered.fallback)] for i, lowered in enumerate(report.rows)]


# ----------------------------------------------------------------------
# Explicit construction used by the semantic-preservation checks
# ----------------------------------------------------------------------

def _toffoli_seq(c1, c2, tg):
    """Standard CX/H/T/Tdag realization of one Toffoli (exact, including phases)."""
    return [
        ir.h(tg), ir.cx(c2, tg), ir.tdag(tg), ir.cx(c1, tg), ir.t(tg),
        ir.cx(c2, tg), ir.tdag(tg), ir.cx(c1, tg), ir.t(c2), ir.t(tg),
        ir.h(tg), ir.cx(c1, c2), ir.t(c1), ir.tdag(c2), ir.cx(c1, c2),
    ]


def explicit_general_circuit(arity: int) -> Circuit:
    """CX/H/T/Tdag circuit realizing a positive-control MCX of arity <= 4.

    Arities 3 and 4 use one work qubit (restored to 0); arity 4 additionally
    borrows a control qubit, which is also restored.
    """
    if not 1 <= arity <= 4:
        raise ValueError("explicit construction covers arities 1..4")
    regs = [ir.Register("ctrl", arity, 0, "work"), ir.Register("tgt", 1, 1, "work")]
    if arity >= 3:
        regs.append(ir.Register("work", 1, 2, "work"))
    table = ir.RegisterTable(regs)
    c = [ir.Wire("ctrl", i) for i in range(arity)]
    tg = ir.Wire("tgt", 0)
    if arity == 1:
        gates = [ir.cx(c[0], tg)]
    elif arity == 2:
        gates = _toffoli_seq(c[0], c[1], tg)
    else:
        w = ir.Wire("work", 0)
        if arity == 3:
            toffolis = [(c[0], c[1], w), (w, c[2], tg), (c[0], c[1], w)]
        else:
            toffolis = [
                (c[0], c[1], w),
                (c[0], c[3], tg), (w, c[2], c[0]), (c[0], c[3], tg), (w, c[2], c[0]),
                (c[0], c[1], w),
            ]
        gates = [g for a, b, d in toffolis for g in _toffoli_seq(a, b, d)]
    return Circuit(table, gates, ir.Meta(note=f"explicit C{arity}X"))
