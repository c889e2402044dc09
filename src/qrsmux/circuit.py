"""Gate-level intermediate representation.

Registers group qubit wires and carry a photon id (the multiplexing group)
plus a role tag.  Gates are typed records; multi-controlled X gates carry a
per-control polarity ("positive" fires on |1>, "zero" fires on |0>).  Qudit-
level gates (SUM, DFT, CMulAdd) address whole registers: their wires have
``idx`` set to None.

Zero-polarity controls are first-class on MCX so gate-class counts do not
depend on the control pattern.

Trust boundary.  A circuit is built once, by ``Emitter(table)``, and never
changes.  ``Gate`` is a checked tuple of its six fields that carries only
its kind's fields, and ``Emitter.add`` is the one place a ``Gate`` is checked
against a table, for ``Circuit(table, gates)`` and ``parse``.  Every X and
MCX is stored as its record ``(controls, target)`` of plain int offsets,
which the garbage collector need not walk: the controls in gate order, a
zero-polarity one written as ``~offset``, and none for an X.  So a record is
a tuple exactly when its gate is a permutation gate.  ``Emitter.mcx`` and
``extend`` take records past every check, from the synthesizers, whose
offsets lie in the table by construction, and ``parse`` from a document
once it has checked them.

A circuit stores its records, a tuple no caller can change, and their
signature histogram.  ``Circuit.gates`` is a tuple view built from the
records on first read; all else, the simulator included, reads the records
and builds no ``Gate``.  A wire is checked in one place,
``RegisterTable.resolve``, and an X or MCX ``Gate`` becomes a record in one
place, ``record_of``.  Tests rebuild every emitted or parsed gate through
the checked path and compare.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_right
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, NamedTuple

from .errors import InvalidGateError, ParseError, ResolutionError

ROLES = ("data-A", "data-B", "carry", "check-if", "gf-message", "gf-code", "work")

POSITIVE = "positive"
ZERO = "zero"
POLARITIES = (POSITIVE, ZERO)

GATE_KINDS = ("X", "H", "T", "Tdag", "MCX", "SUM", "DFT", "CMulAdd", "OS")
_SINGLE_QUBIT = ("X", "H", "T", "Tdag", "OS")


class Wire(NamedTuple):
    reg: str
    idx: int | None = None  # None addresses the whole register (qudit-level gates)


class Control(NamedTuple):
    wire: Wire
    pol: str = POSITIVE


@dataclass(frozen=True)
class Register:
    name: str
    width: int
    photon: int
    role: str

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"register {self.name!r} must have width >= 1")
        if self.role not in ROLES:
            raise ValueError(f"unknown register role {self.role!r}")


class RegisterTable:
    """Ordered set of registers with wire resolution to global bit offsets."""

    def __init__(self, registers: Iterable[Register]):
        self.registers: tuple[Register, ...] = tuple(registers)
        self._by_name: dict[str, Register] = {}
        offset = 0
        self._offsets: dict[str, int] = {}
        for r in self.registers:
            if r.name in self._by_name:
                raise ValueError(f"duplicate register name {r.name!r}")
            self._by_name[r.name] = r
            self._offsets[r.name] = offset
            offset += r.width
        self.total_width = offset

    def __getitem__(self, name: str) -> Register:
        try:
            return self._by_name[name]
        except KeyError:
            raise ResolutionError(f"unknown register {name!r}") from None

    def offset(self, name: str) -> int:
        """Global bit offset of a register's qubit 0."""
        self[name]  # unknown names raise ResolutionError
        return self._offsets[name]

    def resolve(self, wire: Wire) -> int:
        """Global bit offset of a qubit-level wire."""
        reg, idx = self[wire.reg], wire.idx
        if idx is None:
            raise ResolutionError(f"wire {wire} addresses a whole register, not a qubit")
        if type(idx) is not int:  # True and 1.0 equal 1, but serialize apart
            raise ResolutionError(f"index {idx!r} for register {wire.reg!r} is not an int")
        if not 0 <= idx < reg.width:
            raise ResolutionError(f"index {idx} out of range for register {wire.reg!r} of width {reg.width}")
        return self._offsets[wire.reg] + idx

    def __eq__(self, other):
        return isinstance(other, RegisterTable) and self.registers == other.registers


class _GateFields(NamedTuple):
    kind: str
    controls: tuple[Control, ...] = ()
    targets: tuple[Wire, ...] = ()
    d: int | None = None       # qudit dimension for SUM/DFT
    n: int | None = None       # multiplier exponent for CMulAdd
    poly: int | None = None    # primitive polynomial for CMulAdd (None = default)


class Gate(_GateFields):
    """Typed gate record, a tuple of its six fields, d only on SUM and DFT, n
    and poly only on CMulAdd; structural invariants are enforced at
    construction, by ``Gate(...)``, ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, kind: str, controls: tuple[Control, ...] = (), targets: tuple[Wire, ...] = (),
                d: int | None = None, n: int | None = None, poly: int | None = None):
        if kind not in GATE_KINDS:
            raise InvalidGateError(f"unknown gate kind {kind!r}")
        # One loop over the controls.  Faults are reported in a fixed order: a
        # reused wire, the first control with a bad polarity, the shape, then
        # a field the kind does not take.
        wires, fault, qubit_controls = set(targets), None, 0
        for c in controls:
            wires.add(c.wire)
            if c.pol != POSITIVE and fault is None:
                if c.pol not in POLARITIES:
                    fault = f"unknown polarity {c.pol!r}"
                elif kind != "MCX":
                    fault = f"zero-polarity control is only permitted on MCX, not {kind}"
            if c.wire.idx is not None:
                qubit_controls += 1
        if len(wires) != len(controls) + len(targets):
            raise InvalidGateError(
                f"{kind} gate reuses a wire: {[c.wire for c in controls] + list(targets)}")
        if fault is not None:
            raise InvalidGateError(fault)
        if kind == "MCX":
            if not controls or len(targets) != 1:
                raise InvalidGateError("MCX takes >= 1 control and exactly one target")
            if qubit_controls != len(controls) or targets[0].idx is None:
                raise InvalidGateError("MCX wires must be single qubits")
        elif kind in _SINGLE_QUBIT:
            if controls or len(targets) != 1:
                raise InvalidGateError(f"{kind} takes no controls and exactly one target")
            if targets[0].idx is None:
                raise InvalidGateError(f"{kind} target must be a single qubit wire")
        else:  # SUM, DFT, CMulAdd
            n_ctrl = 1 if kind in ("SUM", "CMulAdd") else 0
            if len(controls) != n_ctrl or len(targets) != 1:
                raise InvalidGateError(f"{kind} takes {n_ctrl} control register and one target register")
            if qubit_controls or targets[0].idx is not None:
                raise InvalidGateError(f"{kind} addresses whole registers (idx must be None)")
            if kind in ("SUM", "DFT") and d is None:
                raise InvalidGateError(f"{kind} requires the qudit dimension d")
            if kind == "CMulAdd" and n is None:
                raise InvalidGateError("CMulAdd requires the multiplier exponent n")
        for name, value, kinds in (("d", d, ("SUM", "DFT")), ("n", n, ("CMulAdd",)), ("poly", poly, ("CMulAdd",))):
            if value is not None and kind not in kinds:
                raise InvalidGateError(f"{kind} takes no {name}")
        return tuple.__new__(cls, (kind, controls, targets, d, n, poly))

    @classmethod
    def _make(cls, iterable) -> "Gate":
        """Gate(*iterable); ``_replace`` builds its result through this, so
        neither can skip the checks."""
        return cls(*iterable)

    @property
    def arity(self) -> int:
        return len(self.controls)


# -- gate constructors -------------------------------------------------

def x(w: Wire) -> Gate:
    return Gate("X", targets=(w,))


def h(w: Wire) -> Gate:
    return Gate("H", targets=(w,))


def t(w: Wire) -> Gate:
    return Gate("T", targets=(w,))


def tdag(w: Wire) -> Gate:
    return Gate("Tdag", targets=(w,))


def cx(control: Wire, target: Wire) -> Gate:
    return Gate("MCX", controls=(Control(control),), targets=(target,))


def toffoli(c1: Wire, c2: Wire, target: Wire) -> Gate:
    return Gate("MCX", controls=(Control(c1), Control(c2)), targets=(target,))


def mcx(controls: Iterable[Control | Wire], target: Wire) -> Gate:
    ctr = tuple(c if isinstance(c, Control) else Control(c) for c in controls)
    return Gate("MCX", controls=ctr, targets=(target,))


def sum_gate(control_reg: str, target_reg: str, d: int) -> Gate:
    return Gate("SUM", controls=(Control(Wire(control_reg)),), targets=(Wire(target_reg),), d=d)


def dft(target_reg: str, d: int) -> Gate:
    return Gate("DFT", targets=(Wire(target_reg),), d=d)


def cmuladd(control_reg: str, target_reg: str, n: int, poly: int | None = None) -> Gate:
    return Gate("CMulAdd", controls=(Control(Wire(control_reg)),), targets=(Wire(target_reg),), n=n, poly=poly)


def signature(g: Gate) -> tuple:
    """(kind, control register names, target register name).  The kind and
    control registers fix a gate's class and lowering cost; the target
    register tells the phases of a circuit apart."""
    return g.kind, tuple([ct.wire.reg for ct in g.controls]), g.targets[0].reg


# ----------------------------------------------------------------------
# Cost breakdowns
# ----------------------------------------------------------------------

class CostBreakdown:
    """Exact integer tally keyed by gate class ("C{j}X", "X", "H", "T", "Tdag",
    "OS", "SUM", "DFT", "CMulAdd"); addition is componentwise."""

    def __init__(self, counts: dict[str, int] | None = None):
        self._counts: Counter[str] = Counter()
        if counts:
            for key, value in counts.items():
                if value < 0:
                    raise ValueError(f"negative count for {key}: {value}")
                if value:
                    self._counts[key] += value

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        merged = Counter(self._counts)
        merged.update(other._counts)
        out = CostBreakdown()
        out._counts = merged
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CostBreakdown):
            return NotImplemented
        return self._counts == other._counts  # no constructor stores a zero count

    def __bool__(self) -> bool:
        return bool(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def restrict(self, keys: Iterable[str]) -> "CostBreakdown":
        wanted = set(keys)
        return CostBreakdown({k: v for k, v in self._counts.items() if k in wanted})

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self._counts.items(), key=_class_sort_key))

    def __repr__(self) -> str:
        return f"CostBreakdown({self.as_dict()})"


def _class_sort_key(item):
    key = item[0]
    if key.startswith("C") and key.endswith("X") and key[1:-1].isdigit():
        return (0, -int(key[1:-1]))
    order = {"X": 1, "H": 2, "T": 3, "Tdag": 4, "SUM": 5, "DFT": 6, "CMulAdd": 7, "OS": 8}
    return (order.get(key, 9), 0)


# ----------------------------------------------------------------------
# Circuits
# ----------------------------------------------------------------------

def _check_in_table(g: Gate, table: RegisterTable) -> None:
    """Raise unless every wire of g lies in the table, a qubit wire as
    ``table.resolve`` checks it, and a SUM or CMulAdd joins registers of equal
    width."""
    for w in [c.wire for c in g.controls] + list(g.targets):
        if w.idx is None:
            table[w.reg]  # raises on an unknown register
        else:
            table.resolve(w)
    if g.kind in ("SUM", "CMulAdd"):
        cw = table[g.controls[0].wire.reg].width
        tw = table[g.targets[0].reg].width
        if cw != tw:
            raise InvalidGateError(
                f"{g.kind} needs equal-width registers, got {cw} and {tw}")


@dataclass(frozen=True)
class Meta:
    d: int | None = None
    strategy: str = ""
    note: str = ""


# Bare construction and attribute setting, past Circuit.__new__ and its
# immutability guard: for _circuit and the gates view built on first read.
_new, _set = object.__new__, object.__setattr__


class Circuit:
    """Gates on a register table.  The constructor checks each gate against the
    table through ``Emitter(table)`` and returns its circuit, which never changes.

    ``records`` holds one entry per gate: an X or MCX as its ``(controls,
    target)`` record (see the module docstring), any other gate as its
    ``Gate``.  ``gates`` is built from it on first read and kept.
    """

    __slots__ = ("table", "meta", "records", "_gates", "_histogram")

    def __new__(cls, table: RegisterTable, gates: Iterable[Gate] = (), meta: Meta = Meta()):
        em = Emitter(table)
        for g in gates:
            em.add(g)
        return em.circuit(meta)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        # on one table, records are equal exactly when the gates are
        return (self.table, self.records, self.meta) == (other.table, other.records, other.meta)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Circuit(table={self.table!r}, gates={self.gates!r}, meta={self.meta!r})"

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in order; built from the records on first read and kept."""
        if self._gates is None:
            _set(self, "_gates", _collector_paused(_gates_of, self.table, self.records))
        return self._gates

    def signature_histogram(self) -> dict[tuple, tuple[int, ...]]:
        """signature(g) -> indices of its gates, in order of first use; every
        constructor hands it over with the records."""
        return self._histogram

    def count(self) -> CostBreakdown:
        """Tally by gate class: MCX by control arity ("C{j}X"), other gates by kind."""
        tally: Counter[str] = Counter()
        for (kind, controls, _), indices in self.signature_histogram().items():
            tally[f"C{len(controls)}X" if kind == "MCX" else kind] += len(indices)
        return CostBreakdown(tally)

    def without_gate(self, index: int) -> "Circuit":
        """Copy of the circuit with one gate removed (mutation testing); its
        histogram is this one's less that index, later indices one lower."""
        records = self.records
        if not 0 <= index < len(records):
            raise IndexError(f"gate index {index} out of range (circuit has {len(records)} gates)")
        shifted = [(sig, tuple([j - (j > index) for j in indices if j != index]))
                   for sig, indices in self._histogram.items()]
        # a signature whose first gate was the removed one may now come later in use order
        histogram = dict(sorted([kv for kv in shifted if kv[1]], key=lambda kv: kv[1][0]))
        return _circuit(self.table, self.meta, records[:index] + records[index + 1:], histogram)

    def __len__(self) -> int:
        return len(self.records)


def _circuit(table: RegisterTable, meta: Meta, records: tuple, histogram: dict) -> Circuit:
    """A circuit of records and their histogram as built, by an Emitter or
    by without_gate from its parent's, without the checks of Circuit(...)."""
    c = _new(Circuit)
    for name, value in (("table", table), ("meta", meta), ("records", records), ("_gates", None),
                        ("_histogram", histogram)):
        _set(c, name, value)
    return c


class _Names(dict):
    """The register name of each signed offset, ~o for wire o, built on first
    lookup so it holds only the offsets a circuit uses; KeyError off the table."""

    def __init__(self, table: RegisterTable):
        self.table = table
        self.starts = [table.offset(r.name) for r in table.registers]

    def __missing__(self, o: int) -> str:
        wire = o if o >= 0 else ~o
        if not 0 <= wire < self.table.total_width:
            raise KeyError(o)
        name = self[o] = self.table.registers[bisect_right(self.starts, wire) - 1].name
        return name


def _collector_paused(build, *args):
    """build(*args) with the cyclic garbage collector paused, then left on or off as it was."""
    # parse and the gates view make a container or more per gate, none of them
    # garbage until they return; left on, the collector walks them again and
    # again as they pile up.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(*args)
    finally:
        if enabled:
            gc.enable()


def _gates_of(table: RegisterTable, records: tuple) -> tuple[Gate, ...]:
    names = _Names(table)
    controls = {o: Control(Wire(names[o], (o if o >= 0 else ~o) - table.offset(names[o])), POSITIVE if o >= 0 else ZERO)
                for o in {o for r in records if type(r) is tuple for o in (*r[0], r[1])}}
    # a record was checked when it was built, so its Gate skips the checks of Gate(...)
    return tuple([r if type(r) is not tuple else
                  tuple.__new__(Gate, ("MCX" if r[0] else "X", tuple(map(controls.__getitem__, r[0])),
                                       (controls[r[1]].wire,), None, None, None))
                  for r in records])


def record_of(table: RegisterTable, g: Gate) -> tuple[tuple[int, ...], int]:
    """The (signed controls, target) record of an X or MCX gate, each wire
    resolved through ``table.resolve``; an X has no controls."""
    resolve = table.resolve
    return (tuple([resolve(w) if pol == POSITIVE else ~resolve(w) for w, pol in g.controls]),
            resolve(g.targets[0]))


class Emitter:
    """The one builder of a circuit on a table.  ``add`` checks a Gate against
    the table and emits it.  ``mcx`` and ``extend`` append ``(controls,
    target)`` records past every check, an X as ``mcx((), target)``; parse
    appends the records it has checked to ``records`` and ``_groups`` itself.
    The table is the only source of a signature: each record's index is kept
    under its kind, the registers of its controls and that of its target as
    it is emitted, so the circuit gets its histogram without a walk.
    """

    __slots__ = ("table", "records", "_groups", "_names")

    def __init__(self, table: RegisterTable):
        self.table = table
        self.records: list = []
        self._groups: dict[tuple, list[int]] = {}  # signature -> indices of its gates, in order of first use
        self._names = _Names(table)

    def _indices(self, controls: tuple[int, ...], target: int) -> list[int]:
        """The index list of the signature of MCX(controls -> target), or X(target)."""
        names = self._names
        key = "MCX" if controls else "X", tuple([names[o] for o in controls]), names[target]
        return self._groups.setdefault(key, [])

    def mcx(self, controls: tuple[int, ...], target: int) -> None:
        """Emit MCX(controls -> target) unchecked; an X has no controls."""
        self._indices(controls, target).append(len(self.records))
        self.records.append((controls, target))

    def extend(self, records: list[tuple[tuple[int, ...], int]]) -> None:
        """Emit each (controls, target) record unchecked, in order, keyed under
        the first's signature, which the caller vouches they share."""
        if records:
            self._indices(*records[0]).extend(range(len(self.records), len(self.records) + len(records)))
            self.records += records

    def add(self, g: Gate) -> None:
        """Check g against the table and emit it: an X or MCX as its record,
        whose wires record_of resolves, through mcx; any other gate as itself,
        keyed by its signature, once _check_in_table passes it."""
        if g.kind in ("X", "MCX"):
            self.mcx(*record_of(self.table, g))
            return
        _check_in_table(g, self.table)
        self._groups.setdefault(signature(g), []).append(len(self.records))
        self.records.append(g)

    def include(self, c: Circuit) -> None:
        """Emit c's records, keyed by c's histogram shifted past the records
        before them; c's table must be a prefix of the emitter's."""
        if c.table.registers != self.table.registers[:len(c.table.registers)]:
            raise ValueError("the circuit's register table is not a prefix of the emitter's")
        start = len(self.records)
        self.records += c.records
        for sig, indices in c.signature_histogram().items():
            self._groups.setdefault(sig, []).extend(map(start.__add__, indices))

    def circuit(self, meta: Meta) -> Circuit:
        """A copy of the emitted records as a circuit, unchecked, with their
        histogram in order of first use; later records do not reach it."""
        return _circuit(self.table, meta, tuple(self.records),
                        {sig: tuple(indices) for sig, indices in self._groups.items()})


# ----------------------------------------------------------------------
# Interchange document (JSON-shaped structured text)
# ----------------------------------------------------------------------

_FORMAT = 2  # the "format" serialize writes; a document without one is read in the named layout


def serialize(c: Circuit) -> str:
    """Interchange document for a circuit, one gate per line; parse() inverts
    it losslessly.  An X or MCX record is written as ``[controls, target]``,
    its signed offsets (see the module docstring), any other gate as an object."""
    lines = []
    for g in c.records:
        if type(g) is tuple:
            lines.append(f"[{list(g[0])}, {g[1]}]")  # a list of ints prints as its JSON text
            continue
        entry = {"kind": g.kind, **{key: value for key, value in (("d", g.d), ("n", g.n), ("poly", g.poly))
                                    if value is not None},
                 "controls": [{"reg": w.reg, "idx": w.idx, "pol": pol} for w, pol in g.controls],
                 "targets": [{"reg": w.reg, "idx": w.idx} for w in g.targets]}
        lines.append(json.dumps(entry))
    registers = json.dumps([{"name": r.name, "width": r.width, "photon": r.photon, "role": r.role}
                            for r in c.table.registers])
    meta = json.dumps({"d": c.meta.d, "strategy": c.meta.strategy, "note": c.meta.note})
    gates = ",\n".join(lines)
    return f'{{"format": {_FORMAT},\n"registers": {registers},\n"gates": [\n{gates}\n],\n"meta": {meta}}}\n'


_MISSING = object()
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, path: str):
    """value, if it is the JSON object, list or string that kind names."""
    if not isinstance(value, kind):
        raise ParseError(f"{path}: expected {_JSON_TYPES[kind]}, got {value!r:.40}")
    return value


def _field(obj: dict, key: str, path: str, kind: type = object, default=_MISSING):
    """obj[key], type-checked when kind is dict, list or str; default if missing."""
    value = obj.get(key, default)
    if value is _MISSING:
        raise ParseError(f"{path}: missing field {key!r}")
    return _typed(value, kind, f"{path}.{key}")


def _integer(obj: dict, key: str, path: str, minimum: int, optional: bool = False) -> int | None:
    """obj[key], if it is an integer >= minimum; an optional one may be missing or null."""
    value = obj.get(key) if optional else _field(obj, key, path)
    if value is None and optional:
        return None
    if type(value) is not int or value < minimum:  # JSON true/false arrive as bool
        raise ParseError(f"{path}.{key}: expected an integer >= {minimum}, got {value!r:.40}")
    return value


def _wire(wd, i: int, role: str, j: int) -> Wire:
    """The wire of entry gates[i].<role>[j]."""
    path = f"gates[{i}].{role}[{j}]"
    wd = _typed(wd, dict, path)
    return Wire(_field(wd, "reg", path, str), _integer(wd, "idx", path, 0, optional=True))


def _control(cd, i: int, j: int) -> Control:
    wire = _wire(cd, i, "controls", j)
    pol = cd.get("pol", POSITIVE)
    if pol not in POLARITIES:
        raise ParseError(f"gates[{i}].controls[{j}]: unknown polarity {pol!r}")
    return Control(wire, pol)


def parse(document: str) -> Circuit:
    """Rebuild a circuit, with its signature histogram, from its interchange
    document: decode it whole, then check its registers, meta and each gate
    entry in order, emitting each into an ``Emitter`` as it is read.  The first
    fault raises ParseError naming its field, such as ``gates[12][0][1]``.
    Only a document of "format" 2 may hold ``[controls, target]`` entries; an
    entry without controls is an X, as is an X object entry."""
    # The decoded document holds two lists per X or MCX record: with the collector
    # on, json.loads of the m = 8 expansion's document takes about three times as long.
    return _collector_paused(_read, document)


def _read(document) -> Circuit:
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # integer too long, nesting too deep
        raise ParseError(f"document: {e}") from None
    records_form = "format" in _typed(doc, dict, "document")
    if records_form and (type(doc["format"]) is not int or doc["format"] != _FORMAT):
        raise ParseError(f"document.format: expected {_FORMAT}, got {doc['format']!r:.40}")
    registers = []
    for i, rd in enumerate(_field(doc, "registers", "document", list)):
        path = f"registers[{i}]"
        rd = _typed(rd, dict, path)
        try:
            registers.append(Register(
                name=_field(rd, "name", path, str),
                width=_integer(rd, "width", path, 1),
                photon=_integer(rd, "photon", path, 0),
                role=_field(rd, "role", path),
            ))
        except ValueError as e:
            raise ParseError(f"{path}: {e}") from None
    try:
        table = RegisterTable(registers)
    except ValueError as e:
        raise ParseError(f"registers: {e}") from None

    md = _field(doc, "meta", "document", dict, {})
    meta = Meta(
        d=_integer(md, "d", "meta", 2, optional=True),
        strategy=_field(md, "strategy", "meta", str, ""),
        note=_field(md, "note", "meta", str, ""),
    )
    em = Emitter(table)
    # records entries skip Emitter.mcx: its call per entry would slow parse by a third
    names, records, groups = em._names, em.records, em._groups
    for i, entry in enumerate(_field(doc, "gates", "document", list)):
        if type(entry) is list and records_form:
            key = None
            try:  # ValueError: not two items; KeyError: an offset outside the registers
                controls, target = entry
                if type(controls) is list and type(target) is int and target >= 0:
                    if len(controls) == 1:
                        c = controls[0]
                        if type(c) is int and c != target != ~c:
                            record = (c,), target
                            key = "MCX", (names[c],), names[target]
                    else:
                        # a control that is not an int, or shares a wire, leaves wires short
                        wires = {c if c >= 0 else ~c for c in controls if type(c) is int}
                        if len(wires) == len(controls) and target not in wires:
                            record = tuple(controls), target
                            key = "MCX" if controls else "X", tuple(map(names.__getitem__, record[0])), names[target]
            except (ValueError, KeyError):
                pass
            if key is None:
                raise _record_fault(entry, i, table.total_width)
            records.append(record)
            groups.setdefault(key, []).append(i)
        else:
            _named_entry(em, entry, i)
    return em.circuit(meta)


def _record_fault(entry: list, i: int, n: int) -> ParseError:
    """The first fault of [controls, target] entry gates[i] on n wires."""
    if len(entry) != 2:
        return ParseError(f"gates[{i}]: expected [controls, target], got {entry!r:.40}")
    if not isinstance(entry[0], list):
        return ParseError(f"gates[{i}][0]: expected a list of controls, got {entry[0]!r:.40}")
    wires = set()
    for where, o, low in [*((f"[0][{j}]", c, -n) for j, c in enumerate(entry[0])), ("[1]", entry[1], 0)]:
        if type(o) is not int or not low <= o < n:
            return ParseError(f"gates[{i}]{where}: expected an integer from {low} to {n - 1}, got {o!r:.40}")
        if (o if o >= 0 else ~o) in wires:
            return ParseError(f"gates[{i}]{where}: reuses wire {o if o >= 0 else ~o}")
        wires.add(o if o >= 0 else ~o)


def _named_entry(em: Emitter, gd, i: int) -> None:
    """Emit object entry gates[i] through its field checks, ``Gate(...)`` and
    ``em.add``, which checks it against the table as ``Circuit(...)`` does."""
    path = f"gates[{i}]"
    gd = _typed(gd, dict, path)
    kind = _field(gd, "kind", path)
    controls = tuple([_control(cd, i, j) for j, cd in enumerate(_field(gd, "controls", path, list, []))])
    targets = tuple([_wire(td, i, "targets", j) for j, td in enumerate(_field(gd, "targets", path, list, []))])
    d = _integer(gd, "d", path, 2, optional=True)
    n = _integer(gd, "n", path, 0, optional=True)
    poly = _integer(gd, "poly", path, 0, optional=True)
    try:
        em.add(Gate(kind, controls, targets, d=d, n=n, poly=poly))
    except (InvalidGateError, ResolutionError) as e:
        raise ParseError(f"{path}: {e}") from None
