"""Command-line interface.

Subcommands: synth-sum, lower, gf2m, verify, sweep.  The QRS_OUT_DIR
environment variable supplies the default output directory for sweep
artifacts; a --config file can set primitive polynomials (gf2m.poly.<m>)
and the counting convention (convention.id).  gf2m resolves the polynomial
here alone: --poly, then gf2m.poly.<m>, then galois's default for m.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager

from . import analysis, config as config_mod, galois, gf2m, lowering, revsim, sumsynth
from .circuit import parse, serialize
from .errors import InvalidDimensionError, ParseError, QrsError, UnsupportedConfigurationError


@contextmanager
def _user_input(source: str, faults=(ValueError,)):
    """Report a fault raised while consuming one flag, key or file as an error naming it."""
    try:
        yield
    except faults as e:
        raise UnsupportedConfigurationError(f"{source}: {e}") from None


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    with _user_input(f"--config {path}", (ValueError, OSError)):
        return config_mod.load_config(path)


def _out_path(path: str, out_dir: str | None) -> str:
    if out_dir and not os.path.isabs(path):
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, path)
    return path


def _write_outputs(outputs: list[tuple[str, str, str]], out_dir: str | None) -> list[str]:
    """Write each (flag, path, text), opening every path before writing any.

    Two flags naming one file are refused, naming the second flag, before
    any file is opened.  A path that cannot be opened is reported under its
    flag, and the files opened before it are removed.  Returns the paths
    written.
    """
    paths, flags = [], {}  # real path -> the flag that named it first
    for flag, path, _ in outputs:
        paths.append(_out_path(path, out_dir))
        real = os.path.realpath(paths[-1])
        if real in flags:
            raise UnsupportedConfigurationError(f"{flag}: names the same file as {flags[real]}")
        flags[real] = flag
    opened = []
    try:
        for (flag, _, _), path in zip(outputs, paths):
            with _user_input(flag, OSError):
                opened.append(open(path, "w", encoding="utf-8", newline=""))
    except UnsupportedConfigurationError:
        for fh in opened:
            fh.close()
            os.remove(fh.name)
        raise
    for fh, (_, _, text) in zip(opened, outputs):
        with fh:
            fh.write(text)
    return [fh.name for fh in opened]


def cmd_synth_sum(args) -> int:
    with _user_input(f"--d {args.d}", (InvalidDimensionError,)):
        circuit = sumsynth.synth_sum(args.d)
    counted = circuit.count()
    if args.emit:
        _write_outputs([(f"--emit {args.emit}", args.emit, serialize(circuit))], None)
        print(f"wrote {args.emit} ({len(circuit)} gates)")
    if args.oracle:
        predicted = sumsynth.predicted_counts(args.d)
        print(f"synthesized: {counted.as_dict()}")
        print(f"predicted:   {predicted.as_dict()}")
        ok = counted == predicted
        print("oracle check: " + ("PASS" if ok else "FAIL"))
        if not ok:
            return 1
    if not args.emit and not args.oracle:
        print(f"d={args.d}: {counted.as_dict()}")
    return 0


def cmd_lower(args) -> int:
    with _user_input(f"--in {args.in_path}", (OSError, UnicodeDecodeError)):
        with open(args.in_path, encoding="utf-8") as fh:
            document = fh.read()
    with _user_input(f"--in {args.in_path}", (ParseError,)):
        circuit = parse(document)
    with _user_input(f"--os-cost {args.os_cost}"):
        strategy = lowering.Strategy(args.strategy, os_cost_per_control=args.os_cost)
    report = lowering.lower_circuit(circuit, strategy)
    _write_outputs([(f"--report {args.report}", args.report, lowering.report_csv(report))], None)
    print(f"strategy={args.strategy}: totals {report.total.as_dict()}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote {args.report}")
    return 0


def _cmuladd_report_line(f: galois.FieldSpec, n: int) -> str:
    """One gf2m --report line for a multiplier-add gate of exponent n."""
    circuit = gf2m.synth_cmuladd(f, n)
    counted = circuit.count()["C1X"]
    verified = gf2m.verify_cmuladd(circuit, f, n)
    name = "C1" if n == 0 else ("Calpha" if n == 1 else f"Calpha^{n}")
    return f"{name},{n},{counted},{gf2m.cmuladd_cx_formula(f, n)},{str(verified).lower()}\n"


def cmd_gf2m(args) -> int:
    cfg = _load_config(args.config)
    with _user_input(f"--config {args.config}"):
        overrides = config_mod.poly_overrides(cfg)
    poly = args.poly
    if poly is not None:
        poly_source = f"--poly {poly:#b}"
    elif args.m in overrides:
        poly, poly_source = overrides[args.m], f"gf2m.poly.{args.m}"
    else:
        poly_source = f"--m {args.m}"
    with _user_input(poly_source):
        field = galois.FieldSpec.binary_extension(args.m, poly)
    k = args.k if args.k is not None else 1 << (args.m - 1)
    with _user_input(f"--m {args.m}" if args.k is None else f"--k {args.k}",
                     (ValueError, UnsupportedConfigurationError)):  # a bad length, or a code without its dual
        spec = gf2m.build_code(args.m, k, poly=field.poly)
        encoder = gf2m.synth_encoder_gf2m(spec)
    outputs = []
    if args.emit:
        outputs.append((f"--emit {args.emit}", args.emit, serialize(encoder)))
    if args.report:
        exponents = [g.n for g in encoder.records if g.kind == "CMulAdd"]  # an encoder holds only Gates
        line = {n: _cmuladd_report_line(spec.field, n) for n in dict.fromkeys(exponents)}
        text = "".join(["gate,exponent,cx-count,formula-count,verified\n"] + [line[n] for n in exponents])
        outputs.append((f"--report {args.report}", args.report, text))
    _write_outputs(outputs, None)  # both texts are built before either file is opened
    if args.emit:
        print(f"wrote {args.emit} ({len(encoder)} gates)")
    if args.report:
        print(f"wrote {args.report}")
    print(f"[{spec.n},{spec.K}] over GF({spec.field.order}): "
          f"classical part costs {gf2m.encoder_classical_cx_cost(spec)} CX")
    return 0


def cmd_verify(args) -> int:
    with _user_input(f"--d {args.d}", (InvalidDimensionError,)):
        circuit = sumsynth.synth_sum(args.d)
    if args.mutate is not None:
        with _user_input(f"--mutate {args.mutate}", IndexError):
            circuit = circuit.without_gate(args.mutate)
        print(f"mutated: removed gate {args.mutate}")
    report = revsim.verify_sum(args.d, circuit)
    print(report.summary())
    return 0 if report.verified else 1


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    convention = args.convention or cfg.get("convention.id", analysis.DEFAULT_CONVENTION_ID)
    with _user_input("--convention" if args.convention else "convention.id"):
        analysis.get_convention(convention)
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    if not strategies:
        raise UnsupportedConfigurationError(f"--strategies {args.strategies}: names no strategy")
    unknown = sorted(set(strategies) - set(lowering.STRATEGY_NAMES))
    if unknown:
        raise UnsupportedConfigurationError(
            f"--strategies {args.strategies}: unknown strategies {unknown}; "
            f"known: {list(lowering.STRATEGY_NAMES)}")
    if args.d_max < args.d_min:
        raise UnsupportedConfigurationError(
            f"--d-min {args.d_min} --d-max {args.d_max}: empty sweep range")
    with _user_input(f"--d-max {args.d_max}", (InvalidDimensionError,)):  # a prime past k_max, raised before any work
        report = analysis.sweep(args.d_min, args.d_max, strategies, convention)
    if not report.rows:
        raise UnsupportedConfigurationError(
            f"--d-min {args.d_min} --d-max {args.d_max}: no primes in the sweep range, which starts at 3")
    outputs = [(f"--out {args.out}", args.out, analysis.csv_document(report))]
    if args.svg:
        with _user_input(f"--series {args.series}"):  # a series the chosen strategies leave empty
            series = analysis.series_points(report, args.series)
            chart = analysis.svg_document(series, ("d", args.series), log_y=args.log_y)
        outputs.append((f"--svg {args.svg}", args.svg, chart))
    paths = _write_outputs(outputs, os.environ.get("QRS_OUT_DIR"))
    print(f"wrote {paths[0]} ({len(report.rows)} rows, convention {report.convention})")
    for path in paths[1:]:
        print(f"wrote {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="qrsmux", description=__doc__)
    parser.add_argument("--config", help="key=value config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-sum", help="synthesize the qubit-level SUM gate for one dimension")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--emit", help="write the circuit interchange document here")
    p.add_argument("--oracle", action="store_true",
                   help="compare synthesized tallies against the closed-form prediction")
    p.set_defaults(func=cmd_synth_sum)

    p = sub.add_parser("lower", help="lower an interchange document under one strategy")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--strategy", choices=lowering.STRATEGY_NAMES, required=True)
    p.add_argument("--os-cost", type=int, default=2)
    p.add_argument("--report", required=True, help="per-gate CSV report path")
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("gf2m", help="build the GF(2^m) code and encoder")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="message length (default (n+1)/2)")
    p.add_argument("--poly", type=lambda s: int(s, 0), default=None,
                   help="primitive polynomial bitmask override")
    p.add_argument("--emit", help="write the encoder interchange document here")
    p.add_argument("--report", help="per-gate CSV report path")
    p.set_defaults(func=cmd_gf2m)

    p = sub.add_parser("verify", help="exhaustively verify the synthesized SUM gate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mutate", type=int, default=None, help="remove this gate index first")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep primes and emit the gate-count report")
    p.add_argument("--d-min", type=int, default=3)
    p.add_argument("--d-max", type=int, default=257)
    p.add_argument("--strategies", default=",".join(lowering.STRATEGY_NAMES))
    p.add_argument("--out", required=True, help="CSV path (QRS_OUT_DIR prefixes relative paths)")
    p.add_argument("--svg", help="optional SVG chart path")
    p.add_argument("--series", default="nsum", choices=sorted(analysis.SVG_SERIES))
    p.add_argument("--log-y", action="store_true")
    p.add_argument("--convention", default=None, help="counting-convention registry id")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QrsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
