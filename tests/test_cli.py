import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qrsmux import analysis, circuit, cli, gf2m, lowering
from qrsmux.cli import main
from qrsmux.errors import ParseError
from qrsmux.sumsynth import synth_sum


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_synth_sum_oracle(capsys):
    rc, out, _ = run(capsys, "synth-sum", "--d", "7", "--oracle")
    assert rc == 0
    assert "PASS" in out and "'C4X': 5" in out


def test_synth_sum_emit_and_lower(capsys, tmp_path):
    doc = tmp_path / "sum5.json"
    rc, out, _ = run(capsys, "synth-sum", "--d", "5", "--emit", str(doc))
    assert rc == 0 and doc.exists()
    parsed = json.loads(doc.read_text())
    assert {r["name"] for r in parsed["registers"]} == {"A", "B", "carry", "checkif"}

    report = tmp_path / "lower.csv"
    rc, out, _ = run(capsys, "lower", "--in", str(doc), "--strategy", "multiplexed",
                     "--report", str(report))
    assert rc == 0
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"gate-index", "kind", "arity", "photons", "strategy",
                            "cx", "h", "t", "tdag", "os", "fallback-flag"}
    assert sum(int(r["cx"]) for r in rows) == 59


# SHA-256 of `lower --report` for the SUM circuit of d, per strategy, and the
# note lines `lower` prints.
REPORT_SHA256 = {
    5: {"general": "129a240041319496c21da8783ada61a2b0da378717ea30b54de745c2b7e8980a",
        "ralph": "1d0441b004127b59d6de73514307c4ab7f56c33578367ad3c7c1ca2521ad380d",
        "multiplexed": "9a19b85bedc2228554daa06753d4c42f38e11ea4ba5a0b8ce22961f1884bab2e"},
    137: {"general": "f8ee6e78325a89cf0d164c59860632f64f2ee9f1424ca734bc07921a33b2baee",
          "ralph": "d32a6a3a2f839ef745bfb8a26745657930c0a797b621f2af874e563cf3c8fa9c",
          "multiplexed": "81c79251ecffc49bc11912e8c442c4302774d0d8b8ae988407d10baad41a35c4"},
    1021: {"general": "2be8eda32dc6e41ae3bf0dedb7bb998388c096367e6d56ec8e3c033b38f89acb",
           "ralph": "fcf9b0cbd51bff7a819967770f53b5b8299115c4e8587bb7ab2628fc9a250aef",
           "multiplexed": "eec319892003071c9d92b458c4f1d8b115196c8ffbd4c840872832c4a07a24ec"},
}
REPORT_NOTES = {
    "general": [],
    "ralph": ["note: two-qubit totals counted 1:1 against CX; companion single-qudit gates are"
              " treated as free, so these totals are a lower bound"],
    "multiplexed": [],
}


@pytest.mark.parametrize("d", sorted(REPORT_SHA256))
def test_lower_report_bytes_are_pinned(capsys, tmp_path, d):
    doc = tmp_path / f"sum{d}.json"
    assert run(capsys, "synth-sum", "--d", str(d), "--emit", str(doc))[0] == 0
    for strategy, digest in REPORT_SHA256[d].items():
        report = tmp_path / f"lower-{strategy}.csv"
        rc, out, _ = run(capsys, "lower", "--in", str(doc), "--strategy", strategy,
                         "--report", str(report))
        assert rc == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, strategy
        assert [line for line in out.splitlines() if line.startswith("note:")] == REPORT_NOTES[strategy]


def test_lower_os_cost_flag(capsys, tmp_path):
    doc = tmp_path / "sum5.json"
    run(capsys, "synth-sum", "--d", "5", "--emit", str(doc))
    report = tmp_path / "lower.csv"
    rc, out, _ = run(capsys, "lower", "--in", str(doc), "--strategy", "multiplexed",
                     "--os-cost", "3", "--report", str(report))
    assert rc == 0
    with open(report) as fh:
        assert sum(int(r["os"]) for r in csv.DictReader(fh)) == 3 * (3 * 3 + 14)


def test_verify_ok_and_mutated(capsys):
    rc, out, _ = run(capsys, "verify", "--d", "5")
    assert rc == 0 and "25/25" in out
    rc, out, _ = run(capsys, "verify", "--d", "5", "--mutate", "20")
    assert rc == 1 and "FAIL" in out


def test_verify_rejects_non_prime(capsys):
    assert run(capsys, "verify", "--d", "9") == (2, "", "error: --d 9: d=9 is not prime\n")


@pytest.mark.parametrize("command, d, fault", [
    ("verify", "1031", "d=1031 needs k=11 qubits, above the limit k_max=10"),
    ("synth-sum", "9", "d=9 is not prime"),
    ("synth-sum", "1031", "d=1031 needs k=11 qubits, above the limit k_max=10"),
])
def test_refused_dimension_names_the_flag(capsys, command, d, fault):
    assert run(capsys, command, "--d", d) == (2, "", f"error: --d {d}: {fault}\n")


def test_gf2m_reports(capsys, tmp_path):
    doc = tmp_path / "enc.json"
    report = tmp_path / "enc.csv"
    rc, out, _ = run(capsys, "gf2m", "--m", "2", "--emit", str(doc), "--report", str(report))
    assert rc == 0 and "6 CX" in out
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["gate"] for r in rows] == ["Calpha", "Calpha^2"]
    assert all(r["verified"] == "true" for r in rows)
    assert all(r["cx-count"] == r["formula-count"] for r in rows)


# SHA-256 of `gf2m --report` per m, and the line `gf2m` prints last.
GF2M_REPORT_SHA256 = {
    3: ("2394070c59b3e357310919cab8e637e3a4892cb4eb0c3dc856b6cd88292be396",
        "[7,4] over GF(8): classical part costs 59 CX"),
    4: ("82f61953d905e5dc8bb7d1285fe79552f595cdf33ff53cd6e8f3ae9cc0b72353",
        "[15,8] over GF(16): classical part costs 438 CX"),
}


@pytest.mark.parametrize("m", sorted(GF2M_REPORT_SHA256))
def test_gf2m_report_bytes_are_pinned(capsys, tmp_path, m):
    report = tmp_path / "enc.csv"
    rc, out, _ = run(capsys, "gf2m", "--m", str(m), "--report", str(report))
    assert rc == 0
    digest, summary = GF2M_REPORT_SHA256[m]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert out.splitlines()[-1] == summary


def test_gf2m_report_verifies_each_exponent_once(capsys, tmp_path, monkeypatch):
    calls = []
    verify = gf2m.verify_cmuladd
    monkeypatch.setattr(gf2m, "verify_cmuladd", lambda *a: calls.append(a[2]) or verify(*a))
    report = tmp_path / "enc.csv"
    assert run(capsys, "gf2m", "--m", "4", "--report", str(report))[0] == 0
    with open(report) as fh:
        exponents = [int(r["exponent"]) for r in csv.DictReader(fh)]
    assert len(exponents) == 56
    assert sorted(calls) == sorted(set(exponents)) and len(calls) == 15


def test_lower_report_computes_each_signature_once(capsys, tmp_path, monkeypatch):
    """parse fills the histogram while it reads a document of qubit MCX gates,
    so neither it nor lowering nor the report recomputes a gate's signature."""
    doc = tmp_path / "sum1021.json"
    assert run(capsys, "synth-sum", "--d", "1021", "--emit", str(doc))[0] == 0
    calls = []
    signature = circuit.signature
    counted = lambda g: calls.append(g) or signature(g)
    for module in (circuit, lowering):
        if hasattr(module, "signature"):
            monkeypatch.setattr(module, "signature", counted)
    rc, _, _ = run(capsys, "lower", "--in", str(doc), "--strategy", "multiplexed",
                   "--report", str(tmp_path / "lower.csv"))
    assert rc == 0
    assert len(calls) == 0


@pytest.mark.parametrize("argv", [
    ["--help"], ["lower", "--help"], ["sweep", "--help"], [], ["lower", "--strategy", "fast"],
    ["synth-sum", "--d", "x"], ["frobnicate"],
], ids=["help", "lower-help", "sweep-help", "no-command", "bad-choice", "bad-int", "bad-command"])
def test_cached_parser_prints_what_a_fresh_one_prints(capsys, argv):
    """build_parser is built once per process; after earlier commands its help
    and usage errors are byte-identical to a freshly built parser's."""
    cli.build_parser()
    assert run(capsys, "synth-sum", "--d", "5")[0] == 0
    outputs = []
    for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        outputs.append((exit_info.value.code, capsys.readouterr()))
    assert cli.build_parser() is cli.build_parser()
    assert outputs[0] == outputs[1]


def test_cli_runs_without_numpy(tmp_path):
    """numpy is a test dependency only: gf2m and verify run with its import blocked."""
    report = tmp_path / "enc.csv"
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from qrsmux import cli\n"
        f"print([cli.main(['gf2m', '--m', '3', '--report', {str(report)!r}]), cli.main(['verify', '--d', '5'])])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0]"
    assert report.stat().st_size > 0


def test_sweep_with_env_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QRS_OUT_DIR", str(tmp_path / "out"))
    rc, out, _ = run(capsys, "sweep", "--d-min", "3", "--d-max", "13",
                     "--out", "report.csv", "--svg", "fig.svg", "--series", "ratio")
    assert rc == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "fig.svg").exists()


def test_sweep_absolute_path_ignores_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QRS_OUT_DIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.csv"
    rc, _, _ = run(capsys, "sweep", "--d-min", "3", "--d-max", "7", "--out", str(target))
    assert rc == 0 and target.exists()


def test_config_selects_convention_and_poly(capsys, tmp_path):
    cfg = tmp_path / "qrs.cfg"
    cfg.write_text("convention.id = inner-collapse-v1\ngf2m.poly.3 = 0b1101\n")
    out_csv = tmp_path / "r.csv"
    rc, _, _ = run(capsys, "--config", str(cfg), "sweep", "--d-min", "7", "--d-max", "7",
                   "--out", str(out_csv))
    assert rc == 0
    with open(out_csv) as fh:
        row = next(csv.DictReader(fh))
    assert row["convention"] == "inner-collapse-v1"

    enc = tmp_path / "enc.json"
    rc, _, _ = run(capsys, "--config", str(cfg), "gf2m", "--m", "3", "--emit", str(enc))
    assert rc == 0
    # the emitted gates carry the overridden modulus (non-default polynomial)
    doc = json.loads(enc.read_text())
    polys = {g.get("poly") for g in doc["gates"] if g["kind"] == "CMulAdd"}
    assert polys == {0b1101}


def test_cli_convention_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "qrs.cfg"
    cfg.write_text("convention.id = inner-collapse-v1\n")
    out_csv = tmp_path / "r.csv"
    rc, _, _ = run(capsys, "--config", str(cfg), "sweep", "--d-min", "5", "--d-max", "5",
                   "--out", str(out_csv), "--convention", "default-v1")
    assert rc == 0
    with open(out_csv) as fh:
        assert next(csv.DictReader(fh))["convention"] == "default-v1"


# ---------------------------------------------------------------
# Input faults: exit 2 with one error line, no traceback
# ---------------------------------------------------------------

def assert_input_error(rc, err, *fragments):
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


def test_lower_rejects_zero_os_cost(capsys, tmp_path):
    doc = tmp_path / "sum5.json"
    run(capsys, "synth-sum", "--d", "5", "--emit", str(doc))
    report = tmp_path / "lower.csv"
    rc, _, err = run(capsys, "lower", "--in", str(doc), "--strategy", "multiplexed",
                     "--os-cost", "0", "--report", str(report))
    assert_input_error(rc, err, "--os-cost")
    assert not report.exists()


def test_sweep_rejects_unknown_convention(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    rc, _, err = run(capsys, "sweep", "--d-min", "5", "--d-max", "5", "--out", str(out_csv),
                     "--convention", "nope")
    assert_input_error(rc, err, "--convention", "'nope'")
    assert not out_csv.exists()


def test_config_rejects_unknown_convention(capsys, tmp_path):
    cfg = tmp_path / "qrs.cfg"
    cfg.write_text("convention.id=bogus\n")
    out_csv = tmp_path / "r.csv"
    rc, _, err = run(capsys, "--config", str(cfg), "sweep", "--d-min", "5", "--d-max", "5",
                     "--out", str(out_csv))
    assert_input_error(rc, err, "convention.id", "'bogus'")
    assert not out_csv.exists()


def test_verify_rejects_out_of_range_mutation(capsys):
    rc, out, err = run(capsys, "verify", "--d", "5", "--mutate", "999")
    assert_input_error(rc, err, "--mutate", "out of range")
    assert "mutated" not in out


def test_gf2m_rejects_m_without_default_polynomial(capsys):
    rc, _, err = run(capsys, "gf2m", "--m", "9")
    assert_input_error(rc, err, "--m 9", "primitive polynomial")


def test_gf2m_rejects_extension_degree_zero(capsys):
    rc, out, err = run(capsys, "gf2m", "--m", "0")
    assert (rc, out, err) == (2, "", "error: --m 0: extension degree m=0 must be >= 1\n")


def test_sweep_rejects_unknown_strategy(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    rc, _, err = run(capsys, "sweep", "--d-min", "5", "--d-max", "5", "--out", str(out_csv),
                     "--strategies", "general,qft")
    assert_input_error(rc, err, "--strategies", "'qft'")
    assert not out_csv.exists()


@pytest.mark.parametrize("strategies", ["", ",", " , "])
def test_sweep_rejects_strategies_that_name_none(capsys, tmp_path, strategies):
    out_csv = tmp_path / "r.csv"
    rc, out, err = run(capsys, "sweep", "--d-min", "3", "--d-max", "5", "--out", str(out_csv),
                       "--strategies", strategies)
    assert_input_error(rc, err, f"--strategies {strategies}: names no strategy")
    assert not out_csv.exists() and "wrote" not in out


def test_sweep_rejects_empty_range(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    rc, _, err = run(capsys, "sweep", "--d-min", "9", "--d-max", "3", "--out", str(out_csv))
    assert_input_error(rc, err, "--d-min 9", "--d-max 3")
    assert not out_csv.exists()


def test_sweep_rejects_range_without_primes(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    rc, out, err = run(capsys, "sweep", "--d-min", "8", "--d-max", "10", "--out", str(out_csv))
    assert_input_error(rc, err, "--d-min 8", "--d-max 10", "no primes")
    assert not out_csv.exists() and "wrote" not in out


def test_sweep_says_it_starts_at_3_when_the_range_holds_only_2(capsys, tmp_path):
    """2 is a prime that synth-sum and verify take, but the sweep takes odd primes only."""
    out_csv = tmp_path / "r.csv"
    rc, out, err = run(capsys, "sweep", "--d-min", "2", "--d-max", "2", "--out", str(out_csv))
    assert_input_error(rc, err, "--d-min 2", "--d-max 2", "no primes", "starts at 3")
    assert not out_csv.exists() and out == ""


def test_sweep_checks_k_max_before_sweeping(capsys, tmp_path, monkeypatch):
    rows = []
    monkeypatch.setattr(analysis, "sweep_row", lambda d, *args: rows.append(d))
    out_csv = tmp_path / "r.csv"
    rc, out, err = run(capsys, "sweep", "--d-min", "3", "--d-max", "1031", "--out", str(out_csv))
    assert rc == 2
    assert err == "error: --d-max 1031: d=1031 needs k=11 qubits, above the limit k_max=10\n"
    assert rows == [] and not out_csv.exists() and "wrote" not in out


def test_sweep_checks_k_max_before_sieving(capsys, tmp_path, monkeypatch):
    def fail(lo, hi):
        raise AssertionError(f"primes_in({lo}, {hi}) ran before the k_max check")

    monkeypatch.setattr(analysis, "primes_in", fail)
    out_csv = tmp_path / "r.csv"
    rc, out, err = run(capsys, "sweep", "--d-max", "100000000", "--out", str(out_csv))
    assert rc == 2
    assert err == "error: --d-max 100000000: d=99999989 needs k=27 qubits, above the limit k_max=10\n"
    assert not out_csv.exists() and "wrote" not in out


def test_sweep_of_one_prime_past_k_max(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    rc, out, err = run(capsys, "sweep", "--d-min", "1031", "--d-max", "1032", "--out", str(out_csv))
    assert rc == 2
    assert err == "error: --d-max 1032: d=1031 needs k=11 qubits, above the limit k_max=10\n"
    assert not out_csv.exists() and "wrote" not in out


def test_sweep_finds_a_large_prime_past_k_max_quickly(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    start = time.perf_counter()
    rc, out, err = run(capsys, "sweep", "--d-max", "10000000000000000", "--out", str(out_csv))
    assert time.perf_counter() - start < 2  # trial division up to the prime's root takes tens of seconds
    assert rc == 2
    assert err == ("error: --d-max 10000000000000000: d=9999999999999937 needs k=54 qubits, "
                   "above the limit k_max=10\n")
    assert not out_csv.exists() and "wrote" not in out


HUGE = "10000000000000000000000013"  # past the bound below which is_prime is fast


@pytest.mark.parametrize("argv, fault", [
    (["synth-sum", "--d", HUGE], f"--d {HUGE}: d={HUGE} needs k=84 qubits, above the limit k_max=10"),
    (["verify", "--d", HUGE], f"--d {HUGE}: d={HUGE} needs k=84 qubits, above the limit k_max=10"),
    (["sweep", "--d-max", HUGE, "--out", "r.csv"],
     f"--d-max {HUGE}: d={HUGE} needs k=84 qubits, above the limit k_max=10"),
    (["synth-sum", "--d", "2048"], "--d 2048: d=2048 needs k=11 qubits, above the limit k_max=10"),
], ids=["synth-sum", "verify", "sweep", "composite-past-k-max"])
def test_dimension_past_k_max_is_refused_for_its_size_quickly(capsys, tmp_path, monkeypatch, argv, fault):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2  # proving a prime this large by trial division never ends
    assert (rc, out, err) == (2, "", f"error: {fault}\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("m, poly, via_config", [(11, 0x805, False), (16, 0x1100B, False), (16, 0x1100B, True),
                                                  (11, None, False)],
                         ids=["m11-poly", "m16-poly", "m16-config", "m11-default"])
def test_extension_degree_past_m_max_is_refused_quickly(capsys, tmp_path, monkeypatch, m, poly, via_config):
    monkeypatch.chdir(tmp_path)
    if via_config:
        (tmp_path / "qrs.cfg").write_text(f"gf2m.poly.{m} = {poly:#x}\n")
        argv, source = ["--config", "qrs.cfg", "gf2m", "--m", str(m)], f"gf2m.poly.{m}"
    elif poly is None:  # no polynomial can help: the degree is refused, not the missing default
        argv, source = ["gf2m", "--m", str(m)], f"--m {m}"
    else:
        argv, source = ["gf2m", "--m", str(m), "--poly", f"{poly:#x}"], f"--poly {poly:#b}"
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv, "--emit", "enc.json")
    assert time.perf_counter() - start < 2  # checking a polynomial of degree m takes about 2^m steps
    assert (rc, out, err) == (2, "", f"error: {source}: extension degree m={m} is above the limit m_max=10\n")
    assert not (tmp_path / "enc.json").exists()


def test_sweep_range_ending_above_its_largest_prime(capsys, tmp_path):
    out_csv = tmp_path / "r.csv"
    rc, out, _ = run(capsys, "sweep", "--d-min", "1019", "--d-max", "1024", "--out", str(out_csv))
    assert rc == 0 and "(2 rows," in out
    with open(out_csv) as fh:
        assert [row["d"] for row in csv.DictReader(fh)] == ["1019", "1021"]


def test_config_rejects_line_without_equals(capsys, tmp_path):
    cfg = tmp_path / "qrs.cfg"
    cfg.write_text("convention.id = default-v1\nnot a setting\n")
    out_csv = tmp_path / "r.csv"
    rc, _, err = run(capsys, "--config", str(cfg), "sweep", "--d-min", "5", "--d-max", "5",
                     "--out", str(out_csv))
    assert_input_error(rc, err, "--config", ":2:", "key=value")
    assert not out_csv.exists()


def test_config_rejects_non_integer_poly_key(capsys, tmp_path):
    cfg = tmp_path / "qrs.cfg"
    cfg.write_text("gf2m.poly.x = 0b1101\n")
    enc = tmp_path / "enc.json"
    rc, _, err = run(capsys, "--config", str(cfg), "gf2m", "--m", "3", "--emit", str(enc))
    assert_input_error(rc, err, "--config", "gf2m.poly.x")
    assert not enc.exists()


def test_lower_rejects_missing_input_file(capsys, tmp_path):
    report = tmp_path / "lower.csv"
    rc, _, err = run(capsys, "lower", "--in", str(tmp_path / "missing.json"),
                     "--strategy", "general", "--report", str(report))
    assert_input_error(rc, err, "--in", "missing.json")
    assert not report.exists()


def test_lower_rejects_non_utf8_input(capsys, tmp_path):
    doc = tmp_path / "latin1.json"
    doc.write_bytes(b'{"note": "\xe9"}')
    report = tmp_path / "lower.csv"
    rc, _, err = run(capsys, "lower", "--in", str(doc), "--strategy", "general",
                     "--report", str(report))
    assert_input_error(rc, err, "--in", "latin1.json", "utf-8")
    assert not report.exists()


def test_lower_names_the_input_of_an_empty_document(capsys, tmp_path):
    doc = tmp_path / "empty.json"
    doc.write_text("")
    report = tmp_path / "lower.csv"
    rc, out, err = run(capsys, "lower", "--in", str(doc), "--strategy", "general",
                       "--report", str(report))
    assert_input_error(rc, err, f"--in {doc}: ")
    assert err == f"error: --in {doc}: line 1, column 1: Expecting value\n"
    assert not report.exists() and out == ""


def test_lower_names_the_input_of_a_document_with_a_bad_field(capsys, tmp_path):
    doc = tmp_path / "sum5.json"
    run(capsys, "synth-sum", "--d", "5", "--emit", str(doc))
    parsed = json.loads(doc.read_text())
    parsed["gates"][3][1] = -1
    doc.write_text(json.dumps(parsed))
    report = tmp_path / "lower.csv"
    rc, out, err = run(capsys, "lower", "--in", str(doc), "--strategy", "general",
                       "--report", str(report))
    assert_input_error(rc, err, f"--in {doc}: ")
    with pytest.raises(ParseError) as parse_error:
        circuit.parse(doc.read_text())
    assert err == f"error: --in {doc}: {parse_error.value}\n"
    assert "gates[3][1]: expected an integer from 0 to 11, got -1" in err
    assert not report.exists() and out == ""


SUM5_V1 = Path(__file__).resolve().parent / "data" / "sum5_v1.json"


def test_a_document_without_format_parses_and_lowers_as_its_records_form(capsys, tmp_path):
    """tests/data/sum5_v1.json is synth-sum --d 5 --emit as written before
    "format" 2, in the named layout: it still parses to synth_sum(5), and
    lower writes the same report and notes from it as from today's document."""
    older = SUM5_V1.read_text(encoding="utf-8")
    assert "format" not in json.loads(older)
    assert circuit.parse(older) == synth_sum(5)
    doc = tmp_path / "sum5.json"
    assert run(capsys, "synth-sum", "--d", "5", "--emit", str(doc))[0] == 0
    for strategy in ("general", "ralph", "multiplexed"):
        outputs = []
        for source in (SUM5_V1, doc):
            report = tmp_path / f"{strategy}-{source.name}.csv"
            rc, out, err = run(capsys, "lower", "--in", str(source), "--strategy", strategy, "--report", str(report))
            assert rc == 0 and err == ""
            outputs.append((report.read_bytes(), out.replace(str(report), "REPORT").replace(str(source), "IN")))
        assert outputs[0] == outputs[1], strategy


def test_gf2m_refuses_emit_and_report_naming_one_file(capsys, tmp_path):
    same = tmp_path / "same.txt"
    rc, out, err = run(capsys, "gf2m", "--m", "2", "--emit", str(same), "--report", str(same))
    assert_input_error(rc, err, f"--report {same}", f"--emit {same}")
    assert err.index("--report") < err.index("--emit")  # the second flag is the one named first
    assert not same.exists() and "wrote" not in out


def test_sweep_refuses_out_and_svg_naming_one_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QRS_OUT_DIR", raising=False)
    rc, out, err = run(capsys, "sweep", "--d-max", "7", "--out", "s.txt", "--svg", "./s.txt")
    assert_input_error(rc, err, "--svg ./s.txt", "--out s.txt")
    assert list(tmp_path.iterdir()) == [] and "wrote" not in out


def test_lower_rejects_unwritable_report(capsys, tmp_path):
    doc = tmp_path / "sum5.json"
    run(capsys, "synth-sum", "--d", "5", "--emit", str(doc))
    report = tmp_path / "missing" / "lower.csv"
    rc, out, err = run(capsys, "lower", "--in", str(doc), "--strategy", "general",
                       "--report", str(report))
    assert_input_error(rc, err, "--report", "lower.csv")
    assert not report.exists() and "wrote" not in out


def test_synth_sum_rejects_unwritable_emit(capsys, tmp_path):
    doc = tmp_path / "missing" / "sum5.json"
    rc, out, err = run(capsys, "synth-sum", "--d", "5", "--emit", str(doc))
    assert_input_error(rc, err, "--emit", "sum5.json")
    assert not doc.exists() and "wrote" not in out


def test_gf2m_rejects_unwritable_emit(capsys, tmp_path):
    doc = tmp_path / "missing" / "enc.json"
    rc, out, err = run(capsys, "gf2m", "--m", "2", "--emit", str(doc))
    assert_input_error(rc, err, "--emit", "enc.json")
    assert not doc.exists() and "wrote" not in out


def test_gf2m_rejects_unwritable_report(capsys, tmp_path):
    report = tmp_path / "missing" / "enc.csv"
    rc, out, err = run(capsys, "gf2m", "--m", "2", "--report", str(report))
    assert_input_error(rc, err, "--report", "enc.csv")
    assert not report.exists() and "wrote" not in out


def test_gf2m_writes_no_emit_file_when_report_is_unwritable(capsys, tmp_path):
    doc = tmp_path / "enc.json"
    report = tmp_path / "missing" / "r.csv"
    rc, out, err = run(capsys, "gf2m", "--m", "2", "--emit", str(doc), "--report", str(report))
    assert_input_error(rc, err, "--report", "r.csv")
    assert not doc.exists() and not report.exists() and "wrote" not in out


def test_sweep_rejects_unwritable_out(capsys, tmp_path):
    out_csv = tmp_path / "missing" / "r.csv"
    rc, out, err = run(capsys, "sweep", "--d-min", "5", "--d-max", "5", "--out", str(out_csv))
    assert_input_error(rc, err, "--out", "r.csv")
    assert not out_csv.exists() and "wrote" not in out


def test_sweep_rejects_unwritable_svg(capsys, tmp_path):
    svg = tmp_path / "missing" / "fig.svg"
    rc, out, err = run(capsys, "sweep", "--d-min", "5", "--d-max", "5", "--out", str(tmp_path / "r.csv"),
                       "--svg", str(svg))
    assert_input_error(rc, err, "--svg", "fig.svg")
    assert not svg.exists() and "fig.svg" not in out
    assert not (tmp_path / "r.csv").exists() and "wrote" not in out


@pytest.mark.parametrize("strategies", ["general", "multiplexed"])
def test_sweep_rejects_a_series_its_strategies_leave_empty(capsys, tmp_path, strategies):
    # The ratio series needs both the general and the multiplexed columns.
    out_csv, svg = tmp_path / "r.csv", tmp_path / "f.svg"
    rc, out, err = run(capsys, "sweep", "--d-min", "3", "--d-max", "5", "--out", str(out_csv),
                       "--svg", str(svg), "--series", "ratio", "--strategies", strategies)
    assert_input_error(rc, err, "--series ratio", "empty SVG chart")
    assert not out_csv.exists() and not svg.exists() and "wrote" not in out


def test_gf2m_names_k_for_bad_message_length(capsys):
    rc, _, err = run(capsys, "gf2m", "--m", "2", "--k", "5")
    assert_input_error(rc, err, "--k 5", "message length")


def test_gf2m_names_k_for_a_code_without_its_dual(capsys, tmp_path):
    doc = tmp_path / "enc.json"
    rc, out, err = run(capsys, "gf2m", "--m", "2", "--k", "1", "--emit", str(doc))
    assert_input_error(rc, err, "--k 1", "does not contain its dual")
    assert err == "error: --k 1: [3,1] over GF(4) does not contain its dual; encoder needs K >= (n+1)/2\n"
    assert out == "" and not doc.exists()


@pytest.mark.parametrize("poly, fragment", [("0b1001", "reducible"), ("-9", "non-negative")])
def test_gf2m_names_poly_for_bad_polynomial(capsys, poly, fragment):
    rc, _, err = run(capsys, "gf2m", "--m", "3", "--poly", poly)
    assert_input_error(rc, err, "--poly", fragment)


def test_gf2m_reducible_poly_message(capsys):
    rc, out, err = run(capsys, "gf2m", "--m", "3", "--poly", "0b1111")
    assert rc == 2 and out == ""
    assert err == "error: --poly 0b1111: polynomial 0b1111 is reducible over GF(2)\n"


def test_gf2m_names_config_key_for_bad_polynomial(capsys, tmp_path):
    cfg = tmp_path / "qrs.cfg"
    cfg.write_text("gf2m.poly.3 = 0b1001\n")
    enc = tmp_path / "enc.json"
    rc, out, err = run(capsys, "--config", str(cfg), "gf2m", "--m", "3", "--emit", str(enc))
    assert_input_error(rc, err, "gf2m.poly.3", "reducible")
    assert "--m" not in err
    assert not enc.exists() and "wrote" not in out
