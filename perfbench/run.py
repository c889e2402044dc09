"""qrsmux benchmark: seeded, output-checked workloads and a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every BENCHMARK.json workload

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload's passes run in a fresh child process
(``perfbench/child.py``), one process at a time, so set-up time and peak
memory belong to that workload alone.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:
work per second over a pass, median and tail job latency, set-up time (the
median of several fresh processes) and peak resident memory.  ``--trace 1``
runs the workload once untraced and twice traced and prints the per-layer
metrics: span self times, exact counts (which must repeat between the two
traced runs) and the tracing overhead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full result record.  The exit code
is 1 when any output check fails, and another nonzero code, without a
result, when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import PASS_SECONDS, WORKLOADS  # noqa: E402

SETUP_PROBES = 6  # fresh processes that only set up; with the measuring one, 7 samples
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOAD_DEADLINE_S = 170.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(workload: str, seed: int, deadline: float, *, passes: int = 1, trace: bool = False,
              setup_only: bool = False, tag: str = "") -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), f"--tag={tag}"]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"{workload}: out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, timeout=timeout,
                              env={**os.environ, **CHILD_ENV}, text=True)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: child process exceeded the time limit") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: child process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, by nearest rank.

    With fewer than 20 samples no percentile qualifies and the maximum
    (percentile 100) is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def work_per_s(passes: list[dict]) -> float:
    return statistics.median(p["work"] / p["busy_s"] for p in passes)


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    passes = max(1, int(seconds // PASS_SECONDS[workload]))
    setups = [run_child(workload, seed, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = run_child(workload, seed, deadline, passes=passes)
    setups.append(result["setup_s"])
    latencies = [x for p in result["passes"] for x in p["latencies"]]
    percentile, tail_s = tail(latencies)
    values = {
        "work_per_s": work_per_s(result["passes"]),
        "job_p50_ms": statistics.median(latencies) * 1000,
        "job_tail_ms": tail_s * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {
        "passes": passes,
        "job_samples": len(latencies),
        "job_tail_percentile": percentile,
        "setup_samples_s": setups,
        "pass_busy_s": [p["busy_s"] for p in result["passes"]],
        "work_per_pass": [p["work"] for p in result["passes"]],
    }
    return values, {"outcome": result["passes"], "detail": detail}


def layer_value(name: str, unit: str, layers: dict) -> float:
    counts = layers["counts"]
    if name == "revsim.mutants.detected_ratio":
        tried = counts.get("revsim.mutants.tried", 0)
        return counts.get("revsim.mutants.detected", 0) / tried if tried else 0.0
    if unit == "s":
        return layers["self_s"].get(name.removesuffix(".s"), 0.0)
    return counts.get(name, 0)


def per_layer(workload: str, seed: int, seconds: int, deadline: float, metrics: list[dict]) -> tuple[dict, dict]:
    passes = max(1, int(seconds / 3 // PASS_SECONDS[workload]))
    plain = run_child(workload, seed, deadline, passes=passes)
    traced = [run_child(workload, seed, deadline, passes=passes, trace=True, tag=tag) for tag in ("-a", "-b")]
    summaries = [p["layers"] for run in traced for p in run["passes"]]

    outcome = plain["passes"] + [p for run in traced for p in run["passes"]]
    repeat_errors = []
    for other in summaries[1:]:
        if other["counts"] != summaries[0]["counts"]:
            repeat_errors.append(f"counts differ between traced passes: {summaries[0]['counts']} vs {other['counts']}")
    if repeat_errors:
        outcome.append({"attempted": 0, "failed": 1, "errors": repeat_errors})

    untraced_rate = work_per_s(plain["passes"])
    traced_rate = work_per_s([p for run in traced for p in run["passes"]])
    values = {}
    for m in metrics:
        if m["name"] == "trace.overhead.work_per_s":
            values[m["name"]] = untraced_rate - traced_rate
        elif m["unit"] == "s":
            values[m["name"]] = statistics.median(layer_value(m["name"], "s", s) for s in summaries)
        else:
            values[m["name"]] = layer_value(m["name"], m["unit"], summaries[0])
    detail = {
        "passes_per_run": passes,
        "untraced_work_per_s": untraced_rate,
        "traced_work_per_s": traced_rate,
        "overhead_ratio": (untraced_rate - traced_rate) / untraced_rate,
        "spans_files": [run["spans_file"] for run in traced],
        "layers": summaries,
    }
    return values, {"outcome": outcome, "detail": detail}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        values, extra = per_layer(workload, seed, seconds, deadline, metrics)
    else:
        values, extra = end_to_end(workload, seed, seconds, deadline)
    outcome = extra.pop("outcome")
    attempted = sum(p["attempted"] for p in outcome)
    failed = sum(p["failed"] for p in outcome)
    why = next((w["why"] for w in bench["workloads"] if w["name"] == workload), WORKLOADS[workload].__doc__)
    return {
        "workload": workload,
        "why": why,
        "unit": WORKLOADS[workload].unit,
        "loop": "closed, one client",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": [e for p in outcome for e in p["errors"]],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"], "better": m["better"]}
                    for m in metrics},
        **extra,
    }


def print_record(rec: dict) -> None:
    d = rec.get("detail", {})
    print(f"== {rec['workload']} (seed {rec['seed']}, {rec['unit']}, {rec['loop']}, "
          f"trace {rec['trace']})")
    for name, m in rec["metrics"].items():
        note = ""
        if name == "job_tail_ms":
            note = f"  (p{d['job_tail_percentile']:g} of {d['job_samples']} jobs)"
        elif name == "job_p50_ms":
            note = f"  ({d['job_samples']} jobs)"
        elif name == "work_per_s":
            note = f"  ({rec['unit']} per second, median of {d['passes']} passes)"
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}{note}")
    if rec["trace"]:
        print(f"  tracing overhead: {d['untraced_work_per_s']:.6g} work/s untraced, "
              f"{d['traced_work_per_s']:.6g} traced ({d['overhead_ratio']:.2%})")
    print(f"  {'fail_ratio':40s} {rec['fail_ratio']:>16.6g} ratio  ({rec['failed']}/{rec['attempted']})")
    for e in rec["errors"]:
        print(f"  FAILED {e}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qrsmux" / "__init__.py").is_file():
        print(f"error: no qrsmux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), bench) for w in chosen]
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    for rec in records:
        print_record(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"records": records}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
