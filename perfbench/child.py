"""One fresh process running one workload alone.

Imports qrsmux from the checkout's ``src`` and builds the seeded inputs,
which is the set-up time, until the first job is ready; optionally installs the
tracer, runs the requested number of passes and prints one JSON record as
the last line of its standard output.

    python3 perfbench/child.py --workload sweep --seed 1 --passes 1 [--trace] [--setup-only]
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"


def import_program():
    """Import qrsmux from this checkout only, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qrsmux

    if Path(qrsmux.__file__).resolve().parent != src / "qrsmux":
        raise ImportError(f"qrsmux imported from {qrsmux.__file__}, not from {src}")
    return qrsmux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tag", default="")
    args = parser.parse_args()

    start = time.perf_counter()
    import_program()
    import tracing
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload.prepare_checks()

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        passes = []
        for index in range(args.passes):
            first_span = len(tracer.spans) if tracer else 0
            p = workloads.Pass(tracer=tracer)
            workload.run_pass(p)
            record = {"busy_s": p.busy_s, "work": p.work, "latencies": p.latencies,
                      "attempted": p.attempted, "failed": len(p.failed), "errors": p.errors}
            if tracer:
                record["layers"] = tracer.summary(first_span)
            passes.append(record)
        spans_file = None
        if tracer:
            tracer.uninstall()
            OUT_DIR.mkdir(exist_ok=True)
            spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}{args.tag}.json"
            tracer.write(spans_file, [r["layers"] for r in passes])
            spans_file = str(spans_file.relative_to(ROOT))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "passes": passes,
                          "spans_file": spans_file}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
