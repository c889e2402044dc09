"""Smoke tests: the experiment scripts run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, cwd, **env):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_make_figures(tmp_path):
    proc = run_script("make_figures.py", tmp_path, QRS_OUT_DIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("sweep.csv", "fig_nsum.svg", "fig_ntot.svg", "fig_ratio.svg", "fig_nrca.svg",
                 "fig_ncheckif.svg", "fig_ncheckif_cx.svg"):
        assert (tmp_path / name).stat().st_size > 0, name


def test_verify_sum_gates(tmp_path):
    proc = run_script("verify_sum_gates.py", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failing dimensions" in proc.stdout
