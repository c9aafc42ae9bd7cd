import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, *args):
    """Run demos/<name> from the checkout; return stdout and the first
    column of each table row (lines that start with an integer)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()
            if line.split() and line.split()[0].isdigit()]
    return proc.stdout, rows


def test_concentration_demo_runs():
    # d2=4 crosses auto mode's exact -> sample switch between n=64 and n=256
    out, rows = run_demo("concentration.py", "--d2", "4", "--samples", "20000")
    assert "n=2: P(log2 dim >= 1) = 0.5 (exact=True)" in out
    assert rows == ["4", "16", "64", "256", "1024"]


def test_memory_blocks_demo_runs():
    out, rows = run_demo("memory_blocks.py")
    assert rows == ["160", "640", "3200"]
    # the memory's wins break the 0.75 cap, so the drift audit must fail
    assert "audit against a 0.75 cap: passed=False" in out


def test_detection_demo_runs():
    out, rows = run_demo("detection.py")
    assert "min_rounds(delta=0.05, T=1) = 1110" in out
    assert rows == ["200", "600", "1110", "2000"]


def test_hiding_bounds_demo_runs():
    out, rows = run_demo("hiding_bounds.py")
    assert rows == ["2", "3", "4", "5"]
    for line in out.splitlines():
        cols = line.split()
        if not cols or not cols[0].isdigit():
            continue
        d, ppt_upper, gap = int(cols[0]), float(cols[2]), float(cols[5])
        assert abs(ppt_upper - (0.5 + 1.0 / (d + 1))) <= 1e-6
        assert 0.0 < gap <= 1e-6
