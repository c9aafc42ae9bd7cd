import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_concentration_demo_runs():
    # d2=4 crosses auto mode's exact -> sample switch between n=64 and n=256
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "concentration.py"),
         "--d2", "4", "--samples", "20000"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "n=2: P(log2 dim >= 1) = 0.5 (exact=True)" in proc.stdout
    rows = [line.split()[0] for line in proc.stdout.splitlines()
            if line.split() and line.split()[0].isdigit()]
    assert rows == ["4", "16", "64", "256", "1024"]
