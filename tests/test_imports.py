"""scipy is loaded by the PPT solver only.

A fresh interpreter imports the package and runs commands that solve no
SDP; none of them may load a ``scipy`` module. A certified bracket then
runs in the same process, so the solver's first-use imports must work.
They load scipy's compiled LAPACK module but not the ``scipy.linalg``
package; importing that package afterwards works and shares the
solver's routines, and a second bracket gives the same bits.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """\
import contextlib
import dataclasses
import io
import json
import sys

import numpy as np

import locclab
import locclab.cli
import locclab.sdp
from locclab import (HidingPairSpec, PsiSpec, bound_bracket,
                     concentration_distribution, helstrom, make_hiding_pair,
                     psi_spectrum)

spec = psi_spectrum(PsiSpec(lam=0.5, d2=4))
concentration_distribution(spec, 6, mode="exact")
concentration_distribution(spec, 64, mode="sample", samples=1000, seed=1)
commands = [
    ["simulate", "--protocol", "memory-block", "--d1", "2", "--lambda", "0.5",
     "--d2", "4", "--n-block", "8", "--rounds", "16", "--trials", "2"],
    ["concentrate", "--lambda", "0.5", "--d2", "2", "--n", "2",
     "--target", "1.0"],
    ["entropy", "--lambda", "0.5", "--d2", "8", "--d1", "2"],
    ["helstrom", "--family", "werner", "--d", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [locclab.cli.main(argv) for argv in commands]
s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
p_opt = helstrom(s0, s1)
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
bracket = bound_bracket(s0, s1)
after = any(m.split(".")[0] == "scipy" for m in sys.modules)
# the solver loaded scipy's LAPACK extension without the scipy.linalg package
package_after = "scipy.linalg" in sys.modules
flapack_after = "scipy.linalg._flapack" in sys.modules

import scipy.linalg


# every field of a dataclass, recursively, with floats and arrays as bits
def bits(value):
    if dataclasses.is_dataclass(value):
        return {f.name: bits(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), value.tobytes().hex()]
    return value.hex() if isinstance(value, float) else value


shared = [scipy.linalg.lapack.dpotrf is locclab.sdp.dpotrf,
          scipy.linalg.lapack.dpotrs is locclab.sdp.dpotrs]
s = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
b = np.array([1.0, -2.0, 3.0])
cho = scipy.linalg.cho_solve(scipy.linalg.cho_factor(s), b)
again = bound_bracket(s0, s1)
print(json.dumps({"codes": codes, "scipy_before": before,
                  "scipy_after": after, "helstrom": p_opt,
                  "ppt": bracket.ppt_upper, "locc": bracket.locc_lower,
                  "package_after": package_after,
                  "flapack_after": flapack_after, "shared": shared,
                  "cho_error": float(np.abs(cho - np.linalg.solve(s, b)).max()),
                  "same_bracket": bits(again) == bits(bracket)}))
"""


def test_scipy_loads_only_for_the_ppt_solver():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rec["codes"] == [0, 0, 0, 0]
    assert rec["scipy_before"] == []
    # the bracket ran the solver, which imported scipy on first use
    assert rec["scipy_after"]
    assert rec["locc"] - 1e-9 <= rec["ppt"] <= rec["helstrom"] + 1e-9
    # the solver's routines come from scipy's LAPACK extension alone; the
    # scipy.linalg package imports afterwards and shares them
    assert not rec["package_after"]
    assert rec["flapack_after"]
    assert rec["shared"] == [True, True]
    assert rec["cho_error"] <= 1e-12
    assert rec["same_bracket"]
