"""What a fresh interpreter loads, and the lazy package namespace.

scipy is loaded by the PPT solver only. A fresh interpreter imports the
package and runs commands that solve no SDP; none of them may load a
``scipy`` module. A certified bracket then runs in the same process, so
the solver's first-use imports must work. They load scipy's compiled
LAPACK module but neither the ``scipy.linalg`` package nor the top-level
``scipy`` package; importing ``scipy.linalg`` afterwards works and shares
the solver's routines, and a second bracket gives the same bits.

``import locclab`` loads no submodule and no numpy; the first read of a
name loads the submodule that owns it. A bracket loads none of the game
layers, and a command other than ``bounds`` loads neither the solver nor
the bound layer.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import locclab

ROOT = Path(__file__).resolve().parents[1]


def run_child(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's source and
    return the JSON object printed on its last line."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])

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


def loaded(prefix: str) -> str:
    """Child code: the sorted names in sys.modules under package ``prefix``."""
    return f"sorted(m for m in sys.modules if m.split('.')[0] == {prefix!r})"


def test_import_loads_no_submodule():
    rec = run_child(f"""
        import json, sys
        import locclab
        before = {loaded("locclab")}
        numpy = "numpy" in sys.modules
        game = type(locclab.game).__name__
        bracket = locclab.bound_bracket
        print(json.dumps({{"before": before, "numpy": numpy, "game": game,
                          "bound": vars(locclab).get("bound_bracket") is bracket,
                          "after": {loaded("locclab")}}}))
        """)
    assert rec["before"] == ["locclab"]
    assert not rec["numpy"]
    # a submodule loads on its first read, and so does an exported name,
    # which is then bound in the package namespace
    assert rec["game"] == "module"
    assert rec["bound"]
    assert "locclab.game" in rec["after"] and "locclab.sdp" in rec["after"]


@pytest.fixture(scope="module")
def bracket_child() -> dict:
    """The modules a fresh interpreter holds after one certified bracket."""
    return run_child(f"""
        import json, sys
        from locclab import HidingPairSpec, bound_bracket, make_hiding_pair
        bracket = bound_bracket(*make_hiding_pair(HidingPairSpec(d=2)))
        print(json.dumps({{"locclab": {loaded("locclab")},
                          "scipy": {loaded("scipy")},
                          "ppt": bracket.ppt_upper}}))
        """)


def test_bracket_loads_no_game_layer(bracket_child):
    assert not {"locclab.game", "locclab.protocols",
                "locclab.cli"} & set(bracket_child["locclab"])
    assert {"locclab.sdp", "locclab.distinguish"} <= set(bracket_child["locclab"])
    assert abs(bracket_child["ppt"] - 5 / 6) <= 1e-6


def test_bracket_loads_no_scipy_package(bracket_child):
    # the solver found scipy without running its package init
    assert "scipy" not in bracket_child["scipy"]
    assert bracket_child["scipy"] == ["scipy.linalg._flapack"]


def test_commands_other_than_bounds_load_no_solver(tmp_path):
    rec = run_child(f"""
        import contextlib, io, json, sys
        import locclab.cli
        out = sys.argv[1]
        commands = [
            ["helstrom", "--family", "werner", "--d", "2"],
            ["simulate", "--protocol", "memory-block", "--d1", "2",
             "--lambda", "0.5", "--d2", "4", "--n-block", "8", "--rounds",
             "16", "--trials", "2"],
            ["rate", "--protocol", "iid", "--p", "0.6", "--r", "0.5",
             "--n-list", "4,8", "--trials", "2"],
            ["detect", "--n", "10", "--trials", "3"],
            ["concentrate", "--lambda", "0.5", "--d2", "2", "--n", "2",
             "--target", "1.0"],
            ["entropy", "--lambda", "0.5", "--d2", "8", "--d1", "2"],
            ["construct", "--family", "werner", "--d", "2", "--out", out],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [locclab.cli.main(argv) for argv in commands]
        print(json.dumps({{"codes": codes, "locclab": {loaded("locclab")},
                          "scipy": {loaded("scipy")}}}))
        """, str(tmp_path / "werner"))
    assert rec["codes"] == [0] * 7
    assert not {"locclab.sdp", "locclab.distinguish"} & set(rec["locclab"])
    assert rec["scipy"] == []


def test_solve_without_scipy_raises_module_not_found():
    rec = run_child("""
        import importlib.util, json
        from locclab import HidingPairSpec, bound_bracket, make_hiding_pair
        pair = make_hiding_pair(HidingPairSpec(d=2))
        importlib.util.find_spec = lambda *args, **kwargs: None
        try:
            bound_bracket(*pair)
            raised = None
        except ModuleNotFoundError as exc:
            raised = exc.name
        print(json.dumps({"raised": raised}))
        """)
    assert rec["raised"] is not None and rec["raised"].startswith("scipy")


class TestNamespace:
    def test_every_name_is_the_defining_modules_object(self):
        for name in locclab.__all__:
            value = getattr(locclab, name)
            module = sys.modules[value.__module__]
            assert module is not locclab, name
            assert getattr(module, name) is value, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from locclab import *", namespace)
        for name in locclab.__all__:
            assert namespace[name] is getattr(locclab, name), name

    def test_dir_lists_every_name(self):
        assert set(locclab.__all__) <= set(dir(locclab))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match=(
                r"^module 'locclab' has no attribute 'no_such_name'$")):
            locclab.no_such_name  # noqa: B018
