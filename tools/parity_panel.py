"""Run the PPT solver on a fixed panel of objectives and record every
result bit for bit, or compare two such records.

    python3 tools/parity_panel.py --out change.json
    python3 tools/parity_panel.py --src ../parent/src --out parent.json
    python3 tools/parity_panel.py --compare parent.json change.json

The panel has 116 objectives:

- random complex and real pairs of shapes 2x2, 2x3, 3x2, 2x4, 3x3, 3x4,
  4x4 and 2x8, six seeds each (96);
- four pairs of random pure states (2x2 and 3x3 complex, 2x3 and 2x4
  real);
- the Werner hiding pairs, d = 2..5;
- the composed pairs, lambda in {0.9, 0.99, 0.999} x d2 in {2, 3, 4};
- k copies of the d = 2 Werner pair, D = 16 and D = 64;
- the diagonal 2x4 objective diag(-0.3 .. 0.4), which is not a
  difference of states and gets a solve only.

For each objective the record holds every ``SDPResult`` field of
``solve_ppt_two_outcome`` (or the ``SolverError`` message, value and
gap), the Jordan closure that solve used (its size, or null when it gave
up, its generation count and its block sizes and multiplicities) and
every ``bound_bracket`` field, the witness protocol's arrays included.
Floats are written with ``float.hex`` and arrays as their raw bytes in
hex, in canonical JSON (sorted keys), so two records of the same
results are byte-identical.

``--compare A B`` prints, per objective, either "bit-identical" or the
largest absolute difference of each numeric field that moved and every
other field that changed (iterations, coordinates, witness names), then
how many objectives are bit-identical; it exits 1 unless all are.

``--src`` puts a checkout's ``src`` first on the import path (default:
this checkout's), so one copy of the tool records any tree with the
same API. The whole panel runs in well under a minute.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4), (4, 4), (2, 8))
SEEDS = range(6)
PURE = (((2, 2), False), ((2, 3), True), ((3, 3), False), ((2, 4), True))


def random_density(rng, dim: int, real: bool) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    if not real:
        g = g + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def pure_density(rng, dim: int, real: bool) -> np.ndarray:
    v = rng.standard_normal(dim)
    if not real:
        v = v + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def werner_copies(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k copies of the Werner pair on C^d (x) C^d (normalized projectors
    onto the symmetric and antisymmetric subspaces), with the A factors
    of all copies first."""
    eye = np.eye(d * d)
    swap = eye[[b * d + a for a in range(d) for b in range(d)]]
    pair = [np.ones((1, 1)), np.ones((1, 1))]
    for _ in range(k):
        pair = [np.kron(pair[0], (eye + swap) / (d * (d + 1))),
                np.kron(pair[1], (eye - swap) / (d * (d - 1)))]
    # row axes (a1 b1 .. ak bk), then the column axes: to (a1..ak b1..bk)
    order = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    axes = order + [2 * k + i for i in order]
    return tuple(m.reshape((d,) * (4 * k)).transpose(axes).reshape(d ** (2 * k), -1)
                 for m in pair)


def panel(L) -> list[tuple[str, object]]:
    """(name, (rho0, rho1)) for the state pairs and (name, (X, dA, dB))
    for the one bare objective."""
    def bipartite(m0, m1, da, db):
        layout = L.TensorLayout((("A", da), ("B", db)))
        return L.DensityOperator(layout, m0), L.DensityOperator(layout, m1)

    out = []
    for real in (False, True):
        for da, db in SHAPES:
            for seed in SEEDS:
                rng = np.random.default_rng([seed, da, db, int(real)])
                pair = [random_density(rng, da * db, real) for _ in range(2)]
                field = "real" if real else "complex"
                out.append((f"random-{field}-{da}x{db}-s{seed}",
                            bipartite(*pair, da, db)))
    for (da, db), real in PURE:
        rng = np.random.default_rng([7, da, db, int(real)])
        pair = [pure_density(rng, da * db, real) for _ in range(2)]
        out.append((f"pure-{'real' if real else 'complex'}-{da}x{db}",
                    bipartite(*pair, da, db)))
    for d in range(2, 6):
        out.append((f"werner-d{d}", L.make_hiding_pair(L.HidingPairSpec(d=d))))
    hiding = L.make_hiding_pair(L.HidingPairSpec(d=2))
    for lam in (0.9, 0.99, 0.999):
        for d2 in (2, 3, 4):
            psi = L.make_psi(L.PsiSpec(lam=lam, d2=d2))
            out.append((f"composed-l{lam}-d2{d2}", L.make_rho_pair(hiding, psi)))
    for k in (2, 3):
        side = 2 ** k
        out.append((f"werner-copies-D{side * side}",
                    bipartite(*werner_copies(2, k), side, side)))
    out.append(("diagonal-2x4", (np.diag(np.linspace(-0.3, 0.4, 8)), 2, 4)))
    return out


def encode(value):
    """JSON form of a result field: floats in hex, arrays as raw bytes."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return {"float": float(value).hex()}
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {"dtype": arr.dtype.str, "shape": list(arr.shape),
                "hex": arr.tobytes().hex()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot record {type(value).__name__}")


def recorded_solve(L, sdp, x: np.ndarray, da: int, db: int):
    """Solve, and return (result fields, closure fields): the closure is
    the one the solve built, seen through the module's own names."""
    seen = {"closure": None, "generations": 0}
    closure, grow = sdp._jordan_closure, sdp._new_directions

    def recording(*args):
        seen["closure"] = closure(*args)
        return seen["closure"]

    def counting(*args):
        seen["generations"] += 1
        return grow(*args)

    sdp._jordan_closure, sdp._new_directions = recording, counting
    try:
        res = sdp.solve_ppt_two_outcome(x, da, db)
        fields = {name: encode(getattr(res, name)) for name in
                  ("value", "primal", "gap", "newton_steps", "coords",
                   "optimizer", "certificate")}
    except L.SolverError as exc:
        fields = {"error": str(exc), "value": encode(getattr(exc, "value", None)),
                  "gap": encode(getattr(exc, "gap", None))}
    finally:
        sdp._jordan_closure, sdp._new_directions = closure, grow
    basis = seen["closure"]
    blocks = getattr(basis, "blocks", None)
    return fields, {
        "coords": None if basis is None else int(basis.n),
        "generations": seen["generations"],
        "sizes": None if blocks is None else list(blocks.sizes),
        "mults": None if blocks is None else list(blocks.mults),
    }


def bracket_fields(L, rho0, rho1) -> dict:
    try:
        br = L.bound_bracket(rho0, rho1)
    except L.LoccLabError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    w = br.witness
    return {
        "helstrom": encode(br.helstrom), "locc_lower": encode(br.locc_lower),
        "ppt_upper": encode(br.ppt_upper), "sdp_gap": encode(br.sdp_gap),
        "witness": {"name": w.name, "first_party": w.first_party,
                    "first": encode(w.first), "cond": encode(w.cond)},
    }


def record(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import locclab as L
    from locclab import sdp
    from locclab.distinguish import bipartite_canonical
    objectives = {}
    for name, spec in panel(L):
        entry = {}
        if isinstance(spec[0], L.DensityOperator):
            rho0, rho1 = spec
            diff = L.Operator(rho0.layout, rho0.entries - rho1.entries)
            canonical, da, db = bipartite_canonical(diff)
            x = canonical.entries
            entry["bracket"] = bracket_fields(L, rho0, rho1)
        else:
            x, da, db = spec
        entry["sdp"], entry["closure"] = recorded_solve(L, sdp, x, da, db)
        objectives[name] = entry
    return {"objectives": objectives}


def decode(value):
    if isinstance(value, dict) and "float" in value:
        return float.fromhex(value["float"])
    if isinstance(value, dict) and "hex" in value:
        return np.frombuffer(bytes.fromhex(value["hex"]),
                             np.dtype(value["dtype"])).reshape(value["shape"])
    return value


def differences(a, b, path: str, out: list) -> None:
    """Append (field, largest |a - b|) for numeric fields that differ and
    (field, "a -> b") for any other change."""
    if isinstance(a, dict) and isinstance(b, dict) and not (
            {"float", "hex"} & (set(a) | set(b))):
        for key in sorted(set(a) | set(b)):
            differences(a.get(key), b.get(key), f"{path}.{key}" if path else key, out)
        return
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (u, v) in enumerate(zip(a, b)):
            differences(u, v, f"{path}[{i}]", out)
        return
    if a == b:
        return
    u, v = decode(a), decode(b)
    if isinstance(u, float) and isinstance(v, float):
        out.append((path, abs(u - v) if math.isfinite(u - v) else math.inf))
    elif (isinstance(u, np.ndarray) and isinstance(v, np.ndarray)
          and u.shape == v.shape):
        out.append((path, float(np.abs(u - v).max(initial=0.0))))
    else:
        out.append((path, f"{short(a)} -> {short(b)}"))


def short(value) -> str:
    if isinstance(value, dict) and "hex" in value:
        return f"array{tuple(value['shape'])}"
    if isinstance(value, dict) and "float" in value:
        return repr(float.fromhex(value["float"]))
    return json.dumps(value)


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text(encoding="utf-8"))["objectives"]
            for p in (path_a, path_b))
    same = 0
    for name in list(a) + [n for n in b if n not in a]:
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            continue
        found: list = []
        differences(a[name], b[name], "", found)
        if not found:
            same += 1
            print(f"{name}: bit-identical")
            continue
        parts = [f"{field} {delta:.3g}" if isinstance(delta, float)
                 else f"{field} {delta}" for field, delta in found]
        print(f"{name}: " + "; ".join(parts))
    total = len(set(a) | set(b))
    print(f"# {same} of {total} objectives bit-identical")
    return 0 if same == total else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give --out FILE or --compare A B")
    start = time.perf_counter()
    data = record(args.src.resolve())
    args.out.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
    print(f"# {len(data['objectives'])} objectives in "
          f"{time.perf_counter() - start:.1f} s -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
