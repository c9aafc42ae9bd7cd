"""locclab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from the root of a source checkout: locclab is imported from
``src/`` of that checkout, never from an installed copy, and the run
exits 2 without a result when that source is missing.

A run is one process, closed loop: each item starts when the previous
one returned. It makes a fixed number of passes, max(2, round(S /
nominal pass time)), so two commits measured with the same --seconds do
the same work. Each pass draws fresh inputs from (seed, pass index). With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics. The end-to-end timings are scaled to
a reference machine speed measured by a probe between items (speed.py);
the measured values are printed beside them. The last stdout line is the result
JSON; the lines before it are the human-readable report, and the full
record (machine facts, per-pass numbers, spans) goes to
``.perfbench_out/results/``.

BLAS is pinned to one thread, so the process never runs more than two
threads at once (the CLI's ``--threads 2`` pool) on the 2-core reference
machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, CommandFailed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 4
# speed probes taken before and after each set-up child
SETUP_PROBES = 5
# an item-latency tail needs at least this many samples beyond it
TAIL_BEYOND = 10

# Measured in a fresh interpreter: import locclab, then the workload's
# first (warm-up) call. Printed as JSON on the child's last line.
_SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import locclab
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import workloads
workloads.WORKLOADS[sys.argv[1]].warmup(locclab)
t2 = time.perf_counter()
print(json.dumps({"file": locclab.__file__, "import_s": t1 - t0,
                  "warmup_s": t2 - t1, "setup_s": t2 - t0}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing source, bad spec)."""


def _from_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def load_locclab():
    if not (SRC / "locclab" / "__init__.py").is_file():
        raise BenchError(f"no locclab source under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import locclab
    import locclab.cli
    if not _from_checkout(locclab.__file__):
        raise BenchError(f"imported locclab from {locclab.__file__}, not {SRC}")
    return locclab


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing; run from a checkout root")
    return json.loads(path.read_text(encoding="utf-8"))


def measure_setup(name: str) -> dict:
    """One fresh interpreter: import locclab, then the warm-up call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, name, str(BENCH_DIR)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not _from_checkout(rec["file"]):
        raise BenchError(f"set-up child imported {rec['file']}")
    return rec


def machine_facts() -> dict:
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "locclab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def run_passes(L, wl, seed: int, passes: int, traced: list, work: Path,
               setup: list):
    """Run the passes; return one record per pass plus the tracer.

    When ``setup`` is a list, SETUP_RUNS set-up children are appended to
    it, spread over the gaps before, between and after the passes, so
    that their median samples the whole run rather than one moment of a
    machine whose speed drifts.

    A speed probe runs before every item and around every set-up child;
    each pass and each child records the scale factor of its own probes
    (see speed.py). Probe time is left out of the pass time."""
    tracer = Tracer()
    probe = SpeedProbe()
    records = []
    gaps = passes + 1
    children = [SETUP_RUNS // gaps + (g < SETUP_RUNS % gaps) for g in range(gaps)]
    for k in range(gaps):
        if setup is not None:
            for _ in range(children[k]):
                probes = [probe.once() for _ in range(SETUP_PROBES)]
                rec = measure_setup(wl.name)
                probes += [probe.once() for _ in range(SETUP_PROBES)]
                rec["scale"] = probe.factor(probes)
                setup.append(rec)
        if k == passes:
            break
        rng = np.random.default_rng([seed, k])
        items = wl.items(L, rng, work, (k, passes))
        ctx = wl.new_context(work)
        done = []
        probes = []
        probe_s = 0.0
        if traced[k]:
            tracer.install(L, L.cli)
        start = perf_counter()
        for i, item in enumerate(items):
            t0 = perf_counter()
            probes.append(probe.once())
            probe_s += perf_counter() - t0
            tracer.item = (k, i)
            t0 = perf_counter()
            try:
                result = item.call()
                bad = None
            except (L.LoccLabError, CommandFailed) as exc:
                bad = [f"{type(exc).__name__}: {exc}"]
            dt = perf_counter() - t0
            if bad is None:
                try:
                    bad = item.check(result, ctx)
                except L.LoccLabError as exc:
                    bad = [f"check raised {type(exc).__name__}: {exc}"]
                del result
            done.append({"label": item.label, "s": dt, "failures": bad,
                         "cli_rounds": item.rounds if item.cli else None})
        wall = perf_counter() - start - probe_s
        tracer.uninstall()
        failed = any(d["failures"] for d in done)
        facts = {} if failed else wl.pass_facts(
            {d["label"]: d["s"] for d in done}, ctx)
        cli = [d for d in done if d["cli_rounds"] is not None]
        if cli:
            facts["cli.rounds_per_s"] = (sum(d["cli_rounds"] for d in cli)
                                         / sum(d["s"] for d in cli))
        if "cert_gap_max" in ctx:
            facts["cert_gap_max"] = ctx["cert_gap_max"]
        records.append({"pass": k, "traced": traced[k], "wall_s": wall,
                        "scale": probe.factor(probes), "probes": probes,
                        "items": done, "facts": facts})
    return records, tracer


def median_facts(records: list) -> dict:
    keys = sorted({k for r in records for k in r["facts"]})
    return {k: statistics.median(r["facts"][k] for r in records
                                 if k in r["facts"]) for k in keys}


def _timings(records: list, setup: list, scaled: bool) -> dict:
    """The timing metrics, as measured or scaled to reference speed."""
    def f(rec):
        return rec["scale"] if scaled else 1.0
    walls = [r["wall_s"] * f(r) for r in records]
    lat = sorted(d["s"] * f(r) for r in records for d in r["items"])
    return {
        "setup_s": statistics.median(s["setup_s"] * f(s) for s in setup),
        "pass_s": statistics.median(walls),
        "pass_q": statistics.quantiles(walls, n=4),
        "item_p50_s": statistics.median(lat),
        "item_tail_s": lat[len(lat) - TAIL_BEYOND - 1],
    }


def end_to_end(records: list, setup: list) -> tuple[dict, list]:
    n = sum(len(r["items"]) for r in records)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} items; the tail needs more than {TAIL_BEYOND}")
    tail_pct = 100.0 * (n - TAIL_BEYOND) / n
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = _timings(records, setup, scaled=True)
    raw = _timings(records, setup, scaled=False)
    values["peak_rss_mb"] = peak
    q1, _, q3 = values.pop("pass_q")
    scales = [r["scale"] for r in records] + [s["scale"] for s in setup]
    import_s = statistics.median(s["import_s"] for s in setup)
    warm_s = statistics.median(s["warmup_s"] for s in setup)
    lines = [
        f"speed scale  {min(scales):.3f}..{max(scales):.3f} over {len(records)} "
        f"passes and {len(setup)} set-ups (reference probe / measured probe); "
        f"times below are scaled, measured in brackets",
        f"setup_s      {values['setup_s']:.4f} s   [{raw['setup_s']:.4f}] median "
        f"of {len(setup)} fresh interpreters (measured: import {import_s:.4f} s "
        f"+ warm-up {warm_s:.4f} s)",
        f"pass_s       {values['pass_s']:.4f} s   [{raw['pass_s']:.4f}] median "
        f"of {len(records)} passes, q1 {q1:.4f} q3 {q3:.4f}",
        f"item_p50_s   {values['item_p50_s']:.4f} s   [{raw['item_p50_s']:.4f}] "
        f"n={n} items",
        f"item_tail_s  {values['item_tail_s']:.4f} s   [{raw['item_tail_s']:.4f}] "
        f"p{tail_pct:.1f}, n={n}, {TAIL_BEYOND} beyond",
        f"peak_rss_mb  {peak:.1f} MB  n=1, getrusage of this process",
    ]
    values.update({f"measured.{k}": v for k, v in raw.items() if k != "pass_q"})
    facts = median_facts(records)
    if "cli.rounds_per_s" in facts:
        lines.append(f"rounds_per_s {facts['cli.rounds_per_s']:.1f} 1/s  median "
                     f"of {len(records)} passes, CLI game commands only "
                     f"(measured)")
    if "cert_gap_max" in facts:
        gap = max(r["facts"]["cert_gap_max"] for r in records
                  if "cert_gap_max" in r["facts"])
        lines.append(f"cert_gap_max {gap:.6g}   max over {len(records)} passes")
    return values, lines


# harness-measured facts that only the trials part produces
_TRIALS_FACTS = ("cli.write_s", "cli.threads2_over_1", "cli.artifact_bytes",
                 "cli.lib_rate_gap", "cli.rounds_per_s")


def per_layer(records: list, tracer: Tracer) -> tuple[dict, list]:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    per_pass = []
    for r in traced:
        spans = [s for s in tracer.spans if s.item[0] == r["pass"]]
        per_pass.append(layer_metrics(spans, r["wall_s"]))
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    facts = median_facts(records)
    facts.pop("cert_gap_max", None)
    values.update({k: 0.0 for k in _TRIALS_FACTS})
    values.update(facts)
    values["trace.pass_s"] = statistics.median(r["wall_s"] for r in traced)
    untraced_s = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_s"] = values["trace.pass_s"] - untraced_s
    lines = [f"tracing overhead {values['trace.overhead_s']:+.4f} s per pass "
             f"(traced {values['trace.pass_s']:.4f} s, median of {len(traced)}; "
             f"untraced {untraced_s:.4f} s, median of {len(plain)}); "
             f"{len(tracer.spans)} spans",
             f"layer self times + harness self time = "
             f"{values['trace.self_cover']:.4f} x traced pass_s"]
    if "cli.rate_cli_frac" in facts:
        lines.append(
            f"cli.lib_rate_gap {values['cli.lib_rate_gap']:+.4f}: CLI rate "
            f"{facts['cli.rate_cli_frac']:.4f} ({facts['cli.rate_cli_trials']:.0f} "
            f"trials) vs estimate_rate {facts['cli.rate_lib_frac']:.4f} "
            f"({facts['cli.rate_lib_trials']:.0f} trials)")
    return values, lines


def run_one(args, spec) -> int:
    wl = WORKLOADS[args.workload]
    passes = max(2, round(args.seconds / wl.nominal_pass_s))
    L = load_locclab()
    setup = None if args.trace else []
    wl.warmup(L)
    facts = machine_facts()
    work = OUT / f"work-{os.getpid()}"
    traced = [bool(args.trace) and k % 2 == 1 for k in range(passes)]
    try:
        records, tracer = run_passes(L, wl, args.seed, passes, traced, work,
                                      setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r["items"]) for r in records)
    failed = sum(1 for r in records for d in r["items"] if d["failures"])
    if args.trace:
        wanted = spec["per_layer"]
        values, lines = per_layer(records, tracer)
    else:
        wanted = spec["end_to_end"]
        values, lines = end_to_end(records, setup)
    lines.append(f"failed_frac  {failed / attempted:.4g}   {failed}/{attempted} items")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}

    header = (f"# {wl.name} seed={args.seed} trace={args.trace}: {passes} "
              f"passes, {attempted} items, {failed} failed")
    print(header)
    print("# machine " + json.dumps(facts, sort_keys=True))
    for line in lines:
        print("#   " + line)
    if args.trace:
        for m in wanted:
            print(f"#   {m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    for r in records:
        for d in r["items"]:
            for msg in d["failures"]:
                print(f"# FAILED pass {r['pass']} {d['label']}: {msg}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "passes": passes,
              "machine": facts, "setup": setup, "metrics": metrics,
              "all_values": values, "passes_detail": records,
              "spans": [s.to_json() for s in tracer.spans]}
    out = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n",
                   encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise BenchError(f"{name} trace={trace} exited {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                total["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = int(spec["run_seconds"])
        if args.seconds < 1:
            raise BenchError("--seconds must be >= 1")
        if args.workload == "all":
            return run_all(args, spec)
        return run_one(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
