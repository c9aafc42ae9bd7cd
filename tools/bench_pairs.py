"""Compare two checkouts with alternating pairs of benchmark runs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --label narrow-law --workload game-protocols \\
        --seeds 201-208,301-306

For each seed, ``python3 perfbench/run.py --workload W --seed S --trace 0``
runs once in each checkout, one after the other, for the run length that
checkout's ``BENCHMARK.json`` sets (``run_seconds``). The parent
runs first on the seeds at even positions of the list and the change on
the others, so neither side always meets the machine in the state the
other one left it.

Each side gets ``BENCH_<label>-parent.json`` or ``BENCH_<label>-change.json``
at the root of the change checkout. A file holds the runner's
``# machine`` facts, the digest of the checkout's uncommitted diff (null
when there is none), the seeds, which side ran first for each of them,
every pair's end-to-end metric values, the per-item medians of each
run and, per run, the items that set ``item_p50_s`` and ``item_tail_s``
(``set_by``). Its ``result`` holds the median over the pairs of each
metric, in the runner's result-line format.

The summary it prints gives each metric two verdicts, read from the
change checkout's ``BENCHMARK.json`` (``end_to_end``: ``better`` and
``bound``): whether the change shows a gain (better in at least nine
tenths of the pairs, ties counting for neither, and medians apart by more
than the parent's interquartile range) and whether its median stays
within the metric's bound of the parent's. Under ``item_p50_s`` and
``item_tail_s`` it names the items that set them on each side, since
either is one item's latency and moves when a single item crosses it.

It stops and exits 1 at the first run that exits non-zero or reports a
failed item, and then writes no file.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class PairError(Exception):
    pass


def parse_seeds(text: str) -> list[int]:
    """'201-204,301' -> [201, 202, 203, 204, 301]. Each part is a seed
    >= 0 or an ascending range lo-hi; anything else raises PairError, so
    a series never shrinks unnoticed."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.strip().partition("-")
        hi = hi if dash else lo
        if not (lo.isdecimal() and hi.isdecimal()) or int(hi) < int(lo):
            raise PairError(f"seeds {text!r}: {part!r} is neither a seed >= 0 "
                            "nor an ascending range lo-hi")
        seeds.extend(range(int(lo), int(hi) + 1))
    if len(seeds) < 2 or len(set(seeds)) != len(seeds):
        raise PairError(f"seeds {text!r}: need two or more, none repeated")
    return seeds


def diff_digest(checkout: Path) -> str | None:
    """SHA-256 of ``git diff --binary HEAD`` in ``checkout``; None when the
    tracked files match HEAD or the checkout is not a git repository."""
    proc = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=checkout,
                          capture_output=True, timeout=60)
    if proc.returncode != 0 or not proc.stdout:
        return None
    return hashlib.sha256(proc.stdout).hexdigest()


def benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_seconds(checkout: Path) -> int:
    """The run length the checkout's benchmark sets, which run.py uses
    when it gets no --seconds."""
    return int(benchmark(checkout)["run_seconds"])


def results_record(checkout: Path, workload: str, seed: int) -> dict:
    """perfbench/run.py's own results record of a run
    (``.perfbench_out/results/<workload>-seed<seed>-trace0.json``).

    ``item_medians`` and ``metric_items`` read its ``passes_detail`` ->
    ``items`` -> ``label`` and ``s``, each pass's ``scale`` and its
    ``metrics``, so they depend on that record's layout and are the only
    places here that do. Once the runner exports per-item figures itself
    (ROADMAP *Export*), take them from there and delete these."""
    path = (checkout / ".perfbench_out" / "results"
            / f"{workload}-seed{seed}-trace0.json")
    return json.loads(path.read_text(encoding="utf-8"))


def scaled_items(record: dict) -> list[tuple[float, str]]:
    """(scaled latency, label) of every item of every pass, ascending: the
    latencies the runner takes ``item_p50_s`` and ``item_tail_s`` from."""
    return sorted((item["s"] * rec["scale"], item["label"])
                  for rec in record["passes_detail"] for item in rec["items"])


def item_medians(record: dict) -> dict:
    """Median scaled latency of each item label over the run's passes."""
    times: dict[str, list[float]] = {}
    for s, label in scaled_items(record):
        times.setdefault(label, []).append(s)
    return {label: statistics.median(v) for label, v in sorted(times.items())}


# the end-to-end metrics that are one item's latency, or the mean of two
ITEM_METRICS = ("item_p50_s", "item_tail_s")


def metric_items(record: dict) -> dict[str, list[str]]:
    """The labels of the items that set each of ``ITEM_METRICS`` in a run:
    the one item whose scaled latency is the metric's value, or, for a
    median of an even count, the two whose latencies straddle it.
    ``item_p50_s`` is one item's median, so a claim on it can move because
    a single item crosses it, and its report should say which item."""
    items = scaled_items(record)
    latencies = [s for s, _ in items]
    found = {}
    for name in ITEM_METRICS:
        value = record["metrics"][name]["value"]
        hi = bisect.bisect_left(latencies, value)
        if hi < len(items) and latencies[hi] == value:
            found[name] = [items[hi][1]]
        else:
            found[name] = [items[hi - 1][1], items[hi][1]]
    return found


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * run_seconds(checkout) + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PairError(f"{checkout} seed {seed} exited {proc.returncode}:\n"
                        f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        failures = [ln for ln in lines if ln.startswith("# FAILED")]
        raise PairError(f"{checkout} seed {seed}: {result['failed']} failed "
                        "items\n" + "\n".join(failures))
    machine = next(json.loads(ln[len("# machine "):]) for ln in lines
                   if ln.startswith("# machine "))
    record = results_record(checkout, workload, seed)
    return {"machine": machine, "result": result,
            "items": item_medians(record), "set_by": metric_items(record)}


def side_record(side: str, args, seconds: int, seeds: list[int],
                first: list, runs: list[dict], diff: str | None) -> dict:
    machines = [r["machine"] for r in runs]
    if any(m != machines[0] for m in machines):
        raise PairError(f"{side}: machine facts changed between runs")
    names = list(runs[0]["result"]["metrics"])
    series = {n: [r["result"]["metrics"][n]["value"] for r in runs]
              for n in names}
    items = {k: [r["items"][k] for r in runs] for k in runs[0]["items"]}
    return {
        "label": f"{args.label}-{side}",
        "command": (f"python3 perfbench/run.py --workload {args.workload} "
                    f"--seed <seed> --seconds {seconds} --trace 0"),
        "machine": machines[0],
        "diff_sha256": diff,
        "seeds": seeds,
        "first": first,
        "series": series,
        "items": items,
        "item_medians": {k: statistics.median(v) for k, v in items.items()},
        "set_by": [r["set_by"] for r in runs],
        "result": {
            "correct": True,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": 0,
            "metrics": {n: {"value": statistics.median(series[n]),
                            "unit": runs[0]["result"]["metrics"][n]["unit"]}
                        for n in names},
        },
    }


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def verdicts(values: list[float], other: list[float], metric: dict) -> str:
    """The gain and bound verdicts of the change's series ``other`` against
    the parent's ``values`` on one ``end_to_end`` metric of BENCHMARK.json.

    Gain: the change is better (by the metric's ``better``) in at least
    nine tenths of the pairs, ties counting for neither, and its median is
    better by more than the distance between the parent's quartiles.
    Bound: the change's median is worse than the parent's by at most the
    metric's ``bound``, a fraction of the parent's median.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(values, other))
    base, med = statistics.median(values), statistics.median(other)
    q1, _, q3 = statistics.quantiles(values, n=4)
    gain = 10 * wins >= 9 * len(values) and sign * (base - med) > q3 - q1
    change = (med - base) / base
    return (f"gain {'met' if gain else 'not met'} (better in {wins}/"
            f"{len(values)} pairs, medians {abs(med - base):.6g} apart, "
            f"parent IQR {q3 - q1:.6g}); "
            f"{'within' if sign * change <= metric['bound'] else 'beyond'} "
            f"bound (median {change:+.2%}, bound {metric['bound']:.0%}, "
            f"{metric['better']} is better)")


def setters(runs: list[dict], name: str) -> str:
    """'a x7, a/b x3': how often each item, or each straddling pair of
    items, set the metric ``name`` over a side's runs."""
    counts = collections.Counter("/".join(run[name]) for run in runs)
    return ", ".join(f"{key} x{n}" for key, n in
                     sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def summary(records: dict, end_to_end: list[dict]) -> list[str]:
    """Two lines per metric: each side's median and quartiles and the pairs
    where the change is lower, in all and split by the side that ran
    first, then the metric's ``verdicts`` by its ``end_to_end`` entry,
    and for each of ``ITEM_METRICS`` a third: the items that set it in
    each side's runs (``metric_items``); one line per item: the
    medians."""
    parent, change = records["parent"], records["change"]
    metrics = {m["name"]: m for m in end_to_end}
    first = parent["first"]
    lines = []
    for name, values in parent["series"].items():
        other = change["series"][name]
        lower = [c < p for p, c in zip(values, other)]
        split = ", ".join(
            f"{sum(w for w, f in zip(lower, first) if f == side)}/"
            f"{first.count(side)} {side} first" for side in SIDES)
        lines.append(f"{name:<12} parent {quartiles(values)} change "
                     f"{quartiles(other)}  change lower in "
                     f"{sum(lower)}/{len(values)} pairs ({split})")
        lines.append(f"{'':<12} {verdicts(values, other, metrics[name])}")
        if name in ITEM_METRICS:
            lines.append(f"{'':<12} set by: parent "
                         f"{setters(parent['set_by'], name)}; change "
                         f"{setters(change['set_by'], name)}")
    for label, values in parent["items"].items():
        other = change["items"][label]
        lower = sum(c < p for p, c in zip(values, other))
        lines.append(f"  item {label:<36} parent "
                     f"{statistics.median(values):.4g} s change "
                     f"{statistics.median(other):.4g} s  change lower in "
                     f"{lower}/{len(values)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", default="game-protocols")
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
        dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        diffs = {side: diff_digest(d) for side, d in dirs.items()}
        runs = {side: [] for side in SIDES}
        first = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                runs[side].append(run_side(dirs[side], args.workload, seed))
            print(f"# seed {seed} done ({order[0]} first)", flush=True)
        records = {side: side_record(side, args, run_seconds(dirs[side]),
                                     seeds, first, runs[side], diffs[side])
                   for side in SIDES}
    except PairError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    for side, record in records.items():
        path = dirs["change"] / f"BENCH_{args.label}-{side}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"# wrote {path}")
    print("\n".join(summary(records,
                             benchmark(dirs["change"])["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
