"""Every ``BENCH_*.json`` at the repository root: the runner's machine
facts, the end-to-end metrics of ``BENCHMARK.json`` with their units, and,
for a series of alternating pairs, medians that are the medians of the
pairs."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# the keys of the runner's "# machine" line
MACHINE_KEYS = {"nproc", "cpus_usable", "python", "numpy", "scipy", "blas",
                "blas_threads", "commit", "src_sha256"}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


SERIES = [p for p in FILES if "series" in load(p)]
PARENTS = [p for p in FILES if p.stem.endswith("-parent")]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_label_and_machine(path):
    record = load(path)
    assert record["label"] == path.stem.removeprefix("BENCH_")
    machine = record["machine"]
    assert set(machine) == MACHINE_KEYS
    assert re.fullmatch(r"[0-9a-f]{40}", machine["commit"])
    assert re.fullmatch(r"[0-9a-f]{64}", machine["src_sha256"])


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_metrics_match_the_benchmark(path):
    result = load(path)["result"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    assert list(metrics) == list(UNITS)
    for name, metric in metrics.items():
        assert metric["unit"] == UNITS[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("path", SERIES, ids=[p.name for p in SERIES])
def test_medians_are_medians_of_the_pairs(path):
    record = load(path)
    pairs = len(record["seeds"])
    assert pairs >= 2 and len(set(record["seeds"])) == pairs
    assert len(record["first"]) == pairs
    assert set(record["first"]) <= {"parent", "change"}
    series = record["series"]
    assert list(series) == list(record["result"]["metrics"])
    for name, values in series.items():
        assert len(values) == pairs
        assert record["result"]["metrics"][name]["value"] == \
            statistics.median(values)
    assert list(record["items"]) == list(record["item_medians"])
    for label, values in record["items"].items():
        assert len(values) == pairs
        assert record["item_medians"][label] == statistics.median(values)


@pytest.mark.parametrize("parent", PARENTS, ids=[p.name for p in PARENTS])
def test_sides_of_a_pair_agree(parent):
    change = parent.with_name(parent.name.replace("-parent.json",
                                                  "-change.json"))
    a, b = load(parent), load(change)
    assert a["command"] == b["command"]
    if "series" in a or "series" in b:
        assert a["seeds"] == b["seeds"] and a["first"] == b["first"]
