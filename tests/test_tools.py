"""The comparison tools under tools/: the parity panel's ``--compare`` and
bench_pairs' seed list, summary and verdicts, on hand-written inputs (no
benchmark run), and the panel's bracket record on one d = 2 Werner
bracket."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest

import locclab

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity_panel = load_tool("parity_panel")
bench_pairs = load_tool("bench_pairs")


def objective(value: float) -> dict:
    """A record entry in the panel's encoding: floats in hex, arrays as
    raw bytes."""
    return {"sdp": {"value": {"float": value.hex()}, "steps": 12,
                    "optimizer": {"dtype": "<f8", "shape": [2],
                                  "hex": (b"\x00" * 16).hex()}},
            "closure": {"size": 4, "blocks": [[2, 1]]}}


def write_record(path: Path, objectives: dict) -> Path:
    path.write_text(json.dumps({"objectives": objectives}, sort_keys=True),
                    encoding="utf-8")
    return path


def compare(capsys, tmp_path, a: dict, b: dict) -> tuple[int, str]:
    code = parity_panel.main(["--compare",
                              str(write_record(tmp_path / "a.json", a)),
                              str(write_record(tmp_path / "b.json", b))])
    return code, capsys.readouterr().out


class TestParityCompare:
    def test_identical_records(self, capsys, tmp_path):
        record = {"werner-2": objective(0.75), "werner-3": objective(2 / 3)}
        code, out = compare(capsys, tmp_path, record, dict(record))
        assert code == 0
        assert out.splitlines() == ["werner-2: bit-identical",
                                    "werner-3: bit-identical",
                                    "# 2 of 2 objectives bit-identical"]

    def test_one_ulp_is_a_difference(self, capsys, tmp_path):
        moved = math.nextafter(2 / 3, 1.0)
        code, out = compare(capsys, tmp_path,
                            {"werner-2": objective(0.75),
                             "werner-3": objective(2 / 3)},
                            {"werner-2": objective(0.75),
                             "werner-3": objective(moved)})
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "werner-2: bit-identical"
        assert lines[1].startswith("werner-3: sdp.value ")
        assert float(lines[1].split()[-1]) == pytest.approx(moved - 2 / 3,
                                                             rel=1e-2)
        assert lines[2] == "# 1 of 2 objectives bit-identical"

    def test_objective_in_one_record_only(self, capsys, tmp_path):
        code, out = compare(capsys, tmp_path,
                            {"werner-2": objective(0.75),
                             "werner-3": objective(2 / 3)},
                            {"werner-2": objective(0.75)})
        assert code == 1
        assert f"werner-3: only in {tmp_path / 'a.json'}" in out.splitlines()
        assert out.splitlines()[-1] == "# 1 of 2 objectives bit-identical"


class TestBracketFields:
    def test_witness_record_holds_every_protocol_field(self):
        # a field added to or dropped from the protocol cannot fall out of
        # the parity record unnoticed
        pair = locclab.make_hiding_pair(locclab.HidingPairSpec(d=2))
        witness = parity_panel.bracket_fields(locclab, *pair)["witness"]
        assert set(witness) == {f.name for f in
                                dataclasses.fields(locclab.OneWayProtocol)}


class TestParseSeeds:
    def test_ranges_and_singles(self):
        assert bench_pairs.parse_seeds("201-204,301") == [201, 202, 203, 204,
                                                           301]

    @pytest.mark.parametrize("text", ["201-204,203", "7,7", "301"])
    def test_repeated_or_single_seed(self, text):
        with pytest.raises(bench_pairs.PairError):
            bench_pairs.parse_seeds(text)

    @pytest.mark.parametrize("text", ["201-204,310-305", "-3,4", "a,b",
                                      "201-,205", "1.5,2", ""])
    def test_malformed_part(self, text):
        # a descending range would yield no seeds and shrink the series
        with pytest.raises(bench_pairs.PairError, match="neither a seed"):
            bench_pairs.parse_seeds(text)

    def test_malformed_seeds_exit_one(self, tmp_path, capsys):
        code = bench_pairs.main(["--workload", "brackets", "--parent",
                                 str(tmp_path), "--change", str(tmp_path),
                                 "--label", "x", "--seeds=-3,4"])
        assert code == 1
        assert capsys.readouterr().err.startswith("bench_pairs: seeds '-3,4'")


class TestSummary:
    def test_wins_split_by_the_side_that_ran_first(self):
        first = ["parent", "change"] * 3
        records = {
            "parent": {"first": first,
                       "series": {"setup_s": [2.0, 2.0, 2.0, 2.0, 2.0, 2.0]},
                       "items": {"werner-d2": [1.0] * 6}},
            "change": {"first": first,
                       "series": {"setup_s": [1.0, 3.0, 1.0, 1.0, 1.0, 3.0]},
                       "items": {"werner-d2": [0.5] * 6}},
        }
        metric, verdict, item = bench_pairs.summary(records, END_TO_END)
        assert metric.endswith("change lower in 4/6 pairs "
                               "(3/3 parent first, 1/3 change first)")
        assert metric.startswith("setup_s      parent 2 [2, 2] change 1 [1, ")
        assert verdict == " " * 13 + bench_pairs.verdicts(
            [2.0] * 6, [1.0, 3.0, 1.0, 1.0, 1.0, 3.0], END_TO_END[0])
        assert item.endswith("change lower in 6/6")


# the end_to_end entries bench_pairs reads from BENCHMARK.json
END_TO_END = [{"name": "setup_s", "unit": "s", "better": "lower",
               "bound": 0.25},
              {"name": "rate", "unit": "1/s", "better": "higher",
               "bound": 0.1}]


class TestVerdicts:
    PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def verdict(self, other, metric=0, parent=None):
        return bench_pairs.verdicts(parent or self.PARENT, other,
                                    END_TO_END[metric])

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        # the parent's quartiles are 9.875 and 10.125: an IQR of 0.25
        nine = [5.0] * 9 + [11.0]
        assert self.verdict(nine).startswith(
            "gain met (better in 9/10 pairs, medians 5 apart, parent IQR 0.25)")
        eight = [5.0] * 8 + [11.0, 11.0]
        assert self.verdict(eight).startswith("gain not met (better in 8/10")

    def test_ties_count_for_neither_side(self):
        tied = [5.0] * 8 + self.PARENT[8:]
        assert self.verdict(tied).startswith("gain not met (better in 8/10")

    def test_gain_needs_medians_apart_by_more_than_the_iqr(self):
        close = [p - 0.2 for p in self.PARENT]
        assert self.verdict(close).startswith(
            "gain not met (better in 10/10 pairs")
        assert self.verdict([p - 0.3 for p in self.PARENT]).startswith(
            "gain met (better in 10/10 pairs")

    def test_higher_is_better(self):
        rate = [p + 1.0 for p in self.PARENT]
        assert self.verdict(rate, metric=1).startswith(
            "gain met (better in 10/10")
        assert self.verdict(self.PARENT[::-1], metric=1, parent=rate) \
            .startswith("gain not met (better in 0/10")

    def test_bound(self):
        # setup_s: lower is better, 25% bound on 10.0
        assert "within bound (median +25.00%" in self.verdict(
            [p * 1.25 for p in self.PARENT])
        assert "beyond bound (median +26.00%" in self.verdict(
            [p * 1.26 for p in self.PARENT])
        assert "within bound (median -50.00%" in self.verdict(
            [p * 0.5 for p in self.PARENT])
        # rate: higher is better, 10% bound
        assert "within bound (median -10.00%" in self.verdict(
            [p * 0.9 for p in self.PARENT], metric=1)
        assert "beyond bound (median -11.00%" in self.verdict(
            [p * 0.89 for p in self.PARENT], metric=1)


def results_record(passes: list[dict], p50: float, tail: float) -> dict:
    """A runner results record: per pass its scale and (label, s) items,
    and the two item metrics."""
    return {"passes_detail": [
                {"scale": scale, "items": [{"label": label, "s": s}
                                           for label, s in items]}
                for scale, items in passes],
            "metrics": {"item_p50_s": {"value": p50, "unit": "s"},
                        "item_tail_s": {"value": tail, "unit": "s"}}}


class TestMetricItems:
    # two passes, scale 2 and 1: scaled latencies 0.2 a, 0.6 b, 1.0 c,
    # 0.3 a, 0.5 b, 0.9 c
    PASSES = [(2.0, [("a", 0.1), ("b", 0.3), ("c", 0.5)]),
              (1.0, [("a", 0.3), ("b", 0.5), ("c", 0.9)])]

    def test_median_of_an_even_count_names_both_middle_items(self):
        # sorted 0.2 a, 0.3 a, 0.5 b, 0.6 b, 0.9 c, 1.0 c: the median 0.55
        # is the mean of the two b latencies; the tail is a c latency
        record = results_record(self.PASSES, 0.55, 0.9)
        assert bench_pairs.metric_items(record) == {
            "item_p50_s": ["b", "b"], "item_tail_s": ["c"]}

    def test_median_between_two_items(self):
        passes = [(1.0, [("a", 0.3), ("d", 0.4), ("b", 0.5), ("c", 0.9)])]
        record = results_record(passes, 0.45, 0.3)
        assert bench_pairs.metric_items(record) == {
            "item_p50_s": ["d", "b"], "item_tail_s": ["a"]}

    def test_odd_count_names_the_middle_item(self):
        passes = [(1.0, [("a", 0.3), ("b", 0.5), ("c", 0.9)])]
        assert bench_pairs.metric_items(results_record(passes, 0.5, 0.9)) == {
            "item_p50_s": ["b"], "item_tail_s": ["c"]}

    def test_item_medians_are_scaled(self):
        record = results_record(self.PASSES, 0.55, 0.9)
        assert bench_pairs.item_medians(record) == pytest.approx(
            {"a": 0.25, "b": 0.55, "c": 0.95})

    def test_summary_names_the_setters_per_side(self):
        first = ["parent", "change"] * 2
        records = {
            side: {"first": first,
                   "series": {"item_p50_s": values},
                   "set_by": set_by, "items": {}}
            for side, values, set_by in (
                ("parent", [2.0, 2.1, 2.0, 2.2],
                 [{"item_p50_s": ["x"]}] * 4),
                ("change", [1.0, 1.1, 1.0, 1.2],
                 [{"item_p50_s": ["y"]}] * 3 + [{"item_p50_s": ["x", "y"]}]))}
        lines = bench_pairs.summary(records, [
            {"name": "item_p50_s", "unit": "s", "better": "lower",
             "bound": 0.25}])
        assert len(lines) == 3
        assert lines[2] == " " * 13 + ("set by: parent x x4; change y x3, "
                                       "x/y x1")


# a stand-in for perfbench/run.py: two passes of items a, b, c whose
# latencies follow the seed, the runner's results record, its "# machine"
# line and its result line
FAKE_RUNNER = '''
import json, statistics, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
workload = sys.argv[sys.argv.index("--workload") + 1]
passes = [{"scale": 1.0, "items": [{"label": label, "s": s * seed}
                                   for label, s in items]}
          for items in ([("a", 0.1), ("b", 0.3), ("c", 0.5)],
                        [("a", 0.2), ("b", 0.4), ("c", 0.9)])]
lat = sorted(i["s"] for p in passes for i in p["items"])
metrics = {name: {"value": value, "unit": unit} for name, value, unit in (
    ("setup_s", 0.1, "s"), ("item_p50_s", statistics.median(lat), "s"),
    ("item_tail_s", lat[-2], "s"))}
out = Path(".perfbench_out", "results")
out.mkdir(parents=True, exist_ok=True)
(out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(
    {"metrics": metrics, "passes_detail": passes}))
print("# machine " + json.dumps({"nproc": 2}))
print(json.dumps({"correct": True, "attempted": 6, "failed": 0,
                  "metrics": metrics}))
'''


class TestMain:
    def test_pairs_record_and_print_the_item_setters(self, tmp_path, capsys):
        sides = {}
        for side in bench_pairs.SIDES:
            checkout = sides[side] = tmp_path / side
            (checkout / "perfbench").mkdir(parents=True)
            (checkout / "perfbench" / "run.py").write_text(FAKE_RUNNER)
            (checkout / "BENCHMARK.json").write_text(json.dumps(
                {"run_seconds": 1, "end_to_end": END_TO_END + [
                    {"name": name, "unit": "s", "better": "lower",
                     "bound": 0.25} for name in bench_pairs.ITEM_METRICS]}))
        code = bench_pairs.main(["--parent", str(sides["parent"]),
                                 "--change", str(sides["change"]),
                                 "--label", "fake", "--seeds", "1,2"])
        assert code == 0
        record = json.loads((sides["change"] / "BENCH_fake-change.json")
                            .read_text())
        # latencies 0.1 a, 0.2 a, 0.3 b, 0.4 b, 0.5 c, 0.9 c (times the
        # seed): the median straddles the two b items, the tail is a c
        assert record["set_by"] == [{"item_p50_s": ["b", "b"],
                                     "item_tail_s": ["c"]}] * 2
        assert record["item_medians"] == pytest.approx(
            {"a": 0.225, "b": 0.525, "c": 1.05})
        out = capsys.readouterr().out.splitlines()
        assert out.count(" " * 13 + "set by: parent b/b x2; change b/b x2") == 1
        assert out.count(" " * 13 + "set by: parent c x2; change c x2") == 1
