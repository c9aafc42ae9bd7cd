"""The comparison tools under tools/: the parity panel's ``--compare`` and
bench_pairs' seed list and summary, on hand-written inputs (no solve, no
benchmark run)."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

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


class TestParseSeeds:
    def test_ranges_and_singles(self):
        assert bench_pairs.parse_seeds("201-204,301") == [201, 202, 203, 204,
                                                           301]

    @pytest.mark.parametrize("text", ["201-204,203", "7,7", "301"])
    def test_repeated_or_single_seed(self, text):
        with pytest.raises(bench_pairs.PairError):
            bench_pairs.parse_seeds(text)


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
        metric, item = bench_pairs.summary(records)
        assert metric.endswith("change lower in 4/6 pairs "
                               "(3/3 parent first, 1/3 change first)")
        assert metric.startswith("setup_s      parent 2 [2, 2] change 1 [1, ")
        assert item.endswith("change lower in 6/6")
