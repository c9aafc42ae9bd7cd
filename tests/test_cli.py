import argparse
import csv
import errno
import gc
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    try:
        import tomli as tomllib
    except ModuleNotFoundError:
        tomllib = None

import locclab
from locclab import (
    ConfigError,
    DensityOperator,
    ParseError,
    SpecError,
    TensorLayout,
    operator_to_json,
    trace_norm,
)
from locclab import cli, game, protocols
from locclab.cli import ExperimentConfig, load_manifest, main
from locclab.game import play_trial
from locclab.stats import wilson_interval


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    return json.loads(err)["error"]


def strict_json(text: str):
    """``json.loads`` that refuses NaN, Infinity and -Infinity, which are
    not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run_usage_error(capsys, *argv):
    """The parser's rejection of argv: exit status 2, a usage message on
    stderr and nothing on stdout."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "usage: locclab" in captured.err
    return captured.err


class TestExperimentConfig:
    # the parser is the config's one schema: it rejects what no command
    # accepts before any config is built
    def test_unknown_config_field(self, capsys):
        err = run_usage_error(capsys, "helstrom", "--family", "werner",
                              "--typo", "1")
        assert "unrecognized arguments: --typo 1" in err

    def test_missing_command(self, capsys):
        run_usage_error(capsys, "--seed", "3")

    def test_unknown_parameter(self, capsys):
        err = run_usage_error(capsys, "helstrom", "--family", "werner",
                              "--rounds", "5")
        assert "unrecognized arguments: --rounds 5" in err

    def test_plumbing_validation(self, capsys):
        with pytest.raises(ConfigError):
            ExperimentConfig(command="helstrom", threads=0)
        err = run_error(capsys, "helstrom", "--family", "werner",
                        "--threads", "0")
        assert err == {"type": "ConfigError",
                       "message": "--threads must be >= 1, got 0"}
        err = run_usage_error(capsys, "helstrom", "--family", "werner",
                              "--format", "xml")
        assert "invalid choice: 'xml'" in err

    @pytest.mark.parametrize("argv, params", [
        (["detect", "--n", "10"],
         {"delta": 0.05, "mode": "catalyst-threshold", "n": 10, "p_locc": 0.75,
          "p_tau": 0.9, "trials": 100}),
        (["entropy", "--lambda", "0.5", "--d2", "4"], {"lam": 0.5, "d2": 4}),
        (["construct", "--family", "max-entangled"],
         {"family": "max-entangled"}),
    ], ids=["detect", "entropy", "construct"])
    def test_params_hold_the_parsed_flags(self, argv, params):
        # the parser's defaults are parameters; a default that lives only
        # in the command (d1, eps_prime, dim, trace_distance) stays out of
        # the config and its hash
        args = cli._build_parser().parse_args(argv)
        assert cli._config_from_args(args).params == params

    def test_physics_dict_excludes_plumbing(self):
        config = ExperimentConfig(command="helstrom", seed=7, out="x",
                                  threads=8, fmt="csv", params={"d": 2})
        phys = config.physics_dict()
        assert set(phys) == {"command", "seed", "params"}


class TestHelstromCommand:
    def test_werner_family(self, capsys):
        report = run_json(capsys, "helstrom", "--family", "werner", "--d", "2")
        assert report["p_opt"] == pytest.approx(1.0, abs=1e-12)
        assert report["trace_distance"] == pytest.approx(2.0, abs=1e-12)

    def test_pure_vs_mixed(self, capsys):
        report = run_json(capsys, "helstrom", "--family", "pure-vs-mixed",
                          "--d", "2")
        assert report["p_opt"] == pytest.approx(0.75, abs=1e-12)

    def test_neither_files_nor_family(self, capsys):
        err = run_error(capsys, "helstrom")
        assert err["type"] == "ConfigError"
        assert "--state0/--state1 files or --family" in err["message"]

    def test_from_constructed_files(self, capsys, tmp_path):
        run_json(capsys, "construct", "--family", "werner", "--d", "2",
                 "--out", str(tmp_path))
        report = run_json(capsys, "helstrom",
                          "--state0", str(tmp_path / "sigma0.json"),
                          "--state1", str(tmp_path / "sigma1.json"))
        assert report["p_opt"] == pytest.approx(1.0, abs=1e-12)

    def test_identical_files_are_indistinguishable(self, capsys, tmp_path):
        run_json(capsys, "construct", "--family", "werner", "--d", "2",
                 "--out", str(tmp_path))
        s = str(tmp_path / "sigma0.json")
        report = run_json(capsys, "helstrom", "--state0", s, "--state1", s)
        assert report["p_opt"] == pytest.approx(0.5, abs=1e-12)

    def test_half_pair_rejected(self, capsys, tmp_path):
        run_json(capsys, "construct", "--family", "werner", "--d", "2",
                 "--out", str(tmp_path))
        err = run_error(capsys, "helstrom",
                        "--state0", str(tmp_path / "sigma0.json"))
        assert err["type"] == "ConfigError"

    def test_dimension_mismatch_is_a_layout_error(self, capsys, tmp_path):
        for d in (2, 3):
            run_json(capsys, "construct", "--family", "werner", "--d", str(d),
                     "--out", str(tmp_path / f"w{d}"))
        err = run_error(capsys, "helstrom",
                        "--state0", str(tmp_path / "w2" / "sigma0.json"),
                        "--state1", str(tmp_path / "w3" / "sigma0.json"))
        assert err["type"] == "LayoutError"

    @pytest.mark.parametrize("family, d", [("werner", 2), ("werner", 3),
                                           ("pure-vs-mixed", 3)])
    def test_one_eigvalsh_per_call(self, monkeypatch, family, d):
        config = ExperimentConfig(command="helstrom",
                                  params={"family": family, "d": d})
        rho0, rho1, _ = cli._load_pair(config.params)
        monkeypatch.setattr(cli, "_load_pair", lambda params: (rho0, rho1, []))
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = cli.cmd_helstrom(config)
        dim = rho0.entries.shape[0]
        assert shapes == [(dim, dim)]
        monkeypatch.undo()
        # the report's bits are those of helstrom and trace_norm
        assert report == {"trace_distance": trace_norm(rho0.entries - rho1.entries),
                          "p_opt": locclab.helstrom(rho0, rho1)}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "helstrom", "--family", "werner",
                               "--d", "2", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "p_opt,trace_distance"
        assert row.split(",")[0] == "1"


class TestBoundsCommand:
    def test_werner_d2(self, capsys):
        report = run_json(capsys, "bounds", "--family", "werner", "--d", "2")
        assert report["ppt_upper"] == pytest.approx(1.0 / 2 + 1.0 / 3, abs=1e-4)
        assert report["locc_lower"] <= report["ppt_upper"] + 1e-9
        assert report["ppt_upper"] <= report["helstrom"] + 1e-9
        assert report["helstrom"] == pytest.approx(1.0, abs=1e-12)
        assert report["sdp_gap"] <= 1e-6

    def test_werner_d5_hiding_gap(self, capsys):
        report = run_json(capsys, "bounds", "--family", "werner", "--d", "5")
        assert report["ppt_upper"] == pytest.approx(1.0 / 2 + 1.0 / 6, abs=1e-4)
        assert report["helstrom"] == pytest.approx(1.0, abs=1e-12)

    def test_classical_pair_closes_the_bracket(self, capsys, tmp_path):
        layout = TensorLayout((("A", 2), ("B", 2)))
        for name, idx in (("r0.json", 0), ("r1.json", 3)):
            m = np.zeros((4, 4), dtype=np.complex128)
            m[idx, idx] = 1.0
            (tmp_path / name).write_text(
                operator_to_json(DensityOperator(layout, m)) + "\n")
        report = run_json(capsys, "bounds",
                          "--state0", str(tmp_path / "r0.json"),
                          "--state1", str(tmp_path / "r1.json"))
        assert report["locc_lower"] == pytest.approx(1.0, abs=1e-9)
        assert report["helstrom"] == pytest.approx(1.0, abs=1e-12)

    def test_family_is_a_bipartite_pair(self, capsys):
        # pure-vs-mixed lives on one party, so it has no PPT bracket;
        # helstrom still offers it (TestHelstromCommand)
        err = run_usage_error(capsys, "bounds", "--family", "pure-vs-mixed")
        assert "invalid choice: 'pure-vs-mixed'" in err


class TestEntropyCommand:
    def test_balanced_qubit(self, capsys):
        report = run_json(capsys, "entropy", "--lambda", "0.5", "--d2", "2")
        assert report["entropy_bits"] == pytest.approx(1.0, abs=1e-12)
        assert report["entropy_excess"] == pytest.approx(0.0, abs=1e-12)
        assert report["d1"] == 2

    def test_excess_against_larger_memory(self, capsys):
        report = run_json(capsys, "entropy", "--lambda", "0.5", "--d2", "4",
                          "--d1", "2")
        # S = 1/2 + (1/2) log2(6) bits
        expect = 0.5 + 0.5 * np.log2(6.0) - 1.0
        assert report["entropy_excess"] == pytest.approx(expect, abs=1e-12)

    def test_eps_prime_threshold_controls_flag(self, capsys):
        tight = run_json(capsys, "entropy", "--lambda", "0.9", "--d2", "2",
                         "--eps-prime", "0.5")
        loose = run_json(capsys, "entropy", "--lambda", "0.9", "--d2", "2",
                         "--eps-prime", "0.7")
        assert tight["trace_distance_to_product"] == pytest.approx(
            loose["trace_distance_to_product"], abs=1e-15)
        assert not tight["near_product"]
        assert loose["near_product"]

    def test_report_is_strict_json(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--lambda", "0.5", "--d2",
                               "8", "--d1", "2", "--eps-prime", "0")
        assert code == 0
        assert strict_json(out)["eps_prime"] == 0.0

    @pytest.mark.parametrize("eps_prime", ["nan", "inf", "-1"])
    def test_eps_prime_must_be_finite_and_nonnegative(self, capsys, eps_prime):
        err = run_error(capsys, "entropy", "--lambda", "0.5", "--d2", "8",
                        f"--eps-prime={eps_prime}")
        assert err["type"] == "SpecError"
        assert "eps' must be finite and >= 0" in err["message"]

    def test_entropy_bits_equal_concentrate_bit_for_bit(self, capsys):
        # psi's marginal entropy has one formula, which both commands print;
        # a second closed form differed from it at 40 of these 990 points
        grid = [repr(float(lam)) for lam in np.linspace(0.01, 0.99, 99)]
        for lam in ["0.04", *grid]:
            for d2 in map(str, range(2, 12)):
                args = ("--lambda", lam, "--d2", d2)
                entropy = run_json(capsys, "entropy", *args)
                law = run_json(capsys, "concentrate", *args, "--n", "1")
                assert repr(entropy["entropy_bits"]) == \
                    repr(law["entropy_bits"]), args
        assert run_json(capsys, "entropy", "--lambda", "0.04", "--d2", "8"
                        )["entropy_bits"] == 2.9373529142577146


CONSTRUCTED = {
    "psi": (["--lambda", "0.7", "--d2", "3"], {
        "psi.json":
        "300a4375cb12961cc9e8cabc602f8066cd269af4f403c059ccf7154f5daf7ae1"}),
    "rho-pair": (["--lambda", "0.9", "--d2", "2", "--d", "3"], {
        "rho0.json":
        "c33776c8ed119c492ab1a436bdcab131f099943b402e9f79425dbe426e640966",
        "rho1.json":
        "96abd6b86be9d53abf7ce8e9a851f7fcfda42a945fbb044e718bf5aab0b860cc"}),
    "max-entangled": (["--dim", "4"], {
        "phi.json":
        "516a61a4c764a1c6c5d7062653f8e3ffde1d3ccac6c91a19d2ca59ad7d02d568"}),
    "werner": (["--d", "3"], {
        "sigma0.json":
        "09fcc541326de40434f57e6213fa626e76e911924309d1ef1b0e3945eb5c7d01",
        "sigma1.json":
        "478b0e73de3a5117ffa37a96b3880d71171f4f55a3085fc5779b45ce4827c00b"}),
}


class TestConstructCommand:
    @pytest.mark.parametrize("family", sorted(CONSTRUCTED))
    def test_artifact_digests(self, capsys, tmp_path, family):
        flags, digests = CONSTRUCTED[family]
        run_json(capsys, "construct", "--family", family, *flags,
                 "--out", str(tmp_path))
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests

    def test_psi_artifacts_and_manifest(self, capsys, tmp_path):
        report = run_json(capsys, "construct", "--family", "psi",
                          "--lambda", "0.5", "--d2", "2",
                          "--out", str(tmp_path))
        assert set(report["written"]) == {"psi.json"}
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest["command"] == "construct"
        assert set(manifest["outputs"]) == {"psi.json"}

    def test_tamper_detection(self, capsys, tmp_path):
        run_json(capsys, "construct", "--family", "max-entangled",
                 "--dim", "3", "--out", str(tmp_path))
        target = tmp_path / "phi.json"
        target.write_text(target.read_text().replace("0.3", "0.4"))
        with pytest.raises(ConfigError):
            load_manifest(tmp_path / "manifest.json")

    def test_tampered_input_fails_from_another_directory(self, capsys, tmp_path,
                                                         monkeypatch):
        # inputs given as relative paths are recorded resolved, so the
        # check does not depend on where the manifest is read from
        monkeypatch.chdir(tmp_path)
        run_json(capsys, "construct", "--family", "werner", "--d", "2",
                 "--out", "runs/w")
        run_json(capsys, "helstrom", "--state0", "runs/w/sigma0.json",
                 "--state1", "runs/w/sigma1.json", "--out", "runs/h")
        manifest = load_manifest("runs/h/manifest.json")
        assert set(manifest["inputs"]) == {
            str(tmp_path.resolve() / "runs" / "w" / name)
            for name in ("sigma0.json", "sigma1.json")}
        target = tmp_path / "runs" / "w" / "sigma0.json"
        target.write_text(target.read_text().replace("0.3", "0.4"))
        monkeypatch.chdir(tmp_path / "runs")
        with pytest.raises(ConfigError, match="digest mismatch for input"):
            load_manifest("h/manifest.json")

    def test_digest_of_file_larger_than_one_chunk(self, tmp_path):
        data = np.random.default_rng(1).bytes(2 * cli._HASH_CHUNK + 123)
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        assert cli._sha256_file(path) == hashlib.sha256(data).hexdigest()

    def test_missing_input_fails(self, capsys, tmp_path):
        w, manifest = tmp_path / "w", tmp_path / "h" / "manifest.json"
        run_json(capsys, "construct", "--family", "werner", "--d", "2",
                 "--out", str(w))
        run_json(capsys, "helstrom", "--state0", str(w / "sigma0.json"),
                 "--state1", str(w / "sigma1.json"),
                 "--out", str(manifest.parent))
        load_manifest(manifest)
        (w / "sigma0.json").unlink()
        with pytest.raises(ConfigError, match="manifest input .*sigma0.json "
                                              "is missing"):
            load_manifest(manifest)
        # the manifest can still be read without checking its files
        assert load_manifest(manifest, verify=False)["inputs"]

    def test_requires_out(self, capsys):
        err = run_error(capsys, "construct", "--family", "werner", "--d", "2")
        assert err["type"] == "ConfigError"

    def test_rejected_parameters_create_no_directory(self, capsys, tmp_path):
        out = tmp_path / "unused"
        err = run_error(capsys, "construct", "--family", "max-entangled",
                        "--dim", "0", "--out", str(out))
        assert err["type"] == "SpecError"
        err = run_error(capsys, "construct", "--family", "psi",
                        "--lambda", "0.5", "--out", str(out))
        assert err["type"] == "ConfigError"
        assert not out.exists()

    def test_artifacts_are_reproducible(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run_json(capsys, "construct", "--family", "rho-pair", "--d", "2",
                     "--lambda", "0.5", "--d2", "2", "--out", str(d))
        for name in ("rho0.json", "rho1.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        m0 = load_manifest(dirs[0] / "manifest.json")
        m1 = load_manifest(dirs[1] / "manifest.json")
        assert m0["outputs"] == m1["outputs"]
        assert m0["config_hash"] == m1["config_hash"]

    def test_written_digests_are_the_manifest_outputs(self, capsys, tmp_path):
        report = run_json(capsys, "construct", "--family", "werner", "--d",
                          "2", "--out", str(tmp_path))
        manifest = load_manifest(tmp_path / "manifest.json")
        assert report["written"] == manifest["outputs"]
        assert set(report["written"]) == {"sigma0.json", "sigma1.json"}


class TestSimulateCommand:
    def test_perfect_iid_run(self, capsys, tmp_path):
        report = run_json(capsys, "simulate", "--protocol", "iid", "--p", "1.0",
                          "--rounds", "20", "--trials", "3",
                          "--out", str(tmp_path))
        assert report["mean_rate"] == 1.0
        lines = (tmp_path / "transcripts.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 3 * 20
        header = json.loads(lines[0])
        assert header["config"]["command"] == "simulate"
        assert "out" not in header["config"]
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "trial,n,S_n,rate,guess"
        assert summary[1].startswith("0,20,20,1,")
        load_manifest(tmp_path / "manifest.json")

    def test_threading_does_not_change_bytes(self, capsys, tmp_path):
        args = ["simulate", "--protocol", "iid", "--p", "0.6",
                "--rounds", "50", "--trials", "8", "--seed", "3"]
        d1, d2 = tmp_path / "serial", tmp_path / "parallel"
        run_json(capsys, *args, "--out", str(d1))
        run_json(capsys, *args, "--threads", "4", "--out", str(d2))
        for name in ("transcripts.jsonl", "summary.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_memory_block_protocol(self, capsys):
        report = run_json(capsys, "simulate", "--protocol", "memory-block",
                          "--d1", "2", "--lambda", "0.5", "--d2", "4",
                          "--n-block", "4", "--rounds", "8", "--trials", "5")
        assert report["protocol_id"] == "memory-block"
        assert report["min_rate"] >= 0.5  # first block always scores

    def test_pooled_rate_interval(self, capsys):
        report = run_json(capsys, "simulate", "--protocol", "iid", "--p",
                          "0.7", "--rounds", "50", "--trials", "5",
                          "--seed", "7")
        assert report["pooled_rounds"] == 250
        lo, hi = report["mean_rate_ci"]
        successes = round(report["mean_rate"] * 250)
        assert [lo, hi] == list(wilson_interval(successes, 250))
        assert lo <= report["mean_rate"] <= hi

    def test_missing_protocol_parameter(self, capsys):
        err = run_error(capsys, "simulate", "--protocol", "iid")
        assert err["type"] == "ConfigError"
        assert "p" in err["message"]


MB = ["--protocol", "memory-block", "--d1", "2", "--lambda", "0.5",
      "--d2", "4"]

# SHA-256 of (transcripts.jsonl, summary.csv), recorded from the
# round-by-round engine that played one scalar round at a time; the
# array engine must reproduce every byte.
PINNED = {
    "simulate-iid": (
        ["simulate", "--protocol", "iid", "--p", "0.7", "--rounds", "50",
         "--trials", "5", "--seed", "7"],
        "2398e4f4e3534d088bc700f9bb24fd8a68bfc2e55dafed2a4e01df7db1cb94cb",
        "9a905439f6cb87b54b979d6c6aa2a8502568cd80beb200a16cc98bd4c1d764ab"),
    "simulate-memory-block": (
        ["simulate", *MB, "--n-block", "4", "--rounds", "30", "--trials", "4",
         "--seed", "7"],
        "a95f78fcc91c89cfa3f9e68bf6aa8e9c7712e8fb36e3e6b44b855c87e1488bff",
        "9b40eb013d520644ac00a2b1b4c1150dc73b030401ac8155de4f3f4b24cffdf9"),
    "rate-memory-block": (
        ["rate", *MB, "--n-block", "8", "--r", "0.8", "--n-list", "37,64",
         "--trials", "6", "--seed", "5"],
        "2831d4daa7192ee57672f8b981e0706be3a27b4f5b024431e93db0bd936f7b62",
        "3b412dd41a7bd6455e8231a43b054215d091f8e60feeeaed7546ee6adcb8aa69"),
    "rate-memory-block-nblock1": (
        ["rate", *MB, "--n-block", "1", "--r", "0.6", "--n-list", "9,20",
         "--trials", "4", "--seed", "5"],
        "0e5c7b6ad8b4c534ca0d6857bf306844103d21ad96530676d0bb6d8e203e021c",
        "03e5c8b33011b5649ad8eb80590258c6de14a6e6b14b69ea6b172ff7183b5592"),
    "detect-catalyst": (
        ["detect", "--p-tau", "0.9", "--p-locc", "0.5", "--delta", "0.1",
         "--n", "60", "--trials", "7", "--seed", "3"],
        "7e4dabc580416833abecd6ba9107ca0be04eac1d02c4b5dc2c5d54cf9837eb44",
        "2cb7ef1ebc71ac5f6f41daa8f7d3e2e867d7a2d17f1e28dba6ad805ab0757f49"),
    "detect-memory": (
        ["detect", "--p-tau", "0.8", "--p-locc", "0.7", "--delta", "0.05",
         "--n", "40", "--trials", "9", "--seed", "4",
         "--mode", "memory-threshold"],
        "e1f1e0cf09d237c7ae0dcf41df84a461bf183896e1f568cbbc2782713eea8fbc",
        "284b5faee11bc18d97fcf96ec36cf8c4bc360668435cf375b3ca978c8e8490e3"),
}


class TestPinnedArtifacts:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_artifact_digests(self, capsys, tmp_path, name, threads):
        argv, jsonl, summary = PINNED[name]
        run_json(capsys, *argv, "--threads", threads, "--out", str(tmp_path))
        digest = {p: hashlib.sha256((tmp_path / p).read_bytes()).hexdigest()
                  for p in ("transcripts.jsonl", "summary.csv")}
        assert digest == {"transcripts.jsonl": jsonl, "summary.csv": summary}

    def test_round_lines_are_canonical_json(self, capsys, tmp_path):
        run_json(capsys, *PINNED["simulate-memory-block"][0],
                 "--out", str(tmp_path))
        lines = (tmp_path / "transcripts.jsonl").read_text().splitlines()
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":"))
        last = json.loads(lines[-1])
        assert set(last) == {"trial", "j", "Z", "Y", "X", "memory"}
        assert (last["trial"], last["j"]) == (3, 30)
        assert last["memory"].startswith("block=7;")
        assert last["memory"].endswith(";used=2")


def reference_round_lines(trials):
    """transcripts.jsonl round lines, one f-string per round."""
    for trial, tr in trials:
        tail = f',"trial":{trial}}}\n'
        for j, z, y, x, m in zip(range(1, tr.n + 1), tr.Z.tolist(),
                                 tr.Y.tolist(), tr.X.tolist(),
                                 tr.descriptors[1:]):
            memory = json.dumps(m)
            yield f'{{"X":{x},"Y":{y},"Z":{z},"j":{j},"memory":{memory}{tail}'


class Escaped(locclab.Strategy):
    """Descriptors that JSON must escape: a quote, a backslash, non-ASCII
    letters and control characters."""

    protocol_id = "escaped"
    QUIRKS = ('say "hi"', "back\\slash", "\u03c8\u2192\u03bb", "tab\tbell\x07",
              "new\nline", "")

    def reset(self, rng):
        self.hits = 0

    def success_probability(self, j):
        return 0.6

    def observe(self, j, success):
        self.hits += success

    def descriptor(self):
        return f"{self.QUIRKS[self.hits % len(self.QUIRKS)]}{self.hits}"


class TestRunFileWriter:
    def test_escaped_descriptors(self, tmp_path):
        trials = [(t, play_trial(Escaped(), n, 3, stream=("trial", t)))
                  for t, n in enumerate((5, 40, 1, 17))]
        descriptors = {m for _, tr in trials for m in tr.descriptors[1:]}
        assert {q for q in Escaped.QUIRKS
                if any(m.startswith(q) for m in descriptors)} == set(
                    Escaped.QUIRKS)
        config = ExperimentConfig(command="simulate", seed=3,
                                  out=str(tmp_path))
        scores, written = cli._play_games(config, "escaped", 40,
                                          (tr for _, tr in trials))
        assert scores == [tr.final_score for _, tr in trials]
        assert set(written["files"]) == {"transcripts", "summary", "manifest"}
        lines = (tmp_path / "transcripts.jsonl").read_text(
            encoding="utf-8").splitlines(keepends=True)
        assert lines[1:] == list(reference_round_lines(trials))
        records = [json.loads(line) for line in lines[1:]]
        assert [r["memory"] for r in records] == [
            m for _, tr in trials for m in tr.descriptors[1:]]

    def test_rate_trials_of_different_lengths(self, capsys, tmp_path):
        n_list, trials, seed = (7, 30, 1, 12), 3, 5
        run_json(capsys, "rate", *MB, "--n-block", "4", "--r", "0.8",
                 "--n-list", ",".join(map(str, n_list)), "--trials",
                 str(trials), "--seed", str(seed), "--out", str(tmp_path))
        strategy = locclab.memory_block_strategy(
            2, locclab.PsiSpec(lam=0.5, d2=4), 4)
        played = [play_trial(strategy, n, seed, stream=("rate", n, t))
                  for n in n_list for t in range(trials)]
        lines = (tmp_path / "transcripts.jsonl").read_text().splitlines(
            keepends=True)
        assert json.loads(lines[0])["n"] == n_list[-1]
        assert lines[1:] == list(reference_round_lines(enumerate(played)))


class TestDetectCommand:
    def test_explicit_round_count(self, capsys):
        report = run_json(capsys, "detect", "--p-tau", "0.9", "--p-locc",
                          "0.5", "--delta", "0.1", "--n", "60",
                          "--trials", "50")
        assert report["n"] == 60
        assert report["p_corr_tau"] >= 0.9
        assert report["p_corr_gamma"] >= 0.9
        assert report["overall"] == pytest.approx(
            0.5 * (report["p_corr_tau"] + report["p_corr_gamma"]), abs=1e-12)

    def test_per_world_intervals(self, capsys):
        report = run_json(capsys, "detect", "--p-tau", "0.9", "--p-locc",
                          "0.75", "--delta", "0.05", "--n", "200",
                          "--trials", "41", "--seed", "2")
        assert (report["trials_tau"], report["trials_gamma"]) == (21, 20)
        for world in ("tau", "gamma"):
            count = report[f"trials_{world}"]
            frac = report[f"p_corr_{world}"]
            lo, hi = report[f"p_corr_{world}_ci"]
            assert [lo, hi] == list(wilson_interval(round(frac * count), count))
            assert lo <= frac <= hi

    def test_single_trial_has_no_gamma_trials(self, capsys):
        report = run_json(capsys, "detect", "--p-tau", "1.0", "--p-locc",
                          "0.5", "--delta", "0.1", "--n", "40",
                          "--trials", "1")
        assert report["trials_tau"] == 1 and report["trials_gamma"] == 0
        assert report["p_corr_gamma_ci"] is None
        assert report["p_corr_tau_ci"] == list(wilson_interval(1, 1))
        # no gamma trial: no gamma frequency and no overall mean
        assert report["p_corr_tau"] == 1.0
        assert report["p_corr_gamma"] is None and report["overall"] is None

    def test_csv_null_is_an_empty_cell(self, capsys):
        code, out, _ = run_cli(capsys, "detect", "--p-tau", "1.0", "--p-locc",
                               "0.5", "--delta", "0.1", "--n", "40",
                               "--trials", "1", "--format", "csv")
        assert code == 0
        header, row = csv.reader(out.strip().split("\n"))
        cells = dict(zip(header, row, strict=True))
        assert "None" not in row
        for key in ("overall", "p_corr_gamma", "p_corr_gamma_ci"):
            assert cells[key] == ""

    def test_round_count_defaults_to_min_rounds(self, capsys):
        report = run_json(capsys, "detect", "--p-tau", "0.9", "--p-locc",
                          "0.5", "--delta", "0.1", "--trials", "4")
        assert report["n"] == 278

    def test_guesses_recorded(self, capsys, tmp_path):
        run_json(capsys, "detect", "--p-tau", "1.0", "--p-locc", "0.5",
                 "--delta", "0.1", "--n", "40", "--trials", "6",
                 "--out", str(tmp_path))
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        guesses = [row.split(",")[4] for row in rows]
        assert all(g in ("tau", "gamma") for g in guesses)
        # worlds alternate by trial parity and the separation is generous
        assert guesses == ["tau", "gamma"] * 3

    def test_bad_window_rejected(self, capsys):
        err = run_error(capsys, "detect", "--p-tau", "0.6", "--p-locc", "0.5",
                        "--delta", "0.4", "--n", "10")
        assert err["type"] == "SpecError"

    @pytest.mark.parametrize("delta,message", [
        ("nan", "delta must be positive, got nan"),
        ("1e-300", "delta = 1e-300 is too small"),
    ])
    def test_round_count_needs_a_usable_delta(self, capsys, delta, message):
        # without --n the round count comes from min_rounds
        err = run_error(capsys, "detect", "--delta", delta, "--trials", "2")
        assert err == {"type": "DomainError", "message": err["message"]}
        assert message in err["message"]


class TestConcentrateCommand:
    def test_two_copy_report(self, capsys):
        report = run_json(capsys, "concentrate", "--lambda", "0.5",
                          "--d2", "2", "--n", "2", "--target", "1.0")
        assert report["outcomes"] == 3
        assert report["mean_log2_dim"] == pytest.approx(0.5, abs=1e-12)
        assert report["success_prob"] == pytest.approx(0.5, abs=1e-12)
        assert report["success_exact"] is True

    def test_distribution_csv(self, capsys, tmp_path):
        run_json(capsys, "concentrate", "--lambda", "0.5", "--d2", "2",
                 "--n", "4", "--out", str(tmp_path))
        rows = (tmp_path / "distribution.csv").read_text().splitlines()
        assert rows[0] == "counts,log2_dim,probability"
        probs = [float(r.split(",")[2]) for r in rows[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert len(rows) == 1 + 5

    # SHA-256 of distribution.csv, recorded from the writer that formatted
    # one row per outcome with an f-string
    @pytest.mark.parametrize("argv,digest", [
        (["--d2", "4", "--n", "6", "--lambda", "0.5", "--mode", "exact"],
         "5aefc80547a0f1fa8506fd5b6049fa3f1a9108f6cc7785cf7b6f75af3e4c9310"),
        (["--d2", "4", "--n", "40", "--lambda", "0.3", "--mode", "sample",
          "--samples", "5000", "--seed", "11"],
         "b081cfd83ccbd2ed2a09312655b158d258b8a9bfc61f20b59e6b6c2fa5963675"),
    ], ids=["exact-d2=4-n6", "sampled-d2=4-n40"])
    def test_distribution_csv_digest(self, capsys, tmp_path, argv, digest):
        run_json(capsys, "concentrate", *argv, "--out", str(tmp_path))
        data = (tmp_path / "distribution.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_distribution_csv_rows_equal_per_row_format(self, capsys,
                                                        tmp_path):
        # 19 448 outcomes: more than one block of written rows
        run_json(capsys, "concentrate", "--lambda", "0.35", "--d2", "8",
                 "--n", "10", "--mode", "exact", "--out", str(tmp_path))
        dist = locclab.concentration_distribution(
            locclab.psi_spectrum(locclab.PsiSpec(lam=0.35, d2=8)), 10,
            mode="exact")
        assert len(dist) > cli._CSV_ROWS
        expect = ["counts,log2_dim,probability"] + [
            f"{'|'.join(str(c) for c in o.counts)},"
            f"{format(o.log2_dim, '.17g')},{format(o.probability, '.17g')}"
            for o in dist]
        rows = (tmp_path / "distribution.csv").read_text().split("\n")
        assert rows == expect + [""]

    def test_target_enumerates_the_law_once(self, capsys, monkeypatch):
        from locclab import protocols
        calls = []

        def counted(*args):
            calls.append(args[1])
            return law(*args)
        law = protocols._exact_law
        monkeypatch.setattr(protocols, "_exact_law", counted)
        protocols._last_exact_law.cache_clear()
        protocols._exact_success_cached.cache_clear()
        report = run_json(capsys, "concentrate", "--lambda", "0.41", "--d2",
                          "4", "--n", "9", "--mode", "exact", "--target",
                          "8.5")
        assert calls == [9]
        # a cold computation of the same success probability agrees
        protocols._exact_success_cached.cache_clear()
        protocols._last_exact_law.cache_clear()
        cold = locclab.concentration_success_prob(
            locclab.psi_spectrum(locclab.PsiSpec(lam=0.41, d2=4)), 9, 8.5,
            mode="exact")
        assert calls == [9, 9]
        assert report["success_prob"] == cold.estimate

    def test_exact_mode_refusal_surfaces(self, capsys):
        err = run_error(capsys, "concentrate", "--lambda", "0.5", "--d2", "8",
                        "--n", "64", "--mode", "exact")
        assert err["type"] == "ModeError"

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_surface(self, capsys, samples):
        err = run_error(capsys, "concentrate", "--lambda", "0.5", "--d2", "2",
                        "--n", "4", "--mode", "sample", "--samples", samples)
        assert err["type"] == "SpecError"

    def test_nonfinite_target_surfaces(self, capsys):
        err = run_error(capsys, "concentrate", "--lambda", "0.5", "--d2", "2",
                        "--n", "4", "--target", "nan")
        assert err["type"] == "SpecError"

    def test_sampled_report_carries_sample_count(self, capsys):
        report = run_json(capsys, "concentrate", "--lambda", "0.5", "--d2", "8",
                          "--n", "64", "--samples", "500", "--target", "100")
        assert report["samples"] == 500
        assert report["success_exact"] is False
        exact = run_json(capsys, "concentrate", "--lambda", "0.5", "--d2", "2",
                         "--n", "4", "--samples", "500")
        assert "samples" not in exact


class TestRateCommand:
    def test_certain_iid(self, capsys):
        report = run_json(capsys, "rate", "--protocol", "iid", "--p", "1.0",
                          "--r", "1.0", "--n-list", "5,10", "--trials", "20")
        assert report["success_frac"] == [1.0, 1.0]
        assert report["n_list"] == [5, 10]

    def test_success_intervals(self, capsys):
        report = run_json(capsys, "rate", "--protocol", "iid", "--p", "0.5",
                          "--r", "0.55", "--n-list", "20,40", "--trials",
                          "200", "--seed", "3")
        assert len(report["success_ci"]) == 2
        for frac, (lo, hi) in zip(report["success_frac"],
                                  report["success_ci"]):
            assert [lo, hi] == list(wilson_interval(round(frac * 200), 200))
            assert lo <= frac <= hi

    def test_bad_n_list(self, capsys):
        err = run_error(capsys, "rate", "--protocol", "iid", "--p", "0.5",
                        "--r", "0.5", "--n-list", "5,x")
        assert err["type"] == "ConfigError"

    def test_non_positive_checkpoint(self, capsys):
        err = run_error(capsys, "rate", "--protocol", "iid", "--p", "0.5",
                        "--r", "0.5", "--n-list", "0,5")
        assert err["type"] == "ConfigError"
        assert "positive integers" in err["message"]

    def test_rate_outside_unit_interval(self, capsys):
        err = run_error(capsys, "rate", "--protocol", "iid", "--p", "0.5",
                        "--r", "1.5", "--n-list", "5")
        assert err["type"] == "ConfigError"
        assert "--r must lie in [0, 1], got 1.5" in err["message"]


def stream_matches(entry: str, labels: tuple) -> bool:
    """Whether a seed_streams entry such as ``rate.<n>.<t>.success`` names
    the substream of ``labels``: each ``<...>`` part stands for one
    integer label, every other part for itself."""
    parts = entry.split(".")
    return len(parts) == len(labels) and all(
        isinstance(label, (int, np.integer))
        if part.startswith("<") and part.endswith(">") else part == label
        for part, label in zip(parts, labels))


BLOCK24 = ["--protocol", "memory-block", "--lambda", "0.5", "--d2", "8",
           "--n-block", "24"]


class TestSeedStreams:
    """The manifest names, in the README's notation, each substream that
    the run drew and no other."""

    CONCENTRATE = ["concentrate", "--lambda", "0.9", "--d2", "2", "--n", "8"]
    RUNS = {
        "simulate": ["simulate", "--protocol", "iid", "--p", "0.6",
                     "--rounds", "8", "--trials", "3"],
        "rate": ["rate", "--protocol", "iid", "--p", "0.6", "--r", "0.5",
                 "--n-list", "4,8", "--trials", "2"],
        "detect": ["detect", "--n", "10", "--trials", "3"],
        "detect-one-world": ["detect", "--n", "10", "--trials", "1"],
        "concentrate-sampled": [*CONCENTRATE, "--mode", "sample",
                                "--samples", "50", "--target", "1.0"],
        "concentrate-sampled-law": [*CONCENTRATE, "--mode", "sample",
                                    "--samples", "50"],
        "concentrate-exact": [*CONCENTRATE, "--mode", "exact",
                              "--target", "1.0"],
        # a block law too large to enumerate is sampled, off the --seed root
        "simulate-memory-block": ["simulate", *BLOCK24, "--rounds", "30",
                                  "--trials", "2"],
        "rate-memory-block": ["rate", *BLOCK24, "--r", "0.5", "--n-list",
                              "24,48", "--trials", "2"],
        # an enumerated block law draws nothing
        "rate-memory-block-exact": ["rate", *MB, "--n-block", "4", "--r",
                                    "0.5", "--n-list", "8", "--trials", "2"],
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_entries_are_the_streams_drawn(self, capsys, tmp_path,
                                           monkeypatch, name):
        drawn = []
        for module in (game, protocols):
            def recording(root, *labels, draw=module.rng_from):
                drawn.append(labels)
                return draw(root, *labels)

            monkeypatch.setattr(module, "rng_from", recording)

        # the game commands derive their trials' keys in batches
        def recording_batch(root, streams, derive=game.philox_keys):
            drawn.extend(streams)
            return derive(root, streams)

        monkeypatch.setattr(game, "philox_keys", recording_batch)
        run_json(capsys, *self.RUNS[name], "--seed", "4", "--out", str(tmp_path))
        entries = load_manifest(tmp_path / "manifest.json")["seed_streams"]
        # an exact law draws nothing
        assert bool(drawn) == (name != "concentrate-exact")
        for labels in drawn:
            assert sum(stream_matches(e, labels) for e in entries) == 1, labels
        for entry in entries:
            assert any(stream_matches(entry, labels) for labels in drawn), entry


class TestBlockLawSeed:
    """A block law too large to enumerate is sampled from the --seed root,
    and the report gives that estimate's interval and sample count."""

    def test_seed_sets_the_recharge_probability(self):
        spec = locclab.PsiSpec(lam=0.5, d2=8)
        q = [locclab.memory_block_strategy(2, spec, 24, seed).block_success_prob
             for seed in (1, 2, 2)]
        assert q[0] != q[1]
        assert q[1] == q[2]

    @pytest.mark.parametrize("command", [
        ["simulate", *BLOCK24, "--rounds", "30", "--trials", "2"],
        ["rate", *BLOCK24, "--r", "0.5", "--n-list", "24", "--trials", "2"]])
    def test_reports_follow_the_seed(self, capsys, command):
        reports = [run_json(capsys, *command, "--seed", seed)
                   for seed in ("1", "2", "2")]
        est = locclab.memory_block_strategy(
            2, locclab.PsiSpec(lam=0.5, d2=8), 24, seed=2).block_estimate
        cis = [r["block_success_ci"] for r in reports]
        assert cis[0] != cis[1]
        assert cis[1] == cis[2] == [est.ci_low, est.ci_high]
        assert [r["block_success_samples"] for r in reports] == [est.samples] * 3

    @pytest.mark.parametrize("command", [
        ["simulate", *MB, "--n-block", "4", "--rounds", "8", "--trials", "2"],
        ["rate", "--protocol", "iid", "--p", "0.6", "--r", "0.5",
         "--n-list", "4", "--trials", "2"]])
    def test_exact_or_iid_adds_nothing(self, capsys, command):
        report = run_json(capsys, *command, "--seed", "3")
        assert not {"block_success_ci", "block_success_samples"} & set(report)


# game commands, with the number of trials each plays
GAMES = {
    "simulate": (["simulate", "--protocol", "iid", "--p", "0.6", "--rounds",
                  "40", "--trials", "6", "--seed", "2"], 6),
    "rate": (["rate", *MB, "--n-block", "4", "--r", "0.7", "--n-list",
              "12,30", "--trials", "4", "--seed", "2"], 8),
    "detect": (["detect", "--p-tau", "0.9", "--p-locc", "0.5", "--delta",
                "0.1", "--n", "30", "--trials", "5", "--seed", "2"], 5),
}


class TestTrialMemory:
    # a game command keeps no played trial, with or without --out: when
    # the next one starts, only the previous one (the loop's last) may
    # be alive
    @staticmethod
    def live_at_each_call(monkeypatch, capsys, argv):
        refs, live = [], []
        play = cli._play_trials

        def tracked(*args, **kwargs):
            trials = play(*args, **kwargs)
            while True:
                alive = sum(ref() is not None for ref in refs)
                trial = next(trials, None)
                if trial is None:
                    return
                live.append(alive)
                refs.append(weakref.ref(trial))
                yield trial
                del trial

        monkeypatch.setattr(cli, "_play_trials", tracked)
        report = run_json(capsys, *argv)
        monkeypatch.undo()
        return report, live

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_at_most_one_trial_is_alive(self, monkeypatch, capsys, tmp_path,
                                        name):
        argv, trials = GAMES[name]
        report, live = self.live_at_each_call(monkeypatch, capsys, argv)
        assert len(live) == trials
        assert max(live) <= 1
        written, live = self.live_at_each_call(
            monkeypatch, capsys, [*argv, "--out", str(tmp_path)])
        assert len(live) == trials
        assert max(live) <= 1
        # the same report, but for the files written
        assert written.pop("files") and written == report

    def test_traced_peak_is_flat_in_the_trial_count(self, monkeypatch,
                                                     capsys):
        # stream keys are derived a chunk of trials at a time: with chunks
        # of 8, a hundred chunks of trials add to the traced peak only the
        # scores a run keeps (~9 bytes a trial), where keys derived for
        # every trial at once would add ~550
        monkeypatch.setattr(game, "_KEY_CHUNK", 8)
        argv = ["rate", "--protocol", "iid", "--p", "0.5", "--r", "0.5",
                "--n-list", "2", "--trials"]

        def peak(trials):
            tracemalloc.start()
            try:
                run_json(capsys, *argv, str(trials))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # an untraced run fills the first-call caches and the interpreter's
        # free lists of small objects, which would otherwise fill with
        # traced objects at up to 2000 per size; no collection may empty
        # them in between
        gc.disable()
        try:
            run_json(capsys, *argv, "3000")
            small, large = peak(32), peak(800)
        finally:
            gc.enable()
        assert large - small < 128 * (800 - 32)

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_failed_run_leaves_no_run_files(self, monkeypatch, capsys,
                                            tmp_path, name):
        argv, _ = GAMES[name]
        out = tmp_path / "run"
        run_json(capsys, *argv, "--out", str(out))  # an earlier run's files
        play = cli._play_trials

        def failing(*args, **kwargs):
            for k, trial in enumerate(play(*args, **kwargs), 1):
                if k == 3:
                    raise SpecError("third trial refused")
                yield trial

        monkeypatch.setattr(cli, "_play_trials", failing)
        err = run_error(capsys, *argv, "--out", str(out))
        assert err == {"type": "SpecError", "message": "third trial refused"}
        assert list(out.iterdir()) == []


def disk_full(path) -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


class TestOutFailureContract:
    # every --out command: a run that raises leaves none of its files and
    # no manifest.json, an earlier run's included; an OSError is a
    # structured ConfigError
    def test_concentrate_failing_inside_its_csv(self, monkeypatch, capsys,
                                                tmp_path):
        run_json(capsys, "bounds", "--family", "werner", "--d", "2",
                 "--out", str(tmp_path))
        assert {p.name for p in tmp_path.iterdir()} == {"report.json",
                                                        "manifest.json"}
        csv_chunks = cli._distribution_csv

        def failing(*args):
            chunks = csv_chunks(*args)
            yield next(chunks)
            yield next(chunks)
            raise disk_full(tmp_path / "distribution.csv")

        monkeypatch.setattr(cli, "_distribution_csv", failing)
        monkeypatch.setattr(cli, "_CSV_ROWS", 4)
        err = run_error(capsys, "concentrate", "--lambda", "0.5", "--d2", "3",
                        "--n", "6", "--out", str(tmp_path))
        assert err["type"] == "ConfigError"
        assert str(tmp_path) in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_construct_failing_on_its_second_file(self, monkeypatch, capsys,
                                                  tmp_path):
        argv = ["construct", "--family", "werner", "--d", "2",
                "--out", str(tmp_path)]
        run_json(capsys, *argv)
        opened = []

        def failing_open(path, *args, **kwargs):
            opened.append(Path(path).name)
            if len(opened) == 2:
                raise disk_full(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        err = run_error(capsys, *argv)
        assert opened == ["sigma0.json", "sigma1.json"]
        assert err["type"] == "ConfigError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["helstrom", "--family", "werner", "--d", "2"],
        ["simulate", "--protocol", "iid", "--p", "0.5", "--rounds", "5"],
    ], ids=["helstrom", "simulate"])
    def test_out_naming_a_file(self, capsys, tmp_path, argv):
        target = tmp_path / "taken"
        target.write_bytes(b"an earlier file\n")
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert str(target) in error["message"]
        assert target.read_bytes() == b"an earlier file\n"
        assert list(tmp_path.iterdir()) == [target]


IID = ["--protocol", "iid", "--p", "0.5"]
DETECT = ["detect", "--p-locc", "0.5", "--delta", "0.1", "--n", "10"]

# an explicit 0 or negative is an error, never the default
NON_POSITIVE = {
    "simulate-rounds-0": (["simulate", *IID, "--rounds", "0"], "ConfigError"),
    "simulate-rounds-negative": (["simulate", *IID, "--rounds", "-3"],
                                 "ConfigError"),
    "simulate-trials-0": (["simulate", *IID, "--trials", "0"], "ConfigError"),
    "rate-trials-0": (["rate", *IID, "--r", "0.5", "--n-list", "5",
                       "--trials", "0"], "ConfigError"),
    "detect-trials-0": ([*DETECT, "--trials", "0"], "ConfigError"),
    "detect-trials-negative": ([*DETECT, "--trials", "-2"], "ConfigError"),
    "helstrom-d-0": (["helstrom", "--family", "werner", "--d", "0"],
                     "SpecError"),
    "entropy-d1-0": (["entropy", "--lambda", "0.5", "--d2", "4", "--d1", "0"],
                     "SpecError"),
    "construct-dim-0": (["construct", "--family", "max-entangled", "--dim",
                         "0"], "SpecError"),
}


@pytest.mark.parametrize("case", sorted(NON_POSITIVE))
def test_non_positive_value_is_an_error(capsys, tmp_path, case):
    argv, error = NON_POSITIVE[case]
    err = run_error(capsys, *argv, "--out", str(tmp_path))
    assert err["type"] == error
    assert ">= " in err["message"]


# small README values for the flags each command with a float flag
# needs; --protocol iid when the float flag is --p, which only iid reads
FLOAT_FLAG_BASES = {
    "simulate": ["--protocol", "memory-block", "--d1", "2", "--lambda", "0.5",
                 "--d2", "8", "--n-block", "4", "--rounds", "8", "--trials",
                 "2"],
    "rate": ["--protocol", "memory-block", "--d1", "2", "--lambda", "0.5",
             "--d2", "8", "--n-block", "4", "--r", "0.9", "--n-list", "8",
             "--trials", "2"],
    "detect": ["--p-tau", "0.9", "--p-locc", "0.75", "--delta", "0.05",
               "--trials", "2"],
    "concentrate": ["--lambda", "0.5", "--d2", "2", "--n", "2", "--target",
                    "1.0"],
    "entropy": ["--lambda", "0.5", "--d2", "8", "--d1", "2"],
    "construct": ["--family", "psi", "--lambda", "0.5", "--d2", "2"],
}


def float_flags():
    """(command, flag) for every ``type=float`` option of the parser."""
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, sub in commands.items() for action in sub._actions
            if action.type is float]


FLOAT_FLAGS = float_flags()


def test_every_float_flag_is_covered():
    assert {command for command, _ in FLOAT_FLAGS} == set(FLOAT_FLAG_BASES)
    assert ("detect", "--delta") in FLOAT_FLAGS  # the walk finds the flags


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag", FLOAT_FLAGS,
                         ids=[f"{c}{f}" for c, f in FLOAT_FLAGS])
def test_non_finite_float_stays_structured(capsys, tmp_path, command, flag,
                                           value):
    # a non-finite value is refused with one structured error, or the run
    # succeeds and its stdout is strict JSON; the last --flag=value wins
    base = FLOAT_FLAG_BASES[command]
    if flag == "--p":
        base = ["--protocol", "iid", *base[2:]]
    code, out, err = run_cli(capsys, command, *base, f"{flag}={value}",
                             "--out", str(tmp_path / "run"))
    if code == 0:
        assert isinstance(strict_json(out), dict)
    else:
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert issubclass(getattr(locclab, error["type"]), locclab.LoccLabError)


# a minimal valid command per command that has an int flag, with the
# family or protocol that reads the most of them; construct's --dim is
# read only by max-entangled
INT_FLAG_BASES = {
    "helstrom": ["--family", "werner"],
    "bounds": ["--family", "werner"],
    "simulate": FLOAT_FLAG_BASES["simulate"],
    "rate": FLOAT_FLAG_BASES["rate"],
    "detect": ["--trials", "2"],
    "concentrate": ["--lambda", "0.5", "--d2", "2", "--n", "2", "--mode",
                    "sample", "--samples", "10"],
    "entropy": ["--lambda", "0.5", "--d2", "8"],
    "construct": ["--family", "rho-pair", "--lambda", "0.5", "--d2", "2"],
    ("construct", "--dim"): ["--family", "max-entangled"],
}
# --seed names a stream and sizes nothing, though it must be an integer
# >= 0 (test_negative_seed_stays_structured); --threads changes no work;
# --trials counts trials, which the game commands play and drop one at a
# time, so a huge count costs time, not an allocation
INT_FLAGS_UNSIZED = {"--seed", "--threads", "--trials"}


def int_flags():
    """(command, flag) for every ``type=int`` option of the parser that
    can size an allocation."""
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, sub in commands.items() for action in sub._actions
            if action.type is int
            and action.option_strings[0] not in INT_FLAGS_UNSIZED]


INT_FLAGS = int_flags()


def test_every_int_flag_is_covered():
    assert {command for command, _ in INT_FLAGS} == \
        {key for key in INT_FLAG_BASES if isinstance(key, str)}
    assert ("construct", "--dim") in INT_FLAGS  # the walk finds the flags


@pytest.mark.parametrize("command,flag", INT_FLAGS,
                         ids=[f"{c}{f}" for c, f in INT_FLAGS])
def test_huge_int_stays_structured(capsys, tmp_path, command, flag):
    # 10^14 is refused with one structured error before anything is sized
    # by it, or the run succeeds and its stdout is strict JSON
    base = INT_FLAG_BASES.get((command, flag), INT_FLAG_BASES[command])
    code, out, err = run_cli(capsys, command, *base, flag, str(10**14),
                             "--out", str(tmp_path / "run"))
    if code == 0:
        assert isinstance(strict_json(out), dict)
    else:
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert issubclass(getattr(locclab, error["type"]), locclab.LoccLabError)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_negative_seed_stays_structured(capsys, tmp_path, command):
    # a command that draws from the seed refuses -1 with one structured
    # error; one that reads no stream succeeds with strict JSON
    code, out, err = run_cli(capsys, command, *INT_FLAG_BASES[command],
                             "--seed", "-1", "--out", str(tmp_path / "run"))
    if code == 0:
        assert isinstance(strict_json(out), dict)
    else:
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "type": "SpecError", "message": "seed must be >= 0, got -1"}


def test_negative_seed_of_a_game_is_a_spec_error(capsys):
    err = run_error(capsys, "simulate", "--protocol", "iid", "--p", "0.5",
                    "--rounds", "3", "--seed", "-1")
    assert err == {"type": "SpecError",
                   "message": "seed must be >= 0, got -1"}


@pytest.mark.parametrize("argv", [
    "detect --delta 1e-10 --trials 1",
    "simulate --protocol iid --p 0.5 --rounds 100000000000000 --trials 1",
    "rate --protocol iid --p 0.5 --r 0.5 --n-list 100000000000000 --trials 1",
    "concentrate --lambda 0.5 --d2 2 --n 4 --mode sample "
    "--samples 100000000000000",
    "concentrate --lambda 0.5 --d2 2 --n 100000000000000 --samples 10",
    "simulate --protocol memory-block --d1 2 --lambda 0.5 --d2 8 "
    "--n-block 100000000000000 --rounds 10 --trials 1",
    "concentrate --lambda 0.5 --d2 100000000000000 --n 2 --mode sample "
    "--samples 10",
    "helstrom --family werner --d 100000",
    "helstrom --family pure-vs-mixed --d 100000",
    "construct --family max-entangled --dim 1000000",
    "construct --family rho-pair --d 12 --lambda 0.5 --d2 4",
])
def test_oversize_run_names_its_limit(capsys, tmp_path, argv):
    err = run_error(capsys, *argv.split(), "--out", str(tmp_path / "run"))
    assert err["type"] == "SpecError" and "limit" in err["message"]
    assert not (tmp_path / "run").exists() or \
        not any((tmp_path / "run").iterdir())


def test_entropy_of_a_huge_d2_sizes_nothing(capsys):
    report = run_json(capsys, "entropy", "--lambda", "0.5", "--d2",
                      "100000000000")
    assert report["entropy_bits"] > 18.0


class TestErrorSurface:
    def test_parse_error_carries_offset(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        err = run_error(capsys, "helstrom", "--state0", str(bad),
                        "--state1", str(bad))
        assert err["type"] == "ParseError"
        assert isinstance(err["offset"], int)

    def test_missing_state_file(self, capsys, tmp_path):
        err = run_error(capsys, "helstrom",
                        "--state0", str(tmp_path / "none0.json"),
                        "--state1", str(tmp_path / "none1.json"))
        assert err["type"] == "ConfigError"

    def test_state_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"layout": "\xe9t\xe9"}')
        err = run_error(capsys, "helstrom", "--state0", str(bad),
                        "--state1", str(bad))
        assert err["type"] == "ParseError"
        assert err["offset"] == 12

    def test_state_file_json_offset_counts_bytes(self, capsys, tmp_path):
        bad = tmp_path / "psi.json"
        bad.write_text('{"layout": "\u03c8",}', encoding="utf-8")
        err = run_error(capsys, "helstrom", "--state0", str(bad),
                        "--state1", str(bad))
        assert err["type"] == "ParseError"
        assert err["offset"] == len('{"layout": "\u03c8",'.encode("utf-8"))

    def test_state_file_layout_dim_must_be_an_integer(self, capsys, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text('{"layout": [{"label": "A1", "dim": true}], '
                       '"entries": [[1.0, 0.0]]}')
        err = run_error(capsys, "helstrom", "--state0", str(bad),
                        "--state1", str(bad))
        assert err["type"] == "ParseError"
        assert "integer dim" in err["message"]

    def test_state_file_is_a_directory(self, capsys, tmp_path):
        err = run_error(capsys, "helstrom", "--state0", str(tmp_path),
                        "--state1", str(tmp_path))
        assert err["type"] == "ConfigError"

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"outputs": {"\u03c8": 1,}}', encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_manifest(path)
        # the byte offset of the stray "}", after the two-byte psi
        assert info.value.offset == len('{"outputs": {"\u03c8": 1,'
                                        .encode("utf-8"))

    def test_manifest_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("key", ["outputs", "inputs"])
    def test_manifest_entries_that_are_not_an_object(self, tmp_path, key):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({key: ["report.json"]}), encoding="utf-8")
        with pytest.raises(ParseError, match="must be JSON objects"):
            load_manifest(path, verify=True)

    @pytest.mark.parametrize("key", ["outputs", "inputs"])
    def test_manifest_entry_that_is_a_directory(self, tmp_path, key):
        (tmp_path / "runs").mkdir()
        name = "runs" if key == "outputs" else str(tmp_path / "runs")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({key: {name: "0" * 64}}), encoding="utf-8")
        with pytest.raises(ConfigError, match="not a file"):
            load_manifest(path, verify=True)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


def readme_examples():
    """The ``locclab ...`` command lines of the README's ``sh`` block of
    CLI examples, continuation lines joined, as argv lists."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    block = next(b for b in blocks if "\nlocclab " in "\n" + b)
    return [shlex.split(line)[1:] for line in
            block.replace("\\\n", " ").splitlines()
            if line.startswith("locclab ")]


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "index", range(len(README_EXAMPLES)),
    ids=[f"{i}-{argv[0]}" for i, argv in enumerate(README_EXAMPLES)])
def test_readme_example(capsys, tmp_path, index):
    # each line runs as written, with its runs/... paths under tmp_path,
    # after the earlier lines that write the runs/... files it reads
    def local(argv):
        return [str(tmp_path / a) if a.startswith("runs/") else a
                for a in argv]

    argv = README_EXAMPLES[index]
    for earlier in README_EXAMPLES[:index]:
        if "--out" in earlier:
            out = earlier[earlier.index("--out") + 1] + "/"
            if any(a.startswith(out) for a in argv):
                run_json(capsys, *local(earlier))
    code, out, err = run_cli(capsys, *local(argv))
    assert code == 0, err
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert isinstance(json.loads(out), dict)

# What an installer writes into the `locclab` script: load the declared
# entry point and exit with its return value. Run as
# `python -c WRAPPER <name> <module:attr> <args...>`.
WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
target = EntryPoint(name, value, "console_scripts").load()
sys.argv = [name] + sys.argv[3:]
sys.exit(target())
"""


class TestEntryPoint:
    ARGS = ("helstrom", "--family", "werner", "--d", "2")

    def check_run(self, cmd, env=None):
        proc = subprocess.run([*cmd, *self.ARGS], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["p_opt"] == pytest.approx(1.0)

    def test_console_script(self):
        exe = shutil.which("locclab")
        if tomllib is None and exe is None:
            pytest.skip("no TOML parser to read pyproject.toml (tomllib needs "
                        "Python 3.11+, tomli is not installed) and no locclab "
                        "console script on PATH")
        if tomllib is not None:
            # the declared script, run from the checkout this process imported
            with PYPROJECT.open("rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["locclab"]
            src = str(Path(locclab.__file__).resolve().parents[1])
            path = filter(None, [src, os.environ.get("PYTHONPATH")])
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
            self.check_run([sys.executable, "-c", WRAPPER, "locclab", target],
                           env=env)
        if exe:
            self.check_run([exe])
