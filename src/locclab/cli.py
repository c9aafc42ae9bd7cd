"""Command-line front end.

Subcommands: helstrom, bounds, simulate, detect, concentrate, rate,
entropy, construct. Structured outputs are JSON; tabular plot data is
CSV; round streams are JSON-lines with one header line and one round
record per line. One writer owns --out: it writes a run's files in
order, then a manifest with a config hash and SHA-256 digests of the
run's inputs and outputs. A run that fails removes those files and
manifest.json from --out, an earlier run's included, and an --out that
cannot be written is a ConfigError naming the path.

All randomness flows from the --seed root through labeled substreams
(the labels appear in the manifest), and the game commands (simulate,
rate, detect) play their trials with the array engine ``play_trial`` in
trial-id order in one thread, writing each trial's JSONL lines straight
from its arrays, so identical (config, seed, version) give
byte-identical JSONL/CSV artifacts. They keep only the scores (with
--out each trial's lines are written before the next is played).
``--threads`` is still accepted and validated but changes no work:
every trial is a few vector operations, and there is no pool.

Monte-Carlo frequencies in the stdout reports carry their sample counts
and 99% Wilson intervals.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import operator
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, LoccLabError, ParseError
from .game import (DetectionConfig, IIDStrategy, RateEstimate, TrialArrays,
                   azuma_bound, default_detection_oracle, hoeffding_bound,
                   memory_block_strategy, min_rounds, play_trial)
from .protocols import _law_columns, _use_exact, concentration_success_prob
from .qmat import (DensityOperator, TensorLayout, _fmt17, _same_layout,
                   operator_from_json, operator_to_json, trace_norm)
from .states import (HidingPairSpec, PsiSpec, check_psi_conditions,
                     make_hiding_pair, make_max_entangled, make_psi,
                     make_rho_pair, psi_product_distance, psi_spectrum)
from .stats import wilson_interval

ARTIFACT_VERSION = "1"


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified run: command, its parameters, and the
    plumbing knobs, built from the parsed flags by ``_config_from_args``:
    the parser is the schema of every name, type, default and choice."""

    command: str
    seed: int = 0
    out: str | None = None
    threads: int = 1
    fmt: str = "json"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {self.threads}")

    def to_dict(self) -> dict:
        return {"command": self.command, "seed": self.seed, "out": self.out,
                "threads": self.threads, "format": self.fmt,
                "params": dict(sorted(self.params.items()))}

    def physics_dict(self) -> dict:
        """The experiment identity: everything that may influence artifact
        bytes. Plumbing (out path, thread count, stdout format) is
        excluded so identical experiments hash and serialize identically
        regardless of where or how parallel they ran."""
        return {"command": self.command, "seed": self.seed,
                "params": dict(sorted(self.params.items()))}


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_HASH_CHUNK = 1 << 20  # bytes per read, so hashing never holds a whole artifact


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


# --- manifest ------------------------------------------------------------

def write_manifest(out_dir: Path, config: ExperimentConfig,
                   outputs: list[Path], inputs: list[Path] = (),
                   seed_streams: tuple[str, ...] = ()) -> dict:
    """Write and return out_dir/manifest.json over outputs and inputs.
    Inputs are recorded under their resolved absolute paths, so the
    manifest checks them from any working directory."""
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "command": config.command,
        "config": config.to_dict(),
        "config_hash": hashlib.sha256(
            _canonical_json(config.physics_dict()).encode("utf-8")).hexdigest(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed_streams": list(seed_streams),
        "inputs": {str(Path(p).resolve()): _sha256_file(Path(p)) for p in inputs},
        "outputs": {p.name: _sha256_file(p) for p in outputs},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return manifest


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of the regular file ``path``: ConfigError if there
    is none, ParseError at the first byte that is not UTF-8."""
    if not path.is_file():
        raise ConfigError(f"{what} {path} does not exist or is not a file")
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8: {exc.reason}",
                         offset=exc.start) from exc


def load_manifest(path, verify: bool = True) -> dict:
    """Re-load a run manifest, re-hashing the recorded inputs and
    outputs. A missing or non-file manifest, input or output, or a
    digest mismatch (a tampered or regenerated file), raises
    ConfigError; a malformed manifest raises ParseError."""
    path = Path(path)
    text = _read_text(path, "manifest")
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed manifest JSON: {exc.msg}",
                         offset=len(text[:exc.pos].encode("utf-8"))) from exc
    if not isinstance(manifest, dict):
        raise ParseError("manifest JSON must be an object")
    outputs, inputs = manifest.get("outputs", {}), manifest.get("inputs", {})
    if not (isinstance(outputs, dict) and isinstance(inputs, dict)):
        raise ParseError("manifest outputs and inputs must be JSON objects")
    if verify:
        recorded = [(path.parent / name, digest, "output")
                    for name, digest in outputs.items()]
        recorded += [(Path(name), digest, "input")
                     for name, digest in inputs.items()]
        for target, digest, what in recorded:
            if not target.is_file():
                raise ConfigError(f"manifest {what} {target} is missing or "
                                  "not a file")
            if _sha256_file(target) != digest:
                raise ConfigError(f"digest mismatch for {what} {target}")
    return manifest


# --- state sources --------------------------------------------------------


def _require(params: dict, *names):
    """Check parameters that only some --protocol or --family values need."""
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise ConfigError(f"missing required parameters: {missing}")


def _param(params: dict, name: str, default):
    """``params[name]``, or ``default`` when it is missing or None: a
    default that lives only in the command, outside the config hash. Any
    given value, 0 included, is kept for the command to check."""
    value = params.get(name)
    return default if value is None else value


def _count(params: dict, name: str) -> int:
    """A round or trial count, which must be >= 1."""
    value = params[name]
    if value < 1:
        raise ConfigError(f"--{name} must be >= 1, got {value}")
    return value


def _load_pair(params: dict) -> tuple[DensityOperator, DensityOperator, list[Path]]:
    """Resolve (state0, state1) from files or a named family."""
    f0, f1 = params.get("state0"), params.get("state1")
    if (f0 is None) != (f1 is None):
        raise ConfigError("--state0 and --state1 must be given together")
    if f0 is not None:
        paths = [Path(f0), Path(f1)]
        states = [operator_from_json(_read_text(p, "state file"), density=True)
                  for p in paths]
        return states[0], states[1], paths
    family = params.get("family")
    d = _param(params, "d", 2)
    if family == "werner":
        s0, s1 = make_hiding_pair(HidingPairSpec(d=d))
        return s0, s1, []
    if family == "pure-vs-mixed":
        layout = TensorLayout((("A", d),))
        pure = np.zeros((d, d), dtype=np.complex128)
        pure[0, 0] = 1.0
        return (DensityOperator(layout, pure),
                DensityOperator(layout, np.eye(d) / d), [])
    raise ConfigError("give --state0/--state1 files or --family")


def _make_strategy(params: dict, seed: int):
    """The --protocol strategy, the manifest entries of the substreams
    that building it drew, and its entries in the run's report. A
    memory-block strategy whose block law has too many label types to
    enumerate samples it from one substream of the --seed root, and the
    report gives that estimate's 99% Wilson interval and sample count; an
    exact law draws and adds nothing."""
    if params["protocol"] == "iid":
        _require(params, "p")
        return IIDStrategy(params["p"]), (), {}
    _require(params, "lam", "d2", "n_block")
    strategy = memory_block_strategy(
        _param(params, "d1", 2), PsiSpec(lam=params["lam"], d2=params["d2"]),
        params["n_block"], seed)
    est = strategy.block_estimate
    if est.exact:
        return strategy, (), {}
    return strategy, ("concentration-success.<n>.<samples>",), {
        "block_success_ci": [est.ci_low, est.ci_high],
        "block_success_samples": est.samples}


def _ci_json(successes: int, trials: int) -> list[float] | None:
    """99% Wilson interval as a JSON pair; null for zero trials."""
    return list(wilson_interval(successes, trials)) if trials else None


# --- artifact writers ------------------------------------------------------

def _write_outputs(config: ExperimentConfig, files: dict[str, Iterable[str]],
                   inputs: list[Path] = (),
                   seed_streams: tuple[str, ...] = ()) -> dict[str, str]:
    """Write ``files`` (name -> its text in chunks) into --out in order,
    then a manifest over them; return its output digests ({} without
    --out). A run that raises removes these names and manifest.json from
    a directory --out; an OSError becomes a ConfigError naming --out."""
    if not config.out:
        return {}
    out_dir = Path(config.out)
    paths = [out_dir / name for name in files]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, chunks in zip(paths, files.values()):
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.writelines(chunks)
        return write_manifest(out_dir, config, paths, inputs=inputs,
                              seed_streams=seed_streams)["outputs"]
    except BaseException as exc:
        for path in [*paths, out_dir / "manifest.json"]:
            with contextlib.suppress(OSError):
                path.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write --out {out_dir}: {exc}") from exc
        raise


class _Strings(dict):
    """Memo of ``make(key)``: each distinct key is formatted once."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key) -> str:
        value = self[key] = self.make(key)
        return value


# the head of a round line, indexed by 4 X + 2 Y + Z (TrialArrays hold bits)
_ROUND_HEADS = tuple(f'{{"X":{c >> 2},"Y":{c >> 1 & 1},"Z":{c & 1},"j":'
                     for c in range(8))


def _trial_streams(*prefixes: str) -> tuple[str, ...]:
    """Manifest entries of the substreams that ``play_trial`` draws under
    each stream prefix."""
    return tuple(f"{prefix}.{name}" for prefix in prefixes
                 for name in ("rounds", "success", "strategy"))


def _play_games(config: ExperimentConfig, protocol_id: str, n: int,
                games: Iterable[TrialArrays],
                guess: Callable[[int, int], str] | None = None,
                seed_streams: tuple[str, ...] = ()) -> tuple[list, dict]:
    """Play ``games`` (trials in trial-id order) and return their final
    scores and the report's ``files`` entry (``{}`` without --out). Each
    trial is freed once scored and, with --out, its transcripts.jsonl
    lines written; the summary.csv rows (guess column ``guess(score,
    rounds)``) follow the last trial. A round line has the bytes
    _canonical_json gives its record: the ``{"X":x,"Y":y,"Z":z,"j":`` head
    of its bits, the ``j,"memory":`` piece of its round, its escaped
    descriptor (each distinct one escaped once) and the trial's tail.
    """
    if not config.out:
        return [tr.final_score for tr in games], {}
    scores, summary = [], ["trial,n,S_n,rate,guess\n"]

    def transcripts():
        yield _canonical_json({"protocol_id": protocol_id, "seed": config.seed,
                               "n": n, "config": config.physics_dict()}) + "\n"
        escaped = _Strings(json.dumps)
        rounds = []  # the j,"memory": pieces so far
        for trial, tr in enumerate(games):
            rounds += map('{},"memory":'.format,
                          range(len(rounds) + 1, tr.n + 1))
            # four pieces per line, each column filled by one slice
            pieces = [f',"trial":{trial}}}\n'] * (4 * tr.n)
            pieces[::4] = map(_ROUND_HEADS.__getitem__,
                              (4 * tr.X + 2 * tr.Y + tr.Z).tolist())
            pieces[1::4] = rounds[:tr.n]
            pieces[2::4] = map(escaped.__getitem__, tr.descriptors[1:])
            yield "".join(pieces)
            scores.append(score := tr.final_score)
            summary.append(f"{trial},{tr.n},{score},{_fmt17(score / tr.n)},"
                           f"{guess(score, tr.n) if guess else ''}\n")

    files = {"transcripts.jsonl": transcripts(), "summary.csv": summary}
    _write_outputs(config, files, seed_streams=seed_streams)
    return scores, {"files": {key: str(Path(config.out, name)) for key, name in
                              zip(("transcripts", "summary", "manifest"),
                                  [*files, "manifest.json"])}}


_CSV_ROWS = 1 << 14  # distribution.csv rows per write


def _distribution_csv(counts: np.ndarray, log2_dim: list, probability: list):
    """distribution.csv in chunks: the header, then one
    ``k_1|...|k_L,log2_dim,probability`` row per row of the law's columns
    (``_law_columns``), each row one %-format of its counts and two
    floats, _CSV_ROWS rows per chunk.

    A law has few distinct log2 dimensions and probabilities, so each
    float is formatted once. The memo's keys compare by value, so -0.0
    would share 0.0's string; neither column holds a negative zero.
    """
    row = "|".join(["%d"] * counts.shape[1]) + ",%s,%s\n"
    fmt17 = _Strings(_fmt17)
    yield "counts,log2_dim,probability\n"
    for lo in range(0, len(counts), _CSV_ROWS):
        hi = lo + _CSV_ROWS
        yield "".join(map(row.__mod__, map(
            operator.add, map(tuple, counts[lo:hi].tolist()),
            zip(map(fmt17.__getitem__, log2_dim[lo:hi]),
                map(fmt17.__getitem__, probability[lo:hi])))))


# --- subcommands ------------------------------------------------------------

def cmd_helstrom(config: ExperimentConfig) -> dict:
    rho0, rho1, inputs = _load_pair(config.params)
    # the layouts are checked before the entries are subtracted; p_opt is
    # helstrom's formula on the one trace norm
    _same_layout(rho0, rho1)
    td = trace_norm(rho0.entries - rho1.entries)
    report = {"trace_distance": td, "p_opt": 0.5 + 0.25 * td}
    _write_outputs(config, {"report.json": [_canonical_json(report), "\n"]},
                   inputs=inputs)
    return report


def cmd_bounds(config: ExperimentConfig) -> dict:
    # the one command that solves loads the solver layer, and only it
    from .distinguish import bound_bracket

    rho0, rho1, inputs = _load_pair(config.params)
    bracket = bound_bracket(rho0, rho1)
    report = {
        "locc_lower": bracket.locc_lower,
        "ppt_upper": bracket.ppt_upper,
        "helstrom": bracket.helstrom,
        "sdp_gap": bracket.sdp_gap,
        "witness": bracket.witness_id,
    }
    _write_outputs(config, {"report.json": [_canonical_json(report), "\n"]},
                   inputs=inputs)
    return report


def cmd_entropy(config: ExperimentConfig) -> dict:
    params = config.params
    spec = PsiSpec(lam=params["lam"], d2=params["d2"])
    eps_prime = _param(params, "eps_prime", psi_product_distance(spec))
    d1 = _param(params, "d1", 2)
    cond = check_psi_conditions(spec, d1, eps_prime)
    return {
        "entropy_bits": cond.entropy_bits,
        "trace_distance_to_product": cond.trace_distance,
        "near_product": cond.near_product,
        "entropy_excess": cond.entropy_excess,
        "d1": d1,
        "eps_prime": eps_prime,
    }


def cmd_construct(config: ExperimentConfig) -> dict:
    params = config.params
    if not config.out:
        raise ConfigError("construct requires --out DIRECTORY")
    family = params["family"]
    if family == "werner":
        s0, s1 = make_hiding_pair(HidingPairSpec(d=_param(params, "d", 2)))
        ops = {"sigma0.json": s0, "sigma1.json": s1}
    elif family == "psi":
        _require(params, "lam", "d2")
        ops = {"psi.json": make_psi(PsiSpec(lam=params["lam"], d2=params["d2"]))}
    elif family == "rho-pair":
        _require(params, "lam", "d2")
        pair = make_hiding_pair(HidingPairSpec(d=_param(params, "d", 2)))
        psi = make_psi(PsiSpec(lam=params["lam"], d2=params["d2"]))
        r0, r1 = make_rho_pair(pair, psi)
        ops = {"rho0.json": r0, "rho1.json": r1}
    else:
        dim = _param(params, "dim", 2)
        ops = {"phi.json": make_max_entangled(dim)}
    # the operators are built (and their parameters checked) before --out
    # is created, so a rejected run leaves nothing behind
    files = {name: [operator_to_json(op), "\n"] for name, op in ops.items()}
    return {"written": _write_outputs(config, files)}


def cmd_concentrate(config: ExperimentConfig) -> dict:
    params = config.params
    spectrum = psi_spectrum(PsiSpec(lam=params["lam"], d2=params["d2"]))
    n, mode, samples = params["n"], params["mode"], params["samples"]
    counts, log2_dim, probability = _law_columns(spectrum, n, mode, samples,
                                                 config.seed)
    log2_dim, probability = log2_dim.tolist(), probability.tolist()
    mean_bits = sum(map(operator.mul, probability, log2_dim))
    report = {
        "n": n,
        "entropy_bits": spectrum.entropy_bits,
        "mean_log2_dim": mean_bits,
        "mean_log2_dim_per_copy": mean_bits / n,
        "outcomes": len(counts),
        "mode": mode,
    }
    sampled = not _use_exact(spectrum, n, mode, samples)
    if sampled:
        report["samples"] = samples
    # a sampled law draws one substream, and a sampled target one more
    streams = ("concentration-distribution.<n>.<samples>",) if sampled else ()
    target = params.get("target")
    if target is not None:
        est = concentration_success_prob(spectrum, n, target, mode=mode,
                                         samples=samples, seed=config.seed)
        report["target_log2_dim"] = target
        report["success_prob"] = est.estimate
        report["success_ci"] = [est.ci_low, est.ci_high]
        report["success_exact"] = est.exact
        if sampled:
            streams += ("concentration-success.<n>.<samples>",)
    _write_outputs(config, {
        "distribution.csv": _distribution_csv(counts, log2_dim, probability),
        "report.json": [_canonical_json(report), "\n"]},
        seed_streams=streams)
    return report


def cmd_simulate(config: ExperimentConfig) -> dict:
    params = config.params
    strategy, streams, block = _make_strategy(params, config.seed)
    rounds = _count(params, "rounds")
    trials = _count(params, "trials")

    scores, written = _play_games(
        config, strategy.protocol_id, rounds,
        (play_trial(strategy, rounds, config.seed, stream=("trial", t))
         for t in range(trials)),
        seed_streams=streams + _trial_streams("trial.<t>"))
    rates = [score / rounds for score in scores]
    return {
        "protocol_id": strategy.protocol_id,
        "trials": trials,
        "rounds": rounds,
        "mean_rate": float(np.mean(rates)),
        "min_rate": float(np.min(rates)),
        "max_rate": float(np.max(rates)),
        # pooled over every round played; exact coverage assumes
        # independent rounds (the iid protocol)
        "pooled_rounds": trials * rounds,
        "mean_rate_ci": _ci_json(sum(scores), trials * rounds),
        **block,
        **written,
    }


def cmd_detect(config: ExperimentConfig) -> dict:
    params = config.params
    delta, mode = params["delta"], params["mode"]
    trials = _count(params, "trials")
    n = params.get("n")
    if n is None:
        n = min_rounds(delta, _param(params, "trace_distance", 1.0))
    det_config = DetectionConfig(p_tau=params["p_tau"],
                                 p_locc=params["p_locc"], delta=delta, n=n,
                                 mode=mode)
    oracle = default_detection_oracle(det_config)

    worlds = ("tau", "gamma")  # trial t plays worlds[t % 2]

    def guess(score: int, rounds: int) -> str:
        return det_config.guess(score / rounds)

    scores, written = _play_games(
        config, "detect-" + mode, det_config.n,
        (play_trial(oracle.strategy_for(worlds[t % 2]), det_config.n,
                    config.seed, stream=("trial", t, "detect", worlds[t % 2]))
         for t in range(trials)),
        guess=guess,
        seed_streams=_trial_streams(*(f"trial.<t>.detect.{world}"
                                      for world in worlds[:trials])))
    report = {
        "n": det_config.n,
        "mode": mode,
        "trials": trials,
        "hoeffding": hoeffding_bound(det_config.n, delta),
        "azuma": azuma_bound(det_config.n, delta),
        **written,
    }
    # a world that ran no trial has no frequency, and then neither does
    # the overall mean
    for w, world in enumerate(worlds):
        count = len(scores[w::2])
        hits = sum(guess(s, det_config.n) == world for s in scores[w::2])
        report[f"p_corr_{world}"] = hits / count if count else None
        report[f"trials_{world}"] = count
        report[f"p_corr_{world}_ci"] = _ci_json(hits, count)
    tau, gamma = report["p_corr_tau"], report["p_corr_gamma"]
    report["overall"] = None if None in (tau, gamma) else 0.5 * (tau + gamma)
    return report


def cmd_rate(config: ExperimentConfig) -> dict:
    params = config.params
    strategy, streams, block = _make_strategy(params, config.seed)
    r = params["r"]
    if not 0.0 <= r <= 1.0:
        raise ConfigError(f"--r must lie in [0, 1], got {r}")
    try:
        n_list = [int(tok) for tok in params["n_list"].split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--n-list must be comma-separated integers: {exc}")
    if not n_list or any(n < 1 for n in n_list):
        raise ConfigError("--n-list must contain positive integers")
    trials = _count(params, "trials")

    scores, written = _play_games(
        config, strategy.protocol_id, n_list[-1],
        (play_trial(strategy, n, config.seed, stream=("rate", n, t))
         for n in n_list for t in range(trials)),
        seed_streams=streams + _trial_streams("rate.<n>.<t>"))
    # scores come checkpoint by checkpoint, ``trials`` of each
    hits = [sum(RateEstimate.reached(score, r, n) for score in scores[i:i + trials])
            for i, n in zip(range(0, len(scores), trials), n_list)]
    return {
        "r": r,
        "n_list": n_list,
        "success_frac": [h / trials for h in hits],
        "success_ci": [_ci_json(h, trials) for h in hits],
        "trials": trials,
        "protocol_id": strategy.protocol_id,
        **block,
        **written,
    }


_COMMANDS = {
    "helstrom": cmd_helstrom,
    "bounds": cmd_bounds,
    "simulate": cmd_simulate,
    "detect": cmd_detect,
    "concentrate": cmd_concentrate,
    "rate": cmd_rate,
    "entropy": cmd_entropy,
    "construct": cmd_construct,
}


# --- argument parsing ----------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="root seed for all labeled substreams")
    common.add_argument("--out", type=str, default=None,
                        help="output directory for artifacts")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility (must be >= 1); "
                             "trials run in trial-id order in one thread")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json", help="stdout report format")

    parser = argparse.ArgumentParser(
        prog="locclab",
        description="Numerical laboratory for LOCC state discrimination "
                    "with catalysts and reusable quantum memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--state0", type=str)
    pair.add_argument("--state1", type=str)
    pair.add_argument("--d", type=int)

    protocol = argparse.ArgumentParser(add_help=False)
    protocol.add_argument("--protocol", choices=("iid", "memory-block"),
                          required=True)
    protocol.add_argument("--p", type=float)
    protocol.add_argument("--d1", type=int)
    protocol.add_argument("--lambda", dest="lam", type=float)
    protocol.add_argument("--d2", type=int)
    protocol.add_argument("--n-block", dest="n_block", type=int)

    p = sub.add_parser("helstrom", parents=[common, pair],
                       help="optimal two-state discrimination probability")
    p.add_argument("--family", choices=("werner", "pure-vs-mixed"))
    p = sub.add_parser("bounds", parents=[common, pair],
                       help="LOCC lower / PPT upper / global bound bracket")
    # the PPT bracket needs a bipartite pair, which pure-vs-mixed is not
    p.add_argument("--family", choices=("werner",))

    p = sub.add_parser("simulate", parents=[common, protocol],
                       help="multi-round discrimination game")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--trials", type=int, default=1)

    p = sub.add_parser("detect", parents=[common],
                       help="catalyst/memory threshold detection")
    p.add_argument("--p-tau", dest="p_tau", type=float, default=0.9)
    p.add_argument("--p-locc", dest="p_locc", type=float, default=0.75)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--n", type=int)
    p.add_argument("--trace-distance", dest="trace_distance", type=float)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mode", choices=("catalyst-threshold",
                                      "memory-threshold"),
                   default="catalyst-threshold")

    p = sub.add_parser("concentrate", parents=[common],
                       help="Schmidt-type concentration statistics")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("auto", "exact", "sample"),
                   default="auto")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--target", type=float)

    p = sub.add_parser("rate", parents=[common, protocol],
                       help="empirical achievable-rate estimation")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n-list", dest="n_list", type=str, required=True)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("entropy", parents=[common],
                       help="marginal entropy and near-product report")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--d1", type=int)
    p.add_argument("--eps-prime", dest="eps_prime", type=float)

    p = sub.add_parser("construct", parents=[common],
                       help="write state files for a named family")
    p.add_argument("--family", choices=("werner", "psi", "rho-pair",
                                        "max-entangled"), required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--dim", type=int)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    reserved = {"command", "seed", "out", "threads", "fmt"}
    params = {k: v for k, v in vars(args).items()
              if k not in reserved and v is not None}
    return ExperimentConfig(command=args.command, seed=args.seed,
                            out=args.out, threads=args.threads,
                            fmt=args.fmt, params=params)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt17(value)
    if isinstance(value, (list, dict)):
        return "\"" + _canonical_json(value).replace("\"", "\"\"") + "\""
    return str(value)


def _render(report: dict, fmt: str) -> str:
    if fmt == "csv":
        keys = sorted(report)
        return (",".join(keys) + "\n"
                + ",".join(_csv_cell(report[k]) for k in keys))
    return _canonical_json(report)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        report = _COMMANDS[config.command](config)
    except LoccLabError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, ParseError) and exc.offset is not None:
            payload["error"]["offset"] = exc.offset
        print(_canonical_json(payload), file=sys.stderr)
        return 1
    print(_render(report, config.fmt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
