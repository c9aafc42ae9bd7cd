"""The benchmark workloads: seeded item lists and output checks.

A pass is a list of items run one after another (closed loop, one
process). An item is one call into locclab: a certified bracket, one
CLI command through ``locclab.cli.main``, one library estimate or one
concentration distribution. ``Item.call`` is the timed part; its inputs
are drawn from the seed before the call, so the program receives only
the generated inputs. ``Item.check`` verifies the output afterwards and
returns failure messages; it runs inside the pass but outside the item's
latency.

Workloads reach locclab through attribute lookups on the module object
(``L.bound_bracket(...)``) at call time, so the traced run's runtime
wrappers see every call.
Every pass starts with the item that allocates the largest arrays (the
D=36 solve, the n=16 enumeration). The first large free raises the
allocator's dynamic mmap threshold, after which medium-sized arrays stop
paying fresh page faults (a composed D=16 bracket takes 0.19 s before
the first D=36 solve and 0.08 s after it); starting with it gives every
pass the same allocator state.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Ordering slack used by BoundBracket itself.
ORDER_SLACK = 1e-9
# Closed-form and composed-ceiling checks, as pinned by acceptance criteria 2-3.
BOUND_TOL = 1e-5
# Concentration laws: probabilities sum to 1, and the exact success
# probability equals the tail sum of the exact distribution.
PROB_TOL = 1e-12


class CommandFailed(Exception):
    """A CLI command returned a non-zero exit code."""


@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], list]
    # game rounds the item simulates (trials x n), for rounds_per_s
    rounds: int = 0
    # CLI commands count towards rounds_per_s; library calls do not
    cli: bool = False


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _ordered_bracket(br, tol) -> list:
    chain = (0.5, br.locc_lower, br.ppt_upper, br.helstrom, 1.0)
    bad = []
    if any(lo > hi + ORDER_SLACK for lo, hi in zip(chain, chain[1:])):
        bad.append(f"bracket out of order: {chain}")
    if not br.sdp_gap <= tol:
        bad.append(f"sdp_gap {br.sdp_gap} exceeds {tol}")
    return bad


def _record_gap(ctx, br) -> None:
    ctx["cert_gap_max"] = max(ctx.get("cert_gap_max", 0.0), float(br.sdp_gap))


class Part:
    """One family of items, with its warm-up and its per-pass bookkeeping.
    A workload runs the items of its parts one after another."""

    @staticmethod
    def warmup(L) -> None:
        pass

    @staticmethod
    def new_context(work: Path) -> dict:
        return {}

    @staticmethod
    def pass_facts(times: dict, ctx: dict) -> dict:
        return {}


# --- structured brackets -----------------------------------------------------

class BracketStructured(Part):
    werner_d = (2, 3, 4)
    # composed pairs sigma(d=2) (x) psi(lam, d2), one entry per item
    composed_d2 = (3, 2, 2, 2, 2)
    lam_range = (0.9, 0.999)

    @staticmethod
    def warmup(L) -> None:
        L.bound_bracket(*L.make_hiding_pair(L.HidingPairSpec(d=2)))

    def items(self, L, rng, work: Path, stratum: tuple) -> list:
        tol = L.TOL.sdp_gap
        out = []
        for d2 in self.composed_d2:
            lam = float(rng.uniform(*self.lam_range))

            def call(d2=d2, lam=lam):
                pair = L.make_hiding_pair(L.HidingPairSpec(d=2))
                psi = L.make_psi(L.PsiSpec(lam=lam, d2=d2))
                return L.bound_bracket(*L.make_rho_pair(pair, psi))

            def check(br, ctx, d2=d2, lam=lam):
                _record_gap(ctx, br)
                bad = _ordered_bracket(br, tol)
                # LOCC norm of the d=2 hiding pair is 4 eps with eps = 1/3
                ceiling = L.thm2_locc_bound(
                    1.0 / 3.0, L.psi_product_distance(L.PsiSpec(lam=lam, d2=d2)))
                if br.ppt_upper > ceiling + BOUND_TOL:
                    bad.append(f"composed d2={d2} lam={lam}: ppt_upper "
                               f"{br.ppt_upper} above thm2 ceiling {ceiling}")
                return bad
            out.append(Item(f"composed-d2{d2}", call, check))

        for d in self.werner_d:
            def call(d=d):
                return L.bound_bracket(*L.make_hiding_pair(L.HidingPairSpec(d=d)))

            def check(br, ctx, d=d):
                _record_gap(ctx, br)
                bad = _ordered_bracket(br, tol)
                if abs(br.ppt_upper - (0.5 + 1.0 / (d + 1))) > BOUND_TOL:
                    bad.append(f"werner d={d} ppt_upper {br.ppt_upper} != "
                               f"0.5 + 1/(d+1)")
                return bad
            out.append(Item(f"werner-d{d}", call, check))
        return out


# --- generic brackets --------------------------------------------------------

class BracketGeneric(Part):
    # (dA, dB) -> pairs per pass; two passes hold ~60 pairs
    shapes = (((2, 8), 1), ((4, 4), 1), ((3, 4), 4), ((3, 3), 4),
              ((2, 4), 4), ((3, 2), 5), ((2, 3), 5), ((2, 2), 6))

    @staticmethod
    def _random_state(rng, dim: int) -> np.ndarray:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real

    def items(self, L, rng, work: Path, stratum: tuple) -> list:
        tol = L.TOL.sdp_gap
        out = []
        for (da, db), count in self.shapes:
            for _ in range(count):
                m0 = self._random_state(rng, da * db)
                m1 = self._random_state(rng, da * db)

                def call(da=da, db=db, m0=m0, m1=m1):
                    layout = L.TensorLayout((("A", da), ("B", db)))
                    return L.bound_bracket(L.DensityOperator(layout, m0),
                                           L.DensityOperator(layout, m1))

                def check(br, ctx):
                    _record_gap(ctx, br)
                    return _ordered_bracket(br, tol)
                out.append(Item(f"random-{da}x{db}", call, check))
        return out


# --- trials -------------------------------------------------------------------

def _cli(L, argv: list) -> dict:
    """Run one locclab command in-process; return its parsed report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = L.cli.main([str(a) for a in argv])
    if rc != 0:
        raise CommandFailed(f"locclab {argv[0]} exited {rc}")
    return json.loads(buf.getvalue())


def _verified_outputs(L, report: dict) -> tuple[dict, list]:
    """load_manifest(verify=True) on a CLI run's manifest; returns the
    output digests and any failure messages."""
    try:
        manifest = L.cli.load_manifest(report["files"]["manifest"], verify=True)
    except L.LoccLabError as exc:
        return {}, [f"manifest verify failed: {exc}"]
    return manifest["outputs"], []


def _artifact_bytes(report: dict) -> int:
    return sum(Path(p).stat().st_size for p in report["files"].values())


def _check_ensemble(x, trials: int, n: int) -> list:
    if x.shape != (trials, n) or not np.isin(x, (0, 1)).all():
        return [f"ensemble shape {x.shape} or values outside {{0, 1}}"]
    return []


class Trials(Part):
    # README memory-block rate example; a run's three passes cover ~200
    # rate trials. The other CLI commands use 40% of the README trial counts.
    mb = dict(d1=2, lam=0.5, d2=8, n_block=16, r=0.9, n=3200, trials=64)
    # the example on which CLI rate and estimate_rate disagree (ROADMAP.md)
    iid_rate = dict(p=0.5, r=0.55, n=20, trials=200)
    sim = dict(rounds=2000, trials=40)
    det = dict(p_tau=0.9, p_locc=0.75, delta=0.05, trials=40)
    det_lib_trials = 1000
    ens = dict(n=320, trials=50)

    @staticmethod
    def warmup(L) -> None:
        import locclab.cli  # noqa: F401  (CLI users pay this import)
        _cli(L, ["simulate", "--protocol", "iid", "--p", "0.8",
                 "--rounds", "20", "--trials", "2"])

    def items(self, L, rng, work: Path, stratum: tuple) -> list:
        mb, ir, sim, det = self.mb, self.iid_rate, self.sim, self.det
        mb_args = ["--protocol", "memory-block", "--d1", mb["d1"],
                   "--lambda", mb["lam"], "--d2", mb["d2"],
                   "--n-block", mb["n_block"], "--r", mb["r"]]
        det_args = ["--p-tau", det["p_tau"], "--p-locc", det["p_locc"],
                    "--delta", det["delta"], "--trials", det["trials"]]
        det_config = L.DetectionConfig(
            p_tau=det["p_tau"], p_locc=det["p_locc"], delta=det["delta"],
            n=L.min_rounds(det["delta"], 1.0))
        s_mb, s_iid, s_sim, s_det, s_ens, s_acc = (_seed(rng) for _ in range(6))
        p_sim = float(rng.uniform(0.6, 0.9))
        out = []

        def rate_mb():
            return _cli(L, ["rate", *mb_args, "--n-list", mb["n"],
                            "--trials", mb["trials"], "--seed", s_mb,
                            "--out", work / "rate"])

        def check_rate_mb(rep, ctx):
            _, bad = _verified_outputs(L, rep)
            ctx["artifact_bytes"] += _artifact_bytes(rep)
            if not 0.0 <= rep["success_frac"][0] <= 1.0:
                bad.append(f"rate success_frac {rep['success_frac']}")
            return bad
        out.append(Item("cli-rate-memory-block", rate_mb, check_rate_mb,
                        rounds=mb["trials"] * mb["n"], cli=True))

        def rate_mb_lib():
            strategy = L.memory_block_strategy(
                mb["d1"], L.PsiSpec(lam=mb["lam"], d2=mb["d2"]), mb["n_block"])
            return L.estimate_rate(strategy, None, mb["r"], mb["trials"],
                                   (mb["n"],), s_mb)

        def check_rate_lib(est, ctx):
            frac = est.success_frac[0]
            return [] if 0.0 <= frac <= 1.0 else [f"estimate_rate frac {frac}"]
        out.append(Item("lib-rate-memory-block", rate_mb_lib, check_rate_lib))

        def rate_iid():
            return _cli(L, ["rate", "--protocol", "iid", "--p", ir["p"],
                            "--r", ir["r"], "--n-list", ir["n"],
                            "--trials", ir["trials"], "--seed", s_iid])

        def check_rate_iid(rep, ctx):
            ctx["rate_iid_cli"] = rep["success_frac"][0]
            ctx["rate_iid_cli_trials"] = rep["trials"]
            return [] if rep["trials"] == ir["trials"] else ["trial count"]
        out.append(Item("cli-rate-iid", rate_iid, check_rate_iid,
                        rounds=ir["trials"] * ir["n"], cli=True))

        def rate_iid_lib():
            return L.estimate_rate(L.IIDStrategy(ir["p"]), None, ir["r"],
                                   ir["trials"], (ir["n"],), s_iid)

        def check_rate_iid_lib(est, ctx):
            ctx["rate_iid_lib"] = est.success_frac[0]
            ctx["rate_iid_lib_trials"] = est.trials
            return check_rate_lib(est, ctx)
        out.append(Item("lib-rate-iid", rate_iid_lib, check_rate_iid_lib))

        def ensemble_iid():
            return L.simulate_ensemble(L.IIDStrategy(p_sim), sim["rounds"],
                                       sim["trials"], s_sim)
        out.append(Item("lib-simulate-ensemble-iid", ensemble_iid,
                        lambda x, ctx: _check_ensemble(x, sim["trials"],
                                                       sim["rounds"])))

        sim_args = ["simulate", "--protocol", "iid", "--p", p_sim,
                    "--rounds", sim["rounds"], "--trials", sim["trials"],
                    "--seed", s_sim]
        sim_rounds = sim["rounds"] * sim["trials"]
        for threads in (1, 2):
            def simulate(threads=threads):
                return _cli(L, [*sim_args, "--threads", threads,
                                "--out", work / f"simulate-t{threads}"])

            def check_sim(rep, ctx, threads=threads):
                digests, bad = _verified_outputs(L, rep)
                ctx["artifact_bytes"] += _artifact_bytes(rep)
                if threads == 1:
                    ctx["sim_t1_outputs"] = digests
                elif digests != ctx.get("sim_t1_outputs"):
                    bad.append("simulate artifacts differ between --threads 1 and 2")
                return bad
            out.append(Item(f"cli-simulate-t{threads}", simulate, check_sim,
                            rounds=sim_rounds, cli=True))

        for with_out in (True, False):
            def detect(with_out=with_out):
                extra = ["--out", work / "detect"] if with_out else []
                return _cli(L, ["detect", *det_args, "--seed", s_det, *extra])

            def check_det(rep, ctx, with_out=with_out):
                bad = []
                if with_out:
                    _, bad = _verified_outputs(L, rep)
                    ctx["artifact_bytes"] += _artifact_bytes(rep)
                if not 0.0 <= rep["overall"] <= 1.0:
                    bad.append(f"detect overall {rep['overall']}")
                return bad
            out.append(Item("cli-detect" + ("-out" if with_out else ""), detect,
                            check_det, rounds=det["trials"] * det_config.n,
                            cli=True))

        def accuracy():
            return L.detection_accuracy(
                det_config, L.default_detection_oracle(det_config),
                self.det_lib_trials, s_acc)

        def check_acc(rep, ctx):
            return [] if 0.0 <= rep.overall <= 1.0 else [f"accuracy {rep.overall}"]
        out.append(Item("lib-detection-accuracy", accuracy, check_acc))

        def ensemble():
            strategy = L.memory_block_strategy(
                mb["d1"], L.PsiSpec(lam=mb["lam"], d2=mb["d2"]), mb["n_block"])
            return L.simulate_ensemble(strategy, self.ens["n"],
                                       self.ens["trials"], s_ens)

        out.append(Item("lib-simulate-ensemble-memory-block", ensemble,
                        lambda x, ctx: _check_ensemble(x, self.ens["trials"],
                                                       self.ens["n"])))
        return out

    @staticmethod
    def pass_facts(times: dict, ctx: dict) -> dict:
        """Harness-measured CLI facts of one pass."""
        return {
            "cli.write_s": times["cli-detect-out"] - times["cli-detect"],
            "cli.threads2_over_1": (times["cli-simulate-t2"]
                                    / times["cli-simulate-t1"]),
            "cli.artifact_bytes": ctx["artifact_bytes"],
            "cli.lib_rate_gap": ctx["rate_iid_cli"] - ctx["rate_iid_lib"],
            "cli.rate_cli_frac": ctx["rate_iid_cli"],
            "cli.rate_cli_trials": ctx["rate_iid_cli_trials"],
            "cli.rate_lib_frac": ctx["rate_iid_lib"],
            "cli.rate_lib_trials": ctx["rate_iid_lib_trials"],
        }

    @staticmethod
    def new_context(work: Path) -> dict:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        return {"artifact_bytes": 0}


# --- concentrate --------------------------------------------------------------

class Concentrate(Part):
    d2 = 8
    exact_n = (16, 15, 14, 13, 12, 11, 10)
    sample_n = 64
    sample_lam = (0.2, 0.8)
    samples = 200_000

    @staticmethod
    def warmup(L) -> None:
        L.concentration_distribution(L.psi_spectrum(L.PsiSpec(lam=0.5, d2=8)),
                                     4, mode="exact")

    def items(self, L, rng, work: Path, stratum: tuple) -> list:
        out = []
        for n in self.exact_n:
            lam = float(rng.uniform(0.2, 0.8))
            target = float(n * rng.uniform(1.0, 2.5))
            spectrum = L.psi_spectrum(L.PsiSpec(lam=lam, d2=self.d2))

            def dist(spectrum=spectrum, n=n):
                return L.concentration_distribution(spectrum, n, mode="exact")

            def check_dist(d, ctx, n=n, target=target):
                bad = _check_total(d, f"exact n={n}")
                ctx[("tail", n)] = math.fsum(
                    o.probability for o in d if o.log2_dim >= target - 1e-9)
                return bad
            out.append(Item(f"exact-dist-n{n}", dist, check_dist))

            def success(spectrum=spectrum, n=n, target=target):
                return L.concentration_success_prob(spectrum, n, target,
                                                    mode="exact")

            def check_success(est, ctx, n=n):
                tail = ctx.get(("tail", n))
                if tail is None or abs(est.estimate - tail) > PROB_TOL:
                    return [f"exact success n={n}: {est.estimate} != tail {tail}"]
                return []
            out.append(Item(f"exact-success-n{n}", success, check_success))

        # The sampled distribution costs ~2.1 s at lambda 0.2 and ~1.3 s at
        # 0.8. Pass k of P draws lambda from the k-th of P equal strata of
        # the range, so every run covers the range evenly and its timings
        # do not hinge on where the seed put lambda.
        k, passes = stratum
        lo, hi = self.sample_lam
        lam = lo + (hi - lo) * (k + float(rng.uniform())) / passes
        spectrum = L.psi_spectrum(L.PsiSpec(lam=lam, d2=self.d2))
        seed = _seed(rng)
        target = float(self.sample_n * rng.uniform(1.5, 2.5))

        def sampled():
            return L.concentration_distribution(
                spectrum, self.sample_n, mode="sample", samples=self.samples,
                seed=seed)
        out.append(Item("sample-dist-n64", sampled,
                        lambda d, ctx: _check_total(d, "sampled n=64")))

        def sampled_success():
            return L.concentration_success_prob(
                spectrum, self.sample_n, target, mode="sample",
                samples=self.samples, seed=seed)

        def check_sampled_success(est, ctx):
            if est.samples != self.samples or not (
                    est.ci_low <= est.estimate <= est.ci_high):
                return [f"sampled success {est}"]
            return []
        out.append(Item("sample-success-n64", sampled_success,
                        check_sampled_success))
        return out


def _check_total(dist, what: str) -> list:
    total = math.fsum(o.probability for o in dist)
    if abs(total - 1.0) > PROB_TOL:
        return [f"{what}: probabilities sum to {total!r}"]
    return []


class Workload:
    """A named benchmark workload: the items of its parts, in order, make
    one pass; ``nominal_pass_s`` is the seconds one pass took on the
    reference machine (2 cores, seed code) and fixes how many passes a run
    of --seconds makes."""

    def __init__(self, name: str, parts: tuple, nominal_pass_s: float):
        self.name = name
        self.parts = parts
        self.nominal_pass_s = nominal_pass_s

    def warmup(self, L) -> None:
        for part in self.parts:
            part.warmup(L)

    def items(self, L, rng, work: Path, stratum: tuple) -> list:
        """The items of one pass; ``stratum`` is (pass index, passes)."""
        return [item for part in self.parts
                for item in part.items(L, rng, work, stratum)]

    def new_context(self, work: Path) -> dict:
        ctx = {}
        for part in self.parts:
            ctx.update(part.new_context(work))
        return ctx

    def pass_facts(self, times: dict, ctx: dict) -> dict:
        facts = {}
        for part in self.parts:
            facts.update(part.pass_facts(times, ctx))
        return facts


WORKLOADS = {w.name: w for w in (
    # the D=36 solve runs first: see the module docstring
    Workload("brackets", (BracketStructured(), BracketGeneric()), 8.0),
    Workload("game-protocols", (Concentrate(), Trials()), 17.0),
)}
