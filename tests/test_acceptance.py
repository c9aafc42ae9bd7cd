"""Acceptance gate: each numbered criterion emits one PASS/FAIL line.

The lines are collected by the conftest terminal-summary hook, so the
tail of any pytest run shows the full scorecard. Every stochastic
check runs on a fixed seed; every certified bound is compared against
either a closed form or an oracle that shares no code with the
package implementation.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, random_density
from test_distinguish import commutant_grid_value

from locclab import (
    DensityOperator,
    DetectionConfig,
    HidingPairSpec,
    HistoryCappedStrategy,
    PsiSpec,
    TensorLayout,
    bound_bracket,
    check_supermartingale,
    concentration_distribution,
    concentration_success_prob,
    default_detection_oracle,
    detection_accuracy,
    estimate_rate,
    fidelity,
    helstrom,
    hoeffding_bound,
    azuma_bound,
    make_hiding_pair,
    make_max_entangled,
    make_psi,
    make_rho_pair,
    memory_block_strategy,
    min_rounds,
    ppt_upper_bound,
    psi_spectrum,
    run_teleport_discrimination,
    simulate_ensemble,
    teleport,
    thm2_locc_bound,
)
from locclab.cli import main as cli_main


@contextmanager
def criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _record(num, label, "FAIL", start)
        raise
    _record(num, label, "PASS", start)


def _record(num: int, label: str, status: str, start: float) -> None:
    line = f"criterion {num} [{status}] {label} ({time.perf_counter() - start:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_helstrom_exactness():
    with criterion(1, "Helstrom exactness on closed-form pairs"):
        start = time.perf_counter()
        for d in range(2, 7):
            s0, s1 = make_hiding_pair(HidingPairSpec(d=d))
            assert helstrom(s0, s1) == pytest.approx(1.0, abs=1e-10)
        layout = TensorLayout((("A", 2),))
        pure = np.zeros((2, 2), dtype=np.complex128)
        pure[0, 0] = 1.0
        p = helstrom(DensityOperator(layout, pure),
                     DensityOperator(layout, np.eye(2) / 2))
        assert p == pytest.approx(0.75, abs=1e-10)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_ppt_bracket():
    with criterion(2, "certified PPT values and bound ordering"):
        start = time.perf_counter()
        for d in (2, 3, 4):
            s0, s1 = make_hiding_pair(HidingPairSpec(d=d))
            val = ppt_upper_bound(s0, s1)
            assert val == pytest.approx(0.5 + 1.0 / (d + 1), abs=1e-5)
            # independent oracle: exhaustive grid over the swap-symmetric
            # measurement ansatz, own partial transpose, no shared code
            assert val == pytest.approx(commutant_grid_value(d, 121), abs=1e-5)
        rng = np.random.default_rng(2024)
        layout = TensorLayout((("A", 2), ("B", 2)))
        for _ in range(50):
            br = bound_bracket(
                DensityOperator(layout, random_density(rng, 4)),
                DensityOperator(layout, random_density(rng, 4)))
            assert 0.5 - 1e-9 <= br.locc_lower
            assert br.locc_lower <= br.ppt_upper + 1e-9
            assert br.ppt_upper <= br.helstrom + 1e-9
            assert br.helstrom <= 1.0 + 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_3_composed_pair_ceiling():
    with criterion(3, "composed-pair LOCC ceiling chain"):
        pair = make_hiding_pair(HidingPairSpec(d=2))
        eps = ppt_upper_bound(*pair) - 0.5
        assert eps == pytest.approx(1.0 / 3.0, abs=1e-5)
        for lam in (0.9, 0.99):
            eps_prime = 2.0 * math.sqrt(1.0 - lam)
            ceiling = thm2_locc_bound(eps, eps_prime)
            assert ceiling == pytest.approx(eps + (1.0 + eps_prime) / 2.0,
                                            abs=1e-15)
            for d2 in (2, 3, 4):
                psi = make_psi(PsiSpec(lam=lam, d2=d2))
                rho0, rho1 = make_rho_pair(pair, psi)
                assert ppt_upper_bound(rho0, rho1) <= ceiling + 1e-5
        # the ceiling approaches the bare hiding value as the attached
        # state approaches a product state
        curve = [thm2_locc_bound(eps, 2.0 * math.sqrt(1.0 - lam))
                 for lam in (0.9, 0.99, 0.999, 0.9999)]
        assert all(a > b for a, b in zip(curve, curve[1:]))
        assert curve[-1] - (0.5 + eps) < 0.011


def test_criterion_4_concentration_statistics():
    with criterion(4, "concentration exact law and sampled mean"):
        start = time.perf_counter()
        spec2 = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        est = concentration_success_prob(spec2, 2, 1.0)
        assert est.exact
        assert est.estimate == pytest.approx(0.5, abs=1e-15)

        spec8 = psi_spectrum(PsiSpec(lam=0.5, d2=8))
        dist = concentration_distribution(spec8, 64, mode="sample",
                                          samples=100_000, seed=404)
        mean_per_copy = sum(o.probability * o.log2_dim for o in dist) / 64
        entropy = spec8.entropy_bits
        assert time.perf_counter() - start < 60.0
        # at n=64 the mean sits below the entropy by about
        # (d2-1)/2 * log2(n)/n ~ 0.33 bits/copy; the 0.05 tolerance is
        # only reachable at much larger n (see the companion test below)
        assert abs(mean_per_copy - entropy) <= 0.05


def test_concentration_deficit_closes_with_n():
    # companion to criterion 4: the per-copy deficit shrinks like
    # log2(n)/n and is inside 0.05 by n=1024
    spec8 = psi_spectrum(PsiSpec(lam=0.5, d2=8))
    entropy = spec8.entropy_bits
    deficits = []
    for n in (64, 1024):
        dist = concentration_distribution(spec8, n, mode="sample",
                                          samples=100_000, seed=405)
        mean = sum(o.probability * o.log2_dim for o in dist)
        deficits.append(entropy - mean / n)
    assert deficits[1] < deficits[0]
    assert 0.0 < deficits[1] < 0.05


def test_criterion_5_memory_block_protocol():
    with criterion(5, "reusable-memory block success rate"):
        start = time.perf_counter()
        strat = memory_block_strategy(2, PsiSpec(lam=0.5, d2=8), 16)
        assert strat.eps_tilde <= 0.05
        k = 200
        n = k * 16
        r = 1.0 - strat.eps_tilde - 0.05
        est = estimate_rate(strat, r=r, trials=500, n_list=(n,), seed=505)
        assert est.success_frac[0] >= 0.99
        assert time.perf_counter() - start < 300.0


def test_criterion_6_detection_accuracy():
    with criterion(6, "threshold detection vs tail bounds"):
        start = time.perf_counter()
        assert min_rounds(0.1, 1.0) == 278
        n = min_rounds(0.05, 1.0)
        config = DetectionConfig(p_tau=0.9, p_locc=0.75, delta=0.05, n=n)
        report = detection_accuracy(config, default_detection_oracle(config),
                                    trials=10_000, seed=606)
        assert report.p_corr_tau >= hoeffding_bound(n, 0.05) - 0.01
        assert report.p_corr_gamma >= 1.0 - azuma_bound(n, 0.05) - 0.01
        assert time.perf_counter() - start < 120.0


def test_criterion_7_supermartingale_audit():
    with criterion(7, "supermartingale drift audit"):
        start = time.perf_counter()
        strat = HistoryCappedStrategy(0.75, drop=0.25)
        x = simulate_ensemble(strat, n=500, trials=10_000, seed=707)
        report = check_supermartingale(x, p_cap=0.75)
        assert report.increments_bounded
        assert report.passed
        assert time.perf_counter() - start < 60.0


def test_criterion_8_teleportation_identity():
    with criterion(8, "teleportation identity and discrimination"):
        start = time.perf_counter()
        rng = np.random.default_rng(808)
        for d in (2, 3):
            resource = make_max_entangled(d)
            layout = TensorLayout((("X", d),))
            for _ in range(50):
                m = random_density(rng, d)
                out = teleport(DensityOperator(layout, m), "X", resource).state
                assert fidelity(out, DensityOperator(out.layout, m)) >= 1 - 1e-10
        tr = run_teleport_discrimination(d=2, n=1000, seed=809)
        assert tr.success_fraction == 1.0
        assert time.perf_counter() - start < 30.0


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reruns, serial and threaded"):
        jobs = {
            "sim": ["simulate", "--protocol", "iid", "--p", "0.8",
                    "--rounds", "40", "--trials", "6", "--seed", "12"],
            "det": ["detect", "--p-tau", "0.9", "--p-locc", "0.5",
                    "--delta", "0.1", "--n", "50", "--trials", "6",
                    "--seed", "12"],
        }
        for job, argv in jobs.items():
            captures = []
            for name, extra in (("a", []), ("b", []),
                                ("t", ["--threads", "4"])):
                out_dir = tmp_path / f"{job}-{name}"
                assert cli_main(argv + extra + ["--out", str(out_dir)]) == 0
                captures.append({
                    p: (out_dir / p).read_bytes()
                    for p in ("transcripts.jsonl", "summary.csv")})
            assert captures[0] == captures[1] == captures[2]
