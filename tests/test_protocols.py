import copy
import dataclasses
import gc
import hashlib
import inspect
import itertools
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chi2

from conftest import random_density

from locclab import (
    ConcentrationOutcome,
    DensityOperator,
    DomainError,
    HidingPairSpec,
    LayoutError,
    ModeError,
    PsiSpec,
    ResourceError,
    SchmidtSpectrum,
    SpecError,
    TensorLayout,
    concentration_distribution,
    concentration_success_prob,
    failure_exponent_fit,
    fidelity,
    helstrom,
    log2_multinomial,
    make_hiding_pair,
    make_max_entangled,
    make_psi,
    permute,
    psi_spectrum,
    teleport,
)
from locclab import protocols
from locclab.protocols import (_compositions, _distinct_rows, _exact_law,
                               _log_factorials)
from locclab.seeding import rng_from
from locclab.stats import WILSON_Z_99, wilson_interval


def random_spectrum(rng: np.random.Generator) -> SchmidtSpectrum:
    parts = int(rng.integers(2, 5))
    raw = rng.dirichlet(np.ones(parts))
    return SchmidtSpectrum(values=tuple((float(p), 1) for p in raw))


def distinct_rows(draws):
    """_distinct_rows of one array of rows, packed in base max + 1."""
    return _distinct_rows([draws], draws.shape, int(draws.max()) + 1,
                          draws.dtype)


class TestTeleport:
    def test_plus_state_through_bell(self):
        plus = np.full((2, 2), 0.5, dtype=np.complex128)
        state = DensityOperator(TensorLayout((("X", 2),)), plus)
        res = teleport(state, "X", make_max_entangled(2))
        assert res.resource_consumed
        assert res.branches == 4
        np.testing.assert_allclose(res.state.entries, plus, atol=1e-12)

    def test_hiding_half_relocates_to_b_side(self):
        # after teleporting A1, both halves sit with the receiver and the
        # orthogonal pair becomes perfectly distinguishable there
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        resource = make_max_entangled(2)
        out0 = teleport(s0, "A1", resource).state
        out1 = teleport(s1, "A1", resource).state
        for lab in out0.layout.labels:
            assert not lab.startswith("A")
        assert helstrom(out0, out1) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out1.entries)),
            np.sort(np.linalg.eigvalsh(s1.entries)), atol=1e-12)

    def test_dimension_mismatch(self):
        state = DensityOperator(TensorLayout((("X", 2),)), np.eye(2) / 2)
        with pytest.raises(LayoutError):
            teleport(state, "X", make_max_entangled(3))

    def test_non_maximally_entangled_resource(self):
        state = DensityOperator(TensorLayout((("X", 2),)), np.eye(2) / 2)
        skew = make_psi(PsiSpec(lam=0.8, d2=2), labels=("Ap", "Bp"))
        with pytest.raises(ResourceError):
            teleport(state, "X", skew)

    def test_mixed_resource(self):
        # (|00><00| + |11><11|)/2 has fidelity 1/2 with |phi_2>
        state = DensityOperator(TensorLayout((("X", 2),)), np.eye(2) / 2)
        classical = DensityOperator(TensorLayout((("Ap", 2), ("Bp", 2))),
                                    np.diag([0.5, 0.0, 0.0, 0.5]))
        with pytest.raises(ResourceError, match="fidelity = 0.500000"):
            teleport(state, "X", classical)

    def test_one_factor_resource(self):
        state = DensityOperator(TensorLayout((("X", 2),)), np.eye(2) / 2)
        single = DensityOperator(TensorLayout((("Ap", 4),)), np.eye(4) / 4)
        with pytest.raises(LayoutError, match="exactly two factors"):
            teleport(state, "X", single)

    def test_random_states_exact(self):
        rng = np.random.default_rng(42)
        for dim in (2, 3):
            resource = make_max_entangled(dim)
            for _ in range(20):
                m = random_density(rng, dim)
                state = DensityOperator(TensorLayout((("X", dim),)), m)
                out = teleport(state, "X", resource).state
                assert fidelity(out, DensityOperator(out.layout, m)) >= 1 - 1e-10
                assert abs(out.trace() - 1.0) < 1e-12

    def test_entangled_spectator_preserved(self):
        # teleporting one half of an entangled state must carry the
        # correlations along, not just the marginal
        phi = make_max_entangled(2, labels=("X", "K"))
        out = teleport(phi, "X", make_max_entangled(2)).state
        assert set(out.layout.labels) == {"K", "Bp"}
        aligned = permute(out, ("K", "Bp")) if out.layout.labels != ("K", "Bp") else out
        np.testing.assert_allclose(aligned.entries, phi.entries,
                                   atol=1e-12)


class TestTypeAccounting:
    def test_log2_multinomial_exact(self):
        assert log2_multinomial([2, 0]) == pytest.approx(0.0, abs=1e-12)
        assert log2_multinomial([1, 1]) == pytest.approx(1.0, abs=1e-12)
        assert log2_multinomial([2, 1, 1]) == pytest.approx(
            math.log2(12), abs=1e-12)
        assert log2_multinomial([3, 3]) == pytest.approx(
            math.log2(math.comb(6, 3)), abs=1e-12)

    def test_type_log2_dim_validation(self):
        # log2_multinomial sizes one type: it gives each outcome's log2_dim
        # and refuses a negative occupation
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=3))
        for o in concentration_distribution(spec, 4, mode="exact"):
            assert log2_multinomial(o.counts) == pytest.approx(o.log2_dim,
                                                               abs=1e-12)
        with pytest.raises(SpecError):
            log2_multinomial([3, -1])

    @pytest.mark.parametrize("counts", [[-1, 2], [0.5, 0.5], [math.nan, 1],
                                        [math.inf, 1], [1e300, 1], ["a", 1],
                                        np.array([2**64 - 1, 1], np.uint64)])
    def test_log2_multinomial_rejects_non_occupations(self, counts):
        with pytest.raises(SpecError):
            log2_multinomial(counts)

    def test_log2_multinomial_takes_integral_floats(self):
        assert log2_multinomial([3.0, 3.0]) == log2_multinomial([3, 3])
        assert log2_multinomial(np.array([2, 1, 1], dtype=np.uint8)) == \
            log2_multinomial([2, 1, 1])

    @pytest.mark.parametrize("counts", [[1.5, 0.5], [math.nan, 2], [3.0, -1.0]])
    def test_type_log2_dim_rejects_non_integers(self, counts):
        with pytest.raises(SpecError):
            log2_multinomial(counts)

    def test_outcome_validation(self):
        with pytest.raises(SpecError):
            ConcentrationOutcome(counts=(1, 1), log2_dim=-0.5, probability=0.5)
        with pytest.raises(SpecError):
            ConcentrationOutcome(counts=(1, 1), log2_dim=1.0, probability=1.5)

    @pytest.mark.parametrize("log2_dim", [math.nan, math.inf, -math.inf])
    def test_outcome_rejects_non_finite_log2_dim(self, log2_dim):
        with pytest.raises(SpecError):
            ConcentrationOutcome(counts=(1, 1), log2_dim=log2_dim,
                                 probability=0.5)


class TestLogFactorials:
    """The ln k! table equals scipy's gammaln(k + 1) bit for bit."""

    def test_table_equals_gammaln(self):
        k = np.arange(200_001)
        table = _log_factorials(k)
        assert (table == gammaln(k + 1.0)).all()

    @pytest.mark.parametrize("x", [1, 2, 12, 13, 14, 999, 1000, 1001,
                                   10**6, 12 * 10**6, 10**8, 10**8 + 1,
                                   3 * 10**9, 10**12, 2**53])
    def test_branch_edges_equal_gammaln(self, x):
        # x = k + 1: lgam changes formula at 13, 1000 and above 1e8
        k = np.array([x - 1])
        assert _log_factorials(k)[0] == gammaln(float(x))

    def test_any_shape(self):
        k = np.array([[0, 5, 40], [13, 2000, 12]])
        np.testing.assert_array_equal(_log_factorials(k), gammaln(k + 1.0))


class TestSampleType:
    """The sampled law's types, drawn by ``_draws``; TestCompactLaws
    checks the draws against one ``rng.multinomial`` call."""

    def test_chi_square_goodness_of_fit(self):
        # n=4, d2=2: the sampled law's weights over five binomial
        # categories, 1e5 draws, against the exact law
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        samples = 100_000
        sampled = {o.counts: o.probability for o in concentration_distribution(
            spec, 4, mode="sample", samples=samples, seed=123)}
        exact = concentration_distribution(spec, 4, mode="exact")
        assert len(exact) == 5 and set(sampled) <= {o.counts for o in exact}
        observed = np.array([sampled.get(o.counts, 0.0) for o in exact]) * samples
        expected = np.array([o.probability for o in exact]) * samples
        stat = ((observed - expected) ** 2 / expected).sum()
        assert chi2.sf(stat, df=4) > 0.001

    def test_invalid_copy_count(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        with pytest.raises(SpecError):
            concentration_distribution(spec, 0, mode="sample", samples=10)


class TestConcentrationDistribution:
    def test_single_copy_concentrates_nothing(self):
        spec = psi_spectrum(PsiSpec(lam=0.4, d2=3))
        for out in concentration_distribution(spec, 1):
            assert out.log2_dim == 0.0

    def test_two_copy_worked_example(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        dist = {out.counts: out for out in concentration_distribution(spec, 2)}
        assert dist[(1, 1)].probability == pytest.approx(0.5, abs=1e-12)
        assert dist[(1, 1)].log2_dim == pytest.approx(1.0, abs=1e-12)
        for counts in ((2, 0), (0, 2)):
            assert dist[counts].probability == pytest.approx(0.25, abs=1e-12)
            assert dist[counts].log2_dim == 0.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec = random_spectrum(rng)
            dist = concentration_distribution(spec, int(rng.integers(1, 9)))
            assert sum(o.probability for o in dist) == pytest.approx(
                1.0, abs=1e-9)

    def test_multinomial_probability_formula(self):
        # brute-force string enumeration oracle at n=5
        spec = SchmidtSpectrum(values=((0.5, 1), (0.3, 1), (0.2, 1)))
        p = [0.5, 0.3, 0.2]
        n = 5
        brute: dict[tuple, float] = {}
        for s in itertools.product(range(3), repeat=n):
            counts = tuple(s.count(i) for i in range(3))
            brute[counts] = brute.get(counts, 0.0) + math.prod(p[i] for i in s)
        for out in concentration_distribution(spec, n):
            assert out.probability == pytest.approx(brute[out.counts], abs=1e-12)
            assert out.log2_dim == pytest.approx(
                log2_multinomial(out.counts), abs=1e-12)

    def test_exact_mode_refuses_huge_enumerations(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=8))
        with pytest.raises(ModeError):
            concentration_distribution(spec, 64, mode="exact")

    def test_auto_falls_back_to_sampling(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=8))
        dist = concentration_distribution(spec, 64, samples=2000, seed=1)
        assert sum(o.probability for o in dist) == pytest.approx(1.0, abs=1e-9)

    def test_sampling_agrees_with_exact(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        exact = concentration_distribution(spec, 16)
        sampled = concentration_distribution(spec, 16, mode="sample",
                                             samples=200_000, seed=5)
        mean_exact = sum(o.probability * o.log2_dim for o in exact)
        mean_sampled = sum(o.probability * o.log2_dim for o in sampled)
        assert mean_sampled == pytest.approx(mean_exact, abs=0.05)

    def test_mean_bounded_by_entropy(self):
        # concavity: E[log2 multinomial] <= n S
        rng = np.random.default_rng(9)
        for _ in range(15):
            spec = random_spectrum(rng)
            n = int(rng.integers(1, 10))
            dist = concentration_distribution(spec, n)
            mean = sum(o.probability * o.log2_dim for o in dist)
            assert mean <= n * spec.entropy_bits + 1e-9


def loop_compositions(total, parts):
    # recursive reference enumeration, lexicographic by construction
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in loop_compositions(total - head, parts - 1):
            yield (head,) + rest


def loop_exact_distribution(spectrum, n):
    # per-row reference for the exact law; the zero-probability mask and
    # every float operation match the array code, so results must be ==
    label_p = spectrum.label_probabilities()
    counts = np.array(list(loop_compositions(n, spectrum.num_labels)),
                      dtype=np.int64)
    with np.errstate(divide="ignore"):
        logp_labels = np.where(label_p > 0.0, np.log(label_p), -np.inf)
    mass = counts @ np.where(np.isfinite(logp_labels), logp_labels, 0.0)
    impossible = ((counts > 0) & ~np.isfinite(logp_labels)).any(axis=1)
    logw = gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    weights = np.where(impossible, 0.0, np.exp(logw + mass))
    outcomes = []
    for row, bits, w in zip(counts, logw / math.log(2.0), weights):
        if w == 0.0:
            continue
        outcomes.append(ConcentrationOutcome(
            counts=tuple(int(c) for c in row),
            log2_dim=float(max(bits, 0.0)),
            probability=float(w)))
    return tuple(outcomes)


ORACLE_SPECTRA = (
    psi_spectrum(PsiSpec(lam=0.3, d2=4)),
    psi_spectrum(PsiSpec(lam=0.8, d2=8)),
    SchmidtSpectrum(values=((0.5, 1), (0.3, 1), (0.2, 1))),
    SchmidtSpectrum(values=((0.5, 1), (0.0, 2), (0.25, 2))),
    SchmidtSpectrum(values=((1.0, 1),)),
)


class TestArrayEnumeration:
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_compositions_match_product_filter(self, parts):
        for total in range(7):
            brute = [c for c in itertools.product(range(total + 1), repeat=parts)
                     if sum(c) == total]
            got = _compositions(total, parts)
            assert got.dtype == np.min_scalar_type(total)
            assert got.shape == (len(brute), parts)
            assert [tuple(r) for r in got.tolist()] == brute

    @pytest.mark.parametrize("total, parts",
                             [(16, 8), (0, 1), (0, 3), (0, 8), (5, 1), (16, 1),
                              (300, 2)])
    def test_compositions_match_bar_positions(self, total, parts):
        # stars and bars: the gaps between the bar positions that
        # itertools.combinations yields in lexicographic order
        slots = total + parts - 1
        bars = np.array(list(itertools.combinations(range(slots), parts - 1)),
                        dtype=np.int64)
        ref = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
        got = _compositions(total, parts)
        assert got.dtype == np.min_scalar_type(total)
        np.testing.assert_array_equal(got, ref)

    def test_bulk_outcomes_match_constructor(self):
        counts = np.array([[2, 0, 1], [0, 3, 0], [1, 1, 1]], dtype=np.int64)
        log2_dim = np.array([math.log2(3), 0.0, math.log2(6)])
        probability = np.array([0.25, 0.125, 0.625])
        bulk = ConcentrationOutcome._from_columns(counts, log2_dim, probability)
        built = tuple(ConcentrationOutcome(counts=tuple(int(c) for c in row),
                                           log2_dim=float(b), probability=float(p))
                      for row, b, p in zip(counts, log2_dim, probability))
        assert bulk == built
        assert [hash(o) for o in bulk] == [hash(o) for o in built]
        assert all(type(c) is int for o in bulk for c in o.counts)
        assert all(type(o.log2_dim) is float and type(o.probability) is float
                   for o in bulk)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bulk[0].probability = 0.5
        assert pickle.loads(pickle.dumps(bulk)) == built
        empty = np.empty(0)
        assert ConcentrationOutcome._from_columns(
            np.empty((0, 3), dtype=np.int64), empty, empty) == ()

    @pytest.mark.parametrize("log2_dim, probability",
                             [(1.0, 1.5), (-0.5, 0.5), (1.0, float("nan")),
                              (math.nan, 0.5), (math.inf, 0.5),
                              (-math.inf, 0.5)])
    def test_bulk_outcomes_reject_bad_columns(self, log2_dim, probability):
        counts = np.array([[1, 1], [2, 0]], dtype=np.int64)
        with pytest.raises(SpecError):
            ConcentrationOutcome._from_columns(
                counts, np.array([0.0, log2_dim]),
                np.array([0.5, probability]))

    @pytest.mark.parametrize("spec", ORACLE_SPECTRA)
    def test_exact_distribution_equals_per_row_loop(self, spec):
        for n in (1, 2, 5, 9):
            assert concentration_distribution(spec, n, mode="exact") == \
                loop_exact_distribution(spec, n)

    @pytest.mark.parametrize("spec", ORACLE_SPECTRA)
    def test_success_is_tail_of_distribution(self, spec):
        for n in (3, 8):
            dist = concentration_distribution(spec, n, mode="exact")
            for target in (0.0, 1.0, 0.6 * n, 1.3 * n):
                tail = math.fsum(o.probability for o in dist
                                 if o.log2_dim >= target - 1e-9)
                est = concentration_success_prob(spec, n, target, mode="exact")
                assert est.exact
                assert est.estimate == pytest.approx(tail, abs=1e-12)

    @pytest.mark.parametrize("spec", ORACLE_SPECTRA)
    def test_log_multinomial_equals_direct_gammaln(self, spec):
        # the ln k! table must give exactly the per-cell gammaln sums
        n = 9
        counts, logw, _ = _exact_law(spec, n)
        np.testing.assert_array_equal(
            logw, gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1))
        n = 64
        sampled = concentration_distribution(spec, n, mode="sample",
                                             samples=2000, seed=4)
        counts = np.array([o.counts for o in sampled])
        direct = gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1)
        assert [o.log2_dim for o in sampled] == \
            np.maximum(direct / math.log(2.0), 0.0).tolist()

    def test_distinct_rows_match_unique_beyond_int64_keys(self):
        # (n+1)^8 > 2^63 at n=1024, so the eight columns need two packed
        # keys (six, then two)
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=8))
        draws = np.random.default_rng(11).multinomial(
            1024, spec.label_probabilities(), size=20_000)
        rows, freq = distinct_rows(draws)
        ref_rows, ref_freq = np.unique(draws, axis=0, return_counts=True)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(freq, ref_freq)

    def test_distinct_rows_match_unique_in_one_int64_key(self):
        # 65^8 < 2^63, so at n=64 one key holds all eight columns
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=8))
        draws = np.random.default_rng(12).multinomial(
            64, spec.label_probabilities(), size=20_000)
        assert draws.max() + 1 <= 65
        rows, freq = distinct_rows(draws)
        ref_rows, ref_freq = np.unique(draws, axis=0, return_counts=True)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(freq, ref_freq)

    def test_distinct_rows_with_repeats(self):
        draws = np.random.default_rng(2).integers(0, 3, size=(500, 3))
        rows, freq = distinct_rows(draws)
        ref_rows, ref_freq = np.unique(draws, axis=0, return_counts=True)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(freq, ref_freq)
        assert freq.sum() == 500


PSI_35 = psi_spectrum(PsiSpec(lam=0.35, d2=8))


def law_digest(dist) -> str:
    """sha256 of every outcome's counts (as int64) and of the bits of its
    two floats: equal digests mean equal hex for every float and equal
    counts tuples."""
    counts = np.array([o.counts for o in dist], dtype=np.int64)
    floats = np.array([(o.log2_dim, o.probability) for o in dist])
    return hashlib.sha256(counts.tobytes() + floats.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def law16():
    # 245 157 outcomes: the largest exact law the benchmark builds
    return concentration_distribution(PSI_35, 16, mode="exact")


class TestDeferredCounts:
    """Bulk outcomes build their counts tuple on its first read; only the
    garbage collector's count of tracked objects can tell."""

    def test_one_tracked_object_per_outcome(self):
        m = 10_000
        counts = np.random.default_rng(3).integers(0, 9, size=(m, 4))
        log2_dim, probability = np.zeros(m), np.full(m, 1.0 / m)
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            dist = ConcentrationOutcome._from_columns(counts, log2_dim,
                                                      probability)
            grown = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert grown <= m + 16
        # no outcome holds a counts tuple before it is read
        assert not any(isinstance(r, tuple)
                       for o in dist for r in gc.get_referents(o))
        first = dist[0].counts
        assert any(r is first for r in gc.get_referents(dist[0]))
        assert first == tuple(counts[0].tolist())

    @pytest.mark.parametrize("mode, n", [("exact", 9), ("sample", 64)])
    def test_deferred_counts_are_invisible(self, mode, n):
        def bulk():
            return concentration_distribution(PSI_35, n, mode=mode,
                                              samples=5000, seed=7)
        counts, log2_dim, probability = protocols._law_columns(
            PSI_35, n, mode, 5000, 7)
        built = tuple(map(ConcentrationOutcome, map(tuple, counts.tolist()),
                          log2_dim.tolist(), probability.tolist()))
        hashes, reprs = list(map(hash, built)), list(map(repr, built))
        # each check on outcomes whose counts were never read
        assert bulk() == built
        assert list(map(hash, bulk())) == hashes
        assert list(map(repr, bulk())) == reprs
        dist = bulk()
        first = [o.counts for o in dist]
        assert dist == built
        assert list(map(hash, dist)) == hashes
        assert list(map(repr, dist)) == reprs
        assert all(o.counts is c for o, c in zip(dist, first))
        assert all(type(c) is int for row in first for c in row)
        unread = bulk()
        for o in (unread[-1], dist[-1]):
            for f in dataclasses.fields(ConcentrationOutcome):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(o, f.name, None)
        assert unread[-1] == built[-1]
        for o in (unread[0], dist[0]):
            for twin in (pickle.loads(pickle.dumps(o)), copy.deepcopy(o),
                         copy.copy(o)):
                assert type(twin) is ConcentrationOutcome
                assert twin == built[0] and repr(twin) == repr(built[0])

    @pytest.mark.parametrize("built", ["bulk", "constructor"])
    @pytest.mark.parametrize("op", ["set", "delete"])
    def test_other_attributes_are_frozen(self, op, built):
        if built == "bulk":  # refused before its counts are first read
            o = concentration_distribution(PSI_35, 5, mode="exact")[3]
            counts, log2_dim, probability = protocols._law_columns(
                PSI_35, 5, "exact", 1, 0)
            plain = ConcentrationOutcome(tuple(counts[3].tolist()),
                                         float(log2_dim[3]),
                                         float(probability[3]))
        else:
            o = plain = ConcentrationOutcome((1, 2), 0.5, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError, match="'foo'"):
            if op == "set":
                o.foo = 1
            else:
                del o.foo
        assert not hasattr(o, "foo")
        assert o == plain and hash(o) == hash(plain) and repr(o) == repr(plain)
        assert pickle.loads(pickle.dumps(o)) == plain == copy.copy(o)

    def test_first_read_raises_nothing(self):
        # the row index sits in the counts slot, so the first read takes
        # no failed slot lookup: no exception is raised in any frame
        dist = concentration_distribution(PSI_35, 9, mode="exact")
        raised = []

        def tracer(frame, event, arg):
            if event == "exception":
                raised.append((frame.f_code.co_name, arg[0]))
            return tracer
        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            counts = [o.counts for o in dist]
        finally:
            sys.settrace(old)
        assert raised == []
        assert all(o.counts is c for o, c in zip(dist, counts))

    def test_plain_outcome_keeps_an_int(self):
        # only a bulk outcome, which has a table, holds a row index
        o = ConcentrationOutcome(3, 0.0, 1.0)
        assert o.counts == 3
        assert not hasattr(o, "_table")

    def test_pickle_size_does_not_grow_with_the_law(self, law16):
        law9 = concentration_distribution(PSI_35, 9, mode="exact")
        for o in (law9[0], law9[-1], law16[0], law16[-1]):
            size = len(pickle.dumps(o))  # before counts is read
            plain = ConcentrationOutcome(o.counts, o.log2_dim, o.probability)
            assert size == len(pickle.dumps(plain)) < 256

    def test_fields_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(ConcentrationOutcome)] == \
            ["counts", "log2_dim", "probability"]

    # law_digest of each law as built before counts were deferred
    PINNED = {
        1: "ff2a1865344a58bdd382d64024f9b44249e8d0fe434bba23a48643dab6d309f2",
        2: "080c1d837779e089d5fe6c59d9fdaddc37ee2f37b6607834c53c49f7e2a3dba4",
        5: "4b04ba34ac258afbade6e5b4654954f2ed50e0959f09c8352a6c977f50f9799f",
        9: "d0325af6f11fcdf69b8ab8547f09fb375b9faca998bbf14d0da85073b2191cd9",
        16: "6f2b0aed3c6ed4705483d3560d69af060efec76198e6b047991a1de340836d32",
        64: "df9a6fc1e25150ed8a148dd2901bde408f1434aecabc7c663c94ac80cd2cc88e",
    }

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_exact_laws_are_unchanged(self, request, n):
        dist = (request.getfixturevalue("law16") if n == 16
                else concentration_distribution(PSI_35, n, mode="exact"))
        assert law_digest(dist) == self.PINNED[n]

    def test_sampled_law_is_unchanged(self):
        dist = concentration_distribution(PSI_35, 64, mode="sample",
                                          samples=20_000, seed=7)
        assert law_digest(dist) == self.PINNED[64]


class TestCollectorPause:
    """Bulk outcomes are built with the cyclic collector paused, only while
    the calling thread is the only Python thread, and it is restored."""

    M = 60_000

    @staticmethod
    def columns(m):
        counts = np.random.default_rng(5).integers(0, 9, size=(m, 4))
        return counts, np.zeros(m), np.full(m, 1.0 / m)

    @staticmethod
    def collections_during(build):
        """(generation, collector enabled) of each collection ``build``
        starts."""
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append((info["generation"], gc.isenabled()))

        gc.collect()
        gc.callbacks.append(record)
        try:
            build()
        finally:
            gc.callbacks.remove(record)
        return starts

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            ConcentrationOutcome._from_columns(*self.columns(1000))
            assert gc.isenabled() is enabled
            bad = self.columns(1000)
            bad[2][500] = 2.0
            with pytest.raises(SpecError):
                ConcentrationOutcome._from_columns(*bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_single_thread_build_starts_no_collection(self):
        assert gc.isenabled()
        assert threading.active_count() == 1
        columns = self.columns(self.M)
        out = []
        starts = self.collections_during(
            lambda: out.append(ConcentrationOutcome._from_columns(*columns)))
        assert starts == []
        assert gc.isenabled()
        assert len(out[0]) == self.M

    def test_no_pause_while_another_thread_runs(self):
        assert gc.isenabled()
        parked = threading.Event()
        other = threading.Thread(target=parked.wait)
        other.start()
        try:
            assert threading.active_count() >= 2
            columns = self.columns(self.M)
            starts = self.collections_during(
                lambda: ConcentrationOutcome._from_columns(*columns))
        finally:
            parked.set()
            other.join()
        assert starts
        assert all(enabled for _, enabled in starts)
        assert gc.isenabled()


class TestCompactLaws:
    """A law keeps a narrow counts table, shared through views of
    _VIEW_ROWS rows, and cached row indices; sampled laws are drawn
    _ROW_CHUNK rows at a time."""

    CHUNK = protocols._ROW_CHUNK
    SAMPLES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 200_000]

    @staticmethod
    def one_draw(purpose, spec, n, samples, seed):
        """np.unique of one ``rng.multinomial`` call on the stream that
        ``purpose`` names."""
        rng = rng_from(seed, purpose, n, samples)
        draws = rng.multinomial(n, spec.label_probabilities(), size=samples)
        return np.unique(draws, axis=0, return_counts=True)

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_sampled_law_equals_one_draw(self, samples):
        self.check_sampled_law(PSI_35, 64, samples)

    def test_sampled_law_in_two_keys_equals_one_draw(self):
        # 301^8 > 2^63: each row packs into two keys (seven columns, then one)
        self.check_sampled_law(PSI_35, 300, self.CHUNK + 1)

    def check_sampled_law(self, spec, n, samples):
        counts, log2_dim, probability = protocols._law_columns(
            spec, n, "sample", samples, 5)
        rows, freq = self.one_draw("concentration-distribution", spec, n,
                                   samples, 5)
        assert counts.dtype == np.min_scalar_type(n)
        np.testing.assert_array_equal(counts, rows)
        assert probability.tolist() == (freq / samples).tolist()
        assert log2_dim.tolist() == np.maximum(
            protocols._log_multinomial(rows, n) / math.log(2.0), 0.0).tolist()

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_sampled_success_equals_one_draw(self, samples):
        n, target = 64, 150.0
        est = concentration_success_prob(PSI_35, n, target, mode="sample",
                                         samples=samples, seed=5)
        rows, freq = self.one_draw("concentration-success", PSI_35, n,
                                   samples, 5)
        wins = freq[protocols._log_multinomial(rows, n) / math.log(2.0)
                    >= target - 1e-9].sum()
        assert est.estimate == wins / samples and est.samples == samples

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (300, np.uint16)])
    def test_table_dtype_holds_n(self, n, dtype):
        spec = SchmidtSpectrum(values=((0.6, 1), (0.4, 1)))
        counts = protocols._law_columns(spec, n, "exact", 1, 0)[0]
        assert counts.dtype == dtype
        dist = concentration_distribution(spec, n, mode="exact")
        assert {o._table.dtype for o in dist} == {np.dtype(dtype)}
        assert [o.counts for o in dist] == \
            list(map(tuple, _compositions(n, 2).tolist()))
        assert all(type(c) is int for o in dist for c in o.counts)

    def test_outcomes_share_views_and_row_indices(self):
        # until its first read, a bulk outcome's raw counts slot holds its
        # row in its view, a cached small int; the read swaps in the tuple
        law = concentration_distribution(PSI_35, 12, mode="exact")
        raw = ConcentrationOutcome.counts._slot.__get__
        m, rows = len(law), protocols._VIEW_ROWS
        assert len({id(o._table) for o in law}) == -(-m // rows)
        assert len({id(o._table.base) for o in law}) == 1
        assert {o._table.dtype for o in law} == {np.dtype(np.uint8)}
        assert [raw(o) for o in law] == [i % rows for i in range(m)]
        assert {type(raw(o)) for o in law} == {int}
        assert len({id(raw(o)) for o in law}) == rows
        counts = [o.counts for o in law]
        assert all(raw(o) is c for o, c in zip(law, counts))
        assert counts == list(map(tuple, protocols._law_columns(
            PSI_35, 12, "exact", 1, 0)[0].tolist()))

    def test_bulk_and_plain_outcomes_have_four_slots(self):
        bulk = concentration_distribution(PSI_35, 5, mode="exact")[3]
        plain = ConcentrationOutcome(bulk.counts, bulk.log2_dim,
                                     bulk.probability)
        unread = concentration_distribution(PSI_35, 5, mode="exact")[3]
        assert ConcentrationOutcome.__slots__ == (
            "counts", "log2_dim", "probability", "_table")
        # no __dict__ and no __weakref__ beside the four slots
        assert ConcentrationOutcome.__basicsize__ == \
            object.__basicsize__ + 4 * np.dtype(np.intp).itemsize
        assert sys.getsizeof(unread) == sys.getsizeof(bulk) == \
            sys.getsizeof(plain)

    def test_build_holds_one_chunk_of_temporaries(self):
        # With the law memoized, building the outcomes peaks above what it
        # retains by the interning's two bucket tables (2 * _BUCKETS
        # intps) and one _ROW_CHUNK of temporaries (at most 80 bytes a row;
        # ~61 measured). A list of the outcomes beside their tuple, or a
        # second log2_dim column, would add 8 bytes per outcome (400 KB
        # here) and exceed the bound.
        n = 12
        protocols._law_columns(PSI_35, n, "exact", 1, 0)
        gc.collect()
        tracemalloc.start()
        try:
            dist = concentration_distribution(PSI_35, n, mode="exact")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dist) == math.comb(n + 7, 7)
        bound = (2 * protocols._BUCKETS * np.dtype(np.intp).itemsize
                 + protocols._ROW_CHUNK * 80)
        assert peak - retained <= bound

    def test_exact_law_retains_what_the_design_says(self):
        # Per outcome: the outcome itself, its slot in the distribution's
        # tuple, its row of the one-byte table (which the law memo shares),
        # its two floats and its (log2_dim, weight) in the law memo; per view
        # of _VIEW_ROWS rows at most 256 bytes (the array object and its
        # shape and strides); 128 KB for the rest. An int64 table and a
        # fresh int per outcome would add 56 + 28 bytes each.
        protocols._last_exact_law.cache_clear()
        n = 12
        m, labels = math.comb(n + 7, 7), 8
        gc.collect()
        tracemalloc.start()
        try:
            dist = concentration_distribution(PSI_35, n, mode="exact")
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(dist) == m
        per_outcome = (sys.getsizeof(dist[0]) + 8 + labels * 1
                       + 2 * sys.getsizeof(1.0) + 16)
        bound = (m * per_outcome + -(-m // protocols._VIEW_ROWS) * 256
                 + 131_072)
        assert retained <= bound

    def test_exact_law_peak_is_narrow(self):
        # The law is built in the one-byte table's dtype: at most four
        # float64 columns (mass, logw, weights and one temporary), two bool
        # columns and the table are alive at once, plus one _ROW_CHUNK-row
        # float lookup while ln k! is read; 256 KB for the rest. That is
        # 68 bytes per type at n = 12 (47 measured); an int64 table and its
        # float64 cast peak at 136.
        protocols._last_exact_law.cache_clear()
        n = 12
        m, labels = math.comb(n + 7, 7), 8
        gc.collect()
        tracemalloc.start()
        try:
            columns = protocols._law_columns(PSI_35, n, "exact", 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns[0]) == m
        bound = (m * (labels + 4 * 8 + 2)
                 + protocols._ROW_CHUNK * labels * 8 + 262_144)
        assert peak <= bound


class TestSharedFloats:
    """Bulk outcomes intern each float column on its bit patterns: a row
    shares its bucket's float when the bits are equal and keeps its own
    float otherwise."""

    @staticmethod
    def bits(x: float) -> int:
        return np.array([x]).view(np.uint64)[0].item()

    @staticmethod
    def colliding_pair() -> tuple[float, float]:
        """The first two of 1/1000, 2/1000, ... that share a bucket."""
        values = np.arange(1, 1000) / 1000.0
        seen = {}
        for v, b in zip(values.tolist(),
                        protocols._bucket(values.view(np.uint64)).tolist()):
            if b in seen:
                return seen[b], v
            seen[b] = v
        raise AssertionError("no two values share a bucket")

    def test_rows_share_only_equal_bits(self):
        a, b = self.colliding_pair()
        bucket_a, bucket_b = protocols._bucket(
            np.array([a, b]).view(np.uint64)).tolist()
        assert a != b and bucket_a == bucket_b
        # past one chunk, so rows of a later chunk meet an earlier bucket
        pattern = [0.0, -0.0, a, 0.25, b, 0.25, -0.0, a, b, 0.0, 0.5]
        m = protocols._ROW_CHUNK + len(pattern)
        column = np.resize(np.array(pattern), m)
        counts = np.zeros((m, 2), dtype=np.uint8)
        dist = ConcentrationOutcome._from_columns(counts, column,
                                                  column[::-1].copy())
        for floats, source in (([o.log2_dim for o in dist], column),
                               ([o.probability for o in dist], column[::-1])):
            assert all(type(x) is float for x in floats)
            assert [self.bits(x) for x in floats] == \
                source.view(np.uint64).tolist()
            # the first row of each bucket keeps its float; a later row
            # shares it exactly when its bits are the same
            owner = {}
            for x, bucket in zip(floats, protocols._bucket(
                    source.view(np.uint64)).tolist()):
                first = owner.setdefault(bucket, x)
                assert (x is first) == (self.bits(x) == self.bits(first))
            by_bits = {}
            for x in floats:
                by_bits.setdefault(self.bits(x), set()).add(id(x))
            # the one of a and b that comes second meets a bucket that holds
            # the other, so every row of it keeps its own float
            rows = source.tolist()
            held, lost = (a, b) if rows.index(a) < rows.index(b) else (b, a)
            for v in (0.0, -0.0, held, 0.25, 0.5):
                assert len(by_bits[self.bits(v)]) == 1
            assert len(by_bits[self.bits(lost)]) == rows.count(lost) > 1
            assert by_bits[self.bits(0.0)] != by_bits[self.bits(-0.0)]

    @staticmethod
    def distinct(column: np.ndarray) -> int:
        return len(np.unique(column.view(np.uint64)))

    def retained(self, build):
        gc.collect()
        tracemalloc.start()
        try:
            dist = build()
            return dist, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_exact_law_keeps_one_float_per_value(self):
        # Per outcome: the outcome itself, its slot in the distribution's
        # tuple, its row of the one-byte table and its (log2_dim, weight) in
        # the law memo; 24 bytes per distinct value of each float column;
        # per view of _VIEW_ROWS rows 256 bytes; 128 KB for the rest. Two
        # floats per outcome would add 48 bytes each (2.4 MB here).
        protocols._last_exact_law.cache_clear()
        n, labels = 12, 8
        _, log2_dim, probability = protocols._law_columns(PSI_35, n, "exact",
                                                          1, 0)
        values = self.distinct(log2_dim) + self.distinct(probability)
        protocols._last_exact_law.cache_clear()
        dist, retained = self.retained(
            lambda: concentration_distribution(PSI_35, n, mode="exact"))
        m = len(dist)
        bound = (m * (sys.getsizeof(dist[0]) + 8 + labels + 16)
                 + values * sys.getsizeof(1.0)
                 + -(-m // protocols._VIEW_ROWS) * 256 + 131_072)
        assert retained <= bound
        assert len({id(o.log2_dim) for o in dist}) == self.distinct(log2_dim)

    def test_sampled_law_keeps_one_float_per_value(self):
        # As for the exact law, without the memo's two columns: a sampled
        # law keeps its table, outcomes and floats only.
        n, labels, samples = 64, 8, 20_000
        _, log2_dim, probability = protocols._law_columns(
            PSI_35, n, "sample", samples, 7)
        values = self.distinct(log2_dim) + self.distinct(probability)
        dist, retained = self.retained(
            lambda: concentration_distribution(PSI_35, n, mode="sample",
                                               samples=samples, seed=7))
        m = len(dist)
        bound = (m * (sys.getsizeof(dist[0]) + 8 + labels)
                 + values * sys.getsizeof(1.0)
                 + -(-m // protocols._VIEW_ROWS) * 256 + 131_072)
        assert retained <= bound


class TestLawMemo:
    """``_last_exact_law``, the one memo of an exact law: it keeps the last
    (spectrum, n) asked for, and the distribution and the exact success
    probability both read the law through it."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Forget every remembered law and record the n of each exact
        enumeration."""
        calls = []

        def counting(spectrum, n):
            calls.append(n)
            return law(spectrum, n)
        law = protocols._exact_law
        monkeypatch.setattr(protocols, "_exact_law", counting)
        protocols._last_exact_law.cache_clear()
        protocols._exact_success_cached.cache_clear()
        yield calls
        protocols._last_exact_law.cache_clear()
        protocols._exact_success_cached.cache_clear()

    @staticmethod
    def cold(spec, n, target):
        """The success probability from a freshly enumerated law."""
        protocols._exact_success_cached.cache_clear()
        protocols._last_exact_law.cache_clear()
        return concentration_success_prob(spec, n, target,
                                          mode="exact").estimate

    @pytest.mark.parametrize("lam,d2,n", [(0.5, 8, 16), (0.27, 4, 11),
                                          (0.8, 2, 30)])
    def test_success_after_distribution_is_bit_identical(self, counted, lam,
                                                         d2, n):
        spec = psi_spectrum(PsiSpec(lam=lam, d2=d2))
        targets = (0.5 * n, 1.0 * n, 1.5 * n, 2.0 * n)
        cold = [self.cold(spec, n, t) for t in targets]
        assert counted == [n] * len(targets)
        counted.clear()
        protocols._last_exact_law.cache_clear()
        concentration_distribution(spec, n, mode="exact")
        protocols._exact_success_cached.cache_clear()
        warm = [concentration_success_prob(spec, n, t, mode="exact").estimate
                for t in targets]
        assert counted == [n]
        assert list(map(repr, warm)) == list(map(repr, cold))

    def test_other_spectrum_or_n_forces_a_recompute(self, counted):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=4))
        other = psi_spectrum(PsiSpec(lam=0.6, d2=4))
        concentration_distribution(spec, 9, mode="exact")
        concentration_success_prob(spec, 9, 7.0, mode="exact")
        assert counted == [9]
        concentration_distribution(other, 9, mode="exact")
        concentration_success_prob(spec, 9, 6.0, mode="exact")
        assert counted == [9, 9, 9]
        concentration_distribution(spec, 8, mode="exact")
        concentration_success_prob(spec, 9, 5.0, mode="exact")
        assert counted == [9, 9, 9, 8, 9]
        # a success probability leaves its law behind too
        concentration_success_prob(spec, 9, 4.0, mode="exact")
        concentration_distribution(spec, 9, mode="exact")
        assert counted == [9, 9, 9, 8, 9]
        assert protocols._last_exact_law.cache_info().currsize == 1
        assert concentration_success_prob(spec, 9, 5.0, mode="exact"
                                          ).estimate == self.cold(spec, 9, 5.0)

    def test_memo_holds_one_law(self, monkeypatch, counted):
        # ... and none while it enumerates the next
        held = []

        def law(spectrum, n):
            held.append(protocols._last_exact_law.cache_info().currsize)
            return enumerate_law(spectrum, n)
        enumerate_law = protocols._exact_law
        monkeypatch.setattr(protocols, "_exact_law", law)
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=4))
        for n in (5, 6, 5):
            concentration_distribution(spec, n, mode="exact")
            assert protocols._last_exact_law.cache_info().currsize == 1
        assert counted == [5, 6, 5] and held == [0, 0, 0]

    def test_kept_arrays_are_read_only(self, counted):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=4))
        concentration_distribution(spec, 7, mode="exact")
        counts, log2_dim, weights = protocols._last_exact_law(spec.values, 7)
        assert counted == [7]
        assert len(counts) == len(log2_dim) == len(weights) == \
            math.comb(7 + 3, 3)
        for column in (counts, log2_dim, weights):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0

    def test_exact_columns_are_the_memo_s(self, counted, capsys):
        # the exact columns are the memo's own read-only arrays, log2_dim
        # included, and the concentrate command only reads them
        from locclab.cli import main
        memo = protocols._last_exact_law(PSI_35.values, 9)
        kept = [column.copy() for column in memo]
        columns = protocols._law_columns(PSI_35, 9, "exact", 1, 0)
        assert all(a is b for a, b in zip(columns, memo))
        assert not columns[1].flags.writeable
        assert main(["concentrate", "--lambda", "0.35", "--d2", "8", "--n",
                     "9", "--mode", "exact", "--target", "12"]) == 0
        capsys.readouterr()
        assert counted == [9]
        assert protocols._last_exact_law(PSI_35.values, 9) is memo
        for column, copy_ in zip(memo, kept):
            assert not column.flags.writeable
            assert column.tobytes() == copy_.tobytes()

    @pytest.mark.parametrize("values, n", [
        (PSI_35.values, 9),
        (psi_spectrum(PsiSpec(lam=0.27, d2=4)).values, 11),
        (((0.6, 1), (0.4, 1), (0.0, 2)), 5),    # types of weight zero
        (((1.0, 1),), 4),                       # one type, log2_dim 0.0
    ])
    def test_memo_column_is_logw_over_ln2(self, values, n):
        # bit for bit: the clamp at 0 never acts on a law's own values
        protocols._last_exact_law.cache_clear()
        _, log2_dim, _ = protocols._last_exact_law(values, n)
        _, logw, _ = _exact_law(SchmidtSpectrum(values=values), n)
        assert logw.min() >= 0.0
        assert log2_dim.view(np.uint64).tolist() == \
            (logw / math.log(2.0)).view(np.uint64).tolist()
        protocols._last_exact_law.cache_clear()

    def test_zero_weight_law_is_kept_whole(self, counted):
        # a zero-probability label gives zero-weight types; the
        # distribution drops them, and the memo keeps the whole law
        spec = SchmidtSpectrum(values=((0.6, 1), (0.4, 1), (0.0, 2)))
        dist = concentration_distribution(spec, 5, mode="exact")
        assert len(dist) == 6
        assert len(protocols._last_exact_law(spec.values, 5)[2]) == \
            math.comb(5 + 3, 3)
        est = concentration_success_prob(spec, 5, 2.0, mode="exact").estimate
        assert counted == [5]
        assert est == pytest.approx(math.fsum(
            o.probability for o in dist if o.log2_dim >= 2.0 - 1e-9), abs=1e-12)

    def test_sampled_distribution_keeps_nothing(self, counted):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=4))
        concentration_distribution(spec, 9, mode="sample", samples=500)
        assert protocols._last_exact_law.cache_info().currsize == 0
        assert counted == []


class TestArgumentValidation:
    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("mode", ["auto", "exact", "sample"])
    def test_distribution_rejects_nonpositive_samples(self, samples, mode):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        with pytest.raises(SpecError):
            concentration_distribution(spec, 4, mode=mode, samples=samples)

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("mode", ["auto", "exact", "sample"])
    def test_success_rejects_nonpositive_samples(self, samples, mode):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        with pytest.raises(SpecError):
            concentration_success_prob(spec, 4, 1.0, mode=mode,
                                       samples=samples)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_success_rejects_nonfinite_target(self, target, mode):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        with pytest.raises(SpecError):
            concentration_success_prob(spec, 4, target, mode=mode,
                                       samples=100)

    @pytest.mark.parametrize("n, labels, samples", [
        (10**14, 2, 10), (4, 10**14, 10), (4, 2, 10**14)])
    def test_oversize_laws_are_refused(self, n, labels, samples):
        # refused before any array is sized by them
        spec = SchmidtSpectrum(values=((1.0 / labels, labels),))
        with pytest.raises(SpecError, match="limit"):
            protocols._law_columns(spec, n, "sample", samples, 0)

    def test_limits_are_inclusive(self, monkeypatch):
        monkeypatch.setattr(protocols, "_MAX_COPIES", 9)
        monkeypatch.setattr(protocols, "_MAX_LABELS", 4)
        monkeypatch.setattr(protocols, "_MAX_SAMPLES", 50)
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=4))
        wide = psi_spectrum(PsiSpec(lam=0.5, d2=5))
        concentration_distribution(spec, 9, mode="sample", samples=50)
        concentration_success_prob(spec, 9, 4.0, mode="sample", samples=51)
        # an exact law sizes nothing by its samples
        concentration_distribution(spec, 2, samples=51)
        for call in (
                lambda: concentration_distribution(spec, 10, mode="sample"),
                lambda: concentration_success_prob(spec, 10, 4.0),
                lambda: concentration_distribution(spec, 9, mode="sample",
                                                   samples=51),
                lambda: concentration_distribution(wide, 2),
                lambda: concentration_success_prob(wide, 2, 1.0)):
            with pytest.raises(SpecError, match="limit"):
                call()


def _count_entries():
    """(label, call, a valid value): every count argument of the
    concentration laws."""
    spec = psi_spectrum(PsiSpec(lam=0.5, d2=3))
    return [
        ("distribution-n", lambda v: concentration_distribution(spec, v), 4),
        ("distribution-samples",
         lambda v: concentration_distribution(spec, 4, mode="sample",
                                              samples=v), 50),
        ("success-n", lambda v: concentration_success_prob(spec, v, 1.0), 4),
        ("success-samples",
         lambda v: concentration_success_prob(spec, 4, 1.0, mode="sample",
                                              samples=v), 50),
    ]


@pytest.mark.parametrize("value", [2.5, 4.0, True, "int64"])
@pytest.mark.parametrize("entry", range(len(_count_entries())),
                         ids=[label for label, _, _ in _count_entries()])
def test_counts_must_be_integers(entry, value):
    # a float or a bool count is a SpecError, not a raw TypeError from
    # numpy; a numpy integer is an integer
    _, call, good = _count_entries()[entry]
    if value == "int64":
        call(np.int64(good))
    else:
        with pytest.raises(SpecError, match="must be an integer"):
            call(value)


class TestMaximalEntanglementWitness:
    def test_explicit_type_projection(self):
        # build |psi>^(x)n literally for n <= 3 and check that each type
        # class holds a maximally entangled state of multinomial dimension
        lam = 0.37
        spec = psi_spectrum(PsiSpec(lam=lam, d2=2))
        amps = np.array([math.sqrt(lam), math.sqrt(1 - lam)])
        for n in (1, 2, 3):
            strings = list(itertools.product(range(2), repeat=n))
            dim = 2 ** n
            vec = np.zeros((dim, dim))
            for idx, s in enumerate(strings):
                c = math.prod(amps[i] for i in s)
                vec[idx, idx] = c  # |s>_A |s>_B amplitude
            dist = {o.counts: o for o in concentration_distribution(spec, n)}
            for k in range(n + 1):
                members = [i for i, s in enumerate(strings) if sum(s) == k]
                block = np.zeros((dim, dim))
                for i in members:
                    block[i, i] = vec[i, i]
                prob = float((block ** 2).sum())
                post = block / math.sqrt(prob)
                reduced = post @ post.T  # A-side marginal of the post state
                L = math.comb(n, k)
                counts = (n - k, k)
                assert dist[counts].probability == pytest.approx(prob, abs=1e-12)
                assert dist[counts].log2_dim == pytest.approx(
                    math.log2(L), abs=1e-12)
                expect = np.zeros((dim, dim))
                for i in members:
                    expect[i, i] = 1.0 / L
                np.testing.assert_allclose(reduced, expect, atol=1e-10)


class TestSuccessProbability:
    def test_target_zero(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=3))
        est = concentration_success_prob(spec, 6, 0.0)
        assert est.exact and est.estimate == 1.0

    def test_impossible_target(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=3))
        est = concentration_success_prob(spec, 6, 6 * math.log2(3) + 1.0)
        assert est.estimate == 0.0

    def test_two_copy_worked_example(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        est = concentration_success_prob(spec, 2, 1.0)
        assert est.exact
        assert est.estimate == pytest.approx(0.5, abs=1e-12)

    def test_wilson_interval_is_99_percent(self):
        # the level is the package's one Wilson level, not a parameter
        assert list(inspect.signature(wilson_interval).parameters) == [
            "successes", "trials"]
        z = WILSON_Z_99
        lo, hi = wilson_interval(0, 10)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(z * z / (10 + z * z), rel=1e-14)

    def test_wilson_interval_brackets_exact(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        exact = concentration_success_prob(spec, 20, 12.0).estimate
        est = concentration_success_prob(spec, 20, 12.0, mode="sample",
                                         samples=100_000, seed=3)
        assert not est.exact
        assert est.ci_low <= exact <= est.ci_high
        assert est.estimate == pytest.approx(exact, abs=0.01)

    def test_mode_error_mirrors_distribution(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=8))
        with pytest.raises(ModeError):
            concentration_success_prob(spec, 64, 100.0, mode="exact")


class TestFailureExponent:
    def test_positive_rate_below_entropy(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))  # S = 1 bit
        fit = failure_exponent_fit(spec, 0.5, (8, 12, 16, 20))
        assert fit.bits_per_copy > 0.0
        assert all(f > 0 for f in fit.failure_probs)
        # failures must actually decay along the checkpoints
        assert fit.failure_probs[-1] < fit.failure_probs[0]

    def test_degenerate_inputs(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        with pytest.raises(DomainError):
            failure_exponent_fit(spec, 0.0, (4, 8))  # never fails

    @pytest.mark.parametrize("n_list", [(10.7, 12.2), (8, True), (8, 0)],
                             ids=["floats", "bool", "zero"])
    def test_copy_counts_follow_the_count_rule(self, n_list):
        # 10.7 is refused, never truncated to 10
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        with pytest.raises(SpecError, match="copy count"):
            failure_exponent_fit(spec, 1.0, n_list)

    def test_numpy_copy_counts_fit_as_python_ints(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=2))
        fit = failure_exponent_fit(spec, 0.5, np.array([8, 12]))
        assert fit == failure_exponent_fit(spec, 0.5, (8, 12))
        assert all(type(n) is int for n in fit.n_list)
