import math

import numpy as np
import pytest

from locclab import (
    DensityOperator,
    HidingPairSpec,
    PsiSpec,
    SchmidtSpectrum,
    SpecError,
    TensorLayout,
    check_psi_conditions,
    helstrom,
    make_hiding_pair,
    make_max_entangled,
    make_psi,
    make_rho_pair,
    operator_to_json,
    partial_trace,
    partial_transpose,
    psi_product_distance,
    psi_spectrum,
    sample_separable,
    trace_norm,
    von_neumann_entropy,
)


def closed_form_entropy(lam: float, d2: int) -> float:
    return -lam * math.log2(lam) - (1 - lam) * math.log2((1 - lam) / (d2 - 1))


class TestHidingPair:
    def test_d2_singlet(self):
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        singlet = np.zeros(4, dtype=np.complex128)
        singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        np.testing.assert_allclose(s1.entries, np.outer(singlet, singlet.conj()),
                                   atol=1e-14)
        assert abs(np.trace(s0.entries @ s1.entries)) < 1e-14

    def test_d2_orthogonal_hence_perfect(self):
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        assert trace_norm(s0.entries - s1.entries) == pytest.approx(2.0, abs=1e-12)
        assert helstrom(s0, s1) == pytest.approx(1.0, abs=1e-12)

    def test_d3_ranks(self):
        # symmetric/antisymmetric subspace dimensions d(d+1)/2 and d(d-1)/2
        s0, s1 = make_hiding_pair(HidingPairSpec(d=3))
        assert np.linalg.matrix_rank(s0.entries, tol=1e-10) == 6
        assert np.linalg.matrix_rank(s1.entries, tol=1e-10) == 3

    def test_perfectly_distinguishable_up_to_d6(self):
        for d in range(2, 7):
            s0, s1 = make_hiding_pair(HidingPairSpec(d=d))
            assert helstrom(s0, s1) == pytest.approx(1.0, abs=1e-10)

    def test_valid_density_operators(self):
        for d in (2, 3, 4):
            s0, s1 = make_hiding_pair(HidingPairSpec(d=d))
            for s in (s0, s1):
                assert abs(s.trace() - 1.0) < 1e-12
                assert np.linalg.eigvalsh(s.entries).min() > -1e-12

    def test_bad_specs(self):
        with pytest.raises(SpecError):
            HidingPairSpec(d=1)


class TestMakePsi:
    def test_bell_case(self):
        rho = make_psi(PsiSpec(lam=0.5, d2=2))
        marg = partial_trace(rho, {"B2"})
        assert von_neumann_entropy(marg) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_spectrum_case(self):
        for d2 in (2, 4, 5):
            psi = make_psi(PsiSpec(lam=1.0 / d2, d2=d2))
            marg = partial_trace(psi, {"B2"})
            assert von_neumann_entropy(marg) == pytest.approx(
                math.log2(d2), abs=1e-10)

    def test_overlap_with_00(self):
        psi = make_psi(PsiSpec(lam=0.9, d2=5))
        assert abs(psi.entries[0, 0]) == pytest.approx(0.9, abs=1e-12)

    def test_point_nine_example(self):
        spec = PsiSpec(lam=0.9, d2=5)
        psi = make_psi(spec)
        marg = partial_trace(psi, {"B2"})
        assert von_neumann_entropy(marg) == pytest.approx(0.669, abs=1e-3)
        # trace distance to |00><00| for pure states: 2 sqrt(1 - lambda)
        product = np.zeros((25, 25), dtype=np.complex128)
        product[0, 0] = 1.0
        dist = trace_norm(psi.entries - product)
        assert dist == pytest.approx(2 * math.sqrt(0.1), abs=1e-10)
        assert psi_product_distance(spec) == pytest.approx(dist, abs=1e-10)

    def test_entropy_closed_form_random_specs(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            lam = float(rng.uniform(0.05, 0.95))
            d2 = int(rng.integers(2, 7))
            spec = PsiSpec(lam=lam, d2=d2)
            marg = partial_trace(make_psi(spec), {"B2"})
            assert von_neumann_entropy(marg) == pytest.approx(
                closed_form_entropy(lam, d2), abs=1e-10)
            assert psi_spectrum(spec).entropy_bits == pytest.approx(
                closed_form_entropy(lam, d2), abs=1e-12)

    def test_product_distance_identity_random_specs(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            lam = float(rng.uniform(0.05, 0.95))
            spec = PsiSpec(lam=lam, d2=int(rng.integers(2, 6)))
            assert psi_product_distance(spec) == pytest.approx(
                2 * math.sqrt(1 - lam), abs=1e-12)

    def test_lambda_bounds(self):
        with pytest.raises(SpecError):
            PsiSpec(lam=0.0, d2=2)
        with pytest.raises(SpecError):
            PsiSpec(lam=1.0, d2=2)
        with pytest.raises(SpecError):
            PsiSpec(lam=0.5, d2=1)


class TestPsiConditions:
    def test_near_product_true(self):
        # sufficient condition lambda > 1 - eps'^2/4 = 0.9975
        cond = check_psi_conditions(PsiSpec(lam=0.999, d2=4), 2, 0.1)
        assert cond.near_product

    def test_near_product_false(self):
        # 2 sqrt(0.5) = 1.414 > 0.1
        cond = check_psi_conditions(PsiSpec(lam=0.5, d2=4), 2, 0.1)
        assert not cond.near_product

    def test_entropy_excess_value(self):
        cond = check_psi_conditions(PsiSpec(lam=0.5, d2=8), 2, 1.0)
        expect = 0.5 + 0.5 * math.log2(14) - 1.0
        assert cond.entropy_excess == pytest.approx(expect, abs=1e-12)
        assert cond.entropy_excess == pytest.approx(1.403, abs=1e-3)

    def test_report_fields_consistent(self):
        spec = PsiSpec(lam=0.7, d2=3)
        cond = check_psi_conditions(spec, 2, 0.5)
        assert cond.entropy_bits == psi_spectrum(spec).entropy_bits
        assert cond.trace_distance == pytest.approx(psi_product_distance(spec))
        assert cond.near_product == (cond.trace_distance < 0.5)


class TestRhoPair:
    def test_orthogonality_inherited(self):
        pair = make_hiding_pair(HidingPairSpec(d=2))
        psi = make_psi(PsiSpec(lam=0.9, d2=2))
        r0, r1 = make_rho_pair(pair, psi)
        assert abs(np.trace(r0.entries @ r1.entries)) < 1e-14

    def test_marginal_is_psi(self):
        pair = make_hiding_pair(HidingPairSpec(d=2))
        psi = make_psi(PsiSpec(lam=0.7, d2=3))
        for rho in make_rho_pair(pair, psi):
            marg = partial_trace(rho, {"A1", "B1"})
            np.testing.assert_allclose(marg.entries, psi.entries,
                                       atol=1e-12)

    def test_dimensions_and_validity(self):
        pair = make_hiding_pair(HidingPairSpec(d=2))
        psi = make_psi(PsiSpec(lam=0.5, d2=2))
        r0, r1 = make_rho_pair(pair, psi)
        assert r0.layout.dim == 16
        assert set(r0.layout.labels) == {"A1", "B1", "A2", "B2"}
        for r in (r0, r1):
            assert abs(r.trace() - 1.0) < 1e-12
            assert np.linalg.eigvalsh(r.entries).min() > -1e-12


class TestMaxEntangled:
    def test_dim_one(self):
        phi = make_max_entangled(1)
        assert phi.entries.shape == (1, 1)
        assert abs(abs(phi.entries[0, 0]) - 1.0) < 1e-12

    def test_entropies(self):
        for dim, bits in ((2, 1.0), (4, 2.0)):
            phi = make_max_entangled(dim)
            marg = partial_trace(phi, {phi.layout.labels[1]})
            assert von_neumann_entropy(marg) == pytest.approx(bits, abs=1e-12)
            np.testing.assert_allclose(marg.entries, np.eye(dim) / dim,
                                       atol=1e-12)

    def test_invalid_dim(self):
        with pytest.raises(SpecError):
            make_max_entangled(0)


class TestSideLimit:
    """A family whose density matrix would have a side above _MAX_SIDE is
    refused before anything is allocated."""

    def test_huge_families_are_refused(self):
        for build in (lambda: make_hiding_pair(HidingPairSpec(d=10**5)),
                      lambda: make_psi(PsiSpec(lam=0.5, d2=10**14)),
                      lambda: make_max_entangled(10**6)):
            with pytest.raises(SpecError, match="above the limit 2048"):
                build()

    def test_limit_is_inclusive(self, monkeypatch):
        from locclab import states
        monkeypatch.setattr(states, "_MAX_SIDE", 16)
        pair = make_hiding_pair(HidingPairSpec(d=4))
        small_pair = make_hiding_pair(HidingPairSpec(d=2))
        assert make_psi(PsiSpec(lam=0.5, d2=4)).layout.dims == (4, 4)
        assert make_max_entangled(4).layout.dims == (4, 4)
        make_rho_pair(small_pair, make_psi(PsiSpec(lam=0.5, d2=2)))
        for build in (lambda: make_hiding_pair(HidingPairSpec(d=5)),
                      lambda: make_psi(PsiSpec(lam=0.5, d2=5)),
                      lambda: make_max_entangled(5),
                      lambda: make_rho_pair(pair, make_psi(
                          PsiSpec(lam=0.5, d2=2)))):
            with pytest.raises(SpecError, match="above the limit 16"):
                build()


class TestRankOneStates:
    # a pure state is the DensityOperator np.outer(v, v*) of its
    # closed-form vector v, entry for entry
    @pytest.mark.parametrize("lam, d2", [(0.5, 2), (0.7, 3), (0.999, 4)])
    def test_psi(self, lam, d2):
        v = np.zeros(d2 * d2, dtype=np.complex128)
        v[0] = math.sqrt(lam)
        v[d2 + 1::d2 + 1] = math.sqrt((1.0 - lam) / (d2 - 1))
        psi = make_psi(PsiSpec(lam=lam, d2=d2))
        assert type(psi) is DensityOperator
        np.testing.assert_array_equal(psi.entries, np.outer(v, v.conj()))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_max_entangled(self, dim):
        v = np.zeros(dim * dim, dtype=np.complex128)
        v[::dim + 1] = 1.0 / math.sqrt(dim)
        phi = make_max_entangled(dim)
        assert type(phi) is DensityOperator
        np.testing.assert_array_equal(phi.entries, np.outer(v, v.conj()))


class TestSampleSeparable:
    LAYOUT = TensorLayout((("A1", 2), ("B1", 2)))

    def test_single_term_is_pure_product(self):
        rho = sample_separable(self.LAYOUT, 1, seed=5)
        w = np.linalg.eigvalsh(rho.entries)
        assert w[-1] == pytest.approx(1.0, abs=1e-10)  # rank one
        marg = partial_trace(rho, {"B1"})
        assert np.linalg.eigvalsh(marg.entries)[-1] == pytest.approx(
            1.0, abs=1e-10)  # marginal pure too

    def test_ppt_necessary_condition(self):
        # separable by construction, so the partial transpose stays PSD
        for seed in range(100):
            rho = sample_separable(self.LAYOUT, 3, seed=seed)
            pt = partial_transpose(rho, {"B1"})
            assert np.linalg.eigvalsh(pt.entries).min() >= -1e-10

    def test_seed_determinism(self):
        a = sample_separable(self.LAYOUT, 4, seed=123)
        b = sample_separable(self.LAYOUT, 4, seed=123)
        assert operator_to_json(a) == operator_to_json(b)
        c = sample_separable(self.LAYOUT, 4, seed=124)
        assert operator_to_json(a) != operator_to_json(c)

    def test_valid_density(self):
        rho = sample_separable(TensorLayout((("A1", 3), ("B1", 2))), 5, seed=9)
        assert abs(rho.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.entries).min() > -1e-12


def _dimension_entries():
    """(label, call, a valid value): every count or dimension argument of
    the state families."""
    layout = TensorLayout((("A1", 2), ("B1", 2)))
    return [
        ("HidingPairSpec-d", lambda v: make_hiding_pair(HidingPairSpec(d=v)), 2),
        ("PsiSpec-d2", lambda v: make_psi(PsiSpec(lam=0.5, d2=v)), 4),
        ("check_psi_conditions-d1",
         lambda v: check_psi_conditions(PsiSpec(lam=0.5, d2=8), v, 0.1), 2),
        ("make_max_entangled-dim", lambda v: make_max_entangled(v), 4),
        ("sample_separable-k_terms",
         lambda v: sample_separable(layout, v, seed=3), 4),
    ]


@pytest.mark.parametrize("value", [2.5, 4.0, True, "int64"])
@pytest.mark.parametrize("entry", range(len(_dimension_entries())),
                         ids=[label for label, _, _ in _dimension_entries()])
def test_dimensions_and_counts_must_be_integers(entry, value):
    # a float or a bool dimension is a SpecError, not a raw TypeError from
    # numpy; a numpy integer is an integer
    _, call, good = _dimension_entries()[entry]
    if value == "int64":
        call(np.int64(good))
    else:
        with pytest.raises(SpecError, match="must be an integer"):
            call(value)


class TestSchmidtSpectrum:
    def test_psi_spectrum_layout(self):
        spec = psi_spectrum(PsiSpec(lam=0.5, d2=8))
        assert spec.values[0] == (0.5, 1)
        assert spec.values[1][1] == 7
        assert spec.num_labels == 8
        assert spec.entropy_bits == pytest.approx(
            closed_form_entropy(0.5, 8), abs=1e-12)

    def test_mass_must_be_one(self):
        with pytest.raises(SpecError):
            SchmidtSpectrum(values=((0.5, 1), (0.25, 1)))

    @pytest.mark.parametrize("values,match", [
        ((), "at least one value"),
        (((1.5, 1), (-0.5, 1)), "probability -0.5 < 0"),
        (((1.0, 1), (0.5, 0)), "multiplicity 0 < 1"),
    ], ids=["empty", "negative", "multiplicity-0"])
    def test_malformed_values_rejected(self, values, match):
        with pytest.raises(SpecError, match=match):
            SchmidtSpectrum(values=values)

    # read as 2 and 1, each multiplicity would give a mass of exactly 1
    @pytest.mark.parametrize("values", [
        ((0.5, 2.7),),
        ((0.5, True), (0.5, 1)),
    ], ids=["float", "bool"])
    def test_multiplicity_is_not_coerced(self, values):
        with pytest.raises(SpecError, match="is not an integer"):
            SchmidtSpectrum(values=values)

    def test_numpy_integer_multiplicity_accepted(self):
        spec = SchmidtSpectrum(values=((0.5, np.int64(1)), (0.25, np.int32(2))))
        assert spec.values == ((0.5, 1), (0.25, 2))
        assert spec.num_labels == 3

    @pytest.mark.parametrize("values", [
        ((math.nan, 1), (0.5, 1)),
        ((0.5, 1), (math.nan, 1)),
        ((math.inf, 1), (0.5, 1)),
        ((0.5, 1), (-math.inf, 1)),
    ])
    def test_nonfinite_probability_rejected(self, values, monkeypatch):
        import locclab.protocols as protocols

        def unreachable(*args, **kwargs):
            raise AssertionError("concentration law reached")
        monkeypatch.setattr(protocols, "_exact_law", unreachable)
        monkeypatch.setattr(protocols, "concentration_distribution",
                            unreachable)
        with pytest.raises(SpecError, match="not finite"):
            protocols.concentration_distribution(SchmidtSpectrum(values), 2)
        with pytest.raises(SpecError, match="not finite"):
            protocols.concentration_success_prob(SchmidtSpectrum(values), 4,
                                                 1.0)

    def test_label_probabilities(self):
        spec = SchmidtSpectrum(values=((0.4, 1), (0.2, 3)))
        np.testing.assert_allclose(spec.label_probabilities(),
                                   [0.4, 0.2, 0.2, 0.2], atol=0)
