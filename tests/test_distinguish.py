import inspect
import math
from dataclasses import fields
import numpy as np
import pytest

from conftest import random_density

from locclab import (
    BoundBracket,
    ChannelError,
    ConfigError,
    DensityOperator,
    HidingPairSpec,
    LayoutError,
    NumericError,
    OneWayProtocol,
    PsiSpec,
    SpecError,
    TOL,
    TensorLayout,
    bound_bracket,
    helstrom,
    locc_lower_bound,
    make_hiding_pair,
    make_psi,
    make_rho_pair,
    one_way_library,
    ppt_sdp,
    ppt_upper_bound,
    solve_ppt_two_outcome,
    tensor,
    thm2_locc_bound,
)

AB22 = TensorLayout((("A1", 2), ("B1", 2)))


def random_pair(rng: np.random.Generator) -> tuple[DensityOperator, DensityOperator]:
    return (DensityOperator(AB22, random_density(rng, 4)),
            DensityOperator(AB22, random_density(rng, 4)))


def element_value(protocol: OneWayProtocol, delta: np.ndarray) -> float:
    """The protocol's success probability on the difference ``delta``
    (A (x) B order) from its POVM elements: 1/2 + 1/4 sum |Tr[E delta]|."""
    traces = np.einsum("nij,ji->n", protocol.elements(), delta).real
    # the protocol's functionals read the same traces, per outcome, from
    # its conditional blocks
    d1, d2 = protocol.first.shape[0], protocol.cond.shape[1]
    da, db = (d1, d2) if protocol.first_party == "A" else (d2, d1)
    blocks = protocol.blocks(np.asarray(delta).reshape(da, db, da, db))
    np.testing.assert_allclose(protocol.functionals(blocks), traces, rtol=0, atol=1e-12)
    return 0.5 + 0.25 * float(np.abs(traces).sum())


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(g)[0]


def commutant_grid_value(d: int, steps: int) -> float:
    """Independent oracle for the hiding-pair PPT value.

    Restrict the measurement operator to M = a P_sym + b P_asym (the
    commutant of the problem's U x U symmetry), discretize (a, b) on a
    grid, keep pairs where eigendecompositions certify 0 <= M <= I and
    0 <= M^G <= I, and maximize Tr[M (sigma0 - sigma1)] = a - b. Built
    from raw numpy so it shares nothing with the solver under test.
    """
    dim = d * d
    swap = np.zeros((dim, dim))
    for i in range(d):
        for k in range(d):
            swap[i * d + k, k * d + i] = 1.0
    p_sym = (np.eye(dim) + swap) / 2.0
    p_asym = (np.eye(dim) - swap) / 2.0
    best = -1.0
    for a in np.linspace(0.0, 1.0, steps):
        for b in np.linspace(0.0, 1.0, steps):
            if a - b <= best:
                continue
            m = a * p_sym + b * p_asym
            mg = m.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(dim, dim)
            w = np.linalg.eigvalsh(m)
            wg = np.linalg.eigvalsh(mg)
            if (w.min() >= -1e-12 and w.max() <= 1 + 1e-12
                    and wg.min() >= -1e-12 and wg.max() <= 1 + 1e-12):
                best = a - b
    return 0.5 + best / 2.0


class TestHelstrom:
    def test_equal_states(self):
        rho = DensityOperator(AB22, random_density(np.random.default_rng(0), 4))
        assert helstrom(rho, rho) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure_states(self):
        layout = TensorLayout((("A1", 2),))
        a = DensityOperator(layout, np.diag([1.0, 0.0]))
        b = DensityOperator(layout, np.diag([0.0, 1.0]))
        assert helstrom(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_pure_vs_mixed(self):
        layout = TensorLayout((("A1", 2),))
        a = DensityOperator(layout, np.diag([1.0, 0.0]))
        b = DensityOperator(layout, np.eye(2) / 2)
        assert helstrom(a, b) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("functional", [helstrom, one_way_library,
                                            locc_lower_bound, ppt_sdp,
                                            bound_bracket])
    def test_layout_mismatch(self, functional):
        a = DensityOperator(AB22, np.eye(4) / 4)
        b = DensityOperator(TensorLayout((("A1", 2), ("B1", 3))), np.eye(6) / 6)
        with pytest.raises(LayoutError):
            functional(a, b)

    @pytest.mark.parametrize("functional", [helstrom, ppt_sdp])
    def test_layout_mismatch_names_both_dimensions(self, functional):
        # equal labels, different dimensions
        a = DensityOperator(AB22, np.eye(4) / 4)
        b = DensityOperator(TensorLayout((("A1", 2), ("B1", 3))), np.eye(6) / 6)
        with pytest.raises(LayoutError) as err:
            functional(a, b)
        assert "('B1', 2)" in str(err.value) and "('B1', 3)" in str(err.value)

    def test_additivity_under_common_factor(self):
        rng = np.random.default_rng(4)
        rho0, rho1 = random_pair(rng)
        omega = DensityOperator(TensorLayout((("A2", 2),)),
                                random_density(rng, 2))
        base = helstrom(rho0, rho1)
        lifted = helstrom(tensor(rho0, omega), tensor(rho1, omega))
        assert lifted == pytest.approx(base, abs=1e-9)


EYE2 = np.eye(2)
SQUASHED = np.array([[1.0, 0.0], [0.0, 0.5]])


class TestProtocolValue:
    def test_equal_states_score_one_half(self):
        rho = DensityOperator(AB22, random_density(np.random.default_rng(0), 4))
        d4 = canonical_difference(rho, rho)
        for protocol in one_way_library(rho, rho):
            assert protocol.value(protocol.blocks(d4)) == 0.5

    def test_commuting_case_total_variation(self):
        # a diagonal pair read in the computational product basis scores
        # 1/2 + 1/4 of the total variation distance of the diagonals
        p = np.array([0.5, 0.3, 0.15, 0.05])
        q = np.array([0.2, 0.3, 0.05, 0.45])
        rho0, rho1 = DensityOperator(AB22, np.diag(p)), DensityOperator(AB22, np.diag(q))
        protocol = OneWayProtocol("A", EYE2, np.stack([EYE2, EYE2]))
        value = protocol.value(protocol.blocks(canonical_difference(rho0, rho1)))
        expected = 0.5 + 0.25 * np.abs(p - q).sum()
        assert value == pytest.approx(expected, abs=1e-12)
        assert element_value(protocol, np.diag(p - q)) == pytest.approx(expected, abs=1e-12)

    def test_value_never_exceeds_helstrom(self):
        # a measurement cannot read more than the trace norm
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho0, rho1 = random_pair(rng)
            protocol = OneWayProtocol(
                "A", random_unitary(rng, 2),
                np.stack([random_unitary(rng, 2) for _ in range(2)]))
            value = protocol.value(protocol.blocks(canonical_difference(rho0, rho1)))
            assert value <= helstrom(rho0, rho1) + 1e-12

    def test_coarse_graining_never_increases_value(self):
        # merging outcomes can only hide signal: the adaptive protocol's
        # elements summed into two random groups read no more than it
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho0, rho1 = random_pair(rng)
            d4 = canonical_difference(rho0, rho1)
            adaptive = one_way_library(rho0, rho1)[1]
            fine = adaptive.value(adaptive.blocks(d4))
            traces = np.einsum("nij,ji->n", adaptive.elements(),
                               d4.reshape(4, 4)).real
            group = rng.integers(0, 2, size=traces.size)
            coarse = 0.5 + 0.25 * sum(abs(traces[group == g].sum()) for g in (0, 1))
            assert coarse <= fine + 1e-12


class TestChannelValidation:
    """Each invariant of a one-way protocol raises ChannelError."""

    @pytest.mark.parametrize("party, first, cond, message", [
        ("A", np.zeros((0, 0)), np.zeros((0, 2, 2)), "first basis has shape"),
        ("A", np.ones((2, 3)), np.stack([EYE2, EYE2]), "first basis has shape"),
        ("A", EYE2, np.stack([EYE2] * 3), "conditional bases have shape"),
        ("A", EYE2, np.ones((2, 2, 3)), "conditional bases have shape"),
        ("B", SQUASHED, np.stack([EYE2, EYE2]), "first basis is not unitary"),
        ("A", EYE2, np.stack([EYE2, np.diag([np.nan, 1.0])]), "not finite"),
        ("A", np.diag([np.inf, 1.0]), np.stack([EYE2, EYE2]), "not finite"),
        ("C", EYE2, np.stack([EYE2, EYE2]), "first party must be"),
    ], ids=["empty", "non-square", "mixed-dims", "non-square-conditional",
            "incomplete", "nan", "inf", "first-party"])
    def test_each_invariant_is_enforced(self, party, first, cond, message):
        with pytest.raises(ChannelError, match=message):
            OneWayProtocol(party, first, cond)

    def test_fields_are_the_bases_and_the_name(self):
        # Bob's guess is the sign of each outcome's functional, so the
        # bases and the name are the whole witness
        assert [f.name for f in fields(OneWayProtocol)] == [
            "first_party", "first", "cond", "name"]

    def test_incomplete_conditional_basis_is_refused(self):
        # a conditional "basis" that is one projector does not sum to I
        with pytest.raises(ChannelError, match="conditional basis is not unitary"):
            OneWayProtocol("A", EYE2, np.stack([EYE2, np.diag([1.0, 0.0])]))

    def test_protocol_holds_read_only_copies(self):
        first, cond = EYE2.copy(), np.stack([EYE2, EYE2])
        protocol = OneWayProtocol("A", first, cond)
        first[0, 0] = cond[0, 0, 0] = 0.0
        assert protocol.first[0, 0] == protocol.cond[0, 0, 0] == 1.0
        for arr in (protocol.first, protocol.cond):
            assert not arr.flags.writeable


class TestLoccLowerBound:
    def test_classical_pair_reaches_helstrom(self):
        # both states diagonal in the product basis: one-way measurement
        # already extracts everything
        rho0 = DensityOperator(AB22, np.diag([0.5, 0.25, 0.15, 0.1]))
        rho1 = DensityOperator(AB22, np.diag([0.1, 0.15, 0.25, 0.5]))
        value, witness = locc_lower_bound(rho0, rho1)
        assert value == pytest.approx(helstrom(rho0, rho1), abs=1e-9)
        assert witness.name == "computational-product"

    def test_werner_bracket(self):
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        value, _ = locc_lower_bound(s0, s1)
        assert value >= 0.5
        assert value <= ppt_upper_bound(s0, s1) + 1e-6

    def test_empty_library(self):
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        with pytest.raises(ConfigError):
            locc_lower_bound(s0, s1, library=())


def canonical_difference(rho0, rho1):
    """rho0 - rho1 with the A factors moved first, as a (dA, dB, dA, dB)
    tensor; the permutation is written out from the layout labels."""
    labels = rho0.layout.labels
    dims = [rho0.layout.dim_of(lab) for lab in labels]
    order = ([i for i, lab in enumerate(labels) if lab.startswith("A")]
             + [i for i, lab in enumerate(labels) if lab.startswith("B")])
    n = len(labels)
    diff = (rho0.entries - rho1.entries).reshape(dims + dims)
    diff = diff.transpose(order + [n + i for i in order])
    da = math.prod(dims[i] for i in order if labels[i].startswith("A"))
    db = math.prod(dims) // da
    return diff.reshape(da, db, da, db)


def expected_library(d4):
    """The three library protocols rebuilt from raw numpy, in library
    order: (name, [(outcome label, element), ...])."""
    da, db = d4.shape[0], d4.shape[1]

    def proj(v):
        return np.outer(v, v.conj())

    comp = [(f"a{k}b{m}", np.kron(proj(np.eye(da)[:, k]), proj(np.eye(db)[:, m])))
            for k in range(da) for m in range(db)]

    # A first: eigenbasis of the A marginal, then of each conditional B block
    marg_a = np.zeros((da, da), dtype=np.complex128)
    for b in range(db):
        marg_a += d4[:, b, :, b]
    _, ua = np.linalg.eigh(marg_a)
    a_first = []
    for k in range(da):
        u = ua[:, k]
        blk = np.zeros((db, db), dtype=np.complex128)
        for a1 in range(da):
            for a2 in range(da):
                blk += u[a1].conj() * d4[a1, :, a2, :] * u[a2]
        _, vb = np.linalg.eigh(blk)
        for m in range(db):
            a_first.append((f"a{k}b{m}", np.kron(proj(u), proj(vb[:, m]))))

    # B first: the mirror image, elements still ordered A (x) B
    marg_b = np.zeros((db, db), dtype=np.complex128)
    for a in range(da):
        marg_b += d4[a, :, a, :]
    _, ub = np.linalg.eigh(marg_b)
    b_first = []
    for k in range(db):
        u = ub[:, k]
        blk = np.zeros((da, da), dtype=np.complex128)
        for b1 in range(db):
            for b2 in range(db):
                blk += u[b1].conj() * d4[:, b1, :, b2] * u[b2]
        _, va = np.linalg.eigh(blk)
        for m in range(da):
            b_first.append((f"b{k}a{m}", np.kron(proj(va[:, m]), proj(u))))

    return [("computational-product", comp), ("a-eig-conditional-b", a_first),
            ("b-eig-conditional-a", b_first)]


BRACKET_SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4), (4, 4), (2, 8))


def two_outcome_pairs():
    """A seeded random pair of each shape of the generic brackets, the
    Werner pairs d = 2..4 and the composed D = 16 pair."""
    for i, (da, db) in enumerate(BRACKET_SHAPES):
        rng = np.random.default_rng(300 + i)
        layout = TensorLayout((("A1", da), ("B1", db)))
        yield (f"random{da}x{db}",
               (DensityOperator(layout, random_density(rng, da * db)),
                DensityOperator(layout, random_density(rng, da * db))))
    for d in (2, 3, 4):
        yield f"werner{d}", make_hiding_pair(HidingPairSpec(d=d))
    yield "composed16", make_rho_pair(make_hiding_pair(HidingPairSpec(d=2)),
                                      make_psi(PsiSpec(lam=0.9, d2=2)))


class TestOneWayLibrary:
    @pytest.mark.parametrize("pair", ["werner3", "composed16", "random3x2"])
    def test_layout_matches_raw_construction(self, pair):
        if pair == "werner3":
            rho0, rho1 = make_hiding_pair(HidingPairSpec(d=3))
        elif pair == "composed16":
            rho0, rho1 = make_rho_pair(make_hiding_pair(HidingPairSpec(d=2)),
                                       make_psi(PsiSpec(lam=0.9, d2=2)))
        else:
            rng = np.random.default_rng(2024)
            layout = TensorLayout((("A1", 3), ("B1", 2)))
            rho0 = DensityOperator(layout, random_density(rng, 6))
            rho1 = DensityOperator(layout, random_density(rng, 6))
        library = one_way_library(rho0, rho1)
        expected = expected_library(canonical_difference(rho0, rho1))
        assert [p.name for p in library] == [name for name, _ in expected]
        for protocol, (_, elems) in zip(library, expected):
            assert protocol.outcomes == tuple(label for label, _ in elems)
            for got, (_, want) in zip(protocol.elements(), elems):
                assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("pair", [pair for _, pair in two_outcome_pairs()],
                             ids=[label for label, _ in two_outcome_pairs()])
    def test_value_is_attained_by_two_outcomes(self, pair):
        # the guess on each outcome is the sign of its functional: the
        # product projectors with Re Tr[M Delta] >= 0, summed into M0,
        # and I - M0 read the protocol's value
        d4 = canonical_difference(*pair)
        delta = d4.reshape(d4.shape[0] * d4.shape[1], -1)
        for protocol in one_way_library(*pair):
            elems = protocol.elements()
            traces = np.einsum("nij,ji->n", elems, delta).real
            m0 = elems[traces >= 0.0].sum(axis=0)
            two = 0.5 + 0.5 * np.trace(m0 @ delta).real
            assert two == pytest.approx(protocol.value(protocol.blocks(d4)),
                                        rel=0, abs=1e-12)


class TestPptUpperBound:
    def test_equal_states(self):
        rho = DensityOperator(AB22, random_density(np.random.default_rng(1), 4))
        assert ppt_upper_bound(rho, rho) == pytest.approx(0.5, abs=1e-5)

    def test_werner_closed_form(self):
        for d in (2, 3):
            s0, s1 = make_hiding_pair(HidingPairSpec(d=d))
            assert ppt_upper_bound(s0, s1) == pytest.approx(
                0.5 + 1.0 / (d + 1), abs=1e-5)

    def test_commutant_ansatz_cross_validation(self):
        # grid spacing 1/120 puts the optimizer a = 2/(d+1), b = 0 exactly
        # on the grid for d in {2, 3}
        for d in (2, 3):
            s0, s1 = make_hiding_pair(HidingPairSpec(d=d))
            oracle = commutant_grid_value(d, steps=121)
            assert oracle == pytest.approx(0.5 + 1.0 / (d + 1), abs=1e-9)
            assert ppt_upper_bound(s0, s1) == pytest.approx(oracle, abs=1e-5)

    def test_orthogonal_product_basis_states(self):
        # support projector is PPT, so the relaxation stays exact here
        rho0 = DensityOperator(AB22, np.diag([1.0, 0.0, 0.0, 0.0]))
        rho1 = DensityOperator(AB22, np.diag([0.0, 0.0, 0.0, 1.0]))
        assert ppt_upper_bound(rho0, rho1) == pytest.approx(1.0, abs=1e-5)

    def test_gap_reported(self):
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        bound = ppt_sdp(s0, s1)
        assert 0.0 <= bound.sdp_gap <= 1e-6
        assert bound.value == pytest.approx(5.0 / 6.0, abs=1e-5)

    def test_parameters_are_the_pair(self):
        # the solver gap is TOL.sdp_gap, not a parameter
        for fn in (ppt_sdp, ppt_upper_bound):
            assert list(inspect.signature(fn).parameters) == ["rho0", "rho1"]

    def test_never_exceeds_helstrom(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            rho0, rho1 = random_pair(rng)
            assert ppt_upper_bound(rho0, rho1) <= helstrom(rho0, rho1) + 1e-9


class TestThm2Bound:
    def test_zero_case(self):
        assert thm2_locc_bound(0.0, 0.0) == 0.5

    def test_small_eps_case(self):
        assert thm2_locc_bound(0.01, 0.02) == pytest.approx(0.52, abs=1e-12)

    def test_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            eps = float(rng.uniform(0, 0.3))
            eps_prime = float(rng.uniform(0, 0.3))
            assert thm2_locc_bound(eps, eps_prime) == pytest.approx(
                eps + (1 + eps_prime) / 2, abs=1e-12)

    def test_negative_inputs(self):
        with pytest.raises(SpecError):
            thm2_locc_bound(-0.1, 0.0)
        with pytest.raises(SpecError):
            thm2_locc_bound(0.0, -0.1)

    @pytest.mark.parametrize("eps, eps_prime", [
        (math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_inputs(self, eps, eps_prime):
        # a NaN or an infinite parameter is no ceiling
        with pytest.raises(SpecError, match="finite and >= 0"):
            thm2_locc_bound(eps, eps_prime)

    def test_dominates_composed_ppt_value(self):
        # eps = PPT excess of the bare hiding pair, eps' = 2 sqrt(1-lambda);
        # the composed-pair PPT value must stay below the analytic ceiling
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        eps = ppt_upper_bound(s0, s1) - 0.5
        lam = 0.99
        for d2 in (2, 3):
            psi = make_psi(PsiSpec(lam=lam, d2=d2))
            r0, r1 = make_rho_pair((s0, s1), psi)
            ceiling = thm2_locc_bound(eps, 2 * math.sqrt(1 - lam))
            assert ppt_upper_bound(r0, r1) <= ceiling + 1e-5


class TestBoundBracket:
    def test_ordering_on_random_pairs(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            rho0, rho1 = random_pair(rng)
            br = bound_bracket(rho0, rho1)
            assert 0.5 <= br.locc_lower + 1e-12
            assert br.locc_lower <= br.ppt_upper + 1e-6
            assert br.ppt_upper <= br.helstrom + 1e-6
            assert br.helstrom <= 1.0 + 1e-12

    def test_witness_consistency(self):
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        br = bound_bracket(s0, s1)
        value = element_value(br.witness, s0.entries - s1.entries)
        assert value == pytest.approx(br.locc_lower, abs=1e-10)

    def test_product_witnesses_below_ppt(self):
        # every one-way protocol in the library is PPT-implementable
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        upper = ppt_upper_bound(s0, s1)
        x = s0.entries - s1.entries
        for protocol in one_way_library(s0, s1):
            assert element_value(protocol, x) <= upper + 1e-6

    def test_parameters_are_the_pair_and_library(self):
        assert list(inspect.signature(bound_bracket).parameters) == [
            "rho0", "rho1", "library"]

    @pytest.mark.parametrize("end", ["helstrom", "locc_lower", "ppt_upper"])
    def test_nan_end_is_refused(self, end):
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        ends = {"helstrom": 0.9, "locc_lower": 0.75, "ppt_upper": 0.85, end: math.nan}
        with pytest.raises(NumericError):
            BoundBracket(witness=one_way_library(s0, s1)[0], sdp_gap=0.0, **ends)



def _equal_valued_pair(kind):
    """Two separately built, equal-valued instances of one result type
    that holds numpy arrays."""
    s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
    build = {
        "protocol": lambda: one_way_library(s0, s1)[0],
        "bracket": lambda: bound_bracket(s0, s1),
        "sdp": lambda: solve_ppt_two_outcome(np.diag([0.5, -0.25, 0.25, -0.5]), 2, 2),
    }[kind]
    return build(), build()


@pytest.mark.parametrize("kind", ["protocol", "bracket", "sdp"])
def test_array_holding_results_compare_by_identity(kind):
    # the generated field-wise __eq__ would compare numpy arrays and
    # raise numpy's ambiguous-truth ValueError; these types compare and
    # hash by identity
    a, b = _equal_valued_pair(kind)
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2

def hiding_projectors(d):
    """P_sym and P_asym on C^d (x) C^d, from the swap written out."""
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for k in range(d):
            swap[i * d + k, k * d + i] = 1.0
    return (np.eye(d * d) + swap) / 2.0, (np.eye(d * d) - swap) / 2.0


def witness_pairs():
    """The 11-pair set of the library's bit-identity checks, with the
    witness each pair had when channels were scored element by element."""
    hiding2 = make_hiding_pair(HidingPairSpec(d=2))
    for d in (2, 3, 4):
        yield (f"werner{d}", make_hiding_pair(HidingPairSpec(d=d)),
               "computational-product")
    for d2 in (2, 3):
        yield (f"composed{(2 * d2) ** 2}",
               make_rho_pair(hiding2, make_psi(PsiSpec(lam=0.9, d2=d2))),
               "computational-product")
    shapes = [((2, 2), "a-eig-conditional-b"), ((2, 3), "a-eig-conditional-b"),
              ((3, 2), "b-eig-conditional-a"), ((3, 4), "a-eig-conditional-b"),
              ((2, 8), "a-eig-conditional-b"), ((4, 4), "b-eig-conditional-a")]
    for i, ((da, db), witness) in enumerate(shapes):
        rng = np.random.default_rng(100 + i)
        layout = TensorLayout((("A1", da), ("B1", db)))
        yield (f"random{da}x{db}",
               (DensityOperator(layout, random_density(rng, da * db)),
                DensityOperator(layout, random_density(rng, da * db))),
               witness)


class TestProtocolWitnesses:
    @pytest.mark.parametrize("label,pair,witness", list(witness_pairs()),
                             ids=[label for label, _, _ in witness_pairs()])
    def test_witness_and_value_match_the_element_evaluation(self, label, pair,
                                                            witness):
        value, protocol = locc_lower_bound(*pair)
        assert protocol.name == witness
        d4 = canonical_difference(*pair)
        delta = d4.reshape(d4.shape[0] * d4.shape[1], -1)
        assert value == pytest.approx(element_value(protocol, delta), rel=0, abs=1e-15)

    @pytest.mark.parametrize("pair", [pair for _, pair, _ in witness_pairs()],
                             ids=[label for label, _, _ in witness_pairs()])
    def test_library_protocols_are_povms(self, pair):
        # every strategy of the library
        for protocol in one_way_library(*pair):
            elems = protocol.elements()
            eye = np.eye(elems.shape[1])
            assert np.abs(elems - elems.conj().swapaxes(1, 2)).max() <= TOL.psd
            assert np.linalg.eigvalsh(elems)[:, 0].min() >= -TOL.psd
            assert np.abs(elems.sum(axis=0) - eye).max() <= TOL.povm_sum

    def test_no_elements_on_the_bound_path(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{self.name} built its D x D elements")

        monkeypatch.setattr(OneWayProtocol, "elements", refuse)
        pair = make_rho_pair(make_hiding_pair(HidingPairSpec(d=2)),
                             make_psi(PsiSpec(lam=0.9, d2=3)))
        _, witness = locc_lower_bound(*pair)
        assert bound_bracket(*pair).witness.name == witness.name

    def test_default_library_builds_only_the_witness(self, monkeypatch):
        # the default strategies are scored from their bases; only the
        # winner is constructed (and checked) as a OneWayProtocol
        built = []
        check = OneWayProtocol.__post_init__

        def counting(protocol):
            built.append(protocol.name)
            check(protocol)

        monkeypatch.setattr(OneWayProtocol, "__post_init__", counting)
        for _, pair, witness in witness_pairs():
            built.clear()
            assert bound_bracket(*pair).witness.name == witness
            assert built == [witness]

    def test_witness_is_the_best_of_the_built_library(self):
        # bit for bit: the default bracket's value and witness against the
        # built library scored through an explicit library=
        rng = np.random.default_rng(2031)
        pairs = [pair for _, pair, _ in witness_pairs()]
        for da, db in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]:
            layout = TensorLayout((("A1", da), ("B1", db)))
            for real in (False, True):
                mats = [random_density(rng, da * db) for _ in range(2)]
                if real:
                    mats = [m.real / np.trace(m.real) for m in mats]
                pairs.append(tuple(DensityOperator(layout, m) for m in mats))
        names = set()
        for pair in pairs:
            value, want = locc_lower_bound(*pair, library=one_way_library(*pair))
            br = bound_bracket(*pair)
            assert br.locc_lower == value and br.witness.name == want.name
            for attr in ("first", "cond"):
                np.testing.assert_array_equal(getattr(br.witness, attr),
                                              getattr(want, attr))
            names.add(want.name)
        assert len(names) >= 3

    def test_explicit_library_matches_the_default(self):
        rng = np.random.default_rng(5)
        layout = TensorLayout((("A1", 3), ("B1", 2)))
        pair = (DensityOperator(layout, random_density(rng, 6)),
                DensityOperator(layout, random_density(rng, 6)))
        library = one_way_library(*pair)
        assert [p.first_party for p in library] == ["A", "A", "B"]
        value, witness = locc_lower_bound(*pair, library=library)
        default_value, default_witness = locc_lower_bound(*pair)
        assert value == default_value
        assert witness.name == default_witness.name
        assert any(witness is p for p in library)

    def test_global_channel_is_rejected(self):
        # {P_sym, P_asym} reads the hiding pair perfectly, far above the
        # PPT ceiling 5/6; it is no one-way protocol, so it is no witness
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        p_sym, p_asym = hiding_projectors(2)
        x = s0.entries - s1.entries
        value = 0.5 + 0.25 * sum(abs(np.trace(p @ x).real) for p in (p_sym, p_asym))
        assert value == pytest.approx(1.0)
        entry = np.stack((p_sym, p_asym))
        with pytest.raises(ConfigError):
            locc_lower_bound(s0, s1, library=(entry,))
        with pytest.raises(ConfigError):
            bound_bracket(s0, s1, library=(one_way_library(s0, s1)[0], entry))

    def test_non_unitary_basis_is_rejected(self):
        eye = np.eye(2)
        squashed = np.array([[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ChannelError):
            OneWayProtocol("A", squashed, np.stack([eye, eye]))
        with pytest.raises(ChannelError):
            OneWayProtocol("B", eye, np.stack([eye, squashed]))
        # a complete but non-orthogonal "basis": |0>, |+>
        skew = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.array([1.0, math.sqrt(2)])
        with pytest.raises(ChannelError):
            OneWayProtocol("A", skew, np.stack([eye, eye]))

    def test_protocol_dimensions_must_match_the_pair(self):
        s0, s1 = make_hiding_pair(HidingPairSpec(d=2))
        t0, t1 = make_hiding_pair(HidingPairSpec(d=3))
        with pytest.raises(LayoutError):
            locc_lower_bound(t0, t1, library=one_way_library(s0, s1))
