import json
import math

import numpy as np
import pytest

from conftest import random_density

import locclab
from locclab import qmat
from locclab import (
    DensityOperator,
    LayoutError,
    NumericError,
    Operator,
    ParseError,
    TensorLayout,
    fidelity,
    operator_from_json,
    operator_to_json,
    partial_trace,
    partial_transpose,
    permute,
    relabel,
    tensor,
    trace_norm,
    von_neumann_entropy,
)

A2 = TensorLayout((("A1", 2),))
B2 = TensorLayout((("B1", 2),))
AB22 = TensorLayout((("A1", 2), ("B1", 2)))


def ket(i: int, dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return v


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def bell_density() -> DensityOperator:
    v = (np.kron(ket(0), ket(0)) + np.kron(ket(1), ket(1))) / math.sqrt(2)
    return DensityOperator(AB22, np.outer(v, v.conj()))


def singlet_density() -> DensityOperator:
    v = (np.kron(ket(0), ket(1)) - np.kron(ket(1), ket(0))) / math.sqrt(2)
    return DensityOperator(AB22, np.outer(v, v.conj()))


class TestTensor:
    def test_identity_case(self):
        a = DensityOperator(A2, np.eye(2) / 2)
        b = DensityOperator(B2, np.eye(2) / 2)
        out = tensor(a, b)
        assert out.layout.labels == ("A1", "B1")
        np.testing.assert_allclose(out.entries, np.eye(4) / 4, atol=0)

    def test_basis_case(self):
        a = DensityOperator(A2, np.outer(ket(0), ket(0)))
        b = DensityOperator(B2, np.outer(ket(1), ket(1)))
        out = tensor(a, b)
        expect = np.outer(np.kron(ket(0), ket(1)), np.kron(ket(0), ket(1)))
        np.testing.assert_array_equal(out.entries, expect)

    def test_matches_kron_on_random_pairs(self):
        # direct multiplication oracle: entries are the Kronecker product
        rng = np.random.default_rng(7)
        for _ in range(20):
            am = random_density(rng, 2)
            bm = random_density(rng, 3)
            a = DensityOperator(A2, am)
            b = DensityOperator(TensorLayout((("B1", 3),)), bm)
            out = tensor(a, b)
            np.testing.assert_allclose(out.entries, np.kron(am, bm), atol=1e-15)
            assert abs(out.trace() - a.trace() * b.trace()) < 1e-12

    def test_label_collision(self):
        a = DensityOperator(A2, np.eye(2) / 2)
        with pytest.raises(LayoutError):
            tensor(a, a)


class TestPartialTrace:
    def test_bell_marginal(self):
        red = partial_trace(bell_density(), {"B1"})
        assert red.layout.labels == ("A1",)
        np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-14)

    def test_product_case(self):
        rng = np.random.default_rng(3)
        am = random_density(rng, 2)
        a = DensityOperator(A2, am)
        b = DensityOperator(B2, random_density(rng, 2))
        np.testing.assert_allclose(partial_trace(tensor(a, b), {"B1"}).entries,
                                   am, atol=1e-14)

    def test_sequential_equals_full_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = DensityOperator(AB22, random_density(rng, 4))
            left = partial_trace(partial_trace(m, {"A1"}), {"B1"})
            assert left.layout.dim == 1
            assert abs(complex(left.entries[0, 0]) - m.trace()) < 1e-12

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(5)
        layout = TensorLayout((("A1", 2), ("B1", 3)))
        for _ in range(20):
            m = DensityOperator(layout, random_density(rng, 6))
            red = partial_trace(m, {"A1"})
            assert abs(red.trace() - 1.0) < 1e-12
            assert red.adjoint_defect() < 1e-12

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            partial_trace(bell_density(), {"C9"})


class TestPartialTranspose:
    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(2)
        a = DensityOperator(A2, random_density(rng, 2))
        b = DensityOperator(B2, random_density(rng, 2))
        prod = tensor(a, b)
        before = np.linalg.eigvalsh(prod.entries)
        after = np.linalg.eigvalsh(partial_transpose(prod, {"B1"}).entries)
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_singlet_negativity(self):
        # independent 4x4 eigendecomposition oracle
        pt = partial_transpose(singlet_density(), {"B1"})
        assert abs(np.linalg.eigvalsh(pt.entries).min() + 0.5) < 1e-12

    def test_involution(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = DensityOperator(AB22, random_density(rng, 4))
            back = partial_transpose(partial_transpose(m, {"A1"}), {"A1"})
            assert np.abs(back.entries - m.entries).max() < 1e-14

    def test_trace_and_hermiticity_preserved(self):
        m = singlet_density()
        pt = partial_transpose(m, {"B1"})
        assert abs(pt.trace() - 1.0) < 1e-14
        assert pt.adjoint_defect() < 1e-14

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            partial_transpose(bell_density(), {"Zed"})


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-13)

    def test_zero_difference(self):
        rho = random_density(np.random.default_rng(0), 4)
        assert trace_norm(rho - rho) == 0.0

    def test_pure_vs_mixed(self):
        # eigenvalues of |0><0| - I/2 are +1/2 and -1/2
        x = np.outer(ket(0), ket(0)) - np.eye(2) / 2
        assert trace_norm(x) == pytest.approx(1.0, abs=1e-13)

    def test_dominates_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            h = random_hermitian(rng, 8)
            assert trace_norm(h) >= abs(np.trace(h)) - 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            a = random_hermitian(rng, 8)
            b = random_hermitian(rng, 8)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            h = random_hermitian(rng, 8)
            q, _ = np.linalg.qr(rng.normal(size=(8, 8))
                                + 1j * rng.normal(size=(8, 8)))
            assert trace_norm(q @ h @ q.conj().T) == pytest.approx(
                trace_norm(h), abs=1e-9)

    def test_nonfinite_entries(self):
        with pytest.raises(NumericError):
            trace_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_accepts_operator_wrapper(self):
        op = Operator(A2, np.diag([3.0, -4.0]))
        assert trace_norm(op) == pytest.approx(7.0, abs=1e-13)

    def test_non_hermitian_sums_singular_values(self):
        # [[0, 2], [0, 0]] has singular values 2 and 0 but both eigenvalues 0
        assert trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(
            2.0, abs=1e-13)


class TestFidelity:
    def test_self(self):
        rho = DensityOperator(AB22, random_density(np.random.default_rng(1), 4))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        a = DensityOperator(A2, np.outer(ket(0), ket(0)))
        b = DensityOperator(A2, np.outer(ket(1), ket(1)))
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_overlap_and_distance_bound(self):
        # F = |<phi|psi>|^2 for pure states, and ||rho-sigma||_1 <= 2 sqrt(1-F)
        rng = np.random.default_rng(14)
        layout = TensorLayout((("A1", 3),))
        for _ in range(50):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            a = DensityOperator(layout, np.outer(u, u.conj()))
            b = DensityOperator(layout, np.outer(v, v.conj()))
            f = fidelity(a, b)
            # sqrt of a rank-1 projector amplifies ~1e-17 eigenvalue noise
            assert f == pytest.approx(abs(np.vdot(u, v)) ** 2, abs=1e-7)
            assert trace_norm(a.entries - b.entries) <= 2 * math.sqrt(1 - f) + 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        a = DensityOperator(A2, random_density(rng, 2))
        b = DensityOperator(A2, random_density(rng, 2))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_dimension_mismatch(self):
        a = DensityOperator(A2, np.eye(2) / 2)
        b = DensityOperator(TensorLayout((("A1", 3),)), np.eye(3) / 3)
        with pytest.raises(LayoutError):
            fidelity(a, b)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(
            DensityOperator(A2, np.outer(ket(0), ket(0)))) == pytest.approx(
                0.0, abs=1e-12)

    def test_maximally_mixed(self):
        for d in range(2, 7):
            rho = DensityOperator(TensorLayout((("A1", d),)), np.eye(d) / d)
            assert von_neumann_entropy(rho) == pytest.approx(
                math.log2(d), abs=1e-12)

    def test_near_product_marginal(self):
        # spectrum (0.9, 0.025 x4): closed form -0.9 log2 0.9 - 0.1 log2 0.025
        vals = [0.9] + [0.025] * 4
        rho = DensityOperator(TensorLayout((("A2", 5),)), np.diag(vals))
        closed = -0.9 * math.log2(0.9) - 0.1 * math.log2(0.025)
        s = von_neumann_entropy(rho)
        assert s == pytest.approx(closed, abs=1e-10)
        assert s == pytest.approx(0.669, abs=1e-3)

    def test_range(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rho = DensityOperator(AB22, random_density(rng, 4))
            s = von_neumann_entropy(rho)
            assert -1e-12 <= s <= 2.0 + 1e-12


class TestJsonRoundTrip:
    def test_bit_exact(self):
        rng = np.random.default_rng(40)
        layout = TensorLayout((("A1", 2), ("B1", 3)))
        m = DensityOperator(layout, random_density(rng, 6))
        text = operator_to_json(m)
        back = operator_from_json(text)
        assert back.layout == m.layout
        np.testing.assert_array_equal(back.entries, m.entries)
        assert operator_to_json(back) == text

    def test_non_density_path(self):
        op = Operator(A2, np.diag([3.0, -4.0]))
        back = operator_from_json(operator_to_json(op), density=False)
        np.testing.assert_array_equal(back.entries, op.entries)

    def test_seventeen_digit_floats_survive(self):
        # 1/3 has no short decimal form; round-trip must not lose bits
        layout = TensorLayout((("A1", 2),))
        m = DensityOperator(layout, np.diag([1.0 / 3.0, 2.0 / 3.0]))
        back = operator_from_json(operator_to_json(m))
        assert back.entries[0, 0].real == 1.0 / 3.0
        assert back.entries[1, 1].real == 2.0 / 3.0


class TestJsonLayoutTypes:
    # a layout factor is read as written, with no int() or str()
    # coercion; each file below would parse as a valid one-factor state
    # of dimension ``dim`` if it were coerced
    @pytest.mark.parametrize("factor, dim", [
        ({"label": "A1", "dim": 2.9}, 2),
        ({"label": "A1", "dim": True}, 1),
        ({"label": "A1", "dim": "2"}, 2),
        ({"label": 7, "dim": 2}, 2),
    ], ids=["float-dim", "bool-dim", "string-dim", "int-label"])
    def test_malformed_factor_is_a_parse_error(self, factor, dim):
        entries = [[1.0 / dim if i == j else 0.0, 0.0]
                   for i in range(dim) for j in range(dim)]
        text = json.dumps({"layout": [factor], "entries": entries})
        with pytest.raises(ParseError, match="string label and an integer dim"):
            operator_from_json(text)


class TestJsonEntryTypes:
    @pytest.mark.parametrize("entries", [
        [[True, False]], [[1.0, False]], [[None, 0.0]], [["1", 0.0]]],
        ids=["bool-real", "bool-imag", "null", "string"])
    def test_entry_part_must_be_a_json_number(self, entries):
        # [[true, false]] would read as the valid state 1+0j if coerced
        text = json.dumps({"layout": [{"label": "A1", "dim": 1}],
                           "entries": entries})
        with pytest.raises(ParseError):
            operator_from_json(text)


class TestCountRule:
    """``qmat._check_count``, the one rule for counts, dimensions and
    seeds."""

    @pytest.mark.parametrize("value", [1, 5, np.int64(5), np.uint8(1)])
    def test_integers_in_range_pass(self, value):
        qmat._check_count(value, "count", high=5)

    @pytest.mark.parametrize("value", [2.5, 4.0, True, False, "3", None])
    def test_non_integers_are_refused(self, value):
        with pytest.raises(locclab.SpecError, match="count must be an integer"):
            qmat._check_count(value, "count", low=0)

    def test_the_two_range_messages(self):
        with pytest.raises(locclab.SpecError,
                           match=r"^count must be >= 2, got 1$"):
            qmat._check_count(1, "count", low=2)
        with pytest.raises(locclab.SpecError,
                           match=r"^count 13 outside 1\.\.12 \(the limit\)$"):
            qmat._check_count(13, "count", high=12)


class TestLayoutAndPermute:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            TensorLayout((("A1", 2), ("A1", 2)))

    # coerced, the first layout would read as (("7", 2), ("B", 1))
    @pytest.mark.parametrize("factors", [
        ((7, 2.9), ("B", True)),
        (("A", 2.9),),
        (("A", True),),
        ((7, 2),),
    ], ids=["int-label-float-dim-bool-dim", "float-dim", "bool-dim",
            "int-label"])
    def test_factor_types_are_not_coerced(self, factors):
        with pytest.raises(LayoutError, match="string label and an integer"):
            TensorLayout(factors)

    def test_numpy_integer_dims_accepted(self):
        layout = TensorLayout((("A", np.int64(3)), ("B", np.int32(2))))
        assert layout.factors == (("A", 3), ("B", 2))
        assert all(type(dim) is int for dim in layout.dims)

    def test_permute_swaps_factors(self):
        rng = np.random.default_rng(50)
        a = DensityOperator(A2, random_density(rng, 2))
        b = DensityOperator(B2, random_density(rng, 2))
        swapped = permute(tensor(a, b), ("B1", "A1"))
        np.testing.assert_allclose(swapped.entries,
                                   np.kron(b.entries, a.entries), atol=1e-14)

    def test_permute_requires_same_label_set(self):
        with pytest.raises(LayoutError):
            permute(bell_density(), ("A1", "C1"))

    def test_relabel(self):
        renamed = relabel(bell_density(), {"B1": "B9"})
        assert renamed.layout.labels == ("A1", "B9")
        np.testing.assert_array_equal(renamed.entries, bell_density().entries)

    @pytest.mark.parametrize("kind", [Operator, DensityOperator])
    def test_rebuilds_keep_the_kind(self, kind):
        m = kind(AB22, bell_density().entries)
        for out in (permute(m, ("B1", "A1")), relabel(m, {"B1": "B9"}),
                    partial_trace(m, {"B1"})):
            assert type(out) is kind


def test_one_state_type():
    # every public class locclab.qmat defines is exported, and these are
    # all of them: a pure state is the DensityOperator |v><v|, with no
    # state-vector type beside it
    def classes(names, space):
        return sorted(name for name in names
                      if isinstance(space[name], type)
                      and space[name].__module__ == "locclab.qmat")

    # getattr, not vars(locclab): an export is bound on its first read
    exported = classes(locclab.__all__, {name: getattr(locclab, name)
                                         for name in locclab.__all__})
    defined = classes([name for name in vars(qmat) if not name.startswith("_")],
                      vars(qmat))
    assert exported == defined == ["DensityOperator", "Operator", "TensorLayout"]


def test_density_operator_invariants_enforced():
    with pytest.raises(Exception):
        DensityOperator(A2, np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(Exception):
        DensityOperator(A2, np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(Exception):
        DensityOperator(A2, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_spectral_reconstruction_accuracy():
    # documented eigensolver target: relative Frobenius error < 1e-10,
    # checked up to the largest supported dimension
    rng = np.random.default_rng(60)
    for dim in (2, 16, 128, 1024):
        h = random_hermitian(rng, dim)
        w, v = np.linalg.eigh(h)
        err = np.linalg.norm((v * w) @ v.conj().T - h) / np.linalg.norm(h)
        assert err < 1e-10


def test_random_pipeline_preserves_invariants():
    # 100 seeded runs through tensor / partial ops keep the output a state
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = DensityOperator(A2, random_density(rng, 2))
        b = DensityOperator(TensorLayout((("B1", 3),)), random_density(rng, 3))
        joint = tensor(a, b)
        reduced = partial_trace(joint, {"B1"})
        assert abs(reduced.trace() - 1.0) < 1e-11
        assert reduced.adjoint_defect() < 1e-11
        assert np.linalg.eigvalsh(reduced.entries).min() > -1e-10
        pt = partial_transpose(joint, {"B1"})
        assert abs(pt.trace() - 1.0) < 1e-11
        assert pt.adjoint_defect() < 1e-11
