"""Unit tests of the bundled PPT SDP solver: the canonical coordinates
and their Hessian, the Jordan-closure coordinates, the primal-dual
iteration (one Newton system per iteration, failures that carry a
certified bound), the one-matrix dual certificate that keeps a wrong
closure from producing a wrong certified value, and a family of pairs
with a closed-form PPT value."""

import inspect
import math
import warnings

import numpy as np
import pytest

from conftest import random_density

from locclab import (
    HidingPairSpec,
    NumericError,
    Operator,
    PsiSpec,
    SolverError,
    make_hiding_pair,
    make_psi,
    make_rho_pair,
)
from locclab import sdp
from locclab.distinguish import bipartite_canonical


def objective(pair):
    rho0, rho1 = pair
    diff, da, db = bipartite_canonical(
        Operator(rho0.layout, rho0.entries - rho1.entries))
    return diff.entries, da, db


def werner(d):
    return objective(make_hiding_pair(HidingPairSpec(d=d)))


def composed(lam, d2):
    pair = make_hiding_pair(HidingPairSpec(d=2))
    return objective(make_rho_pair(pair, make_psi(PsiSpec(lam=lam, d2=d2))))


def random_objective(rng, da, db, real=False):
    d = da * db
    return random_density(rng, d, real) - random_density(rng, d, real), da, db


def pure_objective(rng, da, db, real):
    """Difference of two random pure states."""
    d = da * db
    out = []
    for _ in range(2):
        v = rng.normal(size=d)
        if not real:
            v = v + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        out.append(np.outer(v, v.conj()))
    return out[0] - out[1], da, db


def partial_transpose(m, da, db):
    """Transpose of the B factor, written out index by index."""
    out = np.empty_like(m)
    for a1 in range(da):
        for b1 in range(db):
            for a2 in range(da):
                for b2 in range(db):
                    out[a1 * db + b1, a2 * db + b2] = m[a1 * db + b2, a2 * db + b1]
    return out


def dual_bound(x, b, da, db):
    """U(B) = Tr[(X - B^{T_B})_+] + Tr[B_+], from plain eigenvalue sums."""
    def positive_part(a):
        w = np.linalg.eigvalsh(a)
        return w[w > 0].sum()
    return positive_part(x - partial_transpose(b, da, db)) + positive_part(b)


def closure(x, da, db):
    """The solver's closure basis for objective x (None when it is the
    whole space), with the canonical basis it was built in."""
    complex_field = float(np.abs(x.imag).max()) > 1e-13
    work = x if complex_field else np.ascontiguousarray(x.real)
    canon = sdp._Basis(da, db, complex_field)
    return sdp._jordan_closure(work, canon), canon


def residual(mats, elements):
    """Norm of each matrix's component outside span(elements), in the
    real inner product Re Tr[A B]."""
    k = len(elements)
    flat = elements.reshape(k, -1)
    out = []
    for m in mats:
        v = m.reshape(-1)
        coef = np.real(flat.conj() @ v)
        out.append(np.linalg.norm(v - coef @ flat))
    return np.array(out)


def werner_power(d, k):
    """sigma_s^{(x)k} - sigma_a^{(x)k}: k copies of the extreme Werner pair
    on C^d (x) C^d (normalized projectors onto the symmetric and the
    antisymmetric subspace), with the A factors of all copies first,
    as the objective of a (d^k) x (d^k) split."""
    eye = np.eye(d * d)
    swap = eye[[b * d + a for a in range(d) for b in range(d)]]
    rho = [np.ones((1, 1)), np.ones((1, 1))]
    for _ in range(k):
        rho = [np.kron(rho[0], (eye + swap) / (d * (d + 1))),
               np.kron(rho[1], (eye - swap) / (d * (d - 1)))]
    # row axes (a1 b1 .. ak bk), then the column axes: to (a1..ak b1..bk)
    order = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    x = (rho[0] - rho[1]).reshape((d,) * (4 * k))
    x = x.transpose(order + [2 * k + i for i in order])
    return x.reshape(d ** (2 * k), d ** (2 * k)), d ** k, d ** k


def random_positive(rng, dim, real):
    g = rng.normal(size=(dim, dim))
    if not real:
        g = g + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T + 0.1 * np.eye(dim)


def reference_hessian(elements, gs, da, db):
    """H_pq = Re sum_b Tr[G_b E_p G_b E_q], with E^{T_B} on blocks 3 and 4."""
    transposed = np.array([partial_transpose(m, da, db) for m in elements])
    h = 0.0
    for g, es in zip(gs, (elements, elements, transposed, transposed)):
        geg = np.array([g @ m @ g for m in es])
        h = h + np.real(np.einsum("pij,qji->pq", geg, es))
    return h


class TestCanonicalBasis:
    @pytest.mark.parametrize("da,db,real", [(2, 3, False), (3, 2, False),
                                            (2, 3, True), (3, 2, True)])
    def test_hessian_and_coordinates_match_the_definitions(self, da, db, real,
                                                           monkeypatch):
        rng = np.random.default_rng(11 + da + 5 * real)
        d = da * db
        basis = sdp._Basis(da, db, complex_field=not real)
        n = basis.n
        assert n == (d * (d + 1) // 2 if real else d * d)
        elements = np.array([basis.mat(v) for v in np.eye(n)])
        gram = np.real(np.einsum("pij,qji->pq", elements, elements))
        assert np.abs(gram - np.eye(n)).max() <= 1e-12
        assert all(np.abs(m - m.conj().T).max() == 0.0 for m in elements)

        x = rng.normal(size=(3, n))
        g = np.array([random_positive(rng, d, real) for _ in range(3)])
        for xi, gi in zip(x, g):
            np.testing.assert_allclose(basis.coords(basis.mat(xi)), xi,
                                       rtol=0, atol=1e-12)
            assert basis.coords(gi) @ xi == pytest.approx(
                np.real(np.trace(gi @ basis.mat(xi))), rel=1e-12)
        np.testing.assert_array_equal(basis.mat(x),
                                      np.array([basis.mat(xi) for xi in x]))
        np.testing.assert_array_equal(basis.coords(g),
                                      np.array([basis.coords(gi) for gi in g]))

        gs = [random_positive(rng, d, real) for _ in range(4)]
        ref = reference_hessian(elements, gs, da, db)
        scale = np.abs(ref).max()
        assert np.abs(basis.hessian(gs) - ref).max() <= 1e-12 * scale
        # one row per slab exercises every slab boundary of the real field;
        # a basis sizes its slabs at its first Hessian, so a fresh one
        monkeypatch.setattr(sdp, "_SLAB_ENTRIES", 1)
        sliced = sdp._Basis(da, db, complex_field=not real)
        assert np.abs(sliced.hessian(gs) - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("real", [False, True])
    def test_pair_is_the_matrix_and_its_partial_transpose(self, real):
        da, db = 2, 3
        basis = sdp._Basis(da, db, complex_field=not real)
        x = np.random.default_rng(12 + real).normal(size=basis.n)
        m = basis.mat(x)
        got = basis.pair(x)
        assert got.dtype == m.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got[0], m)
        np.testing.assert_array_equal(got[1], partial_transpose(m, da, db))

    def test_basis_holds_no_sparse_map(self):
        for real in (False, True):
            basis = sdp._Basis(2, 3, complex_field=not real)
            assert not any(type(v).__module__.startswith("scipy.sparse")
                           for v in vars(basis).values())


class TestComplexHessian:
    """The complex-field Hessian, built in its final layout, against the
    definition: factor orders with dA != dB both ways, and D = 16."""

    @staticmethod
    def case(da, db, seed):
        rng = np.random.default_rng(seed)
        basis = sdp._Basis(da, db, complex_field=True)
        elements = np.array([basis.mat(v) for v in np.eye(basis.n)])
        gs = np.array([random_positive(rng, da * db, False) for _ in range(4)])
        return basis, elements, gs

    @pytest.mark.parametrize("da,db", [(2, 4), (4, 2), (3, 3), (2, 8)])
    def test_fresh_and_buffered_match_the_definition(self, da, db):
        basis, elements, gs = self.case(da, db, 61 + 7 * da + db)
        ref = reference_hessian(elements, gs, da, db)
        scale = np.abs(ref).max()
        first = basis.hessian(gs)
        assert np.abs(first - ref).max() <= 1e-12 * scale
        fresh = first.copy()
        # a second call refills the arrays that the first one made
        assert basis.hessian(gs) is first
        np.testing.assert_array_equal(first, fresh)

    def test_buffered_calls_leave_no_stale_scratch(self):
        basis, _, gs = self.case(2, 4, 67)
        other = gs[::-1] + 0.5 * np.eye(8)
        hess = basis.hessian(gs)
        for g in (other, gs, other):
            fresh = sdp._Basis(2, 4, complex_field=True).hessian(g)
            assert basis.hessian(g) is hess
            np.testing.assert_array_equal(hess, fresh)

    def test_buffers_hold_no_complex_array(self, monkeypatch):
        # the Hessian and its scratch, held by the basis, and the factor
        # that a complex-field solve hands to dpotrf are all real
        basis, _, gs = self.case(3, 2, 68)
        basis.hessian(gs)
        held = [a for v in vars(basis).values()
                for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray)]
        assert held and all(a.dtype == np.float64 for a in held)
        sdp._load_lapack()
        potrf = sdp.dpotrf
        factors = []

        def recording(a, **kw):
            factors.append((a.dtype, a.flags.f_contiguous))
            return potrf(a, **kw)

        monkeypatch.setattr(sdp, "dpotrf", recording)
        res = sdp.solve_ppt_two_outcome(*random_objective(np.random.default_rng(69), 3, 2))
        assert res.coords == 36
        assert set(factors) == {(np.dtype(np.float64), True)}


class TestObjectiveValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_objective_raises_numeric_error(self, bad):
        x = np.diag([0.5, -0.25, 0.25, -0.5]).astype(complex)
        x[0, 0] = bad
        with pytest.raises(NumericError):
            sdp.solve_ppt_two_outcome(x, 2, 2)

    @pytest.mark.parametrize("da,db", [(0, 2), (-2, -2), (2.0, 2), (True, 4)])
    def test_factor_dimensions_must_be_positive_integers(self, da, db):
        # (0, 2) and (-2, -2) once escaped as numpy's bare ValueError
        x = np.eye(4, dtype=complex)
        with pytest.raises(SolverError, match="factor dimensions") as err:
            sdp.solve_ppt_two_outcome(x, da, db)
        assert err.value.value is None and err.value.gap is None

    def test_objective_shape_must_match_the_factors(self):
        with pytest.raises(SolverError, match=r"objective shape \(4, 4\) != \(6, 6\)"):
            sdp.solve_ppt_two_outcome(np.eye(4, dtype=complex), 2, 3)

    def test_total_dimension_is_capped(self):
        # D = 65 is one past the bundled solver's limit
        with pytest.raises(SolverError, match="total dimension 65 exceeds"):
            sdp.solve_ppt_two_outcome(np.eye(65, dtype=complex), 5, 13)

    def test_non_hermitian_objective_raises_numeric_error(self):
        x = np.diag([0.5, -0.25, 0.25, -0.5]).astype(complex)
        x[0, 1] = 1e-3
        with pytest.raises(NumericError, match="Hermitian"):
            sdp.solve_ppt_two_outcome(x, 2, 2)

    def test_parameters_are_the_objective_and_its_factors(self):
        # the gap (TOL.sdp_gap) and iteration cap (_MAX_NEWTON) are
        # constants, not parameters
        assert list(inspect.signature(sdp.solve_ppt_two_outcome).parameters) == [
            "x_mat", "dim_a", "dim_b"]

    def test_smallest_valid_parameters_solve(self):
        x = np.diag([0.5, -0.25, 0.25, -0.5]).astype(complex)
        res = sdp.solve_ppt_two_outcome(x, 2, 2)
        assert res.value == pytest.approx(0.75, abs=1e-6)


class TestCertifiedGap:
    # a solve that cannot close its gap raises SolverError carrying U(B)
    # of its last iterate and the gap down to that iterate's primal value

    @staticmethod
    def start_bound(x, da, db):
        # the first iterate: M = I/2 and Z = I, so B = Z4 - Z3 = 0
        return sdp._dual_bound(x, np.zeros_like(x), da, db), 0.5 * np.trace(x).real

    def test_lost_primal_definiteness_raises_with_the_last_bound(self, monkeypatch):
        # every point but the start I/2 is reported infeasible, so the
        # first step loses positive definiteness; the certificate of the
        # start is loose, and still an upper bound
        chol = sdp._chol_blocks

        # the iterate's slacks and dual blocks are factored by one call
        def only_start(m, mt, eye, z):
            if np.abs(m - eye / 2.0).max() > 1e-12:
                return None
            return chol(m, mt, eye, z)

        x, da, db = werner(2)
        optimum = sdp.solve_ppt_two_outcome(x, da, db)
        monkeypatch.setattr(sdp, "_chol_blocks", only_start)
        with pytest.raises(SolverError) as err:
            sdp.solve_ppt_two_outcome(x, da, db)
        assert err.value.gap > 1e-6
        assert err.value.value >= optimum.value
        assert err.value.value - err.value.gap == pytest.approx(
            0.5 * np.trace(x).real, abs=1e-9)

    def test_lost_dual_definiteness_raises_with_the_last_bound(self, monkeypatch):
        # the dual step of the first corrector overshoots the boundary,
        # so Z stops being positive definite: numpy's LinAlgError must not
        # escape, and the error carries U(B) of the start
        steps = sdp._step_lengths
        calls = []

        def overshoot(p_s, p_z):
            calls.append(None)
            a_p, a_d = steps(p_s, p_z)
            return (a_p, 50.0) if len(calls) == 2 else (a_p, a_d)

        x, da, db = PINNED[2]
        optimum = sdp.solve_ppt_two_outcome(x, da, db)
        monkeypatch.setattr(sdp, "_step_lengths", overshoot)
        with pytest.raises(SolverError, match="positive definite") as err:
            sdp.solve_ppt_two_outcome(x, da, db)
        value, primal = self.start_bound(x, da, db)
        assert err.value.value == value >= optimum.value
        assert err.value.value - err.value.gap == pytest.approx(primal, abs=1e-12)

    def test_failed_newton_factor_raises_with_the_last_bound(self, monkeypatch):
        # every factorization fails, ridge retries included
        calls = []

        def never(a, **kw):
            calls.append(None)
            return a, 1

        x, da, db = werner(3)
        sdp._load_lapack()
        monkeypatch.setattr(sdp, "dpotrf", never)
        with pytest.raises(SolverError, match="factorization") as err:
            sdp.solve_ppt_two_outcome(x, da, db)
        assert len(calls) == 4
        value, primal = self.start_bound(x, da, db)
        assert err.value.value == value
        assert err.value.value - err.value.gap == pytest.approx(primal, abs=1e-12)

    def test_iteration_limit_raises_with_the_last_bound(self, monkeypatch):
        x, da, db = werner(3)
        with monkeypatch.context() as patch:
            patch.setattr(sdp, "_MAX_NEWTON", 3)
            with pytest.raises(SolverError, match="within 3 iterations") as err:
                sdp.solve_ppt_two_outcome(x, da, db)
        optimum = sdp.solve_ppt_two_outcome(x, da, db)
        assert err.value.gap > 1e-6
        assert err.value.value >= optimum.value

    def test_lapack_routines_are_bound_once(self, monkeypatch):
        # after the first solve the routines are scipy's own, and a solve
        # runs no import statement
        import builtins
        from scipy.linalg import lapack
        x, da, db = werner(2)
        sdp.solve_ppt_two_outcome(x, da, db)
        assert sdp.dpotrf is lapack.dpotrf and sdp.dpotrs is lapack.dpotrs
        load = builtins.__import__

        def guard(name, *args, **kwargs):
            assert not name.startswith("scipy"), name
            return load(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", guard)
        random = random_objective(np.random.default_rng(8), 2, 3)
        assert sdp.solve_ppt_two_outcome(*random).gap <= 1e-6

    def test_failed_newton_factorization_retries_with_a_ridge(self, monkeypatch):
        # the first factorization of every Newton system reports "not
        # positive definite", so every direction is solved with
        # hess + ridge * I
        sdp._load_lapack()
        potrf = sdp.dpotrf
        diagonals = []

        def fail_first(a, **kw):
            diagonals.append(np.diag(a).copy())
            if len(diagonals) % 2 == 1:
                return a, 1
            return potrf(a, **kw)

        monkeypatch.setattr(sdp, "dpotrf", fail_first)
        x, da, db = werner(2)
        res = sdp.solve_ppt_two_outcome(x, da, db)
        assert len(diagonals) % 2 == 0
        assert len(diagonals) >= 2 * res.newton_steps > 0
        for plain, ridged in zip(diagonals[::2], diagonals[1::2]):
            assert np.all(ridged > plain)
        assert 0.5 + 0.5 * res.value == pytest.approx(5.0 / 6.0, abs=1e-5)


class TestRelativeGap:
    # the certified gap is held to 1e-6 * max(1, |U(B)|): an objective
    # scaled past trace norm 2 asks for the same relative accuracy, and
    # the bracket objectives (|U| <= 1) keep the absolute gap 1e-6
    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_scaled_objective_certifies_a_relative_gap(self, scale):
        x, da, db = werner_power(2, 3)
        closed = scale * (1.0 - (1.0 / 3.0) ** 3)
        res = sdp.solve_ppt_two_outcome(scale * x, da, db)
        assert res.coords == 10
        assert 0.0 <= res.gap <= 1e-6 * abs(res.value)
        assert res.primal <= closed * (1.0 + 1e-12) <= res.value * (1.0 + 2e-12)
        assert res.value == pytest.approx(
            sdp._dual_bound(scale * x, res.certificate, da, db), rel=1e-14)

    def test_unit_objectives_keep_the_absolute_gap(self, monkeypatch):
        # |U(B)| <= 1, so the last gap of an unfinished solve is still
        # held to 1e-6 itself
        x, da, db = werner(3)
        monkeypatch.setattr(sdp, "_MAX_NEWTON", 3)
        with pytest.raises(SolverError, match=r"exceeds 1e-06"):
            sdp.solve_ppt_two_outcome(x, da, db)


def swap_mixture(c, a, real):
    """c I + a F on C^2 (x) C^2, F the swap: eigenvalues c + a (three
    times) and c - a; its partial transpose c I + 2a |phi+><phi+| has
    eigenvalues c + 2a and c (three times)."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    m = c * np.eye(4) + a * swap
    return m if real else m.astype(complex)


class TestSlackFactors:
    @pytest.mark.parametrize("real", [False, True])
    def test_stacked_factors_rebuild_the_four_slacks(self, real):
        da, db = 2, 3
        rng = np.random.default_rng(31 + real)
        h = random_positive(rng, da * db, real)
        eye = np.eye(da * db)
        m = eye / 2.0 + 0.4 * (h - np.trace(h) / (da * db) * eye) / np.linalg.norm(h)
        mt = partial_transpose(m, da, db)
        chols = sdp._chol_blocks(m, mt, eye, np.broadcast_to(eye, (4,) + eye.shape))[:4]
        assert chols.shape == (4, da * db, da * db)
        rebuilt = chols @ chols.conj().swapaxes(-1, -2)
        for got, slack in zip(rebuilt, (m, eye - m, mt, eye - mt)):
            np.testing.assert_allclose(got, slack, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("real", [False, True])
    def test_fused_factors_append_the_dual_blocks(self, real):
        da, db = 2, 3
        rng = np.random.default_rng(33 + real)
        z = np.array([random_positive(rng, da * db, real) for _ in range(4)])
        eye = np.eye(da * db, dtype=z.dtype)
        m = eye / 2.0
        chols = sdp._chol_blocks(m, partial_transpose(m, da, db), eye, z)
        assert chols.shape == (8, da * db, da * db)
        np.testing.assert_array_equal(chols[4:], np.linalg.cholesky(z))
        # the slack factors do not depend on the dual blocks
        np.testing.assert_array_equal(
            chols[:4], sdp._chol_blocks(m, m, eye, np.broadcast_to(eye, z.shape))[:4])
        z[3] = -z[3]
        # a failed block is NaN, under the error state a solve sets
        with np.errstate(all="ignore"):
            assert sdp._chol_blocks(m, m, eye, z) is None

    @pytest.mark.parametrize("real", [False, True])
    def test_none_when_only_the_last_block_fails(self, real):
        m = swap_mixture(0.5, 0.3, real)
        mt = partial_transpose(m, 2, 2)
        eye = np.eye(4)
        for slack in (m, eye - m, mt):
            np.linalg.cholesky(slack)
        assert np.linalg.eigvalsh(eye - mt).min() == pytest.approx(-0.1)
        # under the error state a solve sets, the failed block is NaN,
        # with no LinAlgError and no warning
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            assert np.isnan(sdp._cholesky(eye - mt)).all()
            assert sdp._chol_blocks(m, mt, eye, np.broadcast_to(eye, (4, 4, 4))) is None


def positive_blocks(rng, d, real, cond):
    """Four positive definite d x d blocks with condition number cond."""
    out = []
    for _ in range(4):
        g = rng.normal(size=(d, d))
        if not real:
            g = g + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        w = np.geomspace(1.0, 1.0 / cond, d) * rng.uniform(0.5, 2.0)
        out.append((q * w) @ q.conj().T)
    return np.array(out)


def relative_error(got, want):
    return float((np.linalg.norm(got - want, axis=(1, 2))
                  / np.linalg.norm(want, axis=(1, 2))).max())


class TestNTScaling:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("cond", [1e1, 1e3, 1e6])
    def test_scaling_takes_both_blocks_to_diag_lam(self, real, cond):
        rng = np.random.default_rng(int(math.log10(cond)) + 10 * real)
        d = 6
        s, z = positive_blocks(rng, d, real, cond), positive_blocks(rng, d, real, cond)
        t, lam = sdp._nt_scaling(np.linalg.cholesky(s), np.linalg.cholesky(z))
        diag = lam[..., None] * np.eye(d)
        g_inv = t / np.sqrt(lam)[..., None]
        g = np.linalg.inv(g_inv)
        g_inv_h, g_h = g_inv.conj().swapaxes(-1, -2), g.conj().swapaxes(-1, -2)
        assert relative_error(g_inv @ s @ g_inv_h, diag) <= 1e-10
        assert relative_error(g_h @ z @ g, diag) <= 1e-10
        # W = G G^H, the NT scaling point
        w = g @ g_h
        assert relative_error(w @ z @ w, s) <= 1e-10

    @pytest.mark.parametrize("real", [False, True])
    def test_singular_scaling_gives_lam_zero_without_a_warning(self, real):
        # a 1e-9 diagonal entry of L_S leaves L_Z^H S L_Z with an
        # eigenvalue ~1e-18 of its norm, below the rounding of eigh, which
        # returns it below 0 for this seed on OpenBLAS; it must come out
        # as lam ~ 0, never as a warning and NaN
        rng = np.random.default_rng(0)
        d = 4
        chol = [np.linalg.cholesky(b) for b in
                (positive_blocks(rng, d, real, 10.0) for _ in range(2))]
        chol[0][1, 2, 2] = 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, lam = sdp._nt_scaling(*chol)
        assert np.isfinite(lam).all()
        assert 0.0 <= lam[1].min() <= 1e-7
        assert lam[[0, 2, 3]].min() > 0.1


class TestProjection:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("closure_basis", [False, True])
    def test_project_is_mat_of_coords(self, real, closure_basis):
        rng = np.random.default_rng(41 + real + 2 * closure_basis)
        da, db = 2, 3
        d = da * db
        basis = canon = sdp._Basis(da, db, complex_field=not real)
        if closure_basis:
            rows = np.linalg.qr(rng.normal(size=(canon.n, 7)))[0].T
            basis = sdp._ClosureBasis(canon.mat(rows), da, db)
        g = rng.normal(size=(4, d, d))
        if not real:
            g = g + 1j * rng.normal(size=(4, d, d))
        if closure_basis:
            # a random subspace is no algebra: one D x D block of weight 1
            assert basis.shape == (1, d, d)
            got = basis.project_stack(g[:, None])[:, 0]
        else:
            got = basis.project_stack(g)
        assert got.shape == g.shape
        assert np.abs(got - basis.mat(basis.coords(g))).max() <= 1e-15


class TestJordanClosure:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_werner_closure_has_three_elements(self, d):
        basis, _ = closure(*werner(d))
        assert basis.n == 3

    @pytest.mark.parametrize("lam", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("d2,k", [(2, 15), (3, 21), (4, 21)])
    def test_composed_closure_size_is_pinned(self, lam, d2, k):
        basis, _ = closure(*composed(lam, d2))
        assert basis.n == k

    @pytest.mark.parametrize("da,db,real", [(2, 2, False), (3, 3, False),
                                            (3, 3, True)])
    def test_generic_pairs_use_the_whole_space(self, da, db, real):
        rng = np.random.default_rng(7 + da + real)
        for _ in range(3):
            basis, _ = closure(*random_objective(rng, da, db, real))
            assert basis is None

    def test_generic_pair_gives_up_before_the_whole_space(self, monkeypatch):
        # the closure of a generic pair is the whole space (k = n = 1024);
        # it stops once it would outgrow max(n // 8, 8) = 128 elements, so
        # no generation starts from a larger basis (here the first
        # generation already gives up, before any later one starts; at
        # D = 32 its projectors and their partial transposes cannot
        # decide that before the generation)
        x, da, db = random_objective(np.random.default_rng(40), 4, 8)
        canon = sdp._Basis(da, db, complex_field=True)
        sizes = []
        grow = sdp._new_directions

        def recording(cands, basis):
            sizes.append(len(basis))
            return grow(cands, basis)

        monkeypatch.setattr(sdp, "_new_directions", recording)
        assert sdp._jordan_closure(x, canon) is None
        assert sizes and max(sizes) <= max(canon.n // 8, 8) < canon.n

    @pytest.mark.parametrize("inp,k", [(werner(3), 3), (composed(0.99, 2), 15),
                                       (composed(0.95, 3), 21),
                                       (werner_power(2, 3), 10)],
                             ids=["werner-d3", "composed-D16", "composed-D36",
                                  "k-copy-D64"])
    def test_basis_is_orthonormal_and_closed(self, inp, k):
        x, da, db = inp
        basis, _ = closure(x, da, db)
        e = basis.e
        assert e.shape[0] == k
        d = e.shape[1]
        assert all(np.abs(m - m.conj().T).max() <= 1e-12 for m in e)
        gram = np.real(e.reshape(k, -1).conj() @ e.reshape(k, -1).T)
        assert np.abs(gram - np.eye(k)).max() <= 1e-9
        assert residual([np.eye(d), x], e).max() <= 1e-9
        products = [e[p] @ e[q] + e[q] @ e[p] for p in range(k) for q in range(p + 1)]
        assert residual(products, e).max() <= 1e-9
        transposed = [partial_transpose(m, da, db) for m in e]
        assert residual(transposed, e).max() <= 1e-9

    @pytest.mark.parametrize("inp", [werner(3), composed(0.95, 3)],
                             ids=["werner-d3", "composed-D36"])
    def test_seeded_generator_repeats_the_basis(self, inp):
        first, _ = closure(*inp)
        second, _ = closure(*inp)
        np.testing.assert_array_equal(first.e, second.e)

    # the closure of cX is the closure of X: a small objective keeps its
    # coordinates, and its solve still closes the gap
    @pytest.mark.parametrize("scale", [1e-5, 1e-6, 1e-7])
    @pytest.mark.parametrize("inp,k", [
        (random_objective(np.random.default_rng(3), 2, 2), 16),
        (werner(3), 3), (composed(0.95, 2), 15),
    ], ids=["complex-2x2", "werner-d3", "composed-D16"])
    def test_scaled_objective_keeps_its_closure(self, inp, k, scale):
        x, da, db = inp
        res = sdp.solve_ppt_two_outcome(scale * x, da, db)
        assert res.coords == k
        assert res.gap <= 1e-6

    def test_zero_objective_gives_the_identity(self):
        x = np.zeros((6, 6))
        basis, _ = closure(x, 2, 3)
        assert basis.n == 1
        res = sdp.solve_ppt_two_outcome(x, 2, 3)
        assert res.coords == 1
        assert abs(res.value) <= 1e-6


def count_generations(monkeypatch):
    """Record the calls of the closure's orthonormalization, one per
    generation (``_new_directions``, Gram eigendecompositions)."""
    calls = []
    grow = sdp._new_directions

    def counting(*args, **kwargs):
        calls.append(None)
        return grow(*args, **kwargs)

    monkeypatch.setattr(sdp, "_new_directions", counting)
    return calls


def projector_rank(x, da, db, extra=()):
    """Numerical rank of the spectral projectors of x and x^{T_B} and of
    the matrices ``extra``, from their canonical coordinates."""
    mats = list(extra)
    for m in (x, partial_transpose(x, da, db)):
        w, v = np.linalg.eigh(m)
        for g in np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > 1e-8) + 1):
            mats.append(v[:, g] @ v[:, g].conj().T)
    flat = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])
    return np.linalg.matrix_rank(flat, tol=1e-8)


class TestSpectralGiveUp:
    # the spectral projectors P_i of X and Q_j of X^{T_B} and the
    # partial transposes P_i^{T_B} lie in the closure; a pair whose
    # count of their span outgrows the give-up size max(n // 8, 8)
    # returns None before any candidate or generation

    @pytest.mark.parametrize("da,db", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_generic_complex_pair_gives_up_without_a_generation(self, da, db,
                                                                monkeypatch):
        calls = count_generations(monkeypatch)
        for seed in range(3):
            x, _, _ = random_objective(np.random.default_rng(110 + seed), da, db)
            assert closure(x, da, db)[0] is None
        assert calls == []

    @pytest.mark.parametrize("inp", [
        random_objective(np.random.default_rng(120), 2, 3),
        random_objective(np.random.default_rng(121), 3, 3, real=True),
        pure_objective(np.random.default_rng(122), 2, 3, False),
        werner(3), composed(0.9, 2), werner_power(2, 2),
        (np.diag(np.linspace(-0.3, 0.4, 8)), 2, 4),
    ], ids=["complex-2x3", "real-3x3", "pure-2x3", "werner-d3", "composed-D16",
            "k-copy-D16", "diagonal-2x4"])
    def test_span_is_the_rank_of_the_projectors(self, inp):
        # with no transposes the count is the numerical rank of the
        # projectors of X and X^{T_B}, built as matrices
        x, da, db = inp
        x = x / np.linalg.norm(x)
        v, cuts = sdp._eigenspaces(x)
        u, cuts_pt = sdp._eigenspaces(partial_transpose(x, da, db))
        got = sdp._projector_span(v, cuts, u, cuts_pt, 0, lambda m: pt_stack(m, da, db))
        assert got == projector_rank(x, da, db)

    def test_diagonal_pair_keeps_its_closure(self, monkeypatch):
        # X^{T_B} = X, so each P_i is one Q_j and the span is 8, the
        # give-up size of the real 2 x 4 space, while r_X + r_G - 1 = 15
        # would have given the pair up
        x = np.diag(np.linspace(-0.3, 0.4, 8))
        v, cuts = sdp._eigenspaces(x)
        assert sdp._projector_span(v, cuts, v, cuts, 0, lambda m: pt_stack(m, 2, 4)) == 8
        calls = count_generations(monkeypatch)
        basis, canon = closure(x, 2, 4)
        assert max(canon.n // 8, 8) == 8
        assert basis.n == 8 and calls
        res = sdp.solve_ppt_two_outcome(x, 2, 4)
        assert res.coords == 8
        # the diagonal pair's PPT value is the sum of its positive entries
        assert res.value == pytest.approx(float(x[x > 0].sum()), abs=1e-6)

    @pytest.mark.parametrize("da,db", [(2, 2), (4, 4), (2, 8)])
    def test_d4_and_d16_complex_pairs_give_up_without_a_generation(self, da, db,
                                                                   monkeypatch):
        # r_X + r_G - 1 = 7 of the give-up size 8 at D = 4 and 31 of 32 at
        # D = 16: the partial transposes of two P_i take the span past it,
        # so the pair gives up with no candidate stack and no generation
        x, _, _ = random_objective(np.random.default_rng(130 + da), da, db)
        counted = []
        count = sdp._projector_span
        monkeypatch.setattr(sdp, "_projector_span",
                            lambda *a: counted.append(a[-2]) or count(*a))
        stacks = []
        monkeypatch.setattr(sdp, "_spectral_projectors",
                            lambda *a: stacks.append(None))
        calls = count_generations(monkeypatch)
        assert closure(x, da, db)[0] is None
        assert counted == [2] and stacks == [] and calls == []


class TestGramGrowth:
    @pytest.mark.parametrize("inp", [
        werner(3), composed(0.95, 3), werner_power(2, 3),
        (np.diag(np.linspace(-0.3, 0.4, 8)), 2, 4),
        random_objective(np.random.default_rng(140), 4, 4),
        random_objective(np.random.default_rng(141), 2, 8),
        random_objective(np.random.default_rng(142), 2, 2, real=True),
    ], ids=["werner-d3", "composed-D36", "k-copy-D64", "diagonal-2x4",
            "complex-4x4", "complex-2x8", "real-2x2"])
    def test_closure_imports_no_scipy(self, inp, monkeypatch):
        import builtins
        load = builtins.__import__

        def guard(name, *args, **kwargs):
            assert not name.startswith("scipy"), name
            return load(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", guard)
        closure(*inp)

    def test_new_directions_keep_the_rank_and_restore_orthonormality(self):
        # twelve candidates in six directions whose singular values fall
        # to 1e-5, and six more that add only 1e-8: a single Gram pass
        # would leave the kept directions orthogonal to ~1e-6 only
        rng = np.random.default_rng(150)
        basis = np.linalg.qr(rng.normal(size=(200, 3)))[0].T
        q = np.linalg.qr(rng.normal(size=(200, 6)))[0].T
        q -= (q @ basis.T) @ basis
        q = np.linalg.qr(q.T)[0].T
        mix = rng.normal(size=(12, 6)) * np.geomspace(1.0, 1e-5, 6)
        cands = np.concatenate([mix @ q, rng.normal(size=(6, 3)) @ basis
                                + 1e-8 * rng.normal(size=(6, 200))])
        cands += rng.normal(size=(18, 3)) @ basis
        new = sdp._new_directions(cands, basis)
        assert new.shape == (6, 200)
        assert np.abs(new @ new.T - np.eye(6)).max() <= 1e-14
        assert np.abs(new @ basis.T).max() <= 1e-14
        # the new rows span the six directions, up to the 1e-8 noise
        assert np.abs(q - (q @ new.T) @ new).max() <= 1e-6

    def test_nothing_new_gives_no_rows(self):
        basis = np.eye(5)[:2]
        assert sdp._new_directions(np.array([[2.0, 1.0, 0, 0, 0]]), basis).shape == (0, 5)

    @pytest.mark.parametrize("inp", [
        random_objective(np.random.default_rng(160), 2, 2),
        random_objective(np.random.default_rng(161), 2, 3, real=True),
        pure_objective(np.random.default_rng(162), 2, 3, False),
        werner(3), composed(0.9, 2),
        (np.diag(np.linspace(-0.3, 0.4, 8)), 2, 4),
    ], ids=["complex-2x2", "real-2x3", "pure-2x3", "werner-d3", "composed-D16",
            "diagonal-2x4"])
    def test_transposed_projector_span_is_the_rank(self, inp):
        # the Schur-complement count equals the numerical rank of the
        # projectors of X and X^{T_B} with the partial transposes of the
        # first P_i, built as matrices, for every number of transposes
        x, da, db = inp
        x = x / np.linalg.norm(x)
        v, cuts = sdp._eigenspaces(x)
        u, cuts_pt = sdp._eigenspaces(partial_transpose(x, da, db))
        for count in range(1, cuts.size + 2):
            got = sdp._projector_span(v, cuts, u, cuts_pt, count,
                                      lambda m: pt_stack(m, da, db))
            firsts = [partial_transpose(v[:, g] @ v[:, g].conj().T, da, db)
                      for g in np.split(np.arange(len(v)), cuts)[:count]]
            assert got == projector_rank(x, da, db, firsts)


def solve_both(x, da, db, monkeypatch):
    reduced = sdp.solve_ppt_two_outcome(x, da, db)
    with monkeypatch.context() as mp:
        mp.setattr(sdp, "_jordan_closure", lambda x_mat, canon: None)
        full = sdp.solve_ppt_two_outcome(x, da, db)
    return reduced, full


class TestReducedPath:
    @pytest.mark.parametrize("inp,k", [(werner(3), 3), (composed(0.95, 2), 15),
                                       (composed(0.95, 3), 21)],
                             ids=["werner-d3", "composed-D16", "composed-D36"])
    def test_reduced_and_canonical_solves_agree(self, inp, k, monkeypatch):
        x, da, db = inp
        reduced, full = solve_both(x, da, db, monkeypatch)
        assert reduced.coords == k
        assert full.coords == sdp._Basis(da, db, False).n
        assert reduced.value == pytest.approx(full.value, abs=1e-9)
        assert reduced.newton_steps == full.newton_steps
        assert reduced.gap <= 1e-6

    def test_generic_pair_reports_the_full_dimension(self):
        x, da, db = random_objective(np.random.default_rng(3), 2, 2)
        res = sdp.solve_ppt_two_outcome(x, da, db)
        assert res.coords == 16

    @pytest.mark.parametrize("inp", [werner(3), composed(0.9, 2)],
                             ids=["werner-d3", "composed-D16"])
    def test_truncated_basis_still_certifies_the_canonical_value(self, inp,
                                                                 monkeypatch):
        # rotate the closure basis so the traceless part of X is one
        # element, then drop it: the path in the truncated space ignores
        # the objective, so its certificate is loose; the solve raises,
        # and the value it carries still bounds the canonical optimum
        x, da, db = inp
        basis, canon = closure(x, da, db)
        k, d, _ = basis.e.shape
        flat = basis.e.reshape(k, -1)
        x0 = x - np.trace(x).real / d * np.eye(d)
        a = np.real(flat.conj() @ x0.reshape(-1))
        q, _ = np.linalg.qr(np.column_stack([a, np.eye(k)]))
        kept = np.tensordot(q[:, 1:k].T, basis.e, 1)
        truncated = sdp._ClosureBasis(kept, da, db)
        _, full = solve_both(x, da, db, monkeypatch)
        monkeypatch.setattr(sdp, "_jordan_closure", lambda x_mat, c: truncated)
        assert truncated.n == k - 1
        with pytest.raises(SolverError) as err:
            sdp.solve_ppt_two_outcome(x, da, db)
        assert err.value.gap > 1e-6
        assert err.value.value >= full.value


PINNED = [werner(3), composed(0.95, 2),
          random_objective(np.random.default_rng(21), 2, 2),
          random_objective(np.random.default_rng(22), 3, 3, real=True)]
RANDOM = [random_objective(np.random.default_rng(60 + i), da, db, real)
          for i, (da, db, real) in enumerate([
              (2, 2, False), (2, 3, False), (3, 3, False), (4, 4, False),
              (2, 4, False), (2, 2, True), (3, 2, True), (4, 4, True),
              (8, 2, True)])]


class TestCertificate:
    @pytest.mark.parametrize("inp", PINNED + RANDOM,
                             ids=["werner-d3", "composed-D16", "pinned-complex-2x2",
                                  "pinned-real-3x3", "complex-2x2", "complex-2x3",
                                  "complex-3x3", "complex-4x4", "complex-2x4",
                                  "real-2x2", "real-3x2", "real-4x4", "real-8x2"])
    def test_certificate_brackets_the_optimum(self, inp):
        x, da, db = inp
        res = sdp.solve_ppt_two_outcome(x, da, db)
        b = res.certificate
        assert b.shape == (da * db, da * db)
        assert np.abs(b - b.conj().T).max() == 0.0
        u = dual_bound(x, b, da, db)
        assert res.primal <= u <= res.value <= res.primal + 1e-6
        # the reported value adds only a rounding allowance to U(B)
        assert res.value - u <= 1e-10
        assert res.gap == pytest.approx(res.value - res.primal, abs=1e-15)
        # any Hermitian B bounds the optimum: a worse one is loose, not wrong
        assert dual_bound(x, b / 2.0, da, db) >= res.primal


class TestCertificateReuse:
    # the gap check's U(B) of the final iterate is the reported value,
    # so each B is certified once: at the parent, the last B was
    # certified again after the loop
    @staticmethod
    def recorded(monkeypatch):
        bound = sdp._dual_bound
        calls = []

        def recording(x_mat, b, dim_a, dim_b):
            value = bound(x_mat, b, dim_a, dim_b)
            calls.append((b.copy(), value))
            return value

        monkeypatch.setattr(sdp, "_dual_bound", recording)
        return calls

    @pytest.mark.parametrize("inp", PINNED, ids=["werner-d3", "composed-D16",
                                                 "complex-2x2", "real-3x3"])
    def test_converged_solve_certifies_each_iterate_once(self, inp, monkeypatch):
        x, da, db = inp
        plain = sdp.solve_ppt_two_outcome(x, da, db)
        calls = self.recorded(monkeypatch)
        res = sdp.solve_ppt_two_outcome(x, da, db)
        assert calls
        for (b, _), (b_next, _) in zip(calls, calls[1:]):
            assert not np.array_equal(b, b_next)
        b, value = calls[-1]
        assert res.value == value == plain.value
        np.testing.assert_array_equal(res.certificate, b)
        np.testing.assert_array_equal(res.certificate, plain.certificate)

    def test_unchecked_iterate_is_certified_after_the_loop(self, monkeypatch):
        # three iterations end before <S, Z> reaches the tolerance, so no
        # gap check ran: the one call is the certificate of the error
        calls = self.recorded(monkeypatch)
        monkeypatch.setattr(sdp, "_MAX_NEWTON", 3)
        with pytest.raises(SolverError, match="within 3 iterations") as err:
            sdp.solve_ppt_two_outcome(*werner(3))
        assert len(calls) == 1
        assert err.value.value == calls[0][1]


class TestPinnedSolves:
    # iteration counts and certified values: a change to the slack or
    # scaling algebra must leave the iterates where they are
    @pytest.mark.parametrize("inp,steps,value", [
        (PINNED[0], 8, 0.5000000068860869),
        (PINNED[1], 9, 0.8119633019216888),
        (PINNED[2], 9, 0.5352264442432706),
        (PINNED[3], 10, 0.5308454248934135),
    ], ids=["werner-d3", "composed-D16", "random-complex-2x2", "random-real-3x3"])
    def test_steps_and_value_are_pinned(self, inp, steps, value):
        res = sdp.solve_ppt_two_outcome(*inp)
        assert res.newton_steps == steps
        assert res.value == pytest.approx(value, rel=0, abs=1e-12)

    # the certified value and gap of the log-barrier solver this method
    # replaced (36, 53, 41 and 54 Newton steps): both solvers certify
    # their brackets, so each primal value lies below the other's value
    @pytest.mark.parametrize("inp,value,gap", [
        (PINNED[0], 0.5000001454104259, 2.539999147121996e-07),
        (PINNED[1], 0.811963413694515, 2.555804267112549e-07),
        (PINNED[2], 0.5352265218498857, 4.905641841634889e-07),
        (PINNED[3], 0.5308456280513579, 4.7031366234850935e-07),
    ], ids=["werner-d3", "composed-D16", "random-complex-2x2", "random-real-3x3"])
    def test_brackets_overlap_the_barrier_brackets(self, inp, value, gap):
        res = sdp.solve_ppt_two_outcome(*inp)
        assert res.value >= value - gap
        assert res.primal <= value
        # the stop at a gap of 1e-7 gives a tighter bound than the barrier's
        assert res.value < value and res.gap <= 1e-7


def count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kw):
        calls.append(None)
        return original(self, *args, **kw)

    monkeypatch.setattr(cls, name, counting)
    return calls


class TestNewtonSystems:
    # each iteration builds and factors one Newton system, at its
    # iterate, and solves it for both the predictor and the corrector
    @pytest.mark.parametrize("inp,coords", [
        (werner(3), 3), (PINNED[2], 16), (PINNED[3], 45),
    ], ids=["closure-werner-d3", "complex-2x2", "real-3x3"])
    def test_one_hessian_per_point(self, inp, coords, monkeypatch):
        canonical = count_calls(monkeypatch, sdp._Basis, "hessian")
        closure = count_calls(monkeypatch, sdp._ClosureBasis, "hessian")
        res = sdp.solve_ppt_two_outcome(*inp)
        assert res.coords == coords
        assert len(canonical) + len(closure) == res.newton_steps

    def test_ridge_retry_factors_each_point_twice(self, monkeypatch):
        # the first factorization of every Newton system fails, as in
        # TestCertifiedGap; each iterate is then factored with a ridge, once
        sdp._load_lapack()
        potrf = sdp.dpotrf
        calls = []

        def fail_first(a, **kw):
            calls.append(None)
            if len(calls) % 2 == 1:
                return a, 1
            return potrf(a, **kw)

        monkeypatch.setattr(sdp, "dpotrf", fail_first)
        res = sdp.solve_ppt_two_outcome(*werner(2))
        assert len(calls) == 2 * res.newton_steps

    @pytest.mark.parametrize("real", [False, True])
    def test_buffered_hessian_equals_a_fresh_one(self, real, monkeypatch):
        rng = np.random.default_rng(51 + real)
        gs = np.array([random_positive(rng, 6, real) for _ in range(4)])
        other = gs[::-1] + 0.5 * np.eye(6)

        def fresh(g):
            return sdp._Basis(3, 2, complex_field=not real).hessian(g)

        # a second call on one basis refills the arrays of the first and
        # equals a fresh basis's Hessian, with one slab per buffer and then
        # with several, the last one shorter than the rest
        cases = [(g, fresh(g)) for g in (other, gs)]
        for entries in (sdp._SLAB_ENTRIES, 4 * 36):
            monkeypatch.setattr(sdp, "_SLAB_ENTRIES", entries)
            basis = sdp._Basis(3, 2, complex_field=not real)
            first = basis.hessian(gs)
            for g, want in cases:
                assert basis.hessian(g) is first
                np.testing.assert_array_equal(first, want)


def svd_scaling(chol_s, chol_z):
    """The NT scaling from the SVD L_Z^H L_S = U diag(lam) V^H: T = U^H L_Z^H."""
    lz_h = chol_z.conj().swapaxes(-1, -2)
    u, lam, _ = np.linalg.svd(lz_h @ chol_s)
    return u.conj().swapaxes(-1, -2) @ lz_h, lam


PARITY = {
    "complex-2x2": random_objective(np.random.default_rng(71), 2, 2),
    "complex-2x3": random_objective(np.random.default_rng(72), 2, 3),
    "complex-3x3": random_objective(np.random.default_rng(73), 3, 3),
    "real-3x2": random_objective(np.random.default_rng(74), 3, 2, real=True),
    "real-4x2": random_objective(np.random.default_rng(75), 4, 2, real=True),
    "pure-complex-2x3": pure_objective(np.random.default_rng(76), 2, 3, False),
    "pure-real-3x3": pure_objective(np.random.default_rng(77), 3, 3, True),
    "composed-D16": composed(0.9, 2),
    "composed-D36": composed(0.99, 3),
    "werner-d3": werner(3),
    "werner-d5": werner(5),
    "complex-2x2-x1e3": (1e3 * PINNED[2][0], 2, 2),
}


class TestScalingParity:
    # the eigh scaling differs from the SVD one only in the order and the
    # phases of U, which change neither W^{-1} nor the spectra of the
    # scaled directions: the iterates agree up to rounding
    @pytest.mark.parametrize("name", list(PARITY))
    def test_same_iterations_as_the_svd_scaling(self, name, monkeypatch):
        inp = PARITY[name]
        res = sdp.solve_ppt_two_outcome(*inp)
        monkeypatch.setattr(sdp, "_nt_scaling", svd_scaling)
        ref = sdp.solve_ppt_two_outcome(*inp)
        assert res.newton_steps == ref.newton_steps
        assert abs(res.value - ref.value) <= 1e-10 * max(1.0, abs(ref.value))
        assert res.coords == ref.coords


class TestClosedFormFamily:
    # the PPT value of k copies of the extreme Werner pair is
    # 1 - ((d-1)/(d+1))^k / 2 in the 1/2 + x/2 scale: the primal value
    # reached and the certified value must bracket it
    @pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1), (4, 1), (2, 3)],
                             ids=["d2-k1", "d2-k2", "d3-k1", "d4-k1", "d2-k3-D64"])
    def test_certified_value_brackets_the_closed_form(self, d, k):
        x, da, db = werner_power(d, k)
        assert np.trace(x) == pytest.approx(0.0, abs=1e-12)
        closed = 1.0 - 0.5 * ((d - 1) / (d + 1)) ** k
        res = sdp.solve_ppt_two_outcome(x, da, db)
        assert 0.5 + 0.5 * res.primal <= closed <= 0.5 + 0.5 * res.value
        assert res.newton_steps <= 12


def pt_stack(m, da, db):
    """Partial transpose on B of a stack of matrices, by axis swap."""
    k = len(m)
    return (m.reshape(k, da, db, da, db).transpose(0, 1, 4, 3, 2)
            .reshape(k, da * db, da * db))


def block_diagonal(blocks, mults):
    """(+)_i A_i (x) I_{m_i} for a stack of matrices per block."""
    d = sum(a.shape[-1] * m for a, m in zip(blocks, mults))
    out = np.zeros((len(blocks[0]), d, d), blocks[0].dtype)
    at = 0
    for a, m in zip(blocks, mults):
        n = a.shape[-1] * m
        out[:, at:at + n, at:at + n] = np.kron(a, np.eye(m))
        at += n
    return out


def leading_blocks(form):
    """The blocks A_i of a block form, read off its stack after checking
    that each stacked block is I_{s/n_i} (x) A_i."""
    s = form.stack.shape[-1]
    out = []
    for b, n in enumerate(form.sizes):
        a = form.stack[:, b, :n, :n]
        np.testing.assert_array_equal(
            form.stack[:, b], np.kron(np.eye(s // n), a) if s > n else a)
        out.append(a)
    return out


BLOCK_PAIRS = {
    **{f"werner-d{d}": werner(d) for d in (2, 3, 4, 5)},
    "composed-D16": composed(0.9, 2),
    "composed-D36": composed(0.95, 3),
    "composed-D64": composed(0.99, 4),
    "k-copy-D64": werner_power(2, 3),
}


class TestBlockDecomposition:
    @pytest.mark.parametrize("name", list(BLOCK_PAIRS))
    def test_blocks_rebuild_every_element(self, name):
        x, da, db = BLOCK_PAIRS[name]
        basis, _ = closure(x, da, db)
        form = basis.blocks
        d = da * db
        q = form.q
        assert q is not None and q.dtype == form.stack.dtype == np.float64
        assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-12
        assert sum(n * m for n, m in zip(form.sizes, form.mults)) == d
        s = form.stack.shape[-1]
        assert all(s % n == 0 for n in form.sizes)
        np.testing.assert_allclose(
            form.weight, [m * n / s for n, m in zip(form.sizes, form.mults)])
        both = np.concatenate([basis.e, pt_stack(basis.e, da, db)])
        rebuilt = q @ block_diagonal(leading_blocks(form), form.mults) @ q.T
        assert np.abs(rebuilt - both).max() <= 1e-10
        assert np.abs(form.full(form.stack) - rebuilt).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_werner_blocks_are_three_scalars(self, d):
        form = closure(*werner(d))[0].blocks
        assert form.sizes == (1, 1, 1)
        assert sorted(form.mults) == sorted([d * (d + 1) // 2 - 1, d * (d - 1) // 2, 1])

    @pytest.mark.parametrize("lam,d2,scalars", [(0.9, 2, 6), (0.95, 3, 12),
                                                (0.99, 4, 12)])
    def test_composed_blocks_are_three_2x2_and_scalars(self, lam, d2, scalars):
        form = closure(*composed(lam, d2))[0].blocks
        pairs = sorted(zip(form.sizes, form.mults))
        assert [m for n, m in pairs if n == 2] == [1, 1, 2]
        assert sum(n == 1 for n in form.sizes) == scalars
        assert set(form.sizes) == {1, 2}

    def test_k_copy_blocks_are_scalars(self):
        form = closure(*werner_power(2, 3))[0].blocks
        assert set(form.sizes) == {1}

    @pytest.mark.parametrize("name", ["werner-d3", "composed-D36"])
    def test_seeded_decomposition_repeats(self, name):
        first, second = (closure(*BLOCK_PAIRS[name])[0].blocks for _ in range(2))
        np.testing.assert_array_equal(first.q, second.q)
        np.testing.assert_array_equal(first.stack, second.stack)
        assert (first.sizes, first.mults) == (second.sizes, second.mults)


def one_block(monkeypatch, x, da, db):
    """The solve with the block form refused: one D x D block."""
    with monkeypatch.context() as mp:
        mp.setattr(sdp, "_block_form", lambda both: None)
        return sdp.solve_ppt_two_outcome(x, da, db)


def rotate_a(inp, seed):
    """X under a random complex unitary on the A factor, which commutes
    with the partial transpose on B: a complex objective with the same
    closure structure."""
    x, da, db = inp
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da)))
    u = np.kron(u, np.eye(db))
    return u @ x @ u.conj().T, da, db


BLOCK_PARITY = {
    "composed-0.5-d2": composed(0.5, 2),
    "composed-0.7-d4": composed(0.7, 4),
    "composed-0.9-d2": composed(0.9, 2),
    "composed-0.9-d3": composed(0.9, 3),
    "composed-0.99-d4": composed(0.99, 4),
    "composed-0.9999-d2": composed(0.9999, 2),
    "composed-0.9999-d3": composed(0.9999, 3),
    "werner-d3": werner(3),
    "werner-d5": werner(5),
    "k-copy-d2-k2": werner_power(2, 2),
    "composed-0.9-d2-x1e3": (1e3 * composed(0.9, 2)[0], 4, 4),
    "composed-0.99-d3-complex": rotate_a(composed(0.99, 3), 5),
}


class TestBlockParity:
    # the iterates on the blocks are the D x D iterates in another basis:
    # the same iterations up to rounding
    @pytest.mark.parametrize("name", list(BLOCK_PARITY))
    def test_same_iterations_as_one_block(self, name, monkeypatch):
        x, da, db = BLOCK_PARITY[name]
        res = sdp.solve_ppt_two_outcome(x, da, db)
        ref = one_block(monkeypatch, x, da, db)
        form = closure(x, da, db)[0].blocks
        assert form.q is not None
        # a real closure gives a real basis change
        assert np.iscomplexobj(form.q) == bool(np.abs(np.imag(x)).max() > 1e-13)
        assert res.newton_steps == ref.newton_steps
        assert res.coords == ref.coords
        assert abs(res.value - ref.value) <= 1e-10 * max(1.0, abs(ref.value))
        assert res.optimizer.shape == res.certificate.shape == (da * db, da * db)

    def test_corrupted_decomposition_runs_as_one_block(self, monkeypatch):
        # swapping two columns of q across blocks breaks the form: the
        # check refuses it, and the solve is the one-block solve
        x, da, db = composed(0.9, 2)
        decompose = sdp._block_form
        corrupted = []

        def swapped(both):
            form = decompose(both)
            q = form.q.copy()
            q[:, [0, -1]] = q[:, [-1, 0]]
            bad = sdp._Blocks(q, form.stack, form.sizes, form.mults)
            assert form.rebuilds(both) and not bad.rebuilds(both)
            corrupted.append(bad)
            return bad

        monkeypatch.setattr(sdp, "_block_form", swapped)
        basis, _ = closure(x, da, db)
        assert corrupted and basis.blocks.q is None
        assert basis.blocks.sizes == (da * db,) and basis.shape == (1, da * db, da * db)
        res = sdp.solve_ppt_two_outcome(x, da, db)
        monkeypatch.undo()
        ref = one_block(monkeypatch, x, da, db)
        assert (res.newton_steps, res.value, res.primal) == (
            ref.newton_steps, ref.value, ref.primal)
        np.testing.assert_array_equal(res.certificate, ref.certificate)


class TestStackedHooks:
    @staticmethod
    def stacks(rng, blocks, s, real):
        return np.stack([positive_blocks(rng, s, real, 1e2) for _ in range(blocks)],
                        axis=1)

    @pytest.mark.parametrize("real", [False, True])
    def test_scaling_and_steps_match_each_block(self, real):
        rng = np.random.default_rng(81 + real)
        s_mat, z_mat = self.stacks(rng, 5, 3, real), self.stacks(rng, 5, 3, real)
        assert s_mat.shape == (4, 5, 3, 3)
        chol_s, chol_z = np.linalg.cholesky(s_mat), np.linalg.cholesky(z_mat)
        t, lam = sdp._nt_scaling(chol_s, chol_z)
        for b in range(5):
            tb, lam_b = sdp._nt_scaling(chol_s[:, b], chol_z[:, b])
            np.testing.assert_allclose(lam[:, b], lam_b, rtol=1e-12, atol=0)
            # W^{-1} = T^H diag(lam)^{-1} T does not depend on the eigenvectors' phases
            w_inv = t[:, b].conj().swapaxes(-1, -2) @ (t[:, b] / lam[:, b, :, None])
            w_ref = tb.conj().swapaxes(-1, -2) @ (tb / lam_b[..., None])
            assert relative_error(w_inv, w_ref) <= 1e-12
        p_s = s_mat - 0.5 * z_mat
        p_z = z_mat - 0.5 * s_mat
        for p in (None, p_z):
            per_block = [sdp._step_lengths(p_s[:, b], None if p is None else p[:, b])
                         for b in range(5)]
            assert sdp._step_lengths(p_s, p) == tuple(min(a) for a in zip(*per_block))

    @pytest.mark.parametrize("name", ["composed-D16", "werner-d4"])
    def test_weighted_trace_is_the_full_trace(self, name):
        # <S, Z> summed over the blocks with their weights, as the
        # iteration reads it off the NT scaling, is Re Tr[S Z] in D x D
        x, da, db = BLOCK_PAIRS[name]
        basis, _ = closure(x, da, db)
        rng = np.random.default_rng(91)
        d = da * db
        m = basis.pair(basis.coords(np.eye(d) / 2.0) + 0.02 * rng.normal(size=basis.n))
        eye = np.eye(basis.shape[-1])
        s_mat = np.stack((m[0], eye - m[0], m[1], eye - m[1]))
        z_mat = basis.project_stack(eye + 0.2 * rng.normal(size=s_mat.shape))
        _, lam = sdp._nt_scaling(np.linalg.cholesky(s_mat), np.linalg.cholesky(z_mat))
        weighted = float((np.square(lam) * basis.weight).sum())
        full = sum(np.trace(a @ b).real for a, b in zip(basis.full(s_mat),
                                                       basis.full(z_mat)))
        assert weighted == pytest.approx(full, rel=1e-12)
        direct = float(np.sum(basis.weight[..., None] * s_mat * z_mat.conj()))
        assert direct == pytest.approx(full, rel=1e-12)


def block_stacks():
    """Seeded real and complex (L, D, D) stacks and the (L, B, s, s)
    block stack of a composed pair's closure, each as a Hermitian stack
    and a positive definite one."""
    rng = np.random.default_rng(97)
    stacks = {}
    for real in (False, True):
        a = rng.normal(size=(5, 6, 6))
        if not real:
            a = a + 1j * rng.normal(size=a.shape)
        stacks["real" if real else "complex"] = a + a.conj().swapaxes(-1, -2)
    basis, _ = closure(*composed(0.9, 2))
    stacks["composed-blocks"] = basis.blocks.stack
    positive = {name: a @ a.conj().swapaxes(-1, -2) + np.eye(a.shape[-1])
                for name, a in stacks.items()}
    return stacks, positive


class TestLapackShims:
    # the solver calls numpy.linalg's own gufuncs, without the wrapper:
    # the bits must be numpy.linalg's, and a failure must come out as
    # NaN that the iteration's checks catch, never as LinAlgError or a
    # warning

    STACKS, POSITIVE = block_stacks()

    @pytest.mark.parametrize("name", list(STACKS))
    def test_shims_equal_numpy_linalg_bit_for_bit(self, name):
        a, pd = self.STACKS[name], self.POSITIVE[name]
        if name == "composed-blocks":
            assert a.ndim == 4 and a.dtype == np.float64
        w, v = sdp._eigh(a)
        want_w, want_v = np.linalg.eigh(a)
        for got, want in ((w, want_w), (v, want_v), (sdp._eigvalsh(a), np.linalg.eigvalsh(a)),
                          (sdp._cholesky(pd), np.linalg.cholesky(pd))):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shim", ["_eigh", "_eigvalsh", "_cholesky"])
    def test_nan_from_a_shim_ends_in_solver_error(self, shim, monkeypatch):
        # from the second iteration on, every stack the shim gets in the
        # iteration (the generic pair's closure gives up on 2-D calls
        # only) has a NaN entry, as a failed LAPACK call would leave
        x, da, db = random_objective(np.random.default_rng(8), 2, 3)
        optimum = sdp.solve_ppt_two_outcome(x, da, db)
        real = getattr(sdp, shim)
        calls = []

        def poisoned(a):
            if a.ndim == 3:
                calls.append(None)
                if len(calls) > 2:
                    a = a.copy()
                    a[..., 0, 0] = np.nan
            return real(a)

        monkeypatch.setattr(sdp, shim, poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="positive definite") as err:
                sdp.solve_ppt_two_outcome(x, da, db)
        assert len(calls) > 2
        assert math.isfinite(err.value.value) and err.value.value >= optimum.value
        assert err.value.gap > 1e-6
