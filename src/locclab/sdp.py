"""Bundled log-barrier interior-point solver for the binary PPT SDP.

Solves, for a Hermitian matrix X on C^{dA} (x) C^{dB},

    maximize    Re Tr[M X]
    subject to  0 <= M <= I,   0 <= M^{T_B} <= I,

where T_B transposes the B factor. The barrier is -log det over the four
affine slack blocks M, I-M, M^{T_B}, I-M^{T_B}, with total barrier
parameter nu = 4D. Path following uses damped Newton steps with exact
Hessians.

Coordinates. Let S be the smallest real subspace of Hermitian matrices
that contains I and X and is closed under the Jordan product AB+BA and
under T_B (Permenter & Parrilo, Math. Program. 2020). The path is
followed in an orthonormal basis E_1..E_k of S:

- the slack inverses of any M in S lie in S, so the full-space barrier
  gradient at a point of S lies in S;
- the minimizer of the barrier restricted to S has a gradient orthogonal
  to S, so that gradient is zero;
- hence the central path never leaves S, and the Newton steps in S are
  the full-space Newton steps.

The Hessian in these coordinates is H_pq = sum over blocks of
Re Tr[G E_p G E_q] (with E^{T_B} on the two transposed blocks), built
from the k products G E G at O(k D^3) cost. When S is the whole space
(k = n, the generic case) the canonical basis of Hermitian (or real
symmetric, when X is real) matrices is used instead, with Hessians
assembled through Tr[G E G E'] = sum_{abcd} G[d,a] G[b,c] E[a,b] E'[c,d]:
an order-D^4 tensor contracted against a sparse basis map, partial
transposition entering as an axis permutation of that tensor.

S is found numerically, so a wrong rank decision could give a subspace
the path leaves. The last centering stage therefore always runs in the
canonical coordinates, starting from the reduced iterate: when S is
invariant one full-space Hessian shows the decrement is already small;
otherwise the same Newton loop keeps stepping, or, when that decrement
is 1 or more, follows the whole path again in canonical coordinates.
The certificate below rests on the full-space decrement.

Certificate. At a point with Newton decrement l < 1 for parameter t,
the distance to the central point is at most l/(1-l) in the local norm
and t times the dual norm of the objective is at most l + sqrt(nu)
(Nesterov, Introductory Lectures on Convex Optimization, Thm 4.2.7), so
the primal value is within

    gap = (nu + (l + sqrt(nu)) l/(1-l)) / t

of the optimum, which is what ``SDPResult.gap`` reports. A final
decrement of 1 or more certifies nothing and raises SolverError.

No external solver is used; numpy/scipy provide dense linear algebra
only. Intended for total dimension D <= 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import NumericError, SolverError
from .tolerances import TOL

MAX_TOTAL_DIM = 64

# Rank decisions of the Jordan closure. Candidates are built from
# orthonormal elements; on the composed pairs (lambda up to 0.9999) and
# random pairs up to D=16, new directions left residuals >= 1.6e-3 and
# round-off left residuals <= 5e-10.
_CLOSURE_TOL = 1e-6
# Eigenvalues closer than this, relative to the spectral radius, share a
# spectral projector.
_EIGEN_MERGE = 1e-8
# Bound on the matrix entries of one chunk of closure candidates.
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SDPResult:
    """Certified outcome of one solve.

    ``value`` = primal + gap is a guaranteed upper bound on the true
    optimum; ``primal`` is attained by the feasible ``optimizer``.
    ``coords`` is the number of real coordinates the path following
    used: the dimension of the Jordan closure, or the full dimension.
    """

    value: float
    primal: float
    gap: float
    newton_steps: int
    t_final: float
    coords: int
    optimizer: np.ndarray


def certified_gap(nu: float, decrement: float, t: float) -> float:
    """Duality gap certified at barrier parameter ``t`` by a Newton
    ``decrement`` < 1; infinite when the decrement is 1 or more."""
    if decrement >= 1.0:
        return float("inf")
    return (nu + (decrement + np.sqrt(nu)) * decrement / (1.0 - decrement)) / t


class _Basis:
    """Orthonormal real coordinates for Hermitian (or real symmetric)
    matrices, with the sparse map L from coordinates to vec(M)."""

    def __init__(self, dim_a: int, dim_b: int, complex_field: bool):
        self.dim_a, self.dim_b = dim_a, dim_b
        dim = self.dim = dim_a * dim_b
        self.complex_field = complex_field
        iu, ju = np.triu_indices(dim, 1)
        rt = 1.0 / np.sqrt(2.0)
        rows = [np.arange(dim) * dim + np.arange(dim)]
        cols = [np.arange(dim)]
        vals = [np.ones(dim, dtype=np.complex128 if complex_field else np.float64)]
        npairs = iu.size
        k0 = dim
        # symmetric off-diagonal elements (E = (e_ij + e_ji)/sqrt(2))
        rows += [iu * dim + ju, ju * dim + iu]
        cols += [k0 + np.arange(npairs)] * 2
        vals += [np.full(npairs, rt), np.full(npairs, rt)]
        n = dim + npairs
        if complex_field:
            # antisymmetric elements (E = i(e_ij - e_ji)/sqrt(2))
            k1 = dim + npairs
            rows += [iu * dim + ju, ju * dim + iu]
            cols += [k1 + np.arange(npairs)] * 2
            vals += [np.full(npairs, 1j * rt), np.full(npairs, -1j * rt)]
            n += npairs
        self.n = n
        data = np.concatenate([np.asarray(v, dtype=np.complex128 if complex_field
                                          else np.float64) for v in vals])
        self.L = scipy.sparse.csr_matrix(
            (data, (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim * dim, n))
        self.L_adj = self.L.conj().transpose().tocsr()
        self.L_t = self.L.transpose().tocsr()

    def mat(self, x: np.ndarray) -> np.ndarray:
        return (self.L @ x).reshape(self.dim, self.dim)

    def coords(self, g: np.ndarray) -> np.ndarray:
        """Real coordinates of a Hermitian matrix (also the adjoint map
        used for gradients)."""
        return np.real(self.L_adj @ g.reshape(-1))

    def hessian(self, gs) -> np.ndarray:
        g1, g2, g3, g4 = gs
        d = self.dim
        t4 = np.einsum("da,bc->abcd", g1, g1)
        t4 += np.einsum("da,bc->abcd", g2, g2)
        t34 = np.einsum("da,bc->abcd", g3, g3)
        t34 += np.einsum("da,bc->abcd", g4, g4)
        t4 += _pt_axes_tensor(t34, self.dim_a, self.dim_b)
        del t34
        # t4 stays alive until h exists: freeing it first measured ~20%
        # slower generic solves (allocator reuse of the freed block)
        right = self.L_t @ t4.reshape(d * d, d * d).T  # (n, D^2)
        h = self.L_t @ right.T                          # (n, n)
        return np.ascontiguousarray(h.real) if self.complex_field else h


def _pt_axes_tensor(t4: np.ndarray, da: int, db: int) -> np.ndarray:
    """Pull the order-4 Hessian tensor of a block back through the
    partial transpose: swap the B column indices pairwise."""
    d = da * db
    t8 = t4.reshape(da, db, da, db, da, db, da, db)
    return t8.transpose(0, 3, 2, 1, 4, 7, 6, 5).reshape(d, d, d, d)


def _pt_mat(m: np.ndarray, da: int, db: int) -> np.ndarray:
    """Partial transpose on B of one matrix or of a stack of matrices."""
    d = da * db
    lead = m.shape[:-2]
    return (m.reshape(lead + (da, db, da, db))
            .swapaxes(-3, -1)
            .reshape(lead + (d, d)))


class _ClosureBasis:
    """Orthonormal basis E_1..E_k of the Jordan closure, held as dense
    matrices together with their partial transposes."""

    def __init__(self, elements: np.ndarray, dim_a: int, dim_b: int):
        self.n, d, _ = elements.shape
        self.dim = d
        self.e = elements
        self.e_pt = _pt_mat(elements, dim_a, dim_b)
        # columns conj(vec E_q) stacked over conj(vec E_q^{T_B}), so that
        # vec(Y) @ adj[:D^2] = Tr[Y E_q] for Hermitian E_q
        self._adj = np.concatenate(
            [elements.reshape(self.n, d * d), self.e_pt.reshape(self.n, d * d)],
            axis=1).conj().T

    def mat(self, x: np.ndarray) -> np.ndarray:
        return np.tensordot(x, self.e, 1)

    def coords(self, g: np.ndarray) -> np.ndarray:
        return np.real(g.reshape(-1) @ self._adj[: self.dim ** 2])

    def hessian(self, gs) -> np.ndarray:
        g1, g2, g3, g4 = gs
        y = g1 @ self.e @ g1 + g2 @ self.e @ g2
        y_pt = g3 @ self.e_pt @ g3 + g4 @ self.e_pt @ g4
        d2 = self.dim ** 2
        h = np.concatenate([y.reshape(self.n, d2), y_pt.reshape(self.n, d2)],
                           axis=1) @ self._adj
        return np.real(h)


def _spectral_projectors(a: np.ndarray) -> list:
    """Projectors onto the eigenspaces of the Hermitian matrix ``a``,
    or none when it has fewer than three distinct eigenvalues (then
    they lie in span{I, a})."""
    w, v = np.linalg.eigh(a)
    cuts = np.flatnonzero(np.diff(w) > _EIGEN_MERGE * max(-w[0], w[-1])) + 1
    if cuts.size < 2:
        return []
    return [v[:, g] @ v[:, g].conj().T for g in np.split(np.arange(w.size), cuts)]


def _jordan_closure(x_mat: np.ndarray, canon: _Basis) -> _ClosureBasis | None:
    """Orthonormal basis of the smallest subspace that contains I and
    ``x_mat`` and is closed under the Jordan product and the partial
    transpose; None when that subspace is the whole space.

    Elements are rows of canonical coordinates. Each generation takes
    the partial transposes of the elements the previous generation added
    and their Jordan products with every element, in bounded chunks; a
    chunk's residual after projecting out the basis is split by pivoted
    QR, and directions above _CLOSURE_TOL are added. Spectral projectors
    of one random element of the current span join each generation: they
    lie in the closure, and they resolve directions that powers of a
    matrix with a dominant eigenvalue would only reach through
    near-cancellation.
    """
    d, n = canon.dim, canon.n
    rng = np.random.default_rng(0)
    # element 0 is I, whose Jordan products add nothing
    basis = canon.coords(np.eye(d))[None] / np.sqrt(d)

    def add(cands: np.ndarray) -> bool:
        nonlocal basis
        c = np.real(canon.L_adj @ cands.reshape(len(cands), d * d).T).T
        c /= np.maximum(np.linalg.norm(c, axis=1, keepdims=True), 1.0)
        c -= (c @ basis.T) @ basis
        q, r, _ = scipy.linalg.qr(c.T, mode="economic", pivoting=True,
                                  check_finite=False)
        rank = min(int(np.count_nonzero(np.abs(np.diag(r)) > _CLOSURE_TOL)),
                   n - len(basis))
        new = q[:, :rank].T
        new -= (new @ basis.T) @ basis
        basis = np.vstack([basis, np.linalg.qr(new.T)[0].T])
        return len(basis) == n

    def mats(rows: np.ndarray) -> np.ndarray:
        return (canon.L @ rows.T).T.reshape(len(rows), d, d)

    if add(x_mat[None]):
        return None
    lo = 0
    while lo < len(basis):
        hi = len(basis)
        e = mats(basis)
        extra = _spectral_projectors(np.tensordot(rng.standard_normal(hi), e, 1))
        extra = np.concatenate([np.asarray(extra).reshape(-1, d, d),
                                _pt_mat(e[lo:hi], canon.dim_a, canon.dim_b)])
        # Jordan products of each new element with every element but I;
        # the first chunk also carries the projectors and transposes
        i, j = np.tril_indices(hi)
        keep = (i >= lo) & (j >= 1)
        i, j = i[keep], j[keep]
        start = 0
        while start == 0 or start < i.size:
            size = min(_CHUNK_ENTRIES // (d * d), max(16, n - len(basis)))
            ab = e[i[start:start + size]] @ e[j[start:start + size]]
            chunk = ab + ab.conj().swapaxes(1, 2)
            if start == 0:
                chunk = np.concatenate([extra, chunk])
            if add(chunk):
                return None
            start += size
        lo = hi
    return _ClosureBasis(mats(basis), canon.dim_a, canon.dim_b)


def _chol_blocks(m: np.ndarray, mt: np.ndarray, eye: np.ndarray):
    """Cholesky factors of the four slack blocks, or None if any is not
    positive definite."""
    out = []
    for s in (m, eye - m, mt, eye - mt):
        try:
            out.append(np.linalg.cholesky(s))
        except np.linalg.LinAlgError:
            return None
    return out


def _logdet_from_chol(chols) -> float:
    return 2.0 * sum(float(np.log(np.diag(c).real).sum()) for c in chols)


def solve_ppt_two_outcome(x_mat: np.ndarray, dim_a: int, dim_b: int,
                          gap_tol: float = TOL.sdp_gap,
                          mu: float = 20.0,
                          max_newton: int = 800) -> SDPResult:
    """Run the path-following solve. Raises SolverError on dimension
    overflow or non-convergence (carrying the best value and gap seen)."""
    d = dim_a * dim_b
    x_mat = np.asarray(x_mat, dtype=np.complex128)
    if x_mat.shape != (d, d):
        raise SolverError(f"objective shape {x_mat.shape} != ({d}, {d})")
    if d > MAX_TOTAL_DIM:
        raise SolverError(
            f"total dimension {d} exceeds the bundled solver limit {MAX_TOTAL_DIM}")
    if float(np.abs(x_mat - x_mat.conj().T).max()) > TOL.hermitian * max(
            1.0, float(np.abs(x_mat).max())):
        raise NumericError("SDP objective matrix must be Hermitian")

    complex_field = float(np.abs(x_mat.imag).max()) > 1e-13
    if not complex_field:
        x_work = np.ascontiguousarray(x_mat.real)
    else:
        x_work = x_mat
    canon = _Basis(dim_a, dim_b, complex_field)
    basis = _jordan_closure(x_work, canon) or canon
    coords_used = basis.n
    eye = np.eye(d, dtype=x_work.dtype)

    nu = 4.0 * d
    # the certificate needs only decrement <= lam_stop at t_final, so
    # t_final is sized for that decrement rather than perfect centering
    lam_stop = 0.1
    t_final = certified_gap(nu, lam_stop, 1.0) / gap_tol
    steps = 0

    def center(basis, x, t, give_up=np.inf):
        """Damped Newton steps at parameter t until the decrement is at
        most lam_stop, reaches ``give_up``, or the line search stalls;
        returns the point and its decrement."""
        nonlocal steps
        c_obj = basis.coords(x_work)

        def f_value(xv: np.ndarray):
            m = basis.mat(xv)
            chols = _chol_blocks(m, _pt_mat(m, dim_a, dim_b), eye)
            if chols is None:
                return None
            return -t * float(c_obj @ xv) - _logdet_from_chol(chols), chols

        while True:
            cur = f_value(x)
            if cur is None:
                raise SolverError("iterate left the feasible cone",
                                  value=None, gap=None)
            f_cur, chols = cur
            gs = []
            for c in chols:
                inv_c = scipy.linalg.solve_triangular(c, eye, lower=True,
                                                      check_finite=False)
                gs.append(inv_c.conj().T @ inv_c)
            g1, g2, g3, g4 = gs
            grad_mat = (-t) * x_work + (-g1 + g2
                                        - _pt_mat(g3, dim_a, dim_b)
                                        + _pt_mat(g4, dim_a, dim_b))
            grad = basis.coords(grad_mat)
            hess = basis.hessian(gs)
            step_dir = None
            ridge = 0.0
            for _ in range(4):
                try:
                    cf = scipy.linalg.cho_factor(
                        hess + ridge * np.eye(basis.n), lower=True,
                        overwrite_a=True, check_finite=False)
                    step_dir = scipy.linalg.cho_solve(cf, -grad,
                                                      check_finite=False)
                    break
                except np.linalg.LinAlgError:
                    ridge = max(ridge * 100.0, 1e-10 * float(np.trace(hess)) / basis.n)
            if step_dir is None:
                raise SolverError("Newton system factorization failed",
                                  value=float(c_obj @ x), gap=nu / t)
            lam2 = max(float(-grad @ step_dir), 0.0)
            decrement = np.sqrt(lam2)
            if decrement <= lam_stop or decrement >= give_up:
                break
            scale = 1.0 if decrement <= 0.25 else 1.0 / (1.0 + decrement)
            accepted = False
            while scale > 1e-14:
                trial = x + scale * step_dir
                val = f_value(trial)
                if val is not None and val[0] <= f_cur - 0.25 * scale * lam2:
                    x = trial
                    accepted = True
                    break
                scale *= 0.5
            if not accepted:
                # at the numerical floor of centering accuracy; the
                # decrement-based certificate below stays valid
                break
            steps += 1
            if steps > max_newton:
                raise SolverError(
                    f"no convergence within {max_newton} Newton steps",
                    value=float(c_obj @ x), gap=nu / t)
        return x, float(decrement)

    def follow(basis):
        t = min(1.0, t_final)
        x = basis.coords(eye / 2.0)
        while True:
            x, decrement = center(basis, x, t)
            if t >= t_final:
                return x, decrement
            t = min(t * mu, t_final)

    x, decrement = follow(basis)
    if basis is not canon:
        # The final stage runs in full-space coordinates, so the
        # certificate rests on the full-space decrement. A decrement of 1
        # or more means the path left the subspace; Newton steps at
        # t_final from there overran the 800-step budget on truncated
        # bases, so the path is followed again from the start.
        x, decrement = center(canon, canon.coords(basis.mat(x)), t_final,
                              give_up=1.0)
        if decrement >= 1.0:
            x, decrement = follow(canon)

    primal = float(canon.coords(x_work) @ x)
    gap = certified_gap(nu, decrement, t_final)
    if not np.isfinite(gap):
        raise SolverError(
            f"final Newton decrement {decrement:.3g} >= 1 certifies no gap",
            value=primal, gap=gap)
    m_final = canon.mat(x)
    return SDPResult(value=primal + gap, primal=primal, gap=gap,
                     newton_steps=steps, t_final=t_final, coords=coords_used,
                     optimizer=np.asarray(m_final, dtype=np.complex128))
