"""Bundled primal-dual interior-point solver for the binary PPT SDP.

Solves, for a Hermitian matrix X on C^{dA} (x) C^{dB},

    maximize    Re Tr[M X]
    subject to  0 <= M <= I,   0 <= M^{T_B} <= I,

where T_B transposes the B factor, together with its dual

    minimize    Tr Z2 + Tr Z4
    subject to  Z2 - Z1 + (Z4 - Z3)^{T_B} = X,   Z1, .., Z4 >= 0.

M = M(x) has real coordinates x. The four slack blocks
S = F(x) = (M, I-M, M^{T_B}, I-M^{T_B}) are one (4, D, D) stack, always
recomputed from x, and so is the dual Z. The method starts infeasible:
x at I/2, strictly inside the primal set, and Z at I, whose dual
residual c + A*(Z) (in coordinates, with c the coordinates of X and A*
the adjoint of dx -> dS) is c. Each iteration drives both the residual
and <S, Z> = nu mu (nu = 4D) down.

Iteration: one Nesterov-Todd (NT) step with Mehrotra's predictor-corrector
(Todd, Toh & Tutuncu, SIAM J. Optim. 8, 769 (1998); Mehrotra, SIAM J.
Optim. 2, 575 (1992)).

- Scaling. From the Cholesky factors S = L_S L_S^H, Z = L_Z L_Z^H of
  each block and the eigendecomposition L_Z^H S L_Z = U diag(lam^2) U^H
  (two batched Cholesky factorizations and one batched eigh, the form
  of Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 545 (1999)),
  G^{-1} = diag(lam)^{-1/2} U^H L_Z^H takes S and Z to the same diagonal
  matrix diag(lam), and W^{-1} = G^{-H} G^{-1} is the inverse NT scaling
  point (W Z W = S). The order and phases of the eigenvectors change
  neither W^{-1} nor the spectra of the scaled directions.
- Newton system. dZ + W^{-1} dS W^{-1} = R with A*(dZ) = -(c + A*(Z))
  gives H dx = A*(R) + c + A*(Z), where H_pq = sum over blocks of
  Re Tr[W^{-1} E_p W^{-1} E_q] (with E^{T_B} on blocks 3 and 4) is the
  Hessian form below with G = W^{-1}. H is built and factored once per
  iteration and solved twice.
- Predictor: R = -Z, no centering; its right-hand side is c. Its step
  lengths a_p, a_d set sigma = (<S + a_p dS, Z + a_d dZ> / <S, Z>)^3.
- Corrector: in the scaled space, lam o (dS^ + dZ^) = sigma mu I - lam^2
  - dS_a^ o dZ_a^, with o the Jordan product (AB+BA)/2 and dS_a^, dZ_a^
  the scaled predictor directions.
- Step: 0.95 of the distance to the boundary, separately for x and Z,
  from the eigenvalues of the scaled directions diag(lam)^{-1/2} dS^
  diag(lam)^{-1/2} (likewise dZ^); the predictor's scaled dZ^ is -I
  minus its dS^, so one spectrum gives both. There is no line search.

Stop. The value is U(B) of B = Z4 - Z3, read straight off the dual
iterate (see Certificate). It is checked once <S, Z> <= gap_tol, and the
solve stops when U(B) - Re Tr[M X] <= gap_tol/10. A solve that runs out
of ``max_newton`` iterations, loses positive definiteness (an iterate, or
the Newton system after its ridge retries) or stalls (<S, Z> and the
residual negligible while the gap stays open) ends at its last iterate:
it returns when that iterate certifies ``gap_tol``, and raises
SolverError carrying U(B) and the gap otherwise.

Buffers. Building and factoring a canonical Newton system takes n x n
arrays of 0.5 MB at D = 16: the Hessian, the scratch slabs its assembly
writes and the F-ordered matrix that dpotrf factors in place. glibc
serves arrays that large with fresh mmap pages unless an earlier large
free has raised its threshold, so each solve allocates the Hessian, its
scratch (two real n x n slabs for the complex field, row slabs for the
real field) and the factor once and fills them in place. The factor
takes no part in the assembly.

Coordinates. Let J be the smallest real subspace of Hermitian matrices
that contains I and X and is closed under the Jordan product AB+BA and
under T_B (Permenter & Parrilo, Math. Program. 2020). The iteration runs
in an orthonormal basis E_1..E_k of J:

- J is a Jordan algebra, so it holds the inverse and square root of each
  of its positive definite elements and the product A B A of any two of
  its elements; it holds A^{T_B} with A;
- so when M and the Z blocks lie in J, so do the four slacks, the NT
  scaling points W = S^{1/2} (S^{1/2} Z S^{1/2})^{-1/2} S^{1/2}, S^{-1},
  W^{-1} dS W^{-1} for dS in J, the corrector term and the full-space
  dual residual X - (Z2 - Z1 + (Z4 - Z3)^{T_B});
- hence the full-space Newton direction from a point of J is the
  direction solved in J, and from x = I/2, Z = I the full-space
  iterates never leave J.

Rounding does move Z off J, where the residual read in J coordinates
cannot see it, so each new Z is projected back onto J.

The Hessian in these coordinates is H_pq = sum over blocks of
Re Tr[G E_p G E_q] (with E^{T_B} on the two transposed blocks), built
from the k products G E G at O(k D^3) cost. When J outgrows max(n/8, 8)
of the n coordinates (the generic case, where J is the whole space), the
closure stops growing and the canonical basis of Hermitian (or real
symmetric, when X is real) matrices is used instead, and its Hessian is
a dense array expression with no basis map (for the real field, the
symmetric Kronecker product of Alizadeh, Haeberly & Overton, SIAM J.
Optim. 1998):

- complex field: the real part of the sum of the Kronecker products
  conj(G) (x) G at (i,j),(k,l) less its imaginary part at (i,j),(l,k),
  written straight in that layout as broadcast real products of the
  rows of G and of i G (inner dimension 4 per block pair);
- real field: row slabs of outer products of rows of G, read at the
  upper-triangle positions.

The partial transpose permutes canonical coordinates, so the transposed
blocks enter as an axis permutation or as transposed positions.

J is grown in generations of candidates that lie in it, projector-driven
(one eigh and one pivoted QR each), with rank decisions made on
X / ||X||_F since cX has the closure of X; with probability 1 the growth
stops at J itself (``_jordan_closure`` gives the argument).

J is found numerically, so a wrong rank decision could give a subspace
the iterates leave. Nothing in the reported value rests on J, though:
the bound is checked in the original D x D coordinates.

Certificate. For every Hermitian B and every M with 0 <= M <= I and
0 <= M^{T_B} <= I,

    Re Tr[M X] = Re Tr[M (X - B^{T_B})] + Re Tr[M^{T_B} B]
               <= Tr[(X - B^{T_B})_+] + Tr[B_+] =: U(B),

so U(B) bounds the optimum from above whatever B is: a poor B gives a
loose bound, never a wrong one (minimizing U over B is the Lagrange dual
of the PPT relaxation; cf. Matthews, Wehner & Winter, Commun. Math.
Phys. 291, 813 (2009)). For a dual-feasible Z, B = Z4 - Z3 gives
X - B^{T_B} = Z2 - Z1 and U(B) <= Tr Z2 + Tr Z4; the solver takes B from
its last dual iterate, feasible or not. ``SDPResult.value`` is U(B)
from two ``eigvalsh`` calls plus a rounding allowance of D^2 eps ||A||_F
for each of the two matrices A: with eps = 2u and ||A||_F >= ||A||_2, it
covers an error of 2 D u ||A||_2 in each of the D eigenvalues, the order
of the backward error of a Hermitian eigensolver (the allowance follows
Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 46 (2007)).

No external solver is used; numpy/scipy provide dense linear algebra
only. scipy loads at the first solve, not with this module: the
closure's pivoted QR and the Newton system's dpotrf/dpotrs are the
package's only scipy calls, so a process that never solves never pays
for importing it. The total dimension is capped at D <= 64 because a
generic pair takes the canonical coordinates, whose Newton system has
n^2 entries for n = D^2 (real field: D(D+1)/2) coordinates: 134 MB at
D = 64 for the complex field, and 16 times that at D = 128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SolverError
from .tolerances import TOL

MAX_TOTAL_DIM = 64

# Rank decisions of the Jordan closure, on candidates of unit Frobenius
# norm. On the composed pairs (lambda up to 0.9999), the Werner pairs and
# their k-copy powers, with X scaled by 1e-7 to 1e3, new directions left
# residuals >= 3.4e-2 and round-off left residuals <= 3e-10; on random
# pairs up to D=16, new directions left residuals >= 2.9e-3.
_CLOSURE_TOL = 1e-6
# Eigenvalues closer than this, relative to the spectral radius, share a
# spectral projector.
_EIGEN_MERGE = 1e-8
# Bound on the entries of one row slab of a real-field Hessian; 2^15 to
# 2^17 timed fastest at D=36 and D=64 (the slab stays in cache).
_SLAB_ENTRIES = 1 << 16
# Factors 1 and i: the real and imaginary parts of G and of i G, stacked
# by one product, hold the operands of the complex-field Hessian.
_ONE_I = np.array([1.0, 1j]).reshape(2, 1, 1, 1, 1)
# Fraction of the step to the boundary that an iteration takes.
_STEP_TO_BOUNDARY = 0.95


@dataclass(frozen=True, eq=False)
class SDPResult:
    """Certified outcome of one solve.

    ``value`` = U(``certificate``) plus its rounding allowance is a
    guaranteed upper bound on the true optimum, which anyone can check
    with two eigenvalue sums (see the module docstring); ``primal`` is
    attained by the feasible ``optimizer``, and ``gap`` = value - primal.
    ``coords`` is the number of real coordinates the iteration used: the
    dimension of the Jordan closure, or the full dimension;
    ``newton_steps`` is the number of iterations, one Newton system each.
    Equality is identity.
    """

    value: float
    primal: float
    gap: float
    newton_steps: int
    coords: int
    optimizer: np.ndarray
    certificate: np.ndarray


@dataclass(frozen=True, eq=False)
class _NewtonBuffers:
    """Work arrays for the Newton systems of one solve: the F-ordered
    Cholesky factor, and for canonical coordinates the Hessian and the
    scratch its assembly fills (see the module docstring)."""

    factor: np.ndarray
    hess: np.ndarray | None = None
    scratch: tuple = ()


class _Basis:
    """Orthonormal real coordinates for all Hermitian (or real symmetric)
    matrices. ``mat`` maps (..., n) coordinates to (..., D, D) matrices
    and ``coords`` maps back, so both also convert stacks.

    Complex field: x is a real D x D array (n = D^2) and
    M(x) = (x + x^T)/2 + i (x - x^T)/2, so ||M||_F = ||x||. Real field:
    the diagonal, then sqrt(2) times the upper triangle, so
    M(x) = sum_p x_p s_p (e_{I_p J_p} + e_{J_p I_p}) with s_p = 1/2 on
    the diagonal and 1/sqrt(2) above it.
    """

    def __init__(self, dim_a: int, dim_b: int, complex_field: bool):
        self.dim_a, self.dim_b = dim_a, dim_b
        d = self.dim = dim_a * dim_b
        self.complex_field = complex_field
        if complex_field:
            self.n = d * d
            return
        iu, ju = np.triu_indices(d, 1)
        self._rows = np.concatenate([np.arange(d), iu])
        self._cols = np.concatenate([np.arange(d), ju])
        self.n = self._rows.size
        self._scale = np.concatenate([np.full(d, 0.5), np.full(iu.size, np.sqrt(0.5))])
        # positions of the same entries after the partial transpose
        a1, a2 = np.divmod(self._rows, dim_b)
        b1, b2 = np.divmod(self._cols, dim_b)
        self._rows_pt, self._cols_pt = a1 * dim_b + b2, b1 * dim_b + a2
        # flat slab positions (I_q, J_q), then (J_q, I_q)
        self._at = np.concatenate([self._rows * d + self._cols,
                                   self._cols * d + self._rows])

    def mat(self, x: np.ndarray) -> np.ndarray:
        d = self.dim
        if self.complex_field:
            x = x.reshape(x.shape[:-1] + (d, d))
            xt = x.swapaxes(-1, -2)
            return 0.5 * ((x + xt) + 1j * (x - xt))
        m = np.zeros(x.shape[:-1] + (d, d))
        m[..., self._rows, self._cols] = x * self._scale
        return m + m.swapaxes(-1, -2)

    def coords(self, g: np.ndarray) -> np.ndarray:
        """Real coordinates of a Hermitian matrix (also the adjoint map
        used for gradients): x_p = Re Tr[g M(e_p)]."""
        if self.complex_field:
            r, i = g.real, g.imag
            x = 0.5 * ((r + i) + (r - i).swapaxes(-1, -2))
            return x.reshape(g.shape[:-2] + (self.n,))
        return self._scale * (g[..., self._rows, self._cols]
                              + g[..., self._cols, self._rows])

    def project(self, g: np.ndarray) -> np.ndarray:
        """``mat(coords(g))``: the Hermitian (real field: symmetric) part."""
        gt = g.swapaxes(-1, -2)
        return 0.5 * (g + (gt.conj() if self.complex_field else gt))

    def newton_buffers(self) -> _NewtonBuffers:
        n, d = self.n, self.dim
        factor = np.empty((n, n), order="F")
        if self.complex_field:
            # the Hessian and two scratch slabs, as one (3, D, D, D, D) block
            block = np.empty((3,) + (d,) * 4)
            return _NewtonBuffers(factor, block[0].reshape(n, n), (block,))
        # two slabs, a product and the slab rows read at both positions
        rows = min(max(1, _SLAB_ENTRIES // (d * d)), n)
        return _NewtonBuffers(factor, np.empty((n, n)),
                              (*np.empty((3, rows, d, d)), np.empty((rows, 2 * n))))

    def hessian(self, gs, work: _NewtonBuffers | None = None) -> np.ndarray:
        """H_pq = sum over blocks of Re Tr[G M(e_p) G M(e_q)], with the
        partial transposes of M(e_p), M(e_q) on blocks 3 and 4. Built in
        the buffers of ``work`` (from ``newton_buffers``) and returned as
        ``work.hess``; without them, in fresh ones."""
        work = work or self.newton_buffers()
        if self.complex_field:
            return self._hessian_complex(gs, work)
        g1, g2, g3, g4 = gs
        d, n = self.dim, self.n
        rows, cols = self._rows, self._cols
        rows_pt, cols_pt = self._rows_pt, self._cols_pt
        split = (-1, self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        # H_pq = 2 s_p s_q sum_G (G[I_p,I_q] G[J_p,J_q] + G[I_p,J_q] G[J_p,I_q]):
        # row p is the sum of outer(G[I_p], G[J_p]), read at (I_q, J_q)
        # and at (J_q, I_q); blocks 3 and 4 use the transposed positions,
        # read through the partial transpose of their slab
        h = work.hess
        slabs, slabs_pt, prods, reads = work.scratch
        step = len(slabs)
        for lo in range(0, n, step):
            p = slice(lo, lo + step)
            r = len(rows[p])
            slab, slab_pt, prod, both = slabs[:r], slabs_pt[:r], prods[:r], reads[:r]
            np.multiply(g1[rows[p], :, None], g1[cols[p], None, :], out=slab)
            slab += np.multiply(g2[rows[p], :, None], g2[cols[p], None, :], out=prod)
            np.multiply(g3[rows_pt[p], :, None], g3[cols_pt[p], None, :], out=slab_pt)
            slab_pt += np.multiply(g4[rows_pt[p], :, None], g4[cols_pt[p], None, :],
                                   out=prod)
            slab5 = slab.reshape(split)
            slab5 += slab_pt.reshape(split).swapaxes(-3, -1)
            np.take(slab.reshape(r, d * d), self._at, axis=1, out=both)
            np.add(both[:, :n], both[:, n:], out=h[p])
            scale = np.multiply.outer(self._scale[p], self._scale, out=both[:, :n])
            scale *= 2.0
            h[p] *= scale
        return h

    def _hessian_complex(self, gs, work: _NewtonBuffers) -> np.ndarray:
        # With G = R + iJ, a block pair adds to H[ij,kl]
        #   sum_G R_ik R_jl + J_ik J_jl + J_il R_jk - R_il J_jk
        #   = sum_m P[i,k,m] Q[j,m,l] + P'[j,k,m] Q[i,m,l],
        # where m runs over the pair's two blocks and their real and
        # imaginary parts, P[i] holds the rows G[i,k] (P'[j] those of
        # i G) and Q[j] = P[j]^T. Each term is a broadcast product with
        # inner dimension 4 written in the final (i,j),(k,l) layout: the
        # first terms of both pairs as one product into the Hessian and
        # the transposed pair's slab, the second terms through the last
        # slab. The partial transpose permutes the coordinates, so the
        # transposed pair enters through an axis permutation.
        d = self.dim
        g = np.asarray(gs).reshape(2, 2, d, d)
        p = np.empty((2, 2, d, d, 2), dtype=np.complex128)
        np.multiply(g.transpose(0, 2, 3, 1), _ONE_I, out=p)
        # p[s, pair, i, k, (block, part)]: s = 0 for G, 1 for i G
        p = p.view(np.float64)
        q = p[0].swapaxes(2, 3).copy()
        (block,) = work.scratch
        np.matmul(p[0, :, :, None], q[:, None], out=block[:2])
        h4, pair_pt, term = block[0], block[1], block[2]
        h4 += np.matmul(p[1, 0], q[0, :, None], out=term)
        pair_pt += np.matmul(p[1, 1], q[1, :, None], out=term)
        h8 = h4.reshape((self.dim_a, self.dim_b) * 4)
        h8 += _pt_axes(pair_pt, self.dim_a, self.dim_b)
        return work.hess


def _pt_axes(t4: np.ndarray, da: int, db: int) -> np.ndarray:
    """An order-4 complex-field Hessian tensor with the B indices swapped
    within each coordinate pair (how the partial transpose permutes the
    coordinates), as an order-8 view."""
    t8 = t4.reshape((da, db) * 4)
    return t8.transpose(0, 3, 2, 1, 4, 7, 6, 5)


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
        d2 = self.dim ** 2
        return np.real(g.reshape(g.shape[:-2] + (d2,)) @ self._adj[:d2])

    def project(self, g: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the span of the basis."""
        return self.mat(self.coords(g))

    def newton_buffers(self) -> _NewtonBuffers:
        return _NewtonBuffers(np.empty((self.n, self.n), order="F"))

    def hessian(self, gs, work: _NewtonBuffers | None = None) -> np.ndarray:
        """The k x k Hessian; it is small and takes no buffer from
        ``work``."""
        g1, g2, g3, g4 = gs
        y = g1 @ self.e @ g1 + g2 @ self.e @ g2
        y_pt = g3 @ self.e_pt @ g3 + g4 @ self.e_pt @ g4
        d2 = self.dim ** 2
        h = np.concatenate([y.reshape(self.n, d2), y_pt.reshape(self.n, d2)],
                           axis=1) @ self._adj
        return np.real(h)


def _spectral_projectors(a: np.ndarray) -> np.ndarray:
    """Projectors onto the eigenspaces of the Hermitian matrix ``a``, as
    a stack; empty when it has fewer than three distinct eigenvalues
    (then they lie in span{I, a})."""
    w, v = np.linalg.eigh(a)
    cuts = np.flatnonzero(np.diff(w) > _EIGEN_MERGE * max(-w[0], w[-1])) + 1
    if cuts.size < 2:
        return np.empty((0,) + a.shape, a.dtype)
    return np.stack([v[:, g] @ v[:, g].conj().T
                     for g in np.split(np.arange(w.size), cuts)])


def _jordan_closure(x_mat: np.ndarray, canon: _Basis) -> _ClosureBasis | None:
    """Orthonormal basis of the smallest subspace that contains I and
    ``x_mat`` and is closed under the Jordan product and the partial
    transpose; None once it would grow past max(n // 8, 8) elements or
    fill the space, so that a generic pair goes to the canonical
    coordinates without growing the closure to k = n (structured pairs
    stay far below: 3 for Werner pairs, 15/21 for the composed pairs).
    Giving up early is exact; it only chooses the slower coordinates.

    Elements are rows of canonical coordinates. A generation's
    candidates, scaled to unit norm, are split by one pivoted QR after
    the basis is projected out, and directions above _CLOSURE_TOL join
    the basis. The first generation is X / ||X||_F (0 for X = 0), its
    partial transpose, the spectral projectors of both and their partial
    transposes; each later one is the spectral projectors of one seeded
    random element r of the current span V and the partial transposes of
    the elements the previous generation added. All of them lie in the
    closure J. A generation that adds nothing leaves V closed under the
    partial transpose and holding r^2 (from the projectors of r, or from
    I and r). The r in V with r^2 in V form an algebraic subset of V,
    proper unless V is closed under squaring; so with probability 1 V is
    closed under squaring, hence under AB + BA = (A+B)^2 - A^2 - B^2,
    and V = J.
    """
    from scipy.linalg import qr

    d, n = canon.dim, canon.n
    give_up = min(max(n // 8, 8), n - 1)
    rng = np.random.default_rng(0)
    basis = canon.coords(np.eye(d))[None] / np.sqrt(d)

    def pt(m):
        return _pt_mat(m, canon.dim_a, canon.dim_b)

    x_unit = x_mat / (np.linalg.norm(x_mat) or 1.0)
    x_pt = pt(x_unit)
    proj = np.concatenate([_spectral_projectors(x_unit), _spectral_projectors(x_pt)])
    cands = np.concatenate([x_unit[None], x_pt[None], proj, pt(proj)])
    while True:
        c = canon.coords(cands)
        c /= np.maximum(np.linalg.norm(c, axis=1, keepdims=True), 1.0)
        c -= (c @ basis.T) @ basis
        q, tri, _ = qr(c.T, mode="economic", pivoting=True, check_finite=False)
        rank = int(np.count_nonzero(np.abs(np.diag(tri)) > _CLOSURE_TOL))
        if rank == 0:
            return _ClosureBasis(canon.mat(basis), canon.dim_a, canon.dim_b)
        if len(basis) + rank > give_up:
            return None
        new = q[:, :rank].T
        new -= (new @ basis.T) @ basis
        basis = np.vstack([basis, np.linalg.qr(new.T)[0].T])
        e = canon.mat(basis)
        mixed = np.tensordot(rng.standard_normal(len(e)), e, 1)
        cands = np.concatenate([_spectral_projectors(mixed), pt(e[-rank:])])


def _chol_blocks(m: np.ndarray, mt: np.ndarray, eye: np.ndarray):
    """Cholesky factors of the four slack blocks M, I-M, M^{T_B},
    I-M^{T_B} as one (4, D, D) stack, or None if any block is not
    positive definite."""
    try:
        return np.linalg.cholesky(np.stack((m, eye - m, mt, eye - mt)))
    except np.linalg.LinAlgError:
        return None


# LAPACK's Cholesky factor and solve through scipy, imported at the first
# call. They stay module attributes, so that a caller can wrap them.
def dpotrf(*args, **kwargs):
    from scipy.linalg.lapack import dpotrf
    return dpotrf(*args, **kwargs)


def dpotrs(*args, **kwargs):
    from scipy.linalg.lapack import dpotrs
    return dpotrs(*args, **kwargs)


def _newton_factor(hess: np.ndarray, factor: np.ndarray):
    """Cholesky factor of the Newton system ``hess``, made in place in
    the F-ordered buffer ``factor``; a failed attempt is retried with a
    growing ridge on the diagonal, and None is returned after four."""
    n = len(hess)
    ridge = 0.0
    for _ in range(4):
        # dpotrf factors the buffer in place; hess stays for a retry
        np.copyto(factor, hess)
        if ridge:
            factor.flat[::n + 1] += ridge
        chol, info = dpotrf(factor, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return chol
        ridge = max(ridge * 100.0, 1e-10 * float(np.trace(hess)) / n)
    return None


def _positive_int(value) -> bool:
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= 1)


def _finite_above(value, floor: float) -> bool:
    try:
        return math.isfinite(value) and value > floor
    except TypeError:
        return False


def _dual_bound(x_mat: np.ndarray, b: np.ndarray, dim_a: int, dim_b: int) -> float:
    """U(B) = Tr[(X - B^{T_B})_+] + Tr[B_+] for a Hermitian ``b``, plus
    the rounding allowance D^2 eps ||A||_F of each eigenvalue sum."""
    d = dim_a * dim_b
    total = 0.0
    for a in ((x_mat + x_mat.conj().T) / 2.0 - _pt_mat(b, dim_a, dim_b), b):
        w = np.linalg.eigvalsh(a)
        total += float(w[w > 0.0].sum())
        total += d * d * float(np.finfo(float).eps) * float(np.linalg.norm(a))
    return total


def _nt_scaling(chol_s: np.ndarray, chol_z: np.ndarray):
    """Nesterov-Todd scaling of the four blocks from the Cholesky factors
    L_S, L_Z of S and Z: with L_Z^H S L_Z = A A^H = U diag(lam^2) U^H for
    A = L_Z^H L_S, returns T = U^H L_Z^H and lam. G^{-1} = diag(lam)^{-1/2} T
    maps both S and Z to diag(lam) (G^{-1} S G^{-H} = G^H Z G), and
    W^{-1} = T^H diag(lam)^{-1} T. Eigenvalues that rounding leaves below
    0 give lam = 0, which the caller reads as a lost positive definiteness."""
    lz_h = chol_z.conj().swapaxes(-1, -2)
    a = lz_h @ chol_s
    w, u = np.linalg.eigh(a @ a.conj().swapaxes(-1, -2))
    return u.conj().swapaxes(-1, -2) @ lz_h, np.sqrt(np.maximum(w, 0.0))


def _step_lengths(p_s: np.ndarray, p_z: np.ndarray | None) -> tuple:
    """0.95 of the steps to the boundary along the scaled primal and dual
    directions: for each, the largest a <= 1 with I + (a / 0.95) p
    positive semidefinite in every block. ``p_z`` None stands for the
    predictor's dual direction -I - p_s, whose smallest eigenvalue is
    -1 minus the largest of p_s, so one spectrum gives both steps."""
    if p_z is None:
        w = np.linalg.eigvalsh(p_s)
        low = np.array([w[:, 0].min(), -1.0 - w[:, -1].max()])
    else:
        low = np.linalg.eigvalsh(np.stack((p_s, p_z)))[..., 0].min(axis=1)
    return tuple(1.0 if w >= -_STEP_TO_BOUNDARY else _STEP_TO_BOUNDARY / -w
                 for w in low.tolist())


def solve_ppt_two_outcome(x_mat: np.ndarray, dim_a: int, dim_b: int,
                          gap_tol: float = TOL.sdp_gap,
                          max_newton: int = 800) -> SDPResult:
    """Run the primal-dual solve. Raises SolverError on factor dimensions
    that are not integers >= 1 or on dimension overflow, on a ``gap_tol``
    that is not finite and positive or a ``max_newton`` (the most
    iterations, one Newton system each) that is not an integer >= 1, and
    when the certified gap of the last iterate exceeds ``gap_tol``: after
    ``max_newton`` iterations, when an iterate or its Newton system stops
    being positive definite, or when the iterates stall (these carry the
    certified value and its gap)."""
    if not (_positive_int(dim_a) and _positive_int(dim_b)):
        raise SolverError(f"factor dimensions must be integers >= 1, got {dim_a!r}, {dim_b!r}")
    d = dim_a * dim_b
    x_mat = np.asarray(x_mat, dtype=np.complex128)
    if x_mat.shape != (d, d):
        raise SolverError(f"objective shape {x_mat.shape} != ({d}, {d})")
    if not np.isfinite(x_mat).all():
        raise NumericError("SDP objective matrix must be finite")
    if d > MAX_TOTAL_DIM:
        raise SolverError(
            f"total dimension {d} exceeds the bundled solver limit {MAX_TOTAL_DIM}")
    if not _finite_above(gap_tol, 0.0):
        raise SolverError(f"gap tolerance must be finite and positive, got {gap_tol}")
    if not _positive_int(max_newton):
        raise SolverError(f"max_newton must be an integer >= 1, got {max_newton!r}")
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
    eye = np.eye(d, dtype=x_work.dtype)
    c_obj = basis.coords(x_work)
    nu = 4.0 * d
    signs = np.array([1.0, -1.0, 1.0, -1.0]).reshape(4, 1, 1)

    def pt(m):
        return _pt_mat(m, dim_a, dim_b)

    def scaled(dx, t, th, inv_outer):
        # T A(dx) T^H / (lam_i lam_j) per block, for A(dx) the change of the
        # slacks M, I-M, M^T_B, I-M^T_B: each block pair of T takes dM or
        # dM^T_B, and inv_outer carries the sign of the slack
        dm = basis.mat(dx)
        pairs = (2, 2, d, d)
        prod = t.reshape(pairs) @ np.stack((dm, pt(dm)))[:, None] @ th.reshape(pairs)
        return prod.reshape(4, d, d) * inv_outer

    def adjoint(y):
        # A*(y), so that c + A*(Z) is the dual residual
        return basis.coords(y[0] - y[1] + pt(y[2] - y[3]))

    def certify(z):
        b = z[3] - z[2]
        b = (b + b.conj().T) / 2.0
        return _dual_bound(x_work, b, dim_a, dim_b), b

    x = basis.coords(eye / 2.0)
    m = basis.mat(x)
    chol_s = _chol_blocks(m, pt(m), eye)
    z = np.stack((eye,) * 4)
    chol_z = z.copy()
    work = basis.newton_buffers()
    steps = 0
    failure = None
    while failure is None:
        try:
            t, lam = _nt_scaling(chol_s, chol_z)
        except np.linalg.LinAlgError:
            lam = None
        if lam is None or not (np.isfinite(lam).all() and lam.min() > 0.0):
            failure = "iterate lost positive definiteness"
            break
        complementarity = float(np.square(lam).sum())
        residual = c_obj + adjoint(z)
        if complementarity <= gap_tol:
            gap = certify(z)[0] - float(c_obj @ x)
            if gap <= gap_tol / 10.0:
                break
            # the gap is at most <S, Z> + 2 sqrt(D) ||residual|| when the
            # coordinates hold the objective; once both are negligible,
            # further iterations cannot close it
            if (complementarity + 2.0 * math.sqrt(d) * float(np.linalg.norm(residual))
                    <= gap_tol / 100.0):
                failure = "iterates stalled"
                break
        if steps >= max_newton:
            failure = f"no convergence within {max_newton} iterations"
            break
        steps += 1
        th = t.conj().swapaxes(-1, -2)
        root = np.sqrt(lam)
        y = t / root[:, :, None]
        chol = _newton_factor(basis.hessian(y.conj().swapaxes(-1, -2) @ y, work),
                              work.factor)
        if chol is None:
            failure = "Newton system factorization failed"
            break
        inv_outer = signs / (lam[:, :, None] * lam[:, None, :])
        root_outer = root[:, :, None] * root[:, None, :]
        try:
            # predictor (sigma = 0): its right-hand side A*(-Z) + residual is
            # c, and its scaled dZ^ is -diag(lam) - dS^
            dx, _ = dpotrs(chol, c_obj, lower=1)
            p_s = scaled(dx, t, th, inv_outer)
            a_p, a_d = _step_lengths(p_s, None)
            ds_hat = root_outer * p_s
            lam_diag = lam[:, :, None] * eye
            dz_hat = -lam_diag - ds_hat
            reached = float(np.real(np.sum((lam_diag + a_p * ds_hat)
                                           * (lam_diag + a_d * dz_hat).conj())))
            sigma = min(max(reached / complementarity, 0.0), 1.0) ** 3

            # corrector: in the scaled space, Lambda o (dS + dZ) =
            # sigma mu I - Lambda^2 - dS_a o dZ_a, with o the Jordan product
            corr = ds_hat @ dz_hat
            corr = (corr + corr.conj().swapaxes(-1, -2)) / 2.0
            q = corr * (-2.0 / ((lam[:, :, None] + lam[:, None, :]) * root_outer))
            q.reshape(4, d * d)[:, ::d + 1] += (sigma * complementarity / nu
                                                / np.square(lam) - 1.0)
            dx, _ = dpotrs(chol, residual + adjoint(th @ q @ t), lower=1)
            p_s = scaled(dx, t, th, inv_outer)
            p_z = q - p_s
            a_p, a_d = _step_lengths(p_s, p_z)
            x_next = x + a_p * dx
            # Z stays in the span of the coordinates in exact arithmetic;
            # projecting drops the rounding outside it, which the residual
            # cannot see
            z_next = basis.project(z + a_d * (th @ p_z @ t))
            m = basis.mat(x_next)
            chol_s = _chol_blocks(m, pt(m), eye)
            chol_z = np.linalg.cholesky(z_next)
        except np.linalg.LinAlgError:
            chol_s = None
        if chol_s is None or not (np.isfinite(chol_s).all()
                                  and np.isfinite(chol_z).all()):
            failure = "iterate lost positive definiteness"
        else:
            x, z = x_next, z_next

    value, b = certify(z)
    primal = float(c_obj @ x)
    gap = value - primal
    if not gap <= gap_tol:
        raise SolverError(f"certified gap {gap:.3g} exceeds {gap_tol:.3g}"
                          + (f" ({failure})" if failure else ""),
                          value=value, gap=gap)
    return SDPResult(value=value, primal=primal, gap=gap,
                     newton_steps=steps, coords=basis.n,
                     optimizer=np.asarray(basis.mat(x), dtype=np.complex128),
                     certificate=np.asarray(b, dtype=np.complex128))
