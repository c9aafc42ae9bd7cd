"""Bundled primal-dual interior-point solver for the binary PPT SDP.

Solves, for a Hermitian matrix X on C^{dA} (x) C^{dB},

    maximize    Re Tr[M X]
    subject to  0 <= M <= I,   0 <= M^{T_B} <= I,

where T_B transposes the B factor, together with its dual

    minimize    Tr Z2 + Tr Z4
    subject to  Z2 - Z1 + (Z4 - Z3)^{T_B} = X,   Z1, .., Z4 >= 0.

M = M(x) has real coordinates x. The four slack blocks
S = F(x) = (M, I-M, M^{T_B}, I-M^{T_B}) are one (4, D, D) stack (for a
structured pair, a (4, B, s, s) stack of small blocks; see Blocks),
always recomputed from x, and so is the dual Z. The method starts
infeasible: x at I/2, strictly inside the primal set, and Z at I, whose
dual residual c + A*(Z) (in coordinates, with c the coordinates of X and
A* the adjoint of dx -> dS) is c. Each iteration drives both the
residual and <S, Z> = nu mu (nu = 4D) down.

Iteration: one Nesterov-Todd (NT) step with Mehrotra's predictor-corrector
(Todd, Toh & Tutuncu, SIAM J. Optim. 8, 769 (1998); Mehrotra, SIAM J.
Optim. 2, 575 (1992)).

- Scaling. From the Cholesky factors S = L_S L_S^H, Z = L_Z L_Z^H of
  each block and the eigendecomposition L_Z^H S L_Z = U diag(lam^2) U^H
  (one batched Cholesky factorization of the eight blocks of S and Z,
  made when the iterate is accepted, and one batched eigh, the form of
  Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 545 (1999)),
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
iterate (see Certificate). The gap contract is relative above 1: a gap
counts as closed at 1e-6 max(1, |U(B)|) (1e-6 is TOL.sdp_gap). U(B) is
checked once <S, Z> <= 1e-6 max(1, |Re Tr[M X]|) (the primal value
standing in for U(B) until it is known), and the solve stops when
U(B) - Re Tr[M X] <= 1e-7 max(1, |U(B)|); the check's U(B) and B are
the reported ones, not computed again. A solve that runs out of its 800
iterations (_MAX_NEWTON), loses positive definiteness (an iterate, or
the Newton system after its ridge retries) or stalls (<S, Z> and the
residual negligible while the gap stays open) ends at its last iterate:
it returns when that iterate's gap is at most 1e-6 max(1, |U(B)|), and
raises SolverError carrying U(B) and the gap otherwise. An objective of
trace norm at most 2, as every bracket's rho0 - rho1 is, has |U(B)| <= 1
at the optimum, so there the contract is the absolute gap 1e-6.

Buffers. Building and factoring a canonical Newton system takes n x n
arrays of 0.5 MB at D = 16: the Hessian, the scratch slabs its assembly
writes and the F-ordered matrix that dpotrf factors in place. glibc
serves arrays that large with fresh mmap pages unless an earlier large
free has raised its threshold, so none of them is allocated per
iteration. A basis lives for one solve and owns the Hessian and its
scratch (two real n x n slabs for the complex field, row slabs for the
real field): ``_Basis.hessian`` makes them at its first call and refills
them on later calls. The solve owns the factor, which takes no part in
the assembly, and ``_load_lapack`` binds dpotrf and dpotrs.

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
from the k products G E G on the small blocks of J (see Blocks). When J
outgrows max(n/8, 8) of the n coordinates (the generic case, where J is
the whole space), the closure stops growing and the canonical basis of
Hermitian (or real symmetric, when X is real) matrices is used instead,
and its Hessian is a dense array expression with no basis map (for the
real field, the symmetric Kronecker product of Alizadeh, Haeberly &
Overton, SIAM J. Optim. 1998):

- complex field: the real part of the sum of the Kronecker products
  conj(G) (x) G at (i,j),(k,l) less its imaginary part at (i,j),(l,k),
  written straight in that layout as broadcast real products of the
  rows of G and of i G (inner dimension 4 per block pair);
- real field: row slabs of outer products of rows of G, read at the
  upper-triangle positions.

The partial transpose permutes canonical coordinates, so the transposed
blocks enter as an axis permutation or as transposed positions.

J is grown in D x D matrix space, in generations of candidates that lie
in it, projector-driven: each generation is one eigh of a random element
and one eigendecomposition of the Gram matrix Re Tr[E_i E_j] of its
candidates, whose eigenvalues above _CLOSURE_TOL^2 give the new
directions, and a second Gram pass that restores their orthonormality
(CholeskyQR2; Fukaya et al., ScalA 2014). Rank decisions are made on
X / ||X||_F since cX has the closure of X; with probability 1 the
growth stops at J itself (``_jordan_closure`` gives the argument).
Before the first generation, one count bounds dim J from below: J holds
the r_X spectral projectors P_i of X, the r_G projectors Q_j of X^{T_B}
and the partial transposes P_i^{T_B}, and the dimension of their span
is r_X plus the rank of the Schur complement of the P_i in the Gram
matrix of the P_i, the Q_j and the first few P_i^{T_B}, whose entries
are read from the eigenvectors of X and X^{T_B} with no D x D candidate
stack. The count takes as many transposes as would pass max(n/8, 8)
if the P_i and Q_j met only in I and each transpose added a dimension,
and the closure gives up when it passes: generic pairs with
5 <= D <= 15 (real field: up to D = 30) with no transpose, generic
complex D = 4 and D = 16 pairs with two.

J is found numerically, so a wrong rank decision could give a subspace
the iterates leave. Nothing in the reported value rests on J, though:
the bound is checked in the original D x D coordinates.

Blocks. J and the partial transposes of its elements generate a
*-algebra, so one unitary q splits every element E of J at once:
q^H E q = (+)_i A_i (x) I_{m_i}, with blocks A_i of size n_i and
multiplicities m_i (Murota, Kanno, Kojima & Kojima, Japan J. Indust.
Appl. Math. 27 (2010); de Klerk, Dobre & Pasechnik, Math. Program. 129
(2011)). Every iterate lies in J, so the iteration runs on the blocks:

- Decomposition. The eigenspaces of a seeded random element of J merge
  into one block when a chain of elements E or E^{T_B} couples them,
  read from batched products V^H E V (V its eigenvectors, no loop over
  pairs of eigenspaces). Within a block, the bases of the eigenspaces
  are aligned by the polar factor of their coupling in a second random
  element. Real closures give a real q.
- Check. The form is kept only if q^H q = I within 1e-12 and it
  rebuilds every E and E^{T_B} within 1e-10. Otherwise, and when the
  blocks would be no smaller than D x D, the solve runs as the one-block
  case: q = I, one D x D block of weight 1.
- Stack. The blocks form one (B, s, s) stack, s the least common
  multiple of the n_i (the closures of composed, Werner and k-copy
  pairs have n_i = 1 or 2). Block i enters as I_{s/n_i} (x) A_i at
  weight m_i n_i / s: a scalar block of a 2 x 2 stack is diag(a, a) at
  half weight. This is exact, since the copies of a block evolve
  identically, and nu stays 4D. The weights enter <S, Z>, the
  predictor's reached <S, Z>, the Hessian, the adjoint and the
  projection of Z.
- No filler. A block is never padded to size s with filler entries:
  a filler eigenvalue equal to a true one lets eigh mix the two, after
  which no mask separates them in the scaled frame.
- Values. The certificate B = Z4 - Z3 is mapped back to D x D before
  U(B) is checked, and the optimizer is M(x) in D x D.

Composed pairs at D = 36 split into three 2 x 2 blocks and twelve
scalars, Werner pairs into three scalars, k-copy pairs into scalars
only (their PPT SDP is a linear program). Generic pairs keep the
canonical coordinates.

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
only. The Newton system's dpotrf/dpotrs are the package's only scipy
calls (the closure uses numpy alone). ``_load_lapack`` binds them once,
at the first solve, not with this module, so a process that never
solves loads no scipy. It takes them from scipy's compiled LAPACK
module ``scipy.linalg._flapack``, found with ``importlib.util.find_spec``
and loaded on its own: neither the ``scipy.linalg`` package init, which
costs more than a small bracket, nor the top-level ``scipy`` one runs.
They are the routine objects ``scipy.linalg.lapack`` re-exports, so
every solve gives the same bits. For the same reason the batched
eigensolves and Cholesky factors of the iteration and the closure call
the LAPACK gufuncs that numpy.linalg itself calls (numpy.linalg._umath_linalg's
eigh_lo, eigvalsh_lo and cholesky_lo, through ``_eigh``, ``_eigvalsh``
and ``_cholesky``): at the
solver's block sizes numpy.linalg's wrapper (dtype checks, an errstate
per call) costs about as many Python calls as the rest of an iteration,
and the same gufunc gives the same bits. A failed factorization or
eigensolve then leaves NaN in its output instead of raising LinAlgError;
``solve_ppt_two_outcome`` and ``_jordan_closure`` each set numpy's
floating-point error state once, ignoring every flag, and the
iteration's finiteness checks turn that NaN into a failed step. The
total dimension is capped at D <= 64 because a
generic pair takes the canonical coordinates, whose Newton system has
n^2 entries for n = D^2 (real field: D(D+1)/2) coordinates: 134 MB at
D = 64 for the complex field, and 16 times that at D = 128.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericError, SolverError
from .qmat import _is_integer
from .tolerances import TOL

MAX_TOTAL_DIM = 64

# Rank decisions of the Jordan closure, on candidates of unit Frobenius
# norm; Gram eigenvalues are compared with its square. On the composed
# pairs (lambda up to 0.9999), the Werner pairs and their k-copy powers,
# with X scaled by 1e-7 to 1e3, new directions left residuals >= 3.4e-2
# and round-off left residuals <= 3e-10; on random pairs up to D=16, new
# directions left residuals >= 2.9e-3.
_CLOSURE_TOL = 1e-6
# Eigenvalues closer than this, relative to the spectral radius, share a
# spectral projector.
_EIGEN_MERGE = 1e-8
# Coupling between two eigenspaces of a random closure element, in
# Frobenius norm over the unit-norm elements and partial transposes,
# above which they join one block.
_COUPLING_TOL = 1e-8
# A block form is kept when its basis change q has q^H q = I and it
# rebuilds every closure element and partial transpose within these.
_UNITARY_TOL = 1e-12
_BLOCK_TOL = 1e-10
# Closure elements per batched product while a block form is found and
# checked; small batches keep the scratch, and so the peak RSS, small.
_BATCH = 8
# Bound on the entries of one row slab of a real-field Hessian; 2^15 to
# 2^17 timed fastest at D=36 and D=64 (the slab stays in cache).
_SLAB_ENTRIES = 1 << 16
# Factors 1 and i: the real and imaginary parts of G and of i G, stacked
# by one product, hold the operands of the complex-field Hessian.
_ONE_I = np.array([1.0, 1j]).reshape(2, 1, 1, 1, 1)
# Fraction of the step to the boundary that an iteration takes.
_STEP_TO_BOUNDARY = 0.95
# Most iterations (one Newton system each) of a solve; read at each solve.
_MAX_NEWTON = 800


def _eigh(a: np.ndarray):
    """``np.linalg.eigh(a)`` of a float64 or complex128 stack, from the
    gufunc it calls, with no wrapper: NaN where LAPACK fails, signalled
    under the caller's floating-point error state."""
    return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` in the same way as ``_eigh``."""
    return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky(a)`` in the same way as ``_eigh``: a factor
    that is not positive definite comes out as NaN."""
    return _umath_linalg.cholesky_lo(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


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
        self.shape = (d, d)
        self.complex_field = complex_field
        # the Hessian and its scratch, made by the first ``hessian`` call
        self._buffers = None
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

    def mat(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M(x), written into ``out`` when it is given."""
        d = self.dim
        shape = x.shape[:-1] + (d, d)
        if self.complex_field:
            out = np.empty(shape, np.complex128) if out is None else out
            x = x.reshape(shape)
            xt = x.swapaxes(-1, -2)
            np.add(x, xt, out=out.real)
            np.subtract(x, xt, out=out.imag)
            out *= 0.5
            return out
        m = np.zeros(shape)
        m[..., self._rows, self._cols] = x * self._scale
        return np.add(m, m.swapaxes(-1, -2), out=out)

    def coords(self, g: np.ndarray) -> np.ndarray:
        """Real coordinates of a Hermitian matrix (also the adjoint map
        used for gradients): x_p = Re Tr[g M(e_p)]."""
        if self.complex_field:
            r, i = g.real, g.imag
            x = 0.5 * ((r + i) + (r - i).swapaxes(-1, -2))
            return x.reshape(g.shape[:-2] + (self.n,))
        return self._scale * (g[..., self._rows, self._cols]
                              + g[..., self._cols, self._rows])

    def project_stack(self, g: np.ndarray) -> np.ndarray:
        """``mat(coords(g))``: the Hermitian (real field: symmetric) part."""
        gt = g.swapaxes(-1, -2)
        return 0.5 * (g + (gt.conj() if self.complex_field else gt))

    # The iteration's view: one D x D block of weight 1, with no map back.
    weight = np.ones(1)

    def pair(self, x: np.ndarray) -> np.ndarray:
        """M(x) and M(x)^{T_B} as a (2, D, D) stack."""
        d = self.dim
        out = np.empty((2, d, d), np.complex128 if self.complex_field else np.float64)
        self.mat(x, out[0])
        split = (self.dim_a, self.dim_b) * 2
        out[1].reshape(split)[...] = out[0].reshape(split).swapaxes(1, 3)
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Coordinates of Y1 - Y2 + (Y3 - Y4)^{T_B} for a (4, D, D) stack."""
        return self.coords(y[0] - y[1] + _pt_mat(y[2] - y[3], self.dim_a, self.dim_b))

    def full(self, b: np.ndarray) -> np.ndarray:
        return b

    def hessian(self, gs) -> np.ndarray:
        """H_pq = sum over blocks of Re Tr[G M(e_p) G M(e_q)], with the
        partial transposes of M(e_p), M(e_q) on blocks 3 and 4. The first
        call makes the Hessian and its scratch; each later call refills
        them and returns the same array."""
        if self.complex_field:
            return self._hessian_complex(gs)
        g1, g2, g3, g4 = gs
        d, n = self.dim, self.n
        if self._buffers is None:
            # the Hessian, two slabs, a product and the slab rows read at
            # both positions
            rows = min(max(1, _SLAB_ENTRIES // (d * d)), n)
            self._buffers = (np.empty((n, n)), *np.empty((3, rows, d, d)),
                             np.empty((rows, 2 * n)))
        rows, cols = self._rows, self._cols
        rows_pt, cols_pt = self._rows_pt, self._cols_pt
        split = (-1, self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        # H_pq = 2 s_p s_q sum_G (G[I_p,I_q] G[J_p,J_q] + G[I_p,J_q] G[J_p,I_q]):
        # row p is the sum of outer(G[I_p], G[J_p]), read at (I_q, J_q)
        # and at (J_q, I_q); blocks 3 and 4 use the transposed positions,
        # read through the partial transpose of their slab
        h, slabs, slabs_pt, prods, reads = self._buffers
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

    def _hessian_complex(self, gs) -> np.ndarray:
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
        if self._buffers is None:
            # the Hessian and two scratch slabs, as one (3, D, D, D, D) block
            block = np.empty((3,) + (d,) * 4)
            self._buffers = (block[0].reshape(self.n, self.n), block)
        hess, block = self._buffers
        g = np.asarray(gs).reshape(2, 2, d, d)
        p = np.empty((2, 2, d, d, 2), dtype=np.complex128)
        np.multiply(g.transpose(0, 2, 3, 1), _ONE_I, out=p)
        # p[s, pair, i, k, (block, part)]: s = 0 for G, 1 for i G
        p = p.view(np.float64)
        q = p[0].swapaxes(2, 3).copy()
        np.matmul(p[0, :, :, None], q[:, None], out=block[:2])
        h4, pair_pt, term = block[0], block[1], block[2]
        h4 += np.matmul(p[1, 0], q[0, :, None], out=term)
        pair_pt += np.matmul(p[1, 1], q[1, :, None], out=term)
        h8 = h4.reshape((self.dim_a, self.dim_b) * 4)
        h8 += _pt_axes(pair_pt, self.dim_a, self.dim_b)
        return hess


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


class _Blocks:
    """Block form q ((+)_i A_i (x) I_{m_i}) q^H of a stack of L matrices
    of size D x D, for a unitary q (None: the identity). ``stack`` holds
    I_{s/n_i} (x) A_i of every matrix as an (L, B, s, s) array, with n_i
    the size of block i (``sizes``), m_i its multiplicity (``mults``)
    and s a common multiple of the n_i; ``weight`` holds m_i n_i / s, so
    that Tr over D x D is the weighted sum of the block traces. ``full``
    maps a (..., B, s, s) stack of this form back to D x D."""

    def __init__(self, q: np.ndarray | None, stack: np.ndarray, sizes, mults):
        self.q, self.stack = q, stack
        n, m = np.asarray(sizes), np.asarray(mults)
        self.sizes, self.mults = tuple(n.tolist()), tuple(m.tolist())
        s = stack.shape[-1]
        d = self.dim = int(n @ m)
        self.weight = m * n / s
        # entry (i, j) of the leading copy of A_b in the stack, and the
        # entries (i m + r, j m + r) of A_b (x) I_m at the block's offset
        count = n * n * m
        b = np.repeat(np.arange(len(n)), count)
        at = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        nb, mb, offset = n[b], m[b], (np.cumsum(n * m) - n * m)[b]
        i, j, r = at // (nb * mb), at // mb % nb, at % mb
        self._src = (b * s + i) * s + j
        self._dst = (offset + i * mb + r) * d + offset + j * mb + r

    def full(self, stack: np.ndarray) -> np.ndarray:
        lead = stack.shape[:-3]
        d = self.dim
        out = np.zeros(lead + (d * d,), stack.dtype)
        out[..., self._dst] = stack.reshape(lead + (-1,))[..., self._src]
        out = out.reshape(lead + (d, d))
        if self.q is None:
            return out
        return self.q @ out @ self.q.conj().T

    def rebuilds(self, mats: np.ndarray) -> bool:
        """Whether q^H q = I within _UNITARY_TOL and ``full(stack)`` gives
        back ``mats`` within _BLOCK_TOL."""
        q = self.q
        # written so that a NaN fails
        if q is not None and not float(
                np.abs(q.conj().T @ q - np.eye(len(q))).max()) <= _UNITARY_TOL:
            return False
        for lo in range(0, len(mats), _BATCH):
            part = slice(lo, lo + _BATCH)
            error = self.full(self.stack[part])
            error -= mats[part]
            if not float(np.abs(error).max(initial=0.0)) <= _BLOCK_TOL:
                return False
        return True


def _repeat_block(a: np.ndarray, r: int) -> np.ndarray:
    """I_r (x) a for a stack of square matrices ``a``."""
    n = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (r, n, r, n), a.dtype)
    for i in range(r):
        out[..., i, :, i, :] = a
    return out.reshape(a.shape[:-2] + (r * n, r * n))


def _block_form(both: np.ndarray) -> _Blocks | None:
    """Candidate block form of the closure elements E_p (the first half
    of ``both``) and their partial transposes (the second half), still
    to be checked with ``_Blocks.rebuilds``. None when the eigenspaces
    that one block joins differ in dimension, or when the stacked blocks
    would be no smaller than D x D.

    In a basis where every element is (+)_i A_i (x) I_{m_i}, a generic
    element has n_i distinct eigenvalues in block i, each m_i times, so
    the eigenspaces of a seeded random element r of the closure have the
    dimensions m_i. Eigenspaces that a chain of elements couples (a
    nonzero block of V^H E V, V the eigenvectors of r, read from batched
    products) make up one block. Within a block, the basis of each
    eigenspace is turned by the polar factor of its coupling block with
    the first eigenspace in a second random element, which makes that
    coupling a multiple of I_m; A_i is the average of the m_i diagonal
    copies.
    """
    k, d = len(both) // 2, both.shape[-1]
    coef = np.random.default_rng(1).standard_normal((2, k))
    v, cuts = _eigenspaces(np.tensordot(coef[0], both[:k], 1))
    starts = np.concatenate(([0], cuts))
    dims = np.diff(np.append(starts, d))
    # V^H E V, and its squared entries summed over E
    c = np.empty(both.shape, np.result_type(both, v))
    strength = np.zeros((d, d))
    for lo in range(0, 2 * k, _BATCH):
        part = slice(lo, lo + _BATCH)
        np.matmul(v.conj().T @ both[part], v, out=c[part])
        strength += np.square(np.abs(c[part])).sum(axis=0)
    # eigenspaces coupled directly, then through chains
    member = np.repeat(np.eye(len(dims)), dims, axis=0)
    # each block is named by its first eigenspace, its root
    first = _first_linked(
        (member.T @ (strength > _COUPLING_TOL ** 2) @ member + np.eye(len(dims))) > 0)
    if (dims != dims[first]).any():
        return None
    is_root = first == np.arange(len(dims))
    roots = np.flatnonzero(is_root)
    in_block = (np.cumsum(is_root) - 1)[first] == np.arange(len(roots))[:, None]
    sizes, mults = in_block.sum(axis=1), dims[roots]
    s = math.lcm(*sizes.tolist())
    if s >= d:
        return None
    # the columns of V block after block, eigenspace after eigenspace
    order = np.nonzero(in_block)[1]
    span = dims[order]
    cols = np.repeat(starts[order] - (np.cumsum(span) - span), span) + np.arange(d)
    q = v[:, cols]
    stack = np.zeros((2 * k, len(roots), s, s), c.dtype)
    single = sizes == 1
    diag = np.add.reduceat(c.diagonal(axis1=1, axis2=2), starts, axis=1) / dims
    stack[:, single] = diag[:, roots[single], None, None] * np.eye(s)
    link = np.tensordot(coef[1], c[:k], 1)
    offsets = np.cumsum(sizes * mults) - sizes * mults
    for b in np.flatnonzero(~single):
        n, m = int(sizes[b]), int(mults[b])
        at = slice(offsets[b], offsets[b] + n * m)
        idx = cols[at]
        sub = c[:, idx[:, None], idx]
        if m > 1:
            # polar factors L (L^H L)^{-1/2} of the couplings L of the
            # first eigenspace with the others
            link_b = link[idx[:m, None], idx[m:]].reshape(m, n - 1, m).swapaxes(0, 1)
            w2, u = _eigh(link_b.conj().swapaxes(-1, -2) @ link_b)
            # written so that a NaN fails
            if not w2.min() > _COUPLING_TOL ** 2:
                return None
            polar = link_b @ (u / np.sqrt(w2)[:, None, :]) @ u.conj().swapaxes(-1, -2)
            turn = np.zeros((n, m, n, m), v.dtype)
            turn[0, :, 0, :] = np.eye(m)
            turn[np.arange(1, n), :, np.arange(1, n), :] = polar.conj().swapaxes(-1, -2)
            turn = turn.reshape(n * m, n * m)
            q[:, at] = q[:, at] @ turn
            sub = turn.conj().T @ sub @ turn
        a = np.trace(sub.reshape(-1, n, m, n, m), axis1=2, axis2=4) / m
        stack[:, b] = _repeat_block(a, s // n)
    return _Blocks(q, stack, sizes, mults)


class _ClosureBasis:
    """Orthonormal basis E_1..E_k of the Jordan closure, held as dense
    matrices (``mat`` and ``coords`` act on D x D matrices)
    and in the block form of the module docstring, ``blocks``: the form
    from ``_block_form`` when it rebuilds every E_p and E_p^{T_B}, and
    otherwise one D x D block (q the identity, weight 1). The iteration
    runs on (..., B, s, s) stacks of blocks: ``pair`` gives M(x) and
    M(x)^{T_B}, ``adjoint``, ``project_stack`` and ``hessian`` take
    stacks with ``weight`` in every trace, and ``full`` maps a stack back
    to D x D."""

    def __init__(self, elements: np.ndarray, dim_a: int, dim_b: int):
        self.n, d, _ = elements.shape
        self.dim = d
        self.e = elements
        # columns conj(vec E_q), so that vec(Y) @ adj = Tr[Y E_q] for
        # Hermitian E_q (a view for the real field)
        flat = elements.reshape(self.n, d * d)
        self._adj = (flat.conj() if np.iscomplexobj(flat) else flat).T
        both = np.concatenate([elements, _pt_mat(elements, dim_a, dim_b)])
        form = _block_form(both)
        if form is None or not form.rebuilds(both):
            form = _Blocks(None, both[:, None], (d,), (1,))
        self.blocks = form
        self.shape = form.stack.shape[1:]
        self._pair_shape = (2,) + self.shape
        self.weight = form.weight[:, None]
        self._stack = form.stack.reshape((2, self.n, -1))
        # [E_1 .. E_k] side by side in each block: (2, 1, B, s, k s)
        b, s, _ = self.shape
        self._wide = np.ascontiguousarray(
            form.stack.reshape(2, self.n, b, s, s).transpose(0, 2, 3, 1, 4)
        ).reshape(2, 1, b, s, self.n * s)
        # the same adjoint in block coordinates, weighted: rows for the
        # blocks of Y, then for those of the transposed Y
        weighted = form.stack * form.weight[:, None, None]
        self._adj_stack = (weighted.reshape(2, self.n, -1).transpose(0, 2, 1)
                           .reshape(-1, self.n).conj())

    def mat(self, x: np.ndarray) -> np.ndarray:
        return np.tensordot(x, self.e, 1)

    def coords(self, g: np.ndarray) -> np.ndarray:
        d2 = self.dim ** 2
        return np.real(g.reshape(g.shape[:-2] + (d2,)) @ self._adj)

    def pair(self, x: np.ndarray) -> np.ndarray:
        """M(x) and M(x)^{T_B} as a (2, B, s, s) stack."""
        return (x @ self._stack).reshape(self._pair_shape)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Re Tr[(Y1 - Y2) E_p] + Re Tr[(Y3 - Y4) E_p^{T_B}] of a (4, B, s, s)
        stack."""
        flat = np.concatenate([(y[0] - y[1]).ravel(), (y[2] - y[3]).ravel()])
        return np.real(flat @ self._adj_stack)

    def project_stack(self, y: np.ndarray) -> np.ndarray:
        """Orthogonal projection of each matrix of a (..., B, s, s) stack
        onto the span of the basis."""
        lead = y.shape[:-3]
        half = len(self._adj_stack) // 2
        x = np.real(y.reshape(lead + (-1,)) @ self._adj_stack[:half])
        return (x @ self._stack[0]).reshape(y.shape)

    def full(self, stack: np.ndarray) -> np.ndarray:
        return self.blocks.full(stack)

    def hessian(self, gs) -> np.ndarray:
        """The k x k Hessian from (4, B, s, s) blocks G; it is small and
        made afresh on each call. Each block of G multiplies the k
        blocks E_p side by side, [G E_1 .. G E_k], and then stacked, so a
        block takes two products however large k is."""
        k, (b, s, _) = self.n, self.shape
        g = np.reshape(gs, (2, 2) + self.shape)
        y = (g @ self._wide).reshape(2, 2, b, s, k, s).swapaxes(3, 4)
        y = (y.reshape(2, 2, b, k * s, s) @ g).sum(axis=1)
        y = y.reshape(2, b, k, s, s).transpose(2, 0, 1, 3, 4).reshape(k, -1)
        return np.real(y @ self._adj_stack)


def _first_linked(linked: np.ndarray) -> np.ndarray:
    """First node of each node's connected component, for a symmetric
    boolean relation given as a square matrix with a true diagonal."""
    reach = linked
    while True:
        grown = reach @ reach
        if (grown == reach).all():
            return reach.argmax(axis=1)
        reach = grown


def _eigenspaces(a: np.ndarray):
    """Eigenvectors of the Hermitian matrix ``a`` (columns, eigenvalues
    ascending) and the column indices where a new eigenspace starts."""
    w, v = _eigh(a)
    return v, np.flatnonzero(np.diff(w) > _EIGEN_MERGE * max(-w[0], w[-1])) + 1


def _spectral_projectors(v: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Projectors onto the eigenspaces from ``_eigenspaces``, as a stack;
    empty when there are fewer than three (then they lie in the span of I
    and the matrix)."""
    if cuts.size < 2:
        return np.empty((0,) + v.shape, v.dtype)
    return np.stack([v[:, g] @ v[:, g].conj().T
                     for g in np.split(np.arange(len(v)), cuts)])


def _projector_span(v_x: np.ndarray, cuts_x: np.ndarray,
                    v_pt: np.ndarray, cuts_pt: np.ndarray, count: int, pt) -> int:
    """Dimension of the span of the spectral projectors P_i of X, Q_j of
    X^{T_B} and the partial transposes P_i^{T_B} of the first ``count``
    P_i, given by ``_eigenspaces`` of X and X^{T_B} and read from Gram
    matrices of unit-norm elements, with no D x D candidate stack.

    The P_i are orthonormal, so the Schur complement of their block in
    the Gram matrix of all these elements is the Gram matrix of the
    parts of the Q_j and P_i^{T_B} outside span{P_i}: H - K^T K, with K
    their overlaps with the P_i and H their own Gram matrix. The Q_j are
    orthonormal, and so are the P_i^{T_B}, since
    Tr[P_i^{T_B} P_k^{T_B}] = Tr[P_i P_k]. Tr[P_i Q_j] sums the squared
    moduli of V^H U over the pair's columns (V, U the eigenvectors of X
    and X^{T_B}); the overlaps Tr[E P_k] and Tr[E Q_j] of E = P_i^{T_B}
    sum the diagonals of V^H E V and U^H E U over each eigenspace. The
    span is r_X plus the number of eigenvalues of the complement above
    _CLOSURE_TOL^2."""
    d = len(v_x)
    starts = [np.concatenate(([0], cuts)) for cuts in (cuts_x, cuts_pt)]
    norms = [1.0 / np.sqrt(np.add.reduceat(np.ones(d), st)) for st in starts]
    mass = np.add.reduceat(np.add.reduceat(np.square(np.abs(v_x.conj().T @ v_pt)),
                                           starts[0], axis=0), starts[1], axis=1)
    k = mass * np.multiply.outer(*norms)
    # with count 0 the complement is the Q_j block alone: no transpose is
    # built and nothing is added to it
    if count:
        edges = [0, *cuts_x.tolist(), d]
        firsts = [v_x[:, a:b] @ v_x[:, a:b].conj().T
                  for a, b in zip(edges[:count], edges[1:count + 1])]
        cands = pt(np.array(firsts, v_x.dtype).reshape(count, d, d))
        # Tr[E P_k] sums the diagonal of V^H E V over the columns of P_k
        over_x, over_pt = (
            np.add.reduceat((v.conj() * (cands @ v)).real.sum(axis=1), st, axis=1)
            * (norm * norms[0][:count, None])
            for v, st, norm in zip((v_x, v_pt), starts, norms))
        k = np.concatenate([k, over_x.T], axis=1)
    schur = -(k.T @ k)
    schur.flat[::len(schur) + 1] += 1.0
    if count:
        r_g = len(starts[1])
        schur[:r_g, r_g:] += over_pt.T
        schur[r_g:, :r_g] += over_pt
    added = np.count_nonzero(_eigvalsh(schur) > _CLOSURE_TOL ** 2)
    return len(mass) + int(added)


def _new_directions(cands: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal directions that the candidate rows add to the span of
    the orthonormal rows ``basis`` (real rows: matrices flattened, complex
    entries as two reals, so that dot products are Re Tr[A B]).

    Candidates are scaled to unit norm (a zero one stays zero) and the
    basis is projected out; the eigenvectors of their Gram matrix with
    eigenvalues above _CLOSURE_TOL^2 (the singular values of the rows
    above _CLOSURE_TOL) give the new directions, scaled by the inverse
    square roots. That loses orthogonality in proportion to the squared
    condition number, so a second pass repeats the projection and the
    Gram step on the directions found (CholeskyQR2; Fukaya et al., ScalA
    2014)."""
    c = cands / np.maximum(np.linalg.norm(cands, axis=1, keepdims=True), 1.0)
    for tol in (_CLOSURE_TOL ** 2, 0.0):
        c -= (c @ basis.T) @ basis
        w, u = _eigh(c @ c.T)
        keep = w > tol
        c = (u[:, keep] / np.sqrt(w[keep])).T @ c
        if not len(c):
            break
    return c


def _jordan_closure(x_mat: np.ndarray, canon: _Basis) -> _ClosureBasis | None:
    """Orthonormal basis of the smallest subspace that contains I and
    ``x_mat`` and is closed under the Jordan product and the partial
    transpose; None once it would grow past max(n // 8, 8) elements or
    fill the space, so that a generic pair goes to the canonical
    coordinates without growing the closure to k = n (structured pairs
    stay far below: 3 for Werner pairs, 15/21 for the composed pairs).
    Giving up early is exact; it only chooses the slower coordinates.

    J holds the spectral projectors P_i of X and Q_j of X^{T_B} (r_X and
    r_G eigenspaces) and the partial transposes P_i^{T_B}, so the
    dimension of the span of these (``_projector_span``) bounds dim J
    from below, and when it exceeds the give-up size the closure returns
    None before any candidate is formed. The P_i and Q_j span at most
    r_X + r_G - 1 dimensions, since both sum to I, and each P_i^{T_B}
    adds at most one, so the count takes the first
    give_up + 2 - r_X - r_G of them (none when the P_i and Q_j alone can
    pass) and is skipped when that is more than r_X. Generic pairs with
    5 <= D <= 15 (real field: up to D = 30) give up with no transpose,
    generic complex D = 4 pairs (7 of 8 before the transposes) and D = 16
    pairs (31 of 32) with two. Real D = 4 pairs give up after their first
    generation: there the P_i^{T_B} lie in the span of the P_i and Q_j.

    Elements are D x D matrices, compared in Re Tr[A B]. A generation's
    candidates grow the basis by ``_new_directions``: one Gram
    eigendecomposition, with directions above _CLOSURE_TOL, and a second
    Gram pass that restores orthonormality. The first generation is
    X / ||X||_F (0 for X = 0), its partial transpose, the spectral
    projectors of both and their partial transposes; each later one is
    the spectral projectors of one seeded random element r of the current
    span V and the partial transposes of the elements the previous
    generation added. All of them lie in the closure J. A generation
    that adds nothing leaves V closed under the partial transpose and
    holding r^2 (from the projectors of r, or from I and r). The r in V
    with r^2 in V form an algebraic subset of V, proper unless V is
    closed under squaring; so with probability 1 V is closed under
    squaring, hence under AB + BA = (A+B)^2 - A^2 - B^2, and V = J.
    """
    d, n = canon.dim, canon.n
    give_up = min(max(n // 8, 8), n - 1)
    dtype = np.complex128 if canon.complex_field else np.float64

    def pt(m):
        return _pt_mat(m, canon.dim_a, canon.dim_b)

    # the basis is held as real rows, complex entries as two reals, so
    # that a dot product of rows is Re Tr[A B]
    def rows(m):
        return np.ascontiguousarray(m, dtype).reshape(len(m), d * d).view(np.float64)

    def mats(flat):
        return flat.view(dtype).reshape(len(flat), d, d)

    # the random elements come from one seeded stream, made only when a
    # generation grows the span
    rng = None
    # a failed eigensolve gives NaN, which adds no direction; the
    # certified value never rests on the closure (see the module docstring)
    with np.errstate(all="ignore"):
        x_unit = x_mat / (np.linalg.norm(x_mat) or 1.0)
        x_pt = pt(x_unit)
        (v_x, cuts_x), (v_pt, cuts_pt) = _eigenspaces(x_unit), _eigenspaces(x_pt)
        r_x, r_g = cuts_x.size + 1, cuts_pt.size + 1
        # transposes needed when the P_i and Q_j meet only in I
        short = give_up + 2 - r_x - r_g
        if short <= r_x and _projector_span(v_x, cuts_x, v_pt, cuts_pt,
                                            max(short, 0), pt) > give_up:
            return None
        proj = np.concatenate([_spectral_projectors(v_x, cuts_x),
                               _spectral_projectors(v_pt, cuts_pt)])
        cands = np.concatenate([x_unit[None], x_pt[None], proj, pt(proj)])
        basis = rows(np.eye(d)[None] / np.sqrt(d))
        while True:
            new = _new_directions(rows(cands), basis)
            if len(new) == 0:
                return _ClosureBasis(mats(basis), canon.dim_a, canon.dim_b)
            if len(basis) + len(new) > give_up:
                return None
            basis = np.concatenate([basis, new])
            e = mats(basis)
            if rng is None:
                rng = np.random.default_rng(0)
            mixed = np.tensordot(rng.standard_normal(len(e)), e, 1)
            cands = np.concatenate([_spectral_projectors(*_eigenspaces(mixed)),
                                    pt(e[-len(new):])])


def _chol_blocks(m: np.ndarray, mt: np.ndarray, eye: np.ndarray, z: np.ndarray):
    """Cholesky factors of the four slack blocks M, I-M, M^{T_B},
    I-M^{T_B} followed by those of the four blocks of ``z``, as one
    (8, D, D) stack from one batched call, or None if any block is not
    positive definite (a failed block leaves NaN in the factors; so does
    a NaN entry)."""
    slacks = np.empty((8,) + m.shape, np.result_type(m, eye))
    slacks[0], slacks[2] = m, mt
    np.subtract(eye, m, out=slacks[1])
    np.subtract(eye, mt, out=slacks[3])
    slacks[4:] = z
    chols = _cholesky(slacks)
    return chols if np.isfinite(chols).all() else None


# LAPACK's Cholesky factor and solve, from scipy's compiled LAPACK module.
# They are module attributes, so that a caller can wrap them, and
# ``_load_lapack`` binds them at the first solve, so that importing this
# module loads no scipy. It loads that extension module alone, as the
# iteration calls numpy's ``_umath_linalg`` gufuncs without their
# wrapper: the ``scipy.linalg`` package init costs more than a small
# bracket, and the routines are the objects ``scipy.linalg.lapack``
# re-exports.
def _load_lapack() -> None:
    """Bind ``dpotrf`` and ``dpotrs`` to the routines of
    ``scipy.linalg._flapack`` unless they are bound already (a wrapped
    routine stays). The extension is reused when ``sys.modules`` holds
    it; otherwise no scipy package runs: ``find_spec`` locates the
    ``scipy`` directory without importing it, and the extension is loaded
    from its ``linalg`` directory and registered under its own name, so a
    later ``import scipy.linalg`` shares it. Without scipy the first solve
    raises ModuleNotFoundError."""
    if "dpotrs" not in globals():
        name = "scipy.linalg._flapack"
        flapack = sys.modules.get(name)
        if flapack is None:
            # scipy's package init (its test utilities pull in subprocess)
            # costs more than loading the extension; it is not run
            scipy = importlib.util.find_spec("scipy")
            spec = scipy and importlib.machinery.PathFinder.find_spec(
                name, [os.path.join(path, "linalg")
                       for path in scipy.submodule_search_locations])
            if spec is None:
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)
            flapack = importlib.util.module_from_spec(spec)
            sys.modules[name] = flapack
            spec.loader.exec_module(flapack)
        globals().setdefault("dpotrf", flapack.dpotrf)
        globals().setdefault("dpotrs", flapack.dpotrs)


def _newton_factor(hess: np.ndarray, factor: np.ndarray):
    """Cholesky factor of the Newton system ``hess``, made in place in
    the F-ordered buffer ``factor``; a failed attempt is retried with a
    growing ridge on the diagonal, and None is returned after four."""
    n = len(hess)
    ridge = 0.0
    for _ in range(4):
        # dpotrf factors the buffer in place; hess stays for a retry
        factor[...] = hess
        if ridge:
            factor.flat[::n + 1] += ridge
        chol, info = dpotrf(factor, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return chol
        ridge = max(ridge * 100.0, 1e-10 * float(np.trace(hess)) / n)
    return None


def _dual_bound(x_mat: np.ndarray, b: np.ndarray, dim_a: int, dim_b: int) -> float:
    """U(B) = Tr[(X - B^{T_B})_+] + Tr[B_+] for a Hermitian ``b``, plus
    the rounding allowance D^2 eps ||A||_F of each eigenvalue sum."""
    d = dim_a * dim_b
    total = 0.0
    for a in ((x_mat + x_mat.conj().T) / 2.0 - _pt_mat(b, dim_a, dim_b), b):
        w = _eigvalsh(a)
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
    w, u = _eigh(a @ a.conj().swapaxes(-1, -2))
    return u.conj().swapaxes(-1, -2) @ lz_h, np.sqrt(np.maximum(w, 0.0))


def _step_lengths(p_s: np.ndarray, p_z: np.ndarray | None) -> tuple:
    """0.95 of the steps to the boundary along the scaled primal and dual
    directions: for each, the largest a <= 1 with I + (a / 0.95) p
    positive semidefinite in every block. ``p_z`` None stands for the
    predictor's dual direction -I - p_s, whose smallest eigenvalue is
    -1 minus the largest of p_s, so one spectrum gives both steps."""
    if p_z is None:
        w = _eigvalsh(p_s)
        low_s, low_z = float(w[..., 0].min()), -1.0 - float(w[..., -1].max())
    else:
        w = _eigvalsh(np.concatenate((p_s, p_z)))
        low_s, low_z = w[..., 0].reshape(2, -1).min(axis=1).tolist()
    return (1.0 if low_s >= -_STEP_TO_BOUNDARY else _STEP_TO_BOUNDARY / -low_s,
            1.0 if low_z >= -_STEP_TO_BOUNDARY else _STEP_TO_BOUNDARY / -low_z)


def solve_ppt_two_outcome(x_mat: np.ndarray, dim_a: int,
                          dim_b: int) -> SDPResult:
    """Run the primal-dual solve. Raises SolverError on factor dimensions
    that are not integers >= 1 or on dimension overflow, and when the
    certified gap of the last iterate exceeds 1e-6 max(1, |U(B)|) (see
    the module docstring): after 800 iterations, when an iterate or its
    Newton system stops being positive definite, or when the iterates
    stall (these carry the certified value and its gap)."""
    if not all(_is_integer(dim) and dim >= 1 for dim in (dim_a, dim_b)):
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
    if float(np.abs(x_mat - x_mat.conj().T).max()) > TOL.hermitian * max(
            1.0, float(np.abs(x_mat).max())):
        raise NumericError("SDP objective matrix must be Hermitian")

    complex_field = float(np.abs(x_mat.imag).max()) > 1e-13
    if not complex_field:
        x_work = np.ascontiguousarray(x_mat.real)
    else:
        x_work = x_mat
    # a failed factorization or eigensolve leaves NaN, which the checks
    # of the iteration read as a lost positive definiteness
    with np.errstate(all="ignore"):
        return _solve(x_work, _Basis(dim_a, dim_b, complex_field))


def _solve(x_work: np.ndarray, canon: _Basis) -> SDPResult:
    """The primal-dual iteration of ``solve_ppt_two_outcome`` on its
    checked objective (real for the real field)."""
    gap_tol, max_newton = TOL.sdp_gap, _MAX_NEWTON
    dim_a, dim_b, d = canon.dim_a, canon.dim_b, canon.dim
    basis = _jordan_closure(x_work, canon) or canon
    # the iteration runs on stacks of the basis's blocks (one D x D block
    # for canonical coordinates), each weighted in every trace
    size = basis.shape[-1]
    eye = np.eye(size, dtype=x_work.dtype)
    weight = basis.weight
    # the weights broadcast over the rows of each block
    weight_rows = weight[..., None]
    # the (4, ...) stacks of the iteration, and as two pairs of blocks
    stack, pairs = (4,) + basis.shape, (2, 2) + basis.shape
    c_obj = basis.coords(x_work)
    nu = 4.0 * d
    signs = np.array([1.0, -1.0, 1.0, -1.0]).reshape((4,) + (1,) * len(basis.shape))

    def scaled(dx, t_pairs, th_pairs, inv_outer):
        # T A(dx) T^H / (lam_i lam_j) per block, for A(dx) the change of the
        # slacks M, I-M, M^T_B, I-M^T_B: each block pair of T takes dM or
        # dM^T_B, and inv_outer carries the sign of the slack
        prod = t_pairs @ basis.pair(dx)[:, None] @ th_pairs
        return prod.reshape(stack) * inv_outer

    def certify(z):
        b = basis.full(z[3] - z[2])
        b = (b + b.conj().T) / 2.0
        return _dual_bound(x_work, b, dim_a, dim_b), b

    x = basis.coords(np.eye(d, dtype=x_work.dtype) / 2.0)
    z = np.broadcast_to(eye, stack).copy()
    chols = _chol_blocks(*basis.pair(x), eye, z)
    chol_s, chol_z = chols[:4], chols[4:]
    factor = np.empty((basis.n, basis.n), order="F")
    _load_lapack()
    steps = 0
    failure = None
    # U(B) and B of the current z, once its gap check has computed them
    bound = None
    while failure is None:
        t, lam = _nt_scaling(chol_s, chol_z)
        if not (np.isfinite(lam).all() and lam.min() > 0.0):
            failure = "iterate lost positive definiteness"
            break
        complementarity = float((np.square(lam) * weight).sum())
        residual = c_obj + basis.adjoint(z)
        primal = float(c_obj @ x)
        # the tolerance scales with |U(B)|, estimated by |primal| until
        # U(B) is computed
        tol = gap_tol * max(1.0, abs(primal))
        if complementarity <= tol:
            bound = certify(z)
            if bound[0] - primal <= gap_tol * max(1.0, abs(bound[0])) / 10.0:
                break
            # the gap is at most <S, Z> + 2 sqrt(D) ||residual|| when the
            # coordinates hold the objective; once both are negligible,
            # further iterations cannot close it
            if (complementarity + 2.0 * math.sqrt(d) * float(np.linalg.norm(residual))
                    <= tol / 100.0):
                failure = "iterates stalled"
                break
        if steps >= max_newton:
            failure = f"no convergence within {max_newton} iterations"
            break
        steps += 1
        th = t.conj().swapaxes(-1, -2)
        root = np.sqrt(lam)
        y = t / root[..., None]
        chol = _newton_factor(basis.hessian(y.conj().swapaxes(-1, -2) @ y), factor)
        if chol is None:
            failure = "Newton system factorization failed"
            break
        inv_outer = signs / (lam[..., :, None] * lam[..., None, :])
        root_outer = root[..., :, None] * root[..., None, :]
        t_pairs, th_pairs = t.reshape(pairs), th.reshape(pairs)
        # predictor (sigma = 0): its right-hand side A*(-Z) + residual is
        # c, and its scaled dZ^ is -diag(lam) - dS^
        dx, _ = dpotrs(chol, c_obj, lower=1)
        p_s = scaled(dx, t_pairs, th_pairs, inv_outer)
        a_p, a_d = _step_lengths(p_s, None)
        ds_hat = root_outer * p_s
        lam_diag = lam[..., None] * eye
        dz_hat = -lam_diag - ds_hat
        reached = float((weight_rows * (lam_diag + a_p * ds_hat)
                         * (lam_diag + a_d * dz_hat).conj()).sum().real)
        sigma = min(max(reached / complementarity, 0.0), 1.0) ** 3

        # corrector: in the scaled space, Lambda o (dS + dZ) =
        # sigma mu I - Lambda^2 - dS_a o dZ_a, with o the Jordan product
        corr = ds_hat @ dz_hat
        corr = (corr + corr.conj().swapaxes(-1, -2)) / 2.0
        q = corr * (-2.0 / ((lam[..., :, None] + lam[..., None, :]) * root_outer))
        q.reshape(-1, size * size)[:, ::size + 1] += (
            sigma * complementarity / nu / np.square(lam) - 1.0).reshape(-1, size)
        dx, _ = dpotrs(chol, residual + basis.adjoint(th @ q @ t), lower=1)
        p_s = scaled(dx, t_pairs, th_pairs, inv_outer)
        p_z = q - p_s
        a_p, a_d = _step_lengths(p_s, p_z)
        x_next = x + a_p * dx
        # Z stays in the span of the coordinates in exact arithmetic;
        # projecting drops the rounding outside it, which the residual
        # cannot see
        z_next = basis.project_stack(z + a_d * (th @ p_z @ t))
        chols = _chol_blocks(*basis.pair(x_next), eye, z_next)
        if chols is None:
            failure = "iterate lost positive definiteness"
        else:
            x, z = x_next, z_next
            chol_s, chol_z = chols[:4], chols[4:]
            bound = None

    value, b = bound or certify(z)
    primal = float(c_obj @ x)
    gap = value - primal
    limit = gap_tol * max(1.0, abs(value))
    if not gap <= limit:
        raise SolverError(f"certified gap {gap:.3g} exceeds {limit:.3g}"
                          + (f" ({failure})" if failure else ""),
                          value=value, gap=gap)
    return SDPResult(value=value, primal=primal, gap=gap,
                     newton_steps=steps, coords=basis.n,
                     optimizer=np.asarray(basis.mat(x), dtype=np.complex128),
                     certificate=np.asarray(b, dtype=np.complex128))
