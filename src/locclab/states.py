"""State families used throughout the lab.

* the orthogonal data-hiding pair built from the symmetric and
  antisymmetric projectors on C^d x C^d,
* the near-product entangled pure state psi(lambda, d2) with one large
  Schmidt coefficient and a (d2-1)-fold degenerate tail,
* maximally entangled resource states,
* a seeded sampler of separable states for bound sanity checks.

Every state is a :class:`DensityOperator`; a pure one is the rank-one
|v><v| built from its closed-form vector v; a side past ``_MAX_SIDE`` is
refused first. psi's marginal entropy is ``psi_spectrum(spec).entropy_bits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, SpecError
from .qmat import (DensityOperator, TensorLayout, _check_count, _is_integer,
                   permute, tensor)
from .seeding import rng_from
from .tolerances import TOL

# largest side D of a family's density matrix (16 D^2 bytes: 64 MiB)
_MAX_SIDE = 2048


def _check_side(side: int, what: str) -> None:
    """SpecError unless ``what``'s matrix side fits ``_MAX_SIDE``."""
    if side > _MAX_SIDE:
        raise SpecError(f"{what} needs a density matrix of side {side}, "
                        f"above the limit {_MAX_SIDE}")


@dataclass(frozen=True)
class HidingPairSpec:
    """Parameters of the orthogonal projector pair on C^d x C^d."""

    d: int

    def __post_init__(self):
        _check_count(self.d, "hiding pair local dimension d", low=2)


@dataclass(frozen=True)
class PsiSpec:
    """Parameters of psi = sqrt(lambda)|00> + sqrt((1-lambda)/(d2-1)) sum_i |ii>."""

    lam: float
    d2: int

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise SpecError(f"lambda must lie strictly in (0, 1), got {self.lam}")
        _check_count(self.d2, "psi local dimension d2", low=2)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients squared as (probability, multiplicity) pairs."""

    values: tuple[tuple[float, int], ...]

    def __post_init__(self):
        for _, m in self.values:
            if not _is_integer(m):
                raise SpecError(f"spectrum multiplicity {m!r} is not an integer")
        vals = tuple((float(p), int(m)) for p, m in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise SpecError("spectrum needs at least one value")
        total = 0.0
        for p, m in vals:
            if not math.isfinite(p):
                raise SpecError(f"spectrum probability {p} is not finite")
            if p < 0.0:
                raise SpecError(f"spectrum probability {p} < 0")
            if m < 1:
                raise SpecError(f"spectrum multiplicity {m} < 1")
            total += p * m
        if abs(total - 1.0) > TOL.spectrum_sum:
            raise SpecError(f"spectrum mass {total} != 1 within {TOL.spectrum_sum}")

    @property
    def num_labels(self) -> int:
        return sum(m for _, m in self.values)

    def label_probabilities(self) -> np.ndarray:
        """Probabilities expanded to one entry per Schmidt label."""
        return np.concatenate([np.full(m, p) for p, m in self.values])

    @property
    def entropy_bits(self) -> float:
        s = 0.0
        for p, m in self.values:
            if p > 0.0:
                s -= m * p * math.log2(p)
        return s


def _swap(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def make_hiding_pair(spec: HidingPairSpec,
                     labels: tuple[str, str] = ("A1", "B1"),
                     ) -> tuple[DensityOperator, DensityOperator]:
    """Normalized symmetric / antisymmetric projector pair.

    sigma0 = 2 P_sym / (d(d+1)) has rank d(d+1)/2, sigma1 =
    2 P_asym / (d(d-1)) has rank d(d-1)/2, and sigma0 sigma1 = 0, so the
    pair is perfectly distinguishable globally.
    """
    d = spec.d
    _check_side(d * d, f"the hiding pair at d = {d}")
    eye = np.eye(d * d)
    sw = _swap(d)
    p_sym = (eye + sw) / 2.0
    p_asym = (eye - sw) / 2.0
    layout = TensorLayout(((labels[0], d), (labels[1], d)))
    sigma0 = DensityOperator(layout, 2.0 * p_sym / (d * (d + 1)))
    sigma1 = DensityOperator(layout, 2.0 * p_asym / (d * (d - 1)))
    return sigma0, sigma1


def make_psi(spec: PsiSpec, labels: tuple[str, str] = ("A2", "B2"),
             ) -> DensityOperator:
    """|psi><psi| for the near-product state with Schmidt spectrum
    (lambda, (1-lambda)/(d2-1) x (d2-1)), built as the outer product of
    its closed-form vector."""
    d2 = spec.d2
    _check_side(d2 * d2, f"psi at d2 = {d2}")
    amp = np.zeros(d2 * d2, dtype=np.complex128)
    amp[0] = math.sqrt(spec.lam)
    tail = math.sqrt((1.0 - spec.lam) / (d2 - 1))
    for i in range(1, d2):
        amp[i * d2 + i] = tail
    layout = TensorLayout(((labels[0], d2), (labels[1], d2)))
    return DensityOperator(layout, np.outer(amp, amp.conj()))


def psi_spectrum(spec: PsiSpec) -> SchmidtSpectrum:
    q = (1.0 - spec.lam) / (spec.d2 - 1)
    return SchmidtSpectrum(((spec.lam, 1), (q, spec.d2 - 1)))


def psi_product_distance(spec: PsiSpec) -> float:
    """Trace distance ||psi - |00><00|||_1 = 2 sqrt(1 - lambda), exact for
    this pure-state pair."""
    return 2.0 * math.sqrt(1.0 - spec.lam)


@dataclass(frozen=True)
class PsiConditions:
    """Near-product / useful-memory report for a psi spec against a
    memory register of local dimension d1."""

    near_product: bool
    entropy_excess: float
    entropy_bits: float
    trace_distance: float


def check_psi_conditions(spec: PsiSpec, d1: int, eps_prime: float) -> PsiConditions:
    """near_product is the sufficient condition 2 sqrt(1-lambda) < eps';
    entropy_excess = S(psi^A2) - log2(d1) must be positive for psi to
    bank more than one fresh d1-dimensional register per round. SpecError
    unless d1 >= 2 is an integer and eps' is finite and nonnegative."""
    _check_count(d1, "memory dimension d1", low=2)
    if not 0.0 <= eps_prime < math.inf:  # a NaN fails this test too
        raise SpecError(f"eps' must be finite and >= 0, got {eps_prime}")
    ent = psi_spectrum(spec).entropy_bits
    dist = psi_product_distance(spec)
    return PsiConditions(
        near_product=dist < eps_prime,
        entropy_excess=ent - math.log2(d1),
        entropy_bits=ent,
        trace_distance=dist,
    )


def make_rho_pair(hiding: tuple[DensityOperator, DensityOperator],
                  psi: DensityOperator) -> tuple[DensityOperator, DensityOperator]:
    """Attach the same state psi (``make_psi``'s |psi><psi|) to both
    hiding states: rho_i = sigma_i (x) psi."""
    _check_side(len(hiding[0].entries) * len(psi.entries), "the rho pair")
    return tensor(hiding[0], psi), tensor(hiding[1], psi)


def make_max_entangled(dim: int, labels: tuple[str, str] = ("Ap", "Bp"),
                       ) -> DensityOperator:
    """|phi_L><phi_L| for |phi_L> = L^{-1/2} sum_i |ii> on the two named
    registers, built as the outer product of its closed-form vector."""
    _check_count(dim, "maximally entangled dimension")
    _check_side(dim * dim, f"the maximally entangled state at dim = {dim}")
    amp = np.zeros(dim * dim, dtype=np.complex128)
    for i in range(dim):
        amp[i * dim + i] = 1.0 / math.sqrt(dim)
    layout = TensorLayout(((labels[0], dim), (labels[1], dim)))
    return DensityOperator(layout, np.outer(amp, amp.conj()))


def _haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def sample_separable(layout: TensorLayout, k_terms: int, seed: int,
                     ) -> DensityOperator:
    """Seeded mixture of k random product states across the A|B cut.

    Weights are Dirichlet(1, ..., 1); local vectors are Haar random.
    The same (layout, k_terms, seed) always yields byte-identical
    operators.
    """
    _check_count(k_terms, "separable sampler's k_terms")
    a_labels = layout.party_labels("A")
    b_labels = layout.party_labels("B")
    if not a_labels or not b_labels:
        raise LayoutError(
            f"separable sampling needs both parties present, got {layout.labels}")
    da = math.prod(layout.dim_of(lab) for lab in a_labels)
    db = math.prod(layout.dim_of(lab) for lab in b_labels)
    rng = rng_from(seed, "separable", *layout.labels, k_terms)
    weights = rng.dirichlet(np.ones(k_terms))
    acc = np.zeros((da * db, da * db), dtype=np.complex128)
    for w in weights:
        va = _haar_vector(da, rng)
        vb = _haar_vector(db, rng)
        v = np.kron(va, vb)
        acc += w * np.outer(v, v.conj())
    canonical = TensorLayout(tuple(
        (lab, layout.dim_of(lab)) for lab in a_labels + b_labels))
    rho = DensityOperator(canonical, acc)
    return permute(rho, layout.labels)
