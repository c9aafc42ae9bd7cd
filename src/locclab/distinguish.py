"""Distinguishability functionals for a bipartite state pair.

The operationally interesting quantity, the best LOCC-measurement
success probability, has no known algorithm; this module brackets it:

* :func:`helstrom` -- the global optimum 1/2 + ||rho0 - rho1||_1 / 4,
  an upper bound for every restricted measurement class;
* :func:`locc_lower_bound` -- best value over an explicit library of
  one-way product strategies, a certified achievable lower bound;
* :func:`ppt_upper_bound` -- the PPT measurement relaxation solved by
  the bundled SDP, an upper bound on every LOCC value.

The three satisfy 1/2 <= locc_lower <= ppt_upper <= helstrom <= 1 and
are packaged as a :class:`BoundBracket`. :func:`thm2_locc_bound` is the
closed-form bound eps + (1 + eps')/2 for the composed hiding-pair
construction.

Every one-way channel, whichever party measures first, comes from one
builder, ``_basis_channel``; the LOCC and PPT bounds read the pair
through one ``_canonical_difference`` (layout check, rho0 - rho1, A|B
order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelError, ConfigError, LayoutError, NumericError, SpecError
from .qmat import DensityOperator, Operator, TensorLayout, permute, trace_norm
from .sdp import SDPResult, solve_ppt_two_outcome
from .tolerances import TOL

PRODUCT_POVM = "product-povm"
LOCAL_BASIS = "local-basis"
GENERAL = "general"
_STRUCTURES = (PRODUCT_POVM, LOCAL_BASIS, GENERAL)


def helstrom(rho0: DensityOperator, rho1: DensityOperator) -> float:
    """Optimal (unrestricted) discrimination probability for a uniform
    prior: 1/2 + ||rho0 - rho1||_1 / 4."""
    if rho0.layout != rho1.layout:
        raise LayoutError(
            f"state layouts differ: {rho0.layout.labels} vs {rho1.layout.labels}")
    return 0.5 + 0.25 * trace_norm(rho0.entries - rho1.entries)


def bipartite_canonical(m):
    """Permute to A factors first, B factors second; return the permuted
    operator plus the (dim_A, dim_B) split."""
    layout = m.layout
    a_labels = layout.party_labels("A")
    b_labels = layout.party_labels("B")
    if not a_labels or not b_labels:
        raise LayoutError(f"bipartite split needs both parties, got {layout.labels}")
    mp = permute(m, a_labels + b_labels)
    da = math.prod(layout.dim_of(lab) for lab in a_labels)
    db = math.prod(layout.dim_of(lab) for lab in b_labels)
    return mp, da, db


@dataclass(frozen=True)
class MeasurementChannel:
    """A finite POVM with an outcome label per element.

    ``structure`` records how the elements arise: ``product-povm``
    elements carry an explicit (A-part, B-part) factorization in
    ``factors``; ``local-basis`` is the special case of rank-one product
    projectors; ``general`` promises nothing. Construction validates
    positivity, completeness, and any claimed factorization.
    """

    elements: tuple[np.ndarray, ...]
    outcomes: tuple[str, ...]
    structure: str = GENERAL
    factors: tuple | None = None
    name: str = "channel"

    def __post_init__(self):
        if self.structure not in _STRUCTURES:
            raise ChannelError(f"unknown structure tag {self.structure!r}")
        if not self.elements:
            raise ChannelError("a measurement channel needs at least one element")
        if len(self.outcomes) != len(self.elements):
            raise ChannelError("one outcome label per element required")
        elems = []
        d = None
        for e in self.elements:
            arr = np.array(e, dtype=np.complex128)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ChannelError(f"POVM element has shape {arr.shape}")
            if d is None:
                d = arr.shape[0]
            elif arr.shape[0] != d:
                raise ChannelError("POVM elements have mixed dimensions")
            if float(np.abs(arr - arr.conj().T).max()) > TOL.povm_psd:
                raise ChannelError("POVM element is not Hermitian")
            if float(np.linalg.eigvalsh(arr)[0]) < -TOL.povm_psd:
                raise ChannelError("POVM element has a negative eigenvalue "
                                   f"beyond {TOL.povm_psd}")
            arr.setflags(write=False)
            elems.append(arr)
        total = sum(elems)
        if float(np.abs(total - np.eye(d)).max()) > TOL.povm_sum:
            raise ChannelError(f"POVM elements do not sum to identity within "
                               f"{TOL.povm_sum}")
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "outcomes", tuple(str(o) for o in self.outcomes))
        if self.structure in (PRODUCT_POVM, LOCAL_BASIS):
            if self.factors is None or len(self.factors) != len(elems):
                raise ChannelError(
                    f"{self.structure} channels must carry per-element factors")
            for e, (fa, fb) in zip(elems, self.factors):
                if float(np.abs(np.kron(fa, fb) - e).max()) > TOL.povm_sum:
                    raise ChannelError("claimed product factorization does not "
                                       "reproduce the element")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class ChannelOutput:
    """Outcome functionals Tr[M_i X] and their induced measured norm
    sum_i |Tr[M_i X]|."""

    values: np.ndarray
    measured_norm: float


def apply_channel(channel: MeasurementChannel, x) -> ChannelOutput:
    """Evaluate the channel on a Hermitian operator (or raw matrix)."""
    arr = x.entries if isinstance(x, Operator) else np.asarray(x, dtype=np.complex128)
    if arr.shape != (channel.dim, channel.dim):
        raise LayoutError(
            f"operator dim {arr.shape} does not match channel dim {channel.dim}")
    vals = np.array([np.trace(e @ arr).real for e in channel.elements])
    return ChannelOutput(values=vals, measured_norm=float(np.abs(vals).sum()))


def _canonical_difference(rho0: DensityOperator, rho1: DensityOperator):
    """The difference rho0 - rho1 permuted to A|B, with (dim_A, dim_B)."""
    if rho0.layout != rho1.layout:
        raise LayoutError(
            f"state layouts differ: {rho0.layout.labels} vs {rho1.layout.labels}")
    return bipartite_canonical(Operator(rho0.layout, rho0.entries - rho1.entries))


def _conditional_bases(d4: np.ndarray, first: np.ndarray) -> list[np.ndarray]:
    """Eigenbasis of the second party's block <u|Delta|u> for each column
    u of ``first``; ``d4`` is Delta as a (first, second, first, second)
    tensor."""
    return [np.linalg.eigh(np.einsum("a,abcd,c->bd", u.conj(), d4, u))[1]
            for u in first.T]


def _basis_channel(first: np.ndarray, cond: list[np.ndarray], name: str,
                   structure: str, first_party: str = "A") -> MeasurementChannel:
    """Rank-one product projectors: ``first_party`` measures the columns of
    ``first`` and, on outcome k, the other party the columns of
    ``cond[k]``. Elements and factors stay ordered A (x) B."""
    a_first = first_party == "A"
    elements, outcomes, factors = [], [], []
    for k in range(first.shape[1]):
        p1 = np.outer(first[:, k], first[:, k].conj())
        for m in range(cond[k].shape[1]):
            p2 = np.outer(cond[k][:, m], cond[k][:, m].conj())
            pa, pb = (p1, p2) if a_first else (p2, p1)
            elements.append(np.kron(pa, pb))
            outcomes.append(f"a{k}b{m}" if a_first else f"b{k}a{m}")
            factors.append((pa, pb))
    return MeasurementChannel(tuple(elements), tuple(outcomes), structure,
                              tuple(factors), name)


def one_way_library(rho0: DensityOperator, rho1: DensityOperator,
                    ) -> tuple[MeasurementChannel, ...]:
    """Deterministic library of one-way product strategies evaluated on
    the pair's difference operator.

    Contents: the computational product basis; measure-A-first in the
    eigenbasis of the A marginal of the difference with conditional B
    eigenbases; the mirrored measure-B-first channel; and a two-outcome
    coarse graining of the adaptive channel (elements grouped by the
    sign of their difference functional, so the value is preserved
    while the element count drops to 2).
    """
    diff_c, da, db = _canonical_difference(rho0, rho1)
    d4 = diff_c.entries.reshape(da, db, da, db)

    comp_a = np.eye(da, dtype=np.complex128)
    comp_b = np.eye(db, dtype=np.complex128)
    chans = [_basis_channel(comp_a, [comp_b] * da, "computational-product",
                            LOCAL_BASIS)]
    # measure A first, then the mirror: the same construction on the
    # party-swapped difference tensor
    for party, name, d4_first in (("A", "a-eig-conditional-b", d4),
                                  ("B", "b-eig-conditional-a",
                                   d4.transpose(1, 0, 3, 2))):
        _, first = np.linalg.eigh(np.einsum("abcb->ac", d4_first))
        chans.append(_basis_channel(first, _conditional_bases(d4_first, first),
                                    name, LOCAL_BASIS, first_party=party))

    adaptive = chans[1]
    signs = apply_channel(adaptive, diff_c).values >= 0.0
    eye_total = np.eye(da * db, dtype=np.complex128)
    plus = sum((e for e, s in zip(adaptive.elements, signs) if s),
               np.zeros_like(eye_total))
    minus = eye_total - plus
    chans.append(MeasurementChannel((plus, minus), ("guess0", "guess1"), GENERAL,
                                    None, "a-eig-conditional-b-binary"))
    return tuple(chans)


def locc_lower_bound(rho0: DensityOperator, rho1: DensityOperator,
                     library: tuple[MeasurementChannel, ...] | None = None,
                     ) -> tuple[float, MeasurementChannel]:
    """Best achievable success probability over the strategy library
    (first maximizer wins ties). Values are exact for the returned
    witness channel, hence certified lower bounds."""
    diff_c, _, _ = _canonical_difference(rho0, rho1)
    if library is None:
        library = one_way_library(rho0, rho1)
    if not library:
        raise ConfigError("strategy library is empty")
    best_val, best_chan = -np.inf, None
    for chan in library:
        out = apply_channel(chan, diff_c)
        val = 0.5 + 0.25 * out.measured_norm
        if val > best_val + 1e-15:
            best_val, best_chan = val, chan
    return float(best_val), best_chan


@dataclass(frozen=True)
class PPTBound:
    """Certified PPT relaxation value 1/2 + (sdp optimum)/2 with solver
    diagnostics."""

    value: float
    sdp_gap: float
    primal: float
    newton_steps: int


def ppt_sdp(rho0: DensityOperator, rho1: DensityOperator,
            gap_tol: float = TOL.sdp_gap) -> PPTBound:
    diff_c, da, db = _canonical_difference(rho0, rho1)
    res: SDPResult = solve_ppt_two_outcome(diff_c.entries, da, db, gap_tol=gap_tol)
    h = helstrom(rho0, rho1)
    # primal+gap certifies the SDP optimum from above; the global optimum
    # is an independent upper bound, so the min is still certified
    value = 0.5 + 0.5 * max(res.value, 0.0)
    value = min(value, h)
    return PPTBound(value=value, sdp_gap=res.gap, primal=0.5 + 0.5 * res.primal,
                    newton_steps=res.newton_steps)


def ppt_upper_bound(rho0: DensityOperator, rho1: DensityOperator,
                    gap_tol: float = TOL.sdp_gap) -> float:
    """Certified upper bound on every LOCC (indeed every PPT) success
    probability for the pair."""
    return ppt_sdp(rho0, rho1, gap_tol=gap_tol).value


def thm2_locc_bound(eps: float, eps_prime: float) -> float:
    """Closed-form LOCC ceiling eps + (1 + eps')/2 for a hiding pair
    with LOCC norm <= 4 eps tensored with a state eps'-close to product."""
    if eps < 0.0 or eps_prime < 0.0:
        raise SpecError(f"bound parameters must be nonnegative, got "
                        f"eps={eps}, eps'={eps_prime}")
    return eps + (1.0 + eps_prime) / 2.0


@dataclass(frozen=True)
class BoundBracket:
    """The three-bound sandwich for one state pair. Construction
    enforces 1/2 <= locc_lower <= ppt_upper <= helstrom <= 1 (up to
    1e-9 slack)."""

    helstrom: float
    locc_lower: float
    ppt_upper: float
    witness: MeasurementChannel = field(repr=False)
    sdp_gap: float

    def __post_init__(self):
        slack = 1e-9
        chain = (0.5, self.locc_lower, self.ppt_upper, self.helstrom, 1.0)
        for lo, hi in zip(chain, chain[1:]):
            if lo > hi + slack:
                raise NumericError(
                    f"bound bracket out of order: {chain}")

    @property
    def witness_id(self) -> str:
        return self.witness.name


def bound_bracket(rho0: DensityOperator, rho1: DensityOperator,
                  library: tuple[MeasurementChannel, ...] | None = None,
                  gap_tol: float = TOL.sdp_gap) -> BoundBracket:
    """Compute all three bounds and package them with the best witness."""
    h = helstrom(rho0, rho1)
    low, witness = locc_lower_bound(rho0, rho1, library)
    ppt = ppt_sdp(rho0, rho1, gap_tol=gap_tol)
    return BoundBracket(helstrom=h, locc_lower=low, ppt_upper=ppt.value,
                        witness=witness, sdp_gap=ppt.sdp_gap)
