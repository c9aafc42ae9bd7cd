"""Distinguishability functionals for a bipartite state pair.

The operationally interesting quantity, the best LOCC-measurement
success probability, has no known algorithm; this module brackets it:

* :func:`helstrom` -- the global optimum 1/2 + ||rho0 - rho1||_1 / 4,
  an upper bound for every restricted measurement class;
* :func:`locc_lower_bound` -- best value over a library of one-way LOCC
  protocols, a certified achievable lower bound;
* :func:`ppt_upper_bound` -- the PPT measurement relaxation solved by
  the bundled SDP, an upper bound on every LOCC value.

The three satisfy 1/2 <= locc_lower <= ppt_upper <= helstrom <= 1 and
are packaged as a :class:`BoundBracket`. :func:`thm2_locc_bound` is the
closed-form bound eps + (1 + eps')/2 for the composed hiding-pair
construction.

A one-way strategy is a named :class:`OneWayProtocol`: a first basis for
the party that measures first and one conditional basis for the other
party per first outcome, both checked unitary. The protocol is one-way
LOCC by construction, its value is read off the conditional blocks
<u_k|Delta|u_k> without forming any D x D element, and the winning
protocol is the LOCC witness itself: its bases are all it holds, and the
guess on each outcome is the sign of that outcome's functional. The
default library has three strategies (:func:`one_way_library`) and is
scored witness-only: each strategy's value comes from its raw bases and
conditional blocks with the protocol's own arithmetic, and only the
winner is built and checked as a protocol, so its reported value is
the one the witness reads. The LOCC and PPT bounds read the
pair through one ``_canonical_difference`` (layout check, rho0 - rho1,
A|B order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelError, ConfigError, LayoutError, NumericError, SpecError
from .qmat import DensityOperator, Operator, _same_layout, permute, trace_norm
from .sdp import SDPResult, solve_ppt_two_outcome
from .tolerances import TOL


def helstrom(rho0: DensityOperator, rho1: DensityOperator) -> float:
    """Optimal (unrestricted) discrimination probability for a uniform
    prior: 1/2 + ||rho0 - rho1||_1 / 4."""
    _same_layout(rho0, rho1)
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


def _party_first(d4: np.ndarray, first_party: str) -> np.ndarray:
    """Delta as a (first, second, first, second) tensor for the party
    that measures first; ``d4`` is ordered (A, B, A, B)."""
    return d4 if first_party == "A" else d4.transpose(1, 0, 3, 2)


def _conditional_blocks(d4_first: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The second party's blocks <u_k|Delta|u_k>, one per column u_k of
    ``first``, as one (k, d2, d2) stack."""
    return np.einsum("ak,abcd,ck->kbd", first.conj(), d4_first, first)


def _functionals(cond: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """:meth:`OneWayProtocol.functionals` of conditional bases ``cond``."""
    return np.einsum("kbm,kbc,kcm->km", cond.conj(), blocks, cond).real.reshape(-1)


def _value(cond: np.ndarray, blocks: np.ndarray) -> float:
    """:meth:`OneWayProtocol.value` of the same arrays."""
    return 0.5 + 0.25 * float(np.abs(_functionals(cond, blocks)).sum())


@dataclass(frozen=True, eq=False)
class OneWayProtocol:
    """A one-way LOCC measurement.

    ``first_party`` ("A" or "B") measures the columns u_k of the unitary
    ``first``; on outcome k the other party measures the columns v_km of
    the unitary ``cond[k]`` (one (k, d2, d2) stack). Outcome (k, m) is
    the product projector |u_k><u_k| (x) |v_km><v_km|, with the factors
    ordered A (x) B. The bases are the whole protocol: the guess on an
    outcome is the sign of its functional Tr[M Delta], which
    :meth:`value` reads as |Tr[M Delta]|. Construction checks both bases
    finite and unitary, so the protocol is one-way LOCC by structure;
    ``name`` labels it as a witness.
    """

    first_party: str
    first: np.ndarray
    cond: np.ndarray
    name: str = "one-way"

    def __post_init__(self):
        if self.first_party not in ("A", "B"):
            raise ChannelError(
                f"first party must be 'A' or 'B', got {self.first_party!r}")
        first = np.array(self.first, dtype=np.complex128)
        cond = np.array(self.cond, dtype=np.complex128)
        if first.ndim != 2 or first.shape[0] != first.shape[1] or first.size == 0:
            raise ChannelError(f"first basis has shape {first.shape}")
        if (cond.ndim != 3 or cond.shape[0] != first.shape[0]
                or cond.shape[1] != cond.shape[2] or cond.size == 0):
            raise ChannelError(f"conditional bases have shape {cond.shape}; "
                               f"need one square basis per first outcome "
                               f"({first.shape[0]})")
        if not (np.isfinite(first).all() and np.isfinite(cond).all()):
            raise ChannelError("bases are not finite")
        # unitarity is what makes the outcomes a complete measurement, so
        # it is held to the POVM completeness tolerance
        for label, u in (("first", first[None]), ("conditional", cond)):
            defect = float(np.abs(u.conj().swapaxes(-1, -2) @ u
                                  - np.eye(u.shape[-1])).max())
            if not defect <= TOL.povm_sum:
                raise ChannelError(f"{label} basis is not unitary: "
                                   f"max |U^dagger U - I| = {defect:.3e}")
        for attr, arr in (("first", first), ("cond", cond)):
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)

    @property
    def outcomes(self) -> tuple[str, ...]:
        k, m = self.cond.shape[:2]
        first, second = ("a", "b") if self.first_party == "A" else ("b", "a")
        return tuple(f"{first}{i}{second}{j}" for i in range(k) for j in range(m))

    def blocks(self, d4: np.ndarray) -> np.ndarray:
        """The conditional blocks of Delta, given as an (A, B, A, B)
        tensor, that :meth:`functionals` reads."""
        d4_first = _party_first(d4, self.first_party)
        if d4_first.shape[:2] != (self.first.shape[0], self.cond.shape[1]):
            raise LayoutError(
                f"operator factors {d4.shape[:2]} (A, B) do not match the "
                f"protocol's bases, first party {self.first_party}")
        return _conditional_blocks(d4_first, self.first)

    def functionals(self, blocks: np.ndarray) -> np.ndarray:
        """Tr[M Delta] for each outcome M, from the conditional blocks:
        v_km^dagger <u_k|Delta|u_k> v_km."""
        return _functionals(self.cond, blocks)

    def value(self, blocks: np.ndarray) -> float:
        """Success probability 1/2 + 1/4 sum_M |Tr[M Delta]|."""
        return _value(self.cond, blocks)

    def elements(self) -> np.ndarray:
        """The (n, D, D) stack of POVM elements, in :attr:`outcomes`
        order and A (x) B factor order."""
        k, d2, m = self.cond.shape
        d1 = self.first.shape[0]
        p1 = np.einsum("ik,jk->kij", self.first, self.first.conj())
        p2 = np.einsum("kim,kjm->kmij", self.cond, self.cond.conj())
        order = "kmiajb" if self.first_party == "A" else "kmaibj"
        return np.einsum(f"kij,kmab->{order}", p1, p2).reshape(
            k * m, d1 * d2, d1 * d2)


def _canonical_difference(rho0: DensityOperator, rho1: DensityOperator) -> np.ndarray:
    """The difference rho0 - rho1 permuted to A|B, as a (dA, dB, dA, dB)
    tensor."""
    _same_layout(rho0, rho1)
    diff_c, da, db = bipartite_canonical(
        Operator(rho0.layout, rho0.entries - rho1.entries))
    return diff_c.entries.reshape(da, db, da, db)


def _library(d4: np.ndarray) -> list[tuple[dict, np.ndarray]]:
    """The default strategies in library order, each as (the arguments of
    its :class:`OneWayProtocol`, its conditional blocks of Delta). The
    bases are complex arrays, as the protocol stores them, and no
    protocol is built."""
    da, db = d4.shape[:2]
    first = np.eye(da, dtype=np.complex128)
    comp = dict(first_party="A", first=first,
                cond=np.array(np.broadcast_to(np.eye(db, dtype=np.complex128),
                                              (da, db, db))),
                name="computational-product")
    entries = [(comp, _conditional_blocks(d4, first))]
    # measure A first, then the mirror: the same construction on the
    # party-swapped difference tensor
    for party, name in (("A", "a-eig-conditional-b"), ("B", "b-eig-conditional-a")):
        d4_first = _party_first(d4, party)
        _, first = np.linalg.eigh(np.einsum("abcb->ac", d4_first))
        blocks = _conditional_blocks(d4_first, first)
        cond = np.array(np.linalg.eigh(blocks)[1], dtype=np.complex128)
        entries.append((dict(first_party=party, first=np.array(first, dtype=np.complex128),
                             cond=cond, name=name), blocks))
    return entries


def one_way_library(rho0: DensityOperator, rho1: DensityOperator,
                    ) -> tuple[OneWayProtocol, ...]:
    """Deterministic library of named one-way LOCC protocols adapted to
    the pair's difference operator.

    Contents, three strategies: the computational product basis;
    measure-A-first in the eigenbasis of the A marginal of the difference
    with conditional B eigenbases; and the mirrored measure-B-first
    protocol.
    """
    d4 = _canonical_difference(rho0, rho1)
    return tuple(OneWayProtocol(**args) for args, _ in _library(d4))


def locc_lower_bound(rho0: DensityOperator, rho1: DensityOperator,
                     library: tuple[OneWayProtocol, ...] | None = None,
                     ) -> tuple[float, OneWayProtocol]:
    """Best achievable success probability over a library of one-way
    LOCC protocols (first maximizer wins ties), with the winning
    protocol. Every protocol is scored from its bases, so the value is
    achieved by LOCC and is a certified lower bound; an entry of an
    explicit ``library`` that is not a :class:`OneWayProtocol` raises
    ConfigError."""
    d4 = _canonical_difference(rho0, rho1)
    return _locc_lower(d4, library)


def _locc_lower(d4: np.ndarray, library: tuple[OneWayProtocol, ...] | None,
                ) -> tuple[float, OneWayProtocol]:
    """The best value and its protocol, first maximizer first. The
    default library is scored from its bases and only the winner is
    built as a protocol; its value is the one that protocol reads."""
    if library is None:
        entries = _library(d4)
        values = [_value(args["cond"], blocks) for args, blocks in entries]
    elif not library:
        raise ConfigError("strategy library is empty")
    else:
        others = [type(p).__name__ for p in library if not isinstance(p, OneWayProtocol)]
        if others:
            raise ConfigError(f"library entries of type {others} are not one-way "
                              f"protocols, so their values are not LOCC lower bounds")
        values = [p.value(p.blocks(d4)) for p in library]
    best_val, best = -np.inf, 0
    for i, val in enumerate(values):
        if val > best_val + 1e-15:
            best_val, best = val, i
    if library is None:
        return float(best_val), OneWayProtocol(**entries[best][0])
    return float(best_val), library[best]


@dataclass(frozen=True)
class PPTBound:
    """Certified PPT relaxation value 1/2 + (sdp optimum)/2 with solver
    diagnostics."""

    value: float
    sdp_gap: float
    primal: float
    newton_steps: int


def ppt_sdp(rho0: DensityOperator, rho1: DensityOperator) -> PPTBound:
    """The PPT relaxation of the pair with its solver diagnostics:
    the certified value (capped by the Helstrom value), the certificate
    gap (at most 1e-6, since |U(B)| <= 1 for a difference of states),
    the primal value reached and the solver iterations taken (at most
    800, one Newton system each).
    :func:`ppt_upper_bound` returns only the value."""
    return _ppt_sdp(_canonical_difference(rho0, rho1), helstrom(rho0, rho1))


def _ppt_sdp(d4: np.ndarray, h: float) -> PPTBound:
    da, db = d4.shape[:2]
    res: SDPResult = solve_ppt_two_outcome(d4.reshape(da * db, da * db), da, db)
    # res.value = U(res.certificate), checked by eigenvalue sums, bounds
    # the SDP optimum from above; the global optimum h is an independent
    # upper bound, so the min is still certified
    value = 0.5 + 0.5 * max(res.value, 0.0)
    value = min(value, h)
    return PPTBound(value=value, sdp_gap=res.gap, primal=0.5 + 0.5 * res.primal,
                    newton_steps=res.newton_steps)


def ppt_upper_bound(rho0: DensityOperator, rho1: DensityOperator) -> float:
    """Certified upper bound on every LOCC (indeed every PPT) success
    probability for the pair."""
    return ppt_sdp(rho0, rho1).value


def thm2_locc_bound(eps: float, eps_prime: float) -> float:
    """Closed-form LOCC ceiling eps + (1 + eps')/2 for a hiding pair
    with LOCC norm <= 4 eps tensored with a state eps'-close to product."""
    if not (0.0 <= eps < math.inf and 0.0 <= eps_prime < math.inf):
        raise SpecError(f"bound parameters must be finite and >= 0, got "
                        f"eps={eps}, eps'={eps_prime}")
    return eps + (1.0 + eps_prime) / 2.0


@dataclass(frozen=True, eq=False)
class BoundBracket:
    """The three-bound sandwich for one state pair. Construction
    enforces 1/2 <= locc_lower <= ppt_upper <= helstrom <= 1 (up to
    1e-9 slack)."""

    helstrom: float
    locc_lower: float
    ppt_upper: float
    witness: OneWayProtocol = field(repr=False)
    sdp_gap: float

    def __post_init__(self):
        slack = 1e-9
        chain = (0.5, self.locc_lower, self.ppt_upper, self.helstrom, 1.0)
        # written NaN-safe: a NaN end fails the comparison
        for lo, hi in zip(chain, chain[1:]):
            if not lo <= hi + slack:
                raise NumericError(
                    f"bound bracket out of order: {chain}")


def bound_bracket(rho0: DensityOperator, rho1: DensityOperator,
                  library: tuple[OneWayProtocol, ...] | None = None) -> BoundBracket:
    """Compute all three bounds and package them with the best witness;
    the Helstrom value and the canonical difference are formed once. The
    PPT value is certified to a solver gap of at most 1e-6 (see
    :func:`ppt_sdp`)."""
    h = helstrom(rho0, rho1)
    d4 = _canonical_difference(rho0, rho1)
    low, witness = _locc_lower(d4, library)
    ppt = _ppt_sdp(d4, h)
    return BoundBracket(helstrom=h, locc_lower=low, ppt_upper=ppt.value,
                        witness=witness, sdp_gap=ppt.sdp_gap)
