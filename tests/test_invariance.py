"""Local-frame invariance of the bracket: a metamorphic panel.

The Helstrom, PPT and LOCC optima of a pair do not change under a local
unitary U_A (x) U_B, under complex conjugation or under a swap of the
parties. Each family below is bracketed in its constructor's frame and
in five others (seeded Haar unitaries on every factor of Alice, of Bob
or of both; the complex conjugate; the parties swapped), and:

- the Helstrom value agrees within a few ulps;
- the PPT value agrees within the sum of the two certified gaps, since
  each certified value lies within its gap above the same optimum;
- the LOCC witness found in the other frame, with its bases mapped back,
  is a valid ``OneWayProtocol`` of the original pair with the same value
  to 1e-12, so every lower end is achieved in every frame.

The library's LOCC lower end itself depends on the frame (its bases are
built from the pair's eigenvectors), so it is recorded with
``record_property`` and not asserted to be invariant. No frame is
canonicalized here; the pairs are solved in the frames given.
"""

import functools
import math

import numpy as np
import pytest

from conftest import random_density

from locclab import (
    DensityOperator,
    HidingPairSpec,
    OneWayProtocol,
    PsiSpec,
    TensorLayout,
    bound_bracket,
    locc_lower_bound,
    make_hiding_pair,
    make_psi,
    make_rho_pair,
    relabel,
)

HELSTROM_ULPS = 4
WITNESS_TOL = 1e-12


def random_pair(da: int, db: int, seed: int):
    """Two seeded random complex density operators on A (x) B."""
    rng = np.random.default_rng([seed, da, db])
    layout = TensorLayout((("A", da), ("B", db)))
    return tuple(DensityOperator(layout, random_density(rng, da * db))
                 for _ in range(2))


FAMILIES = {
    "werner-d2": lambda: make_hiding_pair(HidingPairSpec(d=2)),
    "werner-d3": lambda: make_hiding_pair(HidingPairSpec(d=3)),
    "random-2x3": lambda: random_pair(2, 3, seed=11),
    "random-3x3": lambda: random_pair(3, 3, seed=12),
    "composed-D16": lambda: make_rho_pair(make_hiding_pair(HidingPairSpec(d=2)),
                                          make_psi(PsiSpec(lam=0.9, d2=2))),
}


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Ginibre matrix, with the
    phases of R's diagonal moved into Q."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate(pair, parties: str, seed: int):
    """The pair in the frame of one seeded Haar unitary per factor of the
    named parties, and the map that takes a witness found there back to
    the original frame (a protocol's bases are rotated by U^dagger of
    the party that measures them)."""
    layout = pair[0].layout
    rng = np.random.default_rng(seed)
    local = {lab: haar_unitary(dim, rng) if layout.party(lab) in parties
             else np.eye(dim) for lab, dim in layout.factors}
    u = functools.reduce(np.kron, [local[lab] for lab in layout.labels])
    rotated = tuple(DensityOperator(layout, u @ rho.entries @ u.conj().T)
                    for rho in pair)
    # the canonical order puts each party's factors in layout order
    party = {p: functools.reduce(np.kron, [local[lab] for lab in
                                           layout.party_labels(p)])
             for p in "AB"}

    def back(w: OneWayProtocol) -> OneWayProtocol:
        second = "B" if w.first_party == "A" else "A"
        return OneWayProtocol(
            first_party=w.first_party,
            first=party[w.first_party].conj().T @ w.first,
            cond=party[second].conj().T @ w.cond, name=w.name)
    return rotated, back


def conjugate(pair):
    """The complex conjugate pair; a product measurement is conjugated
    with it."""
    conj = tuple(DensityOperator(rho.layout, rho.entries.conj()) for rho in pair)

    def back(w: OneWayProtocol) -> OneWayProtocol:
        return OneWayProtocol(first_party=w.first_party, first=w.first.conj(),
                              cond=w.cond.conj(), name=w.name)
    return conj, back


def swap_parties(pair):
    """The pair with Alice's and Bob's factors exchanged; a protocol's
    first party is then the other one, with the same bases."""
    mapping = {lab: {"A": "B", "B": "A"}[lab[0]] + lab[1:]
               for lab in pair[0].layout.labels}
    swapped = tuple(relabel(rho, mapping) for rho in pair)

    def back(w: OneWayProtocol) -> OneWayProtocol:
        return OneWayProtocol(first_party="B" if w.first_party == "A" else "A",
                              first=w.first, cond=w.cond, name=w.name)
    return swapped, back


FRAMES = {
    "alice": lambda pair: rotate(pair, "A", seed=1),
    "bob": lambda pair: rotate(pair, "B", seed=2),
    "both": lambda pair: rotate(pair, "AB", seed=3),
    "conjugate": conjugate,
    "swap": swap_parties,
}


@functools.cache
def natural(family: str):
    pair = FAMILIES[family]()
    return pair, bound_bracket(*pair)


@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bracket_is_frame_invariant(family, frame, record_property):
    pair, ref = natural(family)
    moved, back = FRAMES[frame](pair)
    got = bound_bracket(*moved)

    assert abs(got.helstrom - ref.helstrom) <= HELSTROM_ULPS * math.ulp(
        ref.helstrom)
    assert abs(got.ppt_upper - ref.ppt_upper) <= got.sdp_gap + ref.sdp_gap

    # the other frame's witness is a protocol of the original pair
    witness = back(got.witness)
    value, _ = locc_lower_bound(*pair, library=(witness,))
    assert abs(value - got.locc_lower) <= WITNESS_TOL

    # the library's lower end may move; only the bracket order holds
    record_property("locc_lower_natural", ref.locc_lower)
    record_property("locc_lower_moved", got.locc_lower)
    assert 0.5 <= got.locc_lower <= got.ppt_upper + 1e-9
