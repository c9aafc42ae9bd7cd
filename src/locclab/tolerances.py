"""Central numerical tolerances.

Invariant checks across the package cite these fields instead of
hard-coding magic numbers, so the acceptance thresholds live in exactly
one place.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # max entrywise |M - M^dagger| accepted as Hermitian
    hermitian: float = 1e-10
    # eigenvalues >= -psd accepted as positive semidefinite
    psd: float = 1e-9
    # |Tr(rho) - 1| accepted as unit trace
    trace: float = 1e-10
    # POVM completeness: max entrywise |sum_i M_i - I|
    povm_sum: float = 1e-9
    # Schmidt spectrum normalization |sum p*m - 1|
    spectrum_sum: float = 1e-12
    # certified duality gap target for the bundled SDP solver
    sdp_gap: float = 1e-6


TOL = Tolerances()
