"""locclab: a numerical laboratory for bipartite state discrimination
under LOCC, with entangled catalysts and reusable quantum memory.

Layers, bottom up:

- qmat: labeled tensor-factor density operators, partial trace and
  transpose, trace norm, fidelity, entropy, JSON round-trip.
- states: the concrete state families as density operators
  (symmetric/antisymmetric hiding pairs, the tunable near-product
  entangled psi, maximally entangled resources, random separable
  samples).
- distinguish: Helstrom optimum, one-way LOCC protocols (certified
  lower bounds), a bundled interior-point SDP for the PPT relaxation
  (certified upper bounds), and the closed-form bound chain combining
  them.
- protocols: exact qudit teleportation and Schmidt-type entanglement
  concentration with exact outcome accounting.
- stats: the 99% Wilson interval every Monte-Carlo frequency carries.
- game: the multi-round discrimination engine, block-memory strategy,
  threshold detection protocols, and concentration-inequality
  validators (Hoeffding, Azuma, supermartingale audit).
- cli: reproducible experiment runner (see `locclab --help`).
"""

from .errors import (CatalystViolation, ChannelError, ConfigError,
                     DomainError, LayoutError, LoccLabError, ModeError,
                     NumericError, ParseError, ResourceError, SolverError,
                     SpecError)
from .tolerances import TOL, Tolerances
from .seeding import rng_from, seed_sequence
from .qmat import (DensityOperator, Operator, TensorLayout,
                   fidelity, operator_from_json, operator_to_json,
                   partial_trace, partial_transpose, permute, relabel,
                   tensor, trace_norm, von_neumann_entropy)
from .states import (HidingPairSpec, PsiConditions, PsiSpec, SchmidtSpectrum,
                     check_psi_conditions, make_hiding_pair,
                     make_max_entangled, make_psi, make_rho_pair,
                     psi_marginal_entropy, psi_product_distance, psi_spectrum,
                     sample_separable)
from .sdp import SDPResult, solve_ppt_two_outcome
from .distinguish import (BoundBracket, OneWayProtocol, PPTBound,
                          bound_bracket, helstrom, locc_lower_bound,
                          one_way_library, ppt_sdp, ppt_upper_bound,
                          thm2_locc_bound)
from .protocols import (ConcentrationOutcome, FailureExponentFit,
                        SchmidtTypeState, SuccessEstimate, TeleportResult,
                        concentration_distribution,
                        concentration_success_prob, failure_exponent_fit,
                        log2_multinomial, sample_type, teleport,
                        type_log2_dim)
from .game import (DetectionConfig, DetectionOracle, DetectionReport,
                   DetectionResult, HistoryCappedStrategy, IIDStrategy,
                   MemoryBlockStrategy, RateEstimate, Strategy,
                   SupermartingaleReport, TrialArrays, azuma_bound,
                   check_supermartingale, default_detection_oracle,
                   detect_catalyst, detection_accuracy, estimate_rate,
                   hoeffding_bound, memory_block_strategy, min_rounds,
                   play_trial, run_teleport_discrimination, simulate_ensemble)

__version__ = "0.1.0"

__all__ = [
    "TOL", "Tolerances", "rng_from", "seed_sequence",
    "LoccLabError", "LayoutError", "NumericError", "SpecError",
    "ChannelError", "ConfigError", "ModeError", "ResourceError",
    "DomainError", "CatalystViolation", "SolverError", "ParseError",
    "TensorLayout", "Operator", "DensityOperator",
    "tensor", "permute", "relabel", "partial_trace", "partial_transpose",
    "trace_norm", "fidelity", "von_neumann_entropy",
    "operator_to_json", "operator_from_json",
    "HidingPairSpec", "PsiSpec", "SchmidtSpectrum", "PsiConditions",
    "make_hiding_pair", "make_psi", "make_rho_pair", "make_max_entangled",
    "psi_spectrum", "psi_marginal_entropy", "psi_product_distance",
    "check_psi_conditions", "sample_separable",
    "SDPResult", "solve_ppt_two_outcome",
    "OneWayProtocol", "one_way_library", "locc_lower_bound", "helstrom",
    "PPTBound", "ppt_sdp", "ppt_upper_bound", "thm2_locc_bound",
    "BoundBracket", "bound_bracket",
    "TeleportResult", "teleport",
    "ConcentrationOutcome", "SchmidtTypeState", "SuccessEstimate",
    "concentration_distribution", "concentration_success_prob",
    "sample_type", "type_log2_dim", "log2_multinomial",
    "FailureExponentFit", "failure_exponent_fit",
    "TrialArrays", "Strategy", "IIDStrategy",
    "HistoryCappedStrategy", "MemoryBlockStrategy", "memory_block_strategy",
    "play_trial", "simulate_ensemble", "RateEstimate", "estimate_rate",
    "DetectionConfig", "DetectionOracle", "DetectionResult",
    "DetectionReport", "default_detection_oracle", "detect_catalyst",
    "detection_accuracy", "min_rounds", "hoeffding_bound", "azuma_bound",
    "SupermartingaleReport", "check_supermartingale",
    "run_teleport_discrimination",
]
