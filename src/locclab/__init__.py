"""locclab: a numerical laboratory for bipartite state discrimination
under LOCC, with entangled catalysts and reusable quantum memory.

Layers, bottom up:

- qmat: labeled tensor-factor density operators, partial trace and
  transpose, trace norm, fidelity, entropy, JSON round-trip.
- states: the concrete state families as density operators
  (symmetric/antisymmetric hiding pairs, the tunable near-product
  entangled psi, maximally entangled resources, random separable
  samples).
- sdp: the bundled interior-point solver for the PPT relaxation.
- distinguish: Helstrom optimum, one-way LOCC protocols (certified
  lower bounds), certified PPT upper bounds from sdp, and the
  closed-form bound chain combining them.
- protocols: exact qudit teleportation and Schmidt-type entanglement
  concentration with exact outcome accounting.
- stats: the 99% Wilson interval every Monte-Carlo frequency carries.
- game: the multi-round discrimination engine, block-memory strategy,
  threshold detection protocols, and concentration-inequality
  validators (Hoeffding, Azuma, supermartingale audit).
- cli: reproducible experiment runner (see `locclab --help`).

What loads when: ``import locclab`` imports no submodule and not numpy.
The first read of an exported name (``locclab.bound_bracket``) or of a
submodule (``locclab.game``) imports the submodule that owns it, with
the layers below it, and binds the value in this namespace, so later
reads are plain attribute lookups. The two halves of the package load
apart: a certified bracket loads sdp and distinguish but not protocols,
game or cli; the game layers load neither sdp nor distinguish, and scipy
loads only at the first PPT solve (see sdp).
"""

import sys

__version__ = "0.1.0"

# every submodule and the names it exports; ``__all__`` is read off it
_EXPORTS = {
    "errors": (
        "LoccLabError", "LayoutError", "NumericError", "SpecError",
        "ChannelError", "ConfigError", "ModeError", "ResourceError",
        "DomainError", "CatalystViolation", "SolverError", "ParseError"),
    "tolerances": ("TOL", "Tolerances"),
    "seeding": ("rng_from", "seed_sequence"),
    "qmat": (
        "TensorLayout", "Operator", "DensityOperator",
        "tensor", "permute", "relabel", "partial_trace", "partial_transpose",
        "trace_norm", "fidelity", "von_neumann_entropy",
        "operator_to_json", "operator_from_json"),
    "states": (
        "HidingPairSpec", "PsiSpec", "SchmidtSpectrum", "PsiConditions",
        "make_hiding_pair", "make_psi", "make_rho_pair", "make_max_entangled",
        "psi_spectrum", "psi_product_distance", "check_psi_conditions",
        "sample_separable"),
    "sdp": ("SDPResult", "solve_ppt_two_outcome"),
    "distinguish": (
        "OneWayProtocol", "one_way_library", "locc_lower_bound", "helstrom",
        "PPTBound", "ppt_sdp", "ppt_upper_bound", "thm2_locc_bound",
        "BoundBracket", "bound_bracket"),
    "protocols": (
        "TeleportResult", "teleport",
        "ConcentrationOutcome", "SuccessEstimate",
        "concentration_distribution", "concentration_success_prob",
        "log2_multinomial", "FailureExponentFit", "failure_exponent_fit"),
    "stats": (),
    "game": (
        "TrialArrays", "Strategy", "IIDStrategy",
        "HistoryCappedStrategy", "MemoryBlockStrategy", "memory_block_strategy",
        "play_trial", "simulate_ensemble", "RateEstimate", "estimate_rate",
        "DetectionConfig", "DetectionOracle", "DetectionReport",
        "default_detection_oracle", "detection_accuracy", "min_rounds",
        "hoeffding_bound", "azuma_bound",
        "SupermartingaleReport", "check_supermartingale",
        "run_teleport_discrimination"),
    "cli": (),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Import the submodule that owns ``name`` (or is ``name``) on first
    read; bind an exported value here so the next read does not come back."""
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the path of an import statement, which ``python -X importtime``
    # reports (importlib.import_module's is not)
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
