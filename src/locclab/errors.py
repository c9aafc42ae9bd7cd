"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`LoccLabError` so
callers (and the CLI) can catch one type and report structured failures.
"""


class LoccLabError(Exception):
    """Base class for all library errors."""


class LayoutError(LoccLabError):
    """Tensor-factor bookkeeping violation: unknown labels, duplicate
    labels, or dimension mismatches between operators."""


class NumericError(LoccLabError):
    """Numerical invariant violation: non-finite entries, failed
    Hermiticity/positivity/trace checks, or a broken bound ordering."""


class SpecError(LoccLabError):
    """A state-family or protocol specification record is out of its
    documented domain (e.g. lambda outside (0,1), d < 2)."""


class ChannelError(LoccLabError):
    """One-way protocol invariant violation: a first party other than A
    or B, bases that are empty, of the wrong shape, not finite or not
    unitary (so the outcomes would not form a complete measurement)."""


class ConfigError(LoccLabError):
    """Invalid experiment configuration: unknown fields, empty strategy
    libraries, manifest digest mismatches, or an --out that cannot be
    written."""


class ModeError(LoccLabError):
    """An exact-enumeration request would overflow; use sampling mode."""


class ResourceError(LoccLabError):
    """A protocol resource is unusable (e.g. teleportation asked to run
    on a resource state that is not the maximally entangled |phi_L>)."""


class DomainError(LoccLabError):
    """A closed-form expression was evaluated outside its domain (e.g.
    min_rounds with a trace distance not in (0, 2))."""


class CatalystViolation(LoccLabError):
    """A strategy declared catalytic changed its memory descriptor."""


class SolverError(LoccLabError):
    """The bundled SDP solver could not certify its value: it did not
    converge, or its dual certificate left a gap above the tolerance.
    A solve that ran carries ``value``, an upper bound on the optimum
    checked from its certificate (loose, never wrong), and ``gap``, the
    distance from there down to the primal value reached; both are None
    for an input the solver refused."""

    def __init__(self, message: str, value: float | None = None,
                 gap: float | None = None):
        super().__init__(message)
        self.value = value
        self.gap = gap


class ParseError(LoccLabError):
    """Malformed serialized input. ``offset`` is the byte offset of the
    first error when known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset
