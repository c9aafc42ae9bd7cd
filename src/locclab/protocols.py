"""Quantum subprotocols: exact qudit teleportation and Schmidt-type
entanglement concentration.

Teleportation is simulated branch by branch: the generalized Bell
measurement on (X, resource-A) followed by the matching shift/clock
correction on resource-B reproduces the input state exactly, with the
teleported factor relocated to the B side.

Concentration measures the type class of |psi>^{(x) n}: the outcome is
the occupation vector k of the n local Schmidt labels. Every label
string in a type class carries the same coefficient prod_i p_i^{k_i/2},
so the post-measurement state is maximally entangled on a subspace of
dimension exactly the multinomial coefficient n!/prod_i k_i!, and
log2_dim is its base-2 logarithm. ``sample_type`` draws one outcome and
``type_log2_dim`` sizes it; ``concentration_distribution`` is the whole
law and ``concentration_success_prob`` its tail, and no object holds a
measured state between them. Occupations are integers, so ln k! is
read from an exact table of k = 0..n: a port of Cephes ``lgam`` (the
routine behind ``scipy.special.gammaln``) at the integer points x = k+1
only, with Cephes' constants and operation order and libm's ``log``.
It gives gammaln's values bit for bit, so log2_dim is what the log-gamma
formula gave, and no concentration or game command has to import scipy
(which takes longer than most of those commands' work).

Exact mode lists the label types as array rows (at most
``_MAX_EXACT_TYPES``, 1e6) and weighs them once, so
a success probability is a tail sum of those weights; the rows are built
one label at a time, each generation stacking the vectors of every smaller
total behind their leading occupation. Sampling mode draws ``_ROW_CHUNK``
rows at a time (the same rows as one draw from the same stream), packs
each chunk into int64 keys in base n + 1 as it comes, and counts the runs
of equal keys once they are sorted (``np.argsort`` when one key holds a
row, ``np.lexsort`` otherwise); the distinct rows are decoded from their
keys, so the (samples, labels) draws never exist at once. Either way the
law's counts table is built in the narrowest unsigned dtype that holds n
(``np.min_scalar_type(n)``: one byte per count up to n = 255) and no wider
copy of it is made: exact mode weighs its rows ``_ROW_CHUNK`` at a time,
so only one chunk of them is ever cast to float.

The distribution's outcomes are built in bulk from the columns: their
checks run once on the whole columns, and the slots of bare instances are
filled directly. Each outcome's ``counts`` tuple is built on its first
read from its row of the law's read-only counts table, which the outcomes
keep alive, so building an outcome makes one object for the cyclic
garbage collector to track, not two. An outcome refers to a view of at
most ``_VIEW_ROWS`` rows of the table and to its row there, an int that
CPython keeps cached, so besides itself it adds only its two floats to
what the law keeps alive. Since an outcome refers only to the table, an
int and two floats, it cannot be part of a reference cycle, and the
outcomes are built with the collector paused (when it is enabled and no
other Python thread is alive; it is enabled again afterwards), so those
that outlive the young generations no longer set off full collections
during the build. Setting or deleting any attribute of an outcome raises
``dataclasses.FrozenInstanceError``. The ``concentrate`` command reads
the law's columns directly and builds no outcome. A copy count or
``samples`` below 1 and a non-finite target raise SpecError.

An exact distribution leaves its law behind for the success
probability: the module keeps the key (spectrum values, n) and the
log-weight and weight columns of the last exact distribution, made
read-only (16 bytes per type), when no type has zero weight (so the
columns it already holds are the whole law). An exact success
probability on the same (spectrum, n) takes its tail sum from them and
enumerates the law only otherwise; the next exact distribution replaces
them. Exact success probabilities are also memoized per (spectrum, n,
target), which the memory-block strategies re-ask for.
"""

from __future__ import annotations

import gc
import itertools
import math
import threading
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache

import numpy as np

from .errors import (DomainError, LayoutError, ModeError, ResourceError,
                     SpecError)
from .qmat import DensityOperator, TensorLayout, permute, tensor
from .seeding import rng_from
from .states import SchmidtSpectrum
from .stats import wilson_interval

_MAX_EXACT_TYPES = 1_000_000
_LOG2 = math.log(2.0)
# rows of occupations drawn, weighed or turned into ln k! values at a time
# (~1 MB of int64 or float64 at 8 labels)
_ROW_CHUNK = 16_384
# rows of a counts table per view that bulk outcomes refer to: CPython
# keeps one cached int object for each of -5..256, so an outcome's row
# index in its view, 0..255, makes no new object
_VIEW_ROWS = 256


# --- teleportation -----------------------------------------------------

def _shift(dim: int) -> np.ndarray:
    x = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        x[(j + 1) % dim, j] = 1.0
    return x


def _clock(dim: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / dim)
    return np.diag(omega ** np.arange(dim))


@dataclass(frozen=True)
class TeleportResult:
    """Output state plus the bookkeeping that the entangled resource was
    consumed by the Bell measurement."""

    state: DensityOperator
    resource_consumed: bool
    branches: int


def teleport(state: DensityOperator, x_label: str,
             resource: DensityOperator) -> TeleportResult:
    """Teleport the ``x_label`` factor of ``state`` through ``resource``.

    The resource must be the density |phi_L><phi_L| of the canonical
    maximally entangled state (``make_max_entangled``) on two factors
    matching the teleported dimension: its fidelity <phi_L|resource|phi_L>
    must reach 1 - 1e-10. Any other resource, a mixed one included,
    raises ResourceError. The output carries the factor on the
    resource's B register, appended after the untouched factors.
    """
    layout = state.layout
    dim = layout.dim_of(x_label)
    if len(resource.layout.factors) != 2:
        raise LayoutError("teleport resource must have exactly two factors, got "
                          f"{resource.layout.labels}")
    (ra, da), (rb, db) = resource.layout.factors
    if da != dim or db != dim:
        raise LayoutError(f"resource dimensions ({da}, {db}) do not match the "
                          f"teleported factor dimension {dim}")
    phi = np.zeros(dim * dim, dtype=np.complex128)
    phi[:: dim + 1] = 1.0 / math.sqrt(dim)
    fid = float((phi @ resource.entries @ phi).real)
    if fid < 1.0 - 1e-10:
        raise ResourceError("teleportation is defined only for the maximally "
                            f"entangled resource |phi_{dim}>; fidelity = {fid:.6f}")

    rest_labels = [lab for lab in layout.labels if lab != x_label]
    total = tensor(state, resource)
    total = permute(total, [x_label, ra, rb] + rest_labels)
    rest_dim = math.prod(layout.dim_of(lab) for lab in rest_labels)

    shift = _shift(dim)
    clock = _clock(dim)
    eye_tail = np.eye(dim * rest_dim)
    eye_rest = np.eye(rest_dim)

    out = np.zeros((dim * rest_dim, dim * rest_dim), dtype=np.complex128)
    rho = total.entries
    for a in range(dim):
        for b in range(dim):
            u = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            bell = (np.kron(u, np.eye(dim)) @ phi).conj().reshape(1, -1)
            kraus = np.kron(u, eye_rest) @ np.kron(bell, eye_tail)
            out += kraus @ rho @ kraus.conj().T
    out_layout = TensorLayout(((rb, dim),)
                              + tuple(f for f in layout.factors if f[0] != x_label))
    result = DensityOperator(out_layout, out)
    result = permute(result, rest_labels + [rb])
    return TeleportResult(state=result, resource_consumed=True, branches=dim * dim)


# --- concentration -----------------------------------------------------

# Cephes lgam for x >= 13: ln sqrt(2 pi) and the Stirling series
# coefficients it uses below x = 1000 (highest power of 1/x^2 first).
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
             7.93650340457716943945E-4, -2.77777777730099687205E-3,
             8.33333333333331927722E-2)
# lgam below x = 13 is the log of the exact product (x-1)!
_SMALL_LOG_FACTORIALS = np.array([math.log(float(math.factorial(k)))
                                  for k in range(12)])


def _log_factorials(k: np.ndarray) -> np.ndarray:
    """ln k! for the nonnegative int64 array ``k``, equal bit for bit to
    ``scipy.special.gammaln(k + 1.0)``: Cephes ``lgam`` at x = k + 1.

    Below x = 13 that is the log of the exact product; from there the
    Stirling series (x - 1/2) ln x - x + ln sqrt(2 pi) plus a correction
    in p = 1/x^2 divided by x: Cephes' five-term polynomial below 1000,
    a three-term one from 1000, none above 1e8. The elementwise float
    operations are the C expressions' operations in the same order,
    and ln x comes from ``math.log`` (libm), whose results numpy's own
    log need not match in the last place.
    """
    out = np.empty(k.shape)
    small = k < 12
    out[small] = _SMALL_LOG_FACTORIALS[k[small]]
    x = k[~small] + 1.0
    q = (x - 0.5) * np.fromiter(map(math.log, x.tolist()), np.float64,
                                x.size) - x + _LS2PI
    p = 1.0 / (x * x)
    series = _STIRLING[0]
    for a in _STIRLING[1:]:
        series = series * p + a
    short = ((7.9365079365079365079365e-4 * p
              - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333)
    tail = np.where(x >= 1000.0, short, series) / x
    out[~small] = np.where(x > 1.0e8, q, q + tail)
    return out


def _occupations(counts) -> np.ndarray:
    """``counts`` as an int64 array; SpecError unless every entry is a
    nonnegative integer (a float one must be finite and below 2^53)."""
    arr = np.asarray(counts)
    if arr.dtype.kind != "i":
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError):
            raise SpecError(f"occupation numbers must be integers, got "
                            f"{counts!r}") from None
        if not ((arr == np.floor(arr)) & (np.abs(arr) < 2.0 ** 53)).all():
            raise SpecError(f"occupation numbers must be finite integers "
                            f"below 2^53, got {counts!r}")
    if arr.min(initial=0) < 0:
        raise SpecError("occupation numbers must be nonnegative")
    return arr.astype(np.int64)


def _log_multinomial(counts: np.ndarray, n: int) -> np.ndarray:
    """ln n!/prod_i k_i! for each row of the (m, labels) integer ``counts``
    (each row summing to n), reading ln k! from a table of k = 0..n.

    The (rows, labels) float table lookups are made ``_ROW_CHUNK`` rows at
    a time, not as one (m, labels) temporary; each row is still summed on
    its own, so the values are the same bits.
    """
    table = _log_factorials(np.arange(n + 1))
    out = np.empty(len(counts))
    for lo in range(0, len(counts), _ROW_CHUNK):
        part = out[lo:lo + _ROW_CHUNK]
        table[counts[lo:lo + _ROW_CHUNK]].sum(axis=-1, out=part)
        np.subtract(table[n], part, out=part)
    return out


def log2_multinomial(counts) -> float:
    """log2 of n!/prod_i k_i! for the occupations ``counts`` (n is their
    sum); SpecError unless they are nonnegative integers."""
    counts = _occupations(counts)
    ln_n = _log_factorials(np.array([counts.sum()]))[0]
    return float((ln_n - _log_factorials(counts).sum()) / _LOG2)


def type_log2_dim(spectrum: SchmidtSpectrum, counts) -> float:
    """log2 dimension of the type class picked out by a label occupation
    vector: the strings sharing the type have equal coefficients, so the
    class concentrates a maximally entangled state of multinomial size."""
    counts = _occupations(counts)
    if counts.shape != (spectrum.num_labels,):
        raise SpecError(f"counts shape {counts.shape} does not match the "
                        f"{spectrum.num_labels} spectrum labels")
    return log2_multinomial(counts)


class _TableRow:
    """The slots behind a bulk outcome's deferred ``counts``: a read-only
    view of at most ``_VIEW_ROWS`` rows of its law's (m, labels) unsigned
    integer counts table, and its row in that view."""

    __slots__ = ("_table", "_row")


@dataclass(frozen=True, slots=True)
class ConcentrationOutcome(_TableRow):
    """One type-measurement outcome: label occupation vector, log2 of
    the concentrated maximally-entangled dimension, and its probability
    (or empirical weight in sampling mode).

    Outcomes built in bulk by ``concentration_distribution`` each refer to
    a view of the law's read-only (m, labels) unsigned integer counts
    table and build their ``counts`` tuple of Python ints from their row
    of it on first read, so one outcome kept on its own keeps the whole
    table alive. Equality, hashing, repr, pickling and copies see only the
    tuple.
    """

    counts: tuple[int, ...]
    log2_dim: float
    probability: float

    def __post_init__(self):
        if not (-1e-12 <= self.log2_dim < math.inf):
            raise SpecError(f"log2_dim {self.log2_dim} must be finite and "
                            "nonnegative")
        if not (-1e-12 <= self.probability <= 1.0 + 1e-12):
            raise SpecError(f"probability {self.probability} outside [0, 1]")

    def __getattr__(self, name):
        # reached only while a bulk outcome's counts slot is empty
        if name != "counts":
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        counts = tuple(self._table[self._row].tolist())
        object.__setattr__(self, "counts", counts)
        return counts

    @classmethod
    def _from_columns(cls, counts: np.ndarray, log2_dim: np.ndarray,
                      probability: np.ndarray) -> tuple[ConcentrationOutcome, ...]:
        """One outcome per row of the (m, labels) integer ``counts`` array
        and the two length-m float columns, equal to constructing each row.

        ``__post_init__``'s checks run once on the whole columns; the first
        bad row is rebuilt by the constructor so it raises the same error.
        The slots of bare instances are then filled by their descriptors,
        each with a view of ``_VIEW_ROWS`` rows of ``counts`` and its row
        in that view (a cached small int) in place of a counts tuple, so an
        outcome is one GC-tracked object. The outcomes take ``counts`` over,
        whatever its integer dtype: it is made read-only in place, not
        copied.

        The outcomes are built with the cyclic collector paused when it is
        enabled and the calling thread is the only Python thread, and it is
        enabled again afterwards, also on an error; otherwise it is left
        alone. An outcome refers only to the read-only table, an int and
        two floats, so it cannot be part of a reference cycle: the pause
        frees nothing late, it only replaces the full collections that the
        surviving outcomes set off during the build by one young collection
        after it.
        """
        ok = ((-1e-12 <= log2_dim) & (log2_dim < math.inf)
              & (-1e-12 <= probability) & (probability <= 1.0 + 1e-12))
        if not ok.all():
            i = int(np.argmin(ok))
            cls(tuple(counts[i].tolist()), float(log2_dim[i]),
                float(probability[i]))
        counts.flags.writeable = False
        m = len(counts)
        views = [counts[lo:lo + _VIEW_ROWS] for lo in range(0, m, _VIEW_ROWS)]
        # another thread may rely on the collector while this one builds
        pause = gc.isenabled() and threading.active_count() == 1
        if pause:
            gc.disable()
        try:
            # a list, then one tuple: a tuple grown from an iterator without
            # a length hint is resized, and re-tracked by the GC, as it grows
            out = list(map(object.__new__, itertools.repeat(cls, m)))
            deque(map(cls._table.__set__, out, itertools.chain.from_iterable(
                map(itertools.repeat, views, itertools.repeat(_VIEW_ROWS)))),
                maxlen=0)
            deque(map(cls._row.__set__, out,
                      itertools.cycle(range(_VIEW_ROWS))), maxlen=0)
            # one column at a time, so each one's Python list is freed
            # before the next is built
            deque(map(cls.log2_dim.__set__, out, log2_dim.tolist()), maxlen=0)
            deque(map(cls.probability.__set__, out, probability.tolist()),
                  maxlen=0)
            return tuple(out)
        finally:
            if pause:
                gc.enable()


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The __setattr__ and __delattr__ that frozen=True generates name the class
# that slots=True replaces, so on a name that is not a field they raise
# TypeError from super(); refuse every name, as a plain frozen dataclass does.
ConcentrationOutcome.__setattr__ = _refuse_set
ConcentrationOutcome.__delattr__ = _refuse_delete


def sample_type(spectrum: SchmidtSpectrum, n: int, rng) -> np.ndarray:
    """Draw one label occupation vector (multinomial over the label
    probabilities; for the two-valued psi spectrum this is k0 ~
    Binomial(n, lambda) with the rest uniform over the tail labels)."""
    if n < 1:
        raise SpecError(f"copy count must be >= 1, got {n}")
    if isinstance(rng, (int, np.integer)):
        rng = rng_from(int(rng), "sample-type")
    return rng.multinomial(n, spectrum.label_probabilities())


def _count_compositions(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every occupation vector of ``parts`` labels summing to ``total``, as
    an (m, parts) array of dtype ``np.min_scalar_type(total)`` (uint8 up to
    total = 255) in lexicographic order.

    Built one label at a time, every generation in that dtype. ``rows``
    holds the vectors of every total s = total, ..., 0 in ``width`` labels,
    as blocks in that order, so the vectors of s and all smaller totals are
    the suffix that starts at block s. Prefixing that suffix with the
    leading occupation 0, 1, ..., s (one per block) gives the vectors of s
    in ``width + 1`` labels. The last generation builds only ``total``:
    every total there would be the largest array of the call.
    """
    dtype = np.min_scalar_type(total)
    rows = np.arange(total, -1, -1, dtype=dtype)[:, None]
    sizes = np.ones(total + 1, dtype=np.int64)         # rows of total s = 0..total
    for width in range(1, parts):
        tail = np.cumsum(sizes)                        # rows of totals s, ..., 0
        tops = [total] if width == parts - 1 else range(total, -1, -1)
        grown = np.empty((tail[tops].sum(), width + 1), dtype=dtype)
        at = 0
        for s in tops:
            block = grown[at:at + tail[s]]
            block[:, 0] = np.repeat(np.arange(s + 1, dtype=dtype), sizes[s::-1])
            block[:, 1:] = rows[len(rows) - tail[s]:]
            at += tail[s]
        rows, sizes = grown, tail
    return rows[:sizes[total]]


def _exact_law(spectrum: SchmidtSpectrum, n: int):
    """(counts, logw, weights) over every label type of n copies, where
    counts is ``_compositions``' narrow table, logw is ln multinomial(n; k)
    and weights are the type probabilities.

    ln prod_i p_i^{k_i} is ``counts @ ln p`` taken ``_ROW_CHUNK`` rows at a
    time, so only one chunk of the table is cast to float at once; each row
    is still one BLAS dot product, so on one BLAS thread the values are the
    bits of the whole-table product.
    """
    label_p = spectrum.label_probabilities()
    possible = label_p > 0.0
    counts = _compositions(n, label_p.size)
    log_p = np.log(np.where(possible, label_p, 1.0))
    mass = np.empty(len(counts))
    for lo in range(0, len(counts), _ROW_CHUNK):
        np.matmul(counts[lo:lo + _ROW_CHUNK], log_p,
                  out=mass[lo:lo + _ROW_CHUNK])
    impossible = counts[:, ~possible].any(axis=1)
    logw = _log_multinomial(counts, n)
    return counts, logw, np.where(impossible, 0.0, np.exp(logw + mass))


# ((spectrum values, n), (logw, weights)) of the last exact distribution
_last_law: tuple = (None, None)


def _distinct_rows(blocks, shape: tuple[int, int], base: int, dtype):
    """(rows, counts) of the distinct rows of the nonnegative integer
    blocks of rows (``shape`` stacked, every entry below ``base``): the
    rows, of ``dtype``, in lexicographic order and how often each occurs,
    as ``np.unique(np.vstack(blocks), axis=0, return_counts=True)`` gives
    them.

    Each block is packed into int64 keys as it comes, key j of a row
    holding as many adjacent columns from j * width on as fit in an int64
    in base ``base`` (the first most significant), so only the (keys, m)
    key array is kept, never the stacked rows. The keys are sorted
    (``np.argsort`` when one key holds a row, ``np.lexsort`` otherwise: the
    rows of a run of equal keys are equal, so one key needs no stable
    sort), and the distinct rows are decoded from their keys.
    """
    m, labels = shape
    width = 1
    while width < labels and base ** (width + 1) <= 2 ** 63:
        width += 1
    keys = np.zeros((-(-labels // width), m), dtype=np.int64)
    at = 0
    for block in blocks:
        for j, col in enumerate(block.T):
            key = keys[j // width, at:at + len(block)]
            key *= base
            key += col
        at += len(block)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    keys = keys[:, order]
    starts = np.flatnonzero(np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    rows = np.empty((len(starts), labels), dtype)
    for lo, key in zip(range(0, labels, width), keys[:, starts]):
        for col in range(min(lo + width, labels) - 1, lo - 1, -1):
            key, rows[:, col] = np.divmod(key, base)
    return rows, np.diff(starts, append=m)


def _draws(rng: np.random.Generator, n: int, label_p: np.ndarray,
           samples: int):
    """``rng.multinomial(n, label_p, size=samples)`` as blocks of at most
    ``_ROW_CHUNK`` rows: consecutive calls continue the generator's
    stream, so the blocks stacked are the rows of the one call."""
    for lo in range(0, samples, _ROW_CHUNK):
        yield rng.multinomial(n, label_p, size=min(_ROW_CHUNK, samples - lo))


def _use_exact(spectrum: SchmidtSpectrum, n: int, mode: str,
               samples: int) -> bool:
    """Validate the shared arguments; True when ``mode`` resolves to exact."""
    if n < 1:
        raise SpecError(f"copy count must be >= 1, got {n}")
    if mode not in ("auto", "exact", "sample"):
        raise SpecError(f"unknown mode {mode!r}")
    if samples < 1:
        raise SpecError(f"sample count must be >= 1, got {samples}")
    n_types = _count_compositions(n, spectrum.num_labels)
    exact_ok = n_types <= _MAX_EXACT_TYPES
    if mode == "exact" and not exact_ok:
        raise ModeError(f"{n_types} label types exceed the exact-enumeration cap "
                        f"{_MAX_EXACT_TYPES}; use sampling mode")
    return exact_ok if mode == "auto" else (mode == "exact")


def _law_columns(spectrum: SchmidtSpectrum, n: int, mode: str, samples: int,
                 seed: int):
    """(counts, log2_dim, probability) columns of the type measurement's
    law on n copies: the (m, labels) occupations in lexicographic order,
    of dtype ``np.min_scalar_type(n)`` (uint8 up to n = 255), and two
    length-m float columns, without the types of weight zero. Both modes
    build the table in that dtype, so no wider copy of it ever exists. An
    exact law with no zero-weight type is left in ``_last_law`` for
    ``_exact_success_cached``."""
    global _last_law
    exact = _use_exact(spectrum, n, mode, samples)
    if exact:
        counts, logw, weights = _exact_law(spectrum, n)
    else:
        rng = rng_from(seed, "concentration-distribution", n, samples)
        label_p = spectrum.label_probabilities()
        counts, freq = _distinct_rows(
            _draws(rng, n, label_p, samples), (samples, label_p.size), n + 1,
            np.min_scalar_type(n))
        weights = freq / samples
        logw = _log_multinomial(counts, n)
    keep = weights != 0.0
    if not keep.all():
        # rebinding drops the unfiltered arrays before the outcomes are built
        counts, logw, weights = counts[keep], logw[keep], weights[keep]
    elif exact:
        # the whole law, read-only, for _exact_success_cached
        logw.flags.writeable = weights.flags.writeable = False
        _last_law = ((spectrum.values, n), (logw, weights))
    return counts, np.maximum(logw / _LOG2, 0.0), weights


def concentration_distribution(spectrum: SchmidtSpectrum, n: int,
                               mode: str = "auto", samples: int = 100_000,
                               seed: int = 0) -> tuple[ConcentrationOutcome, ...]:
    """Full outcome distribution of the type measurement on n copies.

    Exact mode enumerates all label types (refused beyond ~1e6 types:
    ModeError points to sampling); sampling mode aggregates ``samples``
    seeded draws into empirical weights. Probabilities sum to 1 either
    way, and outcomes come in lexicographic order of their counts.
    """
    return ConcentrationOutcome._from_columns(
        *_law_columns(spectrum, n, mode, samples, seed))


@dataclass(frozen=True)
class SuccessEstimate:
    """P(log2_dim >= target). Exact estimates carry a degenerate
    interval; sampled ones a 99% Wilson interval."""

    estimate: float
    ci_low: float
    ci_high: float
    exact: bool
    samples: int | None = None


def concentration_success_prob(spectrum: SchmidtSpectrum, n: int,
                               target_log2_dim: float, mode: str = "auto",
                               samples: int = 200_000, seed: int = 0,
                               ) -> SuccessEstimate:
    """Probability that the type measurement concentrates at least
    ``target_log2_dim`` bits of entanglement.

    Exact mode sums the multinomial weights of all label types meeting
    the target (same ~1e6-type cap as the distribution); sampling mode
    returns the empirical frequency with a 99% Wilson interval.
    """
    target = float(target_log2_dim)
    if not math.isfinite(target):
        raise SpecError(f"target log2 dimension must be finite, got {target}")
    if _use_exact(spectrum, n, mode, samples):
        # memoized: block strategies re-ask for the same (spectrum, n, target)
        p = _exact_success_cached(spectrum.values, n, target)
        return SuccessEstimate(estimate=p, ci_low=p, ci_high=p, exact=True)
    rng = rng_from(seed, "concentration-success", n, samples)
    wins = sum(int((_log_multinomial(block, n) / _LOG2 >= target - 1e-9).sum())
               for block in _draws(rng, n, spectrum.label_probabilities(),
                                   samples))
    lo, hi = wilson_interval(wins, samples)
    return SuccessEstimate(estimate=wins / samples, ci_low=lo, ci_high=hi,
                           exact=False, samples=samples)


@lru_cache(maxsize=256)
def _exact_success_cached(values: tuple, n: int, target: float) -> float:
    key, law = _last_law
    if key == (values, n):
        logw, weights = law
    else:
        _, logw, weights = _exact_law(SchmidtSpectrum(values=values), n)
    p = np.where(logw / _LOG2 < target - 1e-9, 0.0, weights).sum()
    return float(min(max(p, 0.0), 1.0))


@dataclass(frozen=True)
class FailureExponentFit:
    """Least-squares fit of ln(1 - P_n) ~ a - b n; ``bits_per_copy`` is
    b / ln 2. Reported as an empirical observation, not a claimed rate."""

    n_list: tuple[int, ...]
    failure_probs: tuple[float, ...]
    bits_per_copy: float
    intercept_nats: float


def failure_exponent_fit(spectrum: SchmidtSpectrum, target_bits_per_copy: float,
                         n_list) -> FailureExponentFit:
    """Fit the exponential decay of the concentration failure
    probability at a fixed per-copy target rate."""
    n_arr = [int(n) for n in n_list]
    fails = []
    for n in n_arr:
        est = concentration_success_prob(spectrum, n, target_bits_per_copy * n)
        fails.append(max(1.0 - est.estimate, 0.0))
    pts = [(n, f) for n, f in zip(n_arr, fails) if f > 0.0]
    if len(pts) < 2:
        raise DomainError("need at least two nonzero failure probabilities to fit "
                          "an exponent; lower the target or shrink n")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    return FailureExponentFit(n_list=tuple(n_arr), failure_probs=tuple(fails),
                              bits_per_copy=float(-slope / _LOG2),
                              intercept_nats=float(intercept))
