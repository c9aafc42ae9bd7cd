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
log2_dim is its base-2 logarithm. ``concentration_distribution`` is the
whole law and ``concentration_success_prob`` its tail: ``_draws`` samples
types, ``_log_multinomial`` sizes them, and no object holds a measured
state between them. Occupations are integers, so ln k! is
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
filled directly, straight into the one tuple that is returned. An outcome
has four slots: its three fields and a view of at most ``_VIEW_ROWS`` rows
of the law's read-only counts table, which the outcomes keep alive. Until
it is first read, a bulk outcome's ``counts`` slot holds its row in that
view, an int 0..255 that CPython keeps cached; a data descriptor over the
slot swaps it for the row's tuple on that read. So building an outcome
makes one object for the cyclic garbage collector to track, not two, and
every other field read stays a plain slot read. Its two floats are
interned on their float64 bit patterns, ``_ROW_CHUNK`` rows at a time
through a fixed table of ``_BUCKETS`` hash buckets: a row shares its
bucket's float when the bits are equal and keeps its own otherwise, so no
value changes (-0.0 and 0.0 stay apart) and no sort runs. Besides the
outcomes themselves, the law then keeps about one float per distinct value
alive, not two per outcome. Since an outcome refers only to the table, an
int and two floats, it cannot be part of a reference cycle, and the
outcomes are built with the collector paused (when it is enabled and no
other Python thread is alive; it is enabled again afterwards), so those
that outlive the young generations no longer set off full collections
during the build. Setting or deleting any attribute of an outcome raises
``dataclasses.FrozenInstanceError``. The ``concentrate`` command reads
the law's columns directly and builds no outcome. A copy count or
``samples`` that is not an integer (a bool is none) or is below 1, a
size past its limit (``_MAX_COPIES`` copies, ``_MAX_LABELS`` labels,
``_MAX_SAMPLES`` samples of a sampled law) and a non-finite target raise
SpecError.

The last exact law asked for is memoized, read-only, by
``_last_exact_law`` as (counts, log2_dim, weights) columns; the
distribution reads them as they are, with no copy when no type has weight
zero, and the exact success probability thresholds the same log2_dim
column, so a success probability after a distribution of the same
(spectrum, n) enumerates nothing. Exact success probabilities are also
memoized per (spectrum, n, target), which the memory-block strategies
re-ask for.
"""

from __future__ import annotations

import gc
import itertools
import math
import threading
from collections import deque
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import (DomainError, LayoutError, ModeError, ResourceError,
                     SpecError)
from .qmat import DensityOperator, TensorLayout, _check_count, permute, tensor
from .seeding import rng_from
from .states import SchmidtSpectrum
from .stats import wilson_interval

_MAX_EXACT_TYPES = 1_000_000
# largest laws: the ln k! table takes ~82 bytes per copy while it is built,
# a block of draws 8 * _ROW_CHUNK bytes per label, a law's keys ~34 per sample
_MAX_COPIES = 1_000_000
_MAX_LABELS = 256
_MAX_SAMPLES = 10_000_000
_LOG2 = math.log(2.0)
# rows of occupations drawn, weighed or turned into ln k! values at a time
# (~1 MB of int64 or float64 at 8 labels)
_ROW_CHUNK = 16_384
# rows of a counts table per view that bulk outcomes refer to: CPython
# keeps one cached int object for each of -5..256, so an outcome's row
# index in its view, 0..255, makes no new object
_VIEW_ROWS = 256
# buckets of the table that bulk outcomes' float columns are interned in
# (an n = 16 law has 1 210 distinct probabilities and 154 log2_dims), and
# the multiplier of the hash that maps a float64 bit pattern to one of them
_BUCKET_BITS = 16
_BUCKETS = 1 << _BUCKET_BITS
_HASH_MULT = np.uint64(0xFF51AFD7ED558CCD)


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


class _DeferredCounts:
    """Data descriptor over the ``counts`` slot. A bulk outcome whose
    counts were never read holds its row in its table view there, a cached
    int; the first read swaps it for the tuple of Python ints of that row,
    and every later read finds the tuple. Living on the class, it leaves
    every other attribute a plain slot read; a ``__getattr__`` hook would
    put every attribute read of every outcome on CPython's slow path."""

    __slots__ = ("_slot",)

    def __init__(self, slot):
        self._slot = slot

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        counts = self._slot.__get__(obj, owner)
        if type(counts) is int:
            # a plain outcome given an int has no table and keeps the int
            table = getattr(obj, "_table", None)
            if table is not None:
                counts = tuple(table[counts].tolist())
                self._slot.__set__(obj, counts)
        return counts

    def __set__(self, obj, value):
        self._slot.__set__(obj, value)

    def __delete__(self, obj):
        self._slot.__delete__(obj)


def _bucket(bits: np.ndarray) -> np.ndarray:
    """The bucket of each uint64 bit pattern: the top ``_BUCKET_BITS`` bits
    of x * ``_HASH_MULT`` (mod 2^64) after x ^= x >> 33, the first steps of
    MurmurHash3's 64-bit finalizer: the shift folds the sign, exponent and
    high mantissa bits into the low ones, which the product spreads over
    the top bits."""
    mixed = bits ^ (bits >> np.uint64(33))
    mixed *= _HASH_MULT
    mixed >>= np.uint64(64 - _BUCKET_BITS)
    return mixed.astype(np.intp)


def _interned(column: np.ndarray):
    """The float64 ``column`` as Python floats, ``_ROW_CHUNK`` rows at a
    time, rows of equal bits sharing one float object.

    Each chunk's bit patterns (its uint64 view) are hashed into a table of
    ``_BUCKETS`` buckets by ``_bucket``. The first row to reach an empty
    bucket puts its float there for good, and a row takes its bucket's
    float only when that float's bits equal the row's own, so no value
    changes and -0.0 and 0.0 stay apart; a row whose bucket holds another
    value gets a float of its own. No sort runs over the column, and the
    table keeps only the floats put in it: a bucket holds 1 + the index of
    its float, 0 while empty.
    """
    held = np.zeros(_BUCKETS, dtype=np.intp)
    first = np.empty(_BUCKETS, dtype=np.intp)
    floats = np.empty(1, dtype=object)
    kept = np.zeros(1, dtype=np.uint64)    # the bits of each of floats
    for lo in range(0, len(column), _ROW_CHUNK):
        chunk = column[lo:lo + _ROW_CHUNK]
        bits = chunk.view(np.uint64)
        bucket = _bucket(bits)
        at = held[bucket]
        rows = np.flatnonzero(at == 0)
        if rows.size:
            # one row per empty bucket: the one whose index the last write
            # left in first[] (numpy writes repeated indices in order, so
            # in the reversed row list, the chunk's first row)
            empty = bucket[rows]
            first[empty[::-1]] = rows[::-1]
            claims = first[empty] == rows
            new = rows[claims]
            held[empty[claims]] = np.arange(len(floats), len(floats) + len(new))
            floats = np.concatenate((floats, chunk[new].astype(object)))
            kept = np.concatenate((kept, bits[new]))
            at[rows] = held[empty]
        out = floats[at]
        own = kept[at] != bits
        if own.any():
            out[own] = chunk[own].astype(object)
        yield out.tolist()


@dataclass(frozen=True)
class ConcentrationOutcome:
    """One type-measurement outcome: label occupation vector, log2 of
    the concentrated maximally-entangled dimension, and its probability
    (or empirical weight in sampling mode).

    An outcome has four slots, the same for every outcome. Outcomes built
    in bulk by ``concentration_distribution`` each refer to a view of the
    law's read-only (m, labels) unsigned integer counts table, and their
    ``counts`` slot holds their row in that view until its first read,
    which swaps in the tuple of Python ints of the row
    (``_DeferredCounts``, the descriptor over the slot); so one outcome
    kept on its own keeps the whole table alive. Their ``log2_dim`` and
    ``probability`` are plain slots that share one float object among
    outcomes whose values have the same bits (``_interned``). Equality,
    hashing, repr, pickling and copies see only the tuple and the two
    values.
    """

    # besides the fields: a bulk outcome's read-only view of at most
    # ``_VIEW_ROWS`` rows of the law's counts table
    __slots__ = ("counts", "log2_dim", "probability", "_table")

    counts: tuple[int, ...]
    log2_dim: float
    probability: float

    def __post_init__(self):
        if not (-1e-12 <= self.log2_dim < math.inf):
            raise SpecError(f"log2_dim {self.log2_dim} must be finite and "
                            "nonnegative")
        if not (-1e-12 <= self.probability <= 1.0 + 1e-12):
            raise SpecError(f"probability {self.probability} outside [0, 1]")

    # the state is the field list, as slots=True would define it, so
    # pickles keep their bytes
    def __getstate__(self):
        return [getattr(self, f.name) for f in fields(self)]

    def __setstate__(self, state):
        for f, value in zip(fields(self), state):
            object.__setattr__(self, f.name, value)

    @classmethod
    def _from_columns(cls, counts: np.ndarray, log2_dim: np.ndarray,
                      probability: np.ndarray) -> tuple[ConcentrationOutcome, ...]:
        """One outcome per row of the (m, labels) integer ``counts`` array
        and the two length-m float columns, equal to constructing each row.

        ``__post_init__``'s checks run once on the whole columns; the first
        bad row is rebuilt by the constructor so it raises the same error.
        The bare instances are made straight into the returned tuple, and
        their slots are then filled by the slot descriptors: ``_table``
        with a view of ``_VIEW_ROWS`` rows of ``counts`` and ``counts``
        with the outcome's row in that view (a cached small int) in place
        of its tuple, so an outcome is one GC-tracked object of four
        slots. The outcomes take ``counts`` over, whatever its integer
        dtype: it is made read-only in place, not copied. Each float
        column is interned on its bit patterns, one ``_ROW_CHUNK`` at a
        time (``_interned``): rows of equal bits share one float unless
        another value holds their bucket, so a law keeps about one float
        per distinct value, not two per outcome.

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
            # no list beside the tuple: grown from an iterator without a
            # length hint, it is resized as it grows (at most a quarter
            # over m before its last trim)
            out = tuple(map(object.__new__, itertools.repeat(cls, m)))
            deque(map(cls._table.__set__, out, itertools.chain.from_iterable(
                map(itertools.repeat, views, itertools.repeat(_VIEW_ROWS)))),
                maxlen=0)
            deque(map(cls.counts._slot.__set__, out,
                      itertools.cycle(range(_VIEW_ROWS))), maxlen=0)
            # one column and one chunk at a time, so no column-long list of
            # floats is built
            for column, slot in ((log2_dim, cls.log2_dim),
                                 (probability, cls.probability)):
                deque(map(slot.__set__, out, itertools.chain.from_iterable(
                    _interned(np.asarray(column, np.float64)))),
                    maxlen=0)
            return out
        finally:
            if pause:
                gc.enable()


ConcentrationOutcome.counts = _DeferredCounts(ConcentrationOutcome.counts)


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


def _log2_dims(logw: np.ndarray) -> np.ndarray:
    """``np.maximum(logw / ln 2, 0.0)``, the log2 dimensions of types whose
    ln multinomial is ``logw``, computed in place in ``logw``. The clamp
    never acts on a law's own values: ln multinomial is 0.0 exactly for a
    type of one label and at least ln 2 for any other."""
    np.divide(logw, _LOG2, out=logw)
    return np.maximum(logw, 0.0, out=logw)


@lru_cache(maxsize=1)
def _last_exact_law(values: tuple, n: int):
    """(counts, log2_dim, weights) of the spectrum ``values`` on n copies,
    read-only: ``_exact_law`` with its logw column turned in place into
    the clamped log2_dim column (``_log2_dims``), so the law keeps one
    float column of dimensions, which the distribution and the exact
    success probability both read. The one memo of an exact law, holding
    the last (values, n) asked for; a miss drops the held law before it
    enumerates the next one."""
    _last_exact_law.cache_clear()
    counts, logw, weights = _exact_law(SchmidtSpectrum(values=values), n)
    law = counts, _log2_dims(logw), weights
    for column in law:
        column.flags.writeable = False
    return law


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
    """Validate the shared arguments, copies and labels against their
    limits; True when ``mode`` resolves to exact."""
    _check_count(n, "copy count", high=_MAX_COPIES)
    if mode not in ("auto", "exact", "sample"):
        raise SpecError(f"unknown mode {mode!r}")
    _check_count(samples, "sample count")
    if spectrum.num_labels > _MAX_LABELS:
        raise SpecError(f"{spectrum.num_labels} Schmidt labels exceed the "
                        f"limit {_MAX_LABELS}")
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
    exact law is read through ``_last_exact_law``: when no type has weight
    zero, the three columns returned are the memo's own read-only arrays,
    log2_dim included, not copies. A sampled law sizes its keys by
    ``samples``, which must not pass ``_MAX_SAMPLES``."""
    if _use_exact(spectrum, n, mode, samples):
        counts, log2_dim, weights = _last_exact_law(spectrum.values, n)
    else:
        if samples > _MAX_SAMPLES:
            raise SpecError(f"sample count {samples} exceeds the limit "
                            f"{_MAX_SAMPLES} of a sampled law")
        rng = rng_from(seed, "concentration-distribution", n, samples)
        label_p = spectrum.label_probabilities()
        counts, freq = _distinct_rows(
            _draws(rng, n, label_p, samples), (samples, label_p.size), n + 1,
            np.min_scalar_type(n))
        weights = freq / samples
        log2_dim = _log2_dims(_log_multinomial(counts, n))
    keep = weights != 0.0
    if not keep.all():
        counts, log2_dim, weights = counts[keep], log2_dim[keep], weights[keep]
    return counts, log2_dim, weights


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
    """The weight of the memoized law's types whose log2_dim reaches
    ``target`` (less 1e-9), read from the memo's own log2_dim column."""
    _, log2_dim, weights = _last_exact_law(values, n)
    p = np.where(log2_dim < target - 1e-9, 0.0, weights).sum()
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
    n_arr = list(n_list)
    for n in n_arr:
        _check_count(n, "copy count", high=_MAX_COPIES)
    n_arr = [int(n) for n in n_arr]
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
