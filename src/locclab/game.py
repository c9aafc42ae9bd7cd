"""Multi-round discrimination games, detection protocols, and
concentration-inequality validators.

The engine is probability-accounting: a strategy never sees the
referee's bit Z_j, only whether its guess matched (classical feedback),
and per round it declares a success probability computed from its own
memory state. The engine draws the success indicator and forms Y_j
from Z_j; a trial is one ``TrialArrays``, whose constructor checks the
transcript invariants (Z and Y bits, X = 1[Y = Z], S = cumsum(X)) on
the whole arrays. A full density-matrix backend is used only where the
state spaces are tiny (see run_teleport_discrimination); the
statistical claims being checked constrain success probabilities and
memory bookkeeping only.

One checked engine core plays every ensemble: it draws a (trials, n)
array of success uniforms u and hands it to ``Strategy.play``, which
returns the declared probabilities p, shape (trials, n), and one list
of memory descriptors per trial; round j of a trial succeeds iff
u_j < p_j. The contract is causal and one-draw-per-round: in each row,
p_j may depend only on u_1..u_{j-1} (the outcomes of earlier rounds)
and on the strategy's own stream, and each round consumes exactly one
u. Rows share that stream in trial order, so a large ensemble is played
in chunks of rows, in bounded memory and with the numbers of one call.
The base-class ``play`` is the adapter that resets the strategy before
each row and drives ``success_probability``/``observe``/``descriptor``
round by round; the built-in strategies (i.i.d., history-capped,
reusable-memory blocks) override it with closed forms, vectorized over
trials, that return the same numbers, and the tests take their scalar
methods as the reference.

``play_trial`` is the core with one trial on its per-trial substreams,
plus the referee bits, returned as a ``TrialArrays``: the single game of
``_play_trials``, the one trial loop, which the CLI game commands run
over all their trials. It derives the three stream keys of a chunk of
trials in one batch (``seeding.philox_keys``, whose reference is numpy's
``SeedSequence``) and re-keys three reused Philox generators as each
trial starts. The library ensembles (``simulate_ensemble``,
``estimate_rate``, ``detection_accuracy``) call the core once per
ensemble, checkpoint or world, on the ``("ensemble",)``, ``("rate", n)``
and ``("accuracy", world)`` prefixes. They never need referee bits, and
they draw each ensemble in array calls from one stream pair, so their
numbers differ from the CLI's for the same seed.

Randomness: referee bits, success draws, and strategy-owned randomness
come from independently labeled substreams of one root seed, so
detection thresholds cannot correlate with preparation. Drawing a
stream's values in one array call gives the same numbers, in row-major
order, as drawing them one by one, so the engine reproduces the
round-by-round transcripts exactly and the first k rows of an ensemble
are the k-trial ensemble.

Also here: threshold detection with its Hoeffding and Azuma tails, and
the supermartingale drift audit of a ``simulate_ensemble`` matrix; rate
and detection estimates carry 99% Wilson intervals (``locclab.stats``).
Each law has one path: ``DetectionConfig.guess`` is the threshold rule,
which ``detection_accuracy`` applies to an ensemble per world and the
CLI's ``detect`` to each trial it plays, and a strategy reads nothing
but its success uniforms and its own stream.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CatalystViolation, DomainError, SpecError
from .protocols import concentration_success_prob, teleport
from .qmat import DensityOperator, _check_count
from .seeding import keyed_rng, philox_keys, rekey, rng_from
from .states import (HidingPairSpec, PsiSpec, _swap, check_psi_conditions,
                     make_hiding_pair, make_max_entangled, psi_product_distance,
                     psi_spectrum)
from .stats import wilson_interval

Label = int | str

# The drift audit's trajectories per bucket, z-score bound and share of
# buckets allowed past it; the default oracle's drop after a failure.
_AUDIT_MIN_COUNT = 50
_AUDIT_Z_TOL = 3.0
_AUDIT_ALLOWED_EXCEEDANCE = 0.005
_ORACLE_DROP = 0.1


# --- strategies ----------------------------------------------------------

class Strategy(ABC):
    """Per-round success-probability oracle with owned memory state.

    Strategies learn outcomes only through ``observe`` (match or not);
    the referee bit never reaches them, and neither does any state: what
    a strategy knows is its own memory and its own random stream.
    Subclasses that set ``catalytic`` True promise an unchanged memory
    descriptor across every round, and the engine verifies that promise
    instead of trusting it.
    """

    protocol_id: str = "strategy"
    catalytic: bool = False

    def reset(self, rng: np.random.Generator) -> None:
        """Initialize per-trial state; ``rng`` is the strategy's own stream."""

    @abstractmethod
    def success_probability(self, j: int) -> float:
        """Probability that round j's guess matches, given current memory."""

    def observe(self, j: int, success: bool) -> None:
        """Classical feedback after round j."""

    def descriptor(self) -> str:
        return "-"

    def play(self, u: np.ndarray, rng: np.random.Generator
             ) -> tuple[np.ndarray, list[list[str]]]:
        """Play one trial per row of the (trials, n) success uniforms
        ``u`` (round j of row t succeeds iff u[t, j-1] < p[t, j-1]) and
        return the declared probabilities p, shape (trials, n), and one
        descriptor list per trial: the descriptor before round 1, then
        the one after each round; rows with equal descriptors may share
        one list, which callers only read. ``rng`` is the strategy's own
        stream, shared by the rows in order. An override must keep each
        row causal: p[t, j-1] may depend on u[t, :j-1] and rng only, and
        its draws from rng must be the ones the scalar methods make, row
        after row, in the same order.

        This default resets the strategy before each row, then plays it
        round by round through success_probability, observe and
        descriptor. A row stops at its first probability outside [0, 1]
        or, for a catalytic strategy, its first changed descriptor; its
        descriptor list then ends there and its unplayed rounds are NaN,
        for the engine to report.
        """
        trials, n = u.shape
        p = np.full((trials, n), np.nan)
        descriptors = []
        for row, u_row in zip(p, u.tolist()):
            self.reset(rng)
            memory = [self.descriptor()]
            for j, uj in enumerate(u_row, 1):
                pj = row[j - 1] = float(self.success_probability(j))
                if not 0.0 <= pj <= 1.0:
                    break
                self.observe(j, uj < pj)
                memory.append(self.descriptor())
                if self.catalytic and memory[-1] != memory[-2]:
                    break
            descriptors.append(memory)
        return p, descriptors


class IIDStrategy(Strategy):
    """Memoryless oracle succeeding with fixed probability p each round."""

    def __init__(self, p: float, protocol_id: str = "iid"):
        if not 0.0 <= p <= 1.0:
            raise SpecError(f"success probability {p} outside [0, 1]")
        self.p = float(p)
        self.protocol_id = protocol_id

    def success_probability(self, j: int) -> float:
        return self.p

    def descriptor(self) -> str:
        return f"iid:{self.p:.12g}"

    def play(self, u, rng):
        trials, n = u.shape
        return np.full(u.shape, self.p), [[self.descriptor()] * (n + 1)] * trials


class HistoryCappedStrategy(Strategy):
    """Success probability p_cap while the record is clean, dropping to
    p_cap - drop permanently after the first failure. Conditional
    success never exceeds p_cap, so C_j = S_j - j p_cap is a
    supermartingale."""

    protocol_id = "history-capped"

    def __init__(self, p_cap: float, drop: float = 0.1):
        if not 0.0 <= p_cap <= 1.0:
            raise SpecError(f"cap {p_cap} outside [0, 1]")
        if not 0.0 <= drop <= p_cap:
            raise SpecError(f"drop {drop} must lie in [0, p_cap]")
        self.p_cap = float(p_cap)
        self.drop = float(drop)
        self._failed = False

    def reset(self, rng) -> None:
        self._failed = False

    def success_probability(self, j: int) -> float:
        return self.p_cap - self.drop if self._failed else self.p_cap

    def observe(self, j: int, success: bool) -> None:
        if not success:
            self._failed = True

    def descriptor(self) -> str:
        return f"failed={int(self._failed)}"

    def play(self, u, rng):
        trials, n = u.shape
        misses = u >= self.p_cap
        # each row's first failed round, n + 1 when it never fails
        first = np.where(misses.any(axis=1), misses.argmax(axis=1) + 1, n + 1)
        p = np.where(np.arange(1, n + 1) > first[:, None],
                     self.p_cap - self.drop, self.p_cap)
        firsts = first.tolist()
        lists = {f: ["failed=0"] * f + ["failed=1"] * (n + 1 - f)
                 for f in set(firsts)}
        return p, [lists[f] for f in firsts]


class MemoryBlockStrategy(Strategy):
    """Block protocol backed by reusable quantum memory.

    The trial starts with memory locally equivalent to n_block
    maximally entangled d1-level pairs, so every round of the first
    block succeeds with certainty (teleport the prepared half, then
    discriminate the orthogonal hiding pair globally). Each finished
    block re-concentrates the n_block stored psi copies; success, with
    the exact probability that the Schmidt-type measurement yields at
    least n_block log2(d1) bits, recharges the budget for the next
    block, while failure leaves only fair guessing (probability 1/2)
    for that block. A block law with too many label types to enumerate
    is sampled, from the ``concentration-success`` substream of root
    ``seed``, and the strategy keeps that estimate in ``block_estimate``.
    """

    protocol_id = "memory-block"

    def __init__(self, d1: int, psi_spec: PsiSpec, n_block: int, seed: int = 0):
        conditions = check_psi_conditions(
            psi_spec, d1, eps_prime=psi_product_distance(psi_spec))
        _check_count(n_block, "n_block")
        if conditions.entropy_excess <= 0.0:
            raise SpecError(
                "memory-block protocol needs marginal entropy exceeding "
                f"log2(d1) = {math.log2(d1):.6f} bits; psi supplies only "
                f"{conditions.entropy_bits:.6f}")
        self.d1 = d1
        self.psi_spec = psi_spec
        self.n_block = n_block
        est = concentration_success_prob(
            psi_spectrum(psi_spec), n_block, n_block * math.log2(d1), seed=seed)
        self.block_estimate = est  # exact, or sampled off root ``seed``
        self.block_success_prob = est.estimate
        self.eps_tilde = 1.0 - est.estimate
        self._rng: np.random.Generator | None = None
        self._block = 0
        self._used = 0
        self._charged = True

    def reset(self, rng) -> None:
        self._rng = rng
        self._block = 0
        self._used = 0
        self._charged = True  # initial memory is granted, not gambled

    def success_probability(self, j: int) -> float:
        return 1.0 if self._charged else 0.5

    def observe(self, j: int, success: bool) -> None:
        self._used += 1
        if self._used == self.n_block:
            self._used = 0
            self._block += 1
            self._charged = self._rng.random() < self.block_success_prob

    def descriptor(self) -> str:
        budget = "full" if self._charged else "degraded"
        return f"block={self._block};budget={budget};used={self._used}"

    def play(self, u, rng):
        (trials, n), size = u.shape, self.n_block
        # block k's budget per row; each completed block draws one recharge
        charged = np.ones((trials, n // size + 1), dtype=bool)
        charged[:, 1:] = rng.random((trials, n // size)) < self.block_success_prob
        p = np.where(np.repeat(charged, size, axis=1)[:, :n], 1.0, 0.5)
        table = _block_descriptors(size, n)
        descriptors = []
        for row in charged.tolist():
            memory: list[str] = []
            for k, full in enumerate(row):
                memory += table[full][k * size:(k + 1) * size]
            descriptors.append(memory)
        return p, descriptors


@lru_cache(maxsize=32)
def _block_descriptors(size: int, n: int) -> tuple[tuple[str, ...], ...]:
    """MemoryBlockStrategy descriptors after m = 0..n rounds, indexed
    [degraded, full]; shared by every trial of the same shape."""
    return tuple(
        tuple(f"block={m // size};budget={budget};used={m % size}"
              for m in range(n + 1))
        for budget in ("degraded", "full"))


def memory_block_strategy(d1: int, psi_spec: PsiSpec, n_block: int,
                          seed: int = 0) -> MemoryBlockStrategy:
    """Build the reusable-memory block strategy (see MemoryBlockStrategy)."""
    return MemoryBlockStrategy(d1, psi_spec, n_block, seed)


# --- game engine ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrialArrays:
    """One n-round game as arrays: referee bits Z, guesses Y, success
    indicators X = 1[Y = Z], running score S, and the memory descriptor
    before round 1 followed by the one after each round (n + 1 strings).

    The constructor checks these invariants, in this order: the lengths,
    one integer type, Z and Y bits with X = 1[Y = Z], and S = cumsum(X).
    A valid trial costs one whole-array test per invariant; only when a
    test fails is the first offending round located, and SpecError names
    it. Two trials are equal when their protocol, descriptors and arrays
    are; trials are not hashable.
    """

    protocol_id: str
    Z: np.ndarray
    Y: np.ndarray
    X: np.ndarray
    S: np.ndarray
    descriptors: list[str]

    __hash__ = None

    def __post_init__(self):
        z, y, x, s = arrays = tuple(
            map(np.asarray, (self.Z, self.Y, self.X, self.S)))
        n = x.size
        if not (n >= 1 and z.shape == y.shape == x.shape == s.shape == (n,)
                and len(self.descriptors) == n + 1):
            raise SpecError(
                f"transcript length mismatch: n={n}, Z {z.shape}, Y {y.shape}, "
                f"S {s.shape}, {len(self.descriptors)} descriptors (want "
                f"n >= 1 rounds and n + 1 descriptors)")
        if np.result_type(*arrays).kind not in "biu":
            raise SpecError(f"transcript arrays must share an integer type, got "
                            f"Z {z.dtype}, Y {y.dtype}, X {x.dtype}, S {s.dtype}")
        # zero exactly in the rounds where Z and Y are bits and X = 1[Y = Z]
        # (X = Z ^ Y ^ 1 is then a bit too)
        bad = ((z | y) >> 1) | (x ^ z ^ y ^ 1)
        if np.count_nonzero(bad):
            j = int(np.flatnonzero(bad)[0])
            raise SpecError(f"round {j + 1}: Z and Y must be bits"
                            if (z[j] | y[j]) >> 1
                            else f"round {j + 1}: X must indicate Y == Z")
        telescopes = s == x.cumsum()
        if np.count_nonzero(telescopes) != n:
            k = int(telescopes.argmin())
            raise SpecError(f"S_{k + 1} = {s[k]} does not telescope")

    def __eq__(self, other):
        if not isinstance(other, TrialArrays):
            return NotImplemented
        return (self.protocol_id == other.protocol_id
                and self.descriptors == other.descriptors
                and all(np.array_equal(a, b) for a, b in (
                    (self.Z, other.Z), (self.Y, other.Y),
                    (self.X, other.X), (self.S, other.S))))

    @property
    def n(self) -> int:
        return len(self.X)

    @property
    def final_score(self) -> int:
        return int(self.S[-1])

    @property
    def success_fraction(self) -> float:
        return self.final_score / self.n


def _first_change(descriptors: list[str]) -> int | None:
    """First round j whose descriptor after differs from the one before."""
    if descriptors.count(descriptors[0]) == len(descriptors):
        return None
    return next(j for j in range(1, len(descriptors))
                if descriptors[j] != descriptors[j - 1])


# uniforms per chunk of rows the engine core plays at once (2 MiB of float64)
_CHUNK_CELLS = 1 << 18
# most rounds of one trial, which holds ~60 bytes per round in arrays and
# ~620 with memory-block descriptors and the CLI's --out lines (~0.6 GB)
_MAX_ROUNDS = 1_000_000
# most success indicators (trials x rounds) of one ensemble, whose bool
# matrix is allocated whole: 256 MiB
_MAX_CELLS = 1 << 28


def _play_rows(strategy: Strategy, u: np.ndarray, rng: np.random.Generator
               ) -> tuple[np.ndarray, list[list[str]]]:
    """``strategy.play`` on the (rows, n) success uniforms ``u`` and the
    strategy stream ``rng``; returns the success indicators X = 1[u < p]
    with the descriptor lists.

    Every invariant of the round loop is checked, in this order: the
    shapes ``play`` returned, declared probabilities in [0, 1] (SpecError
    naming the first offending round of the first offending trial),
    unchanged descriptors for catalytic strategies (CatalystViolation
    naming the first changed round, when it comes before that trial's
    first bad round), and n + 1 descriptors per trial. The probabilities
    cost one whole-array test; the offending trial and round are located,
    and a message formatted, only when it fails. A catalytic strategy's
    descriptors are compared trial by trial.
    """
    trials, n = u.shape
    p, descriptors = strategy.play(u, rng)
    p = np.asarray(p, dtype=float)
    if p.shape != (trials, n) or len(descriptors) != trials:
        raise SpecError(_malformed(strategy, p, descriptors, trials, n))
    ok = (p >= 0.0) & (p <= 1.0)  # False at NaN
    if strategy.catalytic or np.count_nonzero(ok) != ok.size:
        bad = ~ok
        bad_round = np.where(bad.any(axis=1), bad.argmax(axis=1) + 1, n + 1)
        # report the first failing trial; without the catalytic check,
        # that is the first trial with a bad probability
        for t in (range(trials) if strategy.catalytic
                  else np.flatnonzero(bad_round <= n)[:1]):
            memory, first_bad = descriptors[t], int(bad_round[t])
            changed = _first_change(memory) if strategy.catalytic else None
            if changed is not None and changed < first_bad:
                raise CatalystViolation(
                    f"round {changed}: catalytic strategy changed its memory "
                    f"descriptor from {memory[changed - 1]!r} to "
                    f"{memory[changed]!r}")
            if first_bad <= n:
                raise SpecError(f"strategy declared success probability "
                                f"{float(p[t, first_bad - 1])} outside [0, 1] "
                                f"in round {first_bad}")
    if any(len(memory) != n + 1 for memory in descriptors):
        raise SpecError(_malformed(strategy, p, descriptors, trials, n))
    return u < p, descriptors


def _malformed(strategy: Strategy, p: np.ndarray, descriptors: list,
               trials: int, n: int) -> str:
    """The error message for a ``play`` return of the wrong shape."""
    return (f"{type(strategy).__name__}.play returned probabilities of "
            f"shape {p.shape} and {len(descriptors)} descriptor lists for "
            f"{trials} trials of {n} rounds (want {n} and {n + 1} per trial)")


def _play_checked(strategy: Strategy, n: int, trials: int, seed: int,
                  stream: tuple[Label, ...]) -> np.ndarray:
    """The engine core of the ensembles: play ``trials`` rows of n rounds
    on the ``(*stream, "success" | "strategy")`` substreams of ``seed``
    and return the success indicators, shape (trials, n).

    SpecError, before anything is allocated, unless n and trials are
    integers, 1 <= n <= ``_MAX_ROUNDS``, trials >= 1 and trials * n <=
    ``_MAX_CELLS``.
    Rows are played and checked (``_play_rows``) in chunks of at most
    max(1, _CHUNK_CELLS // n) rows, whose descriptors are dropped, so
    memory beyond the result stays bounded. A chunk's uniforms are the
    next draws of the success stream, written into one buffer that every
    chunk reuses, and ``play`` draws from its stream row after row, so
    the chunks give the numbers of one call.
    """
    _check_count(n, "round count", high=_MAX_ROUNDS)
    _check_count(trials, "trial count")
    if trials * n > _MAX_CELLS:
        raise SpecError(f"{trials} trials of {n} rounds exceed the limit "
                        f"{_MAX_CELLS} of success indicators per ensemble")
    uniforms = rng_from(seed, *stream, "success")
    own = rng_from(seed, *stream, "strategy")
    x = np.empty((trials, n), dtype=bool)
    rows = max(1, _CHUNK_CELLS // n)
    # one uniforms buffer for every chunk: a fresh 2 MiB array per chunk
    # would be mmapped and faulted in anew unless an earlier large free
    # had raised glibc's mmap threshold
    u = np.empty((min(rows, trials), n))
    for lo in range(0, trials, rows):
        chunk = x[lo:lo + rows]
        chunk[...], _ = _play_rows(strategy,
                                   uniforms.random(out=u[:len(chunk)]), own)
    return x


# the substreams of one trial, in the order of their manifest entries (a
# key depends only on its labels, not on its place in a batch)
_TRIAL_STREAMS = ("rounds", "success", "strategy")
# trials whose stream keys are derived in one batch (3 keys each)
_KEY_CHUNK = 256


def play_trial(strategy: Strategy, n: int = 1, seed: int = 0,
               stream: tuple[Label, ...] = ()) -> TrialArrays:
    """Play n rounds against a uniform referee and return the arrays.

    This is the checked engine core with one trial, the single game of
    ``_play_trials``: success uniforms and strategy randomness come from
    the ``(*stream, "success" | "strategy")`` substreams of ``seed``,
    referee bits from ``(*stream, "rounds")``. ``stream``, a tuple or list
    of labels (a str or bytes is a SpecError), prefixes the substream
    labels so callers (trials, detection worlds) stay on independent
    random streams of the same root seed. The strategy gets the uniforms
    and its stream and nothing else. On top of the core's checks, the
    ``TrialArrays`` constructor verifies X = 1[Y = Z] and S = cumsum(X).
    """
    return next(_play_trials([(strategy, n, stream)], seed))


def _play_trials(games: Iterable[tuple[Strategy, int, tuple[Label, ...]]],
                 seed: int) -> Iterator[TrialArrays]:
    """Play each ``(strategy, n, stream)`` of ``games`` in order and yield
    its trial (see ``play_trial``), one at a time.

    The round counts and streams of ``_KEY_CHUNK`` games at a time are
    checked, and then their stream keys come from one batch derivation
    (``seeding.philox_keys``), so a bad round count or stream is reported
    before a bad seed. Three generators, built once, are re-keyed to a
    trial's streams when it starts, after the previous trial was yielded.
    So memory holds one trial and one chunk of games and keys whatever
    their number, and a strategy that keeps its generator holds it only
    for the trial it plays. The guess is Y = Z ^ X ^ 1 from the success
    indicators X, and the ``TrialArrays`` constructor checks X = 1[Y = Z].
    """
    generators = [keyed_rng(np.zeros(2, dtype=np.uint64))
                  for _ in _TRIAL_STREAMS]
    rounds, success, own = generators
    games = iter(games)
    while chunk := list(itertools.islice(games, _KEY_CHUNK)):
        for _, n, stream in chunk:
            _check_count(n, "round count", high=_MAX_ROUNDS)
            if isinstance(stream, (str, bytes)):
                raise SpecError(f"stream must be a tuple of labels, got the "
                                f"{type(stream).__name__} {stream!r}")
        keys = philox_keys(seed, [(*stream, name) for _, _, stream in chunk
                                  for name in _TRIAL_STREAMS])
        # Python ints, which rekey hands numpy faster than array items
        keys = keys.reshape(len(chunk), len(_TRIAL_STREAMS), 2).tolist()
        for (strategy, n, _), trial_keys in zip(chunk, keys):
            for rng, key in zip(generators, trial_keys):
                rekey(rng, key)
            (matched,), (descriptors,) = _play_rows(
                strategy, success.random((1, n)), own)
            z = rounds.integers(0, 2, size=n)
            x = matched.astype(np.int64)
            yield TrialArrays(protocol_id=strategy.protocol_id, Z=z,
                              Y=z ^ x ^ 1, X=x, S=x.cumsum(),
                              descriptors=descriptors)


def simulate_ensemble(strategy: Strategy, n: int, trials: int,
                      seed: int = 0) -> np.ndarray:
    """(trials, n) matrix of success indicators: one call of the engine
    core on the ``("ensemble",)`` stream pair."""
    return _play_checked(strategy, n, trials, seed,
                         ("ensemble",)).view(np.uint8)


# --- rate estimation --------------------------------------------------------

def _interval(frac: float, trials: int) -> tuple[float, float]:
    """99% Wilson interval of a frequency observed over ``trials``
    independent trials."""
    return wilson_interval(round(frac * trials), trials)


@dataclass(frozen=True)
class RateEstimate:
    """Empirical Pr(S_n >= r n) at each checkpoint n, no interpolation;
    every checkpoint rests on ``trials`` independent trials."""

    r: float
    n_list: tuple[int, ...]
    success_frac: tuple[float, ...]
    trials: int

    def __post_init__(self):
        for frac in self.success_frac:
            if not 0.0 <= frac <= 1.0:
                raise SpecError(f"success fraction {frac} outside [0, 1]")

    @property
    def ci(self) -> tuple[tuple[float, float], ...]:
        """99% Wilson interval of each checkpoint's success fraction."""
        return tuple(_interval(f, self.trials) for f in self.success_frac)

    @staticmethod
    def reached(score, r: float, n: int):
        """Whether a score S_n (or each of an array of them) reaches r n,
        with 1e-9 of slack for the rounding of r n: the success rule of
        every checkpoint."""
        return score >= r * n - 1e-9


def estimate_rate(strategy: Strategy, pair=None, r: float = 0.0,
                  trials: int = 100, n_list=(100,), seed: int = 0
                  ) -> RateEstimate:
    """Estimate how often the strategy scores at least r n by round n.

    Each checkpoint is one fresh ensemble of independent trials on the
    ``("rate", n)`` stream pair (memory strategies are not resumable
    across checkpoints).

    The second positional slot, ``pair``, takes only None, and any other
    value raises SpecError: no strategy reads a state. It stays because
    the benchmark's workloads (``perfbench/workloads.py``) pass None in
    it, and it goes with the benchmark change of ROADMAP item 1.
    """
    if pair is not None:
        raise SpecError("estimate_rate takes no state pair: its second "
                        f"argument must be None, got {type(pair).__name__}")
    if not 0.0 <= r <= 1.0:
        raise SpecError(f"target rate {r} outside [0, 1]")
    _check_count(trials, "trial count")
    fracs = []
    for n in n_list:
        x = _play_checked(strategy, n, trials, seed, ("rate", n))
        fracs.append(float(np.mean(RateEstimate.reached(x.sum(axis=1), r, n))))
    return RateEstimate(r=float(r), n_list=tuple(int(n) for n in n_list),
                        success_frac=tuple(fracs), trials=trials)


# --- detection protocols ------------------------------------------------------

@dataclass(frozen=True)
class DetectionConfig:
    """Threshold-test parameters.

    catalyst-threshold mode guesses the advantage world when
    |S_n/n - p_tau| <= delta, which separates the worlds only if
    0 < delta < (p_tau - p_locc)/2; memory-threshold mode guesses it
    when S_n/n - p_locc >= delta.
    """

    p_tau: float
    p_locc: float
    delta: float
    n: int
    mode: str = "catalyst-threshold"

    def __post_init__(self):
        if self.mode not in ("catalyst-threshold", "memory-threshold"):
            raise SpecError(f"unknown detection mode {self.mode!r}")
        for name, p in (("p_tau", self.p_tau), ("p_locc", self.p_locc)):
            if not 0.0 <= p <= 1.0:
                raise SpecError(f"{name} = {p} outside [0, 1]")
        if self.p_tau <= self.p_locc:
            raise SpecError(f"p_tau = {self.p_tau} must exceed p_locc = {self.p_locc}")
        _check_count(self.n, "round count")
        gap = (self.p_tau - self.p_locc) / 2.0
        if self.mode == "catalyst-threshold":
            if not 0.0 < self.delta < gap:
                raise SpecError(f"catalyst mode needs 0 < delta < "
                                f"(p_tau - p_locc)/2 = {gap}; got {self.delta}")
        elif not 0.0 < self.delta <= gap:
            raise SpecError(f"memory mode needs 0 < delta <= "
                            f"(p_tau - p_locc)/2 = {gap}; got {self.delta}")

    def guess(self, frac) -> np.ndarray | str:
        """The world, "tau" or "gamma", that the threshold rule guesses
        from a success fraction S_n/n (or from each of an array of them)."""
        if self.mode == "catalyst-threshold":
            is_tau = np.abs(np.asarray(frac) - self.p_tau) <= self.delta
        else:
            is_tau = np.asarray(frac) - self.p_locc >= self.delta
        if np.ndim(is_tau) == 0:
            return "tau" if bool(is_tau) else "gamma"
        return np.where(is_tau, "tau", "gamma")


@dataclass(frozen=True)
class DetectionOracle:
    """Round oracles for the two hypotheses: ``tau`` simulates the
    world holding the genuine advantage resource, ``gamma`` the world
    whose conditional success is capped at p_locc."""

    tau: Strategy
    gamma: Strategy

    def strategy_for(self, world: str) -> Strategy:
        if world == "tau":
            return self.tau
        if world == "gamma":
            return self.gamma
        raise SpecError(f"world must be 'tau' or 'gamma', got {world!r}")


def default_detection_oracle(config: DetectionConfig) -> DetectionOracle:
    """tau: i.i.d. success at p_tau. gamma: history-capped at p_locc,
    dropping by min(0.1, p_locc) after its first failure
    (supermartingale-constrained by construction)."""
    drop = min(_ORACLE_DROP, config.p_locc)
    return DetectionOracle(tau=IIDStrategy(config.p_tau, protocol_id="world-tau"),
                           gamma=HistoryCappedStrategy(config.p_locc, drop))


@dataclass(frozen=True)
class DetectionReport:
    """Per-world empirical correctness with the tail bounds the
    threshold rule is measured against; each world ran ``trials``
    independent trials."""

    config: DetectionConfig
    trials: int
    p_corr_tau: float
    p_corr_gamma: float
    hoeffding: float
    azuma: float

    @property
    def overall(self) -> float:
        return 0.5 * (self.p_corr_tau + self.p_corr_gamma)

    @property
    def ci_tau(self) -> tuple[float, float]:
        """99% Wilson interval of p_corr_tau."""
        return _interval(self.p_corr_tau, self.trials)

    @property
    def ci_gamma(self) -> tuple[float, float]:
        """99% Wilson interval of p_corr_gamma."""
        return _interval(self.p_corr_gamma, self.trials)


def detection_accuracy(config: DetectionConfig, round_oracle: DetectionOracle,
                       trials: int = 1000, seed: int = 0) -> DetectionReport:
    """Monte-Carlo correctness of the threshold test in both worlds:
    one engine-core ensemble per world on the ``("accuracy", world)``
    stream pair."""
    corr = {}
    for world in ("tau", "gamma"):
        x = _play_checked(round_oracle.strategy_for(world), config.n,
                          trials, seed, ("accuracy", world))
        guesses = config.guess(x.sum(axis=1) / config.n)
        corr[world] = float(np.mean(guesses == world))
    return DetectionReport(config=config, trials=trials,
                           p_corr_tau=corr["tau"], p_corr_gamma=corr["gamma"],
                           hoeffding=hoeffding_bound(config.n, config.delta),
                           azuma=azuma_bound(config.n, config.delta))


# --- concentration inequalities ------------------------------------------------

def min_rounds(delta: float, trace_distance: float) -> int:
    """Smallest round count for which the threshold test's combined
    error beats the indistinguishability limit:

        n > max{ (1/2 delta^2) [-ln(1/4 - T/8)],
                 (2/delta^2)   [-ln(1/2 - T/4)] },  T = trace distance.

    DomainError unless 0 < T < 2, delta > 0 and the bound is finite: a
    delta so small that its square underflows, or that the bound
    overflows, has no round count.
    """
    t = trace_distance
    if not 0.0 < t < 2.0:
        raise DomainError(f"trace distance must lie strictly in (0, 2), got {t}")
    if not delta > 0.0:  # a NaN fails this test too
        raise DomainError(f"delta must be positive, got {delta}")
    # 0 < t < 2 puts a1 in (0, 1/4) and a2 in (0, 1/2)
    a1 = 0.25 - t / 8.0
    a2 = 0.5 - t / 4.0
    bound = (max(-math.log(a1) / (2.0 * delta * delta),
                 2.0 * -math.log(a2) / (delta * delta))
             if delta * delta > 0.0 else math.inf)
    if bound == math.inf:
        raise DomainError(f"delta = {delta} is too small: the round count "
                          "it needs is not a finite float")
    return math.floor(bound) + 1


def hoeffding_bound(n: int, delta: float) -> float:
    """Two-sided i.i.d. concentration: Pr(|S_n/n - p| <= delta) >=
    1 - 2 exp(-2 n delta^2)."""
    return 1.0 - 2.0 * math.exp(-2.0 * n * delta * delta)


def azuma_bound(n: int, delta: float) -> float:
    """Supermartingale tail: Pr(S_n/n - p_cap >= delta) <=
    exp(-n delta^2 / 2)."""
    return math.exp(-n * delta * delta / 2.0)


# --- supermartingale validation ---------------------------------------------

@dataclass(frozen=True)
class SupermartingaleReport:
    """Bucketed conditional-drift audit of C_j = S_j - j p_cap.

    Buckets are (round, running score) cells with at least 50
    trajectories. Each bucket's empirical next-round success frequency
    is z-scored against p_cap; with thousands of buckets a 3 sigma
    excursion is expected by chance about 0.13% of the time, so the
    audit passes when at most ``allowed_exceedance`` (0.5%) of buckets
    exceed ``z_tol`` (3.0) and every increment is bounded by 1.
    """

    trajectories: int
    n: int
    p_cap: float
    buckets: int
    violations: int
    max_z: float
    increments_bounded: bool
    z_tol: float
    allowed_exceedance: float

    @property
    def exceedance_frac(self) -> float:
        return self.violations / self.buckets if self.buckets else 0.0

    @property
    def passed(self) -> bool:
        return self.increments_bounded and (
            self.exceedance_frac <= self.allowed_exceedance)


def check_supermartingale(ensemble, p_cap: float) -> SupermartingaleReport:
    """Audit that conditional success frequencies never drift above
    p_cap beyond statistical tolerance.

    ``ensemble`` is the (trials, n) 0/1 matrix of success indicators
    that ``simulate_ensemble`` returns; anything else is a SpecError.
    Trajectories are bucketed by (j, S_j); within each bucket of at
    least 50 trajectories the next-round success frequency p_hat is
    compared to p_cap with the null standard error
    sqrt(p_cap (1 - p_cap) / m), and the audit passes when at most 0.5%
    of those buckets sit more than 3.0 standard errors above p_cap.
    """
    x = ensemble
    if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.size):
        raise SpecError("ensemble must be a nonempty (trials, n) matrix")
    if not np.isin(x, (0, 1)).all():
        raise SpecError("success indicators must be 0/1")
    if not 0.0 < p_cap < 1.0:
        raise DomainError(f"p_cap must lie strictly in (0, 1), got {p_cap}")

    trials, n = x.shape
    increments_ok = True  # X in {0, 1} already verified, so C steps are <= 1
    scores = np.zeros(trials, dtype=np.int64)
    null_var = p_cap * (1.0 - p_cap)
    buckets = 0
    violations = 0
    max_z = -math.inf
    for j in range(n):
        counts = np.bincount(scores)
        sums = np.bincount(scores, weights=x[:, j])
        kept = counts >= _AUDIT_MIN_COUNT
        m = counts[kept]
        z = (sums[kept] / m - p_cap) / np.sqrt(null_var / m)
        if m.size:
            max_z = max(max_z, float(z.max()))
        buckets += m.size
        violations += int(np.count_nonzero(z > _AUDIT_Z_TOL))
        scores += x[:, j]
    return SupermartingaleReport(
        trajectories=trials, n=n, p_cap=p_cap, buckets=buckets,
        violations=violations, max_z=max_z, increments_bounded=increments_ok,
        z_tol=_AUDIT_Z_TOL, allowed_exceedance=_AUDIT_ALLOWED_EXCEEDANCE)


# --- density-matrix backend check ------------------------------------------

def run_teleport_discrimination(d: int = 2, n: int = 1000,
                                seed: int = 0) -> TrialArrays:
    """n rounds on the exact density-matrix backend: teleport the
    prepared half of the hiding pair to the guesser's side through a
    fresh |phi_d> each round, then measure the symmetric/antisymmetric
    projector globally. The pair is orthogonal, so every guess is
    correct; this validates the channel stack end to end.

    The teleportation channel is deterministic, so the per-world output
    state is computed once; the referee bits and the measurement
    outcomes of all rounds are one array draw each from the
    ``("teleport", "rounds" | "outcome")`` substreams of ``seed``.
    """
    _check_count(n, "round count")
    sigma0, sigma1 = make_hiding_pair(HidingPairSpec(d=d))
    resource = make_max_entangled(d, labels=("Ap", "Bp"))
    outputs: list[DensityOperator] = []
    for sigma in (sigma0, sigma1):
        outputs.append(teleport(sigma, "A1", resource).state)

    p_sym = (np.eye(d * d) + _swap(d)) / 2.0  # swap-invariant, factor order free
    sym_probs = np.array([float(np.real(np.trace(p_sym @ out.entries)))
                          for out in outputs])

    z = rng_from(seed, "teleport", "rounds").integers(0, 2, size=n)
    sym = rng_from(seed, "teleport", "outcome").random(n) < sym_probs[z]
    y = (~sym).astype(np.int64)  # symmetric outcome guesses 0
    x = (y == z).astype(np.int64)
    return TrialArrays(protocol_id=f"teleport-discrimination-d{d}", Z=z, Y=y,
                       X=x, S=np.cumsum(x),
                       descriptors=["resource=fresh"]
                       + ["resource=consumed"] * n)
