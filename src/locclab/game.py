"""Multi-round discrimination games, detection protocols, and
concentration-inequality validators.

The engine is probability-accounting: a strategy never sees the
referee's bit Z_j, only whether its guess matched (classical feedback),
and per round it declares a success probability computed from its own
memory state. The engine draws the success indicator, forms Y_j from
Z_j, and enforces the transcript invariants itself. A full
density-matrix backend is used only where the state spaces are tiny
(see run_teleport_discrimination); the statistical claims being checked
constrain success probabilities and memory bookkeeping only.

One array engine, ``play_trial``, plays every trial: it draws all n
referee bits and all n success uniforms u at once and hands u to
``Strategy.play``, which returns the declared probabilities p and the
memory descriptors; round j succeeds iff u_j < p_j. The contract is
causal and one-draw-per-round: p_j may depend only on u_1..u_{j-1} (the
outcomes of earlier rounds) and on the strategy's own stream, and each
round consumes exactly one u. The base-class ``play`` is the adapter
that drives ``success_probability``/``observe``/``descriptor`` round by
round; the built-in strategies override it with closed forms that
return the same numbers. ``run_game`` is the engine's one-trial case
wrapped in a validated ``GameTranscript``.

Randomness: referee bits, success draws, and strategy-owned randomness
come from independently labeled substreams of one root seed, so
detection thresholds cannot correlate with preparation. Drawing a
stream's values in one vector call gives the same numbers as drawing
them one by one, so the array engine reproduces the round-by-round
transcripts exactly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CatalystViolation, DomainError, SpecError
from .protocols import concentration_success_prob, teleport
from .qmat import DensityOperator
from .seeding import rng_from
from .states import (HidingPairSpec, PsiSpec, check_psi_conditions,
                     make_hiding_pair, make_max_entangled, psi_product_distance,
                     psi_spectrum)
from .stats import wilson_interval

Label = int | str


# --- transcript types ---------------------------------------------------

@dataclass(frozen=True)
class RoundRecord:
    """One round: referee bit Z, guess Y, success indicator X = 1[Y=Z],
    and the strategy's opaque memory summary after the round."""

    j: int
    Z: int
    Y: int
    X: int
    memory_descriptor: str

    def __post_init__(self):
        if self.Z not in (0, 1) or self.Y not in (0, 1):
            raise SpecError(f"round {self.j}: Z and Y must be bits")
        if self.X != int(self.Y == self.Z):
            raise SpecError(f"round {self.j}: X must indicate Y == Z")


@dataclass(frozen=True)
class GameTranscript:
    """Full record of one n-round game with the running score S."""

    records: tuple[RoundRecord, ...]
    S: tuple[int, ...]
    protocol_id: str
    seed: int
    n: int

    def __post_init__(self):
        if len(self.records) != self.n or len(self.S) != self.n:
            raise SpecError(f"transcript length mismatch: n={self.n}, "
                            f"{len(self.records)} records, {len(self.S)} partial sums")
        total = 0
        for idx, rec in enumerate(self.records):
            if rec.j != idx + 1:
                raise SpecError(f"round indices must run 1..n, got {rec.j} at {idx}")
            total += rec.X
            if self.S[idx] != total:
                raise SpecError(f"S_{idx + 1} = {self.S[idx]} does not telescope")

    @property
    def final_score(self) -> int:
        return self.S[-1] if self.S else 0

    @property
    def success_fraction(self) -> float:
        return self.final_score / self.n


# --- strategies ----------------------------------------------------------

class Strategy(ABC):
    """Per-round success-probability oracle with owned memory state.

    Strategies learn outcomes only through ``observe`` (match or not);
    the referee bit never reaches them. Subclasses with ``catalytic``
    True promise an unchanged memory descriptor across every round, and
    the engine verifies that promise instead of trusting it.
    """

    protocol_id: str = "strategy"
    catalytic: bool = False

    def reset(self, rng: np.random.Generator, pair=None) -> None:
        """Initialize per-trial state; ``pair`` carries (rho0, rho1) for
        strategies that consult actual states."""

    @abstractmethod
    def success_probability(self, j: int) -> float:
        """Probability that round j's guess matches, given current memory."""

    def observe(self, j: int, success: bool) -> None:
        """Classical feedback after round j."""

    def descriptor(self) -> str:
        return "-"

    def play(self, u: np.ndarray, rng: np.random.Generator
             ) -> tuple[np.ndarray, list[str]]:
        """Play one trial against the success uniforms ``u`` (round j
        succeeds iff u[j-1] < p[j-1]) and return the declared
        probabilities p and the memory descriptors: the one before
        round 1, then the one after each round. ``rng`` is the
        strategy's own stream, the one ``reset`` received. An override
        must keep the rounds causal: p[j-1] may depend on u[:j-1] and
        rng only, and its draws from rng must be the ones the scalar
        methods make, in the same order.

        This default plays round by round through success_probability,
        observe and descriptor. It stops at the first probability
        outside [0, 1] or, for a catalytic strategy, the first changed
        descriptor, and returns the rounds played so far for the engine
        to report.
        """
        p: list[float] = []
        descriptors = [self.descriptor()]
        for j, uj in enumerate(u.tolist(), 1):
            pj = float(self.success_probability(j))
            p.append(pj)
            if not 0.0 <= pj <= 1.0:
                break
            self.observe(j, uj < pj)
            descriptors.append(self.descriptor())
            if self.catalytic and descriptors[-1] != descriptors[-2]:
                break
        return np.array(p, dtype=float), descriptors


class IIDStrategy(Strategy):
    """Memoryless oracle succeeding with fixed probability p each round."""

    def __init__(self, p: float, protocol_id: str = "iid",
                 catalytic: bool = False):
        if not 0.0 <= p <= 1.0:
            raise SpecError(f"success probability {p} outside [0, 1]")
        self.p = float(p)
        self.protocol_id = protocol_id
        self.catalytic = catalytic

    def success_probability(self, j: int) -> float:
        return self.p

    def descriptor(self) -> str:
        return f"iid:{self.p:.12g}"

    def play(self, u, rng):
        return np.full(len(u), self.p), [self.descriptor()] * (len(u) + 1)

    def batch_final_scores(self, n: int, trials: int,
                           rng: np.random.Generator) -> np.ndarray:
        return rng.binomial(n, self.p, size=trials)

    def batch_x_matrix(self, n: int, trials: int,
                       rng: np.random.Generator) -> np.ndarray:
        return (rng.random((trials, n)) < self.p).astype(np.uint8)


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

    def reset(self, rng, pair=None) -> None:
        self._failed = False

    def success_probability(self, j: int) -> float:
        return self.p_cap - self.drop if self._failed else self.p_cap

    def observe(self, j: int, success: bool) -> None:
        if not success:
            self._failed = True

    def descriptor(self) -> str:
        return f"failed={int(self._failed)}"

    def play(self, u, rng):
        n = len(u)
        misses = np.flatnonzero(u >= self.p_cap)
        first = int(misses[0]) + 1 if misses.size else n + 1  # first failed round
        p = np.full(n, self.p_cap)
        p[first:] = self.p_cap - self.drop
        return p, ["failed=0"] * first + ["failed=1"] * (n + 1 - first)

    def batch_x_matrix(self, n: int, trials: int,
                       rng: np.random.Generator) -> np.ndarray:
        x = np.empty((trials, n), dtype=np.uint8)
        failed = np.zeros(trials, dtype=bool)
        p_hi, p_lo = self.p_cap, self.p_cap - self.drop
        for j in range(n):
            p = np.where(failed, p_lo, p_hi)
            col = rng.random(trials) < p
            x[:, j] = col
            failed |= ~col
        return x

    def batch_final_scores(self, n: int, trials: int,
                           rng: np.random.Generator) -> np.ndarray:
        return self.batch_x_matrix(n, trials, rng).sum(axis=1)


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
    for that block.
    """

    protocol_id = "memory-block"

    def __init__(self, d1: int, psi_spec: PsiSpec, n_block: int):
        if d1 < 2:
            raise SpecError(f"d1 must be >= 2, got {d1}")
        if n_block < 1:
            raise SpecError(f"n_block must be >= 1, got {n_block}")
        conditions = check_psi_conditions(
            psi_spec, d1, eps_prime=psi_product_distance(psi_spec))
        if conditions.entropy_excess <= 0.0:
            raise SpecError(
                "memory-block protocol needs marginal entropy exceeding "
                f"log2(d1) = {math.log2(d1):.6f} bits; psi supplies only "
                f"{conditions.entropy_bits:.6f}")
        self.d1 = d1
        self.psi_spec = psi_spec
        self.n_block = n_block
        est = concentration_success_prob(
            psi_spectrum(psi_spec), n_block, n_block * math.log2(d1))
        self.block_success_prob = est.estimate
        self.eps_tilde = 1.0 - est.estimate
        self._rng: np.random.Generator | None = None
        self._block = 0
        self._used = 0
        self._charged = True

    def reset(self, rng, pair=None) -> None:
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
        n, size = len(u), self.n_block
        # block k's budget; each completed block draws one recharge
        charged = np.ones(n // size + 1, dtype=bool)
        charged[1:] = rng.random(n // size) < self.block_success_prob
        p = np.where(np.repeat(charged, size)[:n], 1.0, 0.5)
        table = _block_descriptors(size, n)
        descriptors: list[str] = []
        for k, full in enumerate(charged.tolist()):
            descriptors += table[full][k * size:(k + 1) * size]
        return p, descriptors

    def batch_final_scores(self, n: int, trials: int,
                           rng: np.random.Generator) -> np.ndarray:
        k_full, rem = divmod(n, self.n_block)
        scores = np.zeros(trials, dtype=np.int64)
        lengths = [self.n_block] * k_full + ([rem] if rem else [])
        for i, length in enumerate(lengths):
            if i == 0:
                ok = np.ones(trials, dtype=bool)
            else:
                ok = rng.random(trials) < self.block_success_prob
            fallback = rng.binomial(length, 0.5, size=trials)
            scores += np.where(ok, length, fallback)
        return scores


@lru_cache(maxsize=32)
def _block_descriptors(size: int, n: int) -> tuple[tuple[str, ...], ...]:
    """MemoryBlockStrategy descriptors after m = 0..n rounds, indexed
    [degraded, full]; shared by every trial of the same shape."""
    return tuple(
        tuple(f"block={m // size};budget={budget};used={m % size}"
              for m in range(n + 1))
        for budget in ("degraded", "full"))


def memory_block_strategy(d1: int, psi_spec: PsiSpec,
                          n_block: int) -> MemoryBlockStrategy:
    """Build the reusable-memory block strategy (see MemoryBlockStrategy)."""
    return MemoryBlockStrategy(d1, psi_spec, n_block)


# --- game engine ----------------------------------------------------------

@dataclass(frozen=True)
class TrialArrays:
    """One n-round game as arrays: referee bits Z, guesses Y, success
    indicators X = 1[Y = Z], running score S, and the memory descriptor
    before round 1 followed by the one after each round (n + 1 strings)."""

    protocol_id: str
    Z: np.ndarray
    Y: np.ndarray
    X: np.ndarray
    S: np.ndarray
    descriptors: list[str]

    @property
    def n(self) -> int:
        return len(self.X)

    @property
    def final_score(self) -> int:
        return int(self.S[-1])


def _first_change(descriptors: list[str]) -> int | None:
    """First round j whose descriptor after differs from the one before."""
    if descriptors.count(descriptors[0]) == len(descriptors):
        return None
    return next(j for j in range(1, len(descriptors))
                if descriptors[j] != descriptors[j - 1])


def play_trial(strategy: Strategy, pair=None, n: int = 1, seed: int = 0,
               stream: tuple[Label, ...] = ()) -> TrialArrays:
    """Play n rounds against a uniform referee and return the arrays.

    Referee bits, success uniforms and strategy randomness come from
    the ``(*stream, "rounds" | "success" | "strategy")`` substreams of
    ``seed``. Every invariant of the round loop is checked on the
    arrays: declared probabilities in [0, 1] (SpecError naming the first
    offending round), unchanged descriptors for catalytic strategies
    (CatalystViolation naming the first changed round), X = 1[Y = Z]
    and S = cumsum(X).
    """
    if n < 1:
        raise SpecError(f"round count must be >= 1, got {n}")
    rng_strategy = rng_from(seed, *stream, "strategy")
    strategy.reset(rng_strategy, pair)
    z = rng_from(seed, *stream, "rounds").integers(0, 2, size=n)
    u = rng_from(seed, *stream, "success").random(n)
    p, descriptors = strategy.play(u, rng_strategy)
    p = np.asarray(p, dtype=float)

    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    bad_round = int(bad[0]) + 1 if bad.size else n + 1
    changed = _first_change(descriptors) if strategy.catalytic else None
    if changed is not None and changed < bad_round:
        raise CatalystViolation(
            f"round {changed}: catalytic strategy changed its memory "
            f"descriptor from {descriptors[changed - 1]!r} to "
            f"{descriptors[changed]!r}")
    if bad.size:
        raise SpecError(f"strategy declared success probability "
                        f"{float(p[bad[0]])} outside [0, 1] in round {bad_round}")
    if p.shape != (n,) or len(descriptors) != n + 1:
        raise SpecError(f"{type(strategy).__name__}.play returned {p.size} "
                        f"probabilities and {len(descriptors)} descriptors "
                        f"for {n} rounds (want {n} and {n + 1})")

    success = u < p
    y = np.where(success, z, 1 - z)
    x = (y == z).astype(np.int64)
    s = np.cumsum(x)
    if not np.array_equal(x, success) or s[-1] != np.count_nonzero(success):
        raise SpecError("round arrays break X = 1[Y = Z] or S = cumsum(X)")
    return TrialArrays(protocol_id=strategy.protocol_id, Z=z, Y=y, X=x, S=s,
                       descriptors=descriptors)


def run_game(strategy: Strategy, pair=None, n: int = 1, seed: int = 0,
             stream: tuple[Label, ...] = ()) -> GameTranscript:
    """Play n rounds against a uniform referee and return the transcript.

    ``pair`` is forwarded to the strategy's reset for state-aware
    strategies; synthetic oracles ignore it. ``stream`` prefixes the
    substream labels so batch callers (trials, detection worlds) stay
    on independent random streams of the same root seed. This is
    ``play_trial`` with one RoundRecord per round.
    """
    trial = play_trial(strategy, pair, n, seed, stream)
    records = tuple(
        RoundRecord(j=j, Z=z, Y=y, X=x, memory_descriptor=memory)
        for j, z, y, x, memory in zip(range(1, n + 1), trial.Z.tolist(),
                                      trial.Y.tolist(), trial.X.tolist(),
                                      trial.descriptors[1:]))
    return GameTranscript(records=records, S=tuple(trial.S.tolist()),
                          protocol_id=trial.protocol_id, seed=seed, n=n)


def simulate_ensemble(strategy: Strategy, n: int, trials: int,
                      seed: int = 0) -> np.ndarray:
    """(trials, n) matrix of success indicators, using the strategy's
    vectorized sampler when it has one."""
    if trials < 1:
        raise SpecError(f"trial count must be >= 1, got {trials}")
    batch = getattr(strategy, "batch_x_matrix", None)
    if batch is not None:
        return batch(n, trials, rng_from(seed, "ensemble", "batch"))
    x = np.empty((trials, n), dtype=np.uint8)
    for t in range(trials):
        x[t] = play_trial(strategy, None, n, seed, stream=("ensemble", t)).X
    return x


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


def estimate_rate(strategy: Strategy, pair=None, r: float = 0.0,
                  trials: int = 100, n_list=(100,), seed: int = 0
                  ) -> RateEstimate:
    """Estimate how often the strategy scores at least r n by round n.

    Trials are independent with split seeds; checkpoints are evaluated
    by fresh runs at each n (memory strategies are not resumable across
    checkpoints). Strategies exposing batch_final_scores are sampled in
    one vectorized pass per checkpoint.
    """
    if not 0.0 <= r <= 1.0:
        raise SpecError(f"target rate {r} outside [0, 1]")
    if trials < 1:
        raise SpecError(f"trial count must be >= 1, got {trials}")
    fracs = []
    batch = getattr(strategy, "batch_final_scores", None)
    for n in n_list:
        if n < 1:
            raise SpecError(f"checkpoint {n} must be >= 1")
        if batch is not None:
            scores = batch(n, trials, rng_from(seed, "rate", n, "batch"))
        else:
            scores = np.array([
                play_trial(strategy, pair, n, seed, stream=("rate", n, t)).final_score
                for t in range(trials)])
        fracs.append(float(np.mean(scores >= r * n - 1e-9)))
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
        if self.n < 1:
            raise SpecError(f"round count must be >= 1, got {self.n}")
        gap = (self.p_tau - self.p_locc) / 2.0
        if self.mode == "catalyst-threshold":
            if not 0.0 < self.delta < gap:
                raise SpecError(f"catalyst mode needs 0 < delta < "
                                f"(p_tau - p_locc)/2 = {gap}; got {self.delta}")
        elif not 0.0 < self.delta <= gap:
            raise SpecError(f"memory mode needs 0 < delta <= "
                            f"(p_tau - p_locc)/2 = {gap}; got {self.delta}")


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


def default_detection_oracle(config: DetectionConfig,
                             drop: float = 0.1) -> DetectionOracle:
    """tau: i.i.d. success at p_tau. gamma: history-capped at p_locc
    (supermartingale-constrained by construction)."""
    drop = min(drop, config.p_locc)
    return DetectionOracle(tau=IIDStrategy(config.p_tau, protocol_id="world-tau"),
                           gamma=HistoryCappedStrategy(config.p_locc, drop))


@dataclass(frozen=True)
class DetectionResult:
    guess: str
    world: str
    final_score: int
    transcript: GameTranscript

    @property
    def correct(self) -> bool:
        return self.guess == self.world


def _threshold_guess(config: DetectionConfig, frac) -> np.ndarray | str:
    if config.mode == "catalyst-threshold":
        is_tau = np.abs(np.asarray(frac) - config.p_tau) <= config.delta
    else:
        is_tau = np.asarray(frac) - config.p_locc >= config.delta
    if np.ndim(is_tau) == 0:
        return "tau" if bool(is_tau) else "gamma"
    return np.where(is_tau, "tau", "gamma")


def detect_catalyst(config: DetectionConfig, round_oracle: DetectionOracle,
                    seed: int = 0, world: str = "tau",
                    stream: tuple[Label, ...] = ()) -> DetectionResult:
    """Run the threshold test in the named simulated world and guess
    which world produced the transcript."""
    strategy = round_oracle.strategy_for(world)
    transcript = run_game(strategy, None, config.n, seed,
                          stream=stream + ("detect", world))
    frac = transcript.success_fraction
    return DetectionResult(guess=_threshold_guess(config, frac), world=world,
                           final_score=transcript.final_score,
                           transcript=transcript)


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
    """Monte-Carlo correctness of the threshold test in both worlds."""
    if trials < 1:
        raise SpecError(f"trial count must be >= 1, got {trials}")
    corr = {}
    for world in ("tau", "gamma"):
        strategy = round_oracle.strategy_for(world)
        batch = getattr(strategy, "batch_final_scores", None)
        if batch is not None:
            scores = batch(config.n, trials,
                           rng_from(seed, "accuracy", world, "batch"))
            guesses = _threshold_guess(config, scores / config.n)
            corr[world] = float(np.mean(guesses == world))
        else:
            hits = 0
            for t in range(trials):  # detect_catalyst's streams and rule
                trial = play_trial(strategy, None, config.n, seed,
                                   stream=("accuracy", t, "detect", world))
                hits += _threshold_guess(
                    config, trial.final_score / config.n) == world
            corr[world] = hits / trials
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
    """
    t = trace_distance
    if not 0.0 < t < 2.0:
        raise DomainError(f"trace distance must lie strictly in (0, 2), got {t}")
    if delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    a1 = 0.25 - t / 8.0
    a2 = 0.5 - t / 4.0
    if a1 <= 0.0 or a2 <= 0.0:
        raise DomainError(f"logarithm arguments must be positive, got {a1}, {a2}")
    bound = max(-math.log(a1) / (2.0 * delta * delta),
                2.0 * -math.log(a2) / (delta * delta))
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

    Buckets are (round, running score) cells with at least min_count
    trajectories. Each bucket's empirical next-round success frequency
    is z-scored against p_cap; with thousands of buckets a 3 sigma
    excursion is expected by chance about 0.13% of the time, so the
    audit passes when at most ``allowed_exceedance`` of buckets exceed
    z_tol and every increment is bounded by 1.
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


def check_supermartingale(ensemble, p_cap: float, min_count: int = 50,
                          z_tol: float = 3.0,
                          allowed_exceedance: float = 0.005
                          ) -> SupermartingaleReport:
    """Audit that conditional success frequencies never drift above
    p_cap beyond statistical tolerance.

    ``ensemble`` is either a (trials, n) 0/1 matrix or a list of
    GameTranscript. Trajectories are bucketed by (j, S_j); within each
    bucket the next-round success frequency p_hat is compared to p_cap
    with the null standard error sqrt(p_cap (1 - p_cap) / m).
    """
    if isinstance(ensemble, np.ndarray):
        x = ensemble
    else:
        x = np.array([[rec.X for rec in tr.records] for tr in ensemble],
                     dtype=np.uint8)
    if x.ndim != 2 or x.size == 0:
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
        col = x[:, j].astype(np.float64)
        counts = np.bincount(scores)
        sums = np.bincount(scores, weights=col)
        for s in np.nonzero(counts >= min_count)[0]:
            m = counts[s]
            p_hat = sums[s] / m
            z = (p_hat - p_cap) / math.sqrt(null_var / m)
            max_z = max(max_z, z)
            buckets += 1
            if z > z_tol:
                violations += 1
        scores += x[:, j]
    return SupermartingaleReport(
        trajectories=trials, n=n, p_cap=p_cap, buckets=buckets,
        violations=violations, max_z=max_z, increments_bounded=increments_ok,
        z_tol=z_tol, allowed_exceedance=allowed_exceedance)


# --- density-matrix backend check ------------------------------------------

def run_teleport_discrimination(d: int = 2, n: int = 1000,
                                seed: int = 0) -> GameTranscript:
    """Round loop on the exact density-matrix backend: teleport the
    prepared half of the hiding pair to the guesser's side through a
    fresh |phi_d> each round, then measure the symmetric/antisymmetric
    projector globally. The pair is orthogonal, so every guess is
    correct; this validates the channel stack end to end.

    The teleportation channel is deterministic, so the per-world output
    state is computed once and outcome sampling reuses it each round.
    """
    sigma0, sigma1 = make_hiding_pair(HidingPairSpec(d=d))
    resource = make_max_entangled(d, labels=("Ap", "Bp"))
    outputs: list[DensityOperator] = []
    for sigma in (sigma0, sigma1):
        outputs.append(teleport(sigma, "A1", resource).state)

    dim = d * d
    swap = np.zeros((dim, dim))
    for i in range(d):
        for k in range(d):
            swap[i * d + k, k * d + i] = 1.0
    p_sym = (np.eye(dim) + swap) / 2.0  # swap-invariant, factor order free
    sym_probs = [float(np.real(np.trace(p_sym @ out.entries)))
                 for out in outputs]

    rng_rounds = rng_from(seed, "teleport", "rounds")
    rng_outcome = rng_from(seed, "teleport", "outcome")
    records = []
    partial = []
    total = 0
    for j in range(1, n + 1):
        z = int(rng_rounds.integers(0, 2))
        sym = bool(rng_outcome.random() < sym_probs[z])
        y = 0 if sym else 1
        x = int(y == z)
        total += x
        records.append(RoundRecord(j=j, Z=z, Y=y, X=x,
                                   memory_descriptor="resource=consumed"))
        partial.append(total)
    return GameTranscript(records=tuple(records), S=tuple(partial),
                          protocol_id=f"teleport-discrimination-d{d}",
                          seed=seed, n=n)
