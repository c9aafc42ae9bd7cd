import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from locclab import (
    CatalystViolation,
    DetectionConfig,
    DetectionOracle,
    DomainError,
    HistoryCappedStrategy,
    IIDStrategy,
    PsiSpec,
    SpecError,
    Strategy,
    TrialArrays,
    azuma_bound,
    check_supermartingale,
    concentration_success_prob,
    default_detection_oracle,
    detection_accuracy,
    estimate_rate,
    hoeffding_bound,
    memory_block_strategy,
    min_rounds,
    play_trial,
    psi_spectrum,
    run_teleport_discrimination,
    simulate_ensemble,
)
import locclab
from locclab import game
from locclab.seeding import rng_from
from locclab.stats import wilson_interval


class ShiftyCatalyst(Strategy):
    """Claims catalytic but mutates its descriptor after round 1."""

    protocol_id = "shifty"
    catalytic = True

    def __init__(self):
        self._rounds = 0

    def reset(self, rng):
        self._rounds = 0

    def success_probability(self, j):
        return 0.9

    def observe(self, j, success):
        self._rounds += 1

    def descriptor(self):
        return f"rounds={self._rounds}"


class SlowIID(Strategy):
    """IID oracle without a closed-form play, to exercise the
    base-class adapter."""

    protocol_id = "slow-iid"

    def __init__(self, p):
        self.p = p

    def success_probability(self, j):
        return self.p


class BadAtRound(Strategy):
    """Declares p outside [0, 1] from round ``bad`` on and, when
    catalytic, changes its descriptor after round ``change``."""

    protocol_id = "bad-at-round"

    def __init__(self, bad, change=None, value=1.5):
        self.bad, self.change, self.value = bad, change, value
        self.catalytic = change is not None
        self.rounds = 0

    def reset(self, rng):
        self.rounds = 0

    def success_probability(self, j):
        return self.value if j >= self.bad else 0.5

    def observe(self, j, success):
        self.rounds = j

    def descriptor(self):
        return "moved" if self.change and self.rounds >= self.change else "same"


def reference_game(strategy, n, seed=0, stream=()):
    """The round-by-round engine: one scalar draw per round from each
    substream, checks in the order the rounds reach them."""
    if n < 1:
        raise SpecError(f"round count must be >= 1, got {n}")
    rng_rounds = rng_from(seed, *stream, "rounds")
    rng_success = rng_from(seed, *stream, "success")
    strategy.reset(rng_from(seed, *stream, "strategy"))
    zs, ys, xs, ps, memory = [], [], [], [], [strategy.descriptor()]
    for j in range(1, n + 1):
        before = strategy.descriptor()
        p = float(strategy.success_probability(j))
        if not 0.0 <= p <= 1.0:
            raise SpecError(f"strategy declared success probability {p} "
                            f"outside [0, 1] in round {j}")
        z = int(rng_rounds.integers(0, 2))
        success = bool(rng_success.random() < p)
        y = z if success else 1 - z
        strategy.observe(j, success)
        after = strategy.descriptor()
        if strategy.catalytic and after != before:
            raise CatalystViolation(
                f"round {j}: catalytic strategy changed its memory descriptor "
                f"from {before!r} to {after!r}")
        zs.append(z)
        ys.append(y)
        xs.append(int(y == z))
        ps.append(p)
        memory.append(after)
    return ps, zs, ys, xs, memory


class CatalyticIID(IIDStrategy):
    """The i.i.d. oracle declared catalytic: its descriptor never moves,
    so the engine's catalyst check passes every round."""

    catalytic = True


MB = dict(d1=2, psi_spec=PsiSpec(lam=0.5, d2=4))
# (id, strategy, n): p = 0 and 1, both drop extremes, and memory blocks
# with n < n_block, n = k n_block, n not a multiple, and n_block = 1
BUILTINS = [
    ("iid-0", IIDStrategy(0.0), 7),
    ("iid-1", IIDStrategy(1.0), 7),
    ("iid-0.3", IIDStrategy(0.3), 50),
    ("iid-catalytic", CatalyticIID(0.6), 20),
    ("capped", HistoryCappedStrategy(0.8, 0.3), 60),
    ("capped-drop0", HistoryCappedStrategy(0.8, 0.0), 30),
    ("capped-drop-all", HistoryCappedStrategy(0.6, 0.6), 30),
    ("capped-certain", HistoryCappedStrategy(1.0, 0.5), 12),
    ("block-n<size", memory_block_strategy(n_block=8, **MB), 5),
    ("block-n=k*size", memory_block_strategy(n_block=4, **MB), 32),
    ("block-n%size", memory_block_strategy(n_block=4, **MB), 37),
    ("block-size1", memory_block_strategy(n_block=1, **MB), 25),
    ("block-d2=8", memory_block_strategy(2, PsiSpec(0.5, 8), 16), 200),
]


ROUND_LOOP_ERRORS = [
    (ShiftyCatalyst(), CatalystViolation, "round 1: "),
    (BadAtRound(bad=3), SpecError, "1.5 outside [0, 1] in round 3"),
    (BadAtRound(bad=1, value=-0.25), SpecError, "in round 1"),
    (BadAtRound(bad=4, value=math.nan), SpecError, "nan outside"),
    (BadAtRound(bad=4, change=2), CatalystViolation, "round 2: "),
    (BadAtRound(bad=2, change=2), SpecError, "in round 2"),
]


def adapter_play(strategy, u, seed):
    """Strategy.play, the round-by-round adapter, on a built-in; it
    resets the strategy before each row of u itself."""
    return Strategy.play(strategy, u, np.random.default_rng(seed))


def closed_play(strategy, u, seed):
    return strategy.play(u, np.random.default_rng(seed))


class TestArrayEngine:
    @pytest.mark.parametrize("name,strategy,n", BUILTINS,
                             ids=[c[0] for c in BUILTINS])
    def test_closed_form_matches_adapter(self, name, strategy, n):
        # rows share one rng, so the block recharge draws must line up
        for seed, trials in ((0, 1), (1, 1), (2, 3), (3, 5)):
            u = np.random.default_rng(100 + seed).random((trials, n))
            p_ref, d_ref = adapter_play(strategy, u, seed)
            p, d = closed_play(strategy, u, seed)
            assert p.shape == (trials, n)
            np.testing.assert_array_equal(p, p_ref)
            np.testing.assert_array_equal(u < p, u < p_ref)
            assert [list(row) for row in d] == d_ref and len(d) == trials
            assert all(len(row) == n + 1 for row in d)

    @pytest.mark.parametrize("name,strategy,n",
                             BUILTINS + [("slow-iid", SlowIID(0.6), 20)],
                             ids=[c[0] for c in BUILTINS] + ["slow-iid"])
    def test_ensemble_prefix(self, name, strategy, n):
        full = simulate_ensemble(strategy, n, trials=7, seed=12)
        np.testing.assert_array_equal(full[:3], simulate_ensemble(
            strategy, n, trials=3, seed=12))
        np.testing.assert_array_equal(full[:1], simulate_ensemble(
            strategy, n, trials=1, seed=12))

    @pytest.mark.parametrize("name,strategy,n", BUILTINS,
                             ids=[c[0] for c in BUILTINS])
    def test_engine_matches_round_loop(self, name, strategy, n):
        for seed, stream in ((0, ()), (5, ("trial", 3)), (9, ("rate", n, 1))):
            ps, zs, ys, xs, memory = reference_game(strategy, n, seed, stream)
            tr = play_trial(strategy, n, seed, stream)
            assert isinstance(tr, TrialArrays) and tr.n == n
            assert tr.Z.tolist() == zs and tr.Y.tolist() == ys
            assert tr.X.tolist() == xs
            assert tr.S.tolist() == np.cumsum(xs).tolist()
            assert tr.descriptors == memory
            assert tr.final_score == sum(xs)

    @pytest.mark.parametrize("p_cap,drop", [(0.7, 0.0), (0.7, 0.7)])
    def test_history_capped_first_failure(self, p_cap, drop):
        strategy = HistoryCappedStrategy(p_cap, drop)
        first = np.array([0.9] + [0.1] * 9)  # fails in round 1
        never = np.full(10, 0.1)
        both = np.stack([first, never])
        p_ref, d_ref = adapter_play(strategy, both, 0)
        p, d = closed_play(strategy, both, 0)
        np.testing.assert_array_equal(p, p_ref)
        assert d == d_ref
        assert p[0].tolist() == [p_cap] + [p_cap - drop] * 9
        assert d[0] == ["failed=0"] + ["failed=1"] * 10
        assert p[1].tolist() == [p_cap] * 10 and d[1] == ["failed=0"] * 11

    @pytest.mark.parametrize("p_cap,drop,match", [
        (1.5, 0.1, "cap 1.5 outside"), (-0.1, 0.0, "cap -0.1 outside"),
        (0.5, 0.6, "drop 0.6 must lie"), (0.5, -0.1, "drop -0.1 must lie"),
    ])
    def test_history_capped_range(self, p_cap, drop, match):
        with pytest.raises(SpecError, match=match):
            HistoryCappedStrategy(p_cap, drop)

    def test_memory_block_recharge_draws(self):
        strategy = memory_block_strategy(2, PsiSpec(lam=0.5, d2=4), 4)
        q = strategy.block_success_prob
        p, d = strategy.play(np.zeros((2, 10)), np.random.default_rng(3))
        # 10 // 4 draws per row, row after row
        recharge = np.random.default_rng(3).random((2, 2)) < q
        for row, draws in enumerate(recharge):
            expect = [1.0] * 4 + [1.0 if ok else 0.5 for ok in draws
                                  for _ in range(4)]
            assert p[row].tolist() == expect[:10]
            assert d[row][4].startswith("block=1;")
            assert d[row][8].startswith("block=2;")
            assert d[row][-1].endswith("used=2")

    @pytest.mark.parametrize("strategy,error,message", ROUND_LOOP_ERRORS)
    def test_errors_match_round_loop(self, strategy, error, message):
        with pytest.raises(error, match=re.escape(message)) as ref:
            reference_game(strategy, 6, seed=1)
        with pytest.raises(error) as got:
            play_trial(strategy, 6, seed=1)
        assert str(got.value) == str(ref.value)
        with pytest.raises(error) as ensemble:
            simulate_ensemble(strategy, 6, trials=3, seed=1)
        assert str(ensemble.value) == str(ref.value)

    def test_adapter_stops_at_first_failure(self):
        strategy = BadAtRound(bad=3)
        p, d = strategy.play(np.full((2, 8), 0.5), None)
        for row, memory in zip(p, d):
            assert row[:3].tolist() == [0.5, 0.5, 1.5] and len(memory) == 3
            assert np.isnan(row[3:]).all()  # rounds never played
        assert strategy.rounds == 2  # observe never saw round 3

    def test_malformed_play_rejected(self):
        class Short(IIDStrategy):
            def play(self, u, rng):
                p, d = super().play(u, rng)
                return p[:, :-1], d

        class ShortMemory(IIDStrategy):
            def play(self, u, rng):
                p, d = super().play(u, rng)
                return p, [memory[:-1] for memory in d]

        for strategy in (Short(0.5), ShortMemory(0.5)):
            with pytest.raises(SpecError, match="want 5 and 6"):
                play_trial(strategy, 5)


class TestChunkedCore:
    """The ensemble core plays rows in chunks of _CHUNK_CELLS // n rows;
    the numbers must be those of one call over every row."""

    @staticmethod
    def ensembles(strategy, n):
        config = DetectionConfig(p_tau=0.9, p_locc=0.6, delta=0.1, n=n)
        oracle = DetectionOracle(tau=strategy, gamma=strategy)
        return (simulate_ensemble(strategy, n, trials=8, seed=21),
                estimate_rate(strategy, None, 0.6, 8, (n, n + 3), 22),
                detection_accuracy(config, oracle, trials=8, seed=23))

    @pytest.mark.parametrize("name,strategy,n",
                             BUILTINS + [("slow-iid", SlowIID(0.6), 20)],
                             ids=[c[0] for c in BUILTINS] + ["slow-iid"])
    def test_chunks_match_one_call(self, name, strategy, n, monkeypatch):
        assert 8 * (n + 3) <= game._CHUNK_CELLS  # one chunk by default
        x, rate, accuracy = self.ensembles(strategy, n)
        # three rows of n per chunk: 8 trials cross two chunk boundaries
        # and end in a short chunk
        monkeypatch.setattr(game, "_CHUNK_CELLS", 3 * n)
        x3, rate3, accuracy3 = self.ensembles(strategy, n)
        np.testing.assert_array_equal(x3, x)
        assert (rate3, accuracy3) == (rate, accuracy)
        monkeypatch.setattr(game, "_CHUNK_CELLS", 1)  # one row per chunk
        np.testing.assert_array_equal(self.ensembles(strategy, n)[0], x)

    @pytest.mark.parametrize("strategy,error,message", ROUND_LOOP_ERRORS)
    def test_errors_in_one_row_chunks(self, strategy, error, message,
                                      monkeypatch):
        monkeypatch.setattr(game, "_CHUNK_CELLS", 1)
        with pytest.raises(error) as ref:
            reference_game(strategy, 6, seed=1)
        with pytest.raises(error) as chunked:
            simulate_ensemble(strategy, 6, trials=3, seed=1)
        assert str(chunked.value) == str(ref.value)

    def test_memory_stays_bounded(self):
        # one call would hold two (2000, 2000) float64 arrays, 64 MB; a
        # chunk holds u and p of at most _CHUNK_CELLS cells, 4 MiB
        tracemalloc.start()
        try:
            x = simulate_ensemble(IIDStrategy(0.5), 2000, 2000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (2000, 2000)
        assert peak < x.nbytes + 16 * 2**20


class ScalarBlock(game.MemoryBlockStrategy):
    """The memory-block strategy played round by round by the base-class
    adapter: its scalar ``reset`` stores the generator it is given and
    ``observe`` draws each recharge from it."""

    play = Strategy.play


def scalar_block(n_block):
    return ScalarBlock(n_block=n_block, seed=0, **MB)


def philox_state(rng) -> tuple:
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


class TestBatchedTrials:
    """The CLI's trial iterator derives the stream keys of _KEY_CHUNK
    trials at a time and re-keys three reused generators per trial; every
    trial must be the one ``play_trial`` plays on the same streams."""

    STRATEGIES = BUILTINS + [("slow-iid", SlowIID(0.6), 20),
                             ("scalar-block", scalar_block(4), 37)]

    @staticmethod
    def games(strategy, n, trials):
        # rate-like: two round counts, and stream labels of both kinds
        return [(strategy, n + (t % 2), ("rate", n + (t % 2), t))
                for t in range(trials)]

    @staticmethod
    def assert_played_as_play_trial(games, seed):
        played = list(game._play_trials(iter(games), seed))
        assert len(played) == len(games)
        for tr, (strategy, n, stream) in zip(played, games):
            assert tr == play_trial(strategy, n, seed, stream), stream

    @pytest.mark.parametrize("name,strategy,n", STRATEGIES,
                             ids=[c[0] for c in STRATEGIES])
    def test_equals_play_trial_around_chunk_boundaries(self, name, strategy,
                                                       n, monkeypatch):
        # chunks of 3 trials: runs that end just before, exactly at and
        # just after a boundary, and one that crosses two
        monkeypatch.setattr(game, "_KEY_CHUNK", 3)
        for trials in (2, 3, 4, 7):
            self.assert_played_as_play_trial(
                self.games(strategy, n, trials), seed=trials)

    def test_default_chunk_boundary(self):
        chunk = game._KEY_CHUNK
        for trials in (chunk - 1, chunk, chunk + 1):
            self.assert_played_as_play_trial(
                self.games(IIDStrategy(0.6), 3, trials), seed=2**64 + trials)

    def test_detect_worlds_alternate(self, monkeypatch):
        # detect alternates two strategies that share the reused generators
        monkeypatch.setattr(game, "_KEY_CHUNK", 4)
        worlds = {"tau": scalar_block(2), "gamma": HistoryCappedStrategy(0.7)}
        games = [(worlds[w], 9, ("trial", t, "detect", w))
                 for t, w in zip(range(9), ["tau", "gamma"] * 5)]
        self.assert_played_as_play_trial(games, seed=5)

    def test_no_generator_rekeyed_while_its_trial_holds_it(self, monkeypatch):
        # when a trial is handed out, the generator its strategy stored is
        # still at the end of that trial's own strategy stream: re-keying
        # waits for the next trial
        monkeypatch.setattr(game, "_KEY_CHUNK", 2)
        strategy, n = scalar_block(1), 6
        games = [(strategy, n, ("trial", t)) for t in range(5)]
        held = []
        for tr, (_, _, stream) in zip(game._play_trials(games, 3), games):
            reference = scalar_block(1)
            assert tr == play_trial(reference, n, 3, stream)
            assert strategy._rng is not reference._rng
            assert philox_state(strategy._rng) == philox_state(
                reference._rng), stream
            held.append(strategy._rng)
        # one strategy generator, reused by every trial
        assert all(rng is held[0] for rng in held)

    def test_errors_are_those_of_play_trial(self):
        games = [(IIDStrategy(0.5), 4, ("trial", 0)),
                 (BadAtRound(bad=3), 6, ("trial", 1))]
        trials = game._play_trials(games, 1)
        assert next(trials) == play_trial(IIDStrategy(0.5), 4, 1, ("trial", 0))
        with pytest.raises(SpecError,
                           match=re.escape("1.5 outside [0, 1] in round 3")):
            next(trials)
        for n in (0, 2.0, game._MAX_ROUNDS + 1):
            with pytest.raises(SpecError, match="round count"):
                list(game._play_trials([(IIDStrategy(0.5), n, ())], 0))

    def test_one_chunk_of_games_and_keys_at_a_time(self, monkeypatch):
        # when a trial is handed out, at most the rest of its chunk of
        # games has been read, and each batch derives one chunk's keys
        monkeypatch.setattr(game, "_KEY_CHUNK", 4)
        read, batches = [], []

        def games():
            for t in range(11):
                read.append(t)
                yield IIDStrategy(0.5), 2, ("trial", t)

        def recording(root, streams, derive=game.philox_keys):
            batches.append(len(streams))
            return derive(root, streams)

        monkeypatch.setattr(game, "philox_keys", recording)
        for t, _ in enumerate(game._play_trials(games(), 1)):
            assert len(read) == min(11, (t // 4 + 1) * 4)
        assert batches == [12, 12, 9]


def trial(Z, Y, X=None, S=None, descriptors=None, protocol_id="x"):
    """A hand-built TrialArrays; X, S and the descriptors default to
    the consistent ones."""
    Z, Y = np.asarray(Z), np.asarray(Y)
    X = (Y == Z).astype(np.int64) if X is None else np.asarray(X)
    S = np.cumsum(X) if S is None else np.asarray(S)
    if descriptors is None:
        descriptors = ["-"] * (len(X) + 1)
    return TrialArrays(protocol_id=protocol_id, Z=Z, Y=Y, X=X, S=S,
                       descriptors=descriptors)


class TestRoundLimit:
    """One trial plays at most _MAX_ROUNDS rounds: the engine core
    refuses more before it draws anything."""

    class Undrawable(IIDStrategy):
        def play(self, u, rng):
            raise AssertionError("the engine drew rounds past the limit")

    def calls(self, n):
        strategy = self.Undrawable(0.5)
        return (lambda: play_trial(strategy, n),
                lambda: simulate_ensemble(strategy, n, trials=1),
                lambda: estimate_rate(strategy, None, 0.5, 1, (n,)))

    def test_huge_round_count_is_refused(self):
        for call in self.calls(277258872223978094593):
            with pytest.raises(SpecError, match="outside 1..1000000"):
                call()

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(game, "_MAX_ROUNDS", 12)
        assert play_trial(IIDStrategy(0.5), 12).n == 12
        assert simulate_ensemble(IIDStrategy(0.5), 12, trials=3).shape == (3, 12)
        for call in self.calls(13):
            with pytest.raises(SpecError, match="outside 1..12 "):
                call()


class TestEnsembleLimit:
    """An ensemble holds at most _MAX_CELLS success indicators: the engine
    core refuses more before it allocates its (trials, n) matrix."""

    @staticmethod
    def calls(trials):
        config = DetectionConfig(p_tau=0.9, p_locc=0.75, delta=0.05, n=1000)
        return (lambda: simulate_ensemble(IIDStrategy(0.5), 1000, trials),
                lambda: estimate_rate(IIDStrategy(0.5), None, 0.5, trials,
                                      (1000,)),
                lambda: detection_accuracy(
                    config, default_detection_oracle(config), trials=trials))

    @pytest.mark.parametrize("call", range(3))
    def test_huge_ensemble_allocates_nothing(self, call):
        run = self.calls(10**12)[call]
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match="exceed the limit 268435456"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 65_536

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(game, "_MAX_CELLS", 3000)
        assert simulate_ensemble(IIDStrategy(0.5), 1000, 3).shape == (3, 1000)
        for run in self.calls(4):
            with pytest.raises(SpecError, match="4 trials of 1000 rounds"):
                run()


def _count_entries():
    """(label, call, a valid value): every count or dimension argument of
    the game layer."""
    iid, psi = IIDStrategy(0.5), PsiSpec(lam=0.5, d2=8)
    config = DetectionConfig(p_tau=0.9, p_locc=0.75, delta=0.05, n=4)
    oracle = default_detection_oracle(config)
    return [
        ("play_trial-n", lambda v: play_trial(iid, v), 4),
        ("simulate_ensemble-n", lambda v: simulate_ensemble(iid, v, 3), 4),
        ("simulate_ensemble-trials", lambda v: simulate_ensemble(iid, 4, v), 3),
        ("estimate_rate-trials",
         lambda v: estimate_rate(iid, None, 0.5, v, (4,)), 3),
        ("estimate_rate-n_list",
         lambda v: estimate_rate(iid, None, 0.5, 3, (v,)), 4),
        ("detection_accuracy-trials",
         lambda v: detection_accuracy(config, oracle, trials=v), 3),
        ("DetectionConfig-n",
         lambda v: DetectionConfig(p_tau=0.9, p_locc=0.75, delta=0.05, n=v), 4),
        ("memory_block_strategy-d1", lambda v: memory_block_strategy(v, psi, 4), 2),
        ("memory_block_strategy-n_block",
         lambda v: memory_block_strategy(2, psi, v), 4),
        ("run_teleport_discrimination-d",
         lambda v: run_teleport_discrimination(d=v, n=4), 2),
        ("run_teleport_discrimination-n",
         lambda v: run_teleport_discrimination(d=2, n=v), 4),
    ]


@pytest.mark.parametrize("value", [2.5, 4.0, True, "int64"])
@pytest.mark.parametrize("entry", range(len(_count_entries())),
                         ids=[label for label, _, _ in _count_entries()])
def test_counts_and_dimensions_must_be_integers(entry, value):
    # a float or a bool count is a SpecError, not a raw TypeError from
    # numpy; a numpy integer is an integer
    _, call, good = _count_entries()[entry]
    if value == "int64":
        call(np.int64(good))
    else:
        with pytest.raises(SpecError, match="must be an integer"):
            call(value)


class TestRunGame:
    """One trial of the engine core, ``play_trial``."""

    def test_perfect_strategy(self):
        tr = play_trial(IIDStrategy(1.0), n=100)
        assert tr.final_score == 100
        assert tr.S.tolist() == list(range(1, 101))
        assert tr.success_fraction == 1.0

    def test_hopeless_strategy(self):
        tr = play_trial(IIDStrategy(0.0), n=100)
        assert tr.final_score == 0

    def test_uniform_guessing(self):
        tr = play_trial(IIDStrategy(0.5), n=10_000, seed=11)
        assert 0.47 <= tr.success_fraction <= 0.53

    def test_transcript_bookkeeping(self):
        tr = play_trial(IIDStrategy(0.75), n=200, seed=3)
        total = 0
        for z, y, x, s in zip(tr.Z.tolist(), tr.Y.tolist(), tr.X.tolist(),
                              tr.S.tolist()):
            assert x == int(y == z)
            total += x
            assert s == total
        assert tr.protocol_id == "iid"

    def test_seed_determinism(self):
        a = play_trial(IIDStrategy(0.6), n=50, seed=9)
        b = play_trial(IIDStrategy(0.6), n=50, seed=9)
        assert a == b
        c = play_trial(IIDStrategy(0.6), n=50, seed=9, stream=("other",))
        assert c != a

    def test_invalid_probability(self):
        with pytest.raises(SpecError):
            IIDStrategy(1.5)
        with pytest.raises(SpecError):
            play_trial(SlowIID(1.2), n=3)

    def test_invalid_round_count(self):
        with pytest.raises(SpecError):
            play_trial(IIDStrategy(0.5), n=0)

    def test_catalyst_violation(self):
        with pytest.raises(CatalystViolation):
            play_trial(ShiftyCatalyst(), n=5)

    def test_round_record_validation(self):
        with pytest.raises(SpecError, match="round 1: Z and Y must be bits"):
            trial(Z=[2], Y=[0], X=[0])

    def test_transcript_validation(self):
        with pytest.raises(SpecError, match="S_1 = 0 does not telescope"):
            trial(Z=[0], Y=[0], X=[1], S=[0])


# (Z, Y, X, S, descriptors, message): one hand-built bad trial per
# message, each broken in round 3 of 4 where a round is named; None
# takes the consistent value
BAD_TRIALS = {
    "z-not-bit": ([0, 1, 2, 0], [0, 1, 0, 0], [1, 1, 0, 1], None, None,
                  "round 3: Z and Y must be bits"),
    "y-not-bit": ([0, 1, 0, 0], [0, 1, -1, 0], [1, 1, 0, 1], None, None,
                  "round 3: Z and Y must be bits"),
    "x-not-indicator": ([0, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1], None, None,
                        "round 3: X must indicate Y == Z"),
    "x-not-bit": ([0, 1, 0, 0], [0, 1, 0, 0], [1, 1, 2, 1], None, None,
                  "round 3: X must indicate Y == Z"),
    "s-not-telescoping": ([0, 1, 0, 0], [0, 1, 0, 0], None, [1, 2, 2, 4],
                          None, "S_3 = 2 does not telescope"),
    "s-short": ([0, 1, 0, 0], [0, 1, 0, 0], None, [1, 2, 3], None,
                "transcript length mismatch: n=4"),
    "z-long": ([0, 1, 0, 0, 1], [0, 1, 0, 0], [1, 1, 1, 1], None, None,
               "transcript length mismatch: n=4"),
    "descriptors-n": ([0, 1, 0, 0], [0, 1, 0, 0], None, None, ["-"] * 4,
                      "transcript length mismatch: n=4"),
    "no-rounds": ([], [], None, None, ["-"],
                  "transcript length mismatch: n=0"),
    "two-dimensional": ([[0, 1]], [[0, 1]], None, None, ["-"] * 3,
                        "transcript length mismatch: n=2"),
    "scalars": (0, 0, 1, 1, ["-"] * 2, "transcript length mismatch: n=1"),
    "float-arrays": ([0.0, 1.0], [0.0, 1.0], [1.0, 1.0], None, None,
                     "must share an integer type, got Z float64"),
}


class TestTrialArrays:
    @pytest.mark.parametrize("case", sorted(BAD_TRIALS))
    def test_bad_trial_rejected(self, case):
        *fields, message = BAD_TRIALS[case]
        with pytest.raises(SpecError, match=re.escape(message)):
            trial(*fields)

    def test_first_offending_round_is_named(self):
        # round 2 breaks X = 1[Y = Z], round 3 the bits; then a round
        # that breaks both reports the bits
        with pytest.raises(SpecError, match=re.escape(
                "round 2: X must indicate Y == Z")):
            trial(Z=[0, 0, 5], Y=[0, 0, 0], X=[1, 0, 0])
        with pytest.raises(SpecError, match=re.escape(
                "round 2: Z and Y must be bits")):
            trial(Z=[0, 0, 0], Y=[0, 7, 0], X=[1, 0, 2])

    def test_accepts_consistent_trial(self):
        tr = trial(Z=[0, 1, 1, 0], Y=[0, 0, 1, 0])
        assert tr.n == 4 and tr.final_score == 3
        assert tr.S.tolist() == [1, 1, 2, 3] and tr.success_fraction == 0.75
        # boolean and narrow integer indicators are integers too
        tr = trial(Z=np.array([1, 0], dtype=np.uint8), Y=[True, True],
                   X=np.array([True, False]))
        assert tr.final_score == 1

    def test_value_equality(self):
        a = play_trial(IIDStrategy(0.6), 50, 9)
        b = play_trial(IIDStrategy(0.6), 50, 9)
        assert a is not b and a == b and not a != b
        assert a != play_trial(IIDStrategy(0.6), 49, 9)
        assert a != "trial"
        same = dict(Z=[0, 1], Y=[0, 1])
        assert trial(**same) == trial(**same)
        assert trial(**same) != trial(**same, protocol_id="y")
        assert trial(**same) != trial(**same, descriptors=["-", "-", "+"])
        assert trial(**same) != trial(Z=[1, 1], Y=[1, 1])
        with pytest.raises(TypeError):
            hash(a)


class TestSimulateEnsemble:
    def test_batch_statistics(self):
        x = simulate_ensemble(IIDStrategy(0.75), n=1000, trials=200, seed=4)
        assert x.shape == (200, 1000)
        assert set(np.unique(x)) <= {0, 1}
        assert float(x.mean()) == pytest.approx(0.75, abs=0.02)

    def test_fallback_matches_run_game(self):
        # the adapter path on the one ("ensemble",) stream pair: a scalar
        # success draw per round, trial after trial
        x = simulate_ensemble(SlowIID(0.6), n=20, trials=5, seed=8)
        rng = rng_from(8, "ensemble", "success")
        expect = [[int(rng.random() < 0.6) for _ in range(20)] for _ in range(5)]
        assert x.dtype == np.uint8 and x.tolist() == expect

    def test_adapter_matches_closed_form(self):
        for p in (0.0, 0.35, 1.0):
            np.testing.assert_array_equal(
                simulate_ensemble(SlowIID(p), n=30, trials=6, seed=2),
                simulate_ensemble(IIDStrategy(p), n=30, trials=6, seed=2))
            slow = estimate_rate(SlowIID(p), r=0.4, trials=40, n_list=(10, 25),
                                 seed=3)
            fast = estimate_rate(IIDStrategy(p), r=0.4, trials=40,
                                 n_list=(10, 25), seed=3)
            assert slow == fast
        config = DetectionConfig(p_tau=0.9, p_locc=0.7, delta=0.05, n=50)
        slow = detection_accuracy(config, DetectionOracle(
            tau=SlowIID(0.9), gamma=SlowIID(0.7)), trials=60, seed=6)
        fast = detection_accuracy(config, DetectionOracle(
            tau=IIDStrategy(0.9), gamma=IIDStrategy(0.7)), trials=60, seed=6)
        assert (slow.p_corr_tau, slow.p_corr_gamma) == (
            fast.p_corr_tau, fast.p_corr_gamma)

    def test_trial_validation(self):
        with pytest.raises(SpecError):
            simulate_ensemble(IIDStrategy(0.5), n=5, trials=0)


class TestMemoryBlockStrategy:
    def test_parameter_guards(self):
        spec = PsiSpec(lam=0.5, d2=4)
        with pytest.raises(SpecError):
            memory_block_strategy(1, spec, 4)
        with pytest.raises(SpecError):
            memory_block_strategy(2, spec, 0)

    def test_entropy_excess_guard(self):
        # one bit of marginal entropy cannot refill a two-bit memory
        with pytest.raises(SpecError):
            memory_block_strategy(4, PsiSpec(lam=0.5, d2=2), 4)

    def test_recharge_probability_is_exact_tail(self):
        spec = PsiSpec(lam=0.5, d2=4)
        strat = memory_block_strategy(2, spec, 16)
        est = concentration_success_prob(psi_spectrum(spec), 16, 16.0)
        assert est.exact
        assert strat.block_success_prob == est.estimate
        assert strat.eps_tilde == pytest.approx(1.0 - est.estimate, abs=1e-15)
        assert 0.0 < strat.eps_tilde < 0.5

    def test_first_block_is_free(self):
        strat = memory_block_strategy(2, PsiSpec(lam=0.5, d2=4), 8)
        tr = play_trial(strat, n=8, seed=2)
        assert tr.final_score == 8

    def test_second_block_mixture_mean(self):
        spec = PsiSpec(lam=0.5, d2=4)
        strat = memory_block_strategy(2, spec, 8)
        q = strat.block_success_prob
        scores = simulate_ensemble(strat, 16, 50_000, seed=5).sum(axis=1)
        expect = 8 + q * 8 + (1 - q) * 4
        assert float(scores.mean()) == pytest.approx(expect, abs=0.05)
        assert scores.min() >= 8  # first block never fails
        est = estimate_rate(strat, r=0.5, trials=5_000, n_list=(16,), seed=5)
        assert est.success_frac == (1.0,)

    def test_descriptor_tracks_blocks(self):
        strat = memory_block_strategy(2, PsiSpec(lam=0.5, d2=4), 4)
        tr = play_trial(strat, n=8, seed=1)
        # descriptors[j] is the memory after round j
        assert tr.descriptors[1].startswith("block=0")
        assert tr.descriptors[5].startswith("block=1")


class TestEstimateRate:
    def test_certain_strategy(self):
        est = estimate_rate(IIDStrategy(1.0), r=1.0, trials=50, n_list=(10, 40))
        assert est.success_frac == (1.0, 1.0)

    def test_rate_zero_always_met(self):
        est = estimate_rate(IIDStrategy(0.5), r=0.0, trials=50, n_list=(25,))
        assert est.success_frac == (1.0,)

    def test_unreachable_rate(self):
        est = estimate_rate(IIDStrategy(0.5), r=1.0, trials=200, n_list=(100,))
        assert est.success_frac == (0.0,)

    def test_memory_block_rate(self):
        strat = memory_block_strategy(2, PsiSpec(lam=0.5, d2=4), 16)
        r = 1.0 - strat.eps_tilde - 0.05
        est = estimate_rate(strat, r=r, trials=400, n_list=(320,), seed=6)
        assert est.success_frac[0] >= 0.95

    def test_wilson_interval_per_checkpoint(self):
        est = estimate_rate(IIDStrategy(0.5), r=0.5, trials=200,
                            n_list=(10, 40), seed=3)
        assert len(est.ci) == 2 and est.trials == 200
        for frac, (lo, hi) in zip(est.success_frac, est.ci):
            assert 0.0 <= lo < frac < hi <= 1.0
            assert (lo, hi) == wilson_interval(round(frac * 200), 200)
        certain = estimate_rate(IIDStrategy(1.0), r=1.0, trials=50,
                                n_list=(5,))
        assert certain.ci[0][1] == 1.0 and certain.ci[0][0] > 0.85

    def test_fallback_matches_round_loop(self):
        est = estimate_rate(SlowIID(0.6), r=0.55, trials=30, n_list=(20,),
                            seed=4)
        # one scalar success draw per round from the ("rate", 20) stream,
        # trial after trial
        rng = rng_from(4, "rate", 20, "success")
        hits = sum(sum(rng.random() < 0.6 for _ in range(20)) >= 0.55 * 20 - 1e-9
                   for _ in range(30))
        assert est.success_frac == (hits / 30,)

    def test_validation(self):
        with pytest.raises(SpecError):
            estimate_rate(IIDStrategy(0.5), r=1.5)
        with pytest.raises(SpecError):
            estimate_rate(IIDStrategy(0.5), trials=0)
        with pytest.raises(SpecError):
            estimate_rate(IIDStrategy(0.5), n_list=(0,))


class TestDetectionConfig:
    def test_catalyst_delta_window(self):
        DetectionConfig(p_tau=1.0, p_locc=0.6, delta=0.1, n=10)
        with pytest.raises(SpecError):
            DetectionConfig(p_tau=1.0, p_locc=0.6, delta=0.2, n=10)
        with pytest.raises(SpecError):
            DetectionConfig(p_tau=1.0, p_locc=0.6, delta=0.0, n=10)

    @pytest.mark.parametrize("p_tau,p_locc,match", [
        (1.5, 0.6, "p_tau = 1.5 outside"), (1.0, -0.2, "p_locc = -0.2 outside"),
    ])
    def test_probabilities_in_unit_interval(self, p_tau, p_locc, match):
        with pytest.raises(SpecError, match=match):
            DetectionConfig(p_tau=p_tau, p_locc=p_locc, delta=0.1, n=10)

    def test_round_count_positive(self):
        with pytest.raises(SpecError, match="round count must be >= 1, got 0"):
            DetectionConfig(p_tau=1.0, p_locc=0.6, delta=0.1, n=0)

    def test_memory_mode_delta_at_most_the_gap(self):
        with pytest.raises(SpecError, match="memory mode needs"):
            DetectionConfig(p_tau=1.0, p_locc=0.6, delta=0.25, n=10,
                            mode="memory-threshold")

    def test_memory_mode_allows_closed_endpoint(self):
        DetectionConfig(p_tau=1.0, p_locc=0.6, delta=0.2, n=10,
                        mode="memory-threshold")

    def test_ordering_and_mode_guards(self):
        with pytest.raises(SpecError):
            DetectionConfig(p_tau=0.5, p_locc=0.6, delta=0.01, n=10)
        with pytest.raises(SpecError):
            DetectionConfig(p_tau=1.0, p_locc=0.6, delta=0.1, n=10,
                            mode="psychic")

    def test_world_selector(self):
        oracle = default_detection_oracle(
            DetectionConfig(p_tau=1.0, p_locc=0.5, delta=0.1, n=10))
        assert oracle.strategy_for("tau").protocol_id == "world-tau"
        with pytest.raises(SpecError):
            oracle.strategy_for("limbo")

    def test_default_oracle_takes_only_the_config(self):
        # gamma drops by min(0.1, p_locc) after its first failure
        assert list(inspect.signature(default_detection_oracle).parameters) == [
            "config"]
        for p_locc, drop in ((0.5, 0.1), (0.05, 0.05)):
            oracle = default_detection_oracle(
                DetectionConfig(p_tau=1.0, p_locc=p_locc, delta=0.1, n=10,
                                mode="memory-threshold"))
            assert oracle.gamma.drop == drop


class TestDetection:
    def test_accuracy_report(self):
        config = DetectionConfig(p_tau=1.0, p_locc=0.5, delta=0.1, n=50)
        oracle = default_detection_oracle(config)
        report = detection_accuracy(config, oracle, trials=400, seed=1)
        assert report.p_corr_tau == 1.0
        # capped world would need 45/50 hits to fool the window
        assert report.p_corr_gamma == 1.0
        assert report.overall == 1.0
        assert report.hoeffding == hoeffding_bound(50, 0.1)
        assert report.azuma == azuma_bound(50, 0.1)

    def test_memory_threshold_mode(self):
        config = DetectionConfig(p_tau=0.95, p_locc=0.55, delta=0.15, n=400,
                                 mode="memory-threshold")
        oracle = DetectionOracle(tau=IIDStrategy(0.95),
                                 gamma=IIDStrategy(0.55))
        report = detection_accuracy(config, oracle, trials=400, seed=2)
        assert report.p_corr_tau >= 0.99
        assert report.p_corr_gamma >= 0.99

    def test_accuracy_intervals(self):
        config = DetectionConfig(p_tau=0.9, p_locc=0.7, delta=0.05, n=50)
        report = detection_accuracy(config, default_detection_oracle(config),
                                    trials=300, seed=4)
        for frac, (lo, hi) in ((report.p_corr_tau, report.ci_tau),
                               (report.p_corr_gamma, report.ci_gamma)):
            assert (lo, hi) == wilson_interval(round(frac * 300), 300)
            assert lo <= frac <= hi

    def test_accuracy_fallback_matches_detect_catalyst(self):
        config = DetectionConfig(p_tau=0.9, p_locc=0.7, delta=0.05, n=50)
        oracle = DetectionOracle(tau=SlowIID(0.9), gamma=SlowIID(0.7))
        report = detection_accuracy(config, oracle, trials=20, seed=6)
        for world, p, frac in (("tau", 0.9, report.p_corr_tau),
                               ("gamma", 0.7, report.p_corr_gamma)):
            # the threshold rule on the ("accuracy", world) stream
            rng = rng_from(6, "accuracy", world, "success")
            scores = [sum(rng.random() < p for _ in range(50)) for _ in range(20)]
            guesses = ["tau" if abs(s / 50 - 0.9) <= 0.05 else "gamma"
                       for s in scores]
            assert frac == guesses.count(world) / 20


class TestConcentrationBounds:
    def test_min_rounds_known_values(self):
        # delta=0.1, T=1: max(ln(8)/0.02, 2 ln(4)/0.01) -> 277.26 -> 278
        assert min_rounds(0.1, 1.0) == 278
        assert min_rounds(0.05, 1.0) == 1110

    def test_min_rounds_monotone_in_delta(self):
        rounds = [min_rounds(d, 1.0) for d in (0.2, 0.1, 0.05, 0.025)]
        assert rounds == sorted(rounds)

    def test_min_rounds_near_orthogonal(self):
        n = min_rounds(0.1, 1.9)
        assert isinstance(n, int) and n > min_rounds(0.1, 1.0)

    def test_min_rounds_domain(self):
        with pytest.raises(DomainError):
            min_rounds(0.1, 2.0)
        with pytest.raises(DomainError):
            min_rounds(0.1, 0.0)
        with pytest.raises(DomainError):
            min_rounds(0.0, 1.0)
        # NaN fails every comparison, so each test must be written to fail
        for delta, t in ((math.nan, 1.0), (-math.inf, 1.0), (0.1, math.nan)):
            with pytest.raises(DomainError):
                min_rounds(delta, t)

    @pytest.mark.parametrize("delta", [1e-300, 5e-324, 1e-160])
    def test_min_rounds_refuses_a_delta_with_no_finite_bound(self, delta):
        # delta^2 is 0.0 (the bound would divide by zero) or, at 1e-160,
        # subnormal, and the quotient overflows to inf
        with pytest.raises(DomainError, match="too small"):
            min_rounds(delta, 1.0)

    def test_hoeffding_exact(self):
        assert hoeffding_bound(100, 0.1) == pytest.approx(
            1.0 - 2.0 * math.exp(-2.0), abs=1e-15)
        assert hoeffding_bound(1_000_000, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_azuma_exact(self):
        assert azuma_bound(200, 0.1) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert azuma_bound(1_000_000, 0.1) < 1e-300


class TestSupermartingaleAudit:
    def test_iid_at_cap_passes(self):
        x = simulate_ensemble(IIDStrategy(0.5), n=60, trials=3000, seed=7)
        report = check_supermartingale(x, p_cap=0.5)
        assert report.passed
        assert report.increments_bounded
        assert report.buckets > 0

    def test_history_capped_passes(self):
        x = simulate_ensemble(HistoryCappedStrategy(0.7, 0.2), n=60,
                              trials=3000, seed=8)
        report = check_supermartingale(x, p_cap=0.7)
        assert report.passed

    def test_super_cap_oracle_flagged(self):
        x = simulate_ensemble(IIDStrategy(0.65), n=60, trials=3000, seed=9)
        report = check_supermartingale(x, p_cap=0.5)
        assert not report.passed
        assert report.max_z > report.z_tol

    def test_pinned_audit_fields(self):
        # the figures of a bucket-by-bucket loop over the same ensemble
        x = simulate_ensemble(IIDStrategy(0.65), n=60, trials=3000, seed=9)
        report = check_supermartingale(x, p_cap=0.5)
        assert (report.buckets, report.violations) == (618, 492)
        assert report.max_z == float.fromhex("0x1.cfe26e06c27e2p+3")

    def test_thresholds_are_constants(self):
        # 50 trajectories per bucket, 3 sigma, 0.5% of buckets
        assert list(inspect.signature(check_supermartingale).parameters) == [
            "ensemble", "p_cap"]
        for trials, buckets in ((49, 0), (50, 3)):
            ones = np.ones((trials, 3), dtype=np.uint8)
            report = check_supermartingale(ones, p_cap=0.5)
            assert report.buckets == buckets
            assert (report.z_tol, report.allowed_exceedance) == (3.0, 0.005)

    def test_input_validation(self):
        # the (trials, n) matrix is the one input form
        trs = [play_trial(IIDStrategy(0.5), n=10, seed=s) for s in range(3)]
        with pytest.raises(SpecError, match=re.escape("(trials, n) matrix")):
            check_supermartingale(trs, p_cap=0.5)
        with pytest.raises(SpecError):
            check_supermartingale(np.array([[0, 2]]), p_cap=0.5)
        with pytest.raises(SpecError):
            check_supermartingale(np.zeros((0, 5), dtype=np.uint8), p_cap=0.5)
        with pytest.raises(DomainError):
            check_supermartingale(np.zeros((3, 5), dtype=np.uint8), p_cap=1.0)


class TestTeleportDiscrimination:
    def test_orthogonal_pair_never_misses(self):
        tr = run_teleport_discrimination(d=2, n=500, seed=0)
        assert tr.final_score == 500
        assert tr.protocol_id == "teleport-discrimination-d2"

    def test_dimension_three(self):
        tr = run_teleport_discrimination(d=3, n=100, seed=1)
        assert tr.final_score == 100

    def test_matches_scalar_round_loop(self):
        tr = run_teleport_discrimination(d=2, n=300, seed=7)
        assert isinstance(tr, TrialArrays)
        # one scalar draw per round from each stream; every outcome is
        # symmetric exactly when Z = 0
        rng_rounds = rng_from(7, "teleport", "rounds")
        rng_outcome = rng_from(7, "teleport", "outcome")
        zs, ys = [], []
        for _ in range(300):
            z = int(rng_rounds.integers(0, 2))
            sym = rng_outcome.random() < (1.0 if z == 0 else 0.0)
            zs.append(z)
            ys.append(0 if sym else 1)
        assert tr.Z.tolist() == zs and tr.Y.tolist() == ys
        assert tr.final_score == tr.n == 300
        assert tr.descriptors[1:] == ["resource=consumed"] * 300

    def test_round_count_validation(self):
        with pytest.raises(SpecError, match="round count"):
            run_teleport_discrimination(d=2, n=0)


GAME_API = sorted([
    "DetectionConfig", "DetectionOracle", "DetectionReport",
    "HistoryCappedStrategy", "IIDStrategy", "MemoryBlockStrategy",
    "RateEstimate", "Strategy", "SupermartingaleReport", "TrialArrays",
    "azuma_bound", "check_supermartingale", "default_detection_oracle",
    "detection_accuracy", "estimate_rate",
    "hoeffding_bound", "memory_block_strategy", "min_rounds", "play_trial",
    "run_teleport_discrimination", "simulate_ensemble",
])


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for name in locclab.__all__:
            assert getattr(locclab, name) is not None, name
        assert len(set(locclab.__all__)) == len(locclab.__all__)
        assert locclab.play_trial is game.play_trial
        assert locclab.TrialArrays is game.TrialArrays

    def test_one_trial_type(self):
        # every public name locclab.game defines is exported, and these
        # are all of them: TrialArrays is the only trial type and
        # play_trial the only function that plays one
        def from_game(names, space):
            return sorted(name for name in names
                          if getattr(space[name], "__module__", None)
                          == "locclab.game")

        exported = from_game(locclab.__all__, vars(locclab))
        defined = from_game([name for name in vars(game)
                             if not name.startswith("_")], vars(game))
        assert exported == defined == GAME_API

    def test_library_only_paths_are_gone(self):
        # DetectionConfig.guess is the one threshold rule, the law's
        # ``_draws`` the one draw of a Schmidt type and SchmidtSpectrum's
        # entropy_bits the one marginal entropy; no second path is exported
        for name in ("SchmidtTypeState", "detect_catalyst", "DetectionResult",
                     "sample_type", "type_log2_dim", "psi_marginal_entropy"):
            assert name not in locclab.__all__
            with pytest.raises(AttributeError):
                getattr(locclab, name)


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


class TestEngineTakesNoState:
    # a strategy reads its success uniforms and its own stream, nothing more
    def test_strategy_hooks(self):
        assert parameters(Strategy.reset) == ["self", "rng"]
        for cls in (Strategy, IIDStrategy, HistoryCappedStrategy,
                    game.MemoryBlockStrategy):
            assert parameters(cls.play) == ["self", "u", "rng"], cls
        assert parameters(IIDStrategy.__init__) == ["self", "p", "protocol_id"]

    def test_play_trial_signature(self):
        assert parameters(play_trial) == ["strategy", "n", "seed", "stream"]

    def test_estimate_rate_slot_takes_only_none(self):
        strategy = IIDStrategy(0.5)
        with pytest.raises(SpecError, match="must be None, got object"):
            estimate_rate(strategy, object(), 0.5, 4, (3,), 1)
        assert estimate_rate(strategy, None, 0.5, 4, (3,), 1) == estimate_rate(
            strategy, r=0.5, trials=4, n_list=(3,), seed=1)
