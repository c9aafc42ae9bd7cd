"""Runtime span tracing around locclab's public names.

``Tracer.install`` replaces, at runtime and only in memory, every
function named in ``locclab.__all__`` plus ``cli.main``,
``cli.write_manifest`` and ``cli.load_manifest`` with a wrapper that
records a span (layer, name, item, parent, start, end, error, counters).
The replacement is made in every ``locclab.*`` module namespace that
binds the original, so calls between layers are seen too. Nothing under
``src/`` is edited; ``uninstall`` restores the originals.

Spans are kept in memory and written out by the runner when it ends.
A span's self time is its duration minus the part of its interval that
its child spans cover; ``layer_metrics`` turns one pass's spans into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import types
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("qmat", "states", "distinguish", "sdp", "protocols", "game", "cli")
CLI_NAMES = ("main", "write_manifest", "load_manifest")

# library entry points of the vectorized trial engine ("batch" paths)
_BATCH = ("simulate_ensemble", "estimate_rate", "detection_accuracy")


def _game_rounds(name, result) -> int:
    if name == "run_game":
        return result.n
    if name == "detect_catalyst":
        return result.transcript.n
    if name == "simulate_ensemble":
        return int(result.size)
    if name == "estimate_rate":
        return result.trials * sum(result.n_list)
    if name == "detection_accuracy":
        return 2 * result.trials * result.config.n
    return 0


def _counters(name, kwargs, result) -> dict:
    """Work counts a span carries, read from the call's result."""
    if name == "solve_ppt_two_outcome":
        return {"newton_steps": result.newton_steps, "gap": float(result.gap)}
    if name == "concentration_distribution":
        # every caller in the package and the benchmark passes mode= and
        # samples= by keyword
        if kwargs.get("mode") == "sample":
            return {"sampled": True, "samples": int(kwargs["samples"])}
        return {"sampled": False, "types": len(result)}
    rounds = _game_rounds(name, result)
    return {"rounds": rounds} if rounds else {}


@dataclass
class Span:
    id: int
    layer: str
    name: str
    item: tuple
    parent: int
    start: float
    end: float = 0.0
    error: bool = False
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "layer": self.layer, "name": self.name,
                "item": list(self.item), "parent": self.parent,
                "start": self.start, "end": self.end, "error": self.error,
                **({"counters": self.counters} if self.counters else {})}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (pass index, item index) of the item being run; spans share it
        self.item: tuple = ()
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer: str, fn):
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's span belongs to the main thread's open span
                main = tracer._main_stack
                parent = main[-1] if main else -1
            span = Span(next(tracer._ids), layer, name, tracer.item, parent,
                        perf_counter())
            tracer.spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            span.counters = _counters(name, kwargs, result)
            return result
        return traced

    def install(self, locclab, cli) -> None:
        targets = [getattr(locclab, n) for n in locclab.__all__]
        targets += [getattr(cli, n) for n in CLI_NAMES]
        wrappers = {}
        for fn in targets:
            if not isinstance(fn, types.FunctionType):
                continue
            layer = fn.__module__.rpartition(".")[2]
            if layer in LAYERS:
                wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        modules = [m for n, m in sys.modules.items()
                   if n == "locclab" or n.startswith("locclab.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


# --- per-layer metrics ----------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list) -> dict:
    """span id -> duration minus the part covered by its children."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = _union((max(c.start, s.start), min(c.end, s.end))
                         for c in children.get(s.id, ()) if c.end > s.start)
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list, pass_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def outermost(layer):
        # spans of a layer not nested in another span of the same layer
        return [s for s in spans if s.layer == layer and
                not (s.parent in by_id and by_id[s.parent].layer == layer)]

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    m = {}
    solves = [s for s in spans if s.name == "solve_ppt_two_outcome"]
    ok = [s for s in solves if not s.error]
    steps = sum(s.counters.get("newton_steps", 0) for s in ok)
    m["sdp.solve_s"] = total("solve_ppt_two_outcome")
    m["sdp.solves"] = len(solves)
    m["sdp.newton_steps"] = steps
    m["sdp.s_per_newton_step"] = m["sdp.solve_s"] / steps if steps else 0.0
    m["sdp.failed"] = len(solves) - len(ok)
    m["sdp.cert_gap_max"] = max((s.counters["gap"] for s in ok), default=0.0)

    m["distinguish.helstrom_s"] = total("helstrom")
    m["distinguish.locc_lower_s"] = total("locc_lower_bound")

    m["states.construct_s"] = sum(s.duration for s in outermost("states"))
    m["qmat.s"] = sum(s.duration for s in outermost("qmat"))

    dists = [s for s in spans if s.name == "concentration_distribution"
             and not s.error]
    exact = [s for s in dists if not s.counters["sampled"]]
    sampled = [s for s in dists if s.counters["sampled"]]
    m["protocols.exact_s"] = sum(s.duration for s in exact)
    m["protocols.types"] = sum(s.counters["types"] for s in exact)
    m["protocols.types_per_s"] = (m["protocols.types"] / m["protocols.exact_s"]
                                  if exact else 0.0)
    m["protocols.sample_s"] = sum(s.duration for s in sampled)
    n_samples = sum(s.counters["samples"] for s in sampled)
    m["protocols.samples_per_s"] = (n_samples / m["protocols.sample_s"]
                                    if sampled else 0.0)
    m["protocols.success_s"] = sum(
        s.duration for s in outermost("protocols")
        if s.name == "concentration_success_prob")

    games = outermost("game")
    m["game.run_game_s"] = total("run_game")
    m["game.rounds"] = sum(s.counters.get("rounds", 0) for s in games)
    game_s = sum(s.duration for s in games)
    m["game.rounds_per_s"] = m["game.rounds"] / game_s if m["game.rounds"] else 0.0
    m["game.batch_s"] = sum(own[s.id] for s in spans if s.name in _BATCH)

    m["cli.command_s"] = total("main")
    m["cli.manifest_verify_s"] = total("load_manifest")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)
    top = [(s.start, s.end) for s in spans if s.parent == -1]
    m["harness.self_s"] = pass_wall_s - _union(top)
    m["trace.self_cover"] = (sum(m[f"{layer}.self_s"] for layer in LAYERS)
                             + m["harness.self_s"]) / pass_wall_s
    return m
