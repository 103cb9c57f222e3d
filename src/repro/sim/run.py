"""Layer 2 — shared run orchestration over the scheduler core.

Every front-end of the simulation stack — the full-protocol runner
(:mod:`repro.protocol.runner`), the dynamic-network experiment
(:mod:`repro.dynamics.experiment`), and the scripted single-RCA/BCA
drivers — used to hand-roll the same loop: start the engine, run under a
tick budget until a termination predicate holds, optionally drain the
straggling cleanup, and package ticks/transcript/metrics.  That plumbing
lives here once, as a :class:`RunConfig`/:class:`RunResult` pair around
:func:`execute_run`.

The pair is deliberately engine-agnostic: anything exposing the
:class:`~repro.sim.engine.Engine` run surface (``start``/``step_tick``/
``run``/``run_to_idle``/``tick``/``transcript``/``metrics``) can be
orchestrated, which is how the dynamic engine reuses it unchanged.

This module also owns the **backend registry**: the paper's semantics have
two interchangeable engine implementations — the original object backend
(:class:`~repro.sim.engine.Engine`) and the compiled flat-core backend
(:class:`~repro.sim.flatcore.FlatEngine`), which lowers topology and
alphabet into dense integer tables.  Every front-end resolves its engine
through :func:`make_engine`, so ``backend="object" | "flat"`` threads from
the CLI and the campaign matrix all the way down without any front-end
knowing a concrete engine class.  The two backends are tick-exact
equivalent (transcripts, tick counts and traffic metrics are identical;
the differential parity suite enforces it) — ``flat`` is simply faster on
large runs, ``object`` is the reference implementation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError, TickBudgetExceeded
from repro.sim.engine import Engine
from repro.sim.flatcore import FlatEngine
from repro.sim.metrics import TrafficMetrics
from repro.sim.processor import Processor
from repro.sim.transcript import Transcript
from repro.topology.portgraph import PortGraph

__all__ = [
    "DEFAULT_BACKEND",
    "ENGINE_BACKENDS",
    "make_engine",
    "backend_of",
    "check_backend",
    "EnginePool",
    "RunConfig",
    "RunResult",
    "execute_run",
]

#: The reference backend; campaigns and stores treat it as the implied
#: default (its spec hashes predate the backend axis and must not move).
DEFAULT_BACKEND = "object"

#: name -> engine class implementing the :class:`Engine` run surface.
ENGINE_BACKENDS: dict[str, type[Engine]] = {
    "object": Engine,
    "flat": FlatEngine,
}


def check_backend(backend: str) -> str:
    """Validate a backend name against the registry; returns it unchanged."""
    if backend not in ENGINE_BACKENDS:
        raise ReproError(
            f"unknown engine backend {backend!r}; known: {sorted(ENGINE_BACKENDS)}"
        )
    return backend


def make_engine(
    backend: str,
    graph: PortGraph,
    processors: list[Processor],
    *,
    root: int = 0,
) -> Engine:
    """Build the engine for ``backend`` (``"object"`` or ``"flat"``)."""
    cls = ENGINE_BACKENDS[check_backend(backend)]
    return cls(graph, processors, root=root)


class EnginePool:
    """Reset-and-reuse engines instead of rebuilding their data planes.

    Constructing an engine re-derives everything downstream of (graph,
    processor types): wiring lookups, dispatch tables and — on the flat
    backend — the code-indexed handler/fill tables, packed-wheel
    dictionaries and send-time sink closures.  All of that is a pure
    function of the construction signature, so a finished engine can serve
    the next run after an in-place :meth:`~repro.sim.engine.Engine.reset`
    (byte-identical to a fresh engine; the reuse parity suite enforces it).

    ``checkout`` hands back an idle engine for the exact signature —
    ``(engine class, processor class, root, graph wiring)`` — already
    reset, or constructs one on first sight.  ``checkin`` returns it after
    the run.  Results captured from a run (transcript, metrics) stay
    valid after check-in: a reset *rebinds* those objects,
    never clears them.  The engine object embedded in some result types is
    only coherent until its next checkout — campaign and benchmark callers,
    the intended users, read everything they need before returning.

    The pool composes with the caches *below* it: an engine constructed on
    a pool miss resolves its tables through ``compiled_topology()``, which
    reads the process-wide in-memory cache and — when an artifact library
    is configured (:mod:`repro.store.artifacts`) — the on-disk mmap tier,
    so even a brand-new pool in a brand-new process skips the compiler for
    every wiring it has ever seen.

    The pool is not thread-safe; it is per-process state (each campaign
    worker owns one).
    """

    #: idle engines kept per signature; beyond this, checked-in engines
    #: are simply dropped (a signature rarely needs more than one engine
    #: at a time — the cap guards pathological checkout patterns).
    MAX_IDLE_PER_KEY = 4

    #: total idle engines kept across all signatures, evicted LRU.  Some
    #: callers pool engines under keys that never recur (a campaign's
    #: shutdown cells each run on their own degraded graph); without a
    #: global bound a long-lived worker would retain one dead engine per
    #: such cell forever.
    MAX_IDLE_TOTAL = 32

    def __init__(self) -> None:
        # key -> idle engines; ordered dict with most-recently-used keys
        # last, so global eviction drops the coldest signature first
        self._idle: "OrderedDict[tuple, list[Engine]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def checkout(
        self,
        engine_cls: type[Engine],
        graph: PortGraph,
        processor_cls: type[Processor],
        *,
        root: int = 0,
        timeline=None,
    ) -> Engine:
        """An engine ready to run: reused and reset, or freshly built.

        ``timeline`` (a compiled program or a plain wire-op sequence)
        selects the dynamic construction/reset signature — dynamic engine
        classes take it positionally and accept it in ``reset``.
        ``processor_cls`` must be no-arg constructible (every processor in
        the stack is); the pool builds one instance per node.
        """
        key = (engine_cls, processor_cls, root, graph)
        stack = self._idle.get(key)
        if stack:
            self.hits += 1
            self._idle.move_to_end(key)
            engine = stack.pop()
            if not stack:
                del self._idle[key]
            if timeline is None:
                engine.reset()
            else:
                engine.reset(timeline)
            return engine
        self.misses += 1
        processors = [processor_cls() for _ in range(graph.num_nodes)]
        if timeline is None:
            engine = engine_cls(graph, processors, root=root)
        else:
            engine = engine_cls(graph, processors, timeline, root=root)
        engine._pool_key = key
        return engine

    def checkin(self, engine: Engine) -> None:
        """Return a finished engine for later reuse (idempotent-safe)."""
        key = getattr(engine, "_pool_key", None)
        if key is None:
            return
        stack = self._idle.setdefault(key, [])
        self._idle.move_to_end(key)
        if engine not in stack and len(stack) < self.MAX_IDLE_PER_KEY:
            stack.append(engine)
            total = sum(len(s) for s in self._idle.values())
            while total > self.MAX_IDLE_TOTAL:
                coldest_key, coldest = next(iter(self._idle.items()))
                coldest.pop(0)
                total -= 1
                if not coldest:
                    del self._idle[coldest_key]

    def clear(self) -> None:
        """Drop every idle engine (tests, cold-cache baselines)."""
        self._idle.clear()
        self.hits = 0
        self.misses = 0


def backend_of(engine: Engine) -> str:
    """The backend name an engine instance implements.

    An exact match against the registry wins (so a registered engine
    class — including bench/test variants added to
    :data:`ENGINE_BACKENDS` — reports its own name); otherwise subclasses
    (the dynamic engines) classify by their data plane: anything built on
    :class:`FlatEngine` is ``"flat"``, every other :class:`Engine` is
    ``"object"``.
    """
    for name, cls in ENGINE_BACKENDS.items():
        if type(engine) is cls:
            return name
    return "flat" if isinstance(engine, FlatEngine) else "object"


@dataclass(frozen=True)
class RunConfig:
    """How to drive one engine run.

    Attributes:
        max_ticks: the liveness watchdog — :class:`TickBudgetExceeded` is
            raised if the condition has not held by then.
        until: termination predicate, evaluated at event boundaries.
            ``None`` means "run until the network goes idle".
        start: whether :func:`execute_run` delivers the outside source's
            nudge (``engine.start()``); front-ends that trigger processors
            by hand (the scripted drivers) pass ``False`` and start first.
        drain: whether to keep simulating after termination until no
            character remains anywhere (the protocol's straggling cleanup).
        drain_slack: extra ticks granted to the drain on top of
            ``max_ticks``.
        before_drain: optional hook called with the engine once the run
            condition holds, before any drain (a healthy run's terminal
            checkpoint is taken there).
        after_tick: optional per-event-tick hook (called with the engine
            after each step).  Setting it forces the orchestrator onto the
            exact single-step path — the cleanup-invariant runner uses it
            to sweep the network after every completed RCA/BCA.
        backend: which engine backend the run executes on (``"object"``
            or ``"flat"``).  Front-ends resolve it through
            :func:`make_engine` before calling :func:`execute_run`, which
            then *checks* the engine it was handed actually is of the
            declared backend — a config that says ``flat`` cannot silently
            run on an object engine.
    """

    max_ticks: int
    until: Callable[[], bool] | None = None
    start: bool = True
    drain: bool = True
    drain_slack: int = 1000
    before_drain: Callable[[Engine], None] | None = field(default=None, compare=False)
    after_tick: Callable[[Engine], None] | None = field(default=None, compare=False)
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        check_backend(self.backend)


@dataclass
class RunResult:
    """What one orchestrated engine run produced.

    Attributes:
        engine: the engine, in its post-run state.
        ticks: the tick at which the run condition first held — the
            paper's time-complexity measure.
        drained_ticks: the tick at which the network was completely idle
            (equal to ``ticks`` when the config did not drain).
    """

    engine: Engine
    ticks: int
    drained_ticks: int

    @property
    def transcript(self) -> Transcript:
        """The root's transcript, as recorded by the engine."""
        return self.engine.transcript

    @property
    def metrics(self) -> TrafficMetrics:
        """Character-traffic counters, as accumulated by the engine."""
        return self.engine.metrics


def execute_run(engine: Engine, config: RunConfig) -> RunResult:
    """Drive ``engine`` per ``config`` and package the outcome.

    Raises :class:`TickBudgetExceeded` if the watchdog fires, after which
    the engine is left at the tick it reached (callers that classify
    deadlocks read ``engine.tick`` from the exception site).
    """
    actual = backend_of(engine)
    if actual != config.backend:
        raise ReproError(
            f"run config declares backend {config.backend!r} but the engine "
            f"is {type(engine).__name__} ({actual!r}); build it through "
            f"make_engine(config.backend, ...)"
        )
    if config.start:
        engine.start()
    if config.after_tick is not None:
        ticks = _run_with_hook(engine, config)
    else:
        ticks = engine.run(
            max_ticks=config.max_ticks, until=config.until, start=False
        )
    if config.before_drain is not None:
        config.before_drain(engine)
    drained = ticks
    if config.drain:
        drained = engine.run_to_idle(max_ticks=config.max_ticks + config.drain_slack)
    return RunResult(engine=engine, ticks=ticks, drained_ticks=drained)


def _run_with_hook(engine: Engine, config: RunConfig) -> int:
    """Single-step run path for configs with an ``after_tick`` hook."""
    until = config.until
    while True:
        if until is not None and until():
            return engine.tick
        if until is None and engine.is_idle() and engine.tick > 0:
            return engine.tick
        if engine.tick >= config.max_ticks:
            raise TickBudgetExceeded(config.max_ticks)
        engine.step_tick()
        config.after_tick(engine)
