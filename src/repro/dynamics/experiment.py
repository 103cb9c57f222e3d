"""Classify what a topology change does to a running GTD protocol.

Outcomes:

* ``ACCURATE`` — the protocol terminated and its map matches the *final*
  topology (possible when the mutation lands on a part of the network the
  DFS had already fully finished, when a heal restored the wiring in time,
  or the mutation list is empty);
* ``STALE`` — the protocol terminated but its map differs from the final
  topology (it describes a network that no longer exists);
* ``DEADLOCK`` — the protocol never terminated (e.g. the DFS probe or an
  RCA flood crossed the cut and its answer was lost), detected by the tick
  watchdog;
* ``PROTOCOL_ERROR`` — a processor observed something the static protocol
  proves impossible (a truncated snake, a loop token off its loop) and the
  strict automaton refused to continue.

This is the paper's introductory caveat, made measurable.  A run driven by
a :class:`~repro.dynamics.timeline.TimelineProgram` additionally reports the
**phase** the run ended in (which segment of the perturbation program the
termination or deadlock fell into) — the per-phase outcome tables in
:mod:`repro.analysis.run_stats` aggregate those across a campaign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import (
    ProtocolViolation,
    ReconstructionError,
    TickBudgetExceeded,
    TranscriptError,
)
from repro.protocol.gtd import GTDProcessor
from repro.protocol.root_computer import MasterComputer, ReconstructedMap
from repro.protocol.runner import default_tick_budget, determine_topology
from repro.sim.metrics import TrafficMetrics
from repro.sim.run import (
    DEFAULT_BACKEND,
    EnginePool,
    RunConfig,
    check_backend,
    execute_run,
)
from repro.sim.ladder import PrefixLadder
from repro.sim.transcript import Transcript
from repro.topology.isomorphism import port_isomorphic
from repro.topology.portgraph import PortGraph
from repro.topology.properties import diameter
from repro.dynamics.engine import DynamicEngine, FlatDynamicEngine, WireMutation
from repro.dynamics.timeline import (
    PerturbationTimeline,
    TimelineProgram,
    parse_timeline,
)

__all__ = [
    "DYNAMIC_ENGINE_BACKENDS",
    "DynamicOutcome",
    "DynamicRunResult",
    "compile_timeline",
    "run_dynamic_gtd",
]

#: backend name -> dynamic engine class (mirrors
#: :data:`repro.sim.run.ENGINE_BACKENDS` for the mutating-wiring case).
DYNAMIC_ENGINE_BACKENDS = {
    "object": DynamicEngine,
    "flat": FlatDynamicEngine,
}


class DynamicOutcome(enum.Enum):
    """What the topology change did to the run."""

    ACCURATE = "accurate"
    STALE = "stale"
    DEADLOCK = "deadlock"
    PROTOCOL_ERROR = "protocol-error"


@dataclass
class DynamicRunResult:
    """Outcome of one dynamic-network GTD run."""

    outcome: DynamicOutcome
    ticks: int
    recovered: ReconstructedMap | None
    final_topology: PortGraph
    lost_characters: int
    #: delivered character-hops (the simulator's work measure)
    hops: int = 0
    #: timeline phase the run ended in ("" for plain mutation lists)
    phase: str = ""
    #: how many wire ops had fired by the end of the run
    applied_ops: int = 0
    #: the root's I/O stream, for differential backend comparison
    transcript: Transcript = field(default_factory=Transcript)
    #: the engine's traffic counters at end of run
    metrics: TrafficMetrics = field(default_factory=TrafficMetrics)


def compile_timeline(
    timeline: PerturbationTimeline | str,
    graph: PortGraph,
    *,
    seed: int = 0,
    root: int = 0,
    horizon: int | None = None,
    backend: str = DEFAULT_BACKEND,
) -> TimelineProgram:
    """Lower a timeline (or its spec string) onto ``graph``.

    ``horizon`` defaults to the measured undisturbed protocol runtime — one
    clean baseline run — so event times written as fractions scale with the
    network.  Deterministic in ``(timeline, graph, seed, root, horizon)``.
    """
    if isinstance(timeline, str):
        timeline = parse_timeline(timeline)
    if horizon is None:
        horizon = determine_topology(graph, root=root, backend=backend).ticks
    return timeline.compile(graph, horizon=horizon, seed=seed, root=root)


def run_dynamic_gtd(
    graph: PortGraph,
    timeline: TimelineProgram | Sequence[WireMutation] = (),
    *,
    root: int = 0,
    max_ticks: int | None = None,
    backend: str = DEFAULT_BACKEND,
    pool: EnginePool | None = None,
    checkpoints: PrefixLadder | None = None,
) -> DynamicRunResult:
    """Run GTD on ``graph`` while applying ``timeline``; classify the result.

    ``timeline`` is a compiled :class:`TimelineProgram` (phases reported)
    or a plain list of :class:`WireMutation` (legacy single-op interface).
    With ``pool``, the dynamic engine is checked out of (and returned to)
    an :class:`~repro.sim.run.EnginePool`: a reused engine is reset to
    power-on wiring and loaded with this call's timeline, so consecutive
    perturbation runs on one network skip the whole table rebuild.

    With ``checkpoints`` (a :class:`~repro.sim.ladder.PrefixLadder` of
    healthy runs on this ``graph``, backend and ``root``), the run starts
    from the latest rung at or before its first op instead of tick 0, and
    leaves a rung when its first op comes due.  The result is identical
    either way.
    """
    budget = max_ticks if max_ticks is not None else default_tick_budget(
        graph, diameter(graph)
    )
    engine_cls = DYNAMIC_ENGINE_BACKENDS[check_backend(backend)]
    if pool is not None:
        engine = pool.checkout(
            engine_cls, graph, GTDProcessor, root=root, timeline=timeline
        )
        processors = engine.processors
    else:
        processors = [GTDProcessor() for _ in graph.nodes()]
        engine = engine_cls(graph, list(processors), timeline, root=root)
    program = timeline if isinstance(timeline, TimelineProgram) else None
    root_proc = processors[root]

    def result(outcome: DynamicOutcome, ticks: int, recovered, final) -> DynamicRunResult:
        return DynamicRunResult(
            outcome=outcome,
            ticks=ticks,
            recovered=recovered,
            final_topology=final,
            lost_characters=engine.lost_characters,
            hops=engine.metrics.total_delivered,
            phase=program.phase_at(ticks) if program is not None else "",
            applied_ops=len(engine.applied_mutations),
            transcript=engine.transcript,
            metrics=engine.metrics,
        )

    try:
        restored = checkpoints is not None and engine.climb(checkpoints, budget)
        run = execute_run(
            engine,
            RunConfig(
                max_ticks=budget,
                until=lambda: root_proc.terminal,
                start=not restored,
                drain=False,
                backend=backend,
            ),
        )
        ticks = run.ticks
        final = engine.effective_topology()
        try:
            recovered = MasterComputer(strict=False).reconstruct(run.transcript)
            recovered_graph = recovered.to_portgraph(delta=graph.delta)
            accurate = port_isomorphic(
                final, root, recovered_graph, ReconstructedMap.ROOT
            )
        except (ReconstructionError, TranscriptError):
            # The transcript itself was corrupted by the change: clearly stale.
            return result(DynamicOutcome.STALE, ticks, None, final)
        outcome = DynamicOutcome.ACCURATE if accurate else DynamicOutcome.STALE
        return result(outcome, ticks, recovered, final)
    except (TickBudgetExceeded, ProtocolViolation) as exc:
        outcome = (
            DynamicOutcome.DEADLOCK
            if isinstance(exc, TickBudgetExceeded)
            else DynamicOutcome.PROTOCOL_ERROR
        )
        return result(outcome, engine.tick, None, engine.effective_topology())
    finally:
        engine.prefix_ladder = None  # an idle pooled engine must not pin it
        if pool is not None:
            pool.checkin(engine)

