"""Layer 2 front-end: run Global Topology Determination end to end.

This module sits on the layered simulation stack: the scheduler core
(:mod:`repro.sim.scheduler`) drives deterministic delivery, the shared run
orchestration (:mod:`repro.sim.run`) owns the budget/drain plumbing via the
:class:`~repro.sim.run.RunConfig`/:class:`~repro.sim.run.RunResult` pair,
and this front-end contributes only what is protocol-specific:
:func:`determine_topology` wires :class:`~repro.protocol.gtd.GTDProcessor`
instances onto a network, runs until the root announces termination, feeds
the root transcript to the
:class:`~repro.protocol.root_computer.MasterComputer`, and packages the
result.  Optional flags add the Lemma 4.2 cleanup verification after every
RCA/BCA (an ``after_tick`` hook in the run config) and the finite-state
audit at termination.  Scenario matrices over this entry point live one
layer up, in :mod:`repro.campaigns`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NotStronglyConnectedError
from repro.sim.audit import assert_finite_state
from repro.sim.engine import Engine
from repro.sim.metrics import TrafficMetrics
from repro.sim.run import (
    DEFAULT_BACKEND,
    ENGINE_BACKENDS,
    EnginePool,
    RunConfig,
    check_backend,
    execute_run,
    make_engine,
)
from repro.sim.ladder import PrefixLadder
from repro.sim.transcript import Transcript
from repro.topology.isomorphism import port_isomorphic
from repro.topology.portgraph import PortGraph
from repro.topology.properties import diameter, is_strongly_connected
from repro.protocol.gtd import GTDProcessor
from repro.protocol.invariants import assert_network_clean
from repro.protocol.root_computer import MasterComputer, ReconstructedMap
from repro.sim.characters import SCOPE_BCA, SCOPE_RCA

__all__ = ["TopologyResult", "determine_topology", "default_tick_budget"]


@dataclass
class TopologyResult:
    """Everything a Global Topology Determination run produced.

    Attributes:
        recovered: the master computer's map (name 0 = root).
        graph: the recovered map as a :class:`PortGraph`.
        ticks: global clock ticks from initiation to root termination —
            the paper's time-complexity measure.
        drained_ticks: ticks until the network was completely idle (the
            straggling cleanup after termination).
        transcript: the raw root transcript.
        metrics: character-traffic counters.
        rca_runs: total RCAs executed (one per FORWARD + one per BACK).
        bca_runs: total BCAs executed.
        diameter: the true network diameter (computed outside the protocol,
            for reporting only).
    """

    recovered: ReconstructedMap
    graph: PortGraph
    ticks: int
    drained_ticks: int
    transcript: Transcript
    metrics: TrafficMetrics
    rca_runs: int
    bca_runs: int
    diameter: int

    def matches(self, truth: PortGraph, *, root: int = 0) -> bool:
        """Whether the recovered map is port-isomorphic to ``truth``."""
        return port_isomorphic(truth, root, self.graph, ReconstructedMap.ROOT)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize the recovered map plus run statistics to JSON.

        The ``map`` field uses the standard portgraph format (loadable with
        :func:`repro.topology.serialize.from_json`); node 0 is the root.
        """
        import json

        from repro.topology.serialize import to_json as graph_to_json

        doc = {
            "format": "repro.topology-result/v1",
            "map": json.loads(graph_to_json(self.graph)),
            "root": ReconstructedMap.ROOT,
            "stats": {
                "ticks": self.ticks,
                "drained_ticks": self.drained_ticks,
                "diameter": self.diameter,
                "rca_runs": self.rca_runs,
                "bca_runs": self.bca_runs,
                "character_hops": self.metrics.total_delivered,
            },
        }
        return json.dumps(doc, indent=indent)


def default_tick_budget(graph: PortGraph, diam: int) -> int:
    """A generous liveness watchdog: O(E * D) with large constants.

    Lemma 4.4 bounds the protocol by O(N * D); each of the ~2E RCAs plus ~E
    BCAs costs O(D) with small constants (snakes are speed-1, so ~3 ticks
    per hop, and each RCA makes ~5 loop traversals).
    """
    edges = graph.num_wires
    return 400 * (edges + 1) * (diam + 2) + 4000


def determine_topology(
    graph: PortGraph,
    *,
    root: int = 0,
    max_ticks: int | None = None,
    verify_cleanup: bool = False,
    audit_finite_state: bool = False,
    strict_reconstruction: bool = True,
    backend: str = DEFAULT_BACKEND,
    pool: EnginePool | None = None,
    checkpoints: PrefixLadder | None = None,
) -> TopologyResult:
    """Map ``graph`` with the paper's protocol and reconstruct it at the root.

    Args:
        graph: a frozen, strongly-connected port graph.
        root: the processor the outside source nudges out of quiescence.
        max_ticks: liveness watchdog (default: :func:`default_tick_budget`).
        verify_cleanup: after every completed RCA/BCA, sweep the whole
            network and raise :class:`~repro.errors.CleanupViolation` if the
            protocol left any trace (Lemma 4.2 as a runtime assertion).
        audit_finite_state: at termination, assert every processor's state
            is within the delta-only budget (deviation D5).
        strict_reconstruction: make the master computer cross-check stack
            pops against signatures (catches protocol bugs; no effect on
            legal runs).
        backend: engine backend to simulate on (``"object"`` or ``"flat"``);
            both produce identical results, tick for tick.
        pool: check the engine out of this :class:`~repro.sim.run.EnginePool`
            (and back in afterwards) instead of constructing a fresh one —
            the zero-rebuild path campaign workers and benchmark loops use.
            Results are identical either way.
        checkpoints: leave a rung of the terminal state — before the
            cleanup drain — on this :class:`~repro.sim.ladder.PrefixLadder`,
            where an undisturbed dynamic run on the same network can
            restore it instead of simulating (see
            :func:`repro.dynamics.experiment.run_dynamic_gtd`).

    Raises:
        NotStronglyConnectedError: the protocol requires strong connectivity
            (the DFS token must be able to reach and return from everywhere).
        TickBudgetExceeded: the watchdog fired (protocol deadlock).
    """
    if not is_strongly_connected(graph):
        raise NotStronglyConnectedError(
            "Global Topology Determination requires a strongly-connected network"
        )
    diam = diameter(graph)
    budget = max_ticks if max_ticks is not None else default_tick_budget(graph, diam)

    if pool is not None:
        engine = pool.checkout(
            ENGINE_BACKENDS[check_backend(backend)], graph, GTDProcessor, root=root
        )
        processors = engine.processors
    else:
        processors = [GTDProcessor() for _ in graph.nodes()]
        engine = make_engine(backend, graph, list(processors), root=root)
    root_proc = processors[root]

    try:
        run = execute_run(
            engine,
            RunConfig(
                max_ticks=budget,
                until=lambda: root_proc.terminal,
                after_tick=_cleanup_sweeper(processors) if verify_cleanup else None,
                before_drain=checkpoints.capture if checkpoints is not None else None,
                backend=backend,
            ),
        )
        if verify_cleanup:
            assert_network_clean(engine, context="after termination")
        if audit_finite_state:
            for proc in processors:
                assert_finite_state(proc, graph.delta)

        computer = MasterComputer(strict=strict_reconstruction)
        recovered = computer.reconstruct(run.transcript)
        return TopologyResult(
            recovered=recovered,
            graph=recovered.to_portgraph(delta=graph.delta),
            ticks=run.ticks,
            drained_ticks=run.drained_ticks,
            transcript=run.transcript,
            metrics=run.metrics,
            rca_runs=sum(p.rca_completed for p in processors),
            bca_runs=sum(p.bca_completed for p in processors),
            diameter=diam,
        )
    finally:
        if pool is not None:
            pool.checkin(engine)


def _cleanup_sweeper(processors: list[GTDProcessor]):
    """An ``after_tick`` hook sweeping for residue after each RCA/BCA.

    Forces the run onto the exact single-step path, so every completed
    RCA/BCA is checked at the very tick it finished (Lemma 4.2 as a
    runtime assertion).
    """
    seen = {"rca": 0, "bca": 0}

    def sweep(engine: Engine) -> None:
        rca = sum(p.rca_completed for p in processors)
        bca = sum(p.bca_completed for p in processors)
        if rca != seen["rca"]:
            seen["rca"] = rca
            assert_network_clean(
                engine, scope=SCOPE_RCA, context=f"after RCA #{rca} (tick {engine.tick})"
            )
        if bca != seen["bca"]:
            seen["bca"] = bca
            assert_network_clean(
                engine, scope=SCOPE_BCA, context=f"after BCA #{bca} (tick {engine.tick})"
            )

    return sweep
