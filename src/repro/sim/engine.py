"""Layer 1 front door — the synchronous engine on top of the scheduler core.

The simulation stack is layered:

1. **Scheduler core** (:mod:`repro.sim.scheduler`): the event wheel
   (timestamp-bucketed delivery queue), active-set tracking of processors
   with resting characters, precomputed per-kind handling priorities and
   per-processor handler dispatch tables.
2. **Run orchestration** (:mod:`repro.sim.run`): the shared
   :class:`~repro.sim.run.RunConfig`/:class:`~repro.sim.run.RunResult`
   pair every front-end (``protocol.runner``, ``dynamics.experiment``, the
   scripted RCA/BCA drivers) executes runs through.
3. **Campaigns** (:mod:`repro.campaigns`): declarative scenario matrices
   fanned out over worker processes.

This module is the engine itself: the global clock, the wires, and the
deterministic delivery semantics of the paper.  Per tick the engine:

1. delivers every character scheduled to arrive now, invoking each
   receiving processor's handlers in a fixed priority order (KILL/UNMARK
   first, then dying snakes, then growing snakes, then tokens; ties by
   in-port then FIFO) — the deterministic refinement of the paper's
   "read inputs, process state change, broadcast outputs";
2. drains due outbox entries onto wires (arrival next tick);
3. records the root's I/O into the :class:`~repro.sim.transcript.Transcript`.

Only processors with arrivals or due outbox entries cost any work on a
tick, and :meth:`Engine.run` fast-forwards the clock across ticks on which
provably nothing can happen (no arrival scheduled, no outbox entry due), so
an ``O(N*D)``-tick protocol whose activity is localized simulates in time
proportional to total character-hops — not ``ticks * N``.  Timing stays
tick-exact: every delivery, drain and transcript record happens at exactly
the tick it would have without the fast-forward.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.errors import SimulationError, TickBudgetExceeded
from repro.sim.characters import Char
from repro.sim.metrics import TrafficMetrics
from repro.sim.processor import Processor
from repro.sim.scheduler import ActiveSet, EventWheel, build_dispatch_tables
from repro.sim.transcript import Transcript, TranscriptEvent
from repro.topology.portgraph import PortGraph, Wire

__all__ = ["NodeContext", "Checkpoint", "Engine"]


class NodeContext:
    """Immutable wiring knowledge handed to a processor at attach time.

    Models in-port and out-port *awareness* (paper §1.2.1): the processor
    knows which of its ports carry wires, and whether it is the root —
    nothing else about the network.
    """

    __slots__ = ("node", "is_root", "in_ports", "out_ports", "_pipe")

    def __init__(
        self,
        node: int,
        is_root: bool,
        in_ports: tuple[int, ...],
        out_ports: tuple[int, ...],
        pipe: Callable[[str, tuple], None],
    ) -> None:
        self.node = node
        self.is_root = is_root
        self.in_ports = in_ports
        self.out_ports = out_ports
        self._pipe = pipe

    def pipe(self, label: str, *data: Any) -> None:
        """Pipe a constant-size status record to the master computer.

        Only meaningful at the root (the paper's root streams its
        computational transcript to its master computer); pipes from
        non-root processors are discarded.
        """
        self._pipe(label, tuple(data))


class Checkpoint(NamedTuple):
    """A run's whole state at a tick boundary (see :meth:`Engine.checkpoint`).

    ``wheel``, ``active`` and ``traffic`` are in the taking backend's own
    representation, so a checkpoint restores only into an engine of the
    same backend over the same graph and root.  The transcript is kept as
    a length: the caller owns the events (a prefix ladder shares one
    list across every checkpoint of the same run).
    """

    tick: int
    root: int
    #: character-hops delivered up to ``tick`` (the work a restore skips)
    hops: int
    wheel: tuple
    active: tuple
    transcript: int
    traffic: tuple
    processors: tuple


class Engine:
    """Simulate ``processors`` on ``graph`` with a shared global clock.

    Args:
        graph: the (frozen) network wiring.
        processors: one :class:`Processor` per node.
        root: the processor nudged out of quiescence by the outside source.
    """

    def __init__(
        self, graph: PortGraph, processors: list[Processor], root: int = 0
    ) -> None:
        if not graph.frozen:
            raise SimulationError("engine requires a frozen PortGraph")
        if len(processors) != graph.num_nodes:
            raise SimulationError(
                f"need {graph.num_nodes} processors, got {len(processors)}"
            )
        if not 0 <= root < graph.num_nodes:
            raise SimulationError(f"root {root} out of range")
        self.graph = graph
        self.processors = processors
        self.root = root
        self.tick = 0
        self.transcript = Transcript()
        self.metrics = TrafficMetrics()
        #: optional omniscient tracer (see :mod:`repro.sim.tracer`)
        self.tracer = None
        self._wheel = EventWheel()
        self._active = ActiveSet()
        #: nodes with a non-empty outbox (shared with the active set; the
        #: invariant sweeps read it directly)
        self._live: set[int] = self._active.live
        # wiring lookup precomputed off the frozen graph: node -> {out_port: Wire}
        self._out_wires: list[dict[int, Wire]] = [{} for _ in range(graph.num_nodes)]
        for wire in graph.wires():
            self._out_wires[wire.src][wire.out_port] = wire
        for node, proc in enumerate(processors):
            proc.attach(
                NodeContext(
                    node=node,
                    is_root=(node == root),
                    in_ports=graph.connected_in_ports(node),
                    out_ports=graph.connected_out_ports(node),
                    pipe=(self._root_pipe if node == root else _discard_pipe),
                )
            )
        #: per-processor kind-dispatch tables: this engine's delivery loop
        #: indexes them every tick, and the flat core's fallback reads them
        self._dispatch = build_dispatch_tables(processors)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore power-on state without rebuilding any derived table.

        After ``reset()`` a run is observationally identical to one on a
        freshly-constructed engine over the same graph and processor types
        (the engine-reuse parity suite enforces byte-identical transcripts,
        ticks and metrics).  What survives: the wiring lookup tables, the
        per-processor dispatch tables, and the wheel's recycled free pools
        — i.e. everything that is a pure function of (graph, processor
        types).  The transcript and metrics are *rebound* to fresh objects,
        never cleared in place, so results captured from a previous run
        stay intact when the engine is reused through an
        :class:`~repro.sim.run.EnginePool`.
        """
        self.tick = 0
        self.transcript = Transcript()
        self.metrics = TrafficMetrics()
        self.tracer = None
        self._wheel.clear()
        self._active.clear()
        for proc in self.processors:
            proc.reset()

    # ------------------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Capture the run's state at the current tick boundary.

        Everything a later tick can observe is captured: the clock, the
        wheel contents, the active set (stale heap entries included), the
        traffic counters, every processor's registers and the transcript
        length.  :meth:`restore` puts it back into a power-on engine of
        the same backend over the same graph and root, and the run then
        continues exactly as the captured one did.  Tracers are not
        captured.
        """
        return Checkpoint(
            tick=self.tick,
            root=self.root,
            hops=self.metrics.total_delivered,
            wheel=self._wheel.snapshot(),
            active=self._active.snapshot(),
            transcript=len(self.transcript),
            traffic=self._traffic_snapshot(),
            processors=tuple(proc.save_state() for proc in self.processors),
        )

    def restore(
        self, checkpoint: Checkpoint, events: Sequence[TranscriptEvent]
    ) -> None:
        """Load ``checkpoint`` into this (just constructed or reset) engine.

        ``events`` is a transcript event sequence that starts with the
        captured run's transcript; its first ``checkpoint.transcript``
        events become this engine's transcript.
        """
        if checkpoint.root != self.root or len(checkpoint.processors) != len(
            self.processors
        ):
            raise SimulationError("checkpoint was taken on another network or root")
        self.tick = checkpoint.tick
        self._wheel.load(checkpoint.wheel)
        self._active.load(checkpoint.active)
        self.transcript = Transcript.from_events(events[: checkpoint.transcript])
        self._load_traffic(checkpoint.traffic)
        for proc, state in zip(self.processors, checkpoint.processors):
            proc.load_state(state)

    def _traffic_snapshot(self) -> tuple:
        metrics = self.metrics
        return tuple(metrics.delivered.items()), tuple(metrics.emitted.items())

    def _load_traffic(self, traffic: tuple) -> None:
        delivered, emitted = traffic
        metrics = self.metrics = TrafficMetrics()
        metrics.delivered.update(dict(delivered))
        metrics.emitted.update(dict(emitted))

    # ------------------------------------------------------------------
    def _root_pipe(self, label: str, data: tuple) -> None:
        self.transcript.record_pipe(self.tick, label, data)

    def start(self) -> None:
        """Deliver the outside source's nudge to the root (tick 0)."""
        root_proc = self.processors[self.root]
        root_proc.begin_tick(self.tick)
        root_proc.on_start()
        self._drain_node(self.root)

    def wake(self, node: int) -> None:
        """Register externally-triggered activity at ``node``.

        Harness hook used by the scripted single-RCA/BCA drivers: after
        calling a method on a processor directly (outside character
        delivery), the engine must know its outbox may be non-empty.
        Characters already due leave immediately, exactly as they would
        have had the trigger been a delivered character.
        """
        self._drain_node(node)

    def _drain_node(self, node: int) -> None:
        proc = self.processors[node]
        entries = proc.drain_due(self.tick)
        if entries:
            put = self._put_on_wire
            for entry in entries:
                put(node, entry.out_port, entry.char)
        self._active.update(node, proc.next_due_tick())

    def step_tick(self) -> None:
        """Advance the global clock by exactly one tick."""
        self.tick += 1
        tick = self.tick
        arrivals = self._wheel.pop(tick)

        if arrivals:
            processors = self.processors
            dispatch_tables = self._dispatch
            root = self.root
            tracer = self.tracer
            delivered = self.metrics.delivered
            for node, items in arrivals.items():
                proc = processors[node]
                proc.begin_tick(tick)
                if len(items) > 1:
                    # plain tuple sort: (priority, in_port, seq, char); seq
                    # is unique so the comparison never reaches the char
                    items.sort()
                dispatch = dispatch_tables[node]
                fallback = proc.handle
                is_root = node == root
                for _, in_port, _, char in items:
                    if is_root:
                        self.transcript.record_recv(tick, in_port, char)
                    delivered[char.kind] += 1
                    if tracer is not None:
                        tracer.record_delivery(tick, node, in_port, char)
                    handler = dispatch.get(char.kind)
                    if handler is None:
                        fallback(in_port, char)
                    else:
                        handler(in_port, char)

        # Drain outboxes with due entries, plus every node touched above
        # (its handlers may have queued immediately-due output).
        due = self._active.take_due(tick)
        if arrivals:
            due.update(arrivals)
        for node in due:
            self._drain_node(node)
        if arrivals:
            self._wheel.recycle(arrivals)

    def _put_on_wire(self, node: int, out_port: int, char: Char) -> None:
        wire = self._out_wires[node].get(out_port)
        if wire is None:
            raise SimulationError(
                f"node {node} emitted {char} through unconnected out-port {out_port}"
            )
        # inline of _emit — this is the hottest emission path
        if node == self.root:
            self.transcript.record_send(self.tick, out_port, char)
        self.metrics.emitted[char.kind] += 1
        if self.tracer is not None:
            self.tracer.record_emission(self.tick, node, out_port, char)
        self._wheel.schedule(self.tick + 1, wire.dst, wire.in_port, char)

    def _emit(self, wire: Wire, node: int, out_port: int, char: Char) -> None:
        """Account for ``char`` leaving ``node`` and schedule its arrival.

        Kept as a separate helper for engine subclasses that route
        emissions over wires outside the frozen base graph (the dynamic
        engine's added wires); the base ``_put_on_wire`` inlines this.
        """
        if node == self.root:
            self.transcript.record_send(self.tick, out_port, char)
        self.metrics.emitted[char.kind] += 1
        if self.tracer is not None:
            self.tracer.record_emission(self.tick, node, out_port, char)
        self._wheel.schedule(self.tick + 1, wire.dst, wire.in_port, char)

    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        """No characters anywhere: resting, on wires, or scheduled."""
        return not self._live and not self._wheel

    def _next_event_tick(self) -> int | None:
        """The earliest future tick at which anything can happen.

        ``None`` means the network holds no scheduled arrival and no
        resting character — nothing will ever happen again without outside
        intervention.  Subclasses with external event sources (scheduled
        wire mutations) override this to bound the fast-forward.
        """
        wheel_tick = self._wheel.next_tick()
        due_tick = self._active.next_due()
        if wheel_tick is None:
            return due_tick
        if due_tick is None:
            return wheel_tick
        return min(wheel_tick, due_tick)

    def _burst(
        self,
        max_ticks: int,
        until: Callable[[], bool] | None,
        idle_from: int | None,
    ) -> bool:
        """Step the clock until a stop condition holds or ``max_ticks``.

        The stepping loop under :meth:`run`, :meth:`run_to_idle` and (on
        the flat backend) ``step_tick``.  Before each step it stops, and
        returns True, when ``until()`` holds — or, with ``until`` None,
        when the network is idle at a tick ``>= idle_from`` (``None``
        never stops on idle).  Each step fast-forwards over provably
        empty ticks to the next event tick, never past ``max_ticks``, and
        steps that tick.  Returns False once the clock reaches
        ``max_ticks``.

        A dead network (nothing scheduled, nothing resting) advances one
        tick per step, matching the pre-scheduler engine, so idle
        detection and budget accounting observe the same ticks as before;
        under an ``until`` that has just evaluated false it jumps straight
        to ``max_ticks`` instead: processor state only changes on
        delivery, so the predicate can never flip.
        """
        while self.tick < max_ticks:
            if until is not None:
                if until():
                    return True
            elif idle_from is not None and self.tick >= idle_from and self.is_idle():
                return True
            nxt = self._next_event_tick()
            if nxt is None:
                if until is not None:
                    self.tick = max_ticks
                    return False
                self.tick += 1
                continue
            if nxt > self.tick + 1:
                self.tick = min(nxt, max_ticks) - 1
            self.step_tick()
        return False

    def run(
        self,
        *,
        max_ticks: int,
        until: Callable[[], bool] | None = None,
        start: bool = True,
    ) -> int:
        """Run until ``until()`` is true or the network goes idle.

        Returns the tick at which the condition first held.  Raises
        :class:`TickBudgetExceeded` if ``max_ticks`` elapse first — the
        liveness watchdog every test and benchmark runs under.

        ``until`` is evaluated at event boundaries (processor state can only
        change when a character is delivered, so nothing is missed).
        """
        if start:
            self.start()
        if self._burst(max_ticks, until, 1):
            return self.tick
        if until is not None and until():
            return self.tick
        raise TickBudgetExceeded(max_ticks)

    def run_to_idle(self, *, max_ticks: int) -> int:
        """Run until no character remains anywhere (cleanup drain)."""
        if self._burst(max_ticks, None, 0) or self.is_idle():
            return self.tick
        raise TickBudgetExceeded(max_ticks)

    # ------------------------------------------------------------------
    def in_flight_chars(self) -> Iterable[tuple[int, Char]]:
        """All characters on wires or resting, as ``(destination/holder, char)``.

        Used by the Lemma 4.2 cleanup invariant checks.
        """
        yield from self._wheel.in_flight()
        for node in self._live:
            for char in self.processors[node].outbox_chars():
                yield node, char


def _discard_pipe(label: str, data: tuple) -> None:
    """Pipes from non-root processors go nowhere (they have no computer)."""
