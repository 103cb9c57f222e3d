"""Engines whose wiring can change while the clock is running.

Mutation semantics (chosen to model physical link changes):

* **cut**: from the scheduled tick on, characters emitted through the wire
  are lost (the cable is unplugged).  Characters already in flight (at most
  one tick) still arrive.  Processors are *not* told — their port-awareness
  was established at power-on, which is precisely why mid-protocol changes
  are dangerous.
* **heal**: a previously-cut wire is plugged back in.  Characters emitted
  through the port flow again from the next tick; characters that were
  resting in the sender when the wire was down leave normally if they come
  due after the heal (the cable was back by the time they departed).
* **add**: a new wire appears between previously unconnected ports.
  Characters can flow over it, but processors attached earlier never probe
  the new out-port (their ``NodeContext`` predates it), so a mapping
  protocol will silently miss it.

The static engines reject emissions through unconnected ports as a
simulation bug; the dynamic engines turn exactly the mutated cases into
modeled behaviour and keep the strictness everywhere else.

The shared machinery lives in :class:`DynamicWiringMixin`: it owns the
**timeline cursor** — an ordered program of :class:`WireMutation` ops
(usually compiled from a :class:`~repro.dynamics.timeline.PerturbationTimeline`)
replay-validated against the base graph and applied as the clock passes
each op's tick — plus the current-wiring bookkeeping behind
:meth:`~DynamicWiringMixin.effective_topology`.  How an applied op reaches
the data plane is backend-specific:

* :class:`DynamicEngine` (object backend) overlays the emission path:
  ``_put_on_wire`` consults the cut/added maps per character.
* :class:`FlatDynamicEngine` (compiled flat-core backend) **patches the
  compiled CSR tables in place** through a
  :class:`~repro.topology.compile.TopologyPatcher`: a cut stamps the
  :data:`~repro.topology.compile.CUT` sentinel into the wire slot, a heal
  restores it, an add rewires it — so the packed-wheel fast path (the
  code sinks, at send time or at the drain) keeps running between
  mutations instead of falling back to a per-character overlay.  Only the handful of nodes
  whose *own* out-wiring is currently degraded have their direct sinks
  parked (their characters must rest in the outbox so a cut is judged at
  departure time, exactly as the object backend does); everyone else stays
  on the full compiled fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError, TopologyError
from repro.sim.characters import Char
from repro.sim.engine import Engine
from repro.sim.flatcore import PORT_SHIFT, FlatEngine
from repro.sim.ladder import PrefixLadder
from repro.sim.processor import Processor
from repro.topology.compile import CUT, TopologyPatcher
from repro.topology.portgraph import PortGraph, Wire

__all__ = [
    "MUTATION_KINDS",
    "WireMutation",
    "validate_wire_ops",
    "DynamicWiringMixin",
    "DynamicEngine",
    "FlatDynamicEngine",
]

#: The wire-operation vocabulary a timeline program lowers to.
MUTATION_KINDS = ("cut", "add", "heal")


@dataclass(frozen=True)
class WireMutation:
    """One scheduled wiring change.

    ``kind`` is ``"cut"`` (the wire must be present when the op fires),
    ``"heal"`` (re-attach a wire whose ports are free again — normally one
    cut earlier), or ``"add"`` (attach a wire between ports that have been
    free since power-on).  Heal and add share legality rules; they are kept
    distinct because they model different physical events and the flat
    backend restores vs. rewires the compiled slot accordingly.
    """

    tick: int
    kind: str
    wire: Wire

    def __post_init__(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise ValueError(f"unknown mutation kind {self.kind!r}")
        if self.tick < 0:
            raise ValueError("mutation tick must be >= 0")


def validate_wire_ops(
    graph: PortGraph, ops: Sequence[WireMutation]
) -> tuple[WireMutation, ...]:
    """Replay-validate a wire-op program against ``graph``; return it sorted.

    A cut must hit a wire that is present *at that point of the program*
    (base wiring minus earlier cuts plus earlier heals/adds); a heal or add
    must land on ports that are free at that point.  The stable sort keeps
    the declared order of same-tick ops — application order is part of the
    program's meaning.
    """
    ordered = sorted(ops, key=lambda m: m.tick)
    out_state = {(w.src, w.out_port): w for w in graph.wires()}
    in_state = {(w.dst, w.in_port): w for w in graph.wires()}
    for m in ordered:
        w = m.wire
        out_key = (w.src, w.out_port)
        in_key = (w.dst, w.in_port)
        if m.kind == "cut":
            if out_state.get(out_key) != w:
                raise TopologyError(f"cannot cut non-existent wire {w}")
            del out_state[out_key]
            del in_state[in_key]
        else:
            if out_key in out_state:
                raise TopologyError(
                    f"out-port {w.out_port} of {w.src} already wired"
                )
            if in_key in in_state:
                raise TopologyError(
                    f"in-port {w.in_port} of {w.dst} already wired"
                )
            out_state[out_key] = w
            in_state[in_key] = w
    return tuple(ordered)


class DynamicWiringMixin:
    """Timeline-cursor wiring changes over any engine backend.

    Compose it *before* a concrete engine class in the MRO (see
    :class:`DynamicEngine` / :class:`FlatDynamicEngine`).

    Args:
        graph: the base (power-on) wiring.
        processors: as for :class:`Engine`.
        timeline: the wire-op program — a sequence of
            :class:`WireMutation` or anything exposing a ``.ops`` tuple of
            them (a compiled :class:`~repro.dynamics.timeline.TimelineProgram`).
        root: the transcript-recording root processor.
    """

    def __init__(
        self,
        graph: PortGraph,
        processors: list[Processor],
        timeline: Sequence[WireMutation] = (),
        *,
        root: int = 0,
    ) -> None:
        super().__init__(graph, processors, root=root)
        ops = getattr(timeline, "ops", timeline)
        self._ops = validate_wire_ops(graph, ops)
        self._cursor = 0
        # current-wiring overlay state, shared by both backends:
        # a key (node, out_port) is in exactly one of three states —
        # pristine (in neither map), cut (in _cut), rewired (in _added).
        self._cut: set[tuple[int, int]] = set()
        self._added: dict[tuple[int, int], Wire] = {}
        self.lost_characters = 0
        self.applied_mutations: list[WireMutation] = []
        #: the prefix ladder this run leaves its first-op rung on (see
        #: :meth:`climb`); ``None`` takes no rungs
        self.prefix_ladder: PrefixLadder | None = None
        self._init_dynamic_backend()
        self._apply_due_mutations()  # tick-0 ops

    # -- backend hooks ---------------------------------------------------
    def _init_dynamic_backend(self) -> None:
        """Backend-specific setup before any op applies (default: none)."""

    def _on_wire_op(self, op: WireMutation) -> None:
        """Backend-specific reaction to one applied op (default: none)."""

    def _reset_wiring(self) -> None:
        """Backend hook: put the data plane's wiring back to power-on."""

    # ------------------------------------------------------------------
    def reset(self, timeline: Sequence[WireMutation] = ()) -> None:
        """Restore power-on state and load a new wire-op program.

        Engine reuse for dynamic runs: the base engine reset
        (:meth:`repro.sim.engine.Engine.reset` via whichever concrete
        engine this mixin composes with) restores clocks, queues and
        processors; this override additionally restores the wiring to the
        base graph (backend hook), swaps in the next run's timeline —
        replay-validated exactly as at construction — and applies its
        tick-0 ops.  A reset run is byte-identical to a fresh engine
        constructed with the same timeline (the reuse parity suite
        enforces it).
        """
        super().reset()
        self._reset_wiring()
        ops = getattr(timeline, "ops", timeline)
        self._ops = validate_wire_ops(self.graph, ops)
        self._cursor = 0
        self._cut.clear()
        self._added.clear()
        self.lost_characters = 0
        self.applied_mutations = []
        self.prefix_ladder = None
        self._apply_due_mutations()

    def climb(self, ladder: PrefixLadder, budget: int) -> bool:
        """Start this run from ``ladder`` and leave a rung on it.

        Call on a power-on engine (just constructed or reset).  Restores
        the latest rung at or before the first op (any rung for a program
        without ops) within the tick ``budget``, applies the ops due at
        exactly that tick, and attaches the ladder, so the run leaves a
        new rung when its first op comes due.  A program with a tick-0
        op left the healthy run before any rung.  Returns whether a rung
        was restored; the run then continues without :meth:`start`.
        """
        first_op = self._ops[0].tick if self._ops else None
        rung = ladder.resume(self, first_op, budget)
        if rung is not None:
            self._apply_due_mutations()
        self.prefix_ladder = ladder
        return rung is not None

    def restore(self, checkpoint, events) -> None:
        if self._cursor:
            raise SimulationError("cannot restore a checkpoint after wire ops applied")
        super().restore(checkpoint, events)

    # ------------------------------------------------------------------
    def _next_event_tick(self) -> int | None:
        """Bound the engine's fast-forward by the next scheduled op.

        Wire changes are external events: the clock must not skip past the
        tick an op is due, or ``applied_mutations`` /
        :meth:`effective_topology` would lag behind simulated time.
        """
        nxt = super()._next_event_tick()
        if self._cursor < len(self._ops):
            op_tick = self._ops[self._cursor].tick
            if nxt is None or op_tick < nxt:
                return op_tick
        return nxt

    def _apply_due_mutations(self) -> None:
        """Apply every op due by now (after the tick's deliveries and drains).

        The object backend calls it after each step; the flat stepping
        body calls it inline whenever its cursor's op comes due.
        """
        ops = self._ops
        if self._cursor >= len(ops) or ops[self._cursor].tick > self.tick:
            return
        if not self._cursor and self.prefix_ladder is not None and self.tick > 0:
            # the run leaves the healthy prefix now: the state after this
            # tick's deliveries, before its first op, is a rung
            self.prefix_ladder.capture(self)
        while self._cursor < len(ops) and ops[self._cursor].tick <= self.tick:
            op = ops[self._cursor]
            self._cursor += 1
            key = (op.wire.src, op.wire.out_port)
            if op.kind == "cut":
                self._added.pop(key, None)
                self._cut.add(key)
            else:  # heal / add
                self._cut.discard(key)
                if self.graph.out_wire(op.wire.src, op.wire.out_port) != op.wire:
                    self._added[key] = op.wire
                # else: healed back to the base wire — pristine again
            self._on_wire_op(op)
            self.applied_mutations.append(op)

    # ------------------------------------------------------------------
    def effective_topology(self) -> PortGraph:
        """The wiring as it stands *now* (base minus cuts plus rewires).

        Raises :class:`SimulationError` if the current wiring is not a
        legal network (a processor lost its last in- or out-port) — the
        comparison experiments need a legal graph to compare against.
        Timeline programs compiled through the legality-checked samplers
        never reach that state.
        """
        current = PortGraph(self.graph.num_nodes, self.graph.delta)
        for wire in self.graph.wires():
            key = (wire.src, wire.out_port)
            if key not in self._cut and key not in self._added:
                current.add_wire(wire.src, wire.out_port, wire.dst, wire.in_port)
        for wire in self._added.values():
            current.add_wire(wire.src, wire.out_port, wire.dst, wire.in_port)
        try:
            return current.freeze()
        except TopologyError as exc:
            raise SimulationError(f"mutated network is not legal: {exc}") from exc


class DynamicEngine(DynamicWiringMixin, Engine):
    """The object backend with scheduled wire mutations (emission overlay)."""

    def step_tick(self) -> None:
        super().step_tick()
        self._apply_due_mutations()

    def _put_on_wire(self, node: int, out_port: int, char: Char) -> None:
        key = (node, out_port)
        if key in self._cut:
            # The cable is unplugged: the character vanishes.
            self.lost_characters += 1
            return
        added = self._added.get(key)
        if added is not None:
            self._emit(added, node, out_port, char)
            return
        super()._put_on_wire(node, out_port, char)


class FlatDynamicEngine(DynamicWiringMixin, FlatEngine):
    """The compiled flat-core backend with in-place CSR patching.

    Stays on the packed event wheel throughout: ops patch the compiled
    wire tables (cut sentinel / slot rewiring) instead of interposing on
    every emission, so between mutations the data plane is byte-for-byte
    the static flat engine's.  Send-time direct sinks are parked only for
    nodes whose own out-wiring is currently degraded — their characters
    must rest in the outbox so that a cut/heal racing the residence window
    is judged at departure time, exactly like the object backend.
    """

    #: patch the compiled tables in place — construction must fork the
    #: shared cached artifact (see FlatEngine.MUTATES_TOPOLOGY)
    MUTATES_TOPOLOGY = True

    def _init_dynamic_backend(self) -> None:
        self._patcher = TopologyPatcher(self._topo)
        #: node -> set of currently degraded out-ports (cut or rewired)
        self._degraded_ports: dict[int, set[int]] = {}

    def _reset_wiring(self) -> None:
        """Restore the compiled tables and fast paths to power-on state.

        O(touched): only slots the previous run's ops degraded are
        restored.  The ``_in_shift`` companion table is re-derived for
        exactly those slots, and the parked-sink bookkeeping is cleared —
        the base engine reset already re-installed every sink, which is
        the correct power-on state (no node starts degraded).
        """
        patcher = self._patcher
        wire_in_port = self._topo.wire_in_port
        in_shift = self._in_shift
        for slot in list(patcher.touched):
            patcher.restore(slot)
            port = wire_in_port[slot]
            in_shift[slot] = (port << PORT_SHIFT) if port >= 0 else -1
        self._degraded_ports.clear()

    # ------------------------------------------------------------------
    def _on_wire_op(self, op: WireMutation) -> None:
        wire = op.wire
        patcher = self._patcher
        slot = patcher.slot(wire.src, wire.out_port)
        if op.kind == "cut":
            self._rehome_wire_entries(wire)
            patcher.cut(slot)
            self._in_shift[slot] = -1
        else:  # heal / add
            patcher.attach(slot, wire.dst, wire.in_port)
            self._in_shift[slot] = wire.in_port << PORT_SHIFT
        degraded = self._degraded_ports.setdefault(wire.src, set())
        if patcher.is_pristine(slot):
            degraded.discard(wire.out_port)
        else:
            degraded.add(wire.out_port)
        self._toggle_sinks(wire.src, parked=bool(degraded))

    def _toggle_sinks(self, node: int, *, parked: bool) -> None:
        paths = self._fast_paths.get(node)
        if paths is None:
            return  # root, or a processor that never had the fast path
        proc = self.processors[node]
        # the object sinks and the code handlers all schedule at send time
        # through wire lists resolved at build time — wrong for a degraded
        # node — so they park and restore in lock-step; the purge hook stays
        # installed for the entries filed before the degradation
        if parked:
            proc._direct_sink = proc._direct_broadcast = None
            self._chandlers[node] = None
        else:
            proc._direct_sink, proc._direct_broadcast, _ = paths
            self._chandlers[node] = self._chandlers_all[node]

    def _rehome_wire_entries(self, wire: Wire) -> None:
        """Move pre-scheduled, still-resting characters off a cut wire.

        The direct sink files a character into its arrival bucket at send
        time; under outbox semantics it would still be *resting in the
        sender* until its departure tick.  A cut at tick ``t`` must lose
        exactly the characters departing from ``t + 1`` on — so every wheel
        entry through the wire with arrival ``>= t + 2`` is pulled back
        into the sender's outbox (emission counters rolled back: the object
        backend never counts them as emitted).  From there the normal drain
        decides their fate at departure time: lost if the wire is still
        cut, delivered if a heal raced the residence window.  Entries with
        arrival ``t + 1`` already departed and still arrive, as the model
        requires.  No entry on the wire lies past the sender's send horizon.
        """
        wires = ((wire.dst, wire.in_port << PORT_SHIFT),)
        rehomed = self._wheel.withdraw(self.tick + 1, self._horizon[wire.src], wires)
        if rehomed:
            chars = self._chars
            emitted = self._emitted_by_code
            proc = self.processors[wire.src]
            # ascending arrival == ascending departure; ties keep lane
            # (i.e. send) order, so outbox seq order matches the object
            # backend's send-time seq assignment
            for arrival, code in rehomed:
                emitted[code] -= 1
                proc._queue(wire.out_port, chars[code], arrival - 1)
            self._active.update(wire.src, proc.next_due_tick())

    # ------------------------------------------------------------------
    def _blocked_emission(self, node: int, out_port: int, char: Char, dst: int) -> bool:
        if dst == CUT:
            # unplugged cable, judged at departure time: the character is
            # lost — never emitted, never delivered, exactly the object
            # backend's accounting
            self.lost_characters += 1
            return True
        return super()._blocked_emission(node, out_port, char, dst)

