"""The scheduler core: event wheel, active set, dispatch tables, fast-forward."""

from __future__ import annotations

from typing import Any

import pytest

from repro.dynamics.engine import DynamicEngine, FlatDynamicEngine, WireMutation
from repro.errors import TickBudgetExceeded
from repro.protocol.gtd import GTDProcessor
from repro.sim.characters import (
    Char,
    DYING_FAMILIES,
    GROWING_FAMILIES,
    SNAKE_FAMILIES,
    is_dying,
    is_growing,
    make_body,
    make_head,
)
from repro.sim.engine import Engine
from repro.sim.flatcore import FlatEngine
from repro.sim.processor import Processor
from repro.sim.scheduler import (
    PRIORITY_CONTROL,
    PRIORITY_DYING,
    PRIORITY_GROWING,
    PRIORITY_TOKEN,
    ActiveSet,
    EventWheel,
    priority_of,
)
from repro.topology import generators
from repro.topology.builder import PortGraphBuilder


def _legacy_priority(char: Char) -> int:
    """The pre-scheduler engine's in-tick priority, verbatim."""
    if char.kind in ("KILL", "UNMARK"):
        return 0
    if is_dying(char):
        return 1
    if is_growing(char):
        return 2
    return 3


def _all_kinds() -> list[str]:
    kinds = ["DFS", "FWD", "BACK", "BDONE", "KILL", "UNMARK"]
    kinds += [family + role for family in SNAKE_FAMILIES for role in "HBT"]
    return kinds


class Recorder(Processor):
    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[int, int, Char]] = []

    def handle(self, in_port: int, char: Char) -> None:
        self.log.append((self.tick, in_port, char))

    def state_snapshot(self) -> dict[str, Any]:
        return {}


class TestPriorityTable:
    def test_matches_legacy_priority_over_whole_alphabet(self):
        """The precomputed per-kind table is the old per-char sort, exactly."""
        for kind in _all_kinds():
            char = Char(kind)
            assert priority_of(kind) == _legacy_priority(char), kind

    def test_priority_classes(self):
        assert priority_of("KILL") == priority_of("UNMARK") == PRIORITY_CONTROL
        for family in DYING_FAMILIES:
            assert priority_of(family + "H") == PRIORITY_DYING
        for family in GROWING_FAMILIES:
            assert priority_of(family + "T") == PRIORITY_GROWING
        for token in ("DFS", "FWD", "BACK", "BDONE"):
            assert priority_of(token) == PRIORITY_TOKEN

    def test_unknown_kind_is_token_priority(self):
        assert priority_of("WHATEVER") == PRIORITY_TOKEN


class TestEventWheel:
    def test_sort_order_is_priority_then_port_then_fifo(self):
        wheel = EventWheel()
        wheel.schedule(5, 0, 2, Char("DFS"))
        wheel.schedule(5, 0, 1, Char("IGH"))
        wheel.schedule(5, 0, 1, Char("KILL"))
        wheel.schedule(5, 0, 2, Char("IDH"))
        items = wheel.pop(5)[0]
        items.sort()
        kinds = [char.kind for _, _, _, char in items]
        assert kinds == ["KILL", "IDH", "IGH", "DFS"]

    def test_fifo_breaks_ties_within_port_and_priority(self):
        wheel = EventWheel()
        first = make_body("IG", 1)
        second = make_body("IG", 2)
        wheel.schedule(3, 7, 1, first)
        wheel.schedule(3, 7, 1, second)
        items = wheel.pop(3)[7]
        items.sort()
        assert [c for _, _, _, c in items] == [first, second]

    def test_next_tick_tracks_earliest_bucket(self):
        wheel = EventWheel()
        assert wheel.next_tick() is None
        wheel.schedule(9, 0, 1, Char("DFS"))
        wheel.schedule(4, 1, 1, Char("DFS"))
        assert wheel.next_tick() == 4
        wheel.pop(4)
        assert wheel.next_tick() == 9
        wheel.pop(9)
        assert wheel.next_tick() is None
        assert not wheel

    def test_in_flight_lists_all_scheduled(self):
        wheel = EventWheel()
        wheel.schedule(1, 0, 1, Char("DFS"))
        wheel.schedule(2, 3, 1, Char("KILL"))
        assert sorted(node for node, _ in wheel.in_flight()) == [0, 3]
        assert len(wheel) == 2


class TestActiveSet:
    def test_live_follows_updates(self):
        active = ActiveSet()
        active.update(4, 10)
        assert 4 in active.live and bool(active)
        active.update(4, None)
        assert 4 not in active.live and not bool(active)

    def test_take_due_pops_up_to_tick(self):
        active = ActiveSet()
        active.update(1, 5)
        active.update(2, 7)
        assert active.take_due(5) == {1}
        assert active.next_due() == 7

    def test_stale_entries_are_harmless(self):
        active = ActiveSet()
        active.update(1, 5)
        active.update(1, 3)  # re-push with an earlier due
        assert active.take_due(4) == {1}
        # the stale (5, 1) entry surfaces later as a no-op
        assert active.take_due(5) == {1}
        assert active.next_due() is None

    def test_repeated_update_files_one_entry(self):
        active = ActiveSet()
        for _ in range(3):
            active.update(4, 9)
        assert active._due == [(9, 4)]
        assert active.take_due(9) == {4}
        # popped: the next update files it again
        active.update(4, 9)
        assert active._due == [(9, 4)]

    def test_heap_compacts_when_stale_entries_dominate(self):
        """Long runs must not grow the due-heap unboundedly (satellite)."""
        active = ActiveSet()
        # one live node, repeatedly re-pushed with ever-later dues: the
        # lazily-invalidated heap would keep every stale entry forever
        for due in range(3 * ActiveSet.COMPACT_MIN):
            active.update(7, due)
        # without compaction the heap would hold all 3*COMPACT_MIN pushes;
        # with it, the length is bounded by the compaction floor
        assert len(active._due) <= ActiveSet.COMPACT_MIN + 1
        assert active.live == {7}
        # compaction keeps an entry at or before the true next due
        assert active.next_due() is not None
        assert active.next_due() <= 3 * ActiveSet.COMPACT_MIN - 1

    def test_compaction_never_loses_a_live_node(self):
        active = ActiveSet()
        nodes = range(10)
        for round_ in range(50):
            for node in nodes:
                active.update(node, 100 + round_)
        # every live node still has a due entry (possibly stale-early)
        popped = active.take_due(10_000)
        assert popped == set(nodes)


class TestEventWheelRecycling:
    def test_recycle_reuses_buckets_and_lists(self):
        wheel = EventWheel()
        wheel.schedule(1, 0, 1, Char("DFS"))
        wheel.schedule(1, 0, 2, Char("BACK"))
        bucket = wheel.pop(1)
        items = bucket[0]
        wheel.recycle(bucket)
        assert len(wheel) == 0
        # the same dict (and its inner list) come back into service
        wheel.schedule(2, 3, 1, Char("KILL"))
        assert wheel._buckets[2] is bucket
        assert bucket[3] is items  # recycled list, now holding the new entry
        assert len(bucket[3]) == 1

    def test_recycled_wheel_keeps_delivery_order(self):
        wheel = EventWheel()
        wheel.schedule(1, 0, 1, Char("DFS"))
        wheel.recycle(wheel.pop(1))
        wheel.schedule(2, 0, 2, Char("DFS"))
        wheel.schedule(2, 0, 1, Char("KILL"))
        items = wheel.pop(2)[0]
        items.sort()
        assert [(port, c.kind) for _, port, _, c in items] == [
            (1, "KILL"),
            (2, "DFS"),
        ]


class StarterRoot(Recorder):
    def __init__(self, char: Char, out_port: int = 1) -> None:
        super().__init__()
        self.char = char
        self.out_port = out_port

    def on_start(self) -> None:
        self.send(self.out_port, self.char)


def two_node_graph():
    b = PortGraphBuilder(2)
    return b.connect(0, 1).connect(1, 0).build()


def two_node_engine(root_proc, other_proc, engine_cls=Engine):
    return engine_cls(two_node_graph(), [root_proc, other_proc], root=0)


class Bouncer(Recorder):
    """Returns every character it receives: a run that never ends."""

    def on_start(self) -> None:
        self.send(1, make_body("IG", 1))

    def handle(self, in_port: int, char: Char) -> None:
        super().handle(in_port, char)
        self.broadcast(char)


class TestBudgetAndIdle:
    """The stepping contract, on the object backend (see the flat twin)."""

    engine_cls = Engine

    def test_tick_budget_exhaustion_raises(self):
        engine = two_node_engine(Bouncer(), Bouncer(), self.engine_cls)
        with pytest.raises(TickBudgetExceeded):
            engine.run(max_ticks=50, until=lambda: False)
        assert engine.tick == 50

    def test_budget_exhaustion_on_dead_network(self):
        # Nothing ever moves; until never holds; the watchdog must still fire.
        engine = two_node_engine(Recorder(), Recorder(), self.engine_cls)
        with pytest.raises(TickBudgetExceeded):
            engine.run(max_ticks=30, until=lambda: False, start=False)
        assert engine.tick == 30

    def test_idle_drain_detection(self):
        recorder = Recorder()  # absorbs everything
        engine = two_node_engine(
            StarterRoot(make_head("IG", 1)), recorder, self.engine_cls
        )
        ticks = engine.run(max_ticks=100)
        assert engine.is_idle()
        assert ticks == 3  # leaves the root at tick 2, absorbed at tick 3
        # run_to_idle on an already-idle engine returns immediately
        assert engine.run_to_idle(max_ticks=200) == ticks

    def test_idle_at_tick_zero(self):
        # run() with no predicate steps one dead tick before it reports
        # idle; run_to_idle() reports an idle network at once
        engine = two_node_engine(Recorder(), Recorder(), self.engine_cls)
        assert engine.run_to_idle(max_ticks=10) == 0
        assert engine.run(max_ticks=10, start=False) == 1

    def test_next_event_tick_sees_wires_and_outboxes(self):
        recorder = Recorder()
        engine = two_node_engine(
            StarterRoot(make_head("IG", 1)), recorder, self.engine_cls
        )
        engine.start()
        # speed-1 char rests 2 more ticks in the root, then 1 tick on the wire
        assert engine._next_event_tick() == 2
        engine.step_tick()
        engine.step_tick()  # leaves the outbox at tick 2
        assert engine._next_event_tick() == 3  # now on the wire
        engine.step_tick()
        assert recorder.log and recorder.log[0][0] == 3
        assert engine._next_event_tick() is None


class TestBudgetAndIdleFlat(TestBudgetAndIdle):
    engine_cls = FlatEngine


class TestDynamicStepping:
    """Wire ops bound the fast-forward identically on both backends."""

    def _engines(self, make_processors, ops):
        graph = two_node_graph()
        return [
            cls(graph, make_processors(), ops, root=0)
            for cls in (DynamicEngine, FlatDynamicEngine)
        ]

    def test_deadlock_raises_at_the_same_tick(self):
        # the cut kills the only way back to the root: the bouncing
        # character is lost and the network goes dead under an until that
        # never holds
        wire = two_node_graph().out_wire(1, 1)
        ticks = []
        for engine in self._engines(
            lambda: [Bouncer(), Bouncer()], [WireMutation(20, "cut", wire)]
        ):
            with pytest.raises(TickBudgetExceeded):
                engine.run(max_ticks=500, until=lambda: False)
            assert engine.lost_characters > 0
            ticks.append(engine.tick)
        assert ticks == [500, 500]

    def test_livelock_raises_at_the_same_tick(self):
        # a cut and heal that do not stop the bouncing: the budget fires
        # while characters are still moving
        wire = two_node_graph().out_wire(1, 1)
        ops = [WireMutation(7, "cut", wire), WireMutation(9, "heal", wire)]
        results = []
        for engine in self._engines(lambda: [Bouncer(), Bouncer()], ops):
            with pytest.raises(TickBudgetExceeded):
                engine.run(max_ticks=101, until=lambda: False)
            results.append((engine.tick, engine.applied_mutations))
        assert results[0] == results[1]
        assert results[0][0] == 101

    def test_op_after_the_wheel_empties_lands_at_its_tick(self):
        wire = two_node_graph().out_wire(1, 1)
        ops = [WireMutation(40, "cut", wire), WireMutation(60, "heal", wire)]
        results = []
        for engine in self._engines(
            lambda: [StarterRoot(make_head("IG", 1)), Recorder()], ops
        ):
            # the character is absorbed at tick 3; the ops alone keep
            # the clock moving, one event tick per op
            seen = []

            def both_applied(engine=engine, seen=seen):
                seen.append(engine.tick)
                return len(engine.applied_mutations) == 2

            assert engine.run(max_ticks=1000, until=both_applied) == 60
            results.append((seen, engine.applied_mutations))
        assert results[0] == results[1]
        assert results[0][0][-2:] == [40, 60]
        assert results[0][1] == ops

    def test_step_tick_applies_ops_once(self):
        wire = two_node_graph().out_wire(1, 1)
        ops = [WireMutation(3, "cut", wire), WireMutation(3, "heal", wire)]
        for engine in self._engines(lambda: [Recorder(), Recorder()], ops):
            for expected in ([], [], [], ops, ops):
                assert engine.applied_mutations == expected
                engine.step_tick()
            assert engine.tick == 5


class TestFastForwardEquivalence:
    """run() skips empty ticks but must be observationally identical."""

    engine_cls = Engine

    def _run_manual(self, graph, engine_cls):
        processors = [GTDProcessor() for _ in graph.nodes()]
        engine = engine_cls(graph, list(processors), root=0)
        engine.start()
        root = processors[0]
        while not root.terminal:
            assert engine.tick < 50_000
            engine.step_tick()
        ticks = engine.tick
        while not engine.is_idle():
            engine.step_tick()
        return engine, ticks

    def _run_fast(self, graph, engine_cls):
        processors = [GTDProcessor() for _ in graph.nodes()]
        engine = engine_cls(graph, list(processors), root=0)
        root = processors[0]
        ticks = engine.run(max_ticks=50_000, until=lambda: root.terminal)
        engine.run_to_idle(max_ticks=60_000)
        return engine, ticks

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: generators.de_bruijn(2, 3),
            lambda: generators.bidirectional_ring(6),
            lambda: generators.directed_ring(5),
        ],
        ids=["de_bruijn", "biring", "dring"],
    )
    def test_transcripts_and_ticks_identical(self, make_graph):
        manual_engine, manual_ticks = self._run_manual(make_graph(), self.engine_cls)
        fast_engine, fast_ticks = self._run_fast(make_graph(), self.engine_cls)
        reference, reference_ticks = self._run_fast(make_graph(), Engine)
        assert manual_ticks == fast_ticks == reference_ticks
        assert manual_engine.tick == fast_engine.tick == reference.tick
        assert (
            list(manual_engine.transcript.events())
            == list(fast_engine.transcript.events())
            == list(reference.transcript.events())
        )
        assert (
            manual_engine.metrics.snapshot()
            == fast_engine.metrics.snapshot()
            == reference.metrics.snapshot()
        )


class TestFastForwardEquivalenceFlat(TestFastForwardEquivalence):
    engine_cls = FlatEngine


class TestDispatchTables:
    def test_protocol_processor_publishes_full_table(self):
        proc = GTDProcessor()
        table = proc.handler_table()
        for kind in _all_kinds():
            assert kind in table, kind

    def test_handle_override_disables_table(self):
        """A subclass overriding handle() must stay authoritative."""

        class Override(GTDProcessor):
            def __init__(self) -> None:
                super().__init__()
                self.seen: list[str] = []

            def handle(self, in_port: int, char: Char) -> None:
                self.seen.append(char.kind)
                super().handle(in_port, char)

        assert Override().handler_table() == {}

        # End to end: the override sees every delivered character.
        g = generators.de_bruijn(2, 3)
        processors = [Override() for _ in g.nodes()]
        engine = Engine(g, list(processors), root=0)
        engine.run(max_ticks=50_000, until=lambda: processors[0].terminal)
        assert sum(len(p.seen) for p in processors) == engine.metrics.total_delivered

    def test_base_processor_falls_back_to_handle(self):
        recorder = Recorder()
        assert recorder.handler_table() == {}
        engine = two_node_engine(StarterRoot(make_head("IG", 1)), recorder)
        engine.run(max_ticks=100)
        assert recorder.log, "fallback handle() must receive deliveries"


class TestDispatchOrderDeterminism:
    def test_mixed_arrivals_follow_legacy_order(self):
        """Same-tick arrivals handle in the legacy (priority, port, fifo) order."""

        class MixedRoot(Recorder):
            def on_start(self) -> None:
                # All four land at the neighbour on tick 1 (speed-1 chars
                # get extra_delay=-2 so their residence collapses to 0).
                self.send(1, make_head("OG", 1), extra_delay=-2)
                self.send(1, Char("KILL", payload="RCA"))
                self.send(1, make_head("ID", 1), extra_delay=-2)
                self.send(1, Char("FWD", out_port=1, in_port=1), extra_delay=-2)

        recorder = Recorder()
        engine = two_node_engine(MixedRoot(), recorder)
        engine.start()
        engine.step_tick()
        kinds = [c.kind for _, _, c in recorder.log]
        assert kinds == ["KILL", "IDH", "OGH", "FWD"]

    def test_repeated_runs_bitwise_identical(self):
        """Two full protocol runs on the same network agree event for event."""
        results = []
        for _ in range(2):
            g = generators.random_strongly_connected(10, extra_edges=10, seed=7)
            processors = [GTDProcessor() for _ in g.nodes()]
            engine = Engine(g, list(processors), root=0)
            engine.run(max_ticks=100_000, until=lambda: processors[0].terminal)
            results.append(
                (engine.tick, list(engine.transcript.events()), engine.metrics.snapshot())
            )
        assert results[0] == results[1]
