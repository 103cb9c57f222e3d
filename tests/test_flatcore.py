"""The compiled flat-core backend: CSR lowering, the code space, packed wheel."""

from __future__ import annotations

import pytest

from repro.campaigns.spec import build_family
from repro.dynamics import DynamicEngine, FlatDynamicEngine, compile_timeline
from repro.errors import SimulationError
from repro.protocol.gtd import GTDProcessor
from repro.protocol.rca import run_single_rca
from repro.protocol.runner import determine_topology
from repro.sim.characters import (
    Char,
    CharKernel,
    alphabet_size,
    enumerate_alphabet,
    make_body,
    make_head,
)
from repro.sim.engine import Engine
from repro.sim.flatcore import (
    CODE_MASK,
    PORT_MASK,
    PORT_SHIFT,
    PRIO_SHIFT,
    WHEEL_SLOTS,
    FlatEngine,
    PackedEventWheel,
)
from repro.sim.processor import Processor
from repro.sim.run import ENGINE_BACKENDS, RunConfig, make_engine
from repro.sim.scheduler import KIND_PRIORITY
from repro.topology import generators
from repro.topology.builder import PortGraphBuilder
from repro.topology.compile import compile_topology
from repro.topology.portgraph import PortGraph


# ----------------------------------------------------------------------
# topology compilation
# ----------------------------------------------------------------------
class TestCompileTopology:
    def test_requires_frozen_graph(self):
        graph = PortGraph(2, 2)
        graph.add_wire(0, 1, 1, 1)
        graph.add_wire(1, 1, 0, 1)
        with pytest.raises(SimulationError):
            compile_topology(graph)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tables_match_portgraph(self, seed):
        graph = generators.random_strongly_connected(12, extra_edges=12, seed=seed)
        topo = compile_topology(graph)
        assert topo.num_nodes == graph.num_nodes
        assert topo.delta == graph.delta
        for node in graph.nodes():
            assert topo.out_ports_of(node) == graph.connected_out_ports(node)
            assert topo.in_ports_of(node) == graph.connected_in_ports(node)
            for port in range(1, graph.delta + 1):
                wire = graph.out_wire(node, port)
                got = topo.dst_of(node, port)
                if wire is None:
                    assert got is None
                else:
                    assert got == (wire.dst, wire.in_port)

    def test_unconnected_slots_are_negative(self):
        graph = generators.directed_ring(4)
        topo = compile_topology(graph)
        # a directed ring uses out-port 1 only; port 2 slots stay -1
        for node in graph.nodes():
            assert topo.wire_dst[node * topo.stride + 2] == -1


# ----------------------------------------------------------------------
# the interned alphabet
# ----------------------------------------------------------------------
class TestAlphabet:
    @pytest.mark.parametrize("delta", [2, 3, 5, 8])
    def test_enumeration_realizes_the_census(self, delta):
        chars = enumerate_alphabet(delta)
        # the census counts the blank; the enumeration materializes the rest
        assert len(chars) == alphabet_size(delta) - 1
        assert len(set(chars)) == len(chars)  # no duplicates

    def test_enumeration_is_deterministic(self):
        assert enumerate_alphabet(3) == enumerate_alphabet(3)

    def test_delta_below_two_rejected(self):
        with pytest.raises(ValueError):
            enumerate_alphabet(1)

    def test_interner_round_trips_whole_alphabet(self):
        kernel = CharKernel(3)
        for char in list(kernel.chars):
            code = kernel.encode(char)
            assert kernel.decode(code) == char
            assert kernel.decode(code) is kernel.decode(code)  # canonical

    def test_interner_handles_unknown_characters(self):
        kernel = CharKernel(2)
        size_before = len(kernel.chars)
        exotic = Char("BDT", payload="PING")  # payload outside the census
        code = kernel.encode(exotic)
        assert code == size_before
        assert kernel.decode(code) == exotic
        assert kernel.encode(Char("BDT", payload="PING")) == code  # stable
        # the stray extends every per-code list; the fixed tables stay put
        assert kernel.code_base[code] == (KIND_PRIORITY["BDT"] << PRIO_SHIFT) | code
        assert kernel.base_of[exotic] == kernel.id_base[id(exotic)]
        assert kernel.growing_code[code] is False
        assert len(kernel.fill_rows) == kernel.n_codes == size_before

    def test_stray_fill_follows_the_engine_rule(self):
        kernel = CharKernel(2)
        growing = kernel.encode(Char("BGT", payload="PING"))
        dying = kernel.encode(Char("BDH", 1, payload="PING"))
        filled = kernel.fill(growing, 2)
        assert kernel.decode(filled) == Char("BGT", 0, 2, "PING")
        assert kernel.fill(growing, 2) == filled  # interned once
        # dying snakes are delivered verbatim, unlike fill_in_port
        assert kernel.fill(dying, 2) == dying
        for code in range(kernel.n_codes):
            assert kernel.fill(code, 1) == kernel.fill_rows[code][1]


# ----------------------------------------------------------------------
# the packed event wheel
# ----------------------------------------------------------------------
def _kinds_of(wheel: PackedEventWheel, bucket, node: int) -> list[str]:
    lane = sorted(bucket.lanes[node])
    return [wheel.chars[packed & CODE_MASK].kind for packed in lane]


class TestPackedEventWheel:
    def test_sort_order_is_priority_then_port_then_fifo(self):
        wheel = PackedEventWheel(CharKernel(2))
        wheel.schedule(5, 0, 2, Char("DFS"))
        wheel.schedule(5, 0, 1, Char("IGH"))
        wheel.schedule(5, 0, 1, Char("KILL"))
        wheel.schedule(5, 0, 2, Char("IDH"))
        bucket = wheel.pop(5)
        assert _kinds_of(wheel, bucket, 0) == ["KILL", "IDH", "IGH", "DFS"]

    def test_fifo_breaks_ties_within_port_and_priority(self):
        wheel = PackedEventWheel(CharKernel(2))
        first = make_body("IG", 1)
        second = make_body("IG", 2)
        wheel.schedule(3, 7, 1, first)
        wheel.schedule(3, 7, 1, second)
        bucket = wheel.pop(3)
        lane = sorted(bucket.lanes[7])
        chars = [wheel.chars[p & CODE_MASK] for p in lane]
        assert chars == [first, second]

    def test_packed_entry_fields_round_trip(self):
        wheel = PackedEventWheel(CharKernel(3))
        wheel.schedule(1, 4, 3, Char("UNMARK", payload="RCA"))
        bucket = wheel.pop(1)
        packed = bucket.lanes[4][0]
        assert (packed >> PORT_SHIFT) & PORT_MASK == 3
        assert wheel.chars[packed & CODE_MASK] == Char("UNMARK", payload="RCA")
        assert packed >> PRIO_SHIFT == KIND_PRIORITY["UNMARK"]

    def test_next_tick_and_emptiness(self):
        wheel = PackedEventWheel(CharKernel(2))
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
        wheel = PackedEventWheel(CharKernel(2))
        wheel.schedule(1, 0, 1, Char("DFS"))
        wheel.schedule(2, 3, 1, Char("KILL"))
        assert sorted(node for node, _ in wheel.in_flight()) == [0, 3]
        assert len(wheel) == 2
        kinds = sorted(char.kind for _, char in wheel.in_flight())
        assert kinds == ["DFS", "KILL"]

    def test_schedule_past_the_window_raises(self):
        wheel = PackedEventWheel(CharKernel(2))
        wheel.schedule(WHEEL_SLOTS - 1, 0, 1, Char("DFS"))  # the window's edge
        with pytest.raises(SimulationError, match="outside the wheel window"):
            wheel.schedule(WHEEL_SLOTS, 0, 1, Char("DFS"))
        with pytest.raises(SimulationError, match="outside the wheel window"):
            wheel.schedule(20, 0, 1, Char("DFS"), now=20)  # not after now
        assert len(wheel) == 1

    def test_schedule_into_a_pending_slot_raises(self):
        wheel = PackedEventWheel(CharKernel(2))
        wheel.schedule(3, 0, 1, Char("DFS"))
        # tick 3 + WHEEL_SLOTS shares the slot, and lies inside the window
        # seen from tick 5: the ring must not wrap onto tick 3's entries
        with pytest.raises(SimulationError, match="still holds tick 3"):
            wheel.schedule(3 + WHEEL_SLOTS, 1, 1, Char("DFS"), now=5)
        assert wheel.next_tick() == 3 and len(wheel) == 1
        wheel.pop(3)
        wheel.schedule(3 + WHEEL_SLOTS, 1, 1, Char("DFS"), now=5)
        assert wheel.next_tick() == 3 + WHEEL_SLOTS


# ----------------------------------------------------------------------
# the engine itself
# ----------------------------------------------------------------------
class TestFlatEngine:
    def test_registered_as_flat_backend(self):
        assert ENGINE_BACKENDS["flat"] is FlatEngine

    def test_requires_frozen_graph(self):
        graph = PortGraph(2, 2)
        graph.add_wire(0, 1, 1, 1)
        graph.add_wire(1, 1, 0, 1)
        with pytest.raises(SimulationError):
            FlatEngine(graph, [GTDProcessor(), GTDProcessor()])

    def test_unconnected_emission_raises(self):
        b = PortGraphBuilder(2)
        graph = b.connect(0, 1).connect(1, 0).build()
        engine = FlatEngine(graph, [GTDProcessor(), GTDProcessor()])
        proc = engine.processors[1]
        proc.begin_tick(0)
        with pytest.raises(SimulationError):
            proc.send(2, make_head("IG", 2))  # port 2 is unwired

    def test_single_rca_runs_and_drains(self):
        graph = generators.bidirectional_line(8)
        result = run_single_rca(graph, initiator=7, backend="flat")
        assert result.completed_at > 0
        assert result.engine.is_idle()
        assert isinstance(result.engine, FlatEngine)

    def test_run_config_rejects_unknown_backend(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            RunConfig(max_ticks=10, backend="warp")

    def test_make_engine_rejects_unknown_backend(self):
        from repro.errors import ReproError

        graph = generators.directed_ring(3)
        with pytest.raises(ReproError):
            make_engine("warp", graph, [GTDProcessor() for _ in range(3)])

    def test_purge_hook_erases_scheduled_growing_chars(self):
        """A KILL purge reaches characters the sink pre-scheduled."""
        b = PortGraphBuilder(2)
        graph = b.connect(0, 1).connect(1, 0).build()
        engine = FlatEngine(graph, [GTDProcessor(), GTDProcessor()])
        proc = engine.processors[1]
        assert proc._direct_sink is not None  # sink installed (non-root GTD)
        proc.begin_tick(engine.tick)
        proc.send(1, make_head("IG", 1))       # growing: direct-scheduled
        assert len(engine._wheel) == 1
        removed = proc.purge_outbox(lambda c: c.kind.startswith("IG"))
        assert removed == 1
        assert len(engine._wheel) == 0
        # the emission counter was rolled back: purged chars never count
        assert engine.metrics.emitted.get("IGH", 0) == 0

    def test_root_keeps_outbox_semantics(self):
        """The root records sends at drain time, so it gets no sink."""
        b = PortGraphBuilder(2)
        graph = b.connect(0, 1).connect(1, 0).build()
        engine = FlatEngine(graph, [GTDProcessor(), GTDProcessor()], root=0)
        assert engine.processors[0]._direct_sink is None
        assert engine.processors[1]._direct_sink is not None

    def test_purging_last_traffic_leaves_wheel_idle(self):
        """A purge that empties a bucket must not strand it in the wheel.

        Regression: an emptied-but-present bucket kept ``is_idle`` False
        and made ``run_to_idle`` step to a tick where nothing happens — a
        tick-count divergence from the object backend.
        """
        b = PortGraphBuilder(2)
        graph = b.connect(0, 1).connect(1, 0).build()
        engine = FlatEngine(graph, [GTDProcessor(), GTDProcessor()])
        proc = engine.processors[1]
        proc.begin_tick(engine.tick)
        proc.send(1, make_head("IG", 1))  # direct-scheduled growing char
        assert not engine.is_idle()
        assert proc.purge_outbox(lambda c: c.kind.startswith("IG")) == 1
        assert engine.is_idle()
        assert engine._wheel.next_tick() is None

    def test_execute_run_rejects_backend_mismatch(self):
        from repro.errors import ReproError
        from repro.sim.run import execute_run

        graph = generators.directed_ring(3)
        engine = make_engine("flat", graph, [GTDProcessor() for _ in range(3)])
        with pytest.raises(ReproError):
            execute_run(engine, RunConfig(max_ticks=10, backend="object"))

    def test_metrics_rebuild_is_idempotent(self):
        graph = generators.bidirectional_line(6)
        result = run_single_rca(graph, initiator=5, backend="flat")
        first = dict(result.engine.metrics.delivered)
        assert sum(first.values()) > 0
        again = result.engine.metrics  # property re-flushes from scratch
        assert dict(again.delivered) == first


class _FarRelay(Processor):
    """Relays what it receives ``delay`` ticks late, three times at most."""

    PURGES_ONLY_GROWING = True  # so the flat engine installs the sinks

    def __init__(self, delay: int = 0) -> None:
        super().__init__()
        self.delay = delay
        self.log: list[tuple[int, int, Char]] = []

    def on_start(self) -> None:
        self.send(1, Char("BACK"), extra_delay=self.delay)

    def handle(self, in_port: int, char: Char) -> None:
        self.log.append((self.tick, in_port, char))
        if len(self.log) <= 3:
            self.send(1, char, extra_delay=self.delay)
            self.broadcast(char, extra_delay=self.delay)

    def state_snapshot(self) -> dict:
        return {"seen": len(self.log)}


@pytest.mark.parametrize("delay", [20, 100])
def test_arrivals_past_the_wheel_window_rest_in_the_outbox(delay):
    """A send landing past the ring's window declines the sink and rests
    in the sender's outbox, so both backends deliver at the same ticks."""
    graph = generators.directed_ring(3)
    runs = []
    for cls in (Engine, FlatEngine):
        procs = [_FarRelay(delay) for _ in graph.nodes()]
        engine = cls(graph, list(procs), root=0)
        assert cls is Engine or procs[1]._direct_sink is not None
        engine.start()
        ticks = engine.run_to_idle(max_ticks=10_000)
        runs.append((ticks, [proc.log for proc in procs]))
    assert runs[0] == runs[1]
    assert runs[1][0] > 3 * delay


# ----------------------------------------------------------------------
# the send horizon: KILL purges skip senders with nothing in flight
# ----------------------------------------------------------------------
def _count_withdraws(monkeypatch) -> list[tuple[int, int]]:
    """Record ``(after, removed count)`` per wheel withdraw from now on.

    Patched on the class before any engine is built: the purge hooks bind
    ``withdraw`` when the engine installs them.
    """
    calls: list[tuple[int, int]] = []
    original = PackedEventWheel.withdraw

    def withdraw(wheel, after, until, wires, match=None):
        removed = original(wheel, after, until, wires, match)
        calls.append((after, len(removed)))
        return removed

    monkeypatch.setattr(PackedEventWheel, "withdraw", withdraw)
    return calls


def _finish(engine, *, start: bool) -> tuple:
    """Run GTD on ``engine`` to termination and idle; every observable."""
    root = engine.processors[engine.root]
    ticks = engine.run(max_ticks=50_000, until=lambda: root.terminal, start=start)
    engine.run_to_idle(max_ticks=60_000)
    metrics = engine.metrics
    return (
        ticks,
        engine.tick,
        list(engine.transcript.events()),
        metrics.snapshot(),
        dict(metrics.emitted),
    )


class TestSendHorizon:
    GRAPH = staticmethod(lambda: generators.de_bruijn(2, 3))

    def _engine(self, cls=FlatEngine):
        graph = self.GRAPH()
        return cls(graph, [GTDProcessor() for _ in graph.nodes()], root=0)

    def test_purges_skip_senders_with_nothing_in_flight(self, monkeypatch):
        calls = _count_withdraws(monkeypatch)
        purges = []
        original = GTDProcessor.purge_outbox

        def purge_outbox(proc, predicate):
            purges.append(proc)
            return original(proc, predicate)

        monkeypatch.setattr(GTDProcessor, "purge_outbox", purge_outbox)
        flat = _finish(self._engine(), start=True)
        assert flat == _finish(self._engine(Engine), start=True)
        searched = len(calls)
        hooked = sum(proc._purge_hook is not None for proc in purges)
        assert any(removed for _, removed in calls)  # KILLs do erase here
        assert 0 < searched < hooked

    def test_restored_rung_loses_filed_growing_chars_to_a_kill(self, monkeypatch):
        """A rung's in-flight growing characters stay purgeable after restore.

        The checkpoint does not say who filed its wheel entries, so a
        restored engine must search on the first KILL at any sender; it
        restores into an engine whose previous run was reset away.
        """
        calls = _count_withdraws(monkeypatch)
        reference = _finish(self._engine(Engine), start=True)
        assert _finish(self._engine(), start=True) == reference
        purge_ticks = sorted({after for after, removed in calls if removed})
        assert purge_ticks
        engine = self._engine()
        _finish(engine, start=True)
        for purge_tick in purge_ticks[:4]:
            # a KILL is handled first at its node, so everything it erases
            # at purge_tick was filed by the tick before
            source = self._engine()
            source.start()
            while source.tick < purge_tick - 1:
                source.step_tick()
            rung = source.checkpoint()
            engine.reset()
            engine.restore(rung, list(source.transcript.events()))
            del calls[:]
            assert _finish(engine, start=False) == reference
            assert (purge_tick, True) in {(a, bool(n)) for a, n in calls}

    def test_reset_engine_searches_like_a_fresh_one(self, monkeypatch):
        calls = _count_withdraws(monkeypatch)
        engine = self._engine()
        first = _finish(engine, start=True)
        fresh = list(calls)
        del calls[:]
        engine.reset()
        assert _finish(engine, start=True) == first
        assert calls == fresh


# ----------------------------------------------------------------------
# the delivery loop's fallback: every node without a code table
# ----------------------------------------------------------------------
def _all_fallback(cls):
    """``cls`` with every code-handler table dropped (the kernel bench's
    control engine): each delivery takes the fallback branch."""

    class AllFallback(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._chandlers_all = [None] * len(self.processors)
            self._chandlers[:] = self._chandlers_all

    return AllFallback


def _gtd_engine(cls, graph, *args, root: int = 0):
    return cls(graph, [GTDProcessor() for _ in graph.nodes()], *args, root=root)


class TestFallbackDelivery:
    @pytest.mark.parametrize(
        "family,size,seed,root",
        [
            ("de-bruijn", 8, 0, 0),
            ("bidirectional-ring", 7, 0, 3),
            ("hypercube", 8, 0, 0),
            ("tree-with-loop", 7, 1, 0),
            ("random", 10, 3, 2),
        ],
    )
    def test_all_fallback_engine_matches_both_backends(self, family, size, seed, root):
        graph = build_family(family, size, seed)
        runs = [
            _finish(_gtd_engine(cls, graph, root=root), start=True)
            for cls in (Engine, FlatEngine, _all_fallback(FlatEngine))
        ]
        assert runs[2] == runs[0]
        assert runs[1] == runs[0]

    def test_all_fallback_dynamic_engine_matches_both_backends(self):
        """Churn parks and restores nodes mid-run on the flat side."""
        graph = build_family("spare-ring", 16, 0)
        program = compile_timeline(
            "churn:rate=0.08,period=0.2,heal=0.9,until=0.8", graph, seed=0
        )
        # a cut parks its (non-root) sender until the matching heal
        assert {"cut", "heal"} <= {op.kind for op in program.ops}
        assert any(op.kind == "cut" and op.wire.src != 0 for op in program.ops)
        runs = []
        for cls in (DynamicEngine, FlatDynamicEngine, _all_fallback(FlatDynamicEngine)):
            engine = _gtd_engine(cls, graph, program)
            runs.append((_finish(engine, start=True), engine.lost_characters))
        assert runs[2] == runs[0]
        assert runs[1] == runs[0]


class _HookedGTD(GTDProcessor):
    """A GTD processor that overrides ``begin_tick`` and counts the calls."""

    def __init__(self) -> None:
        super().__init__()
        self.begins = 0

    def begin_tick(self, tick: int) -> None:
        self.begins += 1
        super().begin_tick(tick)


def test_begin_tick_override_keeps_a_processor_off_code_tables():
    graph = generators.de_bruijn(2, 3)
    runs = []
    for cls in (Engine, FlatEngine):
        procs = [_HookedGTD() for _ in graph.nodes()]
        engine = cls(graph, list(procs), root=0)
        if cls is FlatEngine:
            assert all(table is None for table in engine._chandlers_all)
            assert procs[1]._direct_sink is not None  # sinks stay installed
        runs.append((_finish(engine, start=True), [p.begins for p in procs]))
    assert runs[0][1][1] > 0
    assert runs[1] == runs[0]


def test_delivered_slots_are_restamped_for_their_next_tick(monkeypatch):
    """Clearing a delivered slot stamps it with its next tick, so a later
    filing there needs no :meth:`PackedEventWheel.claim`."""
    claims: list[int] = []
    original = PackedEventWheel.claim

    def claim(wheel, tick, now):
        claims.append(tick)
        return original(wheel, tick, now)

    # patched before the engine is built: the code sinks bind ``claim``
    monkeypatch.setattr(PackedEventWheel, "claim", claim)
    graph = build_family("spare-ring", 16, 0)
    result = determine_topology(graph, backend="flat")
    assert result.matches(graph)
    assert claims
    assert len(claims) < result.drained_ticks / 4
