"""The omniscient tracer and the space-time renderer."""

import pytest

from repro.errors import SimulationError
from repro.protocol.gtd import GTDProcessor
from repro.protocol.rca import ScriptedRCADriver
from repro.sim.characters import Char, make_head
from repro.sim.engine import Engine
from repro.sim.flatcore import FlatEngine
from repro.sim.tracer import EventTrace
from repro.topology import generators
from repro.viz.spacetime import render_spacetime


def traced_rca(n: int = 6, keep=None, engine_cls=Engine, *, trace: bool = True):
    graph = generators.bidirectional_line(n)
    procs = [ScriptedRCADriver() for _ in graph.nodes()]
    engine = engine_cls(graph, list(procs), root=0)
    if trace:
        engine.tracer = EventTrace(keep=keep)
    engine.start()
    procs[n - 1].begin_tick(0)
    procs[n - 1].trigger(Char("FWD", 1, 1))
    engine.wake(n - 1)
    engine.run(
        max_ticks=5000,
        until=lambda: procs[n - 1].completed_at is not None,
        start=False,
    )
    return engine, graph


class TestEventTrace:
    def test_records_deliveries_and_emissions(self):
        engine, _ = traced_rca()
        assert len(engine.tracer.deliveries()) > 0
        assert any(e.kind == "emit" for e in engine.tracer.events())

    def test_filter_keeps_only_matching(self):
        engine, _ = traced_rca(keep=lambda c: c.kind.startswith("IG"))
        kinds = {e.char.kind for e in engine.tracer.events()}
        assert kinds and all(k.startswith("IG") for k in kinds)

    def test_first_delivery(self):
        engine, _ = traced_rca()
        first = engine.tracer.first_delivery(0, "IGH")
        assert first is not None
        # node 0 (the root) is 5 hops from the initiator: 15 ticks at speed 1
        assert first.tick == 3 * 5

    def test_wavefront_is_breadth_first(self):
        engine, graph = traced_rca()
        front = engine.tracer.wavefront("IG")
        n = graph.num_nodes
        # flood from node n-1 spreads 3 ticks per hop along the line
        # (the initiator itself only sees echoes, so skip it)
        for node, tick in front.items():
            if node != n - 1:
                assert tick == 3 * abs((n - 1) - node)

    def test_max_events_cap(self):
        trace = EventTrace(max_events=3)
        for i in range(5):
            trace.record_delivery(i, 0, 1, make_head("IG", 1))
        assert len(trace) == 3
        assert trace.dropped == 2

    def test_disabled_by_default(self):
        graph = generators.bidirectional_line(3)
        procs = [ScriptedRCADriver() for _ in graph.nodes()]
        engine = Engine(graph, list(procs), root=0)
        assert engine.tracer is None  # zero cost unless attached


def gtd_run(engine_cls, *, tracer=None, attach_at=None):
    """One full GTD run on de Bruijn(2,3); returns the engine afterwards.

    ``tracer`` is attached before the start, or — with ``attach_at`` — at
    the first event boundary at or after that tick.
    """
    graph = generators.de_bruijn(2, 3)
    procs = [GTDProcessor() for _ in graph.nodes()]
    engine = engine_cls(graph, list(procs), root=0)
    if attach_at is None:
        engine.tracer = tracer
        engine.run(max_ticks=100_000, until=lambda: procs[0].terminal)
    else:
        engine.run(max_ticks=attach_at, until=lambda: engine.tick >= attach_at)
        engine.tracer = tracer
        engine.run(
            max_ticks=100_000, until=lambda: procs[0].terminal, start=False
        )
    engine.run_to_idle(max_ticks=200_000)
    return engine


def transcript_bytes(engine) -> bytes:
    return "\n".join(repr(e) for e in engine.transcript.events()).encode()


class TestFlatTracer:
    """Tracing a flat run means tracing the same run on ``object``.

    The flat engine refuses a tracer; the parity contract makes an
    ``object`` run the flat run, tick for tick, so a traced ``object``
    run must leave the transcript and tick count of the untraced flat run.
    """

    def test_flat_engine_refuses_a_tracer(self):
        graph = generators.bidirectional_line(3)
        engine = FlatEngine(graph, [ScriptedRCADriver() for _ in graph.nodes()])
        assert engine.tracer is None
        with pytest.raises(SimulationError, match="backend 'object'"):
            engine.tracer = EventTrace()
        assert engine.tracer is None
        engine.tracer = None  # detaching is allowed, and a no-op
        engine.reset()

    def test_scripted_rca_matches_object_engine(self):
        traced, _ = traced_rca()
        flat, _ = traced_rca(engine_cls=FlatEngine, trace=False)
        assert len(traced.tracer) > 0
        assert flat.tick == traced.tick
        assert transcript_bytes(flat) == transcript_bytes(traced)

    def test_gtd_run_matches_object_engine(self):
        traced = gtd_run(Engine, tracer=EventTrace())
        flat = gtd_run(FlatEngine)
        assert traced.tracer.dropped == 0
        kinds = {e.kind for e in traced.tracer.events()}
        assert kinds == {"deliver", "emit"}
        assert flat.tick == traced.tick
        assert transcript_bytes(flat) == transcript_bytes(traced)

    @pytest.mark.parametrize("attach_at", [1, 200, 1000])
    def test_mid_run_attach_keeps_the_transcript(self, attach_at):
        untraced = gtd_run(FlatEngine)
        traced = gtd_run(Engine, tracer=EventTrace(), attach_at=attach_at)
        # the trace covers only the run after the attach point
        assert min(e.tick for e in traced.tracer.events()) >= attach_at
        assert traced.tick == untraced.tick
        assert transcript_bytes(traced) == transcript_bytes(untraced)


class TestSpacetime:
    def test_renders_grid(self):
        engine, graph = traced_rca()
        art = render_spacetime(engine.tracer, graph.num_nodes)
        lines = art.splitlines()
        assert lines[0].startswith("tick |")
        assert "legend" in lines[-1]
        assert len(lines) > 5

    def test_growing_heads_visible(self):
        engine, graph = traced_rca()
        art = render_spacetime(engine.tracer, graph.num_nodes)
        assert "o" in art  # growing heads
        assert "K" in art  # the KILL wave
        assert "F" in art  # the FORWARD token

    def test_empty_trace(self):
        assert render_spacetime(EventTrace(), 4) == "(empty trace)"

    def test_max_rows_subsamples(self):
        engine, graph = traced_rca()
        art = render_spacetime(engine.tracer, graph.num_nodes, max_rows=5)
        data_rows = art.splitlines()[2:-1]
        assert len(data_rows) <= 5

    def test_tick_cropping(self):
        engine, graph = traced_rca()
        art = render_spacetime(
            engine.tracer, graph.num_nodes, start_tick=0, end_tick=10
        )
        ticks = [
            int(line.split("|")[0]) for line in art.splitlines()[2:-1] if "|" in line
        ]
        assert all(t <= 10 for t in ticks)

    def test_node_order_permutation(self):
        engine, graph = traced_rca()
        art = render_spacetime(
            engine.tracer,
            graph.num_nodes,
            node_order=list(reversed(range(graph.num_nodes))),
        )
        assert art.splitlines()[0].endswith("543210")
