"""The perturbation-timeline subsystem: grammar, lowering, engines, stats."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.run_stats import phase_outcome_counts
from repro.campaigns.executor import run_scenario
from repro.campaigns.spec import (
    FAMILY_BUILDERS,
    Scenario,
    build_family,
    parse_fault,
)
from repro.dynamics import (
    DynamicEngine,
    DynamicOutcome,
    FlatDynamicEngine,
    WireMutation,
    compile_timeline,
    parse_timeline,
    run_dynamic_gtd,
)
from repro.dynamics.engine import validate_wire_ops
from repro.errors import ReproError, TopologyError
from repro.protocol.gtd import GTDProcessor
from repro.sim.flatcore import PORT_MASK, PORT_SHIFT, WHEEL_SLOTS
from repro.topology.faults import WireState, shutdown_out_ports
from repro.topology.portgraph import PortGraph, Wire
from repro.topology.properties import is_strongly_connected


def spare_ring(n: int) -> PortGraph:
    g = PortGraph(n, 3)
    for u in range(n):
        g.add_wire(u, 1, (u + 1) % n, 1)
        g.add_wire(u, 2, (u - 1) % n, 2)
    return g.freeze()


# ----------------------------------------------------------------------
# grammar
# ----------------------------------------------------------------------
class TestGrammar:
    @pytest.mark.parametrize(
        "spec",
        [
            "churn:rate=0.05,period=0.25",
            "churn:rate=0.1,period=0.2,heal=0.5,until=1.5",
            "storm:p=0.1@0.5",
            "flap:wire=3:1,on=0.2,off=0.4",
            "flap:wire=3:1,on=0.2,off=0.4,cycles=3",
            "frontier:k=2@0.5",
            "cut@0.5",
            "cut:n=3@0.5",
            "heal@0.8",
            "heal:n=2@0.8",
            "add@0.5",
            "add:n=2@0.5",
            "storm:p=0.2@0.3+heal@0.9+churn:rate=0.02,period=0.5",
        ],
    )
    def test_canonical_round_trip(self, spec):
        timeline = parse_timeline(spec)
        assert timeline.canonical() == spec
        assert parse_timeline(timeline.canonical()) == timeline

    def test_spellings_canonicalize(self):
        assert (
            parse_timeline("storm:p=0.10@0.50").canonical() == "storm:p=0.1@0.5"
        )
        assert (
            parse_timeline("churn:rate=0.050,period=0.250").canonical()
            == "churn:rate=0.05,period=0.25"
        )
        # at= is the spelled-out form of @
        assert parse_timeline("cut:at=0.5") == parse_timeline("cut@0.5")
        # defaults drop out of the canonical form
        assert parse_timeline("cut:n=1@0.5").canonical() == "cut@0.5"
        assert (
            parse_timeline("churn:rate=0.1,period=0.2,heal=0.1,until=1").canonical()
            == "churn:rate=0.1,period=0.2"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "storm@0.5",                       # missing p=
            "storm:p=0.5",                     # missing @time
            "storm:p=1.5@0.5",                 # p out of range
            "melt:x=1@0.5",                    # unknown kind
            "churn:rate=0.1",                  # missing period
            "churn:rate=0.1,period=0.2@0.5",   # churn takes no @time
            "flap:wire=3,on=0.1,off=0.2",      # wire must be NODE:PORT
            "flap:wire=3:1,on=0.5,off=0.2",    # on must precede off
            "frontier:k=0@0.5",                # k must be >= 1
            "cut:0.5",                         # legacy form is not an event
            "cut:n=2,at=0.5@0.6",              # @ and at= conflict
            "storm:p=0.1,bogus=2@0.5",         # unknown parameter
            "cut@0.5++heal@0.9",               # empty event
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ReproError):
            parse_timeline(bad)


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
class TestCompile:
    def test_deterministic_per_seed(self):
        g = spare_ring(10)
        tl = parse_timeline("storm:p=0.3@0.3+heal@0.8+churn:rate=0.1,period=0.4")
        a = tl.compile(g, horizon=300, seed=7)
        b = tl.compile(g, horizon=300, seed=7)
        c = tl.compile(g, horizon=300, seed=8)
        assert a.ops == b.ops
        assert a.phases == b.phases
        assert a.ops != c.ops

    def test_ops_sorted_and_scaled_by_horizon(self):
        g = spare_ring(8)
        tl = parse_timeline("frontier:k=1@0.5+frontier:k=1@0.25")
        program = tl.compile(g, horizon=400, seed=0)
        assert [op.tick for op in program.ops] == [100, 200]
        assert all(op.kind == "cut" for op in program.ops)

    def test_phases_partition_the_run(self):
        g = spare_ring(8)
        program = parse_timeline("frontier:k=1@0.5+heal@0.75").compile(
            g, horizon=400, seed=0
        )
        assert program.phases[0] == ("pre", 0)
        assert program.phase_at(0) == "pre"
        assert program.phase_at(200) == "pre"       # op at 200 applies after
        assert program.phase_at(201) == "cut@200"
        assert program.phase_at(10**9) == "heal@300"

    def test_every_intermediate_state_stays_connected(self):
        g = spare_ring(12)
        tl = parse_timeline("churn:rate=0.4,period=0.2,heal=0.2,until=2")
        program = tl.compile(g, horizon=500, seed=3)
        state = WireState(g, keep_connected=False)
        for op in program.ops:
            if op.kind == "cut":
                state.cut(op.wire)
            else:
                state.attach(op.wire)
            snapshot = state.snapshot()  # raises if any node lost its ports
            assert is_strongly_connected(snapshot)

    def test_flap_full_cycle_restores_base_graph(self):
        g = spare_ring(8)
        program = parse_timeline("flap:wire=3:1,on=0.2,off=0.6").compile(
            g, horizon=500, seed=0
        )
        assert [op.kind for op in program.ops] == ["cut", "heal"]
        assert program.final_topology(g) == g

    def test_flap_unknown_wire_is_infeasible(self):
        g = spare_ring(8)
        with pytest.raises(TopologyError):
            parse_timeline("flap:wire=3:3,on=0.2,off=0.6").compile(
                g, horizon=100, seed=0
            )

    def test_add_wave_needs_free_ports(self):
        ring = build_family("directed-ring", 6)
        with pytest.raises(TopologyError):
            parse_timeline("add:n=20@0.5").compile(ring, horizon=100, seed=0)

    def test_frontier_prefers_deep_wires(self):
        ring = build_family("bidirectional-ring", 10)
        program = parse_timeline("frontier:k=1@0.5").compile(
            ring, horizon=100, seed=0
        )
        (op,) = program.ops
        # the deepest cuttable wire leaves the far side of the ring
        # (BFS depth from root 0 peaks at node 5)
        depth_of_src = min(op.wire.src, 10 - op.wire.src)
        assert depth_of_src >= 4


# ----------------------------------------------------------------------
# the wire-op program on the engines
# ----------------------------------------------------------------------
class TestHealOps:
    def test_heal_requires_cut_first(self):
        g = spare_ring(6)
        wire = g.out_wire(2, 1)
        with pytest.raises(TopologyError):
            validate_wire_ops(g, [WireMutation(5, "heal", wire)])

    def test_cut_heal_cut_sequence_is_valid(self):
        g = spare_ring(6)
        wire = g.out_wire(2, 1)
        ops = validate_wire_ops(
            g,
            [
                WireMutation(5, "cut", wire),
                WireMutation(9, "heal", wire),
                WireMutation(14, "cut", wire),
            ],
        )
        assert [op.kind for op in ops] == ["cut", "heal", "cut"]

    def test_add_can_reuse_port_freed_by_cut(self):
        g = spare_ring(6)
        victim = g.out_wire(2, 1)  # frees out-port 1 of 2 and in-port 1 of 3
        rewired = Wire(2, 1, 5, 3)  # reuses the freed out-port, new target
        validate_wire_ops(
            g,
            [WireMutation(5, "cut", victim), WireMutation(9, "add", rewired)],
        )

    @pytest.mark.parametrize("engine_cls", [DynamicEngine, FlatDynamicEngine])
    def test_heal_restores_traffic(self, engine_cls):
        g = spare_ring(8)
        wire = g.out_wire(4, 1)
        procs = [GTDProcessor() for _ in g.nodes()]
        engine = engine_cls(
            g,
            list(procs),
            [WireMutation(10, "cut", wire), WireMutation(30, "heal", wire)],
        )
        engine.run(max_ticks=50000, until=lambda: procs[0].terminal)
        assert engine.effective_topology() == g
        assert engine.lost_characters > 0  # the cut window did bite

    @pytest.mark.parametrize("engine_cls", [DynamicEngine, FlatDynamicEngine])
    def test_effective_topology_tracks_heal(self, engine_cls):
        g = spare_ring(6)
        wire = g.out_wire(2, 1)
        procs = [GTDProcessor() for _ in g.nodes()]
        engine = engine_cls(g, list(procs), [WireMutation(0, "cut", wire)])
        assert engine.effective_topology().out_wire(2, 1) is None
        # drive the clock past a heal
        engine._ops = validate_wire_ops(
            g, [WireMutation(0, "cut", wire), WireMutation(1, "heal", wire)]
        )
        engine._cursor = 1
        engine.start()
        engine.step_tick()
        assert engine.effective_topology() == g


class TestIdleParity:
    @pytest.mark.parametrize("cut_tick", [10, 18, 22, 30])
    def test_run_to_idle_ticks_match_after_cut(self, cut_tick):
        """A drain whose every entry dies on a cut wire must not leave an
        empty wheel bucket keeping the flat engine 'busy' an extra tick."""
        g = build_family("bidirectional-ring", 6)
        wire = g.out_wire(3, 1)
        idle_ticks = {}
        for name, engine_cls in (
            ("object", DynamicEngine),
            ("flat", FlatDynamicEngine),
        ):
            procs = [GTDProcessor() for _ in g.nodes()]
            engine = engine_cls(
                g, list(procs), [WireMutation(cut_tick, "cut", wire)]
            )
            engine.start()
            idle_ticks[name] = engine.run_to_idle(max_ticks=100000)
            assert engine.is_idle()
        assert idle_ticks["object"] == idle_ticks["flat"]


class TestCutRehome:
    """A cut pulls characters the send-time sinks filed ahead back into the
    sender's outbox, where their departure tick decides their fate."""

    @staticmethod
    def _prescheduled(g: PortGraph) -> tuple[int, Wire]:
        """The first tick at whose end a non-root node's character sits in
        the wheel at least three ticks ahead, and the wire it travels."""
        engine = FlatDynamicEngine(g, [GTDProcessor() for _ in g.nodes()], [])
        engine.start()
        while engine.tick < 100:
            engine.step_tick()
            for bucket in engine._wheel.slots:
                if bucket.tick < engine.tick + 3:
                    continue
                for dst in bucket.nodes:
                    for packed in bucket.lanes[dst]:
                        in_port = (packed >> PORT_SHIFT) & PORT_MASK
                        wire = g.in_wire(dst, in_port)
                        if wire.src != engine.root:
                            return engine.tick, wire
        raise AssertionError("no send-time character scheduled ahead")

    @pytest.mark.parametrize("heal", [False, True], ids=["stays-cut", "healed"])
    def test_rehomed_characters_match_the_object_backend(self, heal):
        g = spare_ring(8)
        cut_tick, wire = self._prescheduled(g)
        ops = [WireMutation(cut_tick, "cut", wire)]
        if heal:  # back before any rehomed character departs
            ops.append(WireMutation(cut_tick + 1, "heal", wire))
        runs = {}
        for engine_cls in (DynamicEngine, FlatDynamicEngine):
            procs = [GTDProcessor() for _ in g.nodes()]
            engine = engine_cls(g, procs, ops)
            engine.start()
            while engine.tick < cut_tick:
                engine.step_tick()
            if engine_cls is FlatDynamicEngine:
                rehomed = [
                    entry
                    for entry in procs[wire.src]._outbox
                    if entry.out_port == wire.out_port
                ]
                assert rehomed and all(e.due_tick >= cut_tick + 2 for e in rehomed)
                # the last rehomed character leaves after the heal op
                due = max(e.due_tick for e in rehomed)
                while engine.tick < due - 1:
                    engine.step_tick()
                lost = engine.lost_characters
                engine.step_tick()
                bucket = engine._wheel.slots[(due + 1) % WHEEL_SLOTS]
                refiled = bucket.tick == due + 1 and any(
                    (packed >> PORT_SHIFT) & PORT_MASK == wire.in_port
                    for packed in bucket.lanes.get(wire.dst, ())
                )
                if heal:
                    assert refiled and engine.lost_characters == lost
                else:
                    assert not refiled and engine.lost_characters > lost
            engine.run_to_idle(max_ticks=50_000)
            runs[engine_cls] = (
                engine.tick,
                [repr(event) for event in engine.transcript.events()],
                dict(engine.metrics.emitted),
                dict(engine.metrics.delivered),
                engine.lost_characters,
            )
        assert runs[FlatDynamicEngine] == runs[DynamicEngine]
        assert (runs[DynamicEngine][-1] == 0) is heal


class TestWireStateBookkeeping:
    def test_added_wire_on_cut_port_keeps_base_wire_healable(self):
        g = spare_ring(6)
        state = WireState(g)
        base = g.out_wire(2, 1)
        state.cut(base)
        assert base in state.heal_candidates()
        borrowed = Wire(2, 1, 4, 3)  # an addition borrowing the cut port
        state.attach(borrowed)
        assert base not in state.heal_candidates()  # port occupied
        state.cut(borrowed)
        assert base in state.heal_candidates()  # healable again
        state.attach(base)
        assert state.heal_candidates() == []
        assert state.snapshot() == g


class TestTimelineRuns:
    def test_timeline_run_reports_phase_and_ops(self):
        g = spare_ring(8)
        program = compile_timeline("frontier:k=2@0.25", g, seed=0)
        result = run_dynamic_gtd(
            g, program, max_ticks=program.horizon * 3 + 1000
        )
        assert result.outcome is not DynamicOutcome.ACCURATE
        assert result.applied_ops == 2
        assert result.phase.startswith("cut@")
        assert result.hops > 0

    def test_plain_mutation_list_has_no_phase(self):
        g = spare_ring(6)
        result = run_dynamic_gtd(g, [])
        assert result.outcome is DynamicOutcome.ACCURATE
        assert result.phase == ""
        assert result.hops == result.metrics.total_delivered

    def test_storm_then_full_heal_can_recover(self):
        # heal@ before the DFS revisits everything is not guaranteed to
        # save the map, but the final topology must equal the base graph
        # whenever every storm victim healed.
        g = spare_ring(10)
        program = compile_timeline(
            "storm:p=0.3@0.1+heal@0.15", g, seed=3
        )
        kinds = [op.kind for op in program.ops]
        assert kinds.count("cut") == kinds.count("heal")
        result = run_dynamic_gtd(g, program, max_ticks=program.horizon * 4)
        assert result.final_topology == g

    def test_phase_outcome_counts_aggregates(self):
        g = spare_ring(8)
        results = []
        for seed in range(3):
            program = compile_timeline("frontier:k=1@0.3", g, seed=seed)
            results.append(
                run_dynamic_gtd(g, program, max_ticks=program.horizon * 3)
            )
        rows = phase_outcome_counts(results)
        assert rows, "timeline runs must land in a phase"
        assert sum(n for _, _, n in rows) == 3
        for phase, outcome, _ in rows:
            assert "@" in phase
            assert outcome in {o.value for o in DynamicOutcome}

    def test_static_results_are_skipped_by_phase_table(self):
        class Shell:
            phase = ""
            outcome = "exact"

        assert phase_outcome_counts([Shell(), Shell()]) == ()


# ----------------------------------------------------------------------
# the campaign axis
# ----------------------------------------------------------------------
class TestFaultAxis:
    def test_timeline_fault_parses_and_canonicalizes(self):
        fault = parse_fault("storm:p=0.10@0.50")
        assert fault.kind == "timeline"
        assert str(fault) == "storm:p=0.1@0.5"

    def test_legacy_kinds_unchanged(self):
        assert str(parse_fault("shutdown:0.10")) == "shutdown:0.1"
        assert str(parse_fault("cut:0.50")) == "cut:0.5"
        assert parse_fault("none").kind == "none"

    def test_unknown_kind_still_a_fault_error(self):
        with pytest.raises(ReproError, match="unknown fault model"):
            parse_fault("melt:1")

    def test_scenario_spec_hash_invariant_across_spellings(self):
        # the satellite regression: equivalent spellings, equal addresses
        pairs = [
            ("cut:0.5", "cut:0.50"),
            ("shutdown:0.1", "shutdown:0.100"),
            ("storm:p=0.2@0.4", "storm:p=0.20@0.40"),
            ("churn:rate=0.05,period=0.25", "churn:rate=0.050,period=0.250"),
            ("cut@0.5", "cut:n=1@0.5"),
        ]
        for a, b in pairs:
            sa = Scenario("spare-ring", 10, a, 1)
            sb = Scenario("spare-ring", 10, b, 1)
            assert sa == sb, (a, b)
            assert sa.spec_hash() == sb.spec_hash(), (a, b)

    def test_spec_hashes_match_committed_goldens(self):
        """SPEC_HASH_FORMAT golden values: a changed canonical form must be
        a deliberate format bump, never an accident."""
        goldens = {
            ("de-bruijn", 8, "none", 0, "object"):
                "beb84c93761c1775ea9455b3b06a10a8c49ab6095183a603bfec4d2be20a5a92",
            ("de-bruijn", 8, "shutdown:0.1", 3, "object"):
                "7437ac071feff7462a689997c65d4ac3f91adf39f3b90918cbcf399007ca0f8c",
            ("spare-ring", 10, "cut:0.5", 1, "object"):
                "af48e6d2c5103e5697083ab2dc24e35ef095f34ed96f24f60078b01d21070c76",
            ("spare-ring", 10, "add:0.5", 2, "flat"):
                "2ccbbdcd1ebe71efa7f8769a3e97ab4a794e0d4cebc757d9846e02ce6e218b2a",
            ("spare-ring", 10, "storm:p=0.2@0.4+heal@0.9", 4, "object"):
                "0c607d8d2cf8c57a7936a3254f0c7a2f4955a73b6219ac32e2afa46e47bb42bc",
            ("spare-ring", 12, "churn:rate=0.05,period=0.25", 0, "object"):
                "7665c055dd1490a214d31574004533b3a6e48c9aae76abf1f59511cd6a2882a2",
        }
        for (family, size, fault, seed, backend), expected in goldens.items():
            scenario = Scenario(family, size, fault, seed, backend)
            assert scenario.spec_hash() == expected, scenario

    def test_timeline_scenario_runs_and_stores_phase(self, tmp_path):
        from repro.store import ResultStore

        scenario = Scenario("spare-ring", 8, "frontier:k=1@0.3", 0)
        result = run_scenario(scenario)
        assert result.phase.startswith("cut@")
        store = ResultStore(tmp_path / "store")
        store.put(result)
        reopened = ResultStore(tmp_path / "store")
        assert reopened.get(scenario) == result


# ----------------------------------------------------------------------
# fault legality: every kind x every family (satellite property test)
# ----------------------------------------------------------------------
TIMELINE_FAULTS = [
    "storm:p=0.3@0.4",
    "churn:rate=0.2,period=0.3",
    "frontier:k=2@0.5",
    "cut:n=2@0.5",
    "add:n=2@0.5",
    "cut@0.3+heal@0.7",
]


@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
@pytest.mark.parametrize("fault", ["shutdown:0.2"] + TIMELINE_FAULTS)
def test_fault_legality_on_every_family(family, fault):
    """Applying any fault kind to any family yields a legal strongly-
    connected PortGraph or raises TopologyError — never a silently
    illegal graph."""
    graph = build_family(family, 9, seed=0)
    model = parse_fault(fault)
    if model.kind == "shutdown":
        try:
            degraded = shutdown_out_ports(graph, model.param, seed=11)
        except TopologyError:
            return
        assert is_strongly_connected(degraded)
        return
    try:
        program = model.timeline.compile(graph, horizon=120, seed=11)
        final = program.final_topology(graph)
    except TopologyError:
        return  # infeasible on this family: loud, not silent
    assert final.frozen
    assert is_strongly_connected(final)


# ----------------------------------------------------------------------
# fault sampling determinism across processes (satellite)
# ----------------------------------------------------------------------
def test_shutdown_pattern_identical_in_subprocess():
    graph = build_family("hypercube", 16, seed=0)
    local = sorted(shutdown_out_ports(graph, 0.2, seed=42).wires())
    script = (
        "from repro.campaigns.spec import build_family\n"
        "from repro.topology.faults import shutdown_out_ports\n"
        "g = build_family('hypercube', 16, seed=0)\n"
        "print(sorted(shutdown_out_ports(g, 0.2, seed=42).wires()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "99"},
        cwd=str(Path(__file__).parent.parent),
    )
    assert out.stdout.strip() == repr(local)


def test_timeline_program_identical_in_subprocess():
    graph = build_family("spare-ring", 10, seed=0)
    tl_spec = "storm:p=0.3@0.3+heal@0.8+churn:rate=0.1,period=0.4"
    local = parse_timeline(tl_spec).compile(graph, horizon=250, seed=5).ops
    script = (
        "from repro.campaigns.spec import build_family\n"
        "from repro.dynamics import parse_timeline\n"
        "g = build_family('spare-ring', 10, seed=0)\n"
        f"print(parse_timeline({tl_spec!r}).compile(g, horizon=250, seed=5).ops)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "7"},
        cwd=str(Path(__file__).parent.parent),
    )
    assert out.stdout.strip() == repr(local)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_faults_subcommand_lists_vocabulary(self, capsys):
        from repro.cli import main

        assert main(["faults"]) == 0
        text = capsys.readouterr().out
        for kind in ("shutdown", "churn", "storm", "flap", "frontier", "heal"):
            assert kind in text

    def test_map_timeline_runs_and_reports_phases(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "map", "--family", "spare-ring", "--size", "8",
                    "--timeline", "frontier:k=1@0.3", "--backend", "flat",
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "timeline program" in text
        assert "outcome=" in text
        assert "phase" in text

    def test_map_timeline_rejects_repeats(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "map", "--family", "spare-ring", "--size", "8",
                    "--timeline", "cut@0.5", "--repeats", "3",
                ]
            )
            == 2
        )
        assert "campaign --timeline" in capsys.readouterr().err

    def test_campaign_timeline_axis_and_phase_table(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "campaign", "--families", "spare-ring", "--sizes", "8",
                    "--timeline", "frontier:k=1@0.3", "--seeds", "2",
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "outcomes by timeline phase" in text
        assert "frontier:k=1@0.3" in text
