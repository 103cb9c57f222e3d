"""Engine reuse: reset-then-run must equal fresh-construction, byte for byte.

The zero-rebuild pipeline (compiled-artifact caches, ``Engine.reset``,
:class:`~repro.sim.run.EnginePool`, the campaign executor's per-worker
memos) is pure reuse — none of it may be observable in any run output.
These tests enforce that differentially: every workload runs once on a
fresh engine and once (or more) on a reused one, and transcripts, tick
counts and traffic metrics are compared bit for bit.

A deeper sweep (more families, seeds and timelines) runs when
``REPRO_PARITY_FUZZ=1`` — the same switch as the backend-parity fuzz.
"""

from __future__ import annotations

import os

import pytest

from repro.campaigns.executor import clear_scenario_caches, run_scenario
from repro.campaigns.spec import Scenario, build_family
from repro.dynamics.experiment import compile_timeline, run_dynamic_gtd
from repro.protocol.bca import run_single_bca
from repro.protocol.rca import run_single_rca
from repro.protocol.runner import determine_topology
from repro.sim.characters import CharKernel, clear_kernel_cache, kernel_for
from repro.sim.run import ENGINE_BACKENDS, EnginePool
from repro.topology import generators
from repro.topology.compile import (
    CUT,
    TopologyPatcher,
    clear_compiled_cache,
    compile_topology,
    compiled_topology,
)
from tests.test_backend_parity import transcript_bytes

BACKENDS = ("object", "flat")

FUZZ = os.environ.get("REPRO_PARITY_FUZZ") == "1"


def assert_same_topology_result(a, b) -> None:
    assert a.ticks == b.ticks
    assert a.drained_ticks == b.drained_ticks
    assert transcript_bytes(a.transcript) == transcript_bytes(b.transcript)
    assert a.metrics.delivered == b.metrics.delivered
    assert a.metrics.emitted == b.metrics.emitted
    assert a.rca_runs == b.rca_runs and a.bca_runs == b.bca_runs


def assert_same_dynamic_result(a, b) -> None:
    assert a.outcome == b.outcome
    assert a.ticks == b.ticks
    assert transcript_bytes(a.transcript) == transcript_bytes(b.transcript)
    assert a.metrics.delivered == b.metrics.delivered
    assert a.metrics.emitted == b.metrics.emitted
    assert a.lost_characters == b.lost_characters
    assert a.hops == b.hops
    assert a.applied_ops == b.applied_ops
    assert a.phase == b.phase


# ----------------------------------------------------------------------
# the compiled-artifact caches
# ----------------------------------------------------------------------
class TestCompiledCache:
    def test_same_wiring_shares_one_artifact(self):
        a = build_family("de-bruijn", 8, 0)
        b = build_family("de-bruijn", 8, 1)  # seed is unused: same wiring
        assert compiled_topology(a) is compiled_topology(b)

    def test_distinct_wirings_get_distinct_artifacts(self):
        ring = generators.directed_ring(6)
        line = generators.bidirectional_line(6)
        assert compiled_topology(ring) is not compiled_topology(line)

    def test_fork_isolates_mutation_from_the_shared_artifact(self):
        graph = generators.bidirectional_ring(5)
        shared = compiled_topology(graph)
        fork = shared.fork()
        assert fork is not shared
        assert fork.pristine is shared
        assert fork.wire_dst == shared.wire_dst
        # CSR census is shared (never patched), wire tables are private
        assert fork.out_ports is shared.out_ports
        assert fork.wire_dst is not shared.wire_dst
        patcher = TopologyPatcher(fork)
        slot = patcher.slot(2, 1)
        patcher.cut(slot)
        assert fork.wire_dst[slot] == CUT
        assert shared.wire_dst[slot] != CUT, "fork leaked into the shared artifact"
        patcher.reset()
        assert fork.wire_dst == shared.wire_dst
        assert not patcher.touched

    def test_fork_of_fork_stays_anchored_to_the_original(self):
        graph = generators.bidirectional_ring(4)
        shared = compiled_topology(graph)
        assert shared.fork().fork().pristine is shared

    def test_patcher_on_uncached_compile_still_copies_a_base(self):
        graph = generators.directed_ring(4)
        topo = compile_topology(graph)  # pure function, no pristine
        patcher = TopologyPatcher(topo)
        slot = patcher.slot(1, 1)
        original = topo.wire_dst[slot]
        patcher.cut(slot)
        patcher.restore(slot)
        assert topo.wire_dst[slot] == original

    def test_cache_clear(self):
        graph = generators.directed_ring(5)
        before = compiled_topology(graph)
        clear_compiled_cache()
        assert compiled_topology(graph) is not before


class TestInternerCache:
    """The character kernel is the one per-delta interner."""

    def test_shared_per_delta(self):
        assert kernel_for(3) is kernel_for(3)
        assert kernel_for(3) is not kernel_for(4)

    def test_shared_interner_matches_fresh_enumeration(self):
        shared = kernel_for(2)
        fresh = CharKernel(2)
        assert shared.chars[: len(fresh.chars)] == fresh.chars

    def test_cache_clear(self):
        before = kernel_for(3)
        clear_kernel_cache()
        assert kernel_for(3) is not before


# ----------------------------------------------------------------------
# reset parity: static protocol runs
# ----------------------------------------------------------------------
GTD_CASES = [
    ("de-bruijn", 8, 0),
    ("bidirectional-ring", 7, 0),
    ("random", 9, 3),
]
if FUZZ:
    GTD_CASES += [
        ("de-bruijn", 16, 0),
        ("hypercube", 8, 0),
        ("directed-torus", 9, 0),
        ("manhattan", 9, 0),
        ("tree-with-loop", 7, 1),
        ("random", 12, 5),
        ("random", 14, 7),
        ("spare-ring", 12, 0),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family,size,seed", GTD_CASES)
def test_gtd_reset_run_equals_fresh_run(backend, family, size, seed):
    graph = build_family(family, size, seed)
    fresh = determine_topology(graph, backend=backend)
    pool = EnginePool()
    first = determine_topology(graph, backend=backend, pool=pool)
    reused = determine_topology(graph, backend=backend, pool=pool)
    assert pool.hits == 1 and pool.misses == 1
    assert_same_topology_result(fresh, first)
    assert_same_topology_result(fresh, reused)
    # the first run's captured transcript/metrics survive the reset intact
    assert transcript_bytes(first.transcript) == transcript_bytes(fresh.transcript)
    assert first.metrics.delivered == fresh.metrics.delivered


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_engine_is_the_same_object(backend):
    graph = build_family("de-bruijn", 8, 0)
    pool = EnginePool()
    engine_cls = ENGINE_BACKENDS[backend]
    from repro.protocol.gtd import GTDProcessor

    a = pool.checkout(engine_cls, graph, GTDProcessor)
    pool.checkin(a)
    b = pool.checkout(engine_cls, graph, GTDProcessor)
    assert a is b, "pool must reuse, not rebuild"
    assert b.tick == 0 and b.is_idle()


def test_pool_evicts_cold_keys_beyond_the_global_bound():
    """Never-recurring keys (e.g. shutdown cells' degraded graphs) must
    not accumulate engines without bound in a long-lived worker."""
    from repro.protocol.gtd import GTDProcessor

    pool = EnginePool()
    graphs = [generators.random_strongly_connected(6, seed=s) for s in range(40)]
    distinct = {compiled_topology(g) for g in graphs}  # wirings do differ
    assert len(distinct) > EnginePool.MAX_IDLE_TOTAL
    for graph in graphs:
        engine = pool.checkout(ENGINE_BACKENDS["object"], graph, GTDProcessor)
        pool.checkin(engine)
    total = sum(len(stack) for stack in pool._idle.values())
    assert total <= EnginePool.MAX_IDLE_TOTAL
    # the hottest (most recent) key survived, the coldest were evicted
    hits_before = pool.hits
    last = pool.checkout(ENGINE_BACKENDS["object"], graphs[-1], GTDProcessor)
    assert pool.hits == hits_before + 1 and last is engine


def test_pool_keys_separate_backends_and_processor_types():
    from repro.protocol.gtd import GTDProcessor
    from repro.protocol.rca import ScriptedRCADriver

    graph = build_family("de-bruijn", 8, 0)
    pool = EnginePool()
    a = pool.checkout(ENGINE_BACKENDS["object"], graph, GTDProcessor)
    pool.checkin(a)
    flat = pool.checkout(ENGINE_BACKENDS["flat"], graph, GTDProcessor)
    scripted = pool.checkout(ENGINE_BACKENDS["object"], graph, ScriptedRCADriver)
    assert flat is not a and scripted is not a


# ----------------------------------------------------------------------
# reset parity: scripted single-RCA / single-BCA episode loops
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_rca_episode_loop_reuses_one_engine(backend):
    graph = generators.bidirectional_line(10)
    pool = EnginePool()
    for initiator in (1, 5, 9, 5, 1):
        fresh = run_single_rca(graph, initiator=initiator, backend=backend)
        pooled = run_single_rca(graph, initiator=initiator, backend=backend, pool=pool)
        assert fresh.ticks == pooled.ticks
        assert fresh.completed_at == pooled.completed_at
        assert transcript_bytes(fresh.transcript) == transcript_bytes(
            pooled.transcript
        )
    assert pool.misses == 1 and pool.hits == 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_bca_episode_loop_reuses_one_engine(backend):
    graph = generators.bidirectional_ring(8)
    pool = EnginePool()
    for node in (3, 5, 3):
        fresh = run_single_bca(graph, node, 1, backend=backend)
        pooled = run_single_bca(graph, node, 1, backend=backend, pool=pool)
        assert fresh.delivered_at == pooled.delivered_at
        assert fresh.initiator_done_at == pooled.initiator_done_at
        assert fresh.target_resumed_at == pooled.target_resumed_at
        assert fresh.ticks == pooled.ticks
    assert pool.misses == 1 and pool.hits == 2


def test_pooled_engine_sends_a_stray_interned_after_it_was_built():
    # the shared kernel may intern a stray message after a pooled engine
    # was built; the reused engine must still count it when it sends it
    clear_kernel_cache()
    graph = generators.bidirectional_ring(8)
    pool = EnginePool()
    run_single_bca(graph, 3, 1, backend="flat", message="EARLY", pool=pool)
    fresh = run_single_bca(graph, 3, 1, backend="flat", message="LATE")
    pooled = run_single_bca(graph, 3, 1, backend="flat", message="LATE", pool=pool)
    assert pool.hits == 1
    assert transcript_bytes(fresh.engine.transcript) == transcript_bytes(
        pooled.engine.transcript
    )
    assert fresh.engine.metrics.delivered == pooled.engine.metrics.delivered


# ----------------------------------------------------------------------
# reset parity: timeline-driven dynamic runs
# ----------------------------------------------------------------------
TIMELINES = [
    "churn:rate=0.1,period=0.25,heal=0.8,until=0.8",
    "storm:p=0.2@0.4",
    "cut@0.5+heal@0.7",
]
if FUZZ:
    TIMELINES += [
        "flap:wire=1:1,on=0.05,off=0.15,cycles=3",
        "frontier:k=2@0.5",
        "storm:p=0.1@0.3+heal:n=2@0.6",
        "add@0.4",
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("timeline", TIMELINES)
def test_dynamic_reset_run_equals_fresh_run(backend, timeline):
    graph = build_family("spare-ring", 10, 0)
    program = compile_timeline(timeline, graph, seed=7)
    fresh = run_dynamic_gtd(graph, program, backend=backend)
    pool = EnginePool()
    first = run_dynamic_gtd(graph, program, backend=backend, pool=pool)
    reused = run_dynamic_gtd(graph, program, backend=backend, pool=pool)
    assert_same_dynamic_result(fresh, first)
    assert_same_dynamic_result(fresh, reused)


@pytest.mark.parametrize("backend", BACKENDS)
def test_dynamic_reset_swaps_timelines_cleanly(backend):
    """A reused engine loaded with a *different* program forgets the old one."""
    graph = build_family("spare-ring", 10, 1)
    heavy = compile_timeline(TIMELINES[0], graph, seed=3)
    light = compile_timeline("cut@1.5", graph, seed=3)
    pool = EnginePool()
    run_dynamic_gtd(graph, heavy, backend=backend, pool=pool)  # dirty the engine
    fresh = run_dynamic_gtd(graph, light, backend=backend)
    reused = run_dynamic_gtd(graph, light, backend=backend, pool=pool)
    assert_same_dynamic_result(fresh, reused)
    # and back again: the light program must not leak into the heavy one
    fresh_heavy = run_dynamic_gtd(graph, heavy, backend=backend)
    reused_heavy = run_dynamic_gtd(graph, heavy, backend=backend, pool=pool)
    assert_same_dynamic_result(fresh_heavy, reused_heavy)


# ----------------------------------------------------------------------
# the campaign cache layer: cached path == fresh path, scenario for scenario
# ----------------------------------------------------------------------
SCENARIO_MATRIX = [
    Scenario("spare-ring", 8, fault, seed, backend)
    for backend in BACKENDS
    for fault in ("none", "shutdown:0.15", "cut:0.5", "add:0.6", "storm:p=0.2@0.5")
    for seed in ((0, 1) if FUZZ else (0,))
]


def test_run_scenario_cached_equals_fresh():
    clear_scenario_caches()
    for scenario in SCENARIO_MATRIX:
        cached = run_scenario(scenario)
        again = run_scenario(scenario)
        fresh = run_scenario(scenario, fresh=True)
        assert cached == fresh, f"cache changed the result of {scenario.label}"
        assert again == fresh


@pytest.mark.skipif(not FUZZ, reason="extended fuzz sweep (REPRO_PARITY_FUZZ=1)")
def test_run_scenario_cached_equals_fresh_fuzz():
    clear_scenario_caches()
    for family, size in (("random", 10), ("de-bruijn", 8), ("spare-ring", 12)):
        for fault in ("none", "cut:0.3", "cut:0.9", "shutdown:0.2",
                      "churn:rate=0.1,period=0.3,heal=0.7,until=0.9"):
            for seed in (0, 2):
                for backend in BACKENDS:
                    if family != "spare-ring" and fault.startswith("churn"):
                        continue
                    scenario = Scenario(family, size, fault, seed, backend)
                    assert run_scenario(scenario) == run_scenario(
                        scenario, fresh=True
                    ), scenario.label
