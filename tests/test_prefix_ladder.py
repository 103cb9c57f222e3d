"""Prefix ladders: dynamic runs restored from checkpoints of the healthy run.

A dynamic run is the undisturbed run, tick for tick, until its first wire
op fires, so the campaign executor keeps checkpoints ("rungs") of each
healthy run and starts every dynamic run from the latest rung at or before
its first op.  These tests pin the contract that makes that invisible:

* processor state capture covers every register a processor carries;
* every cached cell equals its fresh run, in matrix order, in reversed
  order and for any ``jobs``, on both backends;
* the rung boundaries (an op exactly at a rung, an op at tick 0, a
  healthy run restored from the static terminal rung, a restored branch
  that deadlocks) behave exactly like unladdered runs;
* the ladder counters, for a small matrix, count what they claim.

``REPRO_PARITY_FUZZ=1`` widens the parity matrix.  The ``jobs=2`` test
reads ``REPRO_ROBUSTNESS_START_METHOD`` so CI can run it under fork and
spawn.
"""

from __future__ import annotations

import os

import pytest

from repro.campaigns import executor
from repro.campaigns.spec import CampaignSpec, build_family
from repro.dynamics.engine import WireMutation
from repro.dynamics.experiment import run_dynamic_gtd
from repro.protocol.gtd import GTDProcessor
from repro.protocol.runner import determine_topology
from repro.sim.flatcore import FlatEngine
from repro.sim.ladder import LadderStats, PrefixLadder
from repro.sim.run import EnginePool
from repro.topology.faults import pick_cut_victim
from repro.util.rng import make_rng

FUZZ = os.environ.get("REPRO_PARITY_FUZZ") == "1"
START_METHOD = os.environ.get("REPRO_ROBUSTNESS_START_METHOD") or None

BACKENDS = ("flat", "object")


def _outcome(result):
    """Every observable of a dynamic run, as comparable values."""
    return (
        result.outcome,
        result.ticks,
        result.hops,
        result.applied_ops,
        result.lost_characters,
        result.phase,
        list(result.transcript),
        dict(result.metrics.delivered),
        dict(result.metrics.emitted),
    )


def _run(graph, ops, budget, backend, ladder=None):
    return run_dynamic_gtd(
        graph, ops, max_ticks=budget, backend=backend, checkpoints=ladder
    )


def _healthy_ticks(graph, backend="flat") -> int:
    return determine_topology(graph, backend=backend).ticks


def _cut(graph, tick, seed=0):
    wire = pick_cut_victim(graph, make_rng(seed))
    return (WireMutation(tick=tick, kind="cut", wire=wire),)


# ----------------------------------------------------------------------
# processor state capture
# ----------------------------------------------------------------------
#: attach-time wiring and engine-installed fast paths: not registers
_PLUMBING = {"ctx", "_direct_sink", "_purge_hook", "_direct_broadcast"}
_POISON = object()


def _slots(obj) -> tuple[str, ...]:
    return getattr(type(obj), "__slots__", ())


def _poison(proc) -> None:
    """Overwrite every register of ``proc`` with a sentinel, in place.

    Register bundles (slots objects, and dicts of them) keep their
    identity — the flat aliases point at them — so only their fields are
    overwritten.
    """
    for name, value in vars(proc).items():
        if name in _PLUMBING:
            continue
        bundles = value.values() if isinstance(value, dict) else (value,)
        if all(_slots(b) for b in bundles):
            for bundle in bundles:
                for field in _slots(bundle):
                    setattr(bundle, field, _POISON)
        else:
            setattr(proc, name, _POISON)


def _same_register(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_register(a[k], b[k]) for k in a)
    if _slots(a):
        return all(getattr(a, f) == getattr(b, f) for f in _slots(a))
    if isinstance(a, list):  # the outbox: shared immutable entries
        return len(a) == len(b) and all(x is y for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("family,seed", [("spare-ring", 0), ("random", 1)])
def test_processor_state_round_trip_covers_every_register(family, seed):
    graph = build_family(family, 10, seed)
    mid = _healthy_ticks(graph) // 2
    engine = FlatEngine(graph, [GTDProcessor() for _ in graph.nodes()])
    engine.start()
    while engine.tick < mid:
        engine.step_tick()
    registers = [name for name in vars(GTDProcessor()) if name not in _PLUMBING]
    busy = 0
    for proc in engine.processors:
        clone = GTDProcessor()
        clone.attach(proc.ctx)
        _poison(clone)
        clone.load_state(proc.save_state())
        for name in registers:
            assert _same_register(getattr(proc, name), getattr(clone, name)), name
        assert clone._marks_og is clone.growing["OG"]
        assert clone._relay_bd is clone.relay["BD"]
        busy += clone.loop.any_set() or clone.has_pending_output() or clone.dfs_seen
    assert busy, "the mid-run rung must hold live protocol state"


# ----------------------------------------------------------------------
# ladder parity through the campaign executor
# ----------------------------------------------------------------------
FAULTS = (
    "cut:0.4",
    "cut:1.5",
    "frontier:k=2@0.3",
    "storm:p=0.3@0.25",
    "churn:rate=0.08,period=0.25,heal=0.9,until=0.7",
)


def _spec() -> CampaignSpec:
    families = ("spare-ring", "random")
    sizes = (10,)
    if FUZZ:
        families += ("torus", "de-bruijn")
        sizes += (16,)
    return CampaignSpec(
        families=families, sizes=sizes, faults=FAULTS, seeds=(0, 1), backends=BACKENDS
    )


@pytest.fixture(scope="module")
def fresh_cells():
    """Every cell of the matrix run with every cache bypassed."""
    return {s: executor.run_scenario(s, fresh=True) for s in _spec().scenarios()}


def test_laddered_cells_equal_fresh_cells(fresh_cells):
    scenarios = _spec().scenarios()
    executor.clear_scenario_caches()
    campaign = executor.run_campaign(scenarios, jobs=1)
    for scenario, result in zip(scenarios, campaign.results):
        assert result == fresh_cells[scenario], scenario.label
    info = executor.prefix_ladder_info()
    assert info.hits > 0 and info.restored_hops > 0


def test_laddered_cells_equal_fresh_cells_in_reversed_order(fresh_cells):
    scenarios = _spec().scenarios()[::-1]
    executor.clear_scenario_caches()
    campaign = executor.run_campaign(scenarios, jobs=1)
    for scenario, result in zip(scenarios, campaign.results):
        assert result == fresh_cells[scenario], scenario.label
    assert executor.prefix_ladder_info().hits > 0


def test_laddered_cells_invariant_in_jobs():
    scenarios = _spec().scenarios()
    executor.clear_scenario_caches()
    serial = executor.run_campaign(scenarios, jobs=1)
    try:
        executor.clear_scenario_caches()
        parallel = executor.run_campaign(scenarios, jobs=2, start_method=START_METHOD)
    finally:
        executor.shutdown_worker_pool()
    assert parallel.results == serial.results


# ----------------------------------------------------------------------
# rung boundaries, at the run_dynamic_gtd level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_first_op_exactly_at_a_rung_tick(backend):
    graph = build_family("spare-ring", 10, 0)
    terminal = _healthy_ticks(graph, backend)
    budget = terminal * 3 + 1000
    at = int(terminal * 0.4)
    ladder = PrefixLadder()
    pool = EnginePool()
    run_dynamic_gtd(
        graph,
        _cut(graph, at, 0),
        max_ticks=budget,
        backend=backend,
        pool=pool,
        checkpoints=ladder,
    )
    assert ladder.ticks() == (at,)
    ops = _cut(graph, at, 3)
    laddered = run_dynamic_gtd(
        graph, ops, max_ticks=budget, backend=backend, pool=pool, checkpoints=ladder
    )
    assert ladder.stats.hits == 1
    reference = _run(graph, ops, budget, backend)
    assert laddered.applied_ops == 1
    assert _outcome(laddered) == _outcome(reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_op_at_tick_zero_takes_and_uses_no_rung(backend):
    graph = build_family("spare-ring", 10, 0)
    terminal = _healthy_ticks(graph, backend)
    budget = terminal * 3 + 1000
    ladder = PrefixLadder()
    ops = _cut(graph, 0, 1)
    laddered = _run(graph, ops, budget, backend, ladder)
    assert len(ladder) == 0
    # a ladder holding rungs is not consulted past a tick-0 op either
    determine_topology(graph, backend=backend, checkpoints=ladder)
    again = _run(graph, ops, budget, backend, ladder)
    assert ladder.ticks() == (terminal,)
    assert ladder.stats == LadderStats(hits=0, misses=2, rungs=1, restored_hops=0)
    reference = _run(graph, ops, budget, backend)
    assert _outcome(laddered) == _outcome(reference) == _outcome(again)


@pytest.mark.parametrize("backend", BACKENDS)
def test_healthy_run_restores_the_static_terminal_rung(backend):
    graph = build_family("random", 10, 1)
    ladder = PrefixLadder()
    static = determine_topology(graph, backend=backend, checkpoints=ladder)
    assert ladder.ticks() == (static.ticks,)
    budget = static.ticks * 3 + 1000
    laddered = _run(graph, (), budget, backend, ladder)
    reference = _run(graph, (), budget, backend)
    assert ladder.stats.hits == 1
    assert ladder.stats.restored_hops == reference.hops
    for field in ("ticks", "hops", "outcome", "applied_ops"):
        assert getattr(laddered, field) == getattr(reference, field), field
    assert list(laddered.transcript) == list(reference.transcript)
    assert _outcome(laddered) == _outcome(reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_restored_branch_that_deadlocks_reports_the_same_ticks(backend):
    graph = build_family("spare-ring", 10, 0)
    terminal = _healthy_ticks(graph, backend)
    budget = terminal * 3 + 1000
    ladder = PrefixLadder()
    earlier = int(terminal * 0.2)
    _run(graph, _cut(graph, earlier, 5), budget, backend, ladder)
    # cutting the ring's first wire mid-run strands the DFS token
    ring_wire = graph.out_wire(0, 1)
    ops = (WireMutation(tick=int(terminal * 0.3), kind="cut", wire=ring_wire),)
    laddered = _run(graph, ops, budget, backend, ladder)
    reference = _run(graph, ops, budget, backend)
    assert ladder.stats.hits == 1
    assert reference.outcome.value == "deadlock"
    assert laddered.ticks == reference.ticks == budget
    assert _outcome(laddered) == _outcome(reference)


def test_fresh_cell_leaves_the_ladders_empty():
    executor.clear_scenario_caches()
    scenario = _spec().scenarios()[0]
    executor.run_scenario(scenario, fresh=True)
    assert not executor._LADDERS
    assert executor.prefix_ladder_info() == LadderStats()


@pytest.mark.parametrize("backend", BACKENDS)
def test_op_at_terminal_tick_fires_op_after_does_not_with_a_ladder(backend):
    """``test_dynamic_memo``'s post-terminal boundary, with rungs in play."""
    graph = build_family("spare-ring", 10, 0)
    ladder = PrefixLadder()
    terminal = determine_topology(graph, backend=backend, checkpoints=ladder).ticks
    wire = pick_cut_victim(graph, make_rng(0))

    def run_with_cut_at(tick):
        return run_dynamic_gtd(
            graph,
            (WireMutation(tick=tick, kind="cut", wire=wire),),
            max_ticks=terminal * 3 + 1000,
            backend=backend,
            checkpoints=ladder,
        )

    assert run_with_cut_at(terminal).applied_ops == 1
    after = run_with_cut_at(terminal + 1)
    assert after.applied_ops == 0
    assert after.ticks == terminal, "an unfired op must not disturb the run"
    assert ladder.stats.hits == 2


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
#: one deterministic wiring for every seed: the ladder is shared by all
COUNTER_SPEC = CampaignSpec(
    families=("spare-ring",),
    sizes=(10,),
    faults=("cut:0.4", "cut:1.5", "frontier:k=2@0.3"),
    seeds=(0, 1, 2),
    backends=("flat",),
)


def test_ladder_counters_for_a_small_matrix():
    executor.clear_scenario_caches()
    executor.run_campaign(COUNTER_SPEC, jobs=1)
    graph = build_family("spare-ring", 10, 0)
    healthy = run_dynamic_gtd(graph, (), backend="flat")
    info = executor.prefix_ladder_info()
    # rungs: the static terminal one, then cut:0.4 (seed 0) and frontier
    # at 0.3 leave theirs.  Misses: those two first runs.  Hits: the
    # healthy run (cut:1.5) restores the terminal rung, and cut:0.4 on
    # seeds 1 and 2 (other victims, so other runs) restore the 0.4 rung;
    # frontier cuts are seed-invariant, so seeds 1 and 2 are memo hits.
    ladder = executor._LADDERS[(graph, "flat")]
    terminal = healthy.ticks
    assert ladder.ticks() == (int(terminal * 0.3), int(terminal * 0.4), terminal)
    assert (info.hits, info.misses, info.rungs) == (3, 2, 3)
    rung_hops = [r.hops for r in ladder._rungs]
    assert rung_hops[-1] == healthy.hops
    assert info.restored_hops == healthy.hops + 2 * rung_hops[1]
    executor.clear_scenario_caches()
    assert executor.prefix_ladder_info() == LadderStats()
    assert not executor._LADDERS
