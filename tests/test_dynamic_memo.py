"""The executor's dynamic-run memo and the reduction it relies on.

The paper's processors are identical, synchronous and deterministic, so a
dynamic GTD run on a fixed wiring is a pure function of the graph, its
effective wire ops and its tick budget.  The campaign executor memoizes
runs on exactly that key and relabels the shared result per cell.  These
tests pin the post-terminal reduction the key depends on, and check that
memoized cells equal fresh runs on both backends and for any ``jobs``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.campaigns import executor
from repro.campaigns.spec import CampaignSpec, build_family
from repro.dynamics.engine import WireMutation
from repro.dynamics.experiment import run_dynamic_gtd
from repro.topology.faults import pick_cut_victim
from repro.util.rng import make_rng


def test_op_at_terminal_tick_fires_op_after_does_not():
    """The reduction drops ops strictly *after* the terminal tick.

    An op scheduled at exactly the tick the protocol terminates on still
    fires (ops apply after that tick's deliveries, before the until check
    concludes the run is over at the next iteration) — so the executor
    may only reduce a program to a healthy run when every op lands
    strictly later.  This pins the boundary the reduction relies on.
    """
    graph = build_family("spare-ring", 10, 0)
    terminal = run_dynamic_gtd(graph, (), backend="flat").ticks
    wire = pick_cut_victim(graph, make_rng(0))

    def run_with_cut_at(tick):
        return run_dynamic_gtd(
            graph,
            (WireMutation(tick=tick, kind="cut", wire=wire),),
            max_ticks=terminal * 3 + 1000,
            backend="flat",
        )

    assert run_with_cut_at(terminal).applied_ops == 1
    after = run_with_cut_at(terminal + 1)
    assert after.applied_ops == 0
    assert after.ticks == terminal, "an unfired op must not disturb the run"


#: cut:1.5 lands after the terminal tick (reduced to the healthy run) and
#: frontier cuts depend only on the graph: on a deterministic family both
#: faults lower to one key each, whatever the seed
MEMO_SPEC = CampaignSpec(
    families=("spare-ring",),
    sizes=(10,),
    faults=("cut:1.5", "frontier:k=2@0.3"),
    seeds=(0, 1, 2),
    backends=("flat",),
)


def test_one_simulation_per_distinct_key():
    graphs = {build_family("spare-ring", 10, seed) for seed in MEMO_SPEC.seeds}
    assert len(graphs) == 1, "spare-ring must build one wiring for every seed"
    executor.clear_scenario_caches()
    campaign = executor.run_campaign(MEMO_SPEC, jobs=1)
    info = executor._dynamic_run.cache_info()
    assert info.misses == 2 and info.hits == len(campaign) - 2
    # the relabel keeps per-cell fields: the seed-shared frontier run
    # still ends in its own timeline phase, the legacy cut reports none
    for result in campaign.results:
        if result.scenario.fault == "cut:1.5":
            assert result.phase == "" and result.hops == 0
        else:
            assert result.phase.startswith("cut@") and result.hops > 0
    executor.clear_scenario_caches()
    assert executor._dynamic_run.cache_info().currsize == 0


def test_memoized_cells_equal_fresh_and_object_runs():
    executor.clear_scenario_caches()
    campaign = executor.run_campaign(MEMO_SPEC, jobs=1)
    for scenario, result in zip(MEMO_SPEC.scenarios(), campaign.results):
        assert result == executor.run_scenario(scenario, fresh=True)
        oracle = executor.run_scenario(replace(scenario, backend="object"))
        assert replace(oracle, scenario=scenario) == result, scenario.label


def test_memo_is_invariant_in_jobs():
    executor.clear_scenario_caches()
    serial = executor.run_campaign(MEMO_SPEC, jobs=1)
    try:
        parallel = executor.run_campaign(MEMO_SPEC, jobs=2)
    finally:
        executor.shutdown_worker_pool()
    assert parallel.results == serial.results

