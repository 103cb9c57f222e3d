"""The executor's static-run memo and the wiring-keyed graph memo.

The paper's processors are identical, synchronous and deterministic, so a
static cell's result is a pure function of its wiring and backend.  The
executor therefore builds each distinct wiring once (families outside
``SEEDED_FAMILIES`` ignore the seed) and reduces each distinct static run
once, attaching every cell's own scenario to the shared value.  These
tests count that work, pin the family declaration it relies on, and check
that memoized cells equal fresh and ``object``-backend runs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaigns import executor
from repro.campaigns.spec import (
    FAMILY_BUILDERS,
    SEEDED_FAMILIES,
    CampaignSpec,
    build_family,
)
from repro.store import ResultStore

#: 2,400 cells over four distinct wirings: two deterministic families at
#: two sizes each
SWEEP = CampaignSpec(
    families=("directed-ring", "hypercube"),
    sizes=(4, 8),
    faults=("none",),
    seeds=tuple(range(600)),
    backends=("flat",),
)


def test_each_distinct_wiring_is_built_and_reduced_once(monkeypatch):
    calls = {"build_family": 0, "rca_episodes": 0}

    def counting(name):
        real = getattr(executor, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, name, wrapper)

    counting("build_family")
    counting("rca_episodes")
    executor.clear_scenario_caches()
    campaign = executor.run_campaign(SWEEP, jobs=1)
    assert len(campaign) == 2400
    assert all(r.outcome == "exact" for r in campaign.results)
    assert calls == {"build_family": 4, "rca_episodes": 4}
    # each cell still carries its own scenario
    assert [r.scenario for r in campaign.results] == SWEEP.scenarios()


@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
def test_seeded_families_are_exactly_the_builders_that_read_the_seed(family):
    if family in SEEDED_FAMILIES:
        assert any(
            build_family(family, size, 0) != build_family(family, size, 1)
            for size in (4, 9, 16)
        ), f"{family} is declared seeded but ignores the seed"
    else:
        for size in (4, 9):
            assert build_family(family, size, 0) == build_family(family, size, 1), (
                f"{family} reads the seed: add it to SEEDED_FAMILIES"
            )


#: static cells only, on a deterministic and a seeded family
STATIC_SPEC = CampaignSpec(
    families=("de-bruijn", "random", "spare-ring"),
    sizes=(8,),
    faults=("none", "shutdown:0.15"),
    seeds=(0, 1, 2),
    backends=("flat",),
)


def test_memoized_static_cells_equal_fresh_and_object_runs():
    executor.clear_scenario_caches()
    for scenario in STATIC_SPEC.scenarios():
        first = executor.run_scenario(scenario)
        memo = executor.run_scenario(scenario)  # a memo hit
        assert memo == first and memo.scenario == scenario
        assert memo == executor.run_scenario(scenario, fresh=True), scenario.label
        oracle = executor.run_scenario(
            replace(scenario, backend="object"), fresh=True
        )
        assert replace(oracle, scenario=scenario) == memo, scenario.label
    executor.clear_scenario_caches()
    assert executor._static_memo.cache_info().currsize == 0


def test_seed_sweep_store_is_invariant_in_jobs_and_resume(tmp_path):
    spec = CampaignSpec(
        families=("directed-ring", "random"),
        sizes=(4,),
        faults=("none", "shutdown:0.15"),
        seeds=tuple(range(40)),
        backends=("flat",),
    )
    executor.clear_scenario_caches()
    serial = executor.run_campaign(spec, jobs=1, store=tmp_path / "serial")
    try:
        parallel = executor.run_campaign(spec, jobs=2, store=tmp_path / "parallel")
    finally:
        executor.shutdown_worker_pool()
    assert parallel.results == serial.results
    assert ResultStore(tmp_path / "parallel").results_for(spec) == serial.results
    resumed = executor.run_campaign(spec, jobs=1, store=tmp_path / "serial")
    assert resumed.results == serial.results
    assert resumed.stats().to_json() == serial.stats().to_json()


def test_static_only_sweep_makes_no_pool_checkouts():
    # the static memo runs each (graph, backend) once per worker, so a
    # pooled static engine would never be checked out again
    spec = CampaignSpec(
        families=("de-bruijn", "directed-ring"),
        sizes=(8,),
        faults=("none", "shutdown:0.1"),
        seeds=(0, 1),
        backends=("flat", "object"),
    )
    executor.clear_scenario_caches()
    executor.run_campaign(spec, jobs=1)
    pool = executor._ENGINE_POOL
    assert pool.hits + pool.misses == 0
    # dynamic cells still draw from the pool
    executor.run_scenario(replace(spec.scenarios()[0], fault="cut:0.5"))
    assert pool.misses > 0
