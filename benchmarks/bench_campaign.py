"""Campaign throughput — the zero-rebuild pipeline against the pre-cache path.

E13 and the dynamics bench gate the *inner* hop loop; this module gates the
unit the ROADMAP's north star is actually measured in: **scenarios per
second** through the campaign executor.  Two execution paths run the same
mixed static+dynamic matrix and must produce scenario-for-scenario
identical results (asserted below, full dataclass equality — outcome,
hops, ticks, episodes, everything):

* **fresh** — ``run_scenario(..., fresh=True)`` with every cache cleared
  before each cell: the graph is rebuilt, the healthy baseline re-measured,
  the engine (CSR tables, character kernel with its packed-wheel encode
  maps) reconstructed from scratch.  This is the work a pre-cache worker
  performed the first time it saw a cell's key — the common case before this
  pipeline existed, because every ``run_campaign`` invocation forked a
  fresh pool (cold caches) and per-scenario unordered dispatch scattered
  cells sharing a baseline across workers.
* **cached** — the executor's real path: per-worker graph, healthy-run
  and dynamic-run memos, engine pools reset instead of rebuilt, process-wide
  compiled-topology/kernel caches, chunked dispatch.  Measured at steady
  state (one untimed warmup invocation first), which is what the
  persistent worker pool delivers to sweep drivers: the caches stay warm
  across ``run_campaign`` calls.

The benchmark runs serial (``jobs=1``) so it measures the per-worker
pipeline itself — multiprocessing would only add scheduling noise, and the
cached/fresh ratio carries over to any worker count (chunked dispatch
keys cells to the worker that holds their baseline).

The small case is the CI tripwire; the full case is the local acceptance
benchmark carrying the hard >=2x floor (CI runs with ``-k "not full"``
and bench-compare skips the metrics the smoke run does not produce).
"""

from __future__ import annotations

import time

from repro.campaigns.executor import (
    clear_scenario_caches,
    run_campaign,
    run_scenario,
)
from repro.campaigns.spec import CampaignSpec

from _report import bench_metric, report

#: The mixed matrix: healthy + shutdown statics, legacy cut/add dynamics,
#: and timeline programs (storms, churn, frontier waves, cut+heal
#: composites) — every fault class the executor knows, all sharing one
#: healthy-baseline key per (family, size, seed, backend).
FAULTS = (
    "none",
    "shutdown:0.15",
    "cut:0.4",
    "cut:1.5",
    "add:0.5",
    "storm:p=0.3@0.25",
    "storm:p=0.25@0.2",
    "churn:rate=0.08,period=0.25,heal=0.9,until=0.7",
    "churn:rate=0.1,period=0.2,until=0.6",
    "frontier:k=2@0.3",
    "frontier:k=3@0.25",
    "cut@0.3+heal@0.5",
)

#: case -> (sizes, seeds).  Both backends always run: the mixed matrix is
#: also a standing cache-correctness check across the engine registry.
CASES = {
    "small": ((10,), (0,)),
    "full": ((10, 13), (0, 1)),
}

#: Minimum cached/fresh speedup on the full matrix — the acceptance
#: criterion of the zero-rebuild pipeline (measured ~2.4-2.8x on the
#: reference machine; the floor leaves headroom for slower hosts).
SPEEDUP_FLOOR = 2.0

#: The small CI case still carries a tripwire floor: the ratio is
#: machine-relative (both paths run on the same host back to back), so a
#: drop below this means the cache layer itself regressed.
SMALL_SPEEDUP_FLOOR = 1.5

#: case -> path -> (scenarios, mean_seconds); used to assert parity and
#: compute the speedup once both paths of a case have run.
_RUNS: dict[str, dict[str, tuple[list, float]]] = {}


def _scenarios(case: str):
    sizes, seeds = CASES[case]
    return CampaignSpec(
        families=("spare-ring",),
        sizes=sizes,
        faults=FAULTS,
        seeds=seeds,
        backends=("object", "flat"),
    ).scenarios()


def _finish(case: str, path: str, results, mean: float, benchmark) -> None:
    count = len(results)
    rate = count / mean
    _RUNS.setdefault(case, {})[path] = (results, mean)
    benchmark.extra_info["scenarios"] = count
    benchmark.extra_info["scenarios_per_second"] = round(rate, 2)
    metric = (
        f"{case}_scenarios_per_second"
        if path == "cached"
        else f"{case}_fresh_scenarios_per_second"
    )
    bench_metric("camp", metric, rate, unit="sc/s", meta={f"{case}_cells": count})
    outcomes: dict[str, int] = {}
    for r in results:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    report(
        "bench_campaign",
        f"CAMP [{path}] {case}: {count} cells in {mean:.2f} s "
        f"({rate:.1f} scenarios/s), outcomes {outcomes}",
    )
    seen = _RUNS[case]
    if len(seen) == 2:
        fresh_results, fresh_mean = seen["fresh"]
        cached_results, cached_mean = seen["cached"]
        # scenario-for-scenario parity: the cache layer must be invisible
        assert cached_results == fresh_results, (
            f"cached and fresh executors disagree on {case}: "
            f"{[i for i, (a, b) in enumerate(zip(cached_results, fresh_results)) if a != b]}"
        )
        speedup = fresh_mean / cached_mean
        setup_share = 1.0 - cached_mean / fresh_mean
        bench_metric(
            "camp",
            f"{case}_cached_speedup",
            speedup,
            unit="x",
            meta={f"{case}_setup_share": round(setup_share, 3)},
        )
        report(
            "bench_campaign",
            f"CAMP {case}: cached executor is {speedup:.2f}x the pre-cache "
            f"path — {setup_share:.0%} of pre-cache wall-clock was "
            f"rebuildable setup (graphs, baselines, engine tables), "
            f"{1 - setup_share:.0%} was simulation",
        )
        floor = SPEEDUP_FLOOR if case == "full" else SMALL_SPEEDUP_FLOOR
        assert speedup >= floor, (
            f"zero-rebuild pipeline only {speedup:.2f}x on {case} "
            f"(floor {floor}x): the compiled-artifact caches, healthy-run "
            f"memo or engine pool have regressed"
        )


def _run_fresh(benchmark, case: str, rounds: int) -> None:
    scenarios = _scenarios(case)

    def run():
        # cold per cell: what every pre-cache worker paid on first sight
        # of a key (and, with per-invocation pools, on every invocation)
        results = []
        for scenario in scenarios:
            clear_scenario_caches()
            results.append(run_scenario(scenario, fresh=True))
        return results

    results = benchmark.pedantic(run, rounds=rounds, iterations=1)
    _finish(case, "fresh", results, benchmark.stats.stats.mean, benchmark)


def _run_cached(benchmark, case: str, rounds: int) -> None:
    scenarios = _scenarios(case)
    clear_scenario_caches()
    t0 = time.perf_counter()
    run_campaign(scenarios, jobs=1)  # untimed warmup: fill every cache
    warmup = time.perf_counter() - t0

    def run():
        return run_campaign(scenarios, jobs=1).results

    results = benchmark.pedantic(run, rounds=rounds, iterations=1)
    benchmark.extra_info["warmup_seconds"] = round(warmup, 3)
    _finish(case, "cached", results, benchmark.stats.stats.mean, benchmark)


def test_camp_small_fresh_throughput(benchmark):
    _run_fresh(benchmark, "small", rounds=2)


def test_camp_small_cached_throughput(benchmark):
    _run_cached(benchmark, "small", rounds=3)


def test_camp_full_fresh_throughput(benchmark):
    _run_fresh(benchmark, "full", rounds=2)


def test_camp_full_cached_throughput(benchmark):
    _run_cached(benchmark, "full", rounds=2)
