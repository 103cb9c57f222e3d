"""Cold-start time-to-first-hop — warm artifact library vs empty library.

PR 5/6 made compiled topologies cheap to *reuse* inside one process; this
experiment gates what they cost to *acquire* in a fresh one.  The measured
unit is the campaign executor's actual cold-start critical path: starting
from fully cold process caches, acquire every distinct compiled artifact
of the matrix (exactly what the parent's prewarm pass does before
dispatching chunks), then build the first engine and step it to its first
delivered character — the moment the first scenario result starts
existing.  Two library states run the same function:

* **cold** — the library starts empty: every wiring pays a real compile
  plus a durable publish (fsync + atomic rename), the price any fleet
  pays exactly once per wiring, ever.
* **warm** — the library already holds every artifact: acquisition is one
  ``stat`` per wiring and the first engine's tables arrive via a
  zero-copy ``mmap`` load.  ``compile_calls()`` is asserted not to move —
  the compiler must never run on this path.

Both paths read through a configured library and share the same
first-hop code; the ratio isolates precisely what persistence buys.
Graphs are built outside the timed region (the graph is the scenario
*input*; the library covers artifacts derived from it).  The small case
is the CI tripwire (``-k "not full"``); the full case sweeps the whole
family registry at two sizes and carries the hard >=2x acceptance floor.
"""

from __future__ import annotations

import shutil

from repro.campaigns.executor import clear_scenario_caches
from repro.campaigns.spec import FAMILY_BUILDERS, build_family
from repro.protocol.gtd import GTDProcessor
from repro.sim.run import make_engine
from repro.store.artifacts import (
    ArtifactLibrary,
    artifact_key,
    configure_artifact_library,
)
from repro.topology.compile import compile_calls

from _report import bench_metric, report, timed_mean

#: case -> (families, sizes).  ``full`` is the whole family registry — the
#: "full campaign matrix" axis a real sweep would prewarm.
CASES = {
    "small": (("de-bruijn", "directed-ring", "hypercube", "spare-ring"), (8,)),
    "full": (tuple(sorted(FAMILY_BUILDERS)), (8, 13)),
}

#: Minimum cold/warm speedup on the full matrix — the PR's acceptance
#: criterion (a warm library must at least halve time-to-first-result).
SPEEDUP_FLOOR = 2.0

#: The small CI case's tripwire floor (same-host ratio, machine-relative).
SMALL_SPEEDUP_FLOOR = 1.5

#: case -> state -> (first_hop_tick, mean_seconds or None when untimed);
#: filled as each state finishes so the second one can assert parity and
#: the speedup floor.
_RUNS: dict[str, dict[str, tuple[int, float | None]]] = {}


def _graphs(case: str):
    families, sizes = CASES[case]
    return [build_family(family, size, 0) for family in families for size in sizes]


def _first_hop(graph) -> int:
    """Build the first engine over the (just acquired) artifact and step it
    to its first delivered character; returns the tick that hop landed on."""
    engine = make_engine(
        "flat", graph, [GTDProcessor() for _ in graph.nodes()], root=0
    )
    engine.start()
    return engine.run(
        max_ticks=10_000, until=lambda: engine.metrics.total_delivered > 0
    )


def _time_to_first_hop(graphs, library_root) -> int:
    """The timed unit: prewarm every matrix artifact, then first hop."""
    library = ArtifactLibrary(library_root)
    configure_artifact_library(library)
    for graph in graphs:
        library.ensure(graph)
    return _first_hop(graphs[0])


def _run_case(benchmark, case: str, state: str, tmp_path, rounds: int) -> None:
    graphs = _graphs(case)
    distinct = len({artifact_key(graph) for graph in graphs})
    library_root = tmp_path / "library"

    if state == "warm":
        # populate once; every round then finds a fully warm library
        ArtifactLibrary(library_root)
        for graph in graphs:
            ArtifactLibrary(library_root).ensure(graph)

    def setup():
        # a fresh process, faithfully: cold in-memory caches, no library
        # configured — and for the cold state, an empty library directory
        configure_artifact_library(None)
        clear_scenario_caches()
        if state == "cold":
            shutil.rmtree(library_root, ignore_errors=True)
        return (graphs, library_root), {}

    if state == "warm":
        compiles_before = compile_calls()
    tick = benchmark.pedantic(_time_to_first_hop, setup=setup, rounds=rounds)
    if state == "warm":
        assert compile_calls() == compiles_before, (
            "warm-library cold start invoked the topology compiler — "
            "the mmap load path has regressed to compiling"
        )
    configure_artifact_library(None)
    clear_scenario_caches()

    mean = timed_mean(benchmark)
    if mean is not None:
        benchmark.extra_info["distinct_artifacts"] = distinct
        benchmark.extra_info["first_hop_tick"] = tick
        bench_metric(
            "artifacts",
            f"{case}_{state}_start_ms",
            mean * 1e3,
            direction="lower",
            unit="ms",
            meta={f"{case}_artifacts": distinct},
        )
        report(
            "bench_artifacts",
            f"ARTIFACTS [{state}] {case}: {distinct} artifacts to first hop in "
            f"{mean * 1e3:.2f} ms",
        )

    seen = _RUNS.setdefault(case, {})
    seen[state] = (tick, mean)
    if len(seen) == 2:
        cold_tick, cold_mean = seen["cold"]
        warm_tick, warm_mean = seen["warm"]
        # the artifact tier must be invisible in the simulation itself
        assert warm_tick == cold_tick, (
            f"first hop landed on tick {warm_tick} warm vs {cold_tick} cold"
        )
        if cold_mean is None or warm_mean is None:
            return  # untimed run: parity only
        speedup = cold_mean / warm_mean
        bench_metric(
            "artifacts",
            f"{case}_cold_start_speedup",
            speedup,
            unit="x",
            meta={f"{case}_artifacts": distinct},
        )
        floor = SPEEDUP_FLOOR if case == "full" else SMALL_SPEEDUP_FLOOR
        report(
            "bench_artifacts",
            f"ARTIFACTS {case}: warm library reaches the first hop "
            f"{speedup:.2f}x faster than an empty one "
            f"({cold_mean * 1e3:.2f} ms -> {warm_mean * 1e3:.2f} ms, "
            f"floor {floor}x)",
        )
        assert speedup >= floor, (
            f"warm artifact library only {speedup:.2f}x on {case} "
            f"(floor {floor}x): the mmap load path costs too much relative "
            f"to compiling from scratch"
        )


def test_artifacts_small_cold_start(benchmark, tmp_path):
    _run_case(benchmark, "small", "cold", tmp_path, rounds=5)


def test_artifacts_small_warm_start(benchmark, tmp_path):
    _run_case(benchmark, "small", "warm", tmp_path, rounds=5)


def test_artifacts_full_cold_start(benchmark, tmp_path):
    _run_case(benchmark, "full", "cold", tmp_path, rounds=3)


def test_artifacts_full_warm_start(benchmark, tmp_path):
    _run_case(benchmark, "full", "warm", tmp_path, rounds=3)
