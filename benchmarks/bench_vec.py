"""Transition-table stepper bench — table walk vs closure dispatch.

PR 9 lowered the protocol automaton into the ``char_trans`` tensor: the
flat engine's hot loop executes dense int64 rows directly and only
escapes to the per-code closures for configurations the tables do not
own.  This bench measures both sides of that split on the *same engine
class* — the control engine clears ``TABLE_WALK`` so every delivery
takes the closure dispatch the production engine uses as its escape
path — and records the per-hop speedup the table walk buys.  In-bench
asserts pin tick counts, hop counts and byte-identical root transcripts
across both paths *and* the object backend, so neither side can drift
semantically while getting faster.
"""

from __future__ import annotations

from repro import determine_topology
from repro.sim.flatcore import FlatEngine
from repro.sim.run import ENGINE_BACKENDS
from repro.topology import generators

from _report import bench_metric, report


class _ClosureDispatchFlatEngine(FlatEngine):
    """Flat engine with the transition-table walk disabled (bench control).

    Every delivery runs the per-code closure handlers — exactly the path
    the production stepper escapes to for interceptions, KILL floods and
    loop tokens, here promoted to 100% of traffic.
    """

    TABLE_WALK = False


#: bench-local backend name; registered so the production run pipeline
#: (pooling, budgets, reconstruction) drives the control engine unchanged
ENGINE_BACKENDS.setdefault("flat-nowalk", _ClosureDispatchFlatEngine)


def _transcript_bytes(result) -> bytes:
    return "\n".join(repr(e) for e in result.transcript.events()).encode()


#: metric name -> (hops, rate, transcript bytes), filled as tests run
_SIDES: dict[str, tuple[int, float, bytes]] = {}


def _measure_side(benchmark, *, backend: str, metric: str) -> None:
    graph = generators.de_bruijn(2, 4)  # N=16, E=32, D=4
    reference = determine_topology(graph, backend="object")

    def run():
        return determine_topology(graph, backend=backend)

    result = benchmark(run)
    assert result.matches(graph)
    # parity gate: the measured path moved exactly the reference traffic
    assert result.ticks == reference.ticks
    assert result.metrics.total_delivered == reference.metrics.total_delivered
    assert _transcript_bytes(result) == _transcript_bytes(reference)
    hops = result.metrics.total_delivered
    rate = hops / benchmark.stats["mean"]
    benchmark.extra_info["character_hops"] = hops
    benchmark.extra_info["hops_per_second"] = int(rate)
    _SIDES[metric] = (hops, rate, _transcript_bytes(result))
    bench_metric("vec", metric, rate, unit="hops/s", meta={"character_hops": hops})
    report(
        "vec",
        f"VEC [{backend}] full protocol on de_bruijn(2,4): {hops} "
        f"character-hops, {rate:,.0f} hops/s wall-clock",
    )


def test_vec_table_walk_throughput(benchmark):
    """Production flat engine: the transition tables serve the hot loop."""
    _measure_side(benchmark, backend="flat", metric="table_walk_hops_per_second")


def test_vec_closure_dispatch_throughput(benchmark):
    """Control: same engine, every hop through the closure dispatch.

    Runs after the table-walk side (file order), so it also reports the
    per-hop split — the headline number of the lowering — and asserts
    both paths moved identical traffic.
    """
    _measure_side(
        benchmark, backend="flat-nowalk", metric="closure_hops_per_second"
    )
    walk = _SIDES.get("table_walk_hops_per_second")
    closure = _SIDES["closure_hops_per_second"]
    if walk is None:  # partial -k run; nothing to compare against
        return
    assert walk[0] == closure[0], "hop-count divergence between stepper paths"
    assert walk[2] == closure[2], "transcript divergence between stepper paths"
    ratio = walk[1] / closure[1]
    bench_metric("vec", "table_walk_speedup", ratio, unit="x")
    report(
        "vec",
        f"VEC split: table walk {walk[1]:,.0f} hops/s vs closure dispatch "
        f"{closure[1]:,.0f} hops/s = {ratio:.2f}x per-hop speedup",
    )

