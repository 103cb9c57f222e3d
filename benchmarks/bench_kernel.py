"""Kernel split bench — code-space handlers vs the delivery loop's fallback.

The flat engine's one delivery loop serves most deliveries through the
compile-time character kernel: code-indexed handler lists, int fill rows,
packed sink closures.  Codes without a handler, the root and parked
nodes take the loop's fallback branch (the object engine's kind-keyed
handler tables over :class:`Char` objects).  This bench
measures both sides of that split on the *same engine class* — the
control engine drops the code-handler tables so every hop takes the
fallback — and records the per-hop speedup the kernel buys.  In-bench
asserts pin hop-count equality and byte-identical root transcripts across
both paths *and* the object backend, so neither side can drift
semantically while getting faster.
"""

from __future__ import annotations

from repro import determine_topology
from repro.sim.flatcore import FlatEngine
from repro.sim.run import ENGINE_BACKENDS
from repro.topology import generators

from _report import bench_metric, report, timed_mean


class _ObjectPathFlatEngine(FlatEngine):
    """Flat engine without code-handler tables (bench control).

    Every node delivers through the shared all-``None`` table, so the
    kind-keyed handler tables over ``Char`` objects serve each hop —
    exactly the fallback codes without a handler and special nodes take
    in the production engine, here promoted to 100% of traffic.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._chandlers_all = [None] * len(self.processors)
        self._chandlers[:] = self._chandlers_all


#: bench-local backend name; registered so the production run pipeline
#: (pooling, budgets, reconstruction) drives the control engine unchanged
ENGINE_BACKENDS.setdefault("flat-objectpath", _ObjectPathFlatEngine)


def _transcript_bytes(result) -> bytes:
    return "\n".join(repr(e) for e in result.transcript.events()).encode()


#: metric name -> (hops, rate or None when untimed, transcript bytes),
#: filled as tests run
_SIDES: dict[str, tuple[int, float | None, bytes]] = {}


def _measure_side(benchmark, *, backend: str, metric: str) -> None:
    graph = generators.de_bruijn(2, 4)
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
    mean = timed_mean(benchmark)
    rate = None if mean is None else hops / mean
    _SIDES[metric] = (hops, rate, _transcript_bytes(result))
    if rate is None:
        return
    benchmark.extra_info["character_hops"] = hops
    benchmark.extra_info["hops_per_second"] = int(rate)
    bench_metric(
        "kernel", metric, rate, unit="hops/s", meta={"character_hops": hops}
    )
    report(
        "kernel",
        f"KERNEL [{backend}] full protocol on de_bruijn(2,4): {hops} "
        f"character-hops, {rate:,.0f} hops/s wall-clock",
    )


def test_kernel_code_space_throughput(benchmark):
    """Production flat engine: kernel tables serve the hot loop."""
    _measure_side(
        benchmark, backend="flat", metric="code_space_hops_per_second"
    )


def test_kernel_object_path_throughput(benchmark):
    """Control: same engine, every hop through the delivery loop's fallback.

    Runs after the code-space side (file order), so it also reports the
    per-hop split — the headline number of the kernel work — and asserts
    both paths moved identical traffic.
    """
    _measure_side(
        benchmark, backend="flat-objectpath", metric="object_path_hops_per_second"
    )
    code = _SIDES.get("code_space_hops_per_second")
    obj = _SIDES["object_path_hops_per_second"]
    if code is None:  # partial -k run; nothing to compare against
        return
    assert code[0] == obj[0], "hop-count divergence between kernel paths"
    assert code[2] == obj[2], "transcript divergence between kernel paths"
    if code[1] is None or obj[1] is None:  # untimed run: parity only
        return
    ratio = code[1] / obj[1]
    bench_metric("kernel", "code_space_speedup", ratio, unit="x")
    report(
        "kernel",
        f"KERNEL split: code-space {code[1]:,.0f} hops/s vs object-path "
        f"{obj[1]:,.0f} hops/s = {ratio:.2f}x per-hop speedup",
    )
