"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead, a :class:`Tracer` replaces
each layer's public entry points with timing wrappers for the duration of
one op and restores them afterwards.  A wrapper is installed *where the
caller binds the name*: the campaign executor imported
``determine_topology`` into its own namespace, so the probe patches
``repro.campaigns.executor.determine_topology`` as well as the defining
module.  Methods are patched on their class, which covers every instance
and every subclass that does not override them.

Spans live in memory as flat :class:`Span` tuples with a parent index.
A span's *self time* is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans; ``other`` is the
op's wall time that no root span covers (the benchmark's own loop).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

#: The program's layers, outermost first, named after ``src/repro`` packages.
LAYERS = ("campaigns", "protocol", "dynamics", "sim", "topology", "store", "analysis")


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    #: index of the enclosing span in the same list, or -1 for a root span
    parent: int


#: ``counts(args, kwargs)`` runs before the wrapped call and returns a
#: function that, given the call's return value (``None`` if it raised),
#: returns the counter increments to record.
CountHook = Callable[[tuple, dict], Callable[[object], dict]]


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``owner.attr`` (a module or a class)."""

    owner: object
    attr: str
    layer: str
    name: str
    counts: CountHook | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, child)]


def layer_self_times(spans: list[Span], wall: float) -> dict[str, float]:
    """Self seconds per layer, plus ``other`` for time outside every span.

    The values sum to ``wall`` (up to float rounding), which is the
    invariant that makes the split a split.
    """
    out: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] = out.get(span.layer, 0.0) + own
    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    out["other"] = wall - covered
    return out


class Tracer:
    """Installs probes, records spans and counters, and uninstalls them.

    With ``timed=False`` only probes that carry a count hook are installed
    and no clock is read: that is the counting-only mode the untraced
    end-to-end ops use to learn how many hops they simulated.
    """

    def __init__(self, probes: list[Probe], *, timed: bool = True) -> None:
        self.timed = timed
        self.probes = [p for p in probes if timed or p.counts is not None]
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        try:
            for probe in self.probes:
                original = _lookup(probe.owner, probe.attr)
                self._saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, self._wrap(original, probe))
        except BaseException:
            self.__exit__()  # a half-installed table must not outlive the error
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, probe: Probe):
        counts, hook = self.counts, probe.counts
        if not self.timed:

            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                done = hook(args, kwargs)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    counts.update(done(result))

            return count_only

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, layer = probe.name, probe.layer

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            done = hook(args, kwargs) if hook is not None else None
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserved so children see their parent's slot
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, layer, start, end, parent)
                counts[name] += 1
                if done is not None:
                    counts.update(done(result))

        return timed


def _lookup(owner, attr: str):
    """The attribute exactly as stored, so restoring it is exact.

    A class attribute is read from the class's own ``__dict__``: patching a
    method inherited from a base class would shadow it on the subclass and
    restoring a bound lookup would leave that shadow behind.
    """
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr!r} itself")
        return vars(owner)[attr]
    return getattr(owner, attr)


# ----------------------------------------------------------------------
# the probe table
# ----------------------------------------------------------------------
def _run_counts(args, kwargs):
    engine = args[0]
    return lambda _result: {
        "sim.runs": 1,
        "sim.hops": engine.metrics.total_delivered,
        "sim.ticks": engine.tick,
    }


def _checkout_counts(args, kwargs):
    pool = args[0]
    hits, misses = pool.hits, pool.misses
    return lambda _result: {
        "sim.pool_hits": pool.hits - hits,
        "sim.pool_misses": pool.misses - misses,
    }


def _get_counts(args, kwargs):
    return lambda result: {"store.hits": int(result is not None)}


def _campaign_counts(args, kwargs):
    return lambda result: {"campaigns.cells": len(result) if result is not None else 0}


def run_probes() -> list[Probe]:
    """Every simulation boundary: where each front-end binds ``execute_run``."""
    from repro.dynamics import experiment
    from repro.protocol import runner

    return [
        Probe(runner, "execute_run", "sim", "execute_run", _run_counts),
        Probe(experiment, "execute_run", "sim", "execute_run", _run_counts),
    ]


def layer_probes() -> list[Probe]:
    """The full per-layer probe table used by the traced run."""
    from repro.campaigns import executor
    from repro.dynamics import experiment, timeline
    from repro.protocol import root_computer, runner
    from repro.sim import engine, run
    from repro.store import artifacts, result_store
    from repro.topology import compile as topo_compile

    library = artifacts.ArtifactLibrary
    store = result_store.ResultStore
    return run_probes() + [
        Probe(executor, "run_campaign", "campaigns", "run_campaign", _campaign_counts),
        Probe(executor, "determine_topology", "protocol", "determine_topology"),
        Probe(runner, "determine_topology", "protocol", "determine_topology"),
        Probe(runner.TopologyResult, "matches", "protocol", "TopologyResult.matches"),
        Probe(experiment, "port_isomorphic", "protocol", "port_isomorphic"),
        Probe(
            root_computer.MasterComputer,
            "reconstruct",
            "protocol",
            "MasterComputer.reconstruct",
        ),
        Probe(executor, "run_dynamic_gtd", "dynamics", "run_dynamic_gtd"),
        Probe(
            timeline.PerturbationTimeline,
            "compile",
            "dynamics",
            "PerturbationTimeline.compile",
        ),
        Probe(engine.Engine, "run", "sim", "Engine.run"),
        Probe(engine.Engine, "run_to_idle", "sim", "Engine.run_to_idle"),
        Probe(run.EnginePool, "checkout", "sim", "EnginePool.checkout", _checkout_counts),
        Probe(executor, "build_family", "topology", "build_family"),
        Probe(executor, "shutdown_out_ports", "topology", "shutdown_out_ports"),
        Probe(topo_compile, "compile_topology", "topology", "compile_topology"),
        Probe(artifacts, "compile_topology", "topology", "compile_topology"),
        Probe(library, "load", "store", "ArtifactLibrary.load"),
        Probe(library, "ensure", "store", "ArtifactLibrary.ensure"),
        Probe(store, "__init__", "store", "ResultStore.open"),
        Probe(store, "put", "store", "ResultStore.put"),
        Probe(store, "get", "store", "ResultStore.get", _get_counts),
        Probe(executor, "rca_episodes", "analysis", "rca_episodes"),
        Probe(executor.CampaignResult, "summary", "analysis", "CampaignResult.summary"),
        Probe(executor.CampaignResult, "stats", "analysis", "CampaignResult.stats"),
    ]


def layer_metrics(spans: list[Span], counts: Counter, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced op (see ``perfbench/README.md``)."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
    hops = counts["sim.hops"]
    loop_s = total["Engine.run"] + total["Engine.run_to_idle"]
    checkouts = counts["sim.pool_hits"] + counts["sim.pool_misses"]
    computed = counts["campaigns.cells"] - counts["store.hits"]
    metrics = {
        "sim.run_s": total["Engine.run"],
        "sim.drain_s": total["Engine.run_to_idle"],
        "sim.hops": hops,
        "sim.ticks": counts["sim.ticks"],
        "sim.ns_per_hop": loop_s / hops * 1e9 if hops else 0.0,
        "sim.checkout_s": total["EnginePool.checkout"],
        "sim.pool_hit_ratio": counts["sim.pool_hits"] / checkouts if checkouts else 0.0,
        "topology.build_s": total["build_family"],
        "topology.builds": counts["build_family"],
        "topology.compile_s": total["compile_topology"],
        "topology.compile_calls": counts["topology.compile_calls"],
        "store.artifact_load_s": total["ArtifactLibrary.load"],
        "store.artifact_loads": counts["ArtifactLibrary.load"],
        "store.put_s": total["ResultStore.put"],
        "store.puts": counts["ResultStore.put"],
        "store.get_s": total["ResultStore.get"],
        "protocol.determine_self_s": own["determine_topology"],
        "protocol.reconstruct_s": total["MasterComputer.reconstruct"],
        "protocol.verify_s": total["TopologyResult.matches"] + total["port_isomorphic"],
        "dynamics.timeline_compile_s": total["PerturbationTimeline.compile"],
        "dynamics.run_self_s": own["run_dynamic_gtd"],
        "dynamics.runs": counts["run_dynamic_gtd"],
        "analysis.episodes_s": total["rca_episodes"],
        "analysis.summary_s": (
            total["CampaignResult.summary"] + total["CampaignResult.stats"]
        ),
        "campaigns.cells": counts["campaigns.cells"],
        "campaigns.sims_per_cell": counts["sim.runs"] / computed if computed > 0 else 0.0,
        "trace.spans": len(spans),
    }
    layers = layer_self_times(spans, wall)
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["sim.self_share"] = layers["sim"] / wall if wall > 0 else 0.0
    return metrics
