"""Differential parity: the flat backend must equal the object backend.

The correctness contract of the compiled flat-core backend is *exact*
equivalence with the reference object engine — byte-identical root
transcripts, equal tick counts, equal traffic metrics — on every protocol
workload.  These tests enforce it differentially: each case runs twice,
once per backend, and the outputs are compared bit for bit.

The fuzz sweep covers the campaign axes (family × size × fault × seed),
including randomly generated strongly-connected topologies.  A deeper
sweep (more seeds, larger networks) runs when ``REPRO_PARITY_FUZZ=1`` —
the CI py3.12 matrix leg sets it.
"""

from __future__ import annotations

import os

import pytest

from repro.campaigns.executor import run_scenario
from repro.campaigns.spec import Scenario, build_family
from repro.protocol.bca import run_single_bca
from repro.protocol.rca import run_single_rca
from repro.protocol.runner import determine_topology
from repro.sim.transcript import Transcript
from repro.topology import generators


def transcript_bytes(transcript: Transcript) -> bytes:
    """A canonical byte serialization of a root transcript."""
    return "\n".join(repr(event) for event in transcript.events()).encode()


def assert_same_run(a, b) -> None:
    """Both TopologyResults must agree on every observable."""
    assert a.ticks == b.ticks
    assert a.drained_ticks == b.drained_ticks
    assert transcript_bytes(a.transcript) == transcript_bytes(b.transcript)
    assert a.metrics.delivered == b.metrics.delivered
    assert a.metrics.emitted == b.metrics.emitted
    assert a.rca_runs == b.rca_runs
    assert a.bca_runs == b.bca_runs
    assert a.recovered.to_portgraph(delta=a.graph.delta) == b.recovered.to_portgraph(
        delta=b.graph.delta
    )


# ----------------------------------------------------------------------
# full-protocol parity on healthy networks
# ----------------------------------------------------------------------
GTD_CASES = [
    ("de-bruijn", 16, 0),
    ("bidirectional-ring", 9, 0),
    ("hypercube", 8, 0),
    ("directed-torus", 9, 0),
    ("tree-with-loop", 7, 1),
    ("manhattan", 9, 0),
    ("random", 10, 3),
    ("random", 14, 7),
]


@pytest.mark.parametrize("family,size,seed", GTD_CASES)
def test_gtd_transcript_parity(family, size, seed):
    graph = build_family(family, size, seed)
    obj = determine_topology(graph, backend="object")
    flat = determine_topology(graph, backend="flat")
    assert_same_run(obj, flat)
    assert flat.matches(graph)


def test_gtd_parity_with_cleanup_verification():
    """The after_tick single-step path must also be tick-exact."""
    graph = generators.de_bruijn(2, 3)
    obj = determine_topology(graph, backend="object", verify_cleanup=True)
    flat = determine_topology(graph, backend="flat", verify_cleanup=True)
    assert_same_run(obj, flat)


def test_gtd_parity_nondefault_root():
    graph = generators.de_bruijn(2, 4)
    obj = determine_topology(graph, backend="object", root=5)
    flat = determine_topology(graph, backend="flat", root=5)
    assert_same_run(obj, flat)


# ----------------------------------------------------------------------
# scripted drivers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("initiator", [1, 11, 23])
def test_single_rca_parity(initiator):
    graph = generators.bidirectional_line(24)
    obj = run_single_rca(graph, initiator=initiator, backend="object")
    flat = run_single_rca(graph, initiator=initiator, backend="flat")
    assert obj.ticks == flat.ticks
    assert obj.completed_at == flat.completed_at
    assert transcript_bytes(obj.transcript) == transcript_bytes(flat.transcript)
    assert obj.engine.metrics.delivered == flat.engine.metrics.delivered


@pytest.mark.parametrize("root", [0, 3])
def test_single_bca_parity(root):
    # the default message "PING" rides on a BD tail outside the kernel's
    # code space, so this also covers the flat engine's stray delivery.
    # With root=3 the initiator is the root: its stray tail rests in the
    # outbox and leaves through the drain instead of a send-time sink
    graph = generators.bidirectional_ring(8)
    obj = run_single_bca(graph, 3, 1, root=root, backend="object")
    flat = run_single_bca(graph, 3, 1, root=root, backend="flat")
    assert obj.delivered_at == flat.delivered_at
    assert obj.initiator_done_at == flat.initiator_done_at
    assert obj.target_resumed_at == flat.target_resumed_at
    assert obj.ticks == flat.ticks
    assert transcript_bytes(obj.engine.transcript) == transcript_bytes(
        flat.engine.transcript
    )
    assert obj.engine.metrics.delivered == flat.engine.metrics.delivered
    assert obj.engine.metrics.emitted == flat.engine.metrics.emitted


# ----------------------------------------------------------------------
# the campaign-axes fuzz sweep (family × size × fault × seed)
# ----------------------------------------------------------------------
def _fuzz_matrix():
    families = ["random", "de-bruijn", "spare-ring"]
    sizes = [8, 12]
    faults = ["none", "shutdown:0.15", "cut:0.4"]
    seeds = [0, 1]
    if os.environ.get("REPRO_PARITY_FUZZ") == "1":
        families += ["tree-with-loop", "ring-of-rings", "bidirectional-line"]
        sizes += [18, 24]
        faults += ["shutdown:0.3", "cut:0.8", "add:0.5"]
        seeds += [2, 3, 4]
    for family in families:
        for size in sizes:
            for fault in faults:
                # 'add' needs free ports; restrict it to the spare-ring
                if fault.startswith("add") and family != "spare-ring":
                    continue
                for seed in seeds:
                    yield family, size, fault, seed


@pytest.mark.parametrize("family,size,fault,seed", list(_fuzz_matrix()))
def test_campaign_cell_parity(family, size, fault, seed):
    """run_scenario is a pure function of the scenario modulo the backend."""
    obj = run_scenario(
        Scenario(family=family, size=size, fault=fault, seed=seed, backend="object")
    )
    flat = run_scenario(
        Scenario(family=family, size=size, fault=fault, seed=seed, backend="flat")
    )
    assert obj.outcome == flat.outcome
    assert obj.ticks == flat.ticks
    assert obj.drained_ticks == flat.drained_ticks
    assert obj.hops == flat.hops
    assert obj.rca_runs == flat.rca_runs
    assert obj.bca_runs == flat.bca_runs
    assert obj.by_family == flat.by_family
    assert obj.episodes == flat.episodes
    assert obj.lost_characters == flat.lost_characters


# ----------------------------------------------------------------------
# perturbation timelines: the dynamic fast path must stay tick-exact
# ----------------------------------------------------------------------
def _timeline_matrix():
    families = ["spare-ring", "bidirectional-ring", "random"]
    timelines = [
        "storm:p=0.25@0.3",
        "storm:p=0.3@0.2+heal@0.6",
        "churn:rate=0.15,period=0.25,heal=0.5,until=1.5",
        "frontier:k=2@0.4",
        "cut@0.2+heal@0.25",         # heal racing the residence window
        "cut:n=2@0.3+add@0.5",
    ]
    seeds = [0, 1]
    if os.environ.get("REPRO_PARITY_FUZZ") == "1":
        families += ["de-bruijn", "ring-of-rings", "hypercube"]
        timelines += [
            "flap:wire=2:1,on=0.1,off=0.5,cycles=2",
            "storm:p=0.5@0.5+heal@0.7+storm:p=0.5@0.9",
            "churn:rate=0.3,period=0.15,until=2",
        ]
        seeds += [2, 3, 4]
    for family in families:
        for timeline in timelines:
            # adds need free ports; restrict them to the spare-ring
            if "add" in timeline and family != "spare-ring":
                continue
            for seed in seeds:
                yield family, timeline, seed


@pytest.mark.parametrize("family,timeline,seed", list(_timeline_matrix()))
def test_timeline_transcript_parity(family, timeline, seed):
    """Flat incremental CSR patching must equal the object overlay bit-for-bit."""
    from repro.dynamics import compile_timeline, run_dynamic_gtd
    from repro.errors import TopologyError

    graph = build_family(family, 10, seed)
    try:
        program = compile_timeline(timeline, graph, seed=seed)
    except TopologyError:
        # infeasible on this family — lowering is backend-independent, so
        # both backends are identically infeasible; nothing to compare
        pytest.skip(f"{timeline} infeasible on {family}")
    budget = program.horizon * 3 + 1000
    obj = run_dynamic_gtd(graph, program, max_ticks=budget, backend="object")
    flat = run_dynamic_gtd(graph, program, max_ticks=budget, backend="flat")
    assert obj.outcome == flat.outcome
    assert obj.ticks == flat.ticks
    assert obj.phase == flat.phase
    assert obj.applied_ops == flat.applied_ops
    assert obj.lost_characters == flat.lost_characters
    assert obj.hops == flat.hops
    assert transcript_bytes(obj.transcript) == transcript_bytes(flat.transcript)
    assert obj.metrics.delivered == flat.metrics.delivered
    assert obj.final_topology == flat.final_topology


@pytest.mark.parametrize(
    "fault",
    ["frontier:k=2@0.4", "churn:rate=0.15,period=0.3", "storm:p=0.3@0.2+heal@0.6"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_timeline_campaign_cell_parity(fault, seed):
    """Timeline cells behave like every other cell of the matrix."""
    obj = run_scenario(
        Scenario(family="spare-ring", size=10, fault=fault, seed=seed)
    )
    flat = run_scenario(
        Scenario(family="spare-ring", size=10, fault=fault, seed=seed, backend="flat")
    )
    assert obj.outcome == flat.outcome
    assert obj.ticks == flat.ticks
    assert obj.hops == flat.hops
    assert obj.phase == flat.phase
    assert obj.lost_characters == flat.lost_characters


# ----------------------------------------------------------------------
# the cached executor: memoized cells must equal fresh per-cell runs
# ----------------------------------------------------------------------
FUZZ = os.environ.get("REPRO_PARITY_FUZZ") == "1"


def _memo_campaign_matrix():
    families = ["spare-ring", "random"]
    # cut:1.0 lands exactly on the undisturbed terminal tick: it fires, so
    # the memo must not reduce it to the healthy run the way it does cut:1.5
    faults = [
        "none", "shutdown:0.15", "cut:0.4", "cut:1.0", "cut:1.5",
        "storm:p=0.25@0.3", "frontier:k=2@0.4",
    ]
    sizes = [10]
    seeds = [0, 1]
    if FUZZ:
        families += ["tree-with-loop", "de-bruijn"]
        faults += [
            "add:0.5", "cut@0.2+heal@0.25",
            "churn:rate=0.15,period=0.25,heal=0.5,until=1.5",
            "storm:p=0.3@0.2+heal@0.6",
        ]
        sizes += [13]
        seeds += [2, 3]
    return [
        Scenario(family, size, fault, seed, "flat")
        for family in families
        for size in sizes
        for fault in faults
        for seed in seeds
        # adds need free ports; restrict them to the spare-ring
        if not ("add" in fault and family != "spare-ring")
    ]


def test_cached_campaign_fanout_equals_fresh_cells():
    """The cached executor fans out cells identical to fresh per-cell runs.

    Covers the whole cached pipeline — chunking, the graph and healthy-run
    memos, the dynamic-run memo with its post-terminal reduction, per-cell
    phase labels — against ``run_scenario(..., fresh=True)``, which
    bypasses every memo (the extended matrix runs under
    ``REPRO_PARITY_FUZZ=1``).
    """
    from repro.campaigns.executor import clear_scenario_caches, run_campaign

    scenarios = _memo_campaign_matrix()
    clear_scenario_caches()
    campaign = run_campaign(scenarios, jobs=1)
    for scenario, result in zip(scenarios, campaign.results):
        assert result == run_scenario(scenario, fresh=True), scenario.label


def test_cached_campaign_invariant_in_jobs():
    """jobs=1 == jobs=N, cell for cell, with every memo in play."""
    from repro.campaigns.executor import (
        clear_scenario_caches,
        run_campaign,
        shutdown_worker_pool,
    )

    scenarios = _memo_campaign_matrix()[:24]
    base = run_campaign(scenarios, jobs=1)
    try:
        clear_scenario_caches()
        assert run_campaign(scenarios, jobs=2).results == base.results
    finally:
        shutdown_worker_pool()


def test_backend_cells_hash_distinctly_but_default_is_stable():
    """The store must keep per-backend cells apart — and old keys intact."""
    base = Scenario("de-bruijn", 8)
    flat = Scenario("de-bruijn", 8, backend="flat")
    explicit = Scenario("de-bruijn", 8, backend="object")
    assert base.spec_hash() != flat.spec_hash()
    # the default backend hashes exactly as scenarios did before the axis
    assert base.spec_hash() == explicit.spec_hash()
    assert "backend" not in base.canonical()
    assert flat.canonical()["backend"] == "flat"
