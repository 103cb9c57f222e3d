"""Command-line interface: ``repro-topology`` / ``python -m repro``.

Subcommands:

* ``map`` — run Global Topology Determination on a generated network and
  print the recovered map plus statistics; with ``--repeats``/``--jobs``
  the run becomes a seed sweep over the campaign machinery;
* ``campaign`` — run a declarative scenario matrix (family × size ×
  fault model × seed) over the :mod:`repro.campaigns` executor; with
  ``--store DIR`` results persist to a content-addressed store and
  overlapping matrices reuse stored cells; ``--resume RUN_DIR`` picks an
  interrupted run back up, skipping completed scenarios; ``--artifacts
  DIR`` persists compiled topologies to an mmap-shared library so warm
  re-runs skip every previously-seen compile;
* ``store`` — inspect a result store: record count, outcome counts, and
  the aggregate statistics mined from its JSONL shards; ``--verify``
  runs an offline integrity scan of the shards (payload bodies
  re-checked against their digests, keys against recomputed spec
  hashes); with ``--artifacts`` the directory is a
  compiled-artifact library instead (``--verify`` validates every
  artifact, ``--gc [--keep-mb MB]`` removes invalid ones and evicts to
  a byte budget);
* ``bench-compare`` — diff a fresh benchmark snapshot against a committed
  baseline with a regression threshold (the CI perf gate);
* ``families`` — list the built-in network families;
* ``faults`` — list the fault-model vocabulary: the legacy kinds and the
  perturbation-timeline event grammar;
* ``lower-bound`` — print the Theorem 5.1 implied lower-bound table.

Dynamic-topology runs thread through ``--timeline``: ``map --timeline``
runs one perturbed GTD and reports the outcome per phase, ``campaign
--timeline`` adds the timeline to the fault axis (repeatable; kept apart
from ``--faults`` because timeline specs contain commas).

Network families are resolved through the shared campaign registry
(:data:`repro.campaigns.spec.FAMILY_BUILDERS`), so the shell and the
programmatic matrix runner accept exactly the same names, and every run is
reproducible from ``--seed`` alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.run_stats import phase_outcome_counts
from repro.analysis.transcripts import lower_bound_curve
from repro.bench.baseline import compare_files
from repro.campaigns import CampaignSpec, Scenario, SupervisionPolicy, run_campaign
from repro.campaigns.spec import FAMILY_BUILDERS, build_family
from repro.dynamics import compile_timeline, parse_timeline, run_dynamic_gtd
from repro.dynamics.timeline import TIMELINE_EVENT_KINDS
from repro.errors import ReproError, TranscriptError
from repro.protocol.runner import determine_topology
from repro.sim.run import DEFAULT_BACKEND, ENGINE_BACKENDS
from repro.store import ResultStore, verify_result_store
from repro.topology.properties import diameter
from repro.util.tables import format_table
from repro.viz.ascii_map import render_adjacency, render_recovered_map
from repro.viz.timeline import render_traffic_profile

__all__ = ["main", "build_parser"]


def _csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_ints(text: str) -> list[int]:
    return [int(item) for item in _csv(text)]


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-topology",
        description="Goldstein (IPPS 2002): map a directed network of "
        "finite-state processors from its root.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="run the protocol and print the map")
    p_map.add_argument("--family", choices=sorted(FAMILY_BUILDERS), default="de-bruijn")
    p_map.add_argument("--size", type=int, default=8, help="approximate N")
    p_map.add_argument(
        "--seed", type=int, default=0,
        help="seed for network generation; the run is reproducible from it",
    )
    p_map.add_argument(
        "--repeats", type=int, default=1, metavar="K",
        help="run K seeds (--seed .. --seed+K-1) as a mini-campaign",
    )
    p_map.add_argument(
        "--jobs", type=int, default=1, metavar="J",
        help="worker processes for --repeats > 1 (results are identical "
        "for any J)",
    )
    p_map.add_argument(
        "--backend", choices=sorted(ENGINE_BACKENDS), default=DEFAULT_BACKEND,
        help="engine backend: 'object' (reference) or 'flat' (compiled "
        "tables, same results tick-for-tick, faster on large runs)",
    )
    p_map.add_argument(
        "--timeline", metavar="SPEC",
        help="run under a perturbation timeline (e.g. "
        "'storm:p=0.1@0.5+heal@0.9') and classify the outcome per phase; "
        "see 'repro-topology faults' for the grammar",
    )
    p_map.add_argument("--traffic", action="store_true", help="show traffic profile")
    p_map.add_argument(
        "--verify-cleanup", action="store_true",
        help="assert the Lemma 4.2 invariant after every RCA/BCA",
    )
    p_map.add_argument(
        "--json", metavar="PATH",
        help="also write the recovered map + stats as JSON to PATH",
    )
    p_map.add_argument(
        "--profile", nargs="?", const="", metavar="FILE",
        help="run under cProfile and print the top-20 functions by "
        "cumulative time; with FILE, also dump the raw pstats data "
        "there (inspect with 'python -m pstats FILE')",
    )

    p_camp = sub.add_parser(
        "campaign",
        help="run a scenario matrix (family x size x fault x seed)",
    )
    p_camp.add_argument(
        "--families", type=_csv, default=["de-bruijn"],
        metavar="A,B,...", help=f"from: {', '.join(sorted(FAMILY_BUILDERS))}",
    )
    p_camp.add_argument("--sizes", type=_csv_ints, default=[8], metavar="N,N,...")
    p_camp.add_argument(
        "--faults", type=_csv, default=["none"], metavar="F,F,...",
        help="none | shutdown:RATE | cut:FRACTION | add:FRACTION",
    )
    p_camp.add_argument(
        "--timeline", action="append", default=[], metavar="SPEC",
        help="add a perturbation timeline to the fault axis (repeatable; "
        "timeline specs contain commas, so they cannot ride in --faults); "
        "see 'repro-topology faults' for the grammar",
    )
    p_camp.add_argument(
        "--seeds", type=int, default=1, metavar="K",
        help="seeds per cell: --seed, --seed+1, ..., --seed+K-1",
    )
    p_camp.add_argument("--seed", type=int, default=0, help="first seed of the sweep")
    p_camp.add_argument(
        "--backend", choices=sorted(ENGINE_BACKENDS), default=DEFAULT_BACKEND,
        help="engine backend for every cell; the store keeps object- and "
        "flat-backend results under distinct keys",
    )
    p_camp.add_argument(
        "--jobs", type=int, default=1, metavar="J",
        help="worker processes (results are identical for any J)",
    )
    p_camp.add_argument(
        "--start-method", choices=("fork", "forkserver", "spawn"), default=None,
        help="multiprocessing start method for the worker pool (default: "
        "fork where available, else the platform default; results are "
        "identical for any method)",
    )
    p_camp.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECS",
        help="per-cell wall-clock budget: a parallel chunk outliving "
        "SECS x cells (+ grace) is presumed wedged, its pool is recycled "
        "and the chunk retried/bisected (default 120; 0 disables deadlines)",
    )
    p_camp.add_argument(
        "--max-retries", type=int, default=None, metavar="K",
        help="attributed failures a chunk may accrue before it is bisected "
        "down to the poison cell and that cell is quarantined (default 1)",
    )
    p_camp.add_argument(
        "--on-error", choices=("quarantine", "raise"), default="quarantine",
        help="what a failing cell does to the campaign: 'quarantine' "
        "(default) records it as outcome=error and completes every other "
        "cell; 'raise' aborts on the first failure (the strict mode)",
    )
    p_camp.add_argument(
        "--episodes", action="store_true",
        help="also print the Lemma 4.3 episode-scaling fit over the matrix",
    )
    p_camp.add_argument("--json", metavar="PATH", help="write all results as JSON")
    p_camp.add_argument(
        "--store", metavar="DIR",
        help="persist results to a store at DIR (created if absent); "
        "scenarios already recorded there are loaded instead of re-run",
    )
    p_camp.add_argument(
        "--resume", metavar="RUN_DIR",
        help="resume an interrupted campaign from an existing store: skip "
        "its completed scenarios, run the rest, write through to it",
    )
    p_camp.add_argument(
        "--artifacts", metavar="DIR",
        help="persist compiled topologies to an mmap-shared artifact "
        "library at DIR (created if absent); warm libraries skip every "
        "previously-seen compile, across processes and campaigns",
    )
    p_camp.add_argument(
        "--profile", nargs="?", const="", metavar="FILE",
        help="run under cProfile — aggregated across every worker process "
        "with --jobs — and print the top-20 functions by cumulative time; "
        "with FILE, also dump the merged pstats data there (inspect with "
        "'python -m pstats FILE')",
    )

    p_store = sub.add_parser(
        "store",
        help="inspect a result store or (--artifacts) an artifact library",
    )
    p_store.add_argument("dir", metavar="DIR", help="path of the store")
    p_store.add_argument(
        "--json", metavar="PATH",
        help="also write the aggregate stats as canonical JSON to PATH "
        "('-' for stdout)",
    )
    p_store.add_argument(
        "--artifacts", action="store_true",
        help="DIR is a compiled-artifact library, not a result store: "
        "print artifact count and total bytes",
    )
    p_store.add_argument(
        "--verify", action="store_true",
        help="offline integrity scan; exit 1 on corruption.  For a result "
        "store: parse every shard line, check each payload against its "
        "digest and each record's key against the recomputed spec hash "
        "(torn trailing lines are warnings).  With "
        "--artifacts: fully validate every artifact (checksums, versions)",
    )
    p_store.add_argument(
        "--gc", action="store_true",
        help="with --artifacts: remove invalid artifacts (and, with "
        "--keep-mb, evict oldest artifacts down to the byte budget)",
    )
    p_store.add_argument(
        "--keep-mb", type=float, metavar="MB",
        help="with --gc: byte budget the library must fit after eviction",
    )

    p_bc = sub.add_parser(
        "bench-compare",
        help="diff a fresh benchmark snapshot against a committed baseline",
    )
    p_bc.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="committed baseline JSON (benchmarks/baselines/BENCH_*.json)",
    )
    p_bc.add_argument(
        "--fresh", required=True, metavar="PATH",
        help="fresh snapshot JSON (benchmarks/out/BENCH_*.json)",
    )
    p_bc.add_argument(
        "--threshold", type=float, default=0.25, metavar="T",
        help="relative slack before a metric counts as regressed "
        "(default 0.25 = 25%%)",
    )
    p_bc.add_argument(
        "--require-all", action="store_true",
        help="treat baseline metrics missing from the fresh snapshot as "
        "regressions (default: skip them)",
    )

    sub.add_parser("families", help="list built-in network families")

    sub.add_parser(
        "faults",
        help="list the fault-model vocabulary (legacy kinds + timeline grammar)",
    )

    p_lb = sub.add_parser("lower-bound", help="Theorem 5.1 implied bound table")
    p_lb.add_argument("--delta", type=int, default=5)
    p_lb.add_argument("--max-depth", type=int, default=10)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "families":
        # exactly the names map --family / campaign --families accept,
        # instantiated at the default size for a feel of their shape
        for name in sorted(FAMILY_BUILDERS):
            graph = build_family(name, 8, seed=0)
            print(
                f"{name:28s} N={graph.num_nodes:4d} delta={graph.delta} "
                f"D={diameter(graph)}"
            )
        return 0
    if args.command == "lower-bound":
        rows = [
            (n, ticks)
            for n, ticks in lower_bound_curve(
                list(range(1, args.max_depth + 1)), args.delta
            )
        ]
        print(
            format_table(
                ["N (family size)", "min ticks (Thm 5.1)"],
                rows,
                title=f"Implied lower bound, delta={args.delta}",
            )
        )
        return 0
    if args.command == "faults":
        return _run_faults_command()
    if args.command == "campaign":
        if args.profile is not None:
            return _run_campaign_profiled(args)
        return _run_campaign_command(args)
    if args.command == "store":
        return _run_store_command(args)
    if args.command == "bench-compare":
        return _run_bench_compare(args)
    # map
    if args.timeline and args.repeats > 1:
        raise ReproError(
            "--timeline applies to a single map run; for a sweep, use "
            "'campaign --timeline'"
        )
    if args.profile is not None:
        return _run_map_profiled(args)
    return _run_map(args)


def _run_map_profiled(args: argparse.Namespace) -> int:
    """Run any map variant under cProfile (the ``--profile`` hook).

    Prints the top-20 functions by cumulative time — the view that keeps
    the hot-loop split visible: code-space dispatch shows up under the
    engine's ``_burst`` while object-path fallbacks surface the
    ``ProtocolProcessor.handle`` tree — and optionally dumps the raw
    pstats data for offline digging.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        if args.repeats > 1:
            code = _run_map_sweep(args)
        elif args.timeline:
            code = _run_map_timeline(args)
        else:
            code = _run_map(args)
    finally:
        profiler.disable()
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)
    if args.profile:
        profiler.dump_stats(args.profile)
        print(f"wrote profile stats to {args.profile}")
    return code


def _run_map(args: argparse.Namespace) -> int:
    if args.repeats > 1:
        return _run_map_sweep(args)
    if args.timeline:
        return _run_map_timeline(args)
    graph = build_family(args.family, args.size, args.seed)
    print(
        f"network: {args.family}, N={graph.num_nodes}, delta={graph.delta}, "
        f"backend={args.backend}"
    )
    print(render_adjacency(graph, root=0))
    result = determine_topology(
        graph, verify_cleanup=args.verify_cleanup, backend=args.backend
    )
    print()
    print(render_recovered_map(result.recovered))
    print()
    print(
        f"ticks={result.ticks}  D={result.diameter}  N*D="
        f"{graph.num_nodes * max(1, result.diameter)}  "
        f"RCAs={result.rca_runs}  BCAs={result.bca_runs}  "
        f"exact={result.matches(graph)}"
    )
    if args.traffic:
        print()
        print(render_traffic_profile(result.metrics))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json())
        print(f"wrote {args.json}")
    return 0


def _run_faults_command() -> int:
    """``faults``: the fault-model vocabulary, legacy kinds first."""
    legacy = [
        ("none", "", "the healthy network"),
        ("shutdown", "shutdown:RATE", "pre-run: each wire dies w.p. RATE"),
        ("cut", "cut:T", "one wire cut at T x the undisturbed runtime"),
        ("add", "add:T", "one wire added at T x the undisturbed runtime"),
    ]
    print(
        format_table(
            ["kind", "spec", "meaning"],
            [(name, spec or name, doc) for name, spec, doc in legacy],
            title="fault models (campaign --faults / scenario fault axis)",
        )
    )
    print()
    print(
        format_table(
            ["event", "parameters", "meaning"],
            [
                (kind, params, doc)
                for kind, (params, doc) in sorted(TIMELINE_EVENT_KINDS.items())
            ],
            title="timeline events (--timeline; compose with '+', times are "
            "fractions of the undisturbed runtime T)",
        )
    )
    print()
    print("example: repro-topology campaign --families spare-ring --sizes 10 \\")
    print("             --timeline 'storm:p=0.2@0.4+heal@0.9' --seeds 5")
    return 0


def _run_map_timeline(args: argparse.Namespace) -> int:
    """``map --timeline``: one perturbed GTD run, classified per phase."""
    if args.verify_cleanup:
        raise ReproError(
            "--verify-cleanup asserts the static protocol's invariants; "
            "a perturbed run violates them by design"
        )
    timeline = parse_timeline(args.timeline)  # fail fast, before any run
    graph = build_family(args.family, args.size, args.seed)
    print(
        f"network: {args.family}, N={graph.num_nodes}, delta={graph.delta}, "
        f"backend={args.backend}, timeline={timeline.canonical()}"
    )
    program = compile_timeline(
        timeline, graph, seed=args.seed, backend=args.backend
    )
    result = run_dynamic_gtd(
        graph,
        program,
        max_ticks=program.horizon * 3 + 1000,
        backend=args.backend,
    )
    # the "pre" phase precedes every op by definition; each later phase
    # opens with the ops that fired at its start tick
    rows = [("pre", 0, 0)] + [
        (label, start, sum(1 for op in program.ops if op.tick == start))
        for label, start in program.phases[1:]
    ]
    print()
    print(
        format_table(
            ["phase", "starts at tick", "wire ops"],
            rows,
            title=f"timeline program: {len(program.ops)} wire op(s), "
            f"horizon {program.horizon} ticks (undisturbed runtime)",
        )
    )
    print()
    print(
        f"outcome={result.outcome.value}  ended in phase '{result.phase}'  "
        f"ticks={result.ticks}  hops={result.hops}  "
        f"lost={result.lost_characters}  "
        f"ops applied={result.applied_ops}/{len(program.ops)}"
    )
    if args.traffic:
        print()
        print(render_traffic_profile(result.metrics))
    if args.json:
        import json as _json

        doc = {
            "format": "repro.map-timeline/v1",
            "family": args.family,
            "size": graph.num_nodes,
            "seed": args.seed,
            "backend": args.backend,
            "timeline": program.source,
            "horizon": program.horizon,
            "phases": [list(p) for p in program.phases],
            "outcome": result.outcome.value,
            "phase": result.phase,
            "ticks": result.ticks,
            "hops": result.hops,
            "lost_characters": result.lost_characters,
            "applied_ops": result.applied_ops,
        }
        with open(args.json, "w") as fh:
            fh.write(_json.dumps(doc, indent=2))
        print(f"wrote {args.json}")
    return 0


def _run_map_sweep(args: argparse.Namespace) -> int:
    """``map --repeats K [--jobs J]``: a seed sweep over the campaign runner."""
    if args.verify_cleanup or args.traffic:
        raise ReproError(
            "--verify-cleanup and --traffic apply to a single map run; "
            "drop --repeats (or run the seeds one at a time)"
        )
    scenarios = [
        Scenario(
            family=args.family, size=args.size, seed=args.seed + i,
            backend=args.backend,
        )
        for i in range(args.repeats)
    ]
    campaign = run_campaign(scenarios, jobs=args.jobs)
    print(campaign.summary())
    exact = sum(1 for r in campaign.results if r.ok)
    print(f"\nexact maps: {exact}/{len(campaign)}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(campaign.to_json())
        print(f"wrote {args.json}")
    return 0 if exact == len(campaign) else 1


def _has_manifest(directory: str) -> bool:
    """Whether ``directory`` holds a store or library (its ``MANIFEST.json``).

    Opening a :class:`ResultStore` or an ``ArtifactLibrary`` creates the
    layout, so the commands that only read or resume check for it first.
    """
    return (Path(directory) / "MANIFEST.json").is_file()


def _open_campaign_store(args: argparse.Namespace) -> ResultStore | None:
    """Resolve --store / --resume into an open store (or None)."""
    if args.resume and args.store and args.resume != args.store:
        raise ReproError(
            "--resume and --store point at different directories; "
            "--resume already implies storing into RUN_DIR"
        )
    if args.resume:
        if not _has_manifest(args.resume):
            raise ReproError(
                f"--resume: no store at {args.resume!r} (start one with "
                f"--store, then resume it after an interruption)"
            )
        return ResultStore(args.resume)
    return ResultStore(args.store) if args.store else None


def _run_campaign_profiled(args: argparse.Namespace) -> int:
    """``campaign --profile``: one merged cProfile report for the matrix.

    Mirrors ``map --profile``, extended across the worker pool: the parent
    process (chunking, store round-trips, serial runs) is profiled
    in-process, every pool worker dumps per-pid pstats snapshots after
    each chunk, and the views are merged into a single top-20 cumulative
    report — so the hot-loop split reads the same whether the matrix ran
    with ``--jobs 1`` or fanned out.  With FILE, the merged stats are also
    dumped for offline digging.
    """
    import cProfile
    import os
    import pstats
    import tempfile

    from repro.campaigns.executor import shutdown_worker_pool

    with tempfile.TemporaryDirectory(prefix="repro-campaign-profile-") as tmp:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            code = _run_campaign_command(args, profile_dir=tmp)
        finally:
            profiler.disable()
            # retire the armed pool: the terminate flushes nothing (chunk
            # dumps are already complete snapshots), it just stops the
            # profiler overhead from leaking into later campaigns
            shutdown_worker_pool()
        print()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        worker_files = sorted(
            os.path.join(tmp, name)
            for name in os.listdir(tmp)
            if name.endswith(".pstats")
        )
        for path in worker_files:
            stats.add(path)
        if worker_files:
            print(
                f"aggregated {len(worker_files)} worker profile(s) "
                f"into the parent's"
            )
        stats.sort_stats("cumulative").print_stats(20)
        if args.profile:
            stats.dump_stats(args.profile)
            print(f"wrote merged profile stats to {args.profile}")
    return code


def _run_campaign_command(
    args: argparse.Namespace, profile_dir: str | None = None
) -> int:
    spec = CampaignSpec(
        families=tuple(args.families),
        sizes=tuple(args.sizes),
        faults=tuple(args.faults) + tuple(args.timeline),
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        backends=(args.backend,),
    )
    store = _open_campaign_store(args)
    policy_kwargs: dict = {"on_error": args.on_error}
    if args.cell_timeout is not None:
        # 0 disables deadlines entirely (the policy models that as None)
        policy_kwargs["cell_timeout"] = args.cell_timeout or None
    if args.max_retries is not None:
        policy_kwargs["max_retries"] = args.max_retries
    campaign = run_campaign(
        spec,
        jobs=args.jobs,
        store=store,
        start_method=args.start_method,
        artifacts=args.artifacts,
        profile_dir=profile_dir,
        policy=SupervisionPolicy(**policy_kwargs),
    )
    print(campaign.summary())
    for family, size, seed, reason in campaign.prewarm_skipped:
        print(f"prewarm skipped {family}({size}) s{seed}: {reason}")
    quarantined = campaign.quarantined()
    if quarantined:
        print()
        print(
            format_table(
                ["quarantined cell", "error kind", "digest"],
                [(r.scenario.label, r.error, r.error_digest) for r in quarantined],
                title="cells quarantined by the supervisor",
            )
        )
    phase_rows = phase_outcome_counts(campaign.results)
    if phase_rows:
        print()
        print(
            format_table(
                ["timeline phase", "outcome", "runs"],
                list(phase_rows),
                title="outcomes by timeline phase",
            )
        )
    if store is not None:
        print(
            f"\nstore {store.root}: reused {campaign.reused} stored scenario(s), "
            f"ran {len(spec) - campaign.reused} fresh, {len(store)} record(s) total"
        )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(campaign.to_json())
        print(f"wrote {args.json}")
    if args.episodes:
        try:
            fit = campaign.episode_fit()
        except TranscriptError:
            # dynamic-fault matrices can legitimately yield < 2 episodes
            print("\nepisode scaling: not enough RCA episodes in this matrix")
        else:
            print(
                f"\nepisode scaling (Lemma 4.3): duration ~ "
                f"{fit.slope:.2f} * loop_length + {fit.intercept:.2f} "
                f"(R^2 = {fit.r_squared:.4f})"
            )
    # Outcomes (stale/deadlock/...) are the campaign's *data*, not command
    # failures — dynamics sweeps produce them by design — so the exit code
    # only reflects whether the matrix itself ran.
    return 0


def _run_store_command(args: argparse.Namespace) -> int:
    """``store DIR``: aggregate a result store from its JSONL shards."""
    if args.artifacts:
        return _run_artifacts_store_command(args)
    if args.gc or args.keep_mb is not None:
        raise ReproError("--gc/--keep-mb apply to --artifacts libraries")
    if args.verify and Path(args.dir).is_dir():
        # Offline scan: reports without opening (or truncating) anything.
        # Torn trailing lines are warnings — the loader handles them — so
        # only genuinely corrupt records fail the exit code.
        report = verify_result_store(args.dir)
        print(report.summary())
        return 0 if report.ok else 1
    if not _has_manifest(args.dir):
        raise ReproError(f"no result store at {args.dir!r}")
    store = ResultStore(args.dir)
    stats = store.stats()
    outcomes = {outcome: n for outcome, n in stats.outcomes}
    print(f"store {store.root}: {len(store)} record(s)")
    print(f"outcomes: {outcomes}")
    print(
        f"total ticks={stats.total_ticks}  hops={stats.total_hops}  "
        f"work={stats.total_work}  episodes={stats.episode_count}  "
        f"ok={stats.ok_fraction:.0%}"
    )
    if stats.fit is not None:
        print(
            f"episode scaling (Lemma 4.3): duration ~ "
            f"{stats.fit.slope:.2f} * loop_length + {stats.fit.intercept:.2f} "
            f"(R^2 = {stats.fit.r_squared:.4f})"
        )
    if args.json == "-":
        print(stats.to_json())
    elif args.json:
        with open(args.json, "w") as fh:
            fh.write(stats.to_json() + "\n")
        print(f"wrote {args.json}")
    return 0


def _run_artifacts_store_command(args: argparse.Namespace) -> int:
    """``store DIR --artifacts``: inspect/verify/GC a compiled-artifact library."""
    from repro.store.artifacts import ArtifactLibrary

    if not _has_manifest(args.dir):
        raise ReproError(f"no artifact library at {args.dir!r}")
    if args.keep_mb is not None and not args.gc:
        raise ReproError("--keep-mb requires --gc")
    library = ArtifactLibrary(args.dir)
    if args.gc:
        budget = int(args.keep_mb * 1024 * 1024) if args.keep_mb is not None else None
        removed = library.gc(max_bytes=budget)
        for entry in removed:
            reason = entry.error or "evicted (byte budget)"
            print(f"removed {entry.key[:16]}… ({entry.size} bytes): {reason}")
        print(f"gc: removed {len(removed)} artifact(s)")
    stats = library.stats()
    print(
        f"artifact library {stats['root']}: {stats['artifacts']} artifact(s), "
        f"{stats['bytes']} bytes"
    )
    if args.verify:
        bad = [entry for entry in library.entries(validate=True) if not entry.ok]
        for entry in bad:
            print(f"INVALID {entry.key[:16]}…: {entry.error}")
        print(f"verify: {len(bad)} invalid artifact(s)")
        return 1 if bad else 0
    return 0


def _run_bench_compare(args: argparse.Namespace) -> int:
    """``bench-compare``: the perf regression gate; exit 1 on regression."""
    report = compare_files(
        args.baseline,
        args.fresh,
        threshold=args.threshold,
        require_all=args.require_all,
    )
    print(report.summary())
    if not report.ok:
        names = ", ".join(row.name for row in report.regressions)
        print(f"\nregressed beyond {args.threshold:.0%}: {names}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
