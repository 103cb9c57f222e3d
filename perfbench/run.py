"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-faults --seed 1 --seconds 55 --trace 0

``--trace 0`` times untraced ops and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of the traced ones, plus ``trace.overhead`` (traced over untraced
op wall time).  Human-readable tables go to standard output first; the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The benchmark imports the program from ``src/`` next to this directory and
works in ``.perfbench-work/`` at the repository root, which it removes on
exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: setup repetitions per run; ``setup_s`` is their median plus import time
SETUP_REPS = 5

END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "hops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.environ.pop("REPRO_ARTIFACTS", None)  # the workloads configure their own
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        result = run(workloads.WORKLOADS[args.workload], args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    print(json.dumps(result))
    return 0


def run(workload_cls, args, work: Path, import_s: float) -> dict:
    from perfbench.stats import Tally, host_metadata, host_speed
    from perfbench.tracing import Tracer, layer_metrics, layer_probes, run_probes
    from repro.topology.compile import compile_calls

    workload = workload_cls(args.seed, work)
    setup_times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    counter = Tracer(run_probes(), timed=False)
    tracer = Tracer(layer_probes()) if args.trace else None
    tally = Tally()
    samples: list[dict] = []
    measured = 0.0
    speed_before = host_speed()
    while True:
        traced = tracer is not None and len(samples) % 2 == 1
        probe = tracer if traced else counter
        probe.reset()
        gc.collect()
        compiles = compile_calls()
        with probe:
            t0 = time.perf_counter()
            output = workload.op()
            wall = time.perf_counter() - t0
        workload.check(output, tally)
        sample = {"traced": traced, "wall": wall, "cells": output.cells,
                  "hops": probe.counts["sim.hops"], "phases": output.phases}
        if traced:
            probe.counts["topology.compile_calls"] = compile_calls() - compiles
            sample["layers"] = layer_metrics(probe.spans, probe.counts, wall)
            probe.reset()
        samples.append(sample)
        del output  # free the op's results before the next op
        measured += wall
        # stop before an op that would overrun the budget; a traced run
        # needs at least one op of each kind
        enough = len(samples) >= (2 if tracer is not None else 1)
        if enough and measured + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed_after = host_speed()
    workload.oracle(tally)

    plain = [s for s in samples if not s["traced"]]
    end_to_end = {
        "scenarios_per_s": median([s["cells"] / s["wall"] for s in plain]),
        "hops_per_s": median([s["hops"] / s["wall"] for s in plain]),
        "setup_s": import_s + median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    meta = host_metadata(work.parent)
    meta.update(
        workload=workload.name, seed=args.seed, trace=args.trace,
        ops=len(samples), cells_per_op=plain[0]["cells"],
        hops_per_op=plain[0]["hops"], import_s=round(import_s, 4),
        setup_reps_s=[round(t, 4) for t in setup_times],
        host_speed=[round(speed_before), round(speed_after)],
    )
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    _print_ops(samples)
    print(f"# checks: attempted {tally.attempted}, failed {tally.failed}, "
          f"error_rate {tally.error_rate:.4g}")
    if tally.reasons:
        print("# failures: " + "; ".join(tally.reasons))
    _print_table("end-to-end (median of untraced ops)", end_to_end)
    metrics = end_to_end
    if args.trace:
        metrics = _per_layer(samples)
        _print_table("per-layer (median of traced ops)", metrics)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
        },
    }


def _per_layer(samples: list[dict]) -> dict[str, float]:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    names = traced[0]["layers"]
    metrics = {name: median([s["layers"][name] for s in traced]) for name in names}
    metrics["trace.overhead"] = (
        median([s["wall"] for s in traced]) / median([s["wall"] for s in plain])
    )
    resumes = [
        cells / seconds
        for cells, seconds in (s["phases"].get("resume", (0, 0.0)) for s in plain)
        if seconds > 0
    ]
    metrics["store.resume_scenarios_per_s"] = median(resumes) if resumes else 0.0
    return metrics


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_hop"):
        return "ns"
    if name.endswith(("_ratio", "_share", "overhead", "per_cell")):
        return "ratio"
    return "count"


def _print_ops(samples: list[dict]) -> None:
    for i, s in enumerate(samples):
        kind = "traced" if s["traced"] else "plain"
        phases = "".join(
            f", {name} {seconds:.3f} s" for name, (_, seconds) in s["phases"].items()
        )
        print(f"# op {i} {kind}: {s['wall']:.3f} s, {s['cells']} cells, "
              f"{s['hops']} hops{phases}")


def _print_table(title: str, metrics: dict[str, float]) -> None:
    print(f"# {title}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"#   {name:<{width}}  {value:>14.6g} {_unit(name)}")


if __name__ == "__main__":
    sys.exit(main())
