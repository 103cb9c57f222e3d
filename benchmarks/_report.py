"""Shared reporting helpers for the benchmark suite.

Every experiment prints its paper-style table and also appends it to
``benchmarks/out/<experiment>.txt`` so results survive pytest's output
capture (inspect them after a ``pytest benchmarks/ --benchmark-only`` run).

Experiments with gate-worthy headline numbers additionally record them via
:func:`bench_metric` into ``benchmarks/out/BENCH_<experiment>.json`` — the
fresh snapshot that ``repro-topology bench-compare`` diffs against the
committed ``benchmarks/baselines/BENCH_<experiment>.json``.  To re-record
a baseline after an intentional perf change, run the experiment and copy
the fresh snapshot over the committed one.
"""

from __future__ import annotations

import pathlib

from repro.bench.baseline import record_metric

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Experiments whose snapshot has been reset in this pytest session.  The
#: first metric of an experiment wipes its stale file so a partial run
#: (e.g. ``-k "not large"``) cannot inherit values from an earlier run of
#: different code — bench-compare then *skips* the missing metrics instead
#: of silently gating on stale ones.
_RESET_THIS_SESSION: set[str] = set()

#: Same idea for the human-readable ``<experiment>.txt`` logs.
_TXT_RESET_THIS_SESSION: set[str] = set()


def report(experiment: str, text: str) -> None:
    """Print ``text`` and persist it under ``benchmarks/out/``."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{experiment}.txt"
    if experiment not in _TXT_RESET_THIS_SESSION:
        path.unlink(missing_ok=True)
        _TXT_RESET_THIS_SESSION.add(experiment)
    with path.open("a") as fh:
        fh.write(text + "\n\n")


def timed_mean(benchmark) -> float | None:
    """The benchmark's mean seconds per round, or None when untimed.

    Under ``--benchmark-disable`` each bench body runs once without
    timing and ``benchmark.stats`` is None: its parity asserts still run,
    but it has no rate to record, so it writes no snapshot.
    """
    stats = benchmark.stats
    return None if stats is None else stats.stats.mean


def bench_metric(
    experiment: str,
    name: str,
    value: float,
    *,
    direction: str = "higher",
    unit: str = "",
    meta: dict | None = None,
) -> None:
    """Record one headline metric into the experiment's fresh snapshot."""
    path = OUT_DIR / f"BENCH_{experiment}.json"
    if experiment not in _RESET_THIS_SESSION:
        path.unlink(missing_ok=True)
        _RESET_THIS_SESSION.add(experiment)
    record_metric(
        path,
        experiment,
        name,
        value,
        direction=direction,
        unit=unit,
        meta=meta,
    )
