"""Small numeric, bookkeeping and host helpers shared by the benchmark.

Everything here is stdlib-only and independent of the program, so the
tests in ``perfbench/test_perfbench.py`` can pin the arithmetic without
running a workload.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles (``quantiles`` needs two points).
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """The interquartile distance as a share of the median.

    This is the steadiness figure the benchmark's bounds are judged by:
    ``(q3 - q1) / median``.  A zero median gives ``inf`` unless every value
    is zero (then the spread is ``0.0``).
    """
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


@dataclass
class Tally:
    """Attempted and failed output checks, with the first few reasons.

    One ``record`` call is one checked item: a campaign cell, a resumed
    cell, a repeated op or an oracle comparison.  ``failed`` counts the
    items whose check did not hold; ``reasons`` keeps a bounded sample for
    the report.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    max_reasons: int = 10

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < self.max_reasons:
                self.reasons.append(reason or "check failed")
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def filesystem_of(path: str | os.PathLike) -> str:
    """The filesystem type holding ``path``, from ``/proc/mounts``.

    The longest mount point that prefixes the resolved path wins.  Returns
    ``"unknown"`` where ``/proc/mounts`` is unavailable.
    """
    target = str(Path(path).resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def host_metadata(work_dir: str | os.PathLike) -> dict:
    """What a reader needs to compare two runs: cores, interpreter, disk."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "store_filesystem": filesystem_of(work_dir),
    }


def host_speed(seconds: float = 0.25) -> float:
    """Passes per second of a fixed pure-Python loop, measured now.

    Other tenants of a shared host slow interpreter-bound code from one
    second to the next.  Readings taken before and after a run's ops show
    how contended the host was while they ran.
    """
    passes, start = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        table: dict[int, int] = {}
        for i in range(2000):
            table[i & 255] = table.get(i & 255, 0) + i
        passes += 1
    return passes / elapsed
