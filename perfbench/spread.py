"""Run one workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload sweep-faults --seeds 1,2,3,4,5

Each run is ``perfbench/run.py`` in a child process, one after another.
For every metric the script prints the values, the median and the
interquartile distance as a share of the median, and compares that share
with the metric's bound in ``BENCHMARK.json``: ``ok`` below a third of the
bound, ``wide`` below the bound, ``FAIL`` above it.  ``setup_s`` is only
reported; its bound applies to medians, not spreads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_spread  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        cmd = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        began = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.monotonic() - began
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = next(json.loads(line[len("# meta "):]) for line in lines
                    if line.startswith("# meta "))
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"ops={meta['ops']} hops/op={meta['hops_per_op']} "
              f"host_speed={meta['host_speed']} run {elapsed:.1f} s")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        spread = relative_spread(series)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread < bound / 3 else "wide" if spread <= bound else "FAIL"
        print(f"{name:<32} median {median(series):<14.6g} spread {spread:7.4f} "
              f"bound {bound if bound is not None else '-'} {verdict}")
        print(f"    {' '.join(f'{v:.6g}' for v in series)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
