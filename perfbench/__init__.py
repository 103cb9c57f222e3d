"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run it from the repository root with ``python3 perfbench/run.py --workload
NAME --seed N --seconds S --trace 0|1``; ``perfbench/README.md`` describes
the workloads and what each metric should move.
"""
