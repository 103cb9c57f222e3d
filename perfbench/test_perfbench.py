"""Tests for the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench -q``.  They
pin the arithmetic the reported numbers rest on (self time, quartiles,
failure counting), the probe install/restore contract, and the metric
names ``BENCHMARK.json`` promises.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from perfbench import run, stats, tracing
from perfbench.tracing import Probe, Span, Tracer

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def _nested_spans() -> list[Span]:
    # campaign [0, 10] > protocol [1, 7] > sim [2, 6]; store [8, 9] under campaign
    return [
        Span("run_campaign", "campaigns", 0.0, 10.0, -1),
        Span("determine_topology", "protocol", 1.0, 7.0, 0),
        Span("Engine.run", "sim", 2.0, 6.0, 1),
        Span("ResultStore.put", "store", 8.0, 9.0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(_nested_spans()) == [3.0, 2.0, 4.0, 1.0]


def test_layer_self_times_sum_to_wall_with_other_remainder():
    layers = tracing.layer_self_times(_nested_spans(), wall=12.0)
    assert layers["campaigns"] == 3.0
    assert layers["protocol"] == 2.0
    assert layers["sim"] == 4.0
    assert layers["store"] == 1.0
    assert layers["other"] == 2.0
    assert sum(layers.values()) == pytest.approx(12.0)


def test_same_layer_nesting_is_not_double_counted():
    spans = [
        Span("execute_run", "sim", 0.0, 5.0, -1),
        Span("Engine.run", "sim", 0.5, 4.5, 0),
    ]
    assert tracing.layer_self_times(spans, wall=5.0)["sim"] == pytest.approx(5.0)


def test_layer_metrics_ratios_and_zero_guards():
    counts = Counter({
        "sim.hops": 1000, "sim.runs": 2, "sim.pool_hits": 3, "sim.pool_misses": 1,
        "campaigns.cells": 10, "store.hits": 6,
    })
    spans = [Span("Engine.run", "sim", 0.0, 2e-3, -1)]
    metrics = tracing.layer_metrics(spans, counts, wall=4e-3)
    assert metrics["sim.ns_per_hop"] == pytest.approx(2000.0)
    assert metrics["sim.pool_hit_ratio"] == 0.75
    assert metrics["campaigns.sims_per_cell"] == 0.5  # 2 sims over 4 computed cells
    assert metrics["sim.self_share"] == pytest.approx(0.5)
    empty = tracing.layer_metrics([], Counter(), wall=1.0)
    assert empty["sim.ns_per_hop"] == 0.0
    assert empty["sim.pool_hit_ratio"] == 0.0
    assert empty["campaigns.sims_per_cell"] == 0.0
    assert empty["other.self_s"] == 1.0


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
class _Base:
    def work(self, x):
        return x + 1


class _Child(_Base):
    pass


def _module():
    mod = types.ModuleType("fake_layer")

    def outer(obj, x):
        return mod.inner(x) + obj.work(x)

    def inner(x):
        return 2 * x

    mod.outer, mod.inner = outer, inner
    return mod


def test_tracer_records_nesting_and_restores_exactly():
    mod = _module()
    original_inner, original_work = mod.inner, vars(_Base)["work"]
    probes = [
        Probe(mod, "outer", "campaigns", "outer"),
        Probe(mod, "inner", "protocol", "inner"),
        Probe(_Base, "work", "sim", "work"),
    ]
    tracer = Tracer(probes)
    with tracer:
        assert mod.outer(_Child(), 3) == 10  # subclass instances are seen too
    assert mod.inner is original_inner
    assert vars(_Base)["work"] is original_work
    assert "work" not in vars(_Child)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("work", 0)]
    assert tracer.counts == Counter({"outer": 1, "inner": 1, "work": 1})


def test_tracer_restores_after_exception_and_closes_span():
    mod = _module()

    def boom(x):
        raise ValueError(x)

    mod.inner = boom
    tracer = Tracer([Probe(mod, "inner", "protocol", "inner")])
    with pytest.raises(ValueError):
        with tracer:
            mod.inner(1)
    assert mod.inner is boom
    assert len(tracer.spans) == 1 and tracer.spans[0].end >= tracer.spans[0].start


def test_inherited_method_probe_is_refused_and_nothing_stays_patched():
    mod = _module()
    original = mod.inner
    with pytest.raises(AttributeError):
        with Tracer([Probe(mod, "inner", "protocol", "inner"),
                     Probe(_Child, "work", "sim", "work")]):
            pass
    assert mod.inner is original


def test_count_only_mode_skips_unhooked_probes_and_records_no_spans():
    mod = _module()
    hook = lambda args, kwargs: (lambda result: {"seen": result})  # noqa: E731
    tracer = Tracer(
        [Probe(mod, "inner", "protocol", "inner", hook), Probe(mod, "outer", "x", "outer")],
        timed=False,
    )
    assert len(tracer.probes) == 1
    with tracer:
        mod.inner(4)
        mod.inner(1)
    assert tracer.spans == []
    assert tracer.counts == Counter({"seen": 10})


def test_probe_table_binds_every_caller_site():
    """Every probe resolves, and names bound twice are probed at both sites."""
    probes = tracing.layer_probes()
    for probe in probes:
        tracing._lookup(probe.owner, probe.attr)
    owners = {(p.owner.__name__, p.attr) for p in probes}
    assert ("repro.campaigns.executor", "determine_topology") in owners
    assert ("repro.protocol.runner", "determine_topology") in owners
    assert ("repro.protocol.runner", "execute_run") in owners
    assert ("repro.dynamics.experiment", "execute_run") in owners


# ----------------------------------------------------------------------
# statistics and failure counting
# ----------------------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        stats.quartiles([])


def test_relative_spread():
    q1, q2, q3 = statistics.quantiles([8.0, 9.0, 10.0, 11.0, 12.0], n=4)
    assert stats.relative_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == (q3 - q1) / q2
    assert stats.relative_spread([0.0, 0.0]) == 0.0
    assert stats.relative_spread([3.0, 3.0, 3.0]) == 0.0


def test_tally_counts_failures_and_keeps_bounded_reasons():
    tally = stats.Tally(max_reasons=2)
    assert tally.record(True)
    for i in range(3):
        assert not tally.record(False, f"cell {i}")
    tally.record(False)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert tally.reasons == ["cell 0", "cell 1"]
    assert tally.error_rate == 0.8
    assert stats.Tally().error_rate == 0.0


def test_derived_seeds_are_reproducible_distinct_and_filtered():
    from perfbench.workloads import derived_seeds

    seeds = derived_seeds("sweep", 7, 5)
    assert seeds == derived_seeds("sweep", 7, 5)
    assert len(set(seeds)) == 5 and list(seeds) == sorted(seeds)
    assert seeds != derived_seeds("sweep", 8, 5)
    even = derived_seeds("sweep", 7, 3, accept=lambda s: s % 2 == 0)
    assert all(s % 2 == 0 for s in even)


def test_host_metadata_names_the_store_filesystem(tmp_path):
    meta = stats.host_metadata(tmp_path)
    assert meta["nproc"] >= 1
    assert isinstance(meta["store_filesystem"], str) and meta["store_filesystem"]


# ----------------------------------------------------------------------
# the contract with BENCHMARK.json
# ----------------------------------------------------------------------
def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    config = _config()
    assert {m["name"] for m in config["end_to_end"]} == set(run.END_TO_END_UNITS)
    produced = set(tracing.layer_metrics([], Counter(), wall=1.0))
    produced |= {"trace.overhead", "store.resume_scenarios_per_s"}
    assert {m["name"] for m in config["per_layer"]} == produced
    for metric in config["end_to_end"] + config["per_layer"]:
        assert metric["unit"] == run._unit(metric["name"]), metric["name"]


def test_benchmark_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-faults",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
