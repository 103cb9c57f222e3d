"""The ``--profile`` front doors of ``map`` and ``campaign``.

``campaign --profile`` merges the parent's cProfile view with the per-pid
snapshots every pool worker dumps after each chunk.  Spawned workers learn
the dump directory only through the pool initializer's arguments, so
``REPRO_ROBUSTNESS_START_METHOD`` selects the pool start method here as in
the robustness suite (the CI robustness job runs this module under both
``fork`` and ``spawn``); the default is ``fork``.
"""

from __future__ import annotations

import os
import pstats

import pytest

from repro.campaigns import CampaignSpec, executor, run_campaign
from repro.cli import main

START_METHOD = os.environ.get("REPRO_ROBUSTNESS_START_METHOD", "fork")

#: Two wirings' worth of cells, so a two-worker pool really runs cells.
CAMPAIGN = [
    "campaign",
    "--families", "directed-ring",
    "--sizes", "6",
    "--faults", "none,cut:0.3",
    "--seeds", "2",
]


@pytest.fixture(autouse=True)
def _no_pool_leak():
    executor.shutdown_worker_pool()
    yield
    executor.shutdown_worker_pool()


def _functions(path) -> set[str]:
    """The function names a pstats file records."""
    return {func for (_, _, func) in pstats.Stats(str(path)).stats}


def test_map_profile_prints_and_dumps_loadable_stats(capsys, tmp_path):
    out_file = tmp_path / "map.pstats"
    argv = ["map", "--family", "directed-ring", "--size", "5"]
    assert main(argv + ["--profile"]) == 0
    assert "cumulative" in capsys.readouterr().out
    assert not out_file.exists()
    assert main(argv + ["--profile", str(out_file)]) == 0
    assert f"wrote profile stats to {out_file}" in capsys.readouterr().out
    assert "determine_topology" in _functions(out_file)


def test_serial_campaign_profile_dumps_loadable_stats(capsys, tmp_path):
    out_file = tmp_path / "serial.pstats"
    assert main(CAMPAIGN + ["--profile", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "worker profile(s)" not in out  # nothing ran in a pool
    assert f"wrote merged profile stats to {out_file}" in out
    assert "run_scenario" in _functions(out_file)


def test_parallel_campaign_profile_merges_worker_stats(capsys, tmp_path):
    out_file = tmp_path / "merged.pstats"
    argv = CAMPAIGN + ["--jobs", "2", "--start-method", START_METHOD]
    assert main(argv + ["--profile", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "aggregated" in out and "worker profile(s) into the parent's" in out
    # only the workers run cells in a parallel campaign, so the parent's
    # own profile cannot hold run_scenario: it came from a worker dump
    assert "run_scenario" in _functions(out_file)
    # the armed pool is retired with the command, so the next unprofiled
    # campaign builds clean workers
    assert executor._WORKER_POOL is None
    spec = CampaignSpec(families=("directed-ring",), sizes=(6,), seeds=(0, 1))
    run_campaign(spec, jobs=2, start_method=START_METHOD)
    assert executor._WORKER_POOL[3] is None


def test_unprofiled_campaign_does_not_reuse_a_profiled_pool(tmp_path):
    spec = CampaignSpec(
        families=("directed-ring",), sizes=(6,), faults=("none", "cut:0.3"),
        seeds=(0, 1),
    )
    profiled = run_campaign(
        spec, jobs=2, start_method=START_METHOD, profile_dir=str(tmp_path)
    )
    armed = executor._WORKER_POOL
    assert armed is not None and armed[3] == str(tmp_path)
    assert any(name.endswith(".pstats") for name in os.listdir(tmp_path))
    plain = run_campaign(spec, jobs=2, start_method=START_METHOD)
    clean = executor._WORKER_POOL
    assert clean is not None and clean[3] is None
    assert clean[-1] is not armed[-1]
    assert plain.to_json() == profiled.to_json()
