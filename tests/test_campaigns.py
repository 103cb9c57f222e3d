"""Campaigns: matrix expansion, fault parsing, determinism, aggregation, CLI."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.campaigns import (
    CampaignSpec,
    FaultModel,
    Scenario,
    SupervisionPolicy,
    build_family,
    parse_fault,
    run_campaign,
    run_scenario,
)
from repro.campaigns.executor import shutdown_worker_pool
from repro.campaigns.faultinject import ENV_VAR
from repro.campaigns.spec import FAMILY_BUILDERS
from repro.cli import main
from repro.errors import ReproError, ScenarioExecutionError
from repro.store import ResultStore


class TestSpec:
    def test_matrix_expansion_order(self):
        spec = CampaignSpec(
            families=("de-bruijn", "torus"),
            sizes=(4, 8),
            faults=("none",),
            seeds=(0, 1),
        )
        scenarios = spec.scenarios()
        assert len(scenarios) == len(spec) == 8
        assert scenarios[0] == Scenario("de-bruijn", 4, "none", 0)
        assert scenarios[1] == Scenario("de-bruijn", 4, "none", 1)
        assert scenarios[2] == Scenario("de-bruijn", 8, "none", 0)
        assert scenarios[4] == Scenario("torus", 4, "none", 0)

    def test_unknown_family_rejected_eagerly(self):
        with pytest.raises(ReproError, match="unknown network family"):
            CampaignSpec(families=("nope",), sizes=(4,))

    def test_bad_fault_rejected_eagerly(self):
        with pytest.raises(ReproError):
            CampaignSpec(families=("torus",), sizes=(4,), faults=("melt:1",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ReproError, match="at least one"):
            CampaignSpec(families=("torus",), sizes=())

    def test_family_registry_builds_legal_graphs(self):
        for name in FAMILY_BUILDERS:
            graph = build_family(name, 6, seed=1)
            assert graph.frozen
            assert graph.num_nodes >= 6 or name in ("de-bruijn", "hypercube")

    def test_build_family_unknown(self):
        with pytest.raises(ReproError):
            build_family("nope", 8)

    @pytest.mark.parametrize("size", [0, -5])
    def test_size_below_one_rejected_eagerly(self, size):
        with pytest.raises(ReproError, match="network size must be >= 1"):
            CampaignSpec(families=("torus",), sizes=(8, size))
        with pytest.raises(ReproError, match="network size must be >= 1"):
            Scenario("torus", size)

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_build_family_rejects_size_below_one(self, family):
        # no family may quietly build its smallest network for a size of
        # zero or less: the label would then name a wiring it is not
        for size in (0, -5):
            with pytest.raises(ReproError, match="network size must be >= 1"):
                build_family(family, size)

    def test_generator_size_error_names_family_and_size(self):
        with pytest.raises(ReproError, match=r"bidirectional-ring\(1\)"):
            build_family("bidirectional-ring", 1)


class TestFaultParsing:
    def test_none(self):
        assert parse_fault("none") == FaultModel("none")

    def test_shutdown(self):
        assert parse_fault("shutdown:0.25") == FaultModel("shutdown", 0.25)

    def test_cut_and_add(self):
        assert parse_fault("cut:0.5") == FaultModel("cut", 0.5)
        assert parse_fault("add:1.2") == FaultModel("add", 1.2)

    def test_roundtrip_str(self):
        for spec in ("none", "shutdown:0.25", "cut:0.5"):
            assert str(parse_fault(spec)) == spec

    @pytest.mark.parametrize(
        "bad", ["melt:1", "shutdown", "shutdown:1.5", "cut:-1", "none:3"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ReproError):
            parse_fault(bad)


SMALL_SPEC = CampaignSpec(
    families=("de-bruijn", "bidirectional-ring"),
    sizes=(6,),
    faults=("none", "shutdown:0.1"),
    seeds=(0, 1),
)


class TestDeterminism:
    def test_parallel_equals_serial_result_for_result(self):
        serial = run_campaign(SMALL_SPEC, jobs=1)
        parallel = run_campaign(SMALL_SPEC, jobs=4)
        assert serial.results == parallel.results

    def test_two_serial_invocations_identical(self):
        a = run_campaign(SMALL_SPEC, jobs=1)
        b = run_campaign(SMALL_SPEC, jobs=1)
        assert a.results == b.results

    def test_dynamic_scenarios_deterministic_across_workers(self):
        spec = CampaignSpec(
            families=("spare-ring",),
            sizes=(6,),
            faults=("cut:0.5", "add:0.5", "cut:1.2"),
            seeds=(0, 1),
        )
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=3)
        assert serial.results == parallel.results
        # post-termination mutations leave the map accurate
        late = [r for r in serial.results if r.scenario.fault == "cut:1.2"]
        assert all(r.outcome == "accurate" for r in late)

    def test_distinct_seeds_can_differ(self):
        # the seed is threaded into the fault pattern: same cell, different
        # seeds must be able to produce different degraded networks
        results = run_campaign(
            CampaignSpec(
                families=("bidirectional-ring",),
                sizes=(8,),
                faults=("shutdown:0.2",),
                seeds=tuple(range(6)),
            )
        ).results
        assert len({r.num_wires for r in results}) > 1

    def test_jobs_must_be_positive(self):
        with pytest.raises(ReproError):
            run_campaign(SMALL_SPEC, jobs=0)

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ReproError, match="start method"):
            run_campaign(SMALL_SPEC, jobs=2, start_method="teleport")

    def test_worker_pool_persists_across_invocations(self):
        from repro.campaigns import executor

        shutdown_worker_pool()
        first = run_campaign(SMALL_SPEC, jobs=2)
        pool_state = executor._WORKER_POOL
        assert pool_state is not None, "the worker pool must outlive the call"
        second = run_campaign(SMALL_SPEC, jobs=2)
        assert executor._WORKER_POOL is pool_state, "pool must be reused, not reforked"
        assert first.results == second.results

    def test_chunking_groups_by_key_but_keeps_parallel_grain(self):
        from repro.campaigns.executor import _chunk_pending

        # 2 keys x 6 faults: grouping alone would starve a 4-worker pool
        pending = [
            (i, Scenario("spare-ring", 8, f"cut:0.{d}", seed))
            for i, (seed, d) in enumerate(
                (s, d) for s in (0, 1) for d in range(1, 7)
            )
        ]
        chunks = _chunk_pending(pending, workers=4)
        assert len(chunks) >= 6, "fault-heavy matrices must still fan out"
        # cells of one key stay contiguous and in matrix order per chunk
        flat = [i for chunk in chunks for i, _ in chunk]
        assert sorted(flat) == list(range(len(pending)))
        for chunk in chunks:
            keys = {(s.family, s.size, s.seed, s.backend) for _, s in chunk}
            assert len(keys) == 1, "a chunk never mixes setup keys"
        # serial-sized pools keep whole keys together (maximal sharing)
        [a, b] = _chunk_pending(pending, workers=1)
        assert len(a) == len(b) == 6

    def test_chunking_packs_small_keys_and_splits_only_oversized_ones(self):
        from repro.campaigns.executor import _chunk_pending

        # 100 one-cell keys, one key of 70 cells, one key of 3 cells
        pending = [
            (i, Scenario("directed-ring", 4, "none", seed))
            for i, seed in enumerate(range(100))
        ]
        pending += [
            (100 + d, Scenario("spare-ring", 8, f"cut:{(d + 1) / 100}", 0))
            for d in range(70)
        ]
        pending += [
            (170 + d, Scenario("spare-ring", 8, f"cut:0.{d + 1}", 1))
            for d in range(3)
        ]

        def key(scenario):
            return (scenario.family, scenario.size, scenario.seed, scenario.backend)

        expected_sizes = {1: [64, 36, 64, 9], 4: [22] * 4 + [12] + [22] * 3 + [7]}
        for workers, sizes in expected_sizes.items():
            chunks = _chunk_pending(pending, workers)
            assert [len(c) for c in chunks] == sizes
            # matrix order is kept across and within chunks
            assert [i for chunk in chunks for i, _ in chunk] == list(range(173))
            # only the 70-cell key, larger than either cap, is split
            homes: dict[tuple, set[int]] = {}
            for n, chunk in enumerate(chunks):
                for _, scenario in chunk:
                    homes.setdefault(key(scenario), set()).add(n)
            split = {k for k, chunk_ids in homes.items() if len(chunk_ids) > 1}
            assert split == {("spare-ring", 8, 0, "object")}

    @pytest.mark.parametrize("abort", ["strict", "interrupt"])
    def test_aborted_serial_run_keeps_exactly_the_cells_before_it(
        self, abort, tmp_path, monkeypatch
    ):
        from repro.campaigns import executor

        # ten one-cell keys pack into two chunks of five; the abort comes
        # at s6, inside the second chunk, after s5 finished in it
        spec = CampaignSpec(
            families=("directed-ring",), sizes=(4,), seeds=tuple(range(10))
        )
        if abort == "strict":
            monkeypatch.setenv(ENV_VAR, "kind=error;match=/s6")
            expected = ScenarioExecutionError
        else:
            real = executor.run_scenario

            def interrupted(scenario):
                if scenario.seed == 6:
                    raise KeyboardInterrupt
                return real(scenario)

            monkeypatch.setattr(executor, "run_scenario", interrupted)
            expected = KeyboardInterrupt
        with pytest.raises(expected):
            run_campaign(
                spec,
                store=tmp_path / "run",
                policy=SupervisionPolicy(on_error="raise"),
            )
        monkeypatch.undo()
        stored = ResultStore(tmp_path / "run")
        assert sorted(stored.keys()) == sorted(
            s.spec_hash() for s in spec.scenarios()[:6]
        )
        assert stored.results_for(spec)[:6] == run_campaign(spec).results[:6]

    @pytest.mark.parametrize(
        "method",
        [
            m
            for m in ("spawn", "forkserver")
            if m in multiprocessing.get_all_start_methods()
        ],
    )
    def test_start_methods_are_byte_identical_to_fork(self, method):
        """Python 3.14 drops fork as the default: every method must agree.

        The campaign below mixes static, shutdown and dynamic cells so the
        chunked dispatch, the per-worker caches and the seed derivation are
        all exercised under a freshly-imported (not forked) worker.
        """
        spec = CampaignSpec(
            families=("spare-ring",),
            sizes=(6,),
            faults=("none", "shutdown:0.2", "cut:0.5"),
            seeds=(0, 1),
        )
        reference = run_campaign(spec, jobs=2, start_method="fork")
        try:
            fresh_import = run_campaign(spec, jobs=2, start_method=method)
        finally:
            shutdown_worker_pool()  # do not leave a spawn pool behind
        assert fresh_import.results == reference.results


class TestScenarioResults:
    def test_healthy_scenario_is_exact(self):
        result = run_scenario(Scenario("de-bruijn", 8))
        assert result.outcome == "exact" and result.ok
        assert result.hops > 0 and result.ticks > 0
        assert result.work == result.num_wires * result.diameter
        assert result.episodes, "episodes must be mined from the transcript"

    def test_shutdown_truth_is_degraded_network(self):
        result = run_scenario(Scenario("bidirectional-ring", 8, "shutdown:0.2", 3))
        assert result.outcome == "exact"
        assert result.num_wires <= 16

    def test_aggregation_shapes(self):
        campaign = run_campaign(SMALL_SPEC)
        fit = campaign.episode_fit()
        assert fit.r_squared > 0.9
        series = campaign.series()
        assert set(series) == {"de-bruijn", "bidirectional-ring"}
        assert campaign.outcome_counts() == {"exact": len(campaign)}

    def test_json_roundtrip(self):
        campaign = run_campaign(
            CampaignSpec(families=("de-bruijn",), sizes=(6,))
        )
        doc = json.loads(campaign.to_json())
        assert doc["format"] == "repro.campaign-result/v1"
        assert doc["outcomes"] == {"exact": 1}
        [scenario] = doc["scenarios"]
        assert scenario["scenario"]["family"] == "de-bruijn"
        assert scenario["hops"] > 0


class TestCli:
    def test_campaign_subcommand(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        assert main([
            "campaign", "--families", "de-bruijn", "--sizes", "6",
            "--faults", "none", "--seeds", "2", "--jobs", "2",
            "--episodes", "--json", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "outcomes" in text and "episode scaling" in text
        assert json.loads(out.read_text())["outcomes"] == {"exact": 2}

    def test_map_repeats_with_jobs(self, capsys):
        assert main([
            "map", "--family", "de-bruijn", "--size", "6",
            "--seed", "5", "--repeats", "2", "--jobs", "2",
        ]) == 0
        text = capsys.readouterr().out
        assert "exact maps: 2/2" in text

    def test_map_single_run_still_prints_map(self, capsys):
        assert main(["map", "--family", "bidirectional-ring", "--size", "5"]) == 0
        assert "exact=True" in capsys.readouterr().out

    def test_bad_fault_is_a_clean_error(self, capsys):
        assert main(["campaign", "--families", "de-bruijn", "--sizes", "6",
                     "--faults", "melt:1"]) == 2
        assert "unknown fault model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family,size", [("torus", "0"), ("de-bruijn", "-3"), ("bidirectional-ring", "1")]
    )
    def test_map_bad_size_is_a_clean_error(self, capsys, family, size):
        assert main(["map", "--family", family, "--size", size]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "network:" not in captured.out  # rejected before any run

    def test_campaign_size_zero_is_a_clean_error(self, capsys, tmp_path):
        # with --artifacts the prewarm used to die on the generator's
        # ValueError before any cell ran
        for extra in ([], ["--artifacts", str(tmp_path / "art")]):
            assert main([
                "campaign", "--families", "directed-ring", "--sizes", "0",
                "--faults", "none", "--seeds", "1", *extra,
            ]) == 2
            assert "network size must be >= 1" in capsys.readouterr().err

    def test_prewarm_skips_an_unbuildable_wiring(self, capsys, tmp_path):
        assert main([
            "campaign", "--families", "bidirectional-ring", "--sizes", "1",
            "--faults", "none", "--seeds", "1",
            "--artifacts", str(tmp_path / "art"),
        ]) == 0
        out = capsys.readouterr().out
        assert "prewarm skipped bidirectional-ring(1) s0: cannot build" in out
        assert "outcomes {'error': 1}" in out

    def test_map_repeats_rejects_single_run_flags(self, capsys):
        assert main(["map", "--family", "de-bruijn", "--size", "6",
                     "--repeats", "2", "--verify-cleanup"]) == 2
        assert "--verify-cleanup" in capsys.readouterr().err

    def test_episodes_flag_survives_dynamic_only_matrix(self, capsys, tmp_path):
        out = tmp_path / "dyn.json"
        assert main([
            "campaign", "--families", "spare-ring", "--sizes", "6",
            "--faults", "cut:0.5", "--episodes", "--json", str(out),
        ]) == 0
        assert "not enough RCA episodes" in capsys.readouterr().out
        assert out.exists(), "--json must be written even without episodes"


class TestInfeasibleCells:
    def test_infeasible_cell_does_not_abort_matrix(self):
        # de-bruijn has no free ports: add:* is infeasible there, but the
        # other cells of the matrix must still run (serial and parallel).
        spec = CampaignSpec(
            families=("de-bruijn", "spare-ring"),
            sizes=(6,),
            faults=("none", "add:1.2"),
        )
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=2)
        assert serial.results == parallel.results
        by_label = {r.scenario.label: r.outcome for r in serial.results}
        assert by_label["de-bruijn(6)/none/s0"] == "exact"
        assert by_label["de-bruijn(6)/add:1.2/s0"] == "infeasible"
        assert by_label["spare-ring(6)/add:1.2/s0"] == "accurate"


def test_campaign_and_cli_imports_stay_free_of_array_libraries():
    """The executor and CLI run on the stdlib alone, numpy included."""
    import pathlib
    import subprocess
    import sys

    probe = (
        "import sys, repro.campaigns.executor, repro.cli; "
        "print('numpy' in sys.modules)"
    )
    src_dir = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src_dir},
    )
    assert out.stdout.strip() == "False"
