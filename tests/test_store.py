"""The persistent campaign store, resume semantics, and bench baselines."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pathlib
import pickle
import shutil
import subprocess
import sys

from dataclasses import replace

import pytest

import repro

from repro.analysis.run_stats import aggregate_stats
from repro.bench.baseline import (
    Metric,
    compare_baselines,
    compare_files,
    load_baseline,
    record_metric,
    write_baseline,
)
from repro.campaigns import CampaignSpec, Scenario, run_campaign, run_scenario
from repro.cli import main
from repro.errors import BaselineError, StoreError
from repro.store import (
    STORE_FORMAT,
    ResultStore,
    result_from_doc,
    result_to_doc,
    verify_result_store,
)

SPEC = CampaignSpec(
    families=("de-bruijn", "bidirectional-ring"),
    sizes=(6,),
    faults=("none", "shutdown:0.1"),
    seeds=(0, 1),
)

#: Two deterministic families over five seeds: ten cells, two result bodies.
SEEDS = CampaignSpec(
    families=("directed-ring", "de-bruijn"), sizes=(4,), seeds=tuple(range(5))
)

#: A store the format-v1 writer made of the README quick-start matrix.
FIXTURE_V1 = pathlib.Path(__file__).parent / "data" / "store-v1"
QUICKSTART = CampaignSpec(
    families=("directed-ring", "de-bruijn"),
    sizes=(8,),
    faults=("none", "cut:0.4"),
    seeds=(0, 1),
    backends=("flat",),
)


def _log_lines(root: pathlib.Path) -> list[dict]:
    log = root / "shards" / "log.jsonl"
    return [json.loads(line) for line in log.read_text().splitlines()]


def _files(root: pathlib.Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# ----------------------------------------------------------------------
# canonical spec hashing
# ----------------------------------------------------------------------
class TestSpecHash:
    def test_pinned_golden_hashes(self):
        # Pinned literals: the canonical form is an on-disk contract, so a
        # change here silently orphans every existing store.
        assert Scenario("de-bruijn", 8, "shutdown:0.1", 3).spec_hash() == (
            "7437ac071feff7462a689997c65d4ac3f91adf39f3b90918cbcf399007ca0f8c"
        )
        assert Scenario("de-bruijn", 8).spec_hash() == (
            "beb84c93761c1775ea9455b3b06a10a8c49ab6095183a603bfec4d2be20a5a92"
        )

    def test_equivalent_fault_spellings_are_the_same_scenario(self):
        a = Scenario("torus", 9, "shutdown:0.10", 2)
        b = Scenario("torus", 9, "shutdown:0.1", 2)
        # canonicalized at construction: equal, same hash, same label
        assert a == b
        assert a.fault == "shutdown:0.1"
        assert a.spec_hash() == b.spec_hash()
        assert a.label == b.label

    def test_noncanonical_spelling_roundtrips_through_store(self, tmp_path):
        result = run_scenario(Scenario("bidirectional-ring", 6, "shutdown:0.10", 1))
        assert result_from_doc(result_to_doc(result)) == result
        store = ResultStore(tmp_path / "run")
        store.put(result)
        assert ResultStore(tmp_path / "run").get(result.scenario) == result

    def test_distinct_scenarios_hash_differently(self):
        hashes = {s.spec_hash() for s in SPEC.scenarios()}
        assert len(hashes) == len(SPEC)

    def test_stable_across_process_boundaries(self):
        # hash() randomizes per interpreter; spec_hash must not.  Force a
        # different PYTHONHASHSEED to prove independence.
        code = (
            "from repro.campaigns.spec import Scenario;"
            "print(Scenario('de-bruijn', 8, 'shutdown:0.1', 3).spec_hash())"
        )
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src_dir, "PYTHONHASHSEED": "12345"},
        )
        expected = Scenario("de-bruijn", 8, "shutdown:0.1", 3).spec_hash()
        assert out.stdout.strip() == expected

    def test_memoized_hash_is_invisible_to_value_semantics(self):
        a = Scenario("de-bruijn", 8, "shutdown:0.1", 3)
        b = Scenario("de-bruijn", 8, "shutdown:0.1", 3)
        before = (hash(a), repr(a))
        assert a.spec_hash() == b.spec_hash()
        assert a == b and (hash(a), repr(a)) == before
        # replace() builds a new instance, which hashes its own fields
        assert replace(a, seed=4).spec_hash() == replace(b, seed=4).spec_hash()
        assert replace(a, seed=4).spec_hash() != a.spec_hash()
        # a pickled scenario leaves its memo behind and re-derives its key
        object.__setattr__(a, "_spec_hash", "0" * 64)
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and copy.spec_hash() == b.spec_hash()

    def test_each_written_cell_hashes_its_scenario_once(self, tmp_path, monkeypatch):
        from types import SimpleNamespace

        import repro.campaigns.spec as spec_module

        calls = []

        def counting(data=b""):
            calls.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(spec_module, "hashlib", SimpleNamespace(sha256=counting))
        run_campaign(SPEC, store=tmp_path / "run")
        assert len(calls) == len(SPEC)

    def test_matrix_hash_reflects_order_and_content(self):
        base = SPEC.spec_hash()
        reordered = CampaignSpec(
            families=("bidirectional-ring", "de-bruijn"),
            sizes=SPEC.sizes,
            faults=SPEC.faults,
            seeds=SPEC.seeds,
        )
        assert reordered.spec_hash() != base
        assert SPEC.spec_hash() == base  # deterministic


# ----------------------------------------------------------------------
# record round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario("de-bruijn", 6),
            Scenario("bidirectional-ring", 6, "shutdown:0.2", 1),
            Scenario("spare-ring", 6, "cut:0.5"),
            Scenario("de-bruijn", 6, "add:1.2"),  # infeasible cell
        ],
    )
    def test_doc_roundtrip_is_value_identical(self, scenario):
        result = run_scenario(scenario)
        doc = json.loads(json.dumps(result_to_doc(result)))  # through JSON
        assert result_from_doc(doc) == result

    def test_malformed_doc_raises_store_error(self):
        with pytest.raises(StoreError, match="malformed"):
            result_from_doc({"scenario": {"family": "de-bruijn"}})


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------
class TestResultStore:
    def test_put_get_reopen(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        result = run_scenario(Scenario("de-bruijn", 6))
        key = store.put(result)
        assert key == result.scenario.spec_hash()
        assert store.get(result.scenario) == result
        assert result.scenario in store and key in store
        reopened = ResultStore(tmp_path / "run")
        assert len(reopened) == 1
        assert reopened.get(key) == result

    def test_write_read_aggregate_equals_in_memory_aggregate(self, tmp_path):
        campaign = run_campaign(SPEC, store=tmp_path / "run")
        reopened = ResultStore(tmp_path / "run")
        assert reopened.stats(SPEC).to_json() == campaign.stats().to_json()
        # and the generic all-records aggregate matches too: the store
        # holds exactly this campaign
        assert (
            aggregate_stats(reopened.results()).to_json()
            == campaign.stats().to_json()
        )

    def test_last_record_wins_on_duplicate_keys(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        result = run_scenario(Scenario("de-bruijn", 6))
        store.put(result)
        store.put(result)
        assert len(store) == 1
        assert len(ResultStore(tmp_path / "run")) == 1

    def test_torn_final_line_is_dropped_and_truncated(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        results = [run_scenario(s) for s in SPEC.scenarios()[:2]]
        keys = store.put_many(results)
        # simulate a kill mid-append: a half-written payload at the log's end
        shard = tmp_path / "run" / "shards" / "log.jsonl"
        intact = shard.read_bytes()
        with shard.open("a") as fh:
            fh.write('{"body":{"bca_runs":1,"by_family"')
        reopened = ResultStore(tmp_path / "run")
        assert len(reopened) == 2
        assert reopened.get(keys[0]) == results[0]
        assert reopened.get(keys[1]) == results[1]
        # the fragment was truncated away on load, so a later append starts
        # on a clean line boundary instead of welding onto the fragment...
        assert shard.read_bytes() == intact
        reopened.put(results[1])
        # ...and the store stays readable forever after
        third = ResultStore(tmp_path / "run")
        assert len(third) == 2 and third.get(keys[1]) == results[1]

    def test_commit_cut_before_its_final_newline_is_torn(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        results = [run_scenario(s) for s in SPEC.scenarios()[:3]]
        keys = store.put_many(results[:2])
        # a kill between the batch's last record and its closing newline
        # leaves a final line that still parses
        shard = tmp_path / "run" / "shards" / "log.jsonl"
        shard.write_bytes(shard.read_bytes()[:-1])
        report = verify_result_store(tmp_path / "run")
        assert report.ok and report.records == 1 and len(report.torn) == 1
        reopened = ResultStore(tmp_path / "run")
        assert len(reopened) == 1 and keys[1] not in reopened
        # the cut record was truncated away, so the next commit cannot
        # weld its first record onto it
        reopened.put(results[2])
        third = ResultStore(tmp_path / "run")
        assert len(third) == 2
        assert third.get(keys[0]) == results[0]
        assert third.get(results[2].scenario) == results[2]

    def test_non_object_json_line_is_store_error(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put(run_scenario(Scenario("de-bruijn", 6)))
        shard = tmp_path / "run" / "shards" / "log.jsonl"
        lines = shard.read_text().splitlines()
        shard.write_text("5\n" + "\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="corrupt record"):
            ResultStore(tmp_path / "run")

    def test_mid_file_corruption_raises(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        result = run_scenario(Scenario("de-bruijn", 6))
        store.put(result)
        store.put(result)  # a second line, so the corrupt line is not last
        shard = tmp_path / "run" / "shards" / "log.jsonl"
        lines = shard.read_text().splitlines()
        lines[0] = "not json at all"
        shard.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="corrupt record"):
            ResultStore(tmp_path / "run")

    def test_store_without_its_shards_directory_takes_commits(self, tmp_path):
        ResultStore(tmp_path / "run")
        shutil.rmtree(tmp_path / "run" / "shards")
        store = ResultStore(tmp_path / "run")
        assert len(store) == 0
        result = run_scenario(Scenario("de-bruijn", 6))
        store.put(result)
        assert ResultStore(tmp_path / "run").get(result.scenario) == result

    def test_foreign_directory_rejected(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text('{"format": "something/else"}')
        with pytest.raises(StoreError, match="not a repro.result-store"):
            ResultStore(tmp_path)

    def test_missing_and_results_for(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        scenarios = SPEC.scenarios()
        store.put(run_scenario(scenarios[0]))
        assert store.missing(SPEC) == scenarios[1:]
        slots = store.results_for(SPEC)
        assert slots[0] is not None and slots[1:] == [None] * (len(SPEC) - 1)
        with pytest.raises(StoreError, match="missing"):
            store.stats(SPEC)


# ----------------------------------------------------------------------
# the commit log: one write and one fsync per batch
# ----------------------------------------------------------------------
class TestCommitLog:
    def test_serial_campaign_fsyncs_once_per_chunk(self, tmp_path, monkeypatch):
        from repro.campaigns.executor import _chunk_pending

        spec = CampaignSpec(
            families=("directed-ring",), sizes=(4,), seeds=tuple(range(150))
        )
        chunks = _chunk_pending(list(enumerate(spec.scenarios())), 1)
        assert [len(c) for c in chunks] == [64, 64, 22]
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        run_campaign(spec, store=tmp_path / "run")
        assert len(calls) == len(chunks)
        monkeypatch.undo()
        reopened = ResultStore(tmp_path / "run")
        assert reopened.results_for(spec) == run_campaign(spec).results
        assert [p.name for p in (tmp_path / "run" / "shards").iterdir()] == [
            "log.jsonl"
        ]

    def test_failed_fsync_leaves_index_and_log_untouched(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "run")
        store.put(run_scenario(Scenario("de-bruijn", 6)))
        log = tmp_path / "run" / "shards" / "log.jsonl"
        before = log.read_bytes()
        batch = [run_scenario(s) for s in SPEC.scenarios()[1:]]

        def broken(fd):
            raise OSError(errno.EIO, "injected fsync failure")

        monkeypatch.setattr(os, "fsync", broken)
        with pytest.raises(OSError, match="injected"):
            store.put_many(batch)
        monkeypatch.undo()
        assert len(store) == 1
        assert not any(result.scenario in store for result in batch)
        assert log.read_bytes() == before
        assert len(ResultStore(tmp_path / "run")) == 1

    def test_key_prefix_store_opens_resumes_and_yields_to_the_log(
        self, tmp_path, monkeypatch
    ):
        results = run_campaign(SPEC).results
        # the layout earlier writers used: one shard per two-hex-digit prefix
        root = tmp_path / "legacy"
        (root / "shards").mkdir(parents=True)
        manifest = {"format": "repro.result-store/v1", "shard_prefix": 2}
        (root / "MANIFEST.json").write_text(json.dumps(manifest))
        for result in results:
            key = result.scenario.spec_hash()
            record = {"key": key, "result": result_to_doc(result)}
            with (root / "shards" / f"{key[:2]}.jsonl").open("a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

        import repro.campaigns.executor as executor

        executed = []
        monkeypatch.setattr(executor, "run_scenario", executed.append)
        resumed = run_campaign(SPEC, store=root)
        assert executed == []
        assert resumed.results == results
        assert not (root / "shards" / "log.jsonl").exists()
        # a later record of the same key lands in the log and wins on load
        newer = replace(results[0], ticks=results[0].ticks + 1)
        ResultStore(root).put(newer)
        assert (root / "shards" / "log.jsonl").exists()
        assert json.loads((root / "MANIFEST.json").read_text()) == {
            "format": STORE_FORMAT,
            "shard_prefix": 2,
        }
        reopened = ResultStore(root)
        assert len(reopened) == len(results)
        assert reopened.get(results[0].scenario) == newer
        report = verify_result_store(root)
        assert report.ok and report.duplicates == 1


# ----------------------------------------------------------------------
# format v2: each distinct body once, as a payload line
# ----------------------------------------------------------------------
class TestPayloadLog:
    def test_repeated_bodies_write_one_payload_line_each(self, tmp_path):
        results = run_campaign(SEEDS).results
        ResultStore(tmp_path / "run").put_many(results)
        lines = _log_lines(tmp_path / "run")
        payloads = [line for line in lines if "body" in line]
        records = [line for line in lines if "body" not in line]
        assert len(payloads) == 2 and len(records) == len(results)
        for line in payloads:
            assert set(line) == {"body", "payload"}
            canonical = json.dumps(line["body"], sort_keys=True, separators=(",", ":"))
            assert line["payload"] == hashlib.sha256(canonical.encode()).hexdigest()
        for line, result in zip(records, results):
            assert set(line) == {"key", "payload", "scenario"}
            assert line["scenario"] == result.scenario.canonical()
            named = next(
                i
                for i, p in enumerate(lines)
                if "body" in p and p["payload"] == line["payload"]
            )
            assert named < lines.index(line)
            body = dict(result_to_doc(result))
            del body["scenario"]
            assert lines[named]["body"] == body
        reopened = ResultStore(tmp_path / "run")
        loaded = reopened.results_for(SEEDS)
        assert loaded == results
        # decoded once: cells of one body share its tuples
        assert loaded[0].episodes is loaded[4].episodes
        assert loaded[0].by_family is loaded[4].by_family
        # the reopened writer knows both bodies: re-recording writes records only
        reopened.put_many(results)
        assert len(_log_lines(tmp_path / "run")) == len(lines) + len(results)

    def test_concatenated_logs_open_with_the_union_and_verify(self, tmp_path):
        scenarios = SEEDS.scenarios()
        run_campaign(scenarios[:6], store=tmp_path / "a")
        run_campaign(scenarios[3:], store=tmp_path / "b")
        merged = tmp_path / "merged"
        (merged / "shards").mkdir(parents=True)
        shutil.copy(tmp_path / "a" / "MANIFEST.json", merged)
        (merged / "shards" / "log.jsonl").write_bytes(
            b"".join(
                (tmp_path / name / "shards" / "log.jsonl").read_bytes()
                for name in "ab"
            )
        )
        assert ResultStore(merged).results_for(SEEDS) == run_campaign(SEEDS).results
        report = verify_result_store(merged)
        assert report.ok
        # both logs hold both bodies; a payload named twice is legal
        assert report.payloads == 4 and report.records == 6 + 7
        assert report.keys == len(SEEDS) and report.duplicates == 3

    def test_recommit_after_failed_fsync_writes_the_body_again(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "run")
        first = run_scenario(Scenario("de-bruijn", 6))
        store.put(first)
        fresh = run_scenario(Scenario("directed-ring", 6))

        def broken(fd):
            raise OSError(errno.EIO, "injected fsync failure")

        monkeypatch.setattr(os, "fsync", broken)
        with pytest.raises(OSError, match="injected"):
            store.put(fresh)
        monkeypatch.undo()
        # the failed batch, its payload line included, was cut from the
        # log, so the retry must write the body again
        store.put(fresh)
        reopened = ResultStore(tmp_path / "run")
        assert reopened.get(fresh.scenario) == fresh
        assert reopened.get(first.scenario) == first
        assert verify_result_store(tmp_path / "run").ok

    def test_verify_flags_a_flipped_body_and_a_dangling_reference(
        self, capsys, tmp_path
    ):
        result = run_scenario(Scenario("de-bruijn", 6))
        ResultStore(tmp_path / "run").put(result)
        log = tmp_path / "run" / "shards" / "log.jsonl"
        payload, record = log.read_text().splitlines()
        ticks = f'"ticks":{result.ticks}'
        assert payload.count(ticks) == 1
        flipped = payload.replace(ticks, f'"ticks":{result.ticks + 1}')
        log.write_text(f"{flipped}\n{record}\n")
        assert main(["store", str(tmp_path / "run"), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT log.jsonl:1: payload" in out
        assert "does not match the digest of its body" in out
        # a record ahead of its payload names a payload its file lacks
        log.write_text(f"{record}\n{payload}\n")
        assert main(["store", str(tmp_path / "run"), "--verify"]) == 1
        assert "CORRUPT log.jsonl:1: record names unknown payload" in (
            capsys.readouterr().out
        )
        with pytest.raises(StoreError, match="log.jsonl:1: record names unknown"):
            ResultStore(tmp_path / "run")

    def test_log_mixing_v1_and_v2_lines_loads(self, tmp_path):
        results = run_campaign(SPEC).results
        ResultStore(tmp_path / "run").put_many(results[:3])
        log = tmp_path / "run" / "shards" / "log.jsonl"
        with log.open("a") as fh:
            for result in results[3:6]:
                key = result.scenario.spec_hash()
                record = {"key": key, "result": result_to_doc(result)}
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        ResultStore(tmp_path / "run").put_many(results[6:])
        assert ResultStore(tmp_path / "run").results_for(SPEC) == results
        report = verify_result_store(tmp_path / "run")
        assert report.ok and report.records == report.keys == len(SPEC)


class TestV1Fixture:
    """A store the format-v1 writer made, read and extended by this code."""

    @pytest.fixture
    def store_dir(self, tmp_path):
        root = tmp_path / "store-v1"
        shutil.copytree(FIXTURE_V1, root)
        return root

    def test_fixture_holds_v1_lines_under_a_v1_manifest(self):
        manifest = json.loads((FIXTURE_V1 / "MANIFEST.json").read_text())
        assert manifest == {"format": "repro.result-store/v1"}
        lines = _log_lines(FIXTURE_V1)
        assert len(lines) == len(QUICKSTART)
        assert all(set(line) == {"key", "result"} for line in lines)

    def test_opens_and_every_record_equals_a_fresh_run(self, store_dir):
        store = ResultStore(store_dir)
        assert len(store) == len(QUICKSTART)
        expected = [run_scenario(s, fresh=True) for s in QUICKSTART.scenarios()]
        assert store.results_for(QUICKSTART) == expected
        report = verify_result_store(store_dir)
        assert report.ok and report.records == len(QUICKSTART)
        assert report.payloads == 0

    def test_resume_runs_nothing_and_writes_nothing(self, store_dir, monkeypatch):
        import repro.campaigns.executor as executor

        before = _files(store_dir)
        executed = []
        monkeypatch.setattr(executor, "run_scenario", executed.append)
        run_campaign(QUICKSTART, store=store_dir)
        assert executed == []
        assert verify_result_store(store_dir).ok
        assert _files(store_dir) == before

    def test_overlapping_matrix_appends_v2_lines_and_upgrades(self, store_dir):
        log = store_dir / "shards" / "log.jsonl"
        before = log.read_bytes()
        bigger = replace(QUICKSTART, seeds=(0, 1, 2))
        campaign = run_campaign(bigger, store=store_dir)
        assert campaign.results == run_campaign(bigger).results
        manifest = json.loads((store_dir / "MANIFEST.json").read_text())
        assert manifest == {"format": STORE_FORMAT}
        after = log.read_bytes()
        assert after.startswith(before)
        appended = [json.loads(line) for line in after[len(before) :].splitlines()]
        shapes = {frozenset(line) for line in appended}
        assert shapes == {
            frozenset({"body", "payload"}),
            frozenset({"key", "payload", "scenario"}),
        }
        assert ResultStore(store_dir).results_for(bigger) == campaign.results
        report = verify_result_store(store_dir)
        assert report.ok and report.records == report.keys == len(bigger)


# ----------------------------------------------------------------------
# offline shard verification
# ----------------------------------------------------------------------
class TestStoreVerify:
    def test_clean_store_verifies(self, tmp_path):
        run_campaign(SPEC, store=tmp_path / "run")
        report = verify_result_store(tmp_path / "run")
        assert report.ok
        assert report.records == len(SPEC)
        assert report.keys == len(SPEC)
        assert report.duplicates == 0 and not report.torn
        assert "0 corrupt record(s)" in report.summary()

    @pytest.mark.parametrize("manifest", ["[]", '"v2"', "null", "3"])
    def test_non_object_manifest_is_a_store_error(self, capsys, tmp_path, manifest):
        ResultStore(tmp_path / "run")
        (tmp_path / "run" / "MANIFEST.json").write_text(manifest)
        with pytest.raises(StoreError, match="not a JSON object"):
            ResultStore(tmp_path / "run")
        report = verify_result_store(tmp_path / "run")
        assert not report.ok
        assert "not a JSON object" in report.problems[0]
        assert main(["store", str(tmp_path / "run"), "--verify"]) == 1
        assert "CORRUPT MANIFEST.json" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value",
        [("fault", "bogus"), ("fault", 5), ("backend", "nope"), ("seed", "x")],
    )
    def test_record_with_an_invalid_scenario_is_corrupt(
        self, capsys, tmp_path, field, value
    ):
        ResultStore(tmp_path / "run").put(run_scenario(Scenario("de-bruijn", 6)))
        log = tmp_path / "run" / "shards" / "log.jsonl"
        payload, record = log.read_text().splitlines()
        doc = json.loads(record)
        doc["scenario"][field] = value
        log.write_text(f"{payload}\n{json.dumps(doc)}\n")
        with pytest.raises(StoreError, match="corrupt record at log.jsonl:2"):
            ResultStore(tmp_path / "run")
        report = verify_result_store(tmp_path / "run")
        assert [p.split(":")[:2] for p in report.problems] == [["log.jsonl", "2"]]
        assert main(["store", str(tmp_path / "run"), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT log.jsonl:2:" in out
        assert "1 corrupt record(s)" in out

    def test_verify_is_read_only_and_reports_torn_tail(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put(run_scenario(Scenario("de-bruijn", 6)))
        shard = tmp_path / "run" / "shards" / "log.jsonl"
        with shard.open("a") as fh:
            fh.write('{"key":"deadbeef","payload":"ab')
        before = shard.read_bytes()
        report = verify_result_store(tmp_path / "run")
        # a torn trailing line is a warning (crash-consistent appends
        # leave one), not a corruption problem — and unlike the loader,
        # verify never truncates it away
        assert report.ok and len(report.torn) == 1
        assert shard.read_bytes() == before
        assert "TORN" in report.summary()

    def test_mid_shard_corruption_is_a_problem(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        result = run_scenario(Scenario("de-bruijn", 6))
        store.put(result)
        store.put(result)  # two lines in the log: corrupt the first
        shard = tmp_path / "run" / "shards" / "log.jsonl"
        lines = shard.read_text().splitlines()
        lines[0] = "not json at all"
        shard.write_text("\n".join(lines) + "\n")
        report = verify_result_store(tmp_path / "run")
        assert not report.ok
        assert any(":1:" in problem for problem in report.problems)

    def test_key_spec_hash_mismatch_is_a_problem(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        result = run_scenario(Scenario("de-bruijn", 6))
        key = store.put(result)
        shard = tmp_path / "run" / "shards" / "log.jsonl"
        payload, record = shard.read_text().splitlines()
        doc = json.loads(record)
        doc["key"] = "0" * len(key)
        # the same mismatch in a v1 line, which holds its result inline
        legacy = {"key": "1" * len(key), "result": result_to_doc(result)}
        shard.write_text(f"{payload}\n{json.dumps(doc)}\n{json.dumps(legacy)}\n")
        report = verify_result_store(tmp_path / "run")
        assert not report.ok
        mismatches = [p for p in report.problems if "spec hash" in p]
        assert [p.split(":")[1] for p in mismatches] == ["2", "3"]

    def test_missing_manifest_is_a_problem(self, tmp_path):
        report = verify_result_store(tmp_path / "empty")
        assert not report.ok

    def test_duplicate_keys_counted_not_flagged(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        result = run_scenario(Scenario("de-bruijn", 6))
        store.put(result)
        store.put(result)  # last-record-wins appends are legal
        report = verify_result_store(tmp_path / "run")
        assert report.ok
        assert report.records == 2 and report.keys == 1
        assert report.duplicates == 1

    def test_retired_backend_records_are_skipped_not_corrupt(self, capsys, tmp_path):
        store = ResultStore(tmp_path / "run")
        flat = run_scenario(Scenario("de-bruijn", 6, backend="flat"))
        store.put(flat)
        # records the removed lane-parallel backend wrote, by hand, in both
        # shapes: their scenario can no longer be rebuilt, so loading them
        # would raise
        doc = result_to_doc(flat)
        doc["scenario"]["backend"] = "batch"
        shard = tmp_path / "run" / "shards" / "log.jsonl"
        digest = json.loads(shard.read_text().splitlines()[0])["payload"]
        record = {"key": "cd" * 32, "payload": digest, "scenario": doc["scenario"]}
        with shard.open("a") as fh:
            fh.write(json.dumps({"key": "ab" * 32, "result": doc}) + "\n")
            fh.write(json.dumps(record) + "\n")
        reopened = ResultStore(tmp_path / "run")
        assert len(reopened) == 1
        assert reopened.get(flat.scenario) == flat
        report = verify_result_store(tmp_path / "run")
        assert report.ok
        assert report.retired == 2 and report.records == 1
        assert main(["store", str(tmp_path / "run"), "--verify"]) == 0
        assert "2 record(s) of retired backend(s) batch" in capsys.readouterr().out

    def test_cli_verify_front_door(self, capsys, tmp_path):
        run_campaign(SPEC, store=tmp_path / "run")
        assert main(["store", str(tmp_path / "run"), "--verify"]) == 0
        assert "0 corrupt record(s)" in capsys.readouterr().out
        shard = next((tmp_path / "run" / "shards").glob("*.jsonl"))
        shard.write_text("garbage\n" + shard.read_text())
        assert main(["store", str(tmp_path / "run"), "--verify"]) == 1
        assert "CORRUPT" in capsys.readouterr().out


# ----------------------------------------------------------------------
# resume and caching through the executor
# ----------------------------------------------------------------------
class TestResume:
    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path):
        uninterrupted = run_campaign(SPEC)
        scenarios = SPEC.scenarios()
        k = 3
        store = ResultStore(tmp_path / "run")
        # the "crash": only k of n scenarios completed, plus a torn record
        run_campaign(scenarios[:k], store=store)
        shard = next(iter(sorted((tmp_path / "run" / "shards").glob("*.jsonl"))))
        with shard.open("a") as fh:
            fh.write('{"key":"00","payload"')
        resumed_store = ResultStore(tmp_path / "run")
        assert len(resumed_store) == k
        resumed = run_campaign(SPEC, store=resumed_store)
        assert resumed.results == uninterrupted.results
        assert resumed.stats().to_json() == uninterrupted.stats().to_json()

    def test_resume_runs_only_missing_scenarios(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "run")
        scenarios = SPEC.scenarios()
        run_campaign(scenarios[:5], store=store)

        import repro.campaigns.executor as executor

        executed = []
        real = executor.run_scenario

        def counting(scenario):
            executed.append(scenario)
            return real(scenario)

        monkeypatch.setattr(executor, "run_scenario", counting)
        run_campaign(SPEC, store=store)
        # Execution order follows the setup-key chunking, not matrix order
        # (the serial path shares the parallel path's chunker); the
        # contract is that exactly the missing cells run, each once.
        assert sorted(executed, key=scenarios.index) == scenarios[5:]

    def test_parallel_resume_identical_to_serial(self, tmp_path):
        run_campaign(SPEC.scenarios()[:3], store=tmp_path / "a")
        run_campaign(SPEC.scenarios()[:3], store=tmp_path / "b")
        serial = run_campaign(SPEC, jobs=1, store=tmp_path / "a")
        parallel = run_campaign(SPEC, jobs=4, store=tmp_path / "b")
        assert serial.results == parallel.results

    def test_overlapping_matrix_reuses_stored_cells(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        run_campaign(SPEC, store=store)
        bigger = CampaignSpec(
            families=SPEC.families,
            sizes=SPEC.sizes,
            faults=SPEC.faults,
            seeds=(0, 1, 2),
        )
        assert len(store.missing(bigger)) == len(bigger) - len(SPEC)
        campaign = run_campaign(bigger, store=store)
        assert len(store) == len(bigger)
        assert campaign.results == run_campaign(bigger).results

    def test_jobs_exceeding_pending_work_is_clamped_and_exact(self, tmp_path):
        # jobs far beyond the cell count must not change results (and a
        # single pending scenario takes the serial path outright)
        small = CampaignSpec(families=("de-bruijn",), sizes=(6,), seeds=(0, 1))
        assert (
            run_campaign(small, jobs=64).results == run_campaign(small).results
        )
        store = ResultStore(tmp_path / "run")
        run_campaign(small.scenarios()[:1], store=store)
        resumed = run_campaign(small, jobs=64, store=store)
        assert resumed.results == run_campaign(small).results


# ----------------------------------------------------------------------
# bench baselines
# ----------------------------------------------------------------------
def _doc(**values):
    return {
        "format": "repro.bench-baseline/v1",
        "experiment": "e13",
        "metrics": {
            name: {"value": value, "direction": direction}
            for name, (value, direction) in values.items()
        },
        "meta": {},
    }


class TestBaseline:
    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_baseline(path, "x", {"rate": Metric(100.0, unit="hops/s")})
        doc = load_baseline(path)
        assert doc["experiment"] == "x"
        assert doc["metrics"]["rate"]["value"] == 100.0

    def test_record_metric_merges(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record_metric(path, "x", "a", 1.0)
        record_metric(path, "x", "b", 2.0, direction="lower", meta={"n": 3})
        doc = load_baseline(path)
        assert set(doc["metrics"]) == {"a", "b"}
        assert doc["meta"] == {"n": 3}
        # a different experiment replaces rather than merges
        record_metric(path, "y", "c", 3.0)
        assert set(load_baseline(path)["metrics"]) == {"c"}

    def test_identical_snapshots_pass(self):
        doc = _doc(rate=(100.0, "higher"), ticks=(500.0, "lower"))
        report = compare_baselines(doc, doc, threshold=0.35)
        assert report.ok and [r.status for r in report.rows] == ["ok", "ok"]

    def test_synthetic_2x_slowdown_fails_both_directions(self):
        base = _doc(rate=(100.0, "higher"), ticks=(500.0, "lower"))
        slow = _doc(rate=(50.0, "higher"), ticks=(1000.0, "lower"))
        report = compare_baselines(base, slow, threshold=0.35)
        assert not report.ok
        assert {r.name for r in report.regressions} == {"rate", "ticks"}

    def test_improvement_is_flagged_not_failed(self):
        base = _doc(rate=(100.0, "higher"))
        fast = _doc(rate=(200.0, "higher"))
        report = compare_baselines(base, fast, threshold=0.35)
        assert report.ok
        assert report.rows[0].status == "improved"

    def test_zero_fresh_cost_metric_is_perfect_not_a_crash(self):
        base = _doc(ticks=(500.0, "lower"))
        perfect = _doc(ticks=(0.0, "lower"))
        report = compare_baselines(base, perfect, threshold=0.35)
        assert report.ok
        assert report.rows[0].status == "improved"

    def test_missing_metric_skipped_unless_required(self):
        base = _doc(rate=(100.0, "higher"), extra=(1.0, "higher"))
        fresh = _doc(rate=(100.0, "higher"))
        assert compare_baselines(base, fresh, threshold=0.1).ok
        hard = compare_baselines(base, fresh, threshold=0.1, require_all=True)
        assert not hard.ok and hard.regressions[0].name == "extra"

    def test_experiment_mismatch_rejected(self):
        base = _doc(rate=(100.0, "higher"))
        other = dict(_doc(rate=(100.0, "higher")), experiment="e3")
        with pytest.raises(BaselineError, match="experiment mismatch"):
            compare_baselines(base, other, threshold=0.1)

    def test_bad_threshold_and_direction_rejected(self):
        doc = _doc(rate=(100.0, "higher"))
        with pytest.raises(BaselineError, match="threshold"):
            compare_baselines(doc, doc, threshold=1.5)
        with pytest.raises(BaselineError, match="direction"):
            Metric(1.0, direction="sideways")

    def test_committed_e13_baseline_loads_and_self_compares(self):
        repo_root = pathlib.Path(__file__).resolve().parents[1]
        committed = repo_root / "benchmarks" / "baselines" / "BENCH_e13.json"
        report = compare_files(committed, committed, threshold=0.35)
        assert report.ok and len(report.rows) >= 3


# ----------------------------------------------------------------------
# CLI front doors
# ----------------------------------------------------------------------
class TestCli:
    ARGS = ["campaign", "--families", "de-bruijn", "--sizes", "6", "--seeds", "2"]

    def test_campaign_store_then_resume(self, capsys, tmp_path):
        run_dir = str(tmp_path / "run")
        assert main(self.ARGS + ["--store", run_dir]) == 0
        out = capsys.readouterr().out
        assert "reused 0 stored scenario(s), ran 2 fresh" in out
        assert main(self.ARGS + ["--resume", run_dir]) == 0
        out = capsys.readouterr().out
        assert "reused 2 stored scenario(s), ran 0 fresh" in out

    def test_resume_requires_existing_store(self, capsys, tmp_path):
        assert main(self.ARGS + ["--resume", str(tmp_path / "nope")]) == 2
        assert "no store at" in capsys.readouterr().err

    def test_resume_refuses_a_plain_directory(self, capsys, tmp_path):
        # a directory without MANIFEST.json is not a store to resume: the
        # command must not create one there and run the matrix fresh
        assert main(self.ARGS + ["--resume", str(tmp_path)]) == 2
        assert "no store at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_resume_and_store_must_agree(self, capsys, tmp_path):
        code = main(
            self.ARGS
            + ["--resume", str(tmp_path / "a"), "--store", str(tmp_path / "b")]
        )
        assert code == 2
        assert "different directories" in capsys.readouterr().err

    def test_store_subcommand_reports_aggregates(self, capsys, tmp_path):
        run_dir = str(tmp_path / "run")
        assert main(self.ARGS + ["--store", run_dir]) == 0
        capsys.readouterr()
        assert main(["store", run_dir, "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out and "episode scaling" in out
        stats_line = out.strip().splitlines()[-1]
        assert json.loads(stats_line)["scenarios"] == 2

    def test_store_subcommand_missing_dir(self, capsys, tmp_path):
        assert main(["store", str(tmp_path / "nope")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_store_subcommand_refuses_a_plain_directory(self, capsys, tmp_path):
        # inspecting must not create a store in a directory that holds none
        assert main(["store", str(tmp_path)]) == 2
        assert "no result store" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bench_compare_pass_and_fail(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        write_baseline(base, "e13", {"rate": Metric(100.0, unit="hops/s")})
        slow = tmp_path / "slow.json"
        write_baseline(slow, "e13", {"rate": Metric(50.0, unit="hops/s")})
        argv = ["bench-compare", "--baseline", str(base), "--threshold", "0.35"]
        assert main(argv + ["--fresh", str(base)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(argv + ["--fresh", str(slow)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed beyond 35%" in captured.err

    def test_bench_compare_missing_file_is_clean_error(self, capsys, tmp_path):
        argv = [
            "bench-compare",
            "--baseline",
            str(tmp_path / "none.json"),
            "--fresh",
            str(tmp_path / "none.json"),
        ]
        assert main(argv) == 2
        assert "no baseline file" in capsys.readouterr().err
