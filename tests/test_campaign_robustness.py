"""Failure-path integration tests for the supervised campaign executor.

Every test drives a *real* fault through the deterministic injection hook
(:mod:`repro.campaigns.faultinject`): workers genuinely SIGKILL themselves,
genuinely hang, genuinely return corrupted payloads — and the supervisor
must complete the campaign with the poison cell quarantined and every
other cell value-identical to a fault-free run.

``REPRO_ROBUSTNESS_START_METHOD`` selects the pool start method (the CI
robustness job runs this module under both ``fork`` and ``spawn``); the
default is ``fork``, matching the executor's own default where available.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.campaigns import CampaignSpec, SupervisionPolicy, run_campaign
from repro.campaigns.executor import shutdown_worker_pool
from repro.campaigns.faultinject import ENV_VAR, active_injection, maybe_inject
from repro.errors import ReproError, ScenarioExecutionError
from repro.store import ResultStore, verify_result_store

START_METHOD = os.environ.get("REPRO_ROBUSTNESS_START_METHOD", "fork")

#: A small matrix with several cells per setup key, so chunks really do
#: carry innocent neighbours alongside the poison cell.
SPEC = CampaignSpec(
    families=("directed-ring",),
    sizes=(6,),
    faults=("none", "cut:0.3", "cut:0.5"),
    seeds=(0, 1),
)
#: The injection target: a label substring unique to one cell.
POISON = "cut:0.5/s1"

#: Policy knobs shared by the fast failure tests: near-zero backoff so a
#: rebuild costs milliseconds, frequent liveness polls, generous rebuild
#: budget (each attributed crash costs one rebuild on the way to
#: isolation and these tests crash several times on purpose).
FAST = dict(backoff_base=0.01, liveness_interval=0.05, max_pool_rebuilds=20)


def _run(jobs, **policy_kwargs):
    return run_campaign(
        SPEC,
        jobs=jobs,
        start_method=START_METHOD if jobs > 1 else None,
        policy=SupervisionPolicy(**policy_kwargs),
    )


@pytest.fixture(scope="module")
def clean_results():
    """The fault-free reference run every survivor is compared against."""
    return run_campaign(SPEC, jobs=1).results


@pytest.fixture
def inject(monkeypatch):
    """Arm a fault spec, recycling the pool so workers inherit the env."""

    def arm(spec: str) -> None:
        shutdown_worker_pool()
        monkeypatch.setenv(ENV_VAR, spec)

    yield arm
    # Drop any pool whose workers still carry the armed environment.
    shutdown_worker_pool()


def _assert_poison_quarantined(results, clean, kind):
    bad = [r for r in results if r.outcome == "error"]
    assert len(bad) == 1
    assert POISON in bad[0].scenario.label
    assert bad[0].error == kind
    assert len(bad[0].error_digest) == 16
    survivors = [
        (a, b)
        for a, b in zip(results, clean)
        if POISON not in a.scenario.label
    ]
    assert survivors and all(a == b for a, b in survivors)


# ----------------------------------------------------------------------
# the injection hook itself
# ----------------------------------------------------------------------
class TestFaultInjectionSpec:
    def test_disabled_values(self, monkeypatch):
        for value in ("", "0", "1"):
            monkeypatch.setenv(ENV_VAR, value)
            assert active_injection() is None
        monkeypatch.delenv(ENV_VAR)
        assert active_injection() is None

    def test_bad_specs_raise(self, monkeypatch):
        for bad in ("kind=bogus;match=x", "kind=crash", "justwords", "k=v;match=x"):
            monkeypatch.setenv(ENV_VAR, bad)
            with pytest.raises(ReproError):
                active_injection()

    def test_non_matching_cell_is_untouched(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "kind=error;match=no-such-label")
        maybe_inject(SPEC.scenarios()[0])  # must not raise

    def test_once_marker_fires_exactly_once(self, monkeypatch, tmp_path):
        marker = tmp_path / "armed"
        scenario = next(s for s in SPEC.scenarios() if POISON in s.label)
        monkeypatch.setenv(ENV_VAR, f"kind=error;match={POISON};once={marker}")
        with pytest.raises(RuntimeError):
            maybe_inject(scenario)
        assert marker.exists()
        maybe_inject(scenario)  # second touch: marker exists, no fault


# ----------------------------------------------------------------------
# per-cell error capture (serial and parallel agree)
# ----------------------------------------------------------------------
class TestErrorQuarantine:
    def test_serial_error_becomes_structured_result(self, inject, clean_results):
        inject(f"kind=error;match={POISON}")
        result = _run(jobs=1)
        _assert_poison_quarantined(result.results, clean_results, "RuntimeError")

    def test_parallel_equals_serial_including_quarantine(self, inject):
        inject(f"kind=error;match={POISON}")
        serial = _run(jobs=1)
        shutdown_worker_pool()  # fresh pool under the armed env
        parallel = _run(jobs=2, **FAST)
        # digest and kind are deterministic across processes, so the
        # quarantined record itself is value-identical too
        assert serial.results == parallel.results

    def test_strict_mode_restores_the_abort(self, inject):
        inject(f"kind=error;match={POISON}")
        with pytest.raises(ScenarioExecutionError) as excinfo:
            _run(jobs=1, on_error="raise")
        assert POISON in excinfo.value.label
        assert excinfo.value.kind == "RuntimeError"

    def test_error_record_round_trips_through_store(
        self, inject, tmp_path, clean_results
    ):
        inject(f"kind=error;match={POISON}")
        store_dir = tmp_path / "run"
        live = run_campaign(SPEC, jobs=1, store=store_dir)
        reloaded = ResultStore(store_dir)
        assert reloaded.results_for(SPEC) == live.results
        stats = reloaded.stats(SPEC)
        assert stats.error_kinds == (("RuntimeError", 1),)
        assert stats.to_json() == live.stats().to_json()
        report = verify_result_store(store_dir)
        assert report.ok and report.records == len(SPEC)


# ----------------------------------------------------------------------
# worker death, hangs, and lies (the parallel-only failure domain)
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_sigkilled_worker_is_isolated(self, inject, clean_results):
        inject(f"kind=crash;match={POISON}")
        result = _run(jobs=2, max_retries=0, **FAST)
        _assert_poison_quarantined(result.results, clean_results, "worker-crash")

    def test_hung_worker_trips_the_deadline(self, inject, clean_results):
        inject(f"kind=hang;match={POISON};secs=120")
        start = time.monotonic()
        result = _run(
            jobs=2, max_retries=0, cell_timeout=0.5, chunk_grace=0.3, **FAST
        )
        elapsed = time.monotonic() - start
        # the old executor blocked on imap_unordered forever here
        assert elapsed < 60.0
        _assert_poison_quarantined(result.results, clean_results, "deadline")

    def test_corrupt_payload_is_rejected_and_quarantined(
        self, inject, clean_results
    ):
        inject(f"kind=corrupt;match={POISON}")
        result = _run(jobs=2, max_retries=0, **FAST)
        _assert_poison_quarantined(
            result.results, clean_results, "corrupt-result"
        )

    def test_transient_crash_recovers_on_retry(
        self, inject, tmp_path, clean_results
    ):
        # `once=` makes the crash transient: the retry after the pool
        # rebuild succeeds, so no cell is quarantined at all
        marker = tmp_path / "fired"
        inject(f"kind=crash;match={POISON};once={marker}")
        result = _run(jobs=2, max_retries=1, **FAST)
        assert marker.exists()
        assert result.results == clean_results

    def test_degrades_to_serial_after_rebuild_budget(
        self, inject, tmp_path, clean_results
    ):
        # rebuild budget 0: the first breakage exhausts it and the rest of
        # the campaign runs guarded in-parent — where the marker left by
        # the worker's one crash keeps the injection quiet (max_retries=1
        # keeps the crashed chunk retryable instead of quarantining it
        # at the moment of attribution)
        marker = tmp_path / "fired"
        inject(f"kind=crash;match={POISON};once={marker}")
        result = _run(
            jobs=2, max_retries=1, max_pool_rebuilds=0,
            backoff_base=0.01, liveness_interval=0.05,
        )
        assert marker.exists()
        assert result.results == clean_results

    def test_degraded_fallback_commits_in_batches_of_at_most_64(
        self, inject, tmp_path, monkeypatch
    ):
        # 150 healthy seeds of one wiring dispatch as one 150-cell unit; its
        # crash spends the rebuild budget, so the unit runs in the parent,
        # which must still commit it at most 64 cells at a time
        spec = CampaignSpec(
            families=("directed-ring",), sizes=(4,), seeds=tuple(range(150))
        )
        batches = []
        real = ResultStore.put_many

        def counting(self, results):
            results = list(results)
            batches.append(len(results))
            return real(self, results)

        monkeypatch.setattr(ResultStore, "put_many", counting)
        marker = tmp_path / "fired"
        inject(f"kind=crash;match=directed-ring(4)/none/s100;once={marker}")
        result = run_campaign(
            spec,
            jobs=2,
            start_method=START_METHOD,
            store=tmp_path / "run",
            policy=SupervisionPolicy(
                max_retries=1, max_pool_rebuilds=0,
                backoff_base=0.01, liveness_interval=0.05,
            ),
        )
        assert marker.exists()
        assert batches == [64, 64, 22]
        assert result.results == run_campaign(spec).results

    def test_shutdown_is_idempotent(self):
        shutdown_worker_pool()
        shutdown_worker_pool()  # no pool: must be a no-op, not an error


# ----------------------------------------------------------------------
# policy validation
# ----------------------------------------------------------------------
class TestSupervisionPolicy:
    def test_defaults_are_valid(self):
        SupervisionPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_timeout": -1.0},
            {"cell_timeout": 0},
            {"chunk_grace": -0.1},
            {"max_retries": -1},
            {"on_error": "explode"},
            {"backoff_base": -1.0},
            {"max_pool_rebuilds": -1},
            {"liveness_interval": 0.0},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ReproError):
            SupervisionPolicy(**kwargs)

    def test_deadline_arithmetic(self):
        policy = SupervisionPolicy(cell_timeout=2.0, chunk_grace=1.0)
        assert policy.chunk_deadline_seconds(3) == 7.0
        assert SupervisionPolicy(cell_timeout=None).chunk_deadline_seconds(3) is None
        assert SupervisionPolicy(backoff_base=0.5, backoff_cap=2.0).rebuild_backoff(
            10
        ) == 2.0


# ----------------------------------------------------------------------
# store write-through salvage across a parent kill
# ----------------------------------------------------------------------
_PARENT_KILL_SCRIPT = """\
from repro.campaigns import CampaignSpec, run_campaign

spec = CampaignSpec(
    families=("directed-ring",),
    sizes=(6,),
    faults=("none", "cut:0.3", "cut:0.5"),
    seeds=(0, 1),
)
# serial + store write-through; the injected crash SIGKILLs *this*
# process at the poison cell, after earlier chunks were fsynced
run_campaign(spec, jobs=1, store={store!r})
raise SystemExit("unreachable: the injection must have killed us")
"""


class TestParentKillSalvage:
    def test_completed_chunks_survive_and_resume(self, tmp_path, clean_results):
        store_dir = str(tmp_path / "run")
        env = dict(
            os.environ,
            PYTHONPATH="src",
            **{ENV_VAR: f"kind=crash;match={POISON}"},
        )
        proc = subprocess.run(
            [sys.executable, "-c", _PARENT_KILL_SCRIPT.format(store=store_dir)],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -9, proc.stderr.decode()
        # write-through salvaged every chunk completed before the kill
        salvaged = ResultStore(store_dir)
        assert 0 < len(salvaged) < len(SPEC)
        assert verify_result_store(store_dir).ok
        # resuming against the same store (injection disarmed) completes
        # the matrix, and the merged result equals a fault-free run
        resumed = run_campaign(SPEC, jobs=1, store=store_dir)
        assert resumed.results == clean_results
