"""Results as distinct bodies plus per-cell scenarios, end to end.

A campaign's cells share a few result *bodies* (every field but the
scenario).  The layers between the simulation and the printout pay once
per body: chunk payloads carry each body once plus ``(index, body_no)``
references, the store indexes each key to its shared body and attaches
the caller's scenario, aggregates weigh each distinct episode tuple by
its multiplicity, and the summary renders each distinct row tail once.
These tests hold each reduction to the naive per-cell computation.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.run_stats import (
    CampaignStats,
    RcaEpisode,
    aggregate_stats,
    phase_outcome_counts,
)
from repro.campaigns import CampaignSpec, Scenario, run_campaign, run_scenario
from repro.campaigns.executor import (
    CampaignResult,
    ScenarioResult,
    _chunk_payload_valid,
    _chunk_pending,
    _dispatch_units,
)
from repro.campaigns.spec import FAMILY_BUILDERS, SPEC_HASH_FORMAT
from repro.cli import main
from repro.errors import TranscriptError
from repro.sim.run import ENGINE_BACKENDS
from repro.store import ResultStore
from repro.util.fitting import FitResult, linear_fit
from repro.util.tables import _cell, format_table

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# the naive reference: flatten every episode, format every row
# ----------------------------------------------------------------------
def _naive_fit(episodes: list[RcaEpisode]) -> FitResult:
    if len(episodes) < 2:
        raise TranscriptError("need at least two episodes to fit scaling")
    by_length: dict[int, list[int]] = {}
    for ep in episodes:
        by_length.setdefault(ep.loop_length, []).append(ep.duration)
    xs = sorted(by_length)
    ys = [sum(by_length[x]) / len(by_length[x]) for x in xs]
    if len(xs) < 2:
        return FitResult(slope=0.0, intercept=ys[0], r_squared=1.0)
    return linear_fit([float(x) for x in xs], ys)


def _naive_fit_text(results) -> str:
    try:
        return repr(_naive_fit([ep for r in results for ep in r.episodes]))
    except TranscriptError as exc:
        return repr(exc)


def _naive_stats(results) -> str:
    episodes = [ep for r in results for ep in r.episodes]
    try:
        fit = _naive_fit(episodes)
    except TranscriptError:
        fit = None
    return CampaignStats(
        scenarios=len(results),
        outcomes=tuple(sorted(Counter(r.outcome for r in results).items())),
        total_ticks=sum(r.ticks for r in results),
        total_drained_ticks=sum(r.drained_ticks for r in results),
        total_hops=sum(r.hops for r in results),
        total_work=sum(r.work for r in results),
        lost_characters=sum(r.lost_characters for r in results),
        episode_count=len(episodes),
        fit=fit,
        phase_outcomes=phase_outcome_counts(results),
        error_kinds=tuple(
            sorted(
                Counter(r.error or "unknown" for r in results if r.outcome == "error")
                .items()
            )
        ),
    ).to_json()


def _naive_table(headers, rows, title=None) -> str:
    """Format, measure and pad every cell of every row."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    numeric = [bool(rows)] * len(headers)
    for row, strs in zip(rows, cells):
        for c, (value, text) in enumerate(zip(row, strs)):
            widths[c] = max(widths[c], len(text))
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                numeric[c] = False

    def line(row):
        padded = [
            v.rjust(widths[c]) if numeric[c] else v.ljust(widths[c])
            for c, v in enumerate(row)
        ]
        return "| " + " | ".join(padded) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = ([title] if title else []) + [sep, line(headers), sep]
    return "\n".join(lines + [line(row) for row in cells] + [sep])


def _naive_summary(campaign: CampaignResult) -> str:
    title = (
        f"campaign: {len(campaign.results)} scenarios, "
        f"outcomes {campaign.outcome_counts()}"
    )
    return _naive_table(
        ["scenario", "N", "E", "D", "ticks", "hops", "outcome"],
        campaign.table_rows(),
        title=title,
    )


# ----------------------------------------------------------------------
# random result multisets
# ----------------------------------------------------------------------
@st.composite
def _episodes(draw, lengths):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        to_root = draw(st.integers(1, 5))
        start = draw(st.integers(0, 500))
        out.append(
            RcaEpisode(
                start_tick=start,
                end_tick=start + draw(st.integers(0, 900)),
                dist_to_root=to_root,
                dist_from_root=draw(lengths) - to_root,
                token=draw(st.sampled_from(["FWD", "BACK"])),
            )
        )
    return tuple(out)


@st.composite
def _bodies(draw, lengths):
    outcome = draw(st.sampled_from(["exact", "accurate", "stale", "deadlock", "error"]))
    error = draw(st.sampled_from(["", "RuntimeError", "deadline"]))
    return ScenarioResult(
        scenario=None,  # type: ignore[arg-type]
        outcome=outcome,
        num_nodes=draw(st.integers(0, 64)),
        num_wires=draw(st.integers(0, 200)),
        diameter=draw(st.integers(0, 9)),
        ticks=draw(st.integers(0, 10**6)),
        drained_ticks=draw(st.integers(0, 10**6)),
        hops=draw(st.integers(0, 10**7)),
        rca_runs=draw(st.integers(0, 9)),
        bca_runs=draw(st.integers(0, 9)),
        by_family=(),
        episodes=draw(_episodes(lengths)),
        lost_characters=draw(st.integers(0, 50)),
        phase=draw(st.sampled_from(["", "", "cut@12", "storm"])),
        error=error if outcome == "error" else "",
    )


@st.composite
def _campaigns(draw) -> CampaignResult:
    # one loop length for the whole multiset sometimes: the flat-fit branch
    single = draw(st.integers(2, 10))
    lengths = st.just(single) if draw(st.booleans()) else st.integers(2, 10)
    bodies = draw(st.lists(_bodies(lengths), min_size=1, max_size=5))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, len(bodies) - 1), st.booleans()),
            max_size=40,
        )
    )
    results = []
    for seed, (number, copied) in enumerate(cells):
        body = bodies[number]
        if copied:  # equal to the shared body, but not its tuple or ints
            body = replace(
                body,
                episodes=tuple(RcaEpisode(**vars(ep)) for ep in body.episodes),
                ticks=int(str(body.ticks)),
                hops=int(str(body.hops)),
            )
        family = ("de-bruijn", "spare-ring")[seed % 2]
        results.append(body.with_scenario(Scenario(family, 4 + seed % 3, seed=seed)))
    return CampaignResult(results=results)


class TestMultiplicityWeightedReductions:
    @settings(**_SETTINGS)
    @given(_campaigns())
    def test_reductions_equal_the_naive_per_cell_walk(self, campaign):
        results = campaign.results
        assert aggregate_stats(results).to_json() == _naive_stats(results)
        assert campaign.stats().to_json() == _naive_stats(results)
        try:
            fit = repr(campaign.episode_fit())
        except TranscriptError as exc:
            fit = repr(exc)
        assert fit == _naive_fit_text(results)
        assert campaign.summary() == _naive_summary(campaign)

    def test_live_and_stored_campaigns_reduce_like_the_naive_walk(self, tmp_path):
        spec = CampaignSpec(
            families=("de-bruijn", "bidirectional-ring"),
            sizes=(6,),
            faults=("none", "cut:0.5"),
            seeds=(0, 1, 2),
        )
        live = run_campaign(spec, store=tmp_path / "run")
        stored = run_campaign(spec, store=tmp_path / "run")
        assert stored.reused == len(spec)
        for campaign in (live, stored):
            assert campaign.stats().to_json() == _naive_stats(campaign.results)
            assert repr(campaign.episode_fit()) == _naive_fit_text(campaign.results)
            assert campaign.summary() == _naive_summary(campaign)
        assert ResultStore(tmp_path / "run").stats().to_json() == _naive_stats(
            live.results
        )


class TestTableTails:
    # a few shared tails, copies equal to them but not identical, and cells
    # that compare equal but render differently (1, 1.0 and True)
    _VALUES = st.sampled_from([0, 1, 1.0, True, 12345, 2.5e-4, "x", "longer", ""])

    @settings(**_SETTINGS)
    @given(
        st.lists(st.lists(_VALUES, min_size=2, max_size=2), min_size=1, max_size=4),
        st.lists(st.tuples(_VALUES, st.integers(0, 3), st.booleans()), max_size=30),
        st.booleans(),
    )
    def test_shared_tails_render_like_every_row(self, tails, cells, titled):
        rows = []
        for label, number, copied in cells:
            tail = tails[number % len(tails)]
            if copied:
                tail = [type(v)(str(v)) if type(v) in (int, str) else v for v in tail]
            rows.append((label, *tail))
        title = "T" if titled else None
        headers = ["label", "a", "b"]
        assert format_table(headers, rows, title=title) == _naive_table(
            headers, rows, title
        )


# ----------------------------------------------------------------------
# one canonical scenario text
# ----------------------------------------------------------------------
_FAULTS = [
    "none",
    "shutdown:0.10",
    "cut:1e+0",
    "add:0.5",
    "frontier:k=2@0.3",
    "storm:p=0.3@0.25",
    "churn:rate=0.08,period=0.25,heal=0.9,until=0.7",
    "cut@0.3+heal@0.5",
    "storm:p=0.2@0.4+heal@0.9",
]


class TestCanonicalText:
    @settings(**_SETTINGS)
    @given(
        family=st.sampled_from(sorted(FAMILY_BUILDERS)),
        size=st.integers(1, 10**6),
        fault=st.sampled_from(_FAULTS),
        seed=st.one_of(st.integers(0, 2**16), st.integers(2**31, 2**80)),
        backend=st.sampled_from(sorted(ENGINE_BACKENDS)),
    )
    def test_text_is_the_canonical_json(self, family, size, fault, seed, backend):
        scenario = Scenario(family, size, fault, seed, backend)
        expected = json.dumps(
            scenario.canonical(), sort_keys=True, separators=(",", ":")
        )
        assert scenario.canonical_text() == expected
        digest = hashlib.sha256(f"{SPEC_HASH_FORMAT}\n{expected}".encode())
        assert scenario.spec_hash() == digest.hexdigest()

    def test_store_record_line_carries_the_canonical_text(self, tmp_path):
        scenario = Scenario("spare-ring", 6, "storm:p=0.3@0.25", 2**40, "flat")
        ResultStore(tmp_path / "run").put(run_scenario(scenario))
        log = tmp_path / "run" / "shards" / "log.jsonl"
        record = log.read_text().splitlines()[-1]
        assert record.endswith(f'"scenario":{scenario.canonical_text()}}}')
        assert json.loads(record)["scenario"] == scenario.canonical()


# ----------------------------------------------------------------------
# chunk payloads: bodies plus references
# ----------------------------------------------------------------------
class TestChunkPayloads:
    CELLS = [
        (3, Scenario("de-bruijn", 6, seed=0)),
        (5, Scenario("de-bruijn", 6, seed=1)),
        (8, Scenario("bidirectional-ring", 6)),
    ]

    @pytest.fixture(scope="class")
    def bodies(self):
        return [run_scenario(s).with_scenario(None) for _, s in self.CELLS[1:]]

    def test_well_formed_payload_is_valid(self, bodies):
        assert _chunk_payload_valid(self.CELLS, (bodies, [(3, 0), (5, 0), (8, 1)]))
        # references may come in any order
        assert _chunk_payload_valid(self.CELLS, (bodies, [(8, 1), (3, 0), (5, 0)]))

    @pytest.mark.parametrize(
        "refs",
        [
            [(3, 0), (5, 2), (8, 1)],  # body number out of range
            [(3, 0), (5, -1), (8, 1)],  # negative body number
            [(3, 0), (8, 1)],  # a missing index
            [(3, 0), (5, 0), (9, 1)],  # an index that was not dispatched
            [(3, 0), (3, 0), (8, 1)],  # a duplicate index
            [(3, 0), (5, "0"), (8, 1)],  # a body number that is not an int
            [(3, 0), (5, 0), (8,)],  # a malformed reference
        ],
    )
    def test_bad_references_are_invalid(self, bodies, refs):
        assert not _chunk_payload_valid(self.CELLS, (bodies, refs))

    def test_bad_shapes_are_invalid(self, bodies):
        refs = [(3, 0), (5, 0), (8, 1)]
        attached = [bodies[0].with_scenario(self.CELLS[0][1]), bodies[1]]
        for payload in (
            [("corrupted-payload", None)],  # not a (bodies, refs) pair
            (bodies, refs, []),
            (tuple(bodies), refs),
            (attached, refs),  # a body must not carry a scenario
            (bodies + ["garbage"], refs),
            None,
        ):
            assert not _chunk_payload_valid(self.CELLS, payload), payload


class TestDispatchUnits:
    def test_healthy_cells_of_one_wiring_dispatch_together(self):
        # two deterministic wirings, 100 seeds each: every seed shares the
        # wiring's static run, so each wiring must land on one worker
        spec = CampaignSpec(
            families=("directed-ring", "de-bruijn"), sizes=(4,), seeds=tuple(range(100))
        )
        pending = list(enumerate(spec.scenarios()))
        chunks = _chunk_pending(pending, workers=2)
        assert [len(c) for c in chunks] == [50] * 4
        units = _dispatch_units(chunks)
        assert [[s.family for _, s in unit][::50] for unit in units] == [
            ["directed-ring"] * 2,
            ["de-bruijn"] * 2,
        ]
        assert [i for unit in units for i, _ in unit] == list(range(200))

    def test_chunks_that_simulate_per_cell_stay_split(self):
        spec = CampaignSpec(
            families=("spare-ring",),
            sizes=(6,),
            faults=("cut:0.2", "cut:0.4", "shutdown:0.1", "none"),
            seeds=tuple(range(6)),
        )
        random = CampaignSpec(families=("random",), sizes=(6,), seeds=tuple(range(8)))
        for matrix in (spec, random):
            chunks = _chunk_pending(list(enumerate(matrix.scenarios())), workers=2)
            assert len(chunks) > 1
            assert _dispatch_units(chunks) == chunks

    def test_units_commit_in_batches_of_at_most_64(self, tmp_path, monkeypatch):
        spec = CampaignSpec(
            families=("directed-ring",), sizes=(4,), seeds=tuple(range(150))
        )
        chunks = _chunk_pending(list(enumerate(spec.scenarios())), workers=2)
        assert [len(unit) for unit in _dispatch_units(chunks)] == [150]
        batches = []
        real = ResultStore.put_many

        def counting(self, results):
            results = list(results)
            batches.append(len(results))
            return real(self, results)

        monkeypatch.setattr(ResultStore, "put_many", counting)
        run_campaign(spec, jobs=2, store=tmp_path / "run")
        assert batches == [64, 64, 22]

    def test_parallel_seed_sweep_equals_serial(self, tmp_path):
        spec = CampaignSpec(
            families=("directed-ring", "de-bruijn"), sizes=(4,), seeds=tuple(range(150))
        )
        serial = run_campaign(spec, jobs=1, store=tmp_path / "serial")
        parallel = run_campaign(spec, jobs=2, store=tmp_path / "parallel")
        assert parallel.results == serial.results
        logs = [
            sorted((tmp_path / name / "shards" / "log.jsonl").read_text().splitlines())
            for name in ("serial", "parallel")
        ]
        assert logs[0] == logs[1]


# ----------------------------------------------------------------------
# the store: keys index shared bodies, lookups attach the caller's scenario
# ----------------------------------------------------------------------
class TestStoreLookups:
    SPEC = CampaignSpec(families=("de-bruijn",), sizes=(6,), seeds=(0, 1, 2))

    def test_get_attaches_the_callers_scenario_to_a_shared_body(self, tmp_path):
        run_campaign(self.SPEC, store=tmp_path / "run")
        store = ResultStore(tmp_path / "run")
        scenarios = self.SPEC.scenarios()
        hits = [store.get(s) for s in scenarios]
        assert all(hit.scenario is s for hit, s in zip(hits, scenarios))
        # the three seeds of one wiring share one payload, hence its tuples
        assert hits[0].episodes is hits[1].episodes is hits[2].episodes
        assert hits == run_campaign(self.SPEC).results
        # a raw key builds the record's own scenario from its stored fields
        by_key = [store.get(s.spec_hash()) for s in scenarios]
        assert by_key == hits
        assert store.results() == hits

    def test_cli_reuse_count_comes_from_the_run(self, capsys, tmp_path, monkeypatch):
        def no_second_expansion(self, scenarios):
            raise AssertionError("the CLI must not expand the matrix again")

        monkeypatch.setattr(ResultStore, "missing", no_second_expansion)
        argv = ["campaign", "--families", "de-bruijn", "--sizes", "6",
                "--seeds", "3", "--store", str(tmp_path / "run")]
        assert main(argv) == 0
        assert "reused 0 stored scenario(s), ran 3 fresh" in capsys.readouterr().out
        assert main(argv + ["--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "reused 2 stored scenario(s), ran 1 fresh, 4 record(s) total" in out
