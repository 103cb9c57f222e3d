"""Per-RCA statistics mined from the root transcript.

Everything here uses only root-visible information (the same stream the
master computer reads), so these are statistics the *deployed* system could
compute about itself.  An **episode** is one RCA as the root experiences
it: from accepting an IG head to seeing the UNMARK token, with the two
canonical path lengths read off the converted streams.

Lemma 4.3 says each episode's duration is proportional to its loop length
``d(A, root) + d(root, A)``; :func:`episode_scaling` checks it across a
whole protocol run (the E12 benchmark tabulates the result).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from repro.errors import TranscriptError
from repro.sim.characters import SCOPE_RCA
from repro.sim.transcript import Transcript
from repro.util.fitting import FitResult, linear_fit

__all__ = [
    "RcaEpisode",
    "rca_episodes",
    "episode_scaling",
    "weighted_episode_scaling",
    "episode_groups",
    "phase_outcome_counts",
    "CampaignStats",
    "aggregate_stats",
]


@dataclass(frozen=True)
class RcaEpisode:
    """One RCA as seen from the root."""

    start_tick: int          # first IG head accepted
    end_tick: int            # UNMARK passed the root
    dist_to_root: int        # |canonical path A -> root|
    dist_from_root: int      # |canonical path root -> A|
    token: str               # "FWD" or "BACK"

    @property
    def duration(self) -> int:
        """Root-observed episode length in ticks (a lower bound on the
        initiator's full RCA time: A started before and finishes after)."""
        return self.end_tick - self.start_tick

    @property
    def loop_length(self) -> int:
        """The marked loop's hop count."""
        return self.dist_to_root + self.dist_from_root


def rca_episodes(transcript: Transcript) -> list[RcaEpisode]:
    """Extract every RCA episode from a root transcript, in order."""
    episodes: list[RcaEpisode] = []
    phase = "open"
    src: int | None = None
    start = 0
    d1 = d2 = 0
    token = ""
    for event in transcript.events():
        if event.kind != "recv" or event.char is None:
            continue
        char = event.char
        kind = char.kind
        if phase == "open" and kind == "IGH":
            phase, src, start, d1, d2, token = "ig", event.port, event.tick, 1, 0, ""
        elif phase == "ig" and event.port == src:
            if kind == "IGB":
                d1 += 1
            elif kind == "IGT":
                phase = "id"
        elif phase == "id" and kind in ("IDH", "IDB"):
            d2 += 1
        elif phase == "id" and kind == "IDT":
            phase = "loop"
        elif phase == "loop" and kind in ("FWD", "BACK"):
            token = kind
        elif phase == "loop" and kind == "UNMARK" and char.payload == SCOPE_RCA:
            if not token:
                raise TranscriptError("RCA episode ended without a loop token")
            episodes.append(
                RcaEpisode(
                    start_tick=start,
                    end_tick=event.tick,
                    dist_to_root=d1,
                    dist_from_root=d2,
                    token=token,
                )
            )
            phase = "open"
    return episodes


def episode_scaling(episodes: Iterable[RcaEpisode]) -> FitResult:
    """Fit episode duration against loop length (Lemma 4.3, per episode).

    Episodes with equal loop lengths are averaged first so dense repeats
    of one distance do not dominate the fit.
    """
    return weighted_episode_scaling([(episodes, 1)])


def weighted_episode_scaling(
    groups: Iterable[tuple[Iterable[RcaEpisode], int]],
) -> FitResult:
    """:func:`episode_scaling` of every ``(episodes, weight)`` group's
    episodes, each repeated ``weight`` times.

    Each loop length's duration sum and episode count stay integers, so the
    fit is bit-identical to :func:`episode_scaling` of the flattened list.
    """
    sums: dict[int, int] = {}
    counts: dict[int, int] = {}
    for episodes, weight in groups:
        for ep in episodes:
            length = ep.loop_length
            sums[length] = sums.get(length, 0) + weight * ep.duration
            counts[length] = counts.get(length, 0) + weight
    if sum(counts.values()) < 2:
        raise TranscriptError("need at least two episodes to fit scaling")
    xs = sorted(sums)
    ys = [sums[x] / counts[x] for x in xs]
    if len(xs) < 2:
        # All loops the same length (e.g. a complete graph): degenerate but
        # legitimate; report a flat fit anchored at the observed point.
        return FitResult(slope=0.0, intercept=ys[0], r_squared=1.0)
    return linear_fit([float(x) for x in xs], ys)


# ----------------------------------------------------------------------
# campaign-level aggregates
# ----------------------------------------------------------------------
def episode_groups(results: Iterable) -> list[tuple[Sequence[RcaEpisode], int]]:
    """Each distinct ``episodes`` tuple of ``results`` with its multiplicity.

    Tuples are told apart by identity: cells that share a result body share
    its tuple, so a seed sweep's thousands of cells reduce to a handful of
    groups without hashing a single episode.  Equal tuples that are not the
    same object form separate groups, which weighs them the same.
    """
    tuples = list(map(attrgetter("episodes"), results))
    distinct = {id(episodes): episodes for episodes in tuples}
    return [(distinct[key], n) for key, n in Counter(map(id, tuples)).items()]


def phase_outcome_counts(results: Iterable) -> tuple[tuple[str, str, int], ...]:
    """Outcome counts keyed by timeline phase: ``(phase, outcome, count)``.

    Accepts anything with ``.phase`` / ``.outcome`` attributes — a
    :class:`~repro.dynamics.experiment.DynamicRunResult` (whose outcome is
    an enum) or a campaign ``ScenarioResult`` (plain string).  Results
    without a phase (static scenarios, legacy single-mutation cells) are
    skipped: the table answers "*when* in the perturbation program did runs
    end, and how", which only timeline runs can say.
    """
    counts: Counter[tuple[str, str]] = Counter()
    for r in results:
        phase = getattr(r, "phase", "")
        if not phase:
            continue
        outcome = r.outcome
        counts[(phase, getattr(outcome, "value", outcome))] += 1
    return tuple(
        (phase, outcome, n) for (phase, outcome), n in sorted(counts.items())
    )


@dataclass(frozen=True)
class CampaignStats:
    """Order-insensitive aggregate of a set of scenario results.

    The same shape is produced whether the results came straight out of
    the executor or were read back from a result store's JSONL shards —
    the store round-trip test asserts the two are byte-identical through
    :meth:`to_json`.  Only plain ints/floats/strings appear, so the JSON
    form is canonical (sorted keys, fixed separators) and diffable.
    """

    scenarios: int
    outcomes: tuple[tuple[str, int], ...]
    total_ticks: int
    total_drained_ticks: int
    total_hops: int
    total_work: int
    lost_characters: int
    episode_count: int
    fit: FitResult | None
    #: timeline-phase outcome table: (phase, outcome, count), sorted;
    #: empty when the matrix has no timeline cells
    phase_outcomes: tuple[tuple[str, str, int], ...] = ()
    #: quarantine table: (error kind, count) for cells with
    #: ``outcome="error"``, sorted; empty for a fault-free matrix.  Kinds
    #: are exception class names or supervisor verdicts
    #: (``"worker-crash"``/``"deadline"``/``"corrupt-result"``).
    error_kinds: tuple[tuple[str, int], ...] = ()

    @property
    def ok_fraction(self) -> float:
        """Share of scenarios whose recovered map matched the truth."""
        ok = sum(n for outcome, n in self.outcomes if outcome in ("exact", "accurate"))
        return ok / self.scenarios if self.scenarios else 0.0

    def to_json(self) -> str:
        """Canonical JSON: stable across runs, suitable for byte compare."""
        doc = {
            "format": "repro.campaign-stats/v1",
            "scenarios": self.scenarios,
            "outcomes": {outcome: n for outcome, n in self.outcomes},
            "total_ticks": self.total_ticks,
            "total_drained_ticks": self.total_drained_ticks,
            "total_hops": self.total_hops,
            "total_work": self.total_work,
            "lost_characters": self.lost_characters,
            "episode_count": self.episode_count,
            "episode_fit": None
            if self.fit is None
            else {
                "slope": self.fit.slope,
                "intercept": self.fit.intercept,
                "r_squared": self.fit.r_squared,
            },
            "phase_outcomes": [list(row) for row in self.phase_outcomes],
            "error_kinds": [list(row) for row in self.error_kinds],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def aggregate_stats(results: Iterable) -> CampaignStats:
    """Reduce scenario results (live or store-loaded) to a CampaignStats.

    Accepts any iterable of objects with the ``ScenarioResult`` attribute
    shape (``outcome``/``ticks``/``hops``/``episodes``/...), so it is
    shared by :class:`repro.campaigns.executor.CampaignResult` and by
    :meth:`repro.store.ResultStore.stats` without a circular import.
    """
    results = list(results)
    groups = episode_groups(results)
    try:
        fit = weighted_episode_scaling(groups)
    except TranscriptError:
        fit = None
    return CampaignStats(
        scenarios=len(results),
        outcomes=tuple(sorted(Counter(map(attrgetter("outcome"), results)).items())),
        total_ticks=sum(map(attrgetter("ticks"), results)),
        total_drained_ticks=sum(map(attrgetter("drained_ticks"), results)),
        total_hops=sum(map(attrgetter("hops"), results)),
        total_work=sum(map(attrgetter("work"), results)),
        lost_characters=sum(map(attrgetter("lost_characters"), results)),
        episode_count=sum(len(episodes) * n for episodes, n in groups),
        fit=fit,
        phase_outcomes=phase_outcome_counts(results),
        # getattr: store records written before the error fields existed
        # deserialize without them — shape tolerance mirrors phase/lost.
        error_kinds=tuple(
            sorted(
                Counter(
                    getattr(r, "error", "") or "unknown"
                    for r in results
                    if r.outcome == "error"
                ).items()
            )
        ),
    )
