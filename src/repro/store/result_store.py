"""The persistent campaign result store: an append-only JSONL log + an index.

Design, in one paragraph: the store is **content-addressed** (every record
is keyed by its scenario's :meth:`~repro.campaigns.spec.Scenario.spec_hash`,
a SHA-256 over the canonical spec, so the same cell of any matrix always
lands at the same key) and **append-only** (a commit appends a batch of
JSON lines to one log file with a single write and a single ``fsync``;
nothing is ever rewritten in place).  Those two choices buy the three
campaign features for free:

* **resume** — an interrupted run leaves a prefix of completed records on
  disk; re-running the same matrix looks each scenario up by key, loads the
  hits, and executes only the misses.  Because every scenario is a pure
  function of its spec, a loaded record is value-identical to a re-run one,
  so a resumed campaign's aggregate is byte-identical to an uninterrupted
  run's (a test enforces this).
* **caching** — an *overlapping* matrix (more seeds, one more family)
  reuses every cell it shares with past runs, making large sweeps
  cumulative instead of repeated work.
* **crash tolerance** — a process killed mid-append leaves at most one
  torn final line per file: every commit ends in a newline, so bytes after
  a file's last newline are torn whatever they parse as.  The loader cuts
  them off and keeps everything before them.  Corruption anywhere else
  raises :class:`~repro.errors.StoreError` loudly.

Duplicate keys are legal (append-only stores re-record on re-run); the
last record wins, mirroring "latest run of this cell".  Stores written
before the log existed keep their records in key-prefix shards
(``shards/ab.jsonl``); the loader reads every ``shards/*.jsonl`` in name
order and ``log.jsonl`` sorts after all of them, so such stores open,
resume and take new records unchanged.  Records of a retired engine
backend (:data:`RETIRED_BACKENDS`) stay on disk but are skipped on load:
no current scenario can name that backend.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.run_stats import CampaignStats, RcaEpisode, aggregate_stats
from repro.campaigns.executor import ScenarioResult
from repro.campaigns.spec import CampaignSpec, Scenario
from repro.errors import StoreError

__all__ = [
    "RETIRED_BACKENDS",
    "STORE_FORMAT",
    "ResultStore",
    "StoreVerifyReport",
    "result_to_doc",
    "result_from_doc",
    "verify_result_store",
]

#: Manifest format tag; bump on incompatible layout or record changes.
STORE_FORMAT = "repro.result-store/v1"

#: The file every commit appends to.  Earlier writers spread records over
#: key-prefix shards named by two hex digits; ``log.jsonl`` sorts after all
#: of them, so the name-ordered, last-write-wins load lets it override them.
_LOG_NAME = "log.jsonl"

#: Engine backends that once wrote records but no longer exist.  Their
#: records live under spec hashes of their own, so skipping them never
#: hides a cell a current campaign could ask for.
RETIRED_BACKENDS = frozenset({"batch"})


# ----------------------------------------------------------------------
# record (de)serialization
# ----------------------------------------------------------------------
def result_to_doc(result: ScenarioResult) -> dict:
    """A :class:`ScenarioResult` as a JSON-ready mapping."""
    return {
        "scenario": result.scenario.canonical(),
        "outcome": result.outcome,
        "num_nodes": result.num_nodes,
        "num_wires": result.num_wires,
        "diameter": result.diameter,
        "ticks": result.ticks,
        "drained_ticks": result.drained_ticks,
        "hops": result.hops,
        "rca_runs": result.rca_runs,
        "bca_runs": result.bca_runs,
        "by_family": [[kind, count] for kind, count in result.by_family],
        "episodes": [
            {
                "start_tick": ep.start_tick,
                "end_tick": ep.end_tick,
                "dist_to_root": ep.dist_to_root,
                "dist_from_root": ep.dist_from_root,
                "token": ep.token,
            }
            for ep in result.episodes
        ],
        "lost_characters": result.lost_characters,
        "phase": result.phase,
        "error": result.error,
        "error_digest": result.error_digest,
    }


def result_from_doc(doc: dict) -> ScenarioResult:
    """Rebuild a :class:`ScenarioResult` from its stored mapping.

    The inverse of :func:`result_to_doc` up to value identity: JSON turns
    tuples into lists, so the nested shapes are re-tupled here and the
    round-tripped result compares ``==`` to the original dataclass.
    """
    try:
        return ScenarioResult(
            scenario=Scenario(**doc["scenario"]),
            outcome=doc["outcome"],
            num_nodes=doc["num_nodes"],
            num_wires=doc["num_wires"],
            diameter=doc["diameter"],
            ticks=doc["ticks"],
            drained_ticks=doc["drained_ticks"],
            hops=doc["hops"],
            rca_runs=doc["rca_runs"],
            bca_runs=doc["bca_runs"],
            by_family=tuple((kind, count) for kind, count in doc["by_family"]),
            episodes=tuple(RcaEpisode(**ep) for ep in doc["episodes"]),
            lost_characters=doc.get("lost_characters", 0),
            phase=doc.get("phase", ""),
            # .get: records written before quarantine existed lack these
            error=doc.get("error", ""),
            error_digest=doc.get("error_digest", ""),
        )
    except (KeyError, TypeError) as exc:
        raise StoreError(f"malformed result record: {exc}") from exc


def _is_retired(record: dict) -> bool:
    """Whether a shard record was written by a retired backend."""
    scenario = record["result"]["scenario"]
    return isinstance(scenario, dict) and scenario.get("backend") in RETIRED_BACKENDS


#: What :func:`_scan_shard` yields for a file's torn final line.
_TORN = object()


def _scan_shard(shard: Path) -> Iterator[tuple[int, int, object]]:
    """Decode one shard file line by line: ``(lineno, offset, item)``.

    ``lineno`` is 1-based and ``offset`` is the line's first byte.  ``item``
    is ``(key, result)`` for a record, ``(key, None)`` for a record of a
    retired backend, the decoding error for a corrupt line, or
    :data:`_TORN` for the bytes after the file's last newline.  Those are
    torn whatever they parse as: every commit ends in a newline, so an
    unterminated line is a commit cut short, and the next commit would
    weld its first record onto it.
    """
    lines = shard.read_bytes().split(b"\n")
    offset = 0
    for lineno, raw in enumerate(lines, 1):
        start = offset
        offset += len(raw) + 1
        if not raw.strip():
            continue
        if lineno == len(lines):
            yield lineno, start, _TORN
            continue
        try:
            record = json.loads(raw)
            key = record["key"]
            retired = _is_retired(record)
            result = None if retired else result_from_doc(record["result"])
        except (json.JSONDecodeError, KeyError, TypeError, StoreError) as exc:
            yield lineno, start, exc
            continue
        yield lineno, start, (key, result)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class ResultStore:
    """A directory of append-only JSONL files indexed by spec hash.

    Layout::

        RUN_DIR/
          MANIFEST.json       # format tag, written once
          shards/ab.jsonl     # legacy key-prefix shards (read, never written)
          shards/log.jsonl    # every commit since, in commit order

    Opening a store scans every file once and builds the in-memory index
    (``spec hash -> latest record``); commits append to the log and
    update the index, so reads never re-touch disk.  Records are plain
    values, making the store safe to copy, merge (concatenate files), or
    commit to version control.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._shard_dir = self.root / "shards"
        self._log = self._shard_dir / _LOG_NAME
        self._index: dict[str, ScenarioResult] = {}
        self._init_layout()
        self._load()

    # -- layout and loading ---------------------------------------------
    def _init_layout(self) -> None:
        manifest_path = self.root / "MANIFEST.json"
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise StoreError(f"unreadable manifest {manifest_path}: {exc}") from exc
            if manifest.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"{self.root} is not a {STORE_FORMAT} store "
                    f"(found {manifest.get('format')!r})"
                )
            return
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store path {self.root} exists and is not a directory")
        self._shard_dir.mkdir(parents=True, exist_ok=True)
        manifest = {"format": STORE_FORMAT}
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    def _load(self) -> None:
        for shard in sorted(self._shard_dir.glob("*.jsonl")):
            self._load_shard(shard)

    def _load_shard(self, shard: Path) -> None:
        for lineno, offset, item in _scan_shard(shard):
            if item is _TORN:
                # the expected signature of a run killed mid-append: cut it
                # away so the next append starts on a clean boundary
                os.truncate(shard, offset)
            elif isinstance(item, Exception):
                raise StoreError(
                    f"corrupt record at {shard.name}:{lineno}: {item}"
                ) from item
            else:
                key, result = item
                if result is not None:  # None: a retired backend's record
                    self._index[key] = result

    # -- writes ----------------------------------------------------------
    def put(self, result: ScenarioResult) -> str:
        """Append one result; returns its spec-hash key."""
        return self.put_many([result])[0]

    def put_many(self, results: Iterable[ScenarioResult]) -> list[str]:
        """Commit a batch of results; returns their keys in order.

        The whole batch is appended to the log in one ``O_APPEND`` write
        and fsynced once, and only then does it enter the index — so a key
        visible in memory is always durable on disk.  If the write or the
        ``fsync`` fails, the log is cut back to its prior length and the
        index is left untouched.
        """
        results = list(results)
        keys = [result.scenario.spec_hash() for result in results]
        if not results:
            return keys
        lines = [
            json.dumps(
                {"key": key, "result": result_to_doc(result)},
                sort_keys=True,
                separators=(",", ":"),
            )
            for key, result in zip(keys, results)
        ]
        data = ("\n".join(lines) + "\n").encode()
        fd = os.open(self._log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            size = os.fstat(fd).st_size
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view) :]
                os.fsync(fd)
            except BaseException:
                os.ftruncate(fd, size)
                raise
        finally:
            os.close(fd)
        for key, result in zip(keys, results):
            self._index[key] = result
        return keys

    # -- reads -----------------------------------------------------------
    @staticmethod
    def _key_of(item: Scenario | str) -> str:
        return item.spec_hash() if isinstance(item, Scenario) else item

    def get(self, item: Scenario | str) -> ScenarioResult | None:
        """The stored result for a scenario (or raw key), or ``None``."""
        return self._index.get(self._key_of(item))

    def __contains__(self, item: Scenario | str) -> bool:
        return self._key_of(item) in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> list[str]:
        return list(self._index)

    def results(self) -> list[ScenarioResult]:
        """Every stored result, in first-recorded key order."""
        return list(self._index.values())

    def results_for(
        self, scenarios: CampaignSpec | Sequence[Scenario]
    ) -> list[ScenarioResult | None]:
        """Matrix-ordered lookup: one slot per scenario, ``None`` = missing."""
        expanded = (
            scenarios.scenarios()
            if isinstance(scenarios, CampaignSpec)
            else list(scenarios)
        )
        return [self.get(s) for s in expanded]

    def missing(
        self, scenarios: CampaignSpec | Sequence[Scenario]
    ) -> list[Scenario]:
        """The scenarios of a matrix that have no stored result yet."""
        expanded = (
            scenarios.scenarios()
            if isinstance(scenarios, CampaignSpec)
            else list(scenarios)
        )
        return [s for s in expanded if s not in self]

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self._index.values())

    # -- aggregation ------------------------------------------------------
    def stats(
        self, scenarios: CampaignSpec | Sequence[Scenario] | None = None
    ) -> CampaignStats:
        """Aggregate stored results through :func:`aggregate_stats`.

        With ``scenarios`` given, aggregates exactly that matrix (raising
        if any cell is missing) — the store-backed twin of
        :meth:`CampaignResult.stats`; with ``None``, aggregates everything
        in the store.
        """
        if scenarios is None:
            return aggregate_stats(self.results())
        slots = self.results_for(scenarios)
        if any(r is None for r in slots):
            missing = sum(1 for r in slots if r is None)
            raise StoreError(
                f"store {self.root} is missing {missing} of {len(slots)} "
                f"scenarios of the requested matrix"
            )
        return aggregate_stats(slots)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultStore({str(self.root)!r}, {len(self)} records)"


# ----------------------------------------------------------------------
# offline verification
# ----------------------------------------------------------------------
@dataclass
class StoreVerifyReport:
    """What an offline scan of a result store's files found.

    ``problems`` are records that cannot be trusted — unparseable JSON in
    the middle of a file, a record that fails deserialization, or a key
    that does not match the stored scenario's recomputed spec hash.
    ``torn`` entries are unterminated *final* lines: the expected signature
    of a run killed mid-append, reported as warnings (the loader drops them
    safely) rather than corruption.  ``retired`` counts records of a
    :data:`RETIRED_BACKENDS` backend, which the loader skips.
    """

    root: str
    shards: int = 0
    records: int = 0
    keys: int = 0
    duplicates: int = 0
    retired: int = 0
    torn: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no record is untrustworthy (torn tails are fine)."""
        return not self.problems

    def summary(self) -> str:
        lines = [
            f"result store {self.root}: {self.shards} shard(s), "
            f"{self.records} record(s), {self.keys} key(s), "
            f"{self.duplicates} duplicate(s)"
        ]
        if self.retired:
            lines.append(
                f"{self.retired} record(s) of retired backend(s) "
                f"{', '.join(sorted(RETIRED_BACKENDS))}, skipped on load"
            )
        for entry in self.torn:
            lines.append(f"TORN {entry}")
        for entry in self.problems:
            lines.append(f"CORRUPT {entry}")
        lines.append(
            f"verify: {len(self.problems)} corrupt record(s), "
            f"{len(self.torn)} torn trailing line(s)"
        )
        return "\n".join(lines)


def verify_result_store(root: str | os.PathLike) -> StoreVerifyReport:
    """Scan a result store offline; never modifies anything on disk.

    The shard-level twin of the artifact library's ``--verify``: every
    line of every shard is parsed, deserialized, and its key checked
    against the recomputed spec hash of the scenario it claims to record —
    so a bit flip in a spec field (which would silently serve the wrong
    cell on resume) is caught, not just malformed JSON.  Unlike opening a
    :class:`ResultStore`, a torn final line is *reported*, not truncated
    away, and mid-shard corruption is collected instead of raising — the
    point is a complete report over a store you may not want to touch.
    """
    root = Path(root)
    manifest_path = root / "MANIFEST.json"
    report = StoreVerifyReport(root=str(root))
    if not manifest_path.is_file():
        report.problems.append(f"{manifest_path.name}: missing manifest")
        return report
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        report.problems.append(f"{manifest_path.name}: unreadable ({exc})")
        return report
    if manifest.get("format") != STORE_FORMAT:
        report.problems.append(
            f"{manifest_path.name}: format {manifest.get('format')!r}, "
            f"expected {STORE_FORMAT!r}"
        )
        return report
    seen: set[str] = set()
    for shard in sorted((root / "shards").glob("*.jsonl")):
        report.shards += 1
        for lineno, _, item in _scan_shard(shard):
            where = f"{shard.name}:{lineno}"
            if item is _TORN:
                report.torn.append(f"{where}: truncated final line")
                continue
            if isinstance(item, Exception):
                report.problems.append(f"{where}: {item}")
                continue
            key, result = item
            if result is None:
                report.retired += 1
                continue
            report.records += 1
            if key != result.scenario.spec_hash():
                report.problems.append(
                    f"{where}: key {key[:16]}… does not match the "
                    f"recomputed spec hash of {result.scenario.label}"
                )
            if key in seen:
                report.duplicates += 1
            seen.add(key)
    report.keys = len(seen)
    return report
