"""The persistent campaign result store: an append-only JSONL log + an index.

Design, in one paragraph: the store is **content-addressed** twice over.
Every record is keyed by its scenario's
:meth:`~repro.campaigns.spec.Scenario.spec_hash`, a SHA-256 over the
canonical spec, so the same cell of any matrix always lands at the same
key.  Every result *body* (the result minus its scenario) is stored once,
as a payload line named by the SHA-256 of its canonical JSON, and each
cell's record names its payload: a seed sweep over a few wirings writes a
few bodies and one short record per cell.  The store is also
**append-only**: a commit appends a batch of JSON lines to one log file
with a single write and a single ``fsync``; nothing is ever rewritten in
place.  Those choices buy the three campaign features for free:

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
last record wins, mirroring "latest run of this cell".  Duplicate payload
lines are legal too: two handles on one directory may each write one.
Stores written before format v2 hold whole results inline
(``{"key", "result"}`` lines), some in key-prefix shards
(``shards/ab.jsonl``); the loader reads every ``shards/*.jsonl`` in name
order, ``log.jsonl`` sorts after all of them, and a file may mix both line
shapes, so such stores open, resume and take new records unchanged.
Records of a retired engine backend (:data:`RETIRED_BACKENDS`) stay on
disk but are skipped on load: no current scenario can name that backend.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.analysis.run_stats import CampaignStats, RcaEpisode, aggregate_stats
from repro.campaigns.executor import BODY_FIELDS, ScenarioResult, body_of
from repro.campaigns.spec import CampaignSpec, Scenario
from repro.errors import ReproError, StoreError
from repro.store.artifacts import write_atomically

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
STORE_FORMAT = "repro.result-store/v2"

#: The tag of stores whose lines all hold whole results inline.  Such a
#: store opens unchanged; its first commit rewrites the manifest to
#: :data:`STORE_FORMAT` so that older code refuses it instead of
#: misparsing its payload lines.
_V1_FORMAT = "repro.result-store/v1"

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
def _canonical(doc: dict) -> str:
    """The canonical JSON of a mapping: sorted keys, minimal separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _body_to_doc(result: ScenarioResult) -> dict:
    """A result's body (every field but the scenario) as a JSON-ready mapping."""
    return {
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


def _body_from_doc(doc: dict) -> tuple:
    """The body value of a stored body mapping, in :data:`BODY_FIELDS` order.

    JSON turns tuples into lists, so the nested shapes are re-tupled here.
    """
    try:
        values = {
            "outcome": doc["outcome"],
            "num_nodes": doc["num_nodes"],
            "num_wires": doc["num_wires"],
            "diameter": doc["diameter"],
            "ticks": doc["ticks"],
            "drained_ticks": doc["drained_ticks"],
            "hops": doc["hops"],
            "rca_runs": doc["rca_runs"],
            "bca_runs": doc["bca_runs"],
            "by_family": tuple((kind, count) for kind, count in doc["by_family"]),
            "episodes": tuple(RcaEpisode(**ep) for ep in doc["episodes"]),
            "lost_characters": doc.get("lost_characters", 0),
            "phase": doc.get("phase", ""),
            # .get: records written before quarantine existed lack these
            "error": doc.get("error", ""),
            "error_digest": doc.get("error_digest", ""),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed result record: {exc}") from exc
    return tuple(values[name] for name in BODY_FIELDS)


def result_to_doc(result: ScenarioResult) -> dict:
    """A :class:`ScenarioResult` as a JSON-ready mapping."""
    return {"scenario": result.scenario.canonical(), **_body_to_doc(result)}


def result_from_doc(doc: dict) -> ScenarioResult:
    """Rebuild a :class:`ScenarioResult` from its stored mapping.

    The inverse of :func:`result_to_doc` up to value identity: the
    round-tripped result compares ``==`` to the original dataclass.
    """
    try:
        scenario = _scenario_of(_stored_scenario(doc["scenario"]))
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise StoreError(f"malformed result record: {exc}") from exc
    return ScenarioResult(scenario, *_body_from_doc(doc))


#: A record's scenario as the index holds it: the :class:`Scenario`
#: itself, or the ``(fields, seed)`` of :func:`_stored_scenario`, which
#: :func:`_scenario_of` builds a :class:`Scenario` from on demand.
_ScenarioSource = Scenario | tuple[tuple, object]


@lru_cache(maxsize=4096)
def _checked_fields(fields: tuple) -> tuple:
    """``fields`` (a stored scenario's items but its seed), once validated.

    Validation is what ``Scenario(**doc).canonical()`` does with the seed
    left at its default: construction checks the fault and backend,
    ``canonical`` the size.  Returns the first-seen tuple of each distinct
    value, so the records of one family, size, fault and backend share it.
    """
    Scenario(**dict(fields)).canonical()
    return fields


def _stored_scenario(doc: dict) -> tuple[tuple, object]:
    """A stored scenario mapping as ``(fields, seed)``, validated.

    It raises exactly where ``Scenario(**doc).canonical()`` would, at the
    cost of an integer check on the seed plus one validation per distinct
    :func:`_checked_fields` value.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"scenario {doc!r} is not a mapping")
    rest = dict(doc)
    seed = rest.pop("seed", 0)
    int(seed)
    return _checked_fields(tuple(rest.items())), seed


def _scenario_of(source: _ScenarioSource) -> Scenario:
    """The :class:`Scenario` of a :data:`_ScenarioSource`."""
    if isinstance(source, Scenario):
        return source
    fields, seed = source
    return Scenario(**dict(fields), seed=seed)


def _read_manifest(path: Path) -> dict:
    """The parsed manifest; :class:`StoreError` unless it is a JSON object."""
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise StoreError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StoreError(f"manifest {path} is not a JSON object")
    return manifest


def _is_retired(scenario: object) -> bool:
    """Whether a stored scenario names a retired backend."""
    return isinstance(scenario, dict) and scenario.get("backend") in RETIRED_BACKENDS


class _Payload(NamedTuple):
    """What :func:`_scan_shard` yields for a payload line."""

    digest: str
    #: the body (``scenario=None``) every record naming this payload shares
    body: ScenarioResult
    #: the body mapping as parsed, for :func:`verify_result_store`'s digest check
    doc: dict


class _Record(NamedTuple):
    """What :func:`_scan_shard` yields for a record line of either shape."""

    key: str
    #: the record's body, or ``None`` for a record of a retired backend
    body: ScenarioResult | None
    #: ``None`` for a record of a retired backend
    scenario: _ScenarioSource | None


#: What :func:`_scan_shard` yields for a file's torn final line.
_TORN = object()


def _scan_shard(shard: Path) -> Iterator[tuple[int, int, object]]:
    """Decode one shard file line by line: ``(lineno, offset, item)``.

    ``lineno`` is 1-based and ``offset`` is the line's first byte.  ``item``
    is a :class:`_Payload` for a payload line; a :class:`_Record` for a
    record of either shape, whose body is ``None`` for a retired backend;
    the decoding error for a corrupt line, including a record that names a
    payload no earlier line of this file holds or whose scenario fails
    validation (:func:`_stored_scenario`); or :data:`_TORN` for the bytes
    after the file's last newline.  Those are torn whatever they parse as:
    every commit ends in a newline, so an unterminated line is a commit
    cut short, and the next commit would weld its first record onto it.
    No record builds a result or a :class:`Scenario`: a format-v2 record
    shares its payload's body and keeps its scenario as ``(fields, seed)``.
    """
    bodies: dict[str, ScenarioResult] = {}
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
            line = json.loads(raw)
            if "body" in line:
                doc = line["body"]
                body = ScenarioResult(None, *_body_from_doc(doc))  # type: ignore[arg-type]
                payload = _Payload(line["payload"], body, doc)
                bodies[payload.digest] = body
                yield lineno, start, payload
                continue
            key = line["key"]
            if "result" in line:  # a whole result inline: format v1
                doc = line["result"]
                if _is_retired(doc["scenario"]):
                    record = _Record(key, None, None)
                else:
                    result = result_from_doc(doc)
                    record = _Record(key, result.with_scenario(None), result.scenario)
            elif _is_retired(line["scenario"]):
                record = _Record(key, None, None)
            else:
                body = bodies.get(line["payload"])
                if body is None:
                    raise StoreError(
                        f"record names unknown payload {line['payload']!r}"
                    )
                record = _Record(key, body, _stored_scenario(line["scenario"]))
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            yield lineno, start, exc
            continue
        yield lineno, start, record


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class ResultStore:
    """A directory of append-only JSONL files indexed by spec hash.

    Layout::

        RUN_DIR/
          MANIFEST.json       # format tag
          shards/ab.jsonl     # legacy key-prefix shards (read, never written)
          shards/log.jsonl    # every commit since, in commit order

    A commit writes each result body the log does not hold yet as one
    payload line, then one short record line per result naming its
    payload by digest; the record's ``scenario`` is the scenario's
    :meth:`~repro.campaigns.spec.Scenario.canonical_text`.  Opening a
    store scans every file once, decodes each payload once into a shared
    body and builds the in-memory index (``spec hash -> (body, scenario)``
    of the latest record), building no result per record: a record keeps
    its scenario as plain fields, validated once per distinct family,
    size, fault and backend.  :meth:`get` attaches the caller's scenario
    to the shared body, so a resume costs one dict lookup per cell.
    Commits append to the log and update the index, so reads never
    re-touch disk.  Records are plain values, making the store safe to
    copy, merge (concatenate logs), or commit to version control.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._shard_dir = self.root / "shards"
        self._log = self._shard_dir / _LOG_NAME
        self._manifest = self.root / "MANIFEST.json"
        #: spec hash -> ``(body, scenario source)`` of the latest record: the
        #: body is any result holding its fields (``get`` swaps the scenario)
        self._index: dict[str, tuple[ScenarioResult, _ScenarioSource]] = {}
        #: body value -> digest of a payload line in the log: the writer
        #: names it instead of writing the body again
        self._digests: dict[tuple, str] = {}
        self._format = STORE_FORMAT
        self._init_layout()
        self._load()

    # -- layout and loading ---------------------------------------------
    def _init_layout(self) -> None:
        if self._manifest.exists():
            self._format = _read_manifest(self._manifest).get("format")
            if self._format not in (_V1_FORMAT, STORE_FORMAT):
                raise StoreError(
                    f"{self.root} is not a {STORE_FORMAT} store "
                    f"(found {self._format!r})"
                )
            self._shard_dir.mkdir(exist_ok=True)
            return
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store path {self.root} exists and is not a directory")
        self._shard_dir.mkdir(parents=True, exist_ok=True)
        self._manifest.write_text(json.dumps({"format": STORE_FORMAT}, indent=2) + "\n")

    def _upgrade_manifest(self) -> None:
        """Retag a v1 store as :data:`STORE_FORMAT`, atomically.

        Runs before the first commit appends payload lines, so the log
        never holds a line older code would misparse under a tag it reads.
        """
        manifest = _read_manifest(self._manifest)
        manifest["format"] = STORE_FORMAT
        data = (json.dumps(manifest, indent=2) + "\n").encode()
        write_atomically(self._manifest, data, ".MANIFEST.")
        self._format = STORE_FORMAT

    def _load(self) -> None:
        for shard in sorted(self._shard_dir.glob("*.jsonl")):
            self._load_shard(shard)

    def _load_shard(self, shard: Path) -> None:
        # only the log's payloads may be named by later commits, which
        # append to the log: a record never names a payload in another file
        learn = shard == self._log
        for lineno, offset, item in _scan_shard(shard):
            if item is _TORN:
                # the expected signature of a run killed mid-append: cut it
                # away so the next append starts on a clean boundary
                os.truncate(shard, offset)
            elif isinstance(item, Exception):
                raise StoreError(
                    f"corrupt record at {shard.name}:{lineno}: {item}"
                ) from item
            elif isinstance(item, _Payload):
                if learn:
                    self._digests[body_of(item.body)] = item.digest
            elif item.body is not None:  # None: a retired backend's record
                self._index[item.key] = (item.body, item.scenario)

    # -- writes ----------------------------------------------------------
    def put(self, result: ScenarioResult) -> str:
        """Append one result; returns its spec-hash key."""
        return self.put_many([result])[0]

    def put_many(self, results: Iterable[ScenarioResult]) -> list[str]:
        """Commit a batch of results; returns their keys in order.

        Each body the log does not hold yet is written once, as a payload
        line ahead of the first record that names it.  The whole batch is
        appended to the log in one ``O_APPEND`` write and fsynced once, and
        only then do its keys enter the index and its payloads the
        writer's digest map — so a key visible in memory is durable on
        disk, and no later commit names a payload that is not.  If the
        write or the ``fsync`` fails, the log is cut back to its prior
        length and the index and map are left untouched.
        """
        results = list(results)
        keys = [result.scenario.spec_hash() for result in results]
        if not results:
            return keys
        learned: dict[tuple, str] = {}
        lines = []
        last = digest = None
        for key, result in zip(keys, results):
            body = body_of(result)
            # Cells of one wiring arrive together and share their episode
            # tuples, so ``==`` on the previous body is cheap where hashing
            # the body (every episode) is not.
            if body != last:
                last = body
                digest = self._digests.get(body) or learned.get(body)
            if digest is None:
                doc = _body_to_doc(result)
                digest = hashlib.sha256(_canonical(doc).encode()).hexdigest()
                learned[body] = digest
                lines.append(_canonical({"body": doc, "payload": digest}))
            # the canonical form of {"key", "payload", "scenario"}: keys sorted
            scenario = result.scenario.canonical_text()
            lines.append(
                f'{{"key":"{key}","payload":"{digest}","scenario":{scenario}}}'
            )
        data = ("\n".join(lines) + "\n").encode()
        if self._format != STORE_FORMAT:
            self._upgrade_manifest()
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
        self._digests.update(learned)
        for key, result in zip(keys, results):
            self._index[key] = (result, result.scenario)
        return keys

    # -- reads -----------------------------------------------------------
    @staticmethod
    def _key_of(item: Scenario | str) -> str:
        return item.spec_hash() if isinstance(item, Scenario) else item

    def get(self, item: Scenario | str) -> ScenarioResult | None:
        """The stored result for a scenario (or raw key), or ``None``.

        Given a scenario, the result carries that scenario, attached to the
        record's shared body; it equals the stored scenario, since their
        spec hashes agree.  Given a raw key, the result carries the
        record's own scenario, built from its stored fields.
        """
        if isinstance(item, Scenario):
            entry = self._index.get(item.spec_hash())
            return None if entry is None else entry[0].with_scenario(item)
        entry = self._index.get(item)
        return None if entry is None else _result_of(entry)

    def __contains__(self, item: Scenario | str) -> bool:
        return self._key_of(item) in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> list[str]:
        return list(self._index)

    def results(self) -> list[ScenarioResult]:
        """Every stored result, in first-recorded key order."""
        return [_result_of(entry) for entry in self._index.values()]

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
        return iter(self.results())

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


def _result_of(entry: tuple[ScenarioResult, _ScenarioSource]) -> ScenarioResult:
    """An index entry as a result carrying the record's own scenario."""
    body, source = entry
    return body.with_scenario(_scenario_of(source))


# ----------------------------------------------------------------------
# offline verification
# ----------------------------------------------------------------------
@dataclass
class StoreVerifyReport:
    """What an offline scan of a result store's files found.

    ``problems`` are lines that cannot be trusted — unparseable JSON in
    the middle of a file, a line that fails deserialization (a scenario
    that fails validation included), a payload
    whose body does not hash to its digest, a record that names a payload
    its file does not hold, or a key that does not match the stored
    scenario's recomputed spec hash.  ``torn`` entries are unterminated
    *final* lines: the expected signature of a run killed mid-append,
    reported as warnings (the loader drops them safely) rather than
    corruption.  ``retired`` counts records of a :data:`RETIRED_BACKENDS`
    backend, which the loader skips.
    """

    root: str
    shards: int = 0
    payloads: int = 0
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
            f"{self.payloads} payload(s), {self.records} record(s), "
            f"{self.keys} key(s), {self.duplicates} duplicate(s)"
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
    line of every shard is parsed and deserialized.  Each payload's body
    is re-encoded canonically and checked against its digest, since a
    flipped byte in one shared body would corrupt every cell naming it;
    each record must name a payload its file holds, and its key is
    checked against the recomputed spec hash of the scenario it claims to
    record — so a bit flip in a spec field (which would silently serve the
    wrong cell on resume) is caught, not just malformed JSON.  Unlike
    opening a :class:`ResultStore`, a torn final line is *reported*, not
    truncated away, and mid-shard corruption is collected instead of
    raising — the point is a complete report over a store you may not
    want to touch.
    """
    root = Path(root)
    manifest_path = root / "MANIFEST.json"
    report = StoreVerifyReport(root=str(root))
    if not manifest_path.is_file():
        report.problems.append(f"{manifest_path.name}: missing manifest")
        return report
    try:
        manifest = _read_manifest(manifest_path)
    except StoreError as exc:
        report.problems.append(f"{manifest_path.name}: {exc}")
        return report
    if manifest.get("format") not in (_V1_FORMAT, STORE_FORMAT):
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
            if isinstance(item, _Payload):
                report.payloads += 1
                digest = hashlib.sha256(_canonical(item.doc).encode()).hexdigest()
                if digest != item.digest:
                    report.problems.append(
                        f"{where}: payload {item.digest[:16]}… does not match "
                        f"the digest of its body ({digest[:16]}…)"
                    )
                continue
            key = item.key
            if item.body is None:
                report.retired += 1
                continue
            report.records += 1
            scenario = _scenario_of(item.scenario)
            if key != scenario.spec_hash():
                report.problems.append(
                    f"{where}: key {key[:16]}… does not match the "
                    f"recomputed spec hash of {scenario.label}"
                )
            if key in seen:
                report.duplicates += 1
            seen.add(key)
    report.keys = len(seen)
    return report
