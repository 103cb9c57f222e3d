"""The persistent compiled-artifact library: mmap-shared CSR topologies.

:mod:`repro.topology.compile` lowers a frozen
:class:`~repro.topology.portgraph.PortGraph` into dense ``array('q')``
wire/CSR tables — a pure function of the wiring, cached process-wide.
That cache dies with the process: every fresh worker, CLI invocation and
CI leg recompiles artifacts it has compiled a thousand times before.
This module is the on-disk tier below that cache.

Design, in one paragraph: the library is **content-addressed** — every
artifact is keyed by a SHA-256 over the graph's canonical spec (size,
degree bound, exact wire set) mixed with the compiler version tag and the
binary format version, so the same wiring always lands at the same key
and a compiler change silently misses instead of serving stale tables —
and **immutable-by-replacement**: a publish serializes the tables to a
fixed little-endian binary layout with a checksummed header (see
``docs/FORMATS.md``), writes them to a temp file, fsyncs, and atomically
:func:`os.replace`-renames into place, so concurrent publishers race
harmlessly (last complete file wins) and a reader can never observe a
torn artifact under the final name.  Loads go through :mod:`mmap` with
zero-copy ``memoryview``-backed tables: N worker processes and N
successive runs of one wiring share a single physical copy of the tables
in the page cache.  The loaded artifact is read-only by contract —
exactly the contract the in-memory cache already has — and the dynamic
engines' :meth:`~repro.topology.compile.CompiledTopology.fork` gives them
a private mutable copy of the two wire tables while the CSR port census
stays on the shared mapping forever.

:func:`repro.topology.compile.compiled_topology` consults the library
automatically once one is configured (:func:`configure_artifact_library`,
or the ``REPRO_ARTIFACTS`` environment variable): memory cache → mmap
library → compile-and-publish.  A fresh process with a warm library
therefore reaches its first simulation hop without invoking the topology
compiler at all — the fleet-scale cold-start story, gated by
``benchmarks/bench_artifacts.py`` and ``tests/test_artifacts.py``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
import tempfile
import zlib
from array import array
from pathlib import Path

from repro.errors import StoreError
from repro.topology.compile import (
    COMPILER_VERSION,
    TABLE_NAMES,
    CompiledTopology,
    _set_artifact_library,
    compile_topology,
)
from repro.topology.portgraph import PortGraph

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_FORMAT_VERSION",
    "ARTIFACT_MAGIC",
    "ARTIFACT_SUFFIX",
    "LIBRARY_FORMAT",
    "ArtifactError",
    "ArtifactInfo",
    "ArtifactLibrary",
    "artifact_key",
    "dump_artifact",
    "load_artifact",
    "configure_artifact_library",
    "active_artifact_library",
    "write_atomically",
]


class ArtifactError(StoreError):
    """An artifact file is missing, torn, corrupt, or version-mismatched."""


#: Library directory manifest tag; bump on incompatible layout changes.
LIBRARY_FORMAT = "repro.artifact-library/v1"

#: Human-readable tag of the binary artifact format (documentation and
#: manifest only; the binary header carries the integer version).
ARTIFACT_FORMAT = "repro.topology-artifact/v4"

#: Binary format version stamped into (and checked against) every header.
#: Bump whenever the byte layout changes; old files then fail validation
#: and are recompiled/republished (``gc`` removes them).  v2 appended the
#: seven character-kernel tables and the ``kernel_codes`` dimension; v3
#: appended ``char_trans``, the automaton's transition-row tensor; v4 drops
#: all eight kernel tables and the census/``kernel_codes`` fields again —
#: the kernel is a function of ``delta`` alone, rebuilt once per process.
ARTIFACT_FORMAT_VERSION = 4

#: First 8 bytes of every artifact file.
ARTIFACT_MAGIC = b"RPROTOPO"

#: File name suffix of artifact objects.
ARTIFACT_SUFFIX = ".rtopo"

#: Hex chars of the key used as the fan-out subdirectory (256 buckets).
_SHARD_PREFIX = 2

#: Header layout, little-endian (96 bytes; see docs/FORMATS.md):
#: magic, format version, compiler version, num_nodes, delta, stride,
#: six table lengths in int64 elements, payload crc32, header crc32.
_HEADER = struct.Struct("<8sII3Q6QII")

#: Table order inside the payload (and of the six length fields).
_TABLES = TABLE_NAMES


def _le_bytes(table) -> bytes:
    """A table's elements as little-endian int64 bytes (host-independent)."""
    arr = table if isinstance(table, array) else array("q", table)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        arr = array("q", arr)
        arr.byteswap()
    return arr.tobytes()


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def artifact_key(graph: PortGraph) -> str:
    """The canonical content-address of ``graph``'s compiled artifact.

    SHA-256 over (format version, compiler version, num_nodes, delta,
    sorted wire set) — the graph *spec*, not the compiled tables, so the
    key is computable without compiling, and two equal wirings share one
    artifact however they were built.  Version tags join the hash, so a
    compiler or layout bump changes every key instead of colliding with
    stale files.
    """
    h = hashlib.sha256()
    h.update(ARTIFACT_MAGIC)
    spec = array(
        "q",
        [
            ARTIFACT_FORMAT_VERSION,
            COMPILER_VERSION,
            graph.num_nodes,
            graph.delta,
        ],
    )
    wires = array("q")
    for wire in sorted(graph.wires()):
        wires.extend(wire)
    h.update(_le_bytes(spec))
    h.update(_le_bytes(wires))
    return h.hexdigest()


# ----------------------------------------------------------------------
# binary (de)serialization
# ----------------------------------------------------------------------
def dump_artifact(topo: CompiledTopology) -> bytes:
    """Serialize compiled tables to the artifact binary format.

    Little-endian regardless of host; the payload is the six tables
    concatenated as raw int64s, the header records their element counts
    and a crc32 of the payload, and the header itself ends with a crc32
    over its own preceding bytes — so truncation or corruption anywhere
    is detected before a single table element is trusted.
    """
    if topo.pristine is not None:
        raise ArtifactError(
            "refusing to serialize a mutable fork; publish the shared artifact"
        )
    payload = b"".join(_le_bytes(getattr(topo, name)) for name in _TABLES)
    head = _HEADER.pack(
        ARTIFACT_MAGIC,
        ARTIFACT_FORMAT_VERSION,
        COMPILER_VERSION,
        topo.num_nodes,
        topo.delta,
        topo.stride,
        *(len(getattr(topo, name)) for name in _TABLES),
        zlib.crc32(payload),
        0,
    )
    head = head[:-4] + struct.pack("<I", zlib.crc32(head[:-4]))
    return head + payload


def _parse_header(buf, size: int, where: str) -> tuple[list[int], dict[str, int]]:
    """Validate an artifact header; returns (table lengths, dimensions)."""
    if size < _HEADER.size:
        raise ArtifactError(f"{where}: truncated header ({size} bytes)")
    fields = _HEADER.unpack_from(buf, 0)
    magic, fmt_version, compiler = fields[0], fields[1], fields[2]
    if magic != ARTIFACT_MAGIC:
        raise ArtifactError(f"{where}: not a topology artifact (bad magic)")
    # The format version lives at a fixed offset in every layout revision,
    # so it is checked *before* the header crc (whose position is
    # layout-dependent): a v1–v3 file reports a clean version mismatch
    # instead of a spurious checksum error.
    if fmt_version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"{where}: format version {fmt_version} != {ARTIFACT_FORMAT_VERSION}"
        )
    header_crc = fields[-1]
    if zlib.crc32(bytes(buf[: _HEADER.size - 4])) != header_crc:
        raise ArtifactError(f"{where}: header checksum mismatch")
    if compiler != COMPILER_VERSION:
        raise ArtifactError(
            f"{where}: compiler version {compiler} != {COMPILER_VERSION}"
        )
    num_nodes, delta, stride = fields[3:6]
    lengths = list(fields[6:12])
    if delta < 2 or stride != delta + 1 or num_nodes < 1:
        raise ArtifactError(f"{where}: implausible dimensions in header")
    expected = [
        num_nodes * stride,
        num_nodes * stride,
        num_nodes + 1,
        lengths[3],
        num_nodes + 1,
        lengths[5],
    ]
    if (
        lengths != expected
        or lengths[3] > num_nodes * delta
        or lengths[5] > num_nodes * delta
    ):
        raise ArtifactError(f"{where}: table lengths inconsistent with dimensions")
    if size != _HEADER.size + 8 * sum(lengths):
        raise ArtifactError(
            f"{where}: file is {size} bytes, header promises "
            f"{_HEADER.size + 8 * sum(lengths)} (torn write?)"
        )
    payload_crc = fields[12]
    if zlib.crc32(bytes(buf[_HEADER.size:])) != payload_crc:
        raise ArtifactError(f"{where}: payload checksum mismatch")
    return lengths, {"num_nodes": num_nodes, "delta": delta, "stride": stride}


def load_artifact(path: str | os.PathLike) -> CompiledTopology:
    """mmap an artifact file into a shared read-only :class:`CompiledTopology`.

    The six tables come back as zero-copy ``memoryview``\\ s cast to
    int64 over the mapping, so every process that loads the same file
    shares one physical copy via the page cache; nothing is materialized
    until a dynamic engine :meth:`~CompiledTopology.fork`\\ s the two wire
    tables.  Validation (magic, versions, both checksums, length
    consistency) runs before any table is handed out; any failure raises
    :class:`ArtifactError` and callers treat the file as a cache miss.

    On big-endian hosts the mapping cannot be aliased as native int64;
    the loader falls back to a byteswapped in-memory copy (same values,
    no sharing) so the format stays portable.
    """
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0:
            raise ArtifactError(f"{path.name}: empty artifact file")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        lengths, dims = _parse_header(mapped, size, path.name)
    except ArtifactError:
        mapped.close()
        raise
    tables: dict[str, object] = {}
    offset = _HEADER.size
    view = memoryview(mapped)
    for name, count in zip(_TABLES, lengths):
        raw = view[offset : offset + 8 * count]
        offset += 8 * count
        if sys.byteorder == "little":
            tables[name] = raw.cast("q")
        else:  # pragma: no cover - big-endian hosts
            arr = array("q")
            arr.frombytes(raw)
            arr.byteswap()
            tables[name] = arr
    assert offset == size
    topo = CompiledTopology(**dims, **tables)
    # The memoryviews pin the mmap open for as long as the topology lives;
    # keep an explicit reference anyway so the provenance is inspectable
    # (tests assert on it) and the mapping is never closed under the views.
    object.__setattr__(topo, "_mmap", mapped)
    return topo


def write_atomically(path: Path, data: bytes, prefix: str) -> None:
    """Put ``data`` at ``path`` so readers see the old file or the new one.

    The bytes are written to a temp file (named ``prefix`` + random +
    ``.tmp``) in the destination directory, fsynced, then
    :func:`os.replace`\\ d over the final name — never a torn file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# the library
# ----------------------------------------------------------------------
class ArtifactInfo:
    """One artifact file's stats, as reported by :meth:`ArtifactLibrary.entries`."""

    __slots__ = ("key", "path", "size", "mtime", "error")

    def __init__(
        self, key: str, path: Path, size: int, mtime: float, error: str | None
    ):
        self.key = key
        self.path = path
        self.size = size
        self.mtime = mtime
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None


class ArtifactLibrary:
    """A directory of content-addressed compiled-topology artifacts.

    Layout::

        DIR/
          MANIFEST.json                 # library format tag, written once
          objects/ab/<sha256-key>.rtopo # artifacts, fanned out by prefix

    Publishes are atomic (temp file + fsync + ``os.replace``), loads are
    mmap-backed and validated, and every operation is safe under
    concurrent publishers and readers — the worst outcome of a race is
    one redundant compile whose identical bytes replace the file.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._init_layout()
        #: observability counters (per-process, not persisted)
        self.loads = 0
        self.load_failures = 0
        self.publishes = 0

    def _init_layout(self) -> None:
        manifest_path = self.root / "MANIFEST.json"
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise StoreError(f"unreadable manifest {manifest_path}: {exc}") from exc
            if manifest.get("format") != LIBRARY_FORMAT:
                raise StoreError(
                    f"{self.root} is not a {LIBRARY_FORMAT} library "
                    f"(found {manifest.get('format')!r})"
                )
            return
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"library path {self.root} exists and is not a directory")
        self._objects.mkdir(parents=True, exist_ok=True)
        manifest = {"format": LIBRARY_FORMAT, "artifact_format": ARTIFACT_FORMAT}
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    # -- addressing ------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self._objects / key[:_SHARD_PREFIX] / f"{key}{ARTIFACT_SUFFIX}"

    def __contains__(self, item: PortGraph | str) -> bool:
        key = item if isinstance(item, str) else artifact_key(item)
        return self.path_for(key).exists()

    # -- reads -----------------------------------------------------------
    def load(self, graph: PortGraph) -> CompiledTopology | None:
        """The mmap-backed artifact for ``graph``, or ``None`` on a miss.

        A file that exists but fails validation (torn write from a killed
        publisher, stale version, corruption) counts as a miss: the
        caller recompiles and republishes, and the replacement heals the
        library.  The broken file is deliberately left in place rather
        than unlinked — a concurrent publisher may already have replaced
        it with a good one by the time we could delete it.
        """
        path = self.path_for(artifact_key(graph))
        try:
            topo = load_artifact(path)
        except FileNotFoundError:
            return None
        except (ArtifactError, OSError, ValueError):
            self.load_failures += 1
            return None
        if topo.num_nodes != graph.num_nodes or topo.delta != graph.delta:
            # key collision cannot happen; a mismatched file means the
            # directory was tampered with — treat as corrupt
            self.load_failures += 1
            return None
        self.loads += 1
        return topo

    # -- writes ----------------------------------------------------------
    def publish(self, graph: PortGraph, topo: CompiledTopology) -> str:
        """Write ``topo`` under ``graph``'s key; returns the key.

        Atomic rename-into-place: the bytes are written to a temp file in
        the destination directory, fsynced, then :func:`os.replace`\\ d
        over the final name, so a concurrent reader observes either the
        previous complete artifact or this one — never a torn file.
        """
        key = artifact_key(graph)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomically(path, dump_artifact(topo.pristine or topo), f".{key[:8]}.")
        self.publishes += 1
        return key

    def ensure(self, graph: PortGraph) -> tuple[str, bool]:
        """Make sure ``graph``'s artifact exists; ``(key, published)``.

        A presence check only — the fast path for campaign prewarming is
        one ``stat`` per wiring; nothing is loaded or validated here (a
        torn file is healed lazily by the first loader's republish).
        """
        key = artifact_key(graph)
        if self.path_for(key).exists():
            return key, False
        self.publish(graph, compile_topology(graph))
        return key, True

    # -- maintenance -----------------------------------------------------
    def entries(self, *, validate: bool = False) -> list[ArtifactInfo]:
        """Every artifact file, optionally fully validated, sorted by key."""
        out = []
        for path in sorted(self._objects.glob(f"*/*{ARTIFACT_SUFFIX}")):
            stat = path.stat()
            error = None
            if validate:
                try:
                    load_artifact(path)
                except ArtifactError as exc:
                    error = str(exc)
            out.append(
                ArtifactInfo(path.stem, path, stat.st_size, stat.st_mtime, error)
            )
        return out

    def stats(self) -> dict:
        """Record count and total bytes (cheap; no validation)."""
        entries = self.entries()
        return {
            "artifacts": len(entries),
            "bytes": sum(e.size for e in entries),
            "root": str(self.root),
        }

    def gc(self, *, max_bytes: int | None = None) -> list[ArtifactInfo]:
        """Remove invalid artifacts, then evict to a byte budget; returns removed.

        Invalid files (torn writes, stale compiler/format versions,
        corruption) are always removed — they can never be loaded again
        and a future publish would replace them anyway.  With
        ``max_bytes``, remaining artifacts are evicted oldest-mtime-first
        until the library fits the budget (publishes refresh mtime, so
        this approximates LRU at fleet scale).
        """
        removed = []
        survivors = []
        for entry in self.entries(validate=True):
            if not entry.ok:
                entry.path.unlink(missing_ok=True)
                removed.append(entry)
            else:
                survivors.append(entry)
        if max_bytes is not None:
            total = sum(e.size for e in survivors)
            for entry in sorted(survivors, key=lambda e: e.mtime):
                if total <= max_bytes:
                    break
                entry.path.unlink(missing_ok=True)
                removed.append(entry)
                total -= entry.size
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._objects.glob(f"*/*{ARTIFACT_SUFFIX}"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArtifactLibrary({str(self.root)!r})"


# ----------------------------------------------------------------------
# process-wide configuration
# ----------------------------------------------------------------------
#: The configured library (``None`` = unset; resolution may still find
#: one through the ``REPRO_ARTIFACTS`` environment variable).
_CONFIGURED: ArtifactLibrary | None = None


def configure_artifact_library(
    library: ArtifactLibrary | str | os.PathLike | None,
) -> ArtifactLibrary | None:
    """Install (or, with ``None``, remove) the process-wide artifact library.

    Once configured, :func:`repro.topology.compile.compiled_topology`
    reads through it on every in-memory cache miss and publishes every
    fresh compile back to it.  Campaign workers call this from their pool
    initializer so every process of a fleet shares one library; the
    ``REPRO_ARTIFACTS`` environment variable configures it implicitly for
    processes that never call this (the CLI, subprocess tests).
    """
    global _CONFIGURED
    if library is not None and not isinstance(library, ArtifactLibrary):
        library = ArtifactLibrary(library)
    _CONFIGURED = library
    _set_artifact_library(library)
    return library


def active_artifact_library() -> ArtifactLibrary | None:
    """The library in effect: explicit configuration, else ``REPRO_ARTIFACTS``."""
    if _CONFIGURED is not None:
        return _CONFIGURED
    path = os.environ.get("REPRO_ARTIFACTS")
    if path:
        return configure_artifact_library(path)
    return None
