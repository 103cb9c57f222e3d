"""The on-disk compiled-artifact library (:mod:`repro.store.artifacts`).

Covers the tentpole contracts end to end: byte-identical round trips
(compile → publish → mmap-load → identical tables *and* identical
protocol transcripts), torn/truncated-file recovery, version-mismatch
rejection, the migration of libraries written in the retired v1–v3
layouts, concurrent publisher races, copy-on-write forking over
read-only mappings, GC, the campaign/CLI threading, and the cold-start
guarantee itself — a fresh subprocess with a warm library reaches its
first simulation hop with zero compiler invocations.  Artifacts carry the
wiring only: compiling, publishing and loading never builds a character
kernel.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import struct
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec, run_campaign
from repro.campaigns.executor import clear_scenario_caches, shutdown_worker_pool
from repro.campaigns.spec import build_family
from repro.cli import main
from repro.errors import SimulationError, StoreError
from repro.protocol.runner import determine_topology
from repro.sim import characters
from repro.store.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ARTIFACT_MAGIC,
    _HEADER,
    ArtifactError,
    ArtifactLibrary,
    artifact_key,
    configure_artifact_library,
    dump_artifact,
    load_artifact,
)
from repro.topology.compile import (
    COMPILER_VERSION,
    TABLE_NAMES,
    TopologyPatcher,
    clear_compiled_cache,
    compile_calls,
    compile_topology,
    compiled_topology,
)


@pytest.fixture(autouse=True)
def _isolated_library():
    """Every test starts and ends with no configured library and cold caches."""
    configure_artifact_library(None)
    clear_scenario_caches()
    yield
    configure_artifact_library(None)
    clear_scenario_caches()


@pytest.fixture
def library(tmp_path) -> ArtifactLibrary:
    return ArtifactLibrary(tmp_path / "artifacts")


def _graph(family: str = "de-bruijn", size: int = 8, seed: int = 0):
    return build_family(family, size, seed)


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_tables_byte_identical(self, library):
        graph = _graph()
        topo = compile_topology(graph)
        library.publish(graph, topo)
        loaded = library.load(graph)
        assert loaded is not None
        for name in TABLE_NAMES:
            assert list(getattr(loaded, name)) == list(getattr(topo, name)), name
        assert (loaded.num_nodes, loaded.delta, loaded.stride) == (
            topo.num_nodes,
            topo.delta,
            topo.stride,
        )

    def test_loaded_tables_are_zero_copy_views(self, library):
        graph = _graph()
        library.ensure(graph)
        loaded = library.load(graph)
        assert isinstance(loaded.wire_dst, memoryview)
        assert loaded.wire_dst.format == "q"
        assert not isinstance(loaded.out_ports, array)
        # provenance: the mmap is pinned on the object
        assert hasattr(loaded, "_mmap")

    @pytest.mark.parametrize("family,size", [("directed-ring", 5), ("spare-ring", 7)])
    def test_transcripts_identical_over_mmap(self, library, family, size):
        graph = _graph(family, size)
        reference = list(determine_topology(graph, backend="flat").transcript)
        library.ensure(graph)
        clear_scenario_caches()
        configure_artifact_library(library)
        before = compile_calls()
        result = determine_topology(graph, backend="flat")
        assert list(result.transcript) == reference
        assert compile_calls() == before  # served from mmap, never compiled
        assert result.matches(graph)

    def test_dynamic_run_over_mmap_matches(self, library):
        """Fork + patch over a read-only mapping equals the in-memory run."""
        from repro.dynamics.experiment import run_dynamic_gtd
        from repro.dynamics.engine import WireMutation
        from repro.topology.faults import pick_cut_victim
        from repro.util.rng import make_rng

        graph = _graph("bidirectional-ring", 6)
        baseline = determine_topology(graph, backend="flat")
        wire = pick_cut_victim(graph, make_rng(7))
        ops = [WireMutation(tick=baseline.ticks // 2, kind="cut", wire=wire)]
        budget = baseline.ticks * 3 + 1000
        reference = run_dynamic_gtd(graph, ops, max_ticks=budget, backend="flat")

        library.ensure(graph)
        clear_scenario_caches()
        configure_artifact_library(library)
        got = run_dynamic_gtd(graph, ops, max_ticks=budget, backend="flat")
        assert (got.outcome, got.ticks, got.lost_characters) == (
            reference.outcome,
            reference.ticks,
            reference.lost_characters,
        )

    def test_key_is_stable_and_spec_sensitive(self):
        a = artifact_key(_graph("de-bruijn", 8))
        assert a == artifact_key(_graph("de-bruijn", 8))
        assert a != artifact_key(_graph("de-bruijn", 16))
        assert a != artifact_key(_graph("directed-ring", 8))

    def test_compiled_topology_publishes_on_miss(self, library):
        graph = _graph("directed-ring", 9)
        configure_artifact_library(library)
        assert graph not in library
        compiled_topology(graph)
        assert graph in library
        # a fresh in-memory cache now loads instead of compiling
        clear_compiled_cache()
        before = compile_calls()
        topo = compiled_topology(graph)
        assert compile_calls() == before
        assert isinstance(topo.wire_dst, memoryview)


# ----------------------------------------------------------------------
# corruption, truncation, versioning
# ----------------------------------------------------------------------
class TestValidation:
    def _published(self, library) -> Path:
        graph = _graph("directed-ring", 6)
        key, _ = library.ensure(graph)
        return library.path_for(key)

    def test_truncated_header_rejected(self, library):
        path = self._published(library)
        blob = path.read_bytes()
        path.write_bytes(blob[:40])
        with pytest.raises(ArtifactError, match="truncated"):
            load_artifact(path)

    def test_truncated_payload_is_a_miss_not_a_crash(self, library):
        graph = _graph("directed-ring", 6)
        path = self._published(library)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])  # torn mid-payload
        assert library.load(graph) is None
        assert library.load_failures == 1
        # republish heals the library in place
        library.publish(graph, compile_topology(graph))
        assert library.load(graph) is not None

    def test_flipped_payload_byte_rejected_by_checksum(self, library):
        path = self._published(library)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="payload checksum"):
            load_artifact(path)

    def test_flipped_header_byte_rejected_by_checksum(self, library):
        path = self._published(library)
        blob = bytearray(path.read_bytes())
        blob[12] ^= 0xFF  # inside the compiler-version field
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="header checksum"):
            load_artifact(path)

    def test_version_mismatch_rejected(self, library):
        # rewrite the header with a bumped format version and valid checksums:
        # the version check itself must reject it, not the crc
        path = self._published(library)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, ARTIFACT_FORMAT_VERSION + 1)
        head_size = _HEADER.size
        struct.pack_into(
            "<I", blob, head_size - 4, zlib.crc32(bytes(blob[: head_size - 4]))
        )
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(path)

    def test_bad_magic_rejected(self, library):
        path = self._published(library)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTATOPO"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="bad magic"):
            load_artifact(path)

    def test_empty_file_rejected(self, library):
        path = self._published(library)
        path.write_bytes(b"")
        with pytest.raises(ArtifactError, match="empty"):
            load_artifact(path)

    def test_foreign_directory_rejected(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text('{"format": "something-else"}')
        with pytest.raises(StoreError, match="not a"):
            ArtifactLibrary(tmp_path)

    def test_mutable_fork_refuses_to_serialize(self):
        topo = compile_topology(_graph("directed-ring", 5))
        with pytest.raises(ArtifactError, match="fork"):
            dump_artifact(topo.fork())


# ----------------------------------------------------------------------
# the artifact is the wiring only
# ----------------------------------------------------------------------
class TestWiringOnly:
    def test_compile_publish_load_builds_no_kernel(self, library):
        graph = _graph()
        characters.clear_kernel_cache()
        topo = compile_topology(graph)
        library.publish(graph, topo)
        assert library.load(graph) is not None
        assert characters._KERNELS == {}

    def test_header_and_six_wiring_tables(self, library):
        graph = _graph()
        key, _ = library.ensure(graph)
        topo = compile_topology(graph)
        assert _HEADER.size == 96
        assert len(TABLE_NAMES) == 6
        payload = 8 * sum(len(getattr(topo, name)) for name in TABLE_NAMES)
        assert library.path_for(key).stat().st_size == 96 + payload


# ----------------------------------------------------------------------
# migration from the retired layouts
# ----------------------------------------------------------------------
#: The six wiring tables every layout starts with — written out here so
#: the test does not trust the code under test.
_WIRING = ("wire_dst", "wire_in_port", "out_start", "out_ports", "in_start", "in_ports")

#: version -> header struct.  v2 appended seven kernel tables to the
#: wiring, and v3 appended the transition tensor after them.
_RETIRED = {
    1: struct.Struct("<8sII4Q6QII"),
    2: struct.Struct("<8sII5Q13QII"),
    3: struct.Struct("<8sII5Q14QII"),
}


def _le_bytes(table) -> bytes:
    data = array("q", table)
    if sys.byteorder != "little":  # pragma: no cover
        data.byteswap()
    return data.tobytes()


def _retired_key(graph, version: int) -> str:
    """The content address a format-``version`` library computed."""
    h = hashlib.sha256()
    h.update(ARTIFACT_MAGIC)
    h.update(_le_bytes([version, COMPILER_VERSION, graph.num_nodes, graph.delta]))
    wires = array("q")
    for wire in sorted(graph.wires()):
        wires.extend(wire)
    h.update(_le_bytes(wires))
    return h.hexdigest()


def _dump_retired(graph, version: int) -> bytes:
    """Serialize ``graph`` in the retired format-``version`` layout."""
    header = _RETIRED[version]
    topo = compile_topology(graph)
    kernel = characters.kernel_for(graph.delta)
    tables = [getattr(topo, name) for name in _WIRING]
    if version >= 2:
        # The kernel no longer builds the seven v2 tables, so they are
        # zero stand-ins of their retired lengths: five one-per-code
        # tables, the fill table over delta + 1 in-ports, and the convert
        # table over the six snake families.
        widths = (1, 1, 1, 1, 1, graph.delta + 1, 6)
        tables += [[0] * (kernel.n_codes * width) for width in widths]
    if version >= 3:
        # v3 appended the transition-row tensor: one int64 row per
        # (code, in_port, phase), over max(delta + 3, 2 delta^2 + 1) phases
        d = graph.delta
        tables.append([0] * (kernel.n_codes * (d + 1) * max(d + 3, 2 * d * d + 1)))
    payload = b"".join(_le_bytes(t) for t in tables)
    census = characters.alphabet_size(graph.delta)
    # v1 recorded the census without the blank; v2/v3 added the kernel size
    if version == 1:
        dims = [census - 1]
    else:
        dims = [census, characters.kernel_size(graph.delta)]
    head = header.pack(
        ARTIFACT_MAGIC,
        version,
        COMPILER_VERSION,
        topo.num_nodes,
        topo.delta,
        topo.stride,
        *dims,
        *(len(t) for t in tables),
        zlib.crc32(payload),
        0,
    )
    head = head[:-4] + struct.pack("<I", zlib.crc32(head[:-4]))
    return head + payload


@pytest.mark.parametrize("version", sorted(_RETIRED), ids=lambda v: f"v{v}")
class TestRetiredFormats:
    """A library written by an older release heals on first use."""

    def _library_with(self, library, version):
        graph = _graph()
        old_path = library.path_for(_retired_key(graph, version))
        old_path.parent.mkdir(parents=True, exist_ok=True)
        old_path.write_bytes(_dump_retired(graph, version))
        return graph, old_path

    def test_old_file_is_a_clean_miss(self, library, version):
        graph, _ = self._library_with(library, version)
        # the format version joins the content address, so the old file is
        # simply not found under the current key — a miss, not a failure
        assert artifact_key(graph) != _retired_key(graph, version)
        assert library.load(graph) is None
        assert library.load_failures == 0

    def test_old_bytes_at_current_key_fail_on_version(self, library, version):
        # the version is checked before the layout-dependent header crc
        graph, old_path = self._library_with(library, version)
        path = library.path_for(artifact_key(graph))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(old_path.read_bytes())
        assert library.load(graph) is None
        assert library.load_failures == 1
        with pytest.raises(ArtifactError, match=f"format version {version} "):
            load_artifact(path)

    def test_republish_heals_and_warm_loads_skip_the_compiler(
        self, library, version
    ):
        graph, _ = self._library_with(library, version)
        key, published = library.ensure(graph)
        assert published
        assert key == artifact_key(graph)
        clear_compiled_cache()
        configure_artifact_library(library)
        before = compile_calls()
        topo = compiled_topology(graph)
        assert compile_calls() == before
        assert isinstance(topo.wire_dst, memoryview)

    def test_cli_verify_names_the_version(self, library, version, capsys):
        graph, _ = self._library_with(library, version)
        library.ensure(graph)
        code = main(["store", str(library.root), "--artifacts", "--verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in out
        assert f"format version {version} " in out
        assert "verify: 1 invalid artifact(s)" in out

    def test_gc_removes_the_old_file_keeps_current(self, library, version):
        graph, old_path = self._library_with(library, version)
        library.ensure(graph)
        removed = library.gc()
        assert [e.path for e in removed] == [old_path]
        assert not old_path.exists()
        assert library.load(graph) is not None


# ----------------------------------------------------------------------
# mutation safety over read-only mappings
# ----------------------------------------------------------------------
class TestCopyOnWrite:
    def test_fork_materializes_wire_tables_only(self, library):
        graph = _graph()
        library.ensure(graph)
        loaded = library.load(graph)
        fork = loaded.fork()
        assert isinstance(fork.wire_dst, array)
        assert isinstance(fork.wire_in_port, array)
        # the CSR census never materializes: same shared mapping
        assert fork.out_ports is loaded.out_ports
        assert fork.pristine is loaded

    def test_patcher_refuses_raw_mmap_topology(self, library):
        graph = _graph()
        library.ensure(graph)
        loaded = library.load(graph)
        with pytest.raises(SimulationError, match="read-only"):
            TopologyPatcher(loaded)

    def test_patch_and_reset_on_fork(self, library):
        graph = _graph()
        library.ensure(graph)
        loaded = library.load(graph)
        fork = loaded.fork()
        patcher = TopologyPatcher(fork)
        slot = patcher.slot(1, 1)
        original = (fork.wire_dst[slot], fork.wire_in_port[slot])
        patcher.cut(slot)
        assert fork.wire_dst[slot] != original[0]
        assert loaded.wire_dst[slot] == original[0]  # mapping untouched
        patcher.reset()
        assert (fork.wire_dst[slot], fork.wire_in_port[slot]) == original


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def _publish_worker(args) -> str:
    root, family, size = args
    library = ArtifactLibrary(root)
    graph = build_family(family, size, 0)
    return library.publish(graph, compile_topology(graph))


class TestConcurrency:
    def test_concurrent_publishers_agree(self, tmp_path):
        """N processes racing to publish one wiring leave one valid artifact."""
        root = str(tmp_path / "racelib")
        ArtifactLibrary(root)  # settle the manifest before the race
        with multiprocessing.get_context("fork").Pool(4) as pool:
            keys = pool.map(_publish_worker, [(root, "de-bruijn", 8)] * 8)
        assert len(set(keys)) == 1
        library = ArtifactLibrary(root)
        assert len(library) == 1
        graph = _graph("de-bruijn", 8)
        loaded = library.load(graph)
        reference = compile_topology(graph)
        for name in TABLE_NAMES:
            assert list(getattr(loaded, name)) == list(getattr(reference, name))

    def test_publish_leaves_no_temp_files(self, library):
        library.ensure(_graph("directed-ring", 6))
        leftovers = [
            p
            for p in library.root.rglob("*")
            if p.is_file() and p.suffix not in (".rtopo", ".json")
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# gc and inspection
# ----------------------------------------------------------------------
class TestMaintenance:
    def test_gc_removes_invalid_keeps_valid(self, library):
        good = _graph("directed-ring", 6)
        bad = _graph("directed-ring", 7)
        library.ensure(good)
        bad_key, _ = library.ensure(bad)
        path = library.path_for(bad_key)
        path.write_bytes(path.read_bytes()[:-8])
        removed = library.gc()
        assert [e.key for e in removed] == [bad_key]
        assert good in library
        assert bad not in library or library.load(bad) is None

    def test_gc_byte_budget_evicts_oldest(self, library):
        graphs = [_graph("directed-ring", n) for n in (5, 6, 7)]
        keys = [library.ensure(g)[0] for g in graphs]
        sizes = {e.key: e.size for e in library.entries()}
        os.utime(library.path_for(keys[0]), (1, 1))  # make the first oldest
        budget = sum(sizes.values()) - 1  # must evict exactly one
        removed = library.gc(max_bytes=budget)
        assert [e.key for e in removed] == [keys[0]]
        assert len(library) == 2

    def test_stats_counts_bytes(self, library):
        assert library.stats()["artifacts"] == 0
        library.ensure(_graph("directed-ring", 6))
        stats = library.stats()
        assert stats["artifacts"] == 1
        assert stats["bytes"] > 0


# ----------------------------------------------------------------------
# campaign + CLI threading
# ----------------------------------------------------------------------
def _small_spec() -> CampaignSpec:
    return CampaignSpec(
        families=("directed-ring", "de-bruijn"),
        sizes=(6,),
        faults=("none", "cut:0.4"),
        seeds=(0, 1),
        backends=("flat",),
    )


class TestCampaignThreading:
    def test_run_campaign_with_artifacts_is_value_identical(self, tmp_path):
        spec = _small_spec()
        reference = run_campaign(spec)
        clear_scenario_caches()
        configure_artifact_library(None)
        got = run_campaign(spec, artifacts=tmp_path / "lib")
        assert got.results == reference.results
        assert len(ArtifactLibrary(tmp_path / "lib")) == 2  # one per wiring

    def test_parallel_campaign_with_artifacts(self, tmp_path):
        spec = _small_spec()
        reference = run_campaign(spec)
        clear_scenario_caches()
        configure_artifact_library(None)
        try:
            got = run_campaign(spec, jobs=2, artifacts=tmp_path / "lib")
        finally:
            shutdown_worker_pool()
        assert got.results == reference.results

    def test_cli_campaign_and_store_artifacts(self, tmp_path, capsys):
        lib_dir = str(tmp_path / "artlib")
        assert (
            main(
                [
                    "campaign",
                    "--families",
                    "directed-ring",
                    "--sizes",
                    "6",
                    "--faults",
                    "none",
                    "--artifacts",
                    lib_dir,
                ]
            )
            == 0
        )
        assert main(["store", lib_dir, "--artifacts"]) == 0
        out = capsys.readouterr().out
        assert "artifact library" in out
        assert "1 artifact(s)" in out
        assert main(["store", lib_dir, "--artifacts", "--verify"]) == 0
        # corrupt it: verify now fails, gc repairs, verify passes again
        entry = ArtifactLibrary(lib_dir).entries()[0]
        entry.path.write_bytes(entry.path.read_bytes()[:-8])
        assert main(["store", lib_dir, "--artifacts", "--verify"]) == 1
        assert main(["store", lib_dir, "--artifacts", "--gc"]) == 0
        assert main(["store", lib_dir, "--artifacts", "--verify"]) == 0

    def test_cli_guard_rails(self, tmp_path):
        assert main(["store", str(tmp_path / "nope"), "--artifacts"]) == 2
        # --verify now scans result stores too; a directory that is not a
        # store reports a missing manifest and fails the scan
        assert main(["store", str(tmp_path), "--verify"]) == 1
        assert main(["store", str(tmp_path), "--gc"]) == 2  # still artifacts-only

    def test_cli_refuses_a_plain_directory(self, capsys, tmp_path):
        # inspecting must not create a library in a directory that holds none
        assert main(["store", str(tmp_path), "--artifacts"]) == 2
        assert "no artifact library" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# the cold-start guarantee
# ----------------------------------------------------------------------
_COLD_START_SCRIPT = """\
import sys
from repro.campaigns.spec import build_family
from repro.protocol.runner import determine_topology
from repro.topology.compile import compile_calls

graph = build_family("de-bruijn", 8, 0)
result = determine_topology(graph, backend="flat")
assert result.matches(graph)
assert len(list(result.transcript)) > 0  # the run really simulated hops
sys.stdout.write(str(compile_calls()))
"""


class TestColdStart:
    def test_fresh_process_with_warm_library_never_compiles(self, library):
        """The acceptance criterion: warm library, fresh process, 0 compiles.

        The subprocess knows the library only through ``REPRO_ARTIFACTS``
        (the implicit-resolution path campaign workers and CLIs use), runs
        the full protocol to completion, and reports how often the topology
        compiler actually ran.
        """
        library.ensure(_graph("de-bruijn", 8))
        env = dict(os.environ)
        env["REPRO_ARTIFACTS"] = str(library.root)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0"

    def test_empty_library_compiles_exactly_once(self, library):
        env = dict(os.environ)
        env["REPRO_ARTIFACTS"] = str(library.root)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1"
        # ... and it published: the wiring is now in the library
        assert _graph("de-bruijn", 8) in library
