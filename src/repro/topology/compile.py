"""Lower a frozen :class:`PortGraph` into flat integer tables.

The object engine resolves every emission through ``dict`` lookups on
per-node ``{out_port: Wire}`` maps.  For the flat-core backend
(:mod:`repro.sim.flatcore`) the wiring is compiled **once per run** into
dense ``array('q')`` tables, so the hot loop resolves a wire with two
integer indexings and no hashing:

* ``wire_dst`` / ``wire_in_port`` — port-indexed tables of length
  ``num_nodes * (delta + 1)``.  Slot ``node * stride + out_port`` holds the
  destination node and its in-port, or ``-1`` for an unconnected out-port
  (port 0 is unused; keeping it makes the slot arithmetic a single
  multiply-add).
* ``out_start`` / ``out_ports`` — a CSR pair: node ``u``'s connected
  out-ports are ``out_ports[out_start[u]:out_start[u+1]]``, ascending.
  ``in_start`` / ``in_ports`` is the same for in-ports.

The compilation is a pure function of the frozen graph.  For *static* runs
the compiled form never mutates — which is why it is also **cached**, in
two tiers.  :func:`compiled_topology` keeps one compiled artifact per
wiring (process-wide, LRU-bounded), so every engine built over the same
frozen graph shares a single set of tables instead of re-lowering them.
Below the in-memory tier sits the optional **on-disk artifact library**
(:mod:`repro.store.artifacts`): when one is configured — explicitly, via a
campaign ``artifacts=`` argument, or through the ``REPRO_ARTIFACTS``
environment variable — a cache miss first tries an ``mmap`` load of the
serialized tables (zero-copy ``memoryview`` rows shared across processes
through the page cache), and only compiles on a true library miss, at
which point the fresh compile is atomically published back.  A cold
process with a warm library therefore reaches the hot loop without ever
invoking :func:`compile_topology` (``compile_calls()`` counts invocations
so tests can assert exactly that).  Anything that must mutate the tables
(the dynamic engines) takes a private copy-on-write view first via
:meth:`CompiledTopology.fork`: the two wire tables are copied (they are
what a patch touches) — materializing them to mutable ``array('q')`` even
when the base rows live on a read-only mapping — the CSR port census is
shared (and for mmap-backed artifacts never leaves the mapping), and the
fork remembers the :attr:`~CompiledTopology.pristine` original so undo
records need no extra copies.

Dynamic runs patch their fork **incrementally** through a
:class:`TopologyPatcher`: a cut stamps the :data:`CUT` sentinel into the
wire tables, a heal or an add rewires the slot in place, and the patcher
keeps a free-list of touched slots plus pristine base values, so any slot
can be restored in O(1) and the whole topology reset in O(touched).  The
CSR port census (``out_start``/``out_ports``/``in_start``/``in_ports``) is
deliberately **not** patched: it feeds the processors'
:class:`~repro.sim.engine.NodeContext` and the engine's per-node sinks,
i.e. it models *port awareness established at power-on* — exactly the
knowledge the paper says processors keep when the physical wiring changes
under them.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.errors import SimulationError
from repro.topology.portgraph import PortGraph

__all__ = [
    "UNWIRED",
    "CUT",
    "COMPILER_VERSION",
    "TABLE_NAMES",
    "CompiledTopology",
    "TopologyPatcher",
    "compile_topology",
    "compiled_topology",
    "clear_compiled_cache",
    "compile_calls",
]

#: Version tag of the lowering itself.  Part of every on-disk artifact
#: key and header: bump it whenever :func:`compile_topology` changes the
#: *meaning* of the emitted tables (new sentinel values, different CSR
#: ordering, …) so previously published artifacts miss instead of being
#: served with stale semantics.
COMPILER_VERSION = 1

#: The six dense tables every :class:`CompiledTopology` carries, in
#: canonical order — the order they are serialized in on disk.  They lower
#: the *wiring* only: the character kernel is a pure function of ``delta``
#: (:func:`repro.sim.characters.kernel_for`), built once per process per
#: degree bound and never part of a topology artifact.
TABLE_NAMES = (
    "wire_dst",
    "wire_in_port",
    "out_start",
    "out_ports",
    "in_start",
    "in_ports",
)

#: ``wire_dst`` value of an out-port that never carried a wire.  Emitting
#: through it is a simulation bug (the processor cannot know the port).
UNWIRED = -1

#: ``wire_dst`` value of an out-port whose wire has been cut mid-run.  The
#: processor still believes the port is connected — emissions through it
#: are *modeled* as lost characters, not rejected as bugs.
CUT = -2


@dataclass(frozen=True, eq=False)
class CompiledTopology:
    """A frozen :class:`PortGraph` as dense integer tables.

    The dataclass is frozen and compares/hashes by identity (``eq=False``),
    which is exactly what the process-wide cache needs: one artifact per
    wiring, usable as a dict key, never rebound.  Instances handed out by
    :func:`compiled_topology` are **shared** and must be treated as
    read-only; a caller that needs to patch the tables (the dynamic
    engines) takes a private view with :meth:`fork` first.
    """

    num_nodes: int
    delta: int
    stride: int                # slot(node, out_port) = node * stride + out_port
    wire_dst: array            # slot -> destination node, -1 if unconnected
    wire_in_port: array        # slot -> destination in-port, -1 if unconnected
    out_start: array           # CSR offsets into out_ports, length num_nodes + 1
    out_ports: array           # concatenated connected out-ports, ascending per node
    in_start: array            # CSR offsets into in_ports, length num_nodes + 1
    in_ports: array            # concatenated connected in-ports, ascending per node
    #: the shared artifact this view was forked from (``None`` on originals).
    #: A fork's pristine tables double as the patcher's undo record.
    pristine: "CompiledTopology | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # Derived read-only tables, computed lazily and memoized per shared
        # artifact.  The dataclass is frozen, so the cache dict is installed
        # through object.__setattr__; it never appears in repr/fields.
        object.__setattr__(self, "_derived", {})

    def shifted_in_ports(self, shift: int) -> list[int]:
        """``wire_in_port`` pre-shifted for packed-entry composition.

        Slot ``s`` holds ``in_port << shift`` for a wired slot and ``-1``
        otherwise — exactly the table the flat backends index per hop.  The
        list is computed once per (artifact, shift) and **shared**: static
        engines may alias it directly, mutating engines must take a
        ``list(...)`` copy first.  Forks delegate to their pristine
        original, so every engine over one wiring shares one table.
        """
        base = self.pristine if self.pristine is not None else self
        if base is not self:
            return base.shifted_in_ports(shift)
        derived: dict = self._derived  # type: ignore[attr-defined]
        key = ("in_shift", shift)
        table = derived.get(key)
        if table is None:
            table = derived[key] = [
                (p << shift) if p >= 0 else -1 for p in self.wire_in_port
            ]
        return table

    def fork(self) -> "CompiledTopology":
        """A private copy-on-write view for callers that patch the tables.

        Only the two wire tables are copied (a patch never touches the CSR
        port census, which models power-on port awareness); the fork keeps
        a reference to the pristine original so a :class:`TopologyPatcher`
        can restore slots without copying the base tables again.
        """
        base = self.pristine if self.pristine is not None else self
        return replace(
            base,
            wire_dst=array("q", base.wire_dst),
            wire_in_port=array("q", base.wire_in_port),
            pristine=base,
        )

    # ------------------------------------------------------------------
    # conveniences (cold paths only; the hot loop indexes the arrays)
    # ------------------------------------------------------------------
    def dst_of(self, node: int, out_port: int) -> tuple[int, int] | None:
        """``(dst, in_port)`` for a wired out-port, else ``None``."""
        slot = node * self.stride + out_port
        dst = self.wire_dst[slot]
        if dst < 0:
            return None
        return dst, self.wire_in_port[slot]

    def out_ports_of(self, node: int) -> tuple[int, ...]:
        """Connected out-ports of ``node``, ascending (CSR slice)."""
        return tuple(self.out_ports[self.out_start[node]:self.out_start[node + 1]])

    def in_ports_of(self, node: int) -> tuple[int, ...]:
        """Connected in-ports of ``node``, ascending (CSR slice)."""
        return tuple(self.in_ports[self.in_start[node]:self.in_start[node + 1]])


class TopologyPatcher:
    """Incremental, reversible edits to a :class:`CompiledTopology`.

    Owns the mutation story of the compiled tables: every edit goes through
    :meth:`cut` / :meth:`attach`, which stamp the slot and remember it in
    :attr:`touched` — the free-list of slots that differ from the pristine
    compile.  :meth:`restore` puts one slot back; a slot whose re-attached
    wire equals its base wire drops off the free-list automatically, so
    ``touched`` is always exactly the set of degraded slots (the flat
    dynamic engine keys its per-node fast-path toggling off it).
    """

    def __init__(self, topo: CompiledTopology) -> None:
        if not isinstance(topo.wire_dst, array):
            # mmap-backed artifacts expose read-only memoryview tables; the
            # dynamic engines must fork() before patching (they all do —
            # hitting this means a caller skipped the copy-on-write step).
            raise SimulationError(
                "cannot patch a read-only (mmap-backed) topology; fork() it first"
            )
        self.topo = topo
        # The undo record every restore reads from.  A fork already carries
        # its pristine original (same values, never mutated), so its tables
        # serve as the base without another copy; a directly-compiled
        # topology gets defensive copies, as before.
        if topo.pristine is not None:
            self._base_dst = topo.pristine.wire_dst
            self._base_in = topo.pristine.wire_in_port
        else:
            self._base_dst = array("q", topo.wire_dst)
            self._base_in = array("q", topo.wire_in_port)
        #: slots currently differing from the pristine compile
        self.touched: set[int] = set()

    def slot(self, node: int, out_port: int) -> int:
        return node * self.topo.stride + out_port

    def cut(self, slot: int) -> None:
        """Stamp ``slot`` as cut: emissions lose their character."""
        self.topo.wire_dst[slot] = CUT
        self.topo.wire_in_port[slot] = CUT
        self.touched.add(slot)

    def attach(self, slot: int, dst: int, in_port: int) -> None:
        """Wire ``slot`` to ``(dst, in_port)`` (a heal or an addition)."""
        self.topo.wire_dst[slot] = dst
        self.topo.wire_in_port[slot] = in_port
        if self._base_dst[slot] == dst and self._base_in[slot] == in_port:
            self.touched.discard(slot)  # healed back to the base wiring
        else:
            self.touched.add(slot)

    def restore(self, slot: int) -> None:
        """Put ``slot`` back to its pristine compiled value."""
        self.topo.wire_dst[slot] = self._base_dst[slot]
        self.topo.wire_in_port[slot] = self._base_in[slot]
        self.touched.discard(slot)

    def reset(self) -> None:
        """Restore every touched slot (O(touched), via the free-list)."""
        for slot in list(self.touched):
            self.restore(slot)

    def is_pristine(self, slot: int) -> bool:
        return slot not in self.touched


def compile_topology(graph: PortGraph) -> CompiledTopology:
    """Compile a frozen graph into :class:`CompiledTopology` tables."""
    global _COMPILE_CALLS
    if not graph.frozen:
        raise SimulationError("can only compile a frozen PortGraph")
    _COMPILE_CALLS += 1
    n = graph.num_nodes
    delta = graph.delta
    stride = delta + 1
    wire_dst = array("q", [-1]) * (n * stride)
    wire_in_port = array("q", [-1]) * (n * stride)
    for wire in graph.wires():
        slot = wire.src * stride + wire.out_port
        wire_dst[slot] = wire.dst
        wire_in_port[slot] = wire.in_port

    out_start = array("q", [0]) * (n + 1)
    in_start = array("q", [0]) * (n + 1)
    out_ports = array("q")
    in_ports = array("q")
    for node in range(n):
        out_ports.extend(graph.connected_out_ports(node))
        in_ports.extend(graph.connected_in_ports(node))
        out_start[node + 1] = len(out_ports)
        in_start[node + 1] = len(in_ports)

    return CompiledTopology(
        num_nodes=n,
        delta=delta,
        stride=stride,
        wire_dst=wire_dst,
        wire_in_port=wire_in_port,
        out_start=out_start,
        out_ports=out_ports,
        in_start=in_start,
        in_ports=in_ports,
    )


# ----------------------------------------------------------------------
# the process-wide compiled-artifact cache
# ----------------------------------------------------------------------
#: wiring -> compiled artifact, most-recently-used last.  Keyed by the
#: :class:`PortGraph` itself: frozen graphs hash/compare structurally
#: (size, degree bound, exact wire set), so two equal wirings — however
#: they were built — share one compiled artifact.
_COMPILED_CACHE: "OrderedDict[PortGraph, CompiledTopology]" = OrderedDict()

#: Cache bound.  An entry is a few dense ``array('q')`` rows (O(N * delta)
#: ints), so even the cap costs at most a few MB; eviction is LRU.
_COMPILED_CACHE_MAX = 128

#: Times :func:`compile_topology` has actually run in this process.  The
#: artifact-library cold-start contract is asserted against this: a warm
#: library must serve every wiring without a single compile.
_COMPILE_CALLS = 0

#: The on-disk artifact library below the in-memory cache.  ``compile.py``
#: never imports :mod:`repro.store.artifacts` (that module imports *us*);
#: instead the library registers itself here via :func:`_set_artifact_library`
#: when configured, and :func:`_resolve_library` lazily triggers the
#: env-var (``REPRO_ARTIFACTS``) resolution exactly once.
_LIBRARY = None
_LIBRARY_RESOLVED = False


def _set_artifact_library(library) -> None:
    """Install the on-disk tier (called by ``repro.store.artifacts`` only)."""
    global _LIBRARY, _LIBRARY_RESOLVED
    _LIBRARY = library
    _LIBRARY_RESOLVED = True


def _resolve_library():
    """The active on-disk library, resolving ``REPRO_ARTIFACTS`` lazily."""
    if not _LIBRARY_RESOLVED:
        _set_artifact_library(None)  # break recursion if resolution re-enters
        import os

        if os.environ.get("REPRO_ARTIFACTS"):
            from repro.store.artifacts import active_artifact_library

            _set_artifact_library(active_artifact_library())
    return _LIBRARY


def compile_calls() -> int:
    """How many real compiles this process has performed (cache misses)."""
    return _COMPILE_CALLS


def compiled_topology(graph: PortGraph) -> CompiledTopology:
    """The shared compiled artifact for ``graph`` (compile once per wiring).

    Returns the same :class:`CompiledTopology` instance for every frozen
    graph with the same wiring.  Resolution order: in-memory LRU → mmap
    artifact library (when configured) → :func:`compile_topology`, with a
    fresh compile atomically published back to the library so the next
    process mmap-loads it instead.  The shared instance is read-only by
    contract — mutating callers must :meth:`~CompiledTopology.fork` it
    first (the dynamic engines do).
    """
    cache = _COMPILED_CACHE
    topo = cache.get(graph)
    if topo is not None:
        cache.move_to_end(graph)
        return topo
    library = _resolve_library()
    if library is not None:
        topo = library.load(graph)
    if topo is None:
        topo = compile_topology(graph)
        if library is not None:
            library.publish(graph, topo)
    cache[graph] = topo
    if len(cache) > _COMPILED_CACHE_MAX:
        cache.popitem(last=False)
    return topo


def clear_compiled_cache() -> None:
    """Drop every cached compiled artifact (tests, cold-cache baselines)."""
    _COMPILED_CACHE.clear()
