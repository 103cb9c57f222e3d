"""The compiled flat-core engine backend.

A second, drop-in implementation of the :class:`~repro.sim.engine.Engine`
run surface, selected through the backend registry in :mod:`repro.sim.run`
(``backend="flat"``).  Semantics are tick-exact identical to the object
backend — same delivery order, same transcripts, same metrics, same tick
counts (the differential parity suite enforces it) — but the hot loop runs
on dense integer tables instead of Python object graphs:

* the wiring is lowered once per *wiring* into CSR-style arrays, resolved
  through the two-tier :func:`repro.topology.compile.compiled_topology`
  cache — a process-wide LRU in front of the optional on-disk artifact
  library (:mod:`repro.store.artifacts`), whose ``mmap``-loaded tables
  this engine consumes zero-copy — so an emission resolves its wire with
  two integer indexings instead of a dict lookup, and a warm library
  means no process ever compiles the same wiring twice;
* the character code space is built once per degree bound
  (:class:`~repro.sim.characters.CharKernel`) — every character is a
  small integer code with one canonical :class:`~repro.sim.characters.Char`
  instance, so the wheel stores plain ints and delivery never allocates;
* the event wheel (:class:`PackedEventWheel`) replaces the object wheel's
  per-character tuples with ``array('q')`` lanes of packed 64-bit entries,
  in a fixed ring of 16 tick slots reused in place (every arrival lies
  within 15 ticks of now).  The precomputed kind-priority rides in the
  top bits::

      bit 56..57   in-tick handling priority (KIND_PRIORITY of the code)
      bit 40..55   arrival in-port
      bit 20..39   per-tick sequence number (FIFO tie-break)
      bit  0..19   character code

  so one plain integer sort of a node's lane recovers the deterministic
  in-tick handling order (priority, then in-port, then FIFO) — the exact
  order the object wheel's tuple sort produces;
* per-kind traffic counters become code-indexed flat lists, flushed
  back into the shared :class:`~repro.sim.metrics.TrafficMetrics` shape
  on read;
* one pair of per-node code sinks, ``csend`` / ``cbroadcast`` (wire
  resolve, emission count, packed append), is the only place the engine
  files an entry into the wheel.  Every node has them.  A non-root
  processor that purges only growing characters sends through them at
  send time: code handlers call them directly, and the object ``send`` /
  ``broadcast`` reach them through thin adapters.  Every other character
  rests in its sender's outbox, and the drain files it through the
  sender's ``csend`` at its departure tick.  One helper,
  :meth:`FlatEngine._code_of`, encodes a
  :class:`~repro.sim.characters.Char` for all of them.  Taking entries
  back out — a KILL purging characters that would still rest in their
  sender, or a cut pulling them back to the sender's outbox — is one
  wheel-level lane filter, :meth:`PackedEventWheel.withdraw`.  Each sender keeps a
  send horizon (the latest arrival tick it has filed): a KILL at a
  sender with nothing in flight skips the search, and a search scans
  only the slots up to the horizon;
* one stepping body, :meth:`FlatEngine._burst`, runs a whole stretch of
  busy ticks in one frame: :meth:`~repro.sim.engine.Engine.run` and
  :meth:`~repro.sim.engine.Engine.run_to_idle` call it, and ``step_tick``
  is a one-tick burst.  Its one delivery loop hands each entry to the
  node's code handler for that code; an entry without one takes the
  loop's fallback branch, which records the root's receipt and the
  tracer's delivery and dispatches through the object engine's per-kind
  tables.  A drain runs only when a node has an outbox entry due.

Delivery timing, fast-forward, outbox residence and KILL purge semantics
are the base engine's, tick for tick — this module replaces only the data
plane and the stepping loop beneath the run surface.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator

from repro.errors import SimulationError
from repro.sim.characters import (
    CODE_BITS,
    CODE_MASK,
    PORT_MASK,
    PORT_SHIFT,
    PRIO_SHIFT,
    SEQ_BITS,
    SEQ_SHIFT,
    Char,
    CharKernel,
    kernel_for,
)
from repro.sim.engine import Engine
from repro.sim.metrics import TrafficMetrics
from repro.sim.processor import Processor
from repro.topology.compile import compiled_topology
from repro.topology.portgraph import PortGraph

__all__ = [
    "CODE_BITS",
    "CODE_MASK",
    "SEQ_SHIFT",
    "SEQ_BITS",
    "PORT_SHIFT",
    "PORT_MASK",
    "PRIO_SHIFT",
    "WHEEL_SLOTS",
    "PackedEventWheel",
    "FlatEngine",
]


#: ring size of :class:`PackedEventWheel`: tick ``t`` lives in slot
#: ``t & (WHEEL_SLOTS - 1)``.  A hop takes at most 3 ticks, so every
#: arrival the engine files lies well inside the window ``(now, now + 15]``.
WHEEL_SLOTS = 16
_MASK = WHEEL_SLOTS - 1  # the slot mask, and the window's length in ticks


class _Bucket:
    """One slot's arrivals: per-node packed lanes, reused tick over tick.

    ``tick`` is the tick the slot was last claimed for; the bucket is
    pending exactly while ``nodes`` is non-empty.  The FIFO tie-break
    needs no explicit counter: entries append to one lane in schedule
    order, so ``len(lane)`` at append time *is* the within-lane sequence
    number.
    """

    __slots__ = ("tick", "nodes", "lanes")

    def __init__(self) -> None:
        self.tick = -1
        self.nodes: list[int] = []            # first-touch order, like dict order
        self.lanes: dict[int, array] = {}     # node -> array('q') of packed entries

    def clear(self) -> None:
        # only the touched lanes need clearing: "listed in nodes ⟺ lane
        # non-empty" is the bucket invariant
        lanes = self.lanes
        for node in self.nodes:
            del lanes[node][:]
        self.nodes.clear()


class PackedEventWheel:
    """Timestamp-bucketed delivery queue over packed integer entries.

    Drop-in for the object backend's :class:`~repro.sim.scheduler.EventWheel`
    query surface (``next_tick`` / ``__bool__`` / ``__len__`` /
    ``in_flight``), but ``schedule`` encodes the character through the
    kernel and appends one packed int to the destination node's
    ``array('q')`` lane, and ``pop`` hands the whole bucket back for
    zero-copy delivery.  The buckets live in one fixed ring, ``slots``, of
    :data:`WHEEL_SLOTS` entries: tick ``t`` in slot ``t & 15``.  Filing
    into a slot that holds another tick goes through :meth:`claim`, which
    refuses an arrival outside ``(now, now + 15]`` or a slot still
    pending, so the ring never wraps silently.
    """

    __slots__ = ("kernel", "chars", "base_of", "slots")

    def __init__(self, kernel: CharKernel) -> None:
        # the encode map is the kernel's own (shared by every wheel at this
        # delta, extended by the kernel when it interns a stray)
        self.kernel = kernel
        self.chars = kernel.chars
        self.base_of = kernel.base_of
        self.slots: list[_Bucket] = [_Bucket() for _ in range(WHEEL_SLOTS)]

    # ------------------------------------------------------------------
    def encode_base(self, char: Char) -> int:
        """``(priority << PRIO_SHIFT) | code`` for ``char`` (interns new)."""
        base = self.base_of.get(char)
        if base is None:
            kernel = self.kernel
            base = kernel.code_base[kernel.encode(char)]
        return base

    def schedule(
        self, tick: int, node: int, in_port: int, char: Char, *, now: int = 0
    ) -> None:
        """File ``char`` for delivery at ``tick`` through ``in_port``.

        ``now`` is the current tick: ``tick`` must lie in ``(now, now +
        15]`` (see :meth:`claim`).
        """
        bucket = self.slots[tick & _MASK]
        if bucket.tick != tick:
            bucket = self.claim(tick, now)
        lanes = bucket.lanes
        lane = lanes.get(node)
        if lane is None:
            lane = lanes[node] = array("q")
            bucket.nodes.append(node)
        elif not lane:
            bucket.nodes.append(node)
        lane.append(
            self.encode_base(char)
            | (in_port << PORT_SHIFT)
            | (len(lane) << SEQ_SHIFT)
        )

    def claim(self, tick: int, now: int) -> _Bucket:
        """Stamp ``tick`` into its slot, which holds another tick; return it.

        Raises :class:`~repro.errors.SimulationError` when ``tick`` lies
        outside ``(now, now + 15]`` or the slot's bucket is still pending:
        either would wrap the ring onto live entries.  Hot callers index
        ``slots`` inline and call this only when the stamp differs.
        """
        bucket = self.slots[tick & _MASK]
        if not now < tick <= now + _MASK:
            raise SimulationError(
                f"arrival tick {tick} outside the wheel window "
                f"({now}, {now + _MASK}]"
            )
        if bucket.nodes:
            raise SimulationError(
                f"wheel slot for tick {tick} still holds tick {bucket.tick}"
            )
        bucket.tick = tick
        return bucket

    def withdraw(
        self,
        after: int,
        until: int,
        wires: Iterable[tuple[int, int]],
        match: Callable[[int], bool] | None = None,
    ) -> list[tuple[int, int]]:
        """Remove entries arriving in ``(after, until]`` through ``wires``.

        ``wires`` lists ``(dst, in_port << PORT_SHIFT)`` pairs: a lane and
        the packed in-port field that names the sending wire.  ``match``
        narrows the removal by character code (``None`` takes every entry
        on those wires).  ``until`` is the senders' send horizon; only the
        window's ticks are scanned.  Returns the removed ``(arrival,
        code)`` pairs in ascending arrival order, lane order within a
        tick.  The survivors' sequence numbers are renumbered to stay
        dense, and an emptied lane leaves ``nodes`` (an emptied bucket is
        then simply not pending).
        """
        slots = self.slots
        port_field = PORT_MASK << PORT_SHIFT
        seq_field = ((1 << SEQ_BITS) - 1) << SEQ_SHIFT
        removed: list[tuple[int, int]] = []
        for arrival in range(after + 1, min(until, after + _MASK) + 1):
            bucket = slots[arrival & _MASK]
            if bucket.tick != arrival:
                continue
            lanes = bucket.lanes
            for dst, shifted_in in wires:
                lane = lanes.get(dst)
                if not lane:
                    continue
                kept: list[int] | None = None
                for index, packed in enumerate(lane):
                    code = packed & CODE_MASK
                    if packed & port_field == shifted_in and (
                        match is None or match(code)
                    ):
                        if kept is None:
                            kept = list(lane[:index])
                        removed.append((arrival, code))
                    elif kept is not None:
                        kept.append(packed)
                if kept is not None:
                    del lane[:]
                    lane.extend(
                        (packed & ~seq_field) | (seq << SEQ_SHIFT)
                        for seq, packed in enumerate(kept)
                    )
                    if not lane:
                        bucket.nodes.remove(dst)
        return removed

    def pop(self, tick: int) -> _Bucket | None:
        """Remove and return the arrivals bucket for ``tick`` (or ``None``).

        The caller keeps the bucket; its slot gets a fresh one.  The
        engine delivers in place instead (slow paths and tests use this).
        """
        index = tick & _MASK
        bucket = self.slots[index]
        if bucket.tick != tick or not bucket.nodes:
            return None
        self.slots[index] = _Bucket()
        return bucket

    def clear(self) -> None:
        """Empty the wheel in place, preserving container identity.

        Engine reuse requires clearing rather than replacing: the flat
        engine's send-time sink closures captured ``slots`` at install
        time, so the list must survive a reset.
        """
        for bucket in self.slots:
            bucket.clear()

    def snapshot(self) -> tuple:
        """The wheel's contents as compact immutable data (checkpoints).

        One ``(tick, nodes, lane lengths, lane bytes)`` record per pending
        bucket, in tick order: the touched nodes in delivery order and
        their packed lanes concatenated into one ``bytes`` object.
        """
        records = []
        pending = (bucket for bucket in self.slots if bucket.nodes)
        for bucket in sorted(pending, key=lambda bucket: bucket.tick):
            lanes = bucket.lanes
            nodes = tuple(bucket.nodes)
            records.append(
                (
                    bucket.tick,
                    nodes,
                    tuple(len(lanes[node]) for node in nodes),
                    b"".join(lanes[node].tobytes() for node in nodes),
                )
            )
        return tuple(records)

    def load(self, snapshot: tuple) -> None:
        """Replace the contents with a :meth:`snapshot`, in place.

        Container identity survives (see :meth:`clear`), so the engine's
        send-time closures keep scheduling into this very wheel.  The
        records must fit one window, counted from the first record's tick.
        """
        self.clear()
        width = array("q").itemsize
        for tick, nodes, lengths, blob in snapshot:
            bucket = self.claim(tick, snapshot[0][0] - 1)
            lanes = bucket.lanes
            view = memoryview(blob)
            start = 0
            for node, length in zip(nodes, lengths):
                lane = lanes.get(node)
                if lane is None:
                    lane = lanes[node] = array("q")
                end = start + length * width
                lane.frombytes(view[start:end])
                start = end
            bucket.nodes.extend(nodes)

    def next_tick(self) -> int | None:
        """The earliest tick holding scheduled arrivals, or ``None``."""
        return min((bucket.tick for bucket in self.slots if bucket.nodes), default=None)

    def __bool__(self) -> bool:
        return any(bucket.nodes for bucket in self.slots)

    def __len__(self) -> int:
        return sum(len(lane) for bucket in self.slots for lane in bucket.lanes.values())

    def in_flight(self) -> Iterator[tuple[int, Char]]:
        """All scheduled characters as ``(destination, char)`` pairs."""
        chars = self.chars
        for bucket in self.slots:
            for node in bucket.nodes:
                for packed in bucket.lanes[node]:
                    yield node, chars[packed & CODE_MASK]


class FlatEngine(Engine):
    """The compiled flat-core backend: same contract, dense data plane.

    Construction resolves the frozen graph's CSR tables and the character
    code space through the process-wide caches
    (:func:`repro.topology.compile.compiled_topology`,
    :func:`repro.sim.characters.kernel_for`) — both artifacts are pure
    functions of (wiring, delta), so every engine over the same network
    shares one copy instead of re-lowering them — swaps the event wheel
    for :class:`PackedEventWheel`, builds every node's code sinks, and
    asks each non-root processor that purges only growing characters for
    its code-indexed handler list, keeping the per-kind tables
    :class:`~repro.sim.engine.Engine` builds as the delivery loop's
    fallback.  The run surface (``run``,
    ``run_to_idle``), wake and invariant hooks are inherited from
    :class:`~repro.sim.engine.Engine` unchanged; the stepping body beneath
    them (:meth:`_burst`) is this class's own.
    """

    #: Subclasses that patch the compiled wire tables in place (the dynamic
    #: engines) set this True; construction then works on a private
    #: :meth:`~repro.topology.compile.CompiledTopology.fork` so the shared
    #: cached artifact stays pristine for every other engine.
    MUTATES_TOPOLOGY = False

    #: the wire-op program and its cursor, read by the stepping body; the
    #: dynamic subclass loads a program per run, a static engine has none
    _ops: tuple = ()
    _cursor = 0

    def __init__(
        self,
        graph: PortGraph,
        processors: list[Processor],
        root: int = 0,
        *,
        record_transcript: bool = True,
    ) -> None:
        super().__init__(
            graph, processors, root=root, record_transcript=record_transcript
        )
        topo = compiled_topology(graph)
        self._topo = topo.fork() if self.MUTATES_TOPOLOGY else topo
        # ---- the code space (compile-time character algebra) ----
        # Every character operation the hot loop needs — fill, role,
        # family, priority — is a pure function on the Lemma 5.2 census,
        # precomputed once per delta by the shared CharKernel.  Per-node
        # code handlers dispatch on those small ints and emit through the
        # code sinks below, so a hot delivery never touches a Char object.
        self._kernel = kernel = kernel_for(graph.delta)
        self._wheel = PackedEventWheel(kernel)
        self._id_base = kernel.id_base
        self._chars = kernel.chars
        self._emitted_by_code: list[int] = []
        self._grow_code_tables()
        # Per-slot precomputed (in_port << PORT_SHIFT) — ready-made ints, so
        # the hot loops do one list indexing instead of a shift per entry.
        # The table is immutable protocol data derived from the wiring, so
        # static engines alias the per-artifact shared copy; only engines
        # that patch the wiring mid-run need a private mutable list.
        shared_in_shift = self._topo.shifted_in_ports(PORT_SHIFT)
        self._in_shift = (
            list(shared_in_shift) if self.MUTATES_TOPOLOGY else shared_in_shift
        )
        #: node -> (sink, broadcast, purge) closures, kept so a reset can
        #: re-install the very same objects and the dynamic engine can
        #: park and restore them
        self._fast_paths: dict[int, tuple] = {}
        #: node -> the latest arrival tick its code sinks have filed (its
        #: send horizon): a KILL purge at or past it has nothing to
        #: withdraw.  Updated in place — the closures hold the list.
        self._horizon: list[int] = [0] * len(processors)
        #: node -> its ``csend``: every node has code sinks, and a drain
        #: files each outbox entry through its sender's
        self._csends: list[Callable[[int, int, int], None]] = []
        #: node -> code-indexed list of code-space handlers, or None (every
        #: delivery takes the fallback).  Only a non-root node that purges
        #: only growing characters also gets the object-sink adapters, the
        #: purge hook and a code table.  The delivery loop inlines
        #: ``begin_tick`` as a plain attribute store for a node with a
        #: table, so an override of it keeps a processor off the code
        #: handlers (not off the sinks).
        base_begin = Processor.begin_tick
        self._chandlers_all: list[list | None] = [None] * len(processors)
        #: the table a node without one delivers through: no code handler,
        #: so every kernel code reaches the fallback
        self._no_codes: list[None] = [None] * kernel.n_codes
        for node, proc in enumerate(processors):
            # (dst, in_port << PORT_SHIFT) per connected out-port: where
            # this node's broadcasts land and its purges search
            slot_base = node * self._topo.stride
            wires = tuple(
                (self._topo.wire_dst[slot], self._in_shift[slot])
                for slot in (slot_base + p for p in self._topo.out_ports_of(node))
            )
            csend, cbroadcast = self._make_code_sinks(node, wires)
            self._csends.append(csend)
            if node == root or not proc.PURGES_ONLY_GROWING:
                continue
            paths = (
                *self._make_object_sinks(csend, cbroadcast),
                self._make_purge_hook(node, wires),
            )
            self._fast_paths[node] = paths
            proc._direct_sink, proc._direct_broadcast, proc._purge_hook = paths
            if type(proc).begin_tick is base_begin:
                self._chandlers_all[node] = proc.code_handler_table(
                    kernel, self._chars, csend, cbroadcast
                )
        #: the live view: the dynamic engine parks a degraded node's entry
        #: (sets it None) and restores it, mirroring its sink parking
        self._chandlers: list[list | None] = list(self._chandlers_all)

    def reset(self) -> None:
        """Restore power-on state; every compiled table survives.

        On top of :meth:`Engine.reset`: the per-code emission counters are
        zeroed *in place* (the fast-path closures captured the list), and
        the send-time sink/broadcast/purge closures — cleared by each
        processor's re-attach — are re-installed.  The compiled topology,
        character kernel and code-handler tables are exactly the artifacts
        reuse exists to keep.
        """
        super().reset()
        emitted = self._emitted_by_code
        emitted[:] = [0] * len(emitted)
        # another engine may have interned strays into the shared kernel
        # since this one last grew: a send of one hits the kernel's
        # identity map without passing this engine's growth check
        self._grow_code_tables()
        processors = self.processors
        for node, paths in self._fast_paths.items():
            proc = processors[node]
            proc._direct_sink, proc._direct_broadcast, proc._purge_hook = paths
        # un-park every code-handler table (the closures themselves survive:
        # they reach all mutable processor state through `self` per call)
        self._chandlers[:] = self._chandlers_all
        self._horizon[:] = [0] * len(self._horizon)

    def restore(self, checkpoint, events) -> None:
        """Load ``checkpoint``; every send horizon becomes the wheel's last tick.

        A checkpoint does not say which sender filed which wheel entry, so
        each node's horizon is set to the latest pending tick in the
        wheel: the first KILL purge at any node then searches the wheel.
        """
        super().restore(checkpoint, events)
        last = max((b.tick for b in self._wheel.slots if b.nodes), default=0)
        self._horizon[:] = [last] * len(self._horizon)

    def _traffic_snapshot(self) -> tuple:
        """The kernel plus the non-zero per-code emission counts.

        Delivery counts need no capture: they derive from emissions and
        the wheel contents (see :meth:`_flush_metrics`).  The kernel rides
        along because codes past its base alphabet are interned in order
        of first sight, so they mean something only in the same kernel.
        """
        sparse = tuple(
            (code, count) for code, count in enumerate(self._emitted_by_code) if count
        )
        return self._kernel, sparse

    def _load_traffic(self, traffic: tuple) -> None:
        kernel, sparse = traffic
        if kernel is not self._kernel:
            raise SimulationError("checkpoint taken under another character kernel")
        self._grow_code_tables()
        emitted = self._emitted_by_code  # zeroed in place: closures hold it
        emitted[:] = [0] * len(emitted)
        for code, count in sparse:
            emitted[code] = count
        self._metrics = TrafficMetrics()

    # ------------------------------------------------------------------
    # metrics: counted per code in flat lists, materialized on read
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> TrafficMetrics:
        self._flush_metrics()
        return self._metrics

    @metrics.setter
    def metrics(self, value: TrafficMetrics) -> None:
        self._metrics = value

    def _flush_metrics(self) -> None:
        """Rebuild the :class:`TrafficMetrics` counters from per-code truth.

        Emissions are tallied per code at schedule time (and rolled back on
        purge), so the delivery count needs no per-hop bookkeeping at all:
        every emitted character is either delivered or still in the wheel,
        hence ``delivered = emitted - in_flight``.  The rebuild is
        idempotent, and ``delivered`` is exact at any event boundary.
        Mid-run ``emitted`` runs slightly ahead of the object backend's
        (a direct-scheduled character counts when queued, the object
        backend counts it when it leaves its sender's outbox); the two
        agree whenever no character is resting — in particular at
        termination, at idle, and at every point the parity contract
        compares.
        """
        chars = self._chars
        in_wheel = [0] * len(chars)
        for bucket in self._wheel.slots:
            lanes = bucket.lanes
            for node in bucket.nodes:
                for packed in lanes[node]:
                    in_wheel[packed & CODE_MASK] += 1
        metrics = self._metrics
        emitted = metrics.emitted
        delivered = metrics.delivered
        emitted.clear()
        delivered.clear()
        for code, count in enumerate(self._emitted_by_code):
            if count:
                kind = chars[code].kind
                emitted[kind] += count
                done = count - in_wheel[code]
                if done:
                    delivered[kind] += done

    # ------------------------------------------------------------------
    # lazy growth when a character outside the constant alphabet appears
    # ------------------------------------------------------------------
    def _grow_code_tables(self) -> None:
        grow = len(self._chars) - len(self._emitted_by_code)
        if grow > 0:
            self._emitted_by_code.extend([0] * grow)

    def _code_of(self, char: Char) -> int:
        """The code of ``char``; a stray is interned and the counters grow."""
        base = self._id_base.get(id(char))
        if base is None:
            base = self._wheel.encode_base(char)
            self._grow_code_tables()
        return base & CODE_MASK

    def _fill_stray(self, code: int, in_port: int) -> Char:
        """The character stray ``code`` delivers as through ``in_port``.

        The kernel fills a stray by the engine's rule and may intern the
        filled variant on first sight; the per-code emission counters then
        grow to cover it before a handler can re-emit it.
        """
        code = self._kernel.fill(code, in_port)
        if code >= len(self._emitted_by_code):
            self._grow_code_tables()
        return self._chars[code]

    # ------------------------------------------------------------------
    # the data plane
    # ------------------------------------------------------------------
    def step_tick(self) -> None:
        """Advance the global clock by exactly one tick (a one-tick burst)."""
        self._burst(self.tick + 1, None, None)

    def _burst(
        self,
        max_ticks: int,
        until: Callable[[], bool] | None,
        idle_from: int | None,
    ) -> bool:
        """The flat stepping body: :meth:`Engine._burst` in one frame.

        Same contract and same ticks as the base loop, but every binding
        is made once per burst instead of once per busy tick, and the
        per-tick helpers are inlined: the next event tick (earliest pending
        wheel slot, due outbox entry or, on a dynamic engine, wire op), the
        delivery of the tick's bucket, the drains and the wire ops due at
        the tick.  ``until()`` is still evaluated after every busy tick,
        so predicates on any processor's state see every change.
        """
        processors = self.processors
        dispatch = self._dispatch
        chars = self._chars
        emitted = self._emitted_by_code
        root = self.root
        record_recv = self.transcript.record_recv
        live_chandlers = self._chandlers
        kfill = self._kernel.fill_rows
        kn = self._kernel.n_codes
        no_codes = self._no_codes
        slots = self._wheel.slots
        mask = _MASK
        active = self._active
        live = active.live
        update = active.update
        drain = self._drain_node
        ops = self._ops
        n_ops = len(ops)
        op_tick = ops[self._cursor].tick if self._cursor < n_ops else None
        # the packed-entry field constants: the per-entry decode below is
        # the hottest code in a flat run
        code_mask = CODE_MASK
        port_shift = PORT_SHIFT
        port_mask = PORT_MASK
        tick = self.tick
        while tick < max_ticks:
            # the next pending wheel tick: every pending slot holds a tick
            # in (tick, tick + 15], so a scan of the window finds it
            nxt = None
            for ahead in range(tick + 1, tick + 1 + mask):
                if slots[ahead & mask].nodes:
                    nxt = ahead
                    break
            if until is not None:
                if until():
                    return True
            elif idle_from is not None and tick >= idle_from:
                if nxt is None and not live:
                    return True
            # the next event tick: the earliest of that, the next (possibly
            # stale) outbox due tick and the next wire op
            if op_tick is not None and (nxt is None or op_tick < nxt):
                nxt = op_tick
            due = active._due  # rebound by heap compaction: read per tick
            if due and (nxt is None or due[0][0] < nxt):
                nxt = due[0][0]
            if nxt is None:
                if until is not None:
                    self.tick = max_ticks
                    return False
                self.tick = tick = tick + 1
                continue
            if nxt > tick + 1:
                tick = min(nxt, max_ticks) - 1
            self.tick = tick = tick + 1

            # a pending slot at this tick holds this tick (the window rule)
            bucket = slots[tick & mask]
            nodes = bucket.nodes
            if nodes:
                n_codes = len(emitted)
                tracer = self.tracer
                lanes = bucket.lanes
                # a tracer needs every delivery decoded and recorded, so its
                # presence sends whole ticks down the fallback
                chandlers = live_chandlers if tracer is None else None
                for node in nodes:
                    lane = lanes[node]
                    proc = processors[node]
                    # one plain integer sort recovers (priority, in-port, FIFO)
                    entries = sorted(lane) if len(lane) > 1 else lane
                    ctable = chandlers[node] if chandlers is not None else None
                    if ctable is None:
                        # the root, a traced tick, a parked node or a
                        # processor without code handlers: every delivery
                        # takes the fallback below
                        ctable = no_codes
                        proc.begin_tick(tick)
                    else:
                        # begin_tick inlined (a code table requires the base
                        # implementation)
                        proc._tick = tick
                    kinds = None
                    for packed in entries:
                        raw = packed & code_mask
                        in_port = (packed >> port_shift) & port_mask
                        if raw < kn:
                            # code-space delivery: fill is one indexed load
                            # and the handler dispatches on the small-int code
                            code = kfill[raw][in_port]
                            h = ctable[code]
                            if h is not None:
                                h(in_port, code)
                                continue
                            char = chars[code]
                        else:
                            if raw >= n_codes:
                                # a code scheduled through the generic wheel
                                # API without passing the engine's intern path
                                self._grow_code_tables()
                                n_codes = len(emitted)
                            char = self._fill_stray(raw, in_port)
                        # the fallback (the object oracle's semantics): the
                        # root's transcript and the tracer see the character
                        # as sent, before the §2.3.2 STAR fill
                        if node == root:
                            record_recv(tick, in_port, chars[raw])
                        if tracer is not None:
                            tracer.record_delivery(tick, node, in_port, chars[raw])
                        if kinds is None:
                            kinds = dispatch[node]
                            fallback = proc.handle
                        handler = kinds.get(char.kind)
                        if handler is None:
                            fallback(in_port, char)
                        else:
                            handler(in_port, char)

            # Drains.  Processors with the object-sink adapters schedule at
            # send time and keep an empty outbox, so only nodes actually
            # holding outbox entries (the root, other processors, tracer
            # interludes)
            # need one, and only once an entry is due: a node whose next
            # entry leaves later just re-files that tick in the due heap.
            # A node hit by both sweeps is visited twice — the second visit
            # finds nothing due, which is cheaper than building the union
            # set every tick.
            due = active._due
            if due and due[0][0] <= tick:
                for node in active.take_due(tick):
                    next_due = processors[node]._next_due
                    if next_due is not None and next_due <= tick:
                        drain(node)
                    else:
                        update(node, next_due)
            if nodes:
                # fused outbox sweep + bucket clear: one walk over the
                # delivered nodes checks for queued output and empties the
                # lane (drains schedule at tick+1, never into this slot)
                for node in nodes:
                    proc = processors[node]
                    if proc._outbox:
                        next_due = proc._next_due
                        if next_due <= tick:
                            drain(node)
                        else:
                            update(node, next_due)
                    del lanes[node][:]
                nodes.clear()
                # the slot's next tick: a filing there skips the claim
                bucket.tick = tick + WHEEL_SLOTS

            if op_tick is not None and op_tick <= tick:
                self._apply_due_mutations()
                op_tick = ops[self._cursor].tick if self._cursor < n_ops else None
        return False

    def _blocked_emission(self, node: int, out_port: int, char: Char, dst: int) -> bool:
        """Handle an emission through a slot holding no live wire (dst < 0).

        Returns True if the emission was consumed as *modeled* behaviour.
        The static engine knows no such thing — an unconnected out-port is
        always a simulation bug here — but the dynamic subclass overrides
        this to turn the :data:`~repro.topology.compile.CUT` sentinel into
        a lost character, which is what keeps the drain usable while the
        wiring changes under the run.
        """
        raise SimulationError(
            f"node {node} emitted {char} through unconnected out-port {out_port}"
        )

    def _make_object_sinks(self, csend, cbroadcast) -> tuple:
        """Adapt the code sinks to the object sends: ``(sink, sink_many)``.

        Installed on processors that declare ``PURGES_ONLY_GROWING`` (and
        never on the root — its transcript must record sends in drain
        order).  A queued character's arrival tick is fully determined at
        send time, so it can skip the outbox/drain round trip and land
        directly in its packed wheel lane; the companion purge hook
        (:meth:`_make_purge_hook`) keeps KILL semantics exact for growing
        characters.  ``sink(out_port, char, arrival)`` and ``sink_many(char,
        arrival)`` (every connected out-port, as
        :meth:`~repro.sim.processor.Processor.broadcast` sends) encode the
        character once (:meth:`_code_of`) and hand its code to ``csend`` /
        ``cbroadcast``.  Both decline
        (return False) while a tracer is attached, because tracers expect
        emission records at drain time, and for an arrival past the
        wheel's window (a send with a long ``extra_delay``): the character
        then rests in the outbox and leaves by the oracle's rules.
        """
        code_of = self._code_of

        def sink(out_port: int, char: Char, arrival: int) -> bool:
            if self.tracer is not None or arrival > self.tick + _MASK:
                return False
            csend(out_port, code_of(char), arrival)
            return True

        def sink_many(char: Char, arrival: int) -> bool:
            if self.tracer is not None or arrival > self.tick + _MASK:
                return False
            cbroadcast(code_of(char), arrival)
            return True

        return sink, sink_many

    def _make_code_sinks(self, node: int, all_wires: tuple) -> tuple:
        """``node``'s send-time schedulers over codes: ``(csend, cbroadcast)``.

        Called as ``csend(out_port, code, arrival_tick)`` and
        ``cbroadcast(code, arrival_tick)`` by the code handlers
        (:meth:`~repro.sim.processor.Processor.code_handler_table`), by
        the object sink adapters (:meth:`_make_object_sinks`) and, for
        ``csend`` only, by :meth:`_drain_node`.  No intern lookup and no
        decline protocol: the callers have encoded the character and
        checked for a tracer and the wheel's window (the drain instead
        checks :meth:`_blocked_emission` first and records the tracer
        itself), so each body is the wire resolve, the emission count, and
        the packed append.  ``csend`` resolves its wire in the live tables
        and raises :class:`~repro.errors.SimulationError` on an unconnected
        slot.  A broadcast always goes through every connected out-port
        (the §2.3.2 flood shape), so ``all_wires`` is resolved once at build
        time; the dynamic engine parks a node's send-time paths whenever its
        out-wiring degrades, so the list never goes stale while in use.
        """
        topo = self._topo
        slot_base = node * topo.stride
        wire_dst = topo.wire_dst
        in_shift = self._in_shift
        n_ports = len(all_wires)
        slots = self._wheel.slots  # cleared in place, never rebound
        claim = self._wheel.claim
        emitted = self._emitted_by_code  # extended in place, never rebound
        code_base = self._kernel.code_base
        horizon = self._horizon  # reset in place, never rebound

        def csend(out_port: int, code: int, arrival: int) -> None:
            slot = slot_base + out_port
            dst = wire_dst[slot]
            if dst < 0:
                raise SimulationError(
                    f"node {node} emitted {self._chars[code]} through "
                    f"unconnected out-port {out_port}"
                )
            emitted[code] += 1
            if arrival > horizon[node]:
                horizon[node] = arrival
            bucket = slots[arrival & _MASK]
            if bucket.tick != arrival:
                bucket = claim(arrival, self.tick)
            lanes = bucket.lanes
            lane = lanes.get(dst)
            if lane is None:
                lane = lanes[dst] = array("q")
                bucket.nodes.append(dst)
            elif not lane:
                bucket.nodes.append(dst)
            lane.append(code_base[code] | in_shift[slot] | (len(lane) << SEQ_SHIFT))

        def cbroadcast(code: int, arrival: int) -> None:
            emitted[code] += n_ports
            if arrival > horizon[node]:
                horizon[node] = arrival
            bucket = slots[arrival & _MASK]
            if bucket.tick != arrival:
                bucket = claim(arrival, self.tick)
            lanes = bucket.lanes
            nodes = bucket.nodes
            base = code_base[code]
            for dst, shifted_in in all_wires:
                lane = lanes.get(dst)
                if lane is None:
                    lane = lanes[dst] = array("q")
                    nodes.append(dst)
                elif not lane:
                    nodes.append(dst)
                lane.append(base | shifted_in | (len(lane) << SEQ_SHIFT))

        return csend, cbroadcast

    def _make_purge_hook(self, node: int, out_wires: tuple):
        """Erase ``node``'s pre-scheduled, still-purgeable characters.

        Under outbox semantics a character rests in its sender until its
        departure tick; a KILL arriving now may erase it.  The direct sink
        has already filed those characters into future wheel buckets, so
        the purge withdraws the matching entries on the node's
        ``out_wires`` from the buckets up to its send horizon
        (:meth:`PackedEventWheel.withdraw`; the arrival in-port identifies
        the wire, hence the sender).  Emission counters are
        rolled back so traffic metrics match the object backend, which
        never counts a purged character as emitted.  A node whose send
        horizon has passed has nothing in flight, and skips the search.
        """
        withdraw = self._wheel.withdraw
        chars = self._chars
        emitted = self._emitted_by_code  # extended in place, never rebound
        growing_code = self._kernel.growing_code  # extended by the kernel
        horizon = self._horizon  # reset in place, never rebound

        def purge(predicate) -> int:
            # entries arriving by now already departed under outbox
            # semantics, so a horizon at or before now leaves nothing
            if horizon[node] <= self.tick:
                return 0
            # the PURGES_ONLY_GROWING contract: the predicate can only ever
            # match growing-snake kinds, so everything else skips the call
            removed = withdraw(
                self.tick,
                horizon[node],
                out_wires,
                lambda code: growing_code[code] and predicate(chars[code]),
            )
            for _, code in removed:
                emitted[code] -= 1
            return len(removed)

        return purge

    def _drain_node(self, node: int) -> None:
        """Drain ``node``'s due outbox entries through its ``csend``.

        Semantically identical to :meth:`Engine._drain_node` (which loops
        ``_put_on_wire`` per entry): an entry through a slot without a
        live wire goes to :meth:`_blocked_emission` first, so a lost
        character is neither filed nor recorded; every other entry is
        filed at ``tick + 1`` by the sender's code sink, then recorded by
        the root's transcript and the tracer.  The lookups are bound once
        per drain.
        """
        proc = self.processors[node]
        tick = self.tick
        entries = proc.drain_due(tick)
        if entries:
            topo = self._topo
            wire_dst = topo.wire_dst
            slot_base = node * topo.stride
            csend = self._csends[node]
            code_of = self._code_of
            record_send = self.transcript.record_send if node == self.root else None
            tracer = self.tracer
            arrival = tick + 1
            for entry in entries:
                char = entry.char
                out_port = entry.out_port
                dst = wire_dst[slot_base + out_port]
                if dst < 0 and self._blocked_emission(node, out_port, char, dst):
                    continue
                csend(out_port, code_of(char), arrival)
                if record_send is not None:
                    record_send(tick, out_port, char)
                if tracer is not None:
                    tracer.record_emission(tick, node, out_port, char)
        self._active.update(node, proc._next_due)
