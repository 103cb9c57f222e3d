"""Layer 1 — the scheduler core of the simulation stack.

The :class:`~repro.sim.engine.Engine` used to hand-roll its delivery queue,
active-set bookkeeping and per-character priority sort inside ``step_tick``.
This module extracts those mechanisms into three reusable pieces that the
engine (and its :class:`~repro.dynamics.engine.DynamicEngine` subclass)
compose:

* :class:`EventWheel` — a timestamp-bucketed delivery queue.  A scheduled
  character is stored as a ``(priority, in_port, seq, char)`` tuple so one
  plain tuple sort recovers the paper's deterministic in-tick handling
  order (KILL/UNMARK first, then dying snakes, then growing snakes, then
  tokens; ties broken by in-port then FIFO) without calling a key function
  per character.  ``seq`` is globally unique, so the tuple comparison never
  reaches the (unorderable) :class:`~repro.sim.characters.Char`.
* :class:`ActiveSet` — tracks which processors hold resting characters and
  the earliest tick any of them is due to leave, via a lazily-invalidated
  min-heap.  The engine drains only processors with due outbox entries
  instead of sweeping every live node every tick.
* :data:`KIND_PRIORITY` — the in-tick handling priority precomputed per
  character *kind* (the closed set of kind strings is the character class);
  enqueueing looks the priority up once instead of re-deriving it from
  string predicates inside the sort.

Both structures expose ``next_*`` queries so the engine can fast-forward
the global clock across ticks in which provably nothing happens (see
``Engine._next_event_tick``) while staying tick-exact about everything it
delivers, drains or records.

:func:`build_dispatch_tables` completes the layer: it asks each processor
for a precomputed handler table keyed by character kind
(:meth:`repro.sim.processor.Processor.handler_table`), so the hot delivery
loop jumps straight to the right handler instead of walking an
``if kind == ...`` chain per character.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterator

from repro.sim.characters import (
    PRIORITY_CONTROL,
    PRIORITY_DYING,
    PRIORITY_GROWING,
    PRIORITY_TOKEN,
    Char,
    priority_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.processor import Processor

__all__ = [
    "PRIORITY_CONTROL",
    "PRIORITY_DYING",
    "PRIORITY_GROWING",
    "PRIORITY_TOKEN",
    "KIND_PRIORITY",
    "priority_of",
    "EventWheel",
    "ActiveSet",
    "build_dispatch_tables",
]


class _PriorityTable(dict):
    """``{kind: priority}`` cache, self-populating on first sight of a kind."""

    def __missing__(self, kind: str) -> int:
        prio = priority_of(kind)
        self[kind] = prio
        return prio


#: The precomputed priority table.  Character kinds form a small closed set,
#: so after warm-up every enqueue is one dict hit.
KIND_PRIORITY: dict[str, int] = _PriorityTable()


class EventWheel:
    """Timestamp-bucketed delivery queue.

    ``schedule`` files a character for delivery to ``(node, in_port)`` at an
    absolute tick; ``pop`` hands back everything due at a tick, grouped by
    node, as sortable ``(priority, in_port, seq, char)`` tuples.

    Buckets and their per-node lists are recycled: the engine hands a
    delivered bucket back through :meth:`recycle`, which clears it into a
    free pool instead of leaving it for the allocator — steady-state ticks
    then reuse the same dict and list objects over and over.  Callers that
    never recycle (tests, one-shot inspection) simply forgo the reuse.
    """

    __slots__ = ("_buckets", "_ticks", "_seq", "_bucket_pool", "_list_pool")

    def __init__(self) -> None:
        # tick -> node -> [(priority, in_port, seq, char), ...]
        self._buckets: dict[int, dict[int, list[tuple[int, int, int, Char]]]] = {}
        self._ticks: list[int] = []  # min-heap of bucket keys (lazily cleaned)
        self._seq = 0
        self._bucket_pool: list[dict] = []
        self._list_pool: list[list] = []

    def schedule(self, tick: int, node: int, in_port: int, char: Char) -> None:
        """File ``char`` for delivery at ``tick`` through ``in_port``."""
        bucket = self._buckets.get(tick)
        if bucket is None:
            pool = self._bucket_pool
            bucket = self._buckets[tick] = pool.pop() if pool else {}
            heappush(self._ticks, tick)
        entry = (KIND_PRIORITY[char.kind], in_port, self._seq, char)
        self._seq += 1
        items = bucket.get(node)
        if items is None:
            pool = self._list_pool
            if pool:
                items = pool.pop()
                items.append(entry)
            else:
                items = [entry]
            bucket[node] = items
        else:
            items.append(entry)

    def pop(self, tick: int) -> dict[int, list[tuple[int, int, int, Char]]] | None:
        """Remove and return the arrivals bucket for ``tick`` (or ``None``)."""
        return self._buckets.pop(tick, None)

    def clear(self) -> None:
        """Empty the wheel in place, keeping the recycled free pools.

        Engine reuse (:meth:`repro.sim.engine.Engine.reset`) clears rather
        than replaces the wheel so the warmed bucket/list pools carry over
        to the next run.
        """
        for bucket in self._buckets.values():
            self.recycle(bucket)
        self._buckets.clear()
        self._ticks.clear()
        self._seq = 0

    def snapshot(self) -> tuple:
        """The wheel's contents as immutable data (engine checkpoints).

        ``(seq, ((tick, ((node, entries), ...)), ...))`` in bucket and
        node insertion order, which is the order :meth:`load` rebuilds —
        delivery walks a bucket's nodes in that order.  The entry tuples
        are immutable and shared, not copied.
        """
        return self._seq, tuple(
            (tick, tuple((node, tuple(items)) for node, items in bucket.items()))
            for tick, bucket in self._buckets.items()
        )

    def load(self, snapshot: tuple) -> None:
        """Replace the contents with a :meth:`snapshot` (pools survive)."""
        self.clear()
        self._seq, buckets = snapshot
        bucket_pool = self._bucket_pool
        list_pool = self._list_pool
        for tick, nodes in buckets:
            bucket = self._buckets[tick] = bucket_pool.pop() if bucket_pool else {}
            for node, entries in nodes:
                items = bucket[node] = list_pool.pop() if list_pool else []
                items.extend(entries)
        self._ticks[:] = sorted(self._buckets)

    def recycle(self, bucket: dict[int, list]) -> None:
        """Clear a popped, fully-delivered bucket into the free pools."""
        list_pool = self._list_pool
        for items in bucket.values():
            del items[:]
            list_pool.append(items)
        bucket.clear()
        self._bucket_pool.append(bucket)

    def next_tick(self) -> int | None:
        """The earliest tick holding scheduled arrivals, or ``None``."""
        ticks = self._ticks
        buckets = self._buckets
        while ticks and ticks[0] not in buckets:
            heappop(ticks)
        return ticks[0] if ticks else None

    def __bool__(self) -> bool:
        return bool(self._buckets)

    def __len__(self) -> int:
        return sum(
            len(items) for bucket in self._buckets.values() for items in bucket.values()
        )

    def in_flight(self) -> Iterator[tuple[int, Char]]:
        """All scheduled characters as ``(destination, char)`` pairs."""
        for bucket in self._buckets.values():
            for node, items in bucket.items():
                for _, _, _, char in items:
                    yield node, char


class ActiveSet:
    """Which processors hold resting characters, and when the next is due.

    ``live`` is the plain set of nodes with a non-empty outbox (the engine
    exposes it as ``engine._live`` for the invariant sweeps).  The due-heap
    is lazily invalidated: an entry may be stale (the node drained or went
    idle since the push), which costs one wasted pop, never a missed event.

    Long dynamic runs push far more entries than they pop in order, so the
    heap is **compacted** whenever the stale entries outnumber the live
    nodes two to one: only the earliest recorded entry per live node
    survives.  That entry is at or before the node's true next due tick
    (the truth was pushed at the node's latest update), so compaction keeps
    the no-missed-event guarantee and merely trades the dead weight for at
    most one extra empty drain per node.
    """

    __slots__ = ("live", "_due")

    #: Compaction trigger: heap longer than both this floor and twice the
    #: live set.  The floor keeps tiny simulations from compacting a
    #: 10-entry heap every tick.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self.live: set[int] = set()
        self._due: list[tuple[int, int]] = []  # (due_tick, node)

    def update(self, node: int, next_due: int | None) -> None:
        """Record ``node``'s outbox state after a drain."""
        if next_due is None:
            self.live.discard(node)
        else:
            self.live.add(node)
            due = self._due
            if due and due[0] == (next_due, node):
                return  # already filed, and first out
            heappush(due, (next_due, node))
            if len(due) > self.COMPACT_MIN and len(due) > 2 * len(self.live):
                self._compact()

    def _compact(self) -> None:
        """Drop stale heap entries, keeping the earliest per live node."""
        live = self.live
        best: dict[int, int] = {}
        for due_tick, node in self._due:
            if node in live:
                cur = best.get(node)
                if cur is None or due_tick < cur:
                    best[node] = due_tick
        self._due = [(due_tick, node) for node, due_tick in best.items()]
        heapify(self._due)

    def take_due(self, tick: int) -> set[int]:
        """Pop and return every node with a (possibly stale) entry due by ``tick``."""
        due: set[int] = set()
        heap = self._due
        while heap and heap[0][0] <= tick:
            due.add(heappop(heap)[1])
        return due

    def next_due(self) -> int | None:
        """Earliest recorded due tick, or ``None``.

        May be stale (earlier than the true next due tick); the engine
        tolerates that with one empty drain pass.
        """
        return self._due[0][0] if self._due else None

    def snapshot(self) -> tuple:
        """``(live nodes, due heap)``, stale heap entries kept as they are."""
        return tuple(self.live), tuple(self._due)

    def load(self, snapshot: tuple) -> None:
        """Replace the state with a :meth:`snapshot` (``live`` in place)."""
        live, due = snapshot
        self.live.clear()
        self.live.update(live)
        self._due = list(due)

    def clear(self) -> None:
        """Forget every live node and due entry (engine reuse).

        Clears ``live`` in place — the engine aliases it as ``_live`` and
        the invariant sweeps read that alias directly.
        """
        self.live.clear()
        self._due.clear()

    def __bool__(self) -> bool:
        return bool(self.live)


def build_dispatch_tables(
    processors: list["Processor"],
) -> list[dict[str, Callable[[int, Char], None]]]:
    """Precompute one handler table per processor, keyed by character kind.

    Processors that do not publish a table (the base
    :meth:`~repro.sim.processor.Processor.handler_table` returns an empty
    dict) fall back to their ``handle`` method in the delivery loop.
    """
    return [proc.handler_table() for proc in processors]
