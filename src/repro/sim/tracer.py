"""Structured event tracing: watch every character move through the network.

The transcript (:mod:`repro.sim.transcript`) records only what the *root*
sees — that restriction is the whole point of the problem.  The tracer, by
contrast, is an omniscient debugging/teaching instrument: it records every
delivery in the network so tests can assert on wavefront shapes and the
space-time renderer (:mod:`repro.viz.spacetime`) can draw how snakes crawl
and KILL tokens hunt them down.

Attach to an ``object`` engine with ``engine.tracer = EventTrace(...)``
before running.  Tracing is off by default and costs nothing when
disabled.  The ``flat`` engine refuses a tracer: the parity contract makes
the ``object`` run the same run, tick for tick, so trace that one.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from repro.sim.characters import Char

__all__ = ["TraceEvent", "EventTrace"]


class TraceEvent(NamedTuple):
    """One observed character movement."""

    tick: int
    kind: str      # "deliver" | "emit"
    node: int      # receiving node (deliver) or sending node (emit)
    port: int      # in-port (deliver) or out-port (emit)
    char: Char


class EventTrace:
    """Collects :class:`TraceEvent` records, with optional filtering.

    Args:
        keep: predicate over :class:`Char`; only matching characters are
            recorded (default: everything).  Use e.g.
            ``lambda c: c.kind.startswith("IG")`` to watch one snake family.
        max_events: hard cap to keep runaway traces from eating memory.
    """

    def __init__(
        self,
        *,
        keep: Callable[[Char], bool] | None = None,
        max_events: int = 1_000_000,
    ) -> None:
        self._keep = keep
        self._max = max_events
        self._events: list[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    def record_delivery(self, tick: int, node: int, in_port: int, char: Char) -> None:
        """Engine hook: ``char`` was handed to ``node`` this tick."""
        self._record(TraceEvent(tick, "deliver", node, in_port, char))

    def record_emission(self, tick: int, node: int, out_port: int, char: Char) -> None:
        """Engine hook: ``node`` put ``char`` on a wire this tick."""
        self._record(TraceEvent(tick, "emit", node, out_port, char))

    def _record(self, event: TraceEvent) -> None:
        if self._keep is not None and not self._keep(event.char):
            return
        if len(self._events) >= self._max:
            self.dropped += 1
            return
        self._events.append(event)

    # ------------------------------------------------------------------
    def events(self, kind: str | None = None) -> Iterator[TraceEvent]:
        """Iterate events, optionally only ``"deliver"`` or ``"emit"``."""
        return (e for e in self._events if kind is None or e.kind == kind)

    def deliveries(self) -> list[TraceEvent]:
        """All delivery events, in time order."""
        return list(self.events("deliver"))

    def __len__(self) -> int:
        return len(self._events)

    def first_delivery(self, node: int, char_kind: str) -> TraceEvent | None:
        """The first time ``node`` received a character of ``char_kind``."""
        for e in self._events:
            if e.kind == "deliver" and e.node == node and e.char.kind == char_kind:
                return e
        return None

    def wavefront(self, char_kind_prefix: str) -> dict[int, int]:
        """Node -> earliest delivery tick of any matching character.

        With prefix ``"IG"`` this is the in-growing flood's arrival
        schedule — tests use it to check the breadth-first property
        (arrival tick proportional to hop distance from the flood origin).
        """
        first: dict[int, int] = {}
        for e in self._events:
            if e.kind == "deliver" and e.char.kind.startswith(char_kind_prefix):
                first.setdefault(e.node, e.tick)
        return first
