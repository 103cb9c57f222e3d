"""Processor base class: residence queues and the step contract.

A processor is a finite-state automaton.  Within one global clock tick it
(1) reads the characters arriving on its in-ports, (2) updates its state,
(3) prepares outputs (paper §1.1).  The *speed* mechanism of §2.1 is
implemented with an **outbox**: handling a character queues its onward copy
``residence - 1`` ticks in the future; the engine then puts it on the wire
for one tick.  A character arriving at tick ``t`` therefore reaches the next
processor at ``t + 3`` (speed-1) or ``t + 1`` (speed-3).

Crucially the outbox models the character *resting inside the processor*:
a KILL token arriving mid-residence can purge queued growing-snake
characters (:meth:`purge_outbox`), which is exactly how the paper's KILL
token "completely eradicates all traces of growing snake characters".

Subclasses implement :meth:`handle` (one character) and may override
:meth:`on_start` (the root's nudge out of quiescence).  They must also
implement :meth:`state_snapshot` so the finite-state audit
(:mod:`repro.sim.audit`) can verify that live state is bounded by a function
of ``delta`` alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.sim.characters import SPEED3_KINDS, Char

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import NodeContext

__all__ = ["Processor", "OutboxEntry"]


class OutboxEntry:
    """A character resting in the processor, due to leave at ``due_tick``."""

    __slots__ = ("due_tick", "out_port", "char", "seq")

    def __init__(self, due_tick: int, out_port: int, char: Char, seq: int) -> None:
        self.due_tick = due_tick
        self.out_port = out_port
        self.char = char
        self.seq = seq

    def __lt__(self, other: "OutboxEntry") -> bool:
        # (due_tick, seq) order, so a drain sorts entries with a plain
        # ``list.sort()`` — no key function per entry.  seq is unique per
        # processor, so the comparison is total.
        if self.due_tick != other.due_tick:
            return self.due_tick < other.due_tick
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutboxEntry(due={self.due_tick}, port={self.out_port}, char={self.char})"


class Processor(ABC):
    """Base class for all processors attached to an :class:`Engine`."""

    #: Subclasses whose :meth:`purge_outbox` predicates only ever match
    #: growing-snake characters (the paper's KILL discipline) set this to
    #: True; it licenses an engine backend to schedule never-purgeable
    #: characters straight into its delivery queue at send time instead of
    #: resting them in the outbox.  Timing is identical either way — the
    #: arrival tick is fully determined at queueing — but a processor that
    #: might purge arbitrary kinds must keep everything purgeable at rest.
    PURGES_ONLY_GROWING = False

    def __init__(self) -> None:
        self.ctx: "NodeContext | None" = None
        self._outbox: list[OutboxEntry] = []
        self._next_due: int | None = None  # min due_tick over _outbox
        self._max_due = 0                  # max due_tick over _outbox
        self._seq = 0
        self._tick = 0
        #: engine-installed fast path (flat-core backend): called as
        #: ``sink(out_port, char, arrival_tick)``, it files the character
        #: through the engine's code sink; returns False to decline (the
        #: send then rests in the outbox).
        self._direct_sink: Callable[[int, Char, int], bool] | None = None
        #: engine-installed companion to the sink: purges this processor's
        #: directly-scheduled characters that are still purgeable (i.e.
        #: would still be resting here under outbox semantics).
        self._purge_hook: Callable[[Callable[[Char], bool]], int] | None = None
        #: batched sink for broadcasts: ``(char, arrival) -> bool`` files
        #: the character through every connected out-port in one call.
        self._direct_broadcast: Callable[[Char, int], bool] | None = None

    # ------------------------------------------------------------------
    # engine plumbing
    # ------------------------------------------------------------------
    def attach(self, ctx: "NodeContext") -> None:
        """Called once by the engine before the simulation starts."""
        self.ctx = ctx
        # the attaching engine installs its own (or none)
        self._direct_sink = None
        self._purge_hook = None
        self._direct_broadcast = None

    def reset(self) -> None:
        """Restore power-on state in place (engine reuse).

        Re-runs ``__init__`` on this very instance — every processor in the
        stack is no-arg constructible, and keeping the instance (rather
        than swapping in a new one) is what lets the engine's precomputed
        dispatch tables and per-node fast-path closures survive a reset:
        they hold bound methods of, and references to, *this* object.  The
        wiring context is re-attached afterwards (``attach`` also clears
        the engine-installed fast paths; the resetting engine re-installs
        its own).
        """
        ctx = self.ctx
        type(self).__init__(self)
        if ctx is not None:
            self.attach(ctx)

    def save_state(self) -> tuple:
        """Every register carried between ticks, as a tuple (checkpoints).

        :meth:`load_state` restores it into an attached instance of the
        same class — the engine restoring a checkpoint onto its own
        processors.  A subclass that adds registers extends both methods:
        its tuple holds the parent's tuple first, then its own registers.
        The wiring context and the engine-installed fast paths are not
        state (each engine installs its own).  Characters and outbox
        entries are immutable, so they are shared, not copied.
        """
        return (
            tuple(self._outbox),
            self._next_due,
            self._max_due,
            self._seq,
            self._tick,
        )

    def load_state(self, state: tuple) -> None:
        """Restore the registers :meth:`save_state` captured."""
        outbox, self._next_due, self._max_due, self._seq, self._tick = state
        self._outbox = list(outbox)

    def begin_tick(self, tick: int) -> None:
        """Engine hook: set the current tick before handlers run."""
        self._tick = tick

    def handler_table(self) -> dict[str, Callable[[int, Char], None]]:
        """Per-kind handler dispatch table for the scheduler core.

        The engine precomputes one table per processor at attach time
        (:func:`repro.sim.scheduler.build_dispatch_tables`); the delivery
        loop then jumps ``table[char.kind]`` straight to a bound handler.
        The base implementation publishes nothing, so every character falls
        back to :meth:`handle` — subclasses with a closed character set
        (notably :class:`~repro.protocol.automaton.ProtocolProcessor`)
        override this to skip their dispatch chain.
        """
        return {}

    def code_handler_table(self, kernel, chars, csend, cbroadcast):
        """Code-indexed handler list for a code-space engine backend.

        A backend that keeps deliveries as small-int character codes (the
        flat core) calls this at attach time with the compile-time
        :class:`~repro.sim.characters.CharKernel`, its code→``Char`` list
        (``kernel.chars``, which grows as strays are interned), and two
        code-space emitters — ``csend(out_port, code, arrival_tick)`` and
        ``cbroadcast(code, arrival_tick)`` — that schedule straight into
        its delivery queue.  The return value is a
        list indexed by character code whose entries are ``handler(in_port,
        code)`` callables or ``None`` (``None`` means: decode the character
        and take the object path for that delivery).  Returning ``None``
        instead of a table opts the whole processor out.  The base class
        publishes no table.
        """
        return None

    def drain_due(self, tick: int) -> list[OutboxEntry]:
        """Remove and return outbox entries due at or before ``tick``."""
        outbox = self._outbox
        if not outbox or (self._next_due is not None and self._next_due > tick):
            return []
        if self._max_due <= tick:
            # Fast path (the overwhelmingly common case): everything leaves.
            # No per-entry filtering, no min() recomputation over the rest.
            self._outbox = []
            self._next_due = None
            if len(outbox) > 1:
                outbox.sort()  # OutboxEntry orders by (due_tick, seq)
            return outbox
        due: list[OutboxEntry] = []
        keep: list[OutboxEntry] = []
        for e in outbox:
            (due if e.due_tick <= tick else keep).append(e)
        if due:
            self._outbox = keep
            self._next_due = min(e.due_tick for e in keep) if keep else None
            if len(due) > 1:
                due.sort()
        return due

    def has_pending_output(self) -> bool:
        """Whether any character is resting in this processor."""
        return bool(self._outbox)

    def next_due_tick(self) -> int | None:
        """Earliest outbox due tick, or ``None`` when the outbox is empty."""
        return self._next_due

    # ------------------------------------------------------------------
    # API for subclasses
    # ------------------------------------------------------------------
    def send(self, out_port: int, char: Char, *, extra_delay: int = 0) -> None:
        """Queue ``char`` to leave through ``out_port``.

        The character departs after its residence (minus the one tick the
        wire takes), so the neighbour receives it ``residence(char) +
        extra_delay`` ticks after now.  ``extra_delay`` implements "during
        the *next* time step" phrasing in the paper (e.g. the tail follows
        the head one tick later).
        """
        kind = char.kind
        due = self._tick + (0 if kind in SPEED3_KINDS else 2) + extra_delay
        sink = self._direct_sink
        if sink is not None and sink(out_port, char, due + 1):
            return
        self._queue(out_port, char, due)

    def _queue(self, out_port: int, char: Char, due: int) -> None:
        """Rest ``char`` in the outbox until ``due``."""
        self._outbox.append(OutboxEntry(due, out_port, char, self._seq))
        self._seq += 1
        if self._next_due is None or due < self._next_due:
            self._next_due = due
        if due > self._max_due:
            self._max_due = due

    def broadcast(self, char: Char, *, extra_delay: int = 0) -> None:
        """Send ``char`` through every connected out-port."""
        assert self.ctx is not None
        due = self._tick + (0 if char.kind in SPEED3_KINDS else 2) + extra_delay
        many = self._direct_broadcast
        if many is not None and many(char, due + 1):
            return
        for port in self.ctx.out_ports:
            self._queue(port, char, due)

    def purge_outbox(self, predicate: Callable[[Char], bool]) -> int:
        """Erase resting characters matching ``predicate``; return count.

        This is the KILL token's "eradicate all traces ... characters"
        action applied to characters currently resting in this processor.
        With an engine-installed direct sink, "resting here" extends to the
        characters the sink has pre-scheduled whose departure tick has not
        yet passed — the purge hook erases those from the delivery queue,
        so timing-observable behaviour is identical to outbox residence.
        """
        removed = 0
        if self._outbox:
            before = len(self._outbox)
            self._outbox = [e for e in self._outbox if not predicate(e.char)]
            if self._outbox:
                self._next_due = min(e.due_tick for e in self._outbox)
                self._max_due = max(e.due_tick for e in self._outbox)
            else:
                self._next_due = None
                self._max_due = 0
            removed = before - len(self._outbox)
        hook = self._purge_hook
        if hook is not None:
            removed += hook(predicate)
        return removed

    def outbox_chars(self) -> Iterable[Char]:
        """The characters currently resting here (for invariant checks)."""
        return (e.char for e in self._outbox)

    # ------------------------------------------------------------------
    # behaviour contract
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Nudge out of quiescence by the outside source (root only)."""

    @abstractmethod
    def handle(self, in_port: int, char: Char) -> None:
        """Process one character that arrived this tick through ``in_port``."""

    @abstractmethod
    def state_snapshot(self) -> dict[str, Any]:
        """A picture of every state register, for the finite-state audit.

        Must include everything the automaton remembers between ticks
        *except* the outbox (audited separately) and the immutable wiring
        context.
        """

    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """The current global clock tick."""
        return self._tick
