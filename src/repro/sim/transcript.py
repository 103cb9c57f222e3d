"""The root's computational transcript.

The paper's root "is piping its computational transcript to the computer to
which it is attached" (§1.2.1); by protocol end the master computer must be
able to reconstruct the topology *from this stream alone*.  We record three
event kinds:

* ``recv`` — a character arrived at a root in-port;
* ``send`` — a character left a root out-port;
* ``pipe`` — a constant-size root status record (deviation D2: the root
  reports its own DFS progress directly instead of running a degenerate
  RCA with itself, plus the terminal announcement the paper's root makes
  when "informing its master computer that the algorithm has completed").

The honesty property — reconstruction uses only this object — is enforced
structurally: :class:`~repro.protocol.root_computer.MasterComputer` takes a
:class:`Transcript` and nothing else.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from repro.sim.characters import Char

__all__ = ["TranscriptEvent", "Transcript"]


class TranscriptEvent(NamedTuple):
    """One transcript record.

    ``port`` and ``char`` are set for ``recv``/``send`` events; ``label``
    and ``data`` for ``pipe`` events.
    """

    tick: int
    kind: str  # "recv" | "send" | "pipe"
    port: int | None
    char: Char | None
    label: str | None
    data: tuple


class Transcript:
    """Append-only event log of the root's I/O."""

    def __init__(self) -> None:
        self._events: list[TranscriptEvent] = []

    @classmethod
    def from_events(cls, events: Iterable[TranscriptEvent]) -> "Transcript":
        """A transcript already holding ``events`` (checkpoint restore)."""
        transcript = cls()
        transcript._events = list(events)
        return transcript

    def record_recv(self, tick: int, in_port: int, char: Char) -> None:
        """Record a character arriving at the root."""
        self._events.append(TranscriptEvent(tick, "recv", in_port, char, None, ()))

    def record_send(self, tick: int, out_port: int, char: Char) -> None:
        """Record a character leaving the root."""
        self._events.append(TranscriptEvent(tick, "send", out_port, char, None, ()))

    def record_pipe(self, tick: int, label: str, data: tuple) -> None:
        """Record a root status pipe (constant-size)."""
        self._events.append(TranscriptEvent(tick, "pipe", None, None, label, data))

    # ------------------------------------------------------------------
    def events(self) -> Iterator[TranscriptEvent]:
        """Iterate over events in arrival order."""
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        """One event, or a list of events for a slice."""
        return self._events[index]

    def __iter__(self) -> Iterator[TranscriptEvent]:
        return self.events()

    def pipes(self, label: str | None = None) -> list[TranscriptEvent]:
        """All pipe events, optionally filtered by label."""
        return [
            e
            for e in self._events
            if e.kind == "pipe" and (label is None or e.label == label)
        ]

    def received(self, kind: str | None = None) -> list[TranscriptEvent]:
        """All recv events, optionally filtered by character kind."""
        return [
            e
            for e in self._events
            if e.kind == "recv" and (kind is None or (e.char and e.char.kind == kind))
        ]
