"""Prefix ladders: checkpoints of one healthy run, shared by its branches.

The paper's processors are identical, synchronous and deterministic, so a
run that perturbs the wiring is the undisturbed run, tick for tick, until
its first wire op fires.  A :class:`PrefixLadder` keeps engine checkpoints
("rungs", see :meth:`repro.sim.engine.Engine.checkpoint`) of that shared
prefix for one ``(graph, backend, root)``.  A branch restores the latest
rung at or before its first op and simulates only from there; it leaves a
new rung when its own first op comes due.  Where rungs are taken and read
is up to the callers (:func:`repro.dynamics.experiment.run_dynamic_gtd`,
:func:`repro.protocol.runner.determine_topology`, the campaign executor).

Every rung is a prefix of the same run and transcript events are
immutable, so the ladder keeps one event list and each rung only the
length of its prefix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.sim.engine import Checkpoint, Engine
from repro.sim.transcript import TranscriptEvent

__all__ = ["LadderStats", "PrefixLadder"]


@dataclass
class LadderStats:
    """Ladder counters: what the prefix reuse saved.

    ``hits`` and ``misses`` count runs that did or did not find a rung to
    start from, ``rungs`` the rungs taken, and ``restored_hops`` the
    character-hops restored instead of simulated.
    """

    hits: int = 0
    misses: int = 0
    rungs: int = 0
    restored_hops: int = 0


class PrefixLadder:
    """The rungs of one healthy run, ordered by tick.

    ``stats`` lets several ladders count into one shared
    :class:`LadderStats` (the campaign executor's per-worker totals).
    """

    def __init__(self, stats: LadderStats | None = None) -> None:
        self.stats = stats if stats is not None else LadderStats()
        self._ticks: list[int] = []
        self._rungs: list[Checkpoint] = []
        self._events: list[TranscriptEvent] = []

    def __len__(self) -> int:
        return len(self._rungs)

    def ticks(self) -> tuple[int, ...]:
        """The ticks holding a rung, ascending."""
        return tuple(self._ticks)

    def capture(self, engine: Engine) -> None:
        """Leave a rung at ``engine``'s tick (kept: the one already there).

        The caller vouches that ``engine`` is still on the healthy run.
        """
        tick = engine.tick
        index = bisect_left(self._ticks, tick)
        if index < len(self._ticks) and self._ticks[index] == tick:
            return
        rung = engine.checkpoint()
        known = len(self._events)
        if rung.transcript > known:
            self._events.extend(engine.transcript[known : rung.transcript])
        self._ticks.insert(index, tick)
        self._rungs.insert(index, rung)
        self.stats.rungs += 1

    def resume(
        self, engine: Engine, first_op: int | None, budget: int
    ) -> Checkpoint | None:
        """Restore into ``engine`` the latest rung a run can start from.

        A rung at tick ``c`` serves a run whose first op is due at or
        after ``c`` (``first_op=None``: no ops), provided ``c`` is within
        the run's tick ``budget``.  Returns the restored rung, or ``None``
        when no rung qualifies and the run must start from power-on.
        """
        limit = budget - 1 if first_op is None else min(first_op, budget - 1)
        index = bisect_right(self._ticks, limit)
        if not index:
            self.stats.misses += 1
            return None
        rung = self._rungs[index - 1]
        engine.restore(rung, self._events)
        self.stats.hits += 1
        self.stats.restored_hops += rung.hops
        return rung
