"""Transcript, metrics, audit and the Processor outbox mechanics."""

from typing import Any

import pytest

from repro.sim.audit import assert_finite_state, state_atom_count, state_bound
from repro.sim.characters import Char, make_body, make_head, make_tail
from repro.sim.metrics import TrafficMetrics
from repro.sim.processor import Processor
from repro.sim.transcript import Transcript


class Dummy(Processor):
    def handle(self, in_port: int, char: Char) -> None:  # pragma: no cover
        pass

    def state_snapshot(self) -> dict[str, Any]:
        return {"a": 1, "b": (2, 3), "c": {"d": None}}


class TestTranscript:
    def test_record_and_filter(self):
        t = Transcript()
        t.record_recv(1, 2, make_head("IG", 1))
        t.record_send(2, 1, make_tail("IG"))
        t.record_pipe(3, "TERMINAL", ())
        assert len(t) == 3
        assert len(t.received()) == 1
        assert len(t.received("IGH")) == 1
        assert len(t.received("OGH")) == 0
        assert t.pipes()[0].label == "TERMINAL"
        assert t.pipes("OTHER") == []

    def test_event_order_preserved(self):
        t = Transcript()
        for tick in range(5):
            t.record_recv(tick, 1, make_body("IG", 1, 1))
        assert [e.tick for e in t.events()] == list(range(5))

    def test_iterable(self):
        t = Transcript()
        t.record_pipe(0, "A", ())
        assert [e.label for e in t] == ["A"]


class TestMetrics:
    def test_counts(self):
        m = TrafficMetrics()
        m.count_delivery(make_head("IG", 1))
        m.count_delivery(make_body("IG", 1, 1))
        m.count_delivery(Char("KILL", payload="RCA"))
        m.count_emission(make_head("IG", 1))
        assert m.total_delivered == 3
        assert m.delivered["IGH"] == 1
        assert m.emitted["IGH"] == 1

    def test_by_family_groups_snakes(self):
        m = TrafficMetrics()
        m.count_delivery(make_head("OG", 1))
        m.count_delivery(make_body("OG", 1, 1))
        m.count_delivery(make_tail("OG"))
        m.count_delivery(Char("DFS"))
        fam = m.by_family()
        assert fam["OG"] == 3
        assert fam["DFS"] == 1

    def test_snapshot_is_copy(self):
        m = TrafficMetrics()
        m.count_delivery(Char("DFS"))
        snap = m.snapshot()
        m.count_delivery(Char("DFS"))
        assert snap["DFS"] == 1


class TestOutbox:
    def test_send_residence_speed1(self):
        p = Dummy()
        p.begin_tick(10)
        # speed-1: residence 3 => due at 10 + 2, wire adds the third tick.
        p.send(1, make_head("IG", 1))
        assert p.next_due_tick() == 12

    def test_send_residence_speed3(self):
        p = Dummy()
        p.begin_tick(10)
        p.send(1, Char("KILL", payload="RCA"))
        assert p.next_due_tick() == 10

    def test_drain_due_returns_sorted(self):
        p = Dummy()
        p.begin_tick(0)
        p.send(1, make_head("IG", 1), extra_delay=1)   # due 3
        p.send(2, Char("KILL", payload="RCA"))         # due 0
        due = p.drain_due(5)
        assert [e.char.kind for e in due] == ["KILL", "IGH"]
        assert not p.has_pending_output()

    def test_drain_respects_due_tick(self):
        p = Dummy()
        p.begin_tick(0)
        p.send(1, make_head("IG", 1))  # due 2
        assert p.drain_due(1) == []
        assert len(p.drain_due(2)) == 1

    def test_purge_outbox(self):
        p = Dummy()
        p.begin_tick(0)
        p.send(1, make_head("IG", 1))
        p.send(1, make_head("BG", 1))
        removed = p.purge_outbox(lambda c: c.kind.startswith("IG"))
        assert removed == 1
        assert [c.kind for c in p.outbox_chars()] == ["BGH"]

    def test_broadcast_requires_ctx(self):
        p = Dummy()
        with pytest.raises(AssertionError):
            p.broadcast(make_head("IG", 1))


class TestAudit:
    def test_atom_count_nested(self):
        p = Dummy()
        # snapshot atoms: a=1, b tuple(2 atoms)+1, c dict-> d None=1 -> 5
        assert state_atom_count(p) == 5

    def test_outbox_counts_as_state(self):
        p = Dummy()
        p.begin_tick(0)
        base = state_atom_count(p)
        p.send(1, make_head("IG", 1))
        assert state_atom_count(p) == base + 1

    def test_bound_is_delta_only(self):
        assert state_bound(2) < state_bound(5)

    def test_assert_finite_state_passes(self):
        assert assert_finite_state(Dummy(), 2) == 5

    def test_assert_finite_state_fails_on_hoarder(self):
        class Hoarder(Dummy):
            def state_snapshot(self) -> dict[str, Any]:
                return {"memory": list(range(10_000))}

        with pytest.raises(AssertionError):
            assert_finite_state(Hoarder(), 2)

    def test_long_strings_count_per_char(self):
        class Stringy(Dummy):
            def state_snapshot(self) -> dict[str, Any]:
                return {"s": "x" * 1000}

        assert state_atom_count(Stringy()) >= 1000
