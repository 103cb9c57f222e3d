"""E10 — ablation: why the KILL token must be strictly faster than snakes.

The paper's Lemma 4.2 rests on the speed separation of §2.1: the speed-3
KILL token gains two ticks per hop on the speed-1 growing snakes, so it
provably catches and erases them before the next RCA begins.  We ablate
that design choice two ways:

* **KILL at speed 1** — the cleanup wave never gains on the snake heads;
  the whole-network residue sweep after an RCA finds growing-snake traces
  (a ``CleanupViolation``);
* **KILL disabled** — growing marks survive forever; the *next* RCA's
  snakes find the network already claimed and the protocol wedges (tick
  budget exceeded) or trips the residue sweep.

Expected shape: the faithful configuration completes exactly; both ablated
configurations fail loudly.
"""

from __future__ import annotations

import repro.sim.processor as processor_module
from repro import determine_topology
from repro.errors import CleanupViolation, ProtocolViolation, TickBudgetExceeded
from repro.protocol.automaton import ProtocolProcessor
from repro.topology import generators
from repro.util.tables import format_table

from _report import report

#: Ablation: the speed-3 kinds without KILL, so KILL travels at snake
#: speed (residence 3, not 1) while UNMARK keeps its speed.
SLOW_KILL_SPEED3_KINDS = frozenset({"UNMARK"})


def run_ablation(monkeypatch) -> list[tuple]:
    graph = generators.bidirectional_line(12)
    rows = []

    # faithful configuration
    result = determine_topology(graph, verify_cleanup=True)
    rows.append(("KILL speed-3 (paper)", "completes", result.ticks,
                 "exact" if result.matches(graph) else "WRONG"))

    # ablation 1: slow KILL
    with monkeypatch.context() as m:
        m.setattr(processor_module, "SPEED3_KINDS", SLOW_KILL_SPEED3_KINDS)
        try:
            determine_topology(graph, verify_cleanup=True)
            outcome, detail = "UNEXPECTED PASS", "-"
        except CleanupViolation:
            outcome, detail = "fails", "residue found after RCA"
        except (ProtocolViolation, TickBudgetExceeded) as exc:
            outcome, detail = "fails", type(exc).__name__
    rows.append(("KILL speed-1 (ablated)", outcome, "-", detail))

    # ablation 2: KILL disabled entirely
    with monkeypatch.context() as m:
        m.setattr(
            ProtocolProcessor, "_handle_kill", lambda self, char: None
        )
        try:
            determine_topology(graph, verify_cleanup=True)
            outcome, detail = "UNEXPECTED PASS", "-"
        except CleanupViolation:
            outcome, detail = "fails", "residue found after RCA"
        except (ProtocolViolation, TickBudgetExceeded) as exc:
            outcome, detail = "fails", type(exc).__name__
    rows.append(("KILL disabled (ablated)", outcome, "-", detail))
    return rows


def test_e10_speed_separation_ablation(benchmark, monkeypatch):
    rows = benchmark.pedantic(
        run_ablation, args=(monkeypatch,), rounds=1, iterations=1
    )
    report(
        "e10_ablation",
        format_table(
            ["configuration", "outcome", "ticks", "failure detail"],
            rows,
            title="E10: ablating the speed-3 KILL token (Lemma 4.2's "
            "speed-separation argument)",
        ),
    )
    assert rows[0][1] == "completes"
    assert rows[1][1] == "fails"
    assert rows[2][1] == "fails"
