"""The Global Topology Determination protocol (paper §3).

:class:`GTDProcessor` adds the distributed depth-first search on top of the
:class:`~repro.protocol.automaton.ProtocolProcessor` machinery:

* the root, nudged by the outside source, releases a DFS token through its
  lowest-numbered connected out-port;
* a processor receiving the DFS token through a *forward* edge runs an RCA
  with the FORWARD(out-port, in-port) token — on first receipt it also
  records its parent in-port; on repeat receipts it afterwards bounces the
  token back through the arrival edge via the BCA;
* a processor whose outstanding probe returns (via the BCA) marks that
  out-port finished, runs an RCA with the BACK token, and moves on;
* a processor that has finished all its out-ports returns the DFS token to
  its parent via the BCA; when the *root* finishes all out-ports the
  protocol terminates and the root announces completion to its computer.

Deviation D2: whenever the communicating processor would be the root itself
(the DFS token enters the root forward, or the root's own probe returns),
the root pipes the record directly instead of running a degenerate RCA.

The DFS token carries "through which out-port it has been most recently
passed and through which in-port it was most recently received" — our
``Char("DFS", out_port, in_port)`` with the in-port filled on arrival.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ProtocolViolation
from repro.sim.characters import STAR, Char, MSG_DFS_RETURN, intern_char
from repro.protocol.automaton import ProtocolProcessor

__all__ = [
    "GTDProcessor",
    "PIPE_START",
    "PIPE_DFS_RETURNED",
    "PIPE_TERMINAL",
]

#: Root pipe labels (constant-size status records to the master computer).
PIPE_START = "START"
PIPE_DFS_RETURNED = "DFS_RETURNED"
PIPE_TERMINAL = "TERMINAL"

_ADVANCE = "advance"


class GTDProcessor(ProtocolProcessor):
    """One processor participating in Global Topology Determination."""

    def __init__(self) -> None:
        super().__init__()
        self.dfs_seen = False
        self.dfs_parent_in: int | None = None
        self.dfs_scan_idx = 0          # next out-port index to probe
        self.dfs_waiting_port: int | None = None
        self.after_rca: Any = None     # _ADVANCE or ("bounce", in_port)
        self.terminal = False

    # ------------------------------------------------------------------
    # protocol start (root only)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        assert self.ctx is not None and self.ctx.is_root
        self.ctx.pipe(PIPE_START)
        self.dfs_seen = True
        self._advance_dfs()

    # ------------------------------------------------------------------
    # DFS token arrivals (forward edges)
    # ------------------------------------------------------------------
    def _on_dfs_char(self, in_port: int, char: Char) -> None:
        assert self.ctx is not None
        if self.ctx.is_root:
            # Deviation D2: the information is already at the root; the
            # recv of this DFS character *is* the FORWARD record.  Bounce
            # the token back through this edge via the BCA.
            self.start_bca(in_port, MSG_DFS_RETURN)
            return
        token = intern_char("FWD", out_port=char.out_port, in_port=in_port)
        if not self.dfs_seen:
            self.dfs_seen = True
            self.dfs_parent_in = in_port
            self.after_rca = _ADVANCE
        else:
            # Already visited: after reporting FORWARD, send the token
            # straight back (a processor never wants more than one parent).
            self.after_rca = ("bounce", in_port)
        self.start_rca(token)

    # ------------------------------------------------------------------
    # RCA / BCA completions
    # ------------------------------------------------------------------
    def _on_rca_complete(self) -> None:
        action = self.after_rca
        self.after_rca = None
        if action == _ADVANCE:
            self._advance_dfs()
        elif isinstance(action, tuple) and action[0] == "bounce":
            self.start_bca(action[1], MSG_DFS_RETURN)
        else:
            raise ProtocolViolation(f"RCA completed with no pending action: {action}")

    def _on_bca_message(self, payload: str) -> None:
        if payload != MSG_DFS_RETURN:
            raise ProtocolViolation(f"unexpected BCA message {payload!r}")
        if self.dfs_waiting_port is None:
            raise ProtocolViolation(
                f"DFS return at node {self._node()} with no outstanding probe"
            )
        # "it marks that out-port finished" — the scan index is already past
        # it, so clearing the outstanding register is all that remains.
        self.dfs_waiting_port = None

    def _on_bca_target_resume(self) -> None:
        assert self.ctx is not None
        if self.ctx.is_root:
            # Deviation D2 again: pipe the BACK record directly.
            self.ctx.pipe(PIPE_DFS_RETURNED)
            self._advance_dfs()
        else:
            self.after_rca = _ADVANCE
            self.start_rca(intern_char("BACK"))

    def _on_bca_initiator_done(self) -> None:
        """Bounce/return finished; nothing more for the initiator to do."""

    # ------------------------------------------------------------------
    # DFS bookkeeping
    # ------------------------------------------------------------------
    def _advance_dfs(self) -> None:
        assert self.ctx is not None
        ports = self.ctx.out_ports
        if self.dfs_scan_idx < len(ports):
            port = ports[self.dfs_scan_idx]
            self.dfs_scan_idx += 1
            self.dfs_waiting_port = port
            self.send(port, intern_char("DFS", out_port=port, in_port=STAR))
            return
        # All out-ports finished.
        if self.ctx.is_root:
            self.terminal = True
            self.ctx.pipe(PIPE_TERMINAL)
        else:
            assert self.dfs_parent_in is not None
            self.start_bca(self.dfs_parent_in, MSG_DFS_RETURN)

    # ------------------------------------------------------------------
    def save_state(self) -> tuple:
        return (
            super().save_state(),
            self.dfs_seen,
            self.dfs_parent_in,
            self.dfs_scan_idx,
            self.dfs_waiting_port,
            self.after_rca,
            self.terminal,
        )

    def load_state(self, state: tuple) -> None:
        super().load_state(state[0])
        (
            _,
            self.dfs_seen,
            self.dfs_parent_in,
            self.dfs_scan_idx,
            self.dfs_waiting_port,
            self.after_rca,
            self.terminal,
        ) = state

    def state_snapshot(self) -> dict[str, Any]:
        snap = super().state_snapshot()
        snap["dfs"] = {
            "seen": self.dfs_seen,
            "parent_in": self.dfs_parent_in,
            "scan_idx": self.dfs_scan_idx,
            "waiting_port": self.dfs_waiting_port,
            "after_rca": self.after_rca,
            "terminal": self.terminal,
        }
        return snap
