"""The protocol automaton: snakes, tokens, RCA and BCA in one processor.

This class implements, per the paper:

* generic growing-snake handling (§2.3.2): breadth-first flooding with
  visited/parent marks, body pass-through, tail-triggered body appending;
* generic dying-snake handling (§2.3.3): eat the head, promote the next
  character, land the tail on the last path processor;
* marked-loop token routing with slot alternation (§2.4) and the root's
  pred-#1 -> succ-#2 exception;
* KILL / UNMARK cleanup (RCA steps 4-5);
* the **RCA initiator role** (processor A, §4.2.1 steps 1-5);
* the **root's RCA duties** (IG->OG and ID->OD streaming conversion);
* the **BCA initiator and recipient roles** (deviation D1 — reconstructed
  from the same toolkit; see DESIGN.md).

The DFS layer of the Global Topology Determination protocol lives in the
:class:`~repro.protocol.gtd.GTDProcessor` subclass; scripted single-RCA /
single-BCA drivers for the unit benchmarks live in
:mod:`repro.protocol.rca` / :mod:`repro.protocol.bca`.

Every register here is O(delta) — the finite-state audit enforces it.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any

from repro.errors import ProtocolViolation
from repro.sim.characters import (
    Char,
    MSG_DFS_RETURN,
    SCOPE_BCA,
    SCOPE_RCA,
    STAR,
    convert,
    growing_family_of,
    intern_char,
    is_growing,
    make_body,
    make_head,
    make_tail,
    snake_role,
)
from repro.sim.processor import Processor
from repro.protocol.marks import BcaSlot, DyingRelay, GrowingMarks, LoopSlots

__all__ = ["ProtocolProcessor"]

# Phase registers are small ints (IntEnum), so the hot-loop comparisons
# below are int equality and the idle checks are plain truthiness (the
# quiescent member of each enum is 0).  The externally visible labels —
# what :meth:`ProtocolProcessor.state_snapshot` reports — are the
# lower-cased member names, pinned unchanged by the test suite.


class _RcaPhase(IntEnum):
    """RCA initiator phases (processor A working through §4.2.1)."""

    IDLE = 0
    WAIT_OG = 1       # step 1 done, waiting for first OG head
    CONVERT = 2       # step 3: streaming OG -> ID
    WAIT_ODT = 3      # step 3: waiting for the OD tail
    WAIT_LOOP = 4     # step 4: FORWARD/BACK circling the loop
    WAIT_UNMARK = 5   # step 5: UNMARK circling the loop


class _RootPhase(IntEnum):
    """Root phases for its RCA duties."""

    OPEN = 0          # accepting the next IG head
    IG_STREAM = 1     # converting IG -> OG
    AWAIT_ID = 2      # waiting for the ID head
    ID_STREAM = 3     # converting ID -> OD
    LOOP = 4          # relaying FORWARD/BACK then UNMARK


class _BcaPhase(IntEnum):
    """BCA initiator phases (processor B, deviation D1)."""

    IDLE = 0
    SEARCH = 1        # BG flood out, waiting on the target in-port
    CONVERT = 2       # streaming BG -> BD
    WAIT_TAIL = 3     # BD tail circling back to B
    WAIT_DONE = 4     # BDONE circling the loop
    WAIT_UNMARK = 5   # BCA UNMARK circling the loop


_RCA_IDLE = _RcaPhase.IDLE
_RCA_WAIT_OG = _RcaPhase.WAIT_OG
_RCA_CONVERT = _RcaPhase.CONVERT
_RCA_WAIT_ODT = _RcaPhase.WAIT_ODT
_RCA_WAIT_LOOP = _RcaPhase.WAIT_LOOP
_RCA_WAIT_UNMARK = _RcaPhase.WAIT_UNMARK

_ROOT_OPEN = _RootPhase.OPEN
_ROOT_IG_STREAM = _RootPhase.IG_STREAM
_ROOT_AWAIT_ID = _RootPhase.AWAIT_ID
_ROOT_ID_STREAM = _RootPhase.ID_STREAM
_ROOT_LOOP = _RootPhase.LOOP

_BCA_IDLE = _BcaPhase.IDLE
_BCA_SEARCH = _BcaPhase.SEARCH
_BCA_CONVERT = _BcaPhase.CONVERT
_BCA_WAIT_TAIL = _BcaPhase.WAIT_TAIL
_BCA_WAIT_DONE = _BcaPhase.WAIT_DONE
_BCA_WAIT_UNMARK = _BcaPhase.WAIT_UNMARK


# KILL purge predicates, one per scope.  Module-level (not per-call
# lambdas) so the object path and the code-space handler table share the
# exact same callables; semantics match ``growing_family_of`` exactly.
def _purge_rca_growing(char: Char) -> bool:
    return is_growing(char) and char.kind[:2] in ("IG", "OG")


def _purge_bca_growing(char: Char) -> bool:
    return is_growing(char) and char.kind[:2] == "BG"


class ProtocolProcessor(Processor):
    """A finite-state processor speaking the paper's full character protocol.

    Subclass hooks (all no-ops here):

    * :meth:`_on_dfs_char` — a DFS token arrived (GTD layer);
    * :meth:`_on_rca_complete` — this processor's own RCA finished (step 5);
    * :meth:`_on_bca_message` — a BCA delivered its message to *this*
      processor (it is the penultimate loop node);
    * :meth:`_on_bca_target_resume` — the BCA that delivered to this
      processor has finished cleaning up; safe to act;
    * :meth:`_on_bca_initiator_done` — this processor's own BCA finished.
    """

    #: The KILL token only ever erases growing-snake characters (§2.3.4);
    #: both purge sites below filter on ``is_growing``.  Declaring it lets
    #: the flat-core backend wire never-purged kinds straight to the wheel.
    PURGES_ONLY_GROWING = True

    def __init__(self) -> None:
        super().__init__()
        self.growing = {"IG": GrowingMarks(), "OG": GrowingMarks(), "BG": GrowingMarks()}
        self.relay = {"ID": DyingRelay(), "OD": DyingRelay(), "BD": DyingRelay()}
        # Flat aliases of the registers above, one attribute load each for
        # the code-space handlers.  Aliases — not copies: reset() re-runs
        # this __init__, so handlers must reach the registers through
        # ``self`` per call, never capture them in closures.
        self._marks_ig = self.growing["IG"]
        self._marks_og = self.growing["OG"]
        self._marks_bg = self.growing["BG"]
        self._relay_id = self.relay["ID"]
        self._relay_od = self.relay["OD"]
        self._relay_bd = self.relay["BD"]
        self.loop = LoopSlots()
        self.bca_slot = BcaSlot()
        # RCA initiator registers
        self.rca_phase = _RCA_IDLE
        self.rca_token: Char | None = None
        self.rca_accept_port: int | None = None
        self.rca_promote = False
        # Root registers
        self.root_phase = _ROOT_OPEN
        self.root_ig_src: int | None = None
        self.root_id_promote = False
        # BCA initiator registers
        self.bca_phase = _BCA_IDLE
        self.bca_in_port: int | None = None
        self.bca_msg: str | None = None
        self.bca_promote = False
        # statistics (not protocol state): completed-RCA counter for tests
        self.rca_completed = 0
        self.bca_completed = 0

    # ==================================================================
    # dispatch
    # ==================================================================
    def handle(self, in_port: int, char: Char) -> None:
        """Route ``char`` to the adapter :attr:`_DISPATCH_NAMES` names for its kind."""
        name = self._DISPATCH_NAMES.get(char.kind)
        if name is None:
            raise ProtocolViolation(f"unknown character {char} at node {self._node()}")
        getattr(self, name)(in_port, char)

    # Uniform (in_port, char) adapters for the scheduler's dispatch tables.
    def _dispatch_kill(self, in_port: int, char: Char) -> None:
        self._handle_kill(char)

    def _dispatch_unmark(self, in_port: int, char: Char) -> None:
        if char.payload == SCOPE_RCA:
            self._handle_unmark_rca(in_port, char)
        else:
            self._handle_unmark_bca(in_port, char)

    # The adapters inline :func:`fill_in_port` (the dispatch table already
    # guarantees the kind, so only the STAR check remains) and each growing
    # adapter tests its own family's interception (the root for IG, an
    # RCA initiator for OG, a BCA initiator for BG) before the relay.
    def _dispatch_dfs(self, in_port: int, char: Char) -> None:
        if char.in_port == STAR:
            char = intern_char(char.kind, char.out_port, in_port, char.payload)
        self._on_dfs_char(in_port, char)

    def _dispatch_growing_ig(self, in_port: int, char: Char) -> None:
        if char.in_port == STAR:
            char = intern_char(char.kind, char.out_port, in_port, char.payload)
        if self.ctx.is_root:
            self._root_handle_ig(in_port, char)
        else:
            self._relay_growing(self.growing["IG"], "IG", in_port, char)

    def _dispatch_growing_og(self, in_port: int, char: Char) -> None:
        if char.in_port == STAR:
            char = intern_char(char.kind, char.out_port, in_port, char.payload)
        if self.rca_phase != _RCA_IDLE:
            self._rca_handle_og(in_port, char)
        else:
            self._relay_growing(self.growing["OG"], "OG", in_port, char)

    def _dispatch_growing_bg(self, in_port: int, char: Char) -> None:
        if char.in_port == STAR:
            char = intern_char(char.kind, char.out_port, in_port, char.payload)
        if self.bca_phase != _BCA_IDLE:
            self._bca_handle_bg(in_port, char)
        else:
            self._relay_growing(self.growing["BG"], "BG", in_port, char)

    def _dispatch_dying_id(self, in_port: int, char: Char) -> None:
        self._handle_rca_dying("ID", in_port, char)

    def _dispatch_dying_od(self, in_port: int, char: Char) -> None:
        self._handle_rca_dying("OD", in_port, char)

    #: character kind -> adapter method name; expanded into bound-method
    #: tables per instance by :meth:`handler_table`.
    _DISPATCH_NAMES: dict[str, str] = {
        "KILL": "_dispatch_kill",
        "UNMARK": "_dispatch_unmark",
        "DFS": "_dispatch_dfs",
        "FWD": "_handle_loop_token",
        "BACK": "_handle_loop_token",
        "BDONE": "_handle_bdone",
        "BDH": "_handle_bd",
        "BDB": "_handle_bd",
        "BDT": "_handle_bd",
        **{f"IG{role}": "_dispatch_growing_ig" for role in "HBT"},
        **{f"OG{role}": "_dispatch_growing_og" for role in "HBT"},
        **{f"BG{role}": "_dispatch_growing_bg" for role in "HBT"},
        **{f"ID{role}": "_dispatch_dying_id" for role in "HBT"},
        **{f"OD{role}": "_dispatch_dying_od" for role in "HBT"},
    }

    def handler_table(self) -> dict[str, Any]:
        """Precomputed per-kind dispatch table for the scheduler core.

        Subclasses that override :meth:`handle` itself get an empty table,
        so their override stays authoritative for every character.
        """
        if type(self).handle is not ProtocolProcessor.handle:
            return {}
        return {
            kind: getattr(self, name) for kind, name in self._DISPATCH_NAMES.items()
        }

    def code_handler_table(self, kernel, chars, csend, cbroadcast):
        """Code-space handlers: ``handler(in_port, code)``, no Char objects.

        Built once per engine attach by the flat-core backend for non-root
        nodes running on its send-time fast path.  Every *hot* protocol
        action — growing-snake relays, dying-snake body streaming, KILL
        floods, loop-token and UNMARK routing — runs entirely on small-int
        codes: character queries are one indexed load into the
        :class:`~repro.sim.characters.CharKernel` tables, and emissions go
        straight to the packed wheel through ``csend(out_port, code,
        arrival_tick)`` / ``cbroadcast(code, arrival_tick)``.  Cold or
        intricate branches (interceptions, head promotion, terminal
        absorb-and-release steps, protocol violations) delegate to the
        object-path handlers via ``chars[code]``, so semantics — including
        exception messages — are byte-identical by construction.

        The engine applies the kernel fill rows *before* dispatch, so
        ``code`` is always concrete here (mirroring the object loop, which
        fills before calling the per-kind handler).  Handlers reach every
        mutable register through ``self`` per call — :meth:`reset` re-runs
        ``__init__`` and rebinds them all.  Returns ``None`` (no table)
        when a subclass overrides :meth:`handle`, mirroring
        :meth:`handler_table`.
        """
        if type(self).handle is not ProtocolProcessor.handle:
            return None
        role_list = kernel.role_list
        body_ig = kernel.body_codes[0]
        body_og = kernel.body_codes[1]
        body_bg = kernel.body_codes[4]
        # the wiring context is attach-stable (reset re-attaches the same
        # NodeContext), so the connected out-ports may be captured
        out_ports = self.ctx.out_ports

        def c_ig(in_port: int, code: int) -> None:
            # §2.3.2 relay for IG (the root intercepts IG, but the engine
            # never installs code handlers on the root)
            marks = self._marks_ig
            if not marks.visited:
                if role_list[code] == 0:
                    marks.mark(in_port)
                    cbroadcast(code, self._tick + 3)
                return
            if in_port != marks.parent_in:
                return
            if role_list[code] == 2:
                arrival = self._tick + 3
                for port in out_ports:
                    csend(port, body_ig[port], arrival)
                cbroadcast(code, arrival + 1)
            else:
                cbroadcast(code, self._tick + 3)

        def c_og(in_port: int, code: int) -> None:
            if self.rca_phase:
                self._rca_handle_og(in_port, chars[code])
                return
            marks = self._marks_og
            if not marks.visited:
                if role_list[code] == 0:
                    marks.mark(in_port)
                    cbroadcast(code, self._tick + 3)
                return
            if in_port != marks.parent_in:
                return
            if role_list[code] == 2:
                arrival = self._tick + 3
                for port in out_ports:
                    csend(port, body_og[port], arrival)
                cbroadcast(code, arrival + 1)
            else:
                cbroadcast(code, self._tick + 3)

        def c_bg(in_port: int, code: int) -> None:
            if self.bca_phase:
                self._bca_handle_bg(in_port, chars[code])
                return
            marks = self._marks_bg
            if not marks.visited:
                if role_list[code] == 0:
                    marks.mark(in_port)
                    cbroadcast(code, self._tick + 3)
                return
            if in_port != marks.parent_in:
                return
            if role_list[code] == 2:
                arrival = self._tick + 3
                for port in out_ports:
                    csend(port, body_bg[port], arrival)
                cbroadcast(code, arrival + 1)
            else:
                cbroadcast(code, self._tick + 3)

        def c_id(in_port: int, code: int) -> None:
            # §2.3.3 body streaming; heads, tails, promotion and the root
            # interception all delegate (rare: once per snake per node)
            relay = self._relay_id
            if (
                relay.active
                and in_port == relay.pred
                and not relay.promote_next
                and role_list[code] == 1
            ):
                csend(relay.succ, code, self._tick + 3)
            else:
                self._handle_rca_dying("ID", in_port, chars[code])

        def c_od(in_port: int, code: int) -> None:
            relay = self._relay_od
            if (
                relay.active
                and in_port == relay.pred
                and not relay.promote_next
                and role_list[code] == 1
            ):
                csend(relay.succ, code, self._tick + 3)
            else:
                self._handle_rca_dying("OD", in_port, chars[code])

        def c_bd(in_port: int, code: int) -> None:
            relay = self._relay_bd
            if (
                relay.active
                and in_port == relay.pred
                and not relay.promote_next
                and role_list[code] == 1
            ):
                csend(relay.succ, code, self._tick + 3)
            else:
                self._handle_bd(in_port, chars[code])

        def c_loop(in_port: int, code: int) -> None:
            # the initiator's absorb (step 4 -> 5) delegates; route() only
            # mutates the alternation state when it succeeds, so a None
            # return can safely re-run through the object path to raise
            if self.rca_phase == _RCA_WAIT_LOOP and in_port == self.loop.pred1:
                self._handle_loop_token(in_port, chars[code])
                return
            succ = self.loop.route(in_port)
            if succ is None:
                self._handle_loop_token(in_port, chars[code])
                return
            csend(succ, code, self._tick + 3)

        def c_unmark_rca(in_port: int, code: int) -> None:
            if self.rca_phase == _RCA_WAIT_UNMARK and in_port == self.loop.pred1:
                self._handle_unmark_rca(in_port, chars[code])
                return
            succ = self.loop.unmark(in_port)
            if succ is None:
                self._handle_unmark_rca(in_port, chars[code])
                return
            csend(succ, code, self._tick + 1)

        def c_kill_rca(in_port: int, code: int) -> None:
            purged = self.purge_outbox(_purge_rca_growing)
            ig = self._marks_ig
            og = self._marks_og
            if purged or ig.visited or og.visited:
                ig.clear()
                og.clear()
                cbroadcast(code, self._tick + 1)

        def c_kill_bca(in_port: int, code: int) -> None:
            purged = self.purge_outbox(_purge_bca_growing)
            bg = self._marks_bg
            if purged or bg.visited:
                bg.clear()
                cbroadcast(code, self._tick + 1)

        # Handler-plan slots (classified once in the kernel): the family
        # index for snakes, 6 = loop token, 7/8 = RCA/BCA KILL, 9 = RCA
        # UNMARK.  DFS, BDONE and the BCA UNMARK stay on the object path
        # (cold or subclass-hooked); a None entry is the engine's fallback.
        impl = (
            c_ig, c_og, c_id, c_od, c_bg, c_bd,
            c_loop, c_kill_rca, c_kill_bca, c_unmark_rca,
        )
        return [impl[slot] if slot >= 0 else None for slot in kernel.handler_plan]

    # ==================================================================
    # growing snakes (§2.3.2)
    # ==================================================================
    def _relay_growing(
        self, marks: GrowingMarks, family: str, in_port: int, char: Char
    ) -> None:
        """The generic §2.3.2 relay: flood heads, pass bodies, append tails."""
        assert self.ctx is not None
        role = char.kind[2]
        if not marks.visited:
            if role == "H":
                # First head claims this processor for its breadth-first tree.
                marks.mark(in_port)
                self.broadcast(char)
            # Stray body/tail at an unvisited processor: post-KILL debris,
            # dropped (deviation D6).
            return
        if in_port != marks.parent_in:
            # "all other <family>-snake characters will be ignored"
            return
        if role == "T":
            # Append this processor's own position, then pass the tail.
            for port in self.ctx.out_ports:
                self.send(port, make_body(family, port))
            self.broadcast(char, extra_delay=1)
        else:
            self.broadcast(char)

    # ------------------------------------------------------------------
    # root duties: IG -> OG conversion (RCA step 2)
    # ------------------------------------------------------------------
    def _root_handle_ig(self, in_port: int, char: Char) -> None:
        role = snake_role(char)
        if self.root_phase == _ROOT_OPEN:
            if role != "H":
                return  # stray debris
            # Accept: close to further IG-snakes, start converting to OG.
            self.root_phase = _ROOT_IG_STREAM
            self.root_ig_src = in_port
            # The root originates the OG flood; mark it so returning OG
            # snakes are ignored rather than relayed in a cycle.
            self.growing["OG"].mark(None)
            self.broadcast(convert(char, "OG"))
            return
        if self.root_phase == _ROOT_IG_STREAM and in_port == self.root_ig_src:
            if role == "B":
                self.broadcast(convert(char, "OG"))
            elif role == "T":
                # Hold the tail, append the root's own body character
                # through each out-port, then release the tail (§4.2.1.2).
                for port in self.ctx.out_ports:
                    self.send(port, make_body("OG", port))
                self.broadcast(make_tail("OG"), extra_delay=1)
                self.root_phase = _ROOT_AWAIT_ID
            else:
                raise ProtocolViolation("second IG head on the accepted stream")
            return
        # Closed to all other IG characters.

    # ------------------------------------------------------------------
    # RCA initiator: waiting for / converting the OG snake (step 3)
    # ------------------------------------------------------------------
    def _rca_handle_og(self, in_port: int, char: Char) -> None:
        role = snake_role(char)
        if self.rca_phase == _RCA_WAIT_OG:
            if role != "H":
                return  # debris
            # First surviving OG head: close off, eat it as an ID head.
            self.rca_accept_port = in_port
            self.loop.set_slot(1, pred=in_port, succ=char.out_port)
            self.rca_promote = True
            self.rca_phase = _RCA_CONVERT
            return
        if self.rca_phase == _RCA_CONVERT and in_port == self.rca_accept_port:
            succ = self.loop.succ1
            assert succ is not None
            if role == "B":
                out_kind = "IDH" if self.rca_promote else "IDB"
                self.rca_promote = False
                self.send(succ, intern_char(out_kind, char.out_port, char.in_port))
            elif role == "T":
                self.send(succ, make_tail("ID"))
                self.rca_phase = _RCA_WAIT_ODT
            else:
                raise ProtocolViolation("second OG head on the accepted stream")
            return
        # Closed to all other OG characters.

    # ------------------------------------------------------------------
    # BCA initiator: waiting for / converting the BG snake (deviation D1)
    # ------------------------------------------------------------------
    def _bca_handle_bg(self, in_port: int, char: Char) -> None:
        role = snake_role(char)
        if self.bca_phase == _BCA_SEARCH:
            if role == "H" and in_port == self.bca_in_port:
                # First BG head back through the target in-port: the snake
                # encodes a minimal loop B -> ... -> A -> B.
                self.bca_slot.set(pred=in_port, succ=char.out_port)
                self.bca_promote = True
                self.bca_phase = _BCA_CONVERT
            # All other BG characters are ignored: B never relays BG.
            return
        if self.bca_phase == _BCA_CONVERT and in_port == self.bca_in_port:
            succ = self.bca_slot.succ
            assert succ is not None
            if role == "B":
                out_kind = "BDH" if self.bca_promote else "BDB"
                self.bca_promote = False
                self.send(succ, intern_char(out_kind, char.out_port, char.in_port))
            elif role == "T":
                if self.bca_promote:
                    # Loop of length 1 (self-loop): B is its own recipient.
                    self.bca_slot.is_target = True
                    self.bca_promote = False
                    assert self.bca_msg is not None
                    self._on_bca_message(self.bca_msg)
                self.send(succ, make_tail("BD", payload=self.bca_msg))
                self.bca_phase = _BCA_WAIT_TAIL
            return
        # Otherwise: ignore.

    # ==================================================================
    # dying snakes (§2.3.3)
    # ==================================================================
    def _handle_rca_dying(self, family: str, in_port: int, char: Char) -> None:
        assert self.ctx is not None
        role = snake_role(char)
        if family == "ID" and self.ctx.is_root:
            self._root_handle_id(in_port, char)
            return
        if family == "OD" and self.rca_phase == _RCA_WAIT_ODT and role == "T":
            # RCA step 4: A received the OD tail; the loop is fully marked.
            self._rca_release_kill_and_token()
            return
        relay = self.relay[family]
        slot = 1 if family == "ID" else 2
        if role == "H":
            if relay.active:
                raise ProtocolViolation(f"{family} head while already relaying")
            self.loop.set_slot(slot, pred=in_port, succ=char.out_port)
            relay.start(pred=in_port, succ=char.out_port)
            return  # head is eaten
        if relay.active and in_port == relay.pred:
            succ = relay.succ
            assert succ is not None
            if role == "B":
                out_kind = family + ("H" if relay.promote_next else "B")
                relay.promote_next = False
                self.send(succ, intern_char(out_kind, char.out_port, char.in_port))
            else:  # tail
                self.send(succ, char)
                relay.finish()
            return
        raise ProtocolViolation(
            f"unexpected {char} at node {self._node()} via in-port {in_port}"
        )

    def _root_handle_id(self, in_port: int, char: Char) -> None:
        """Root exception: ID characters convert to OD (§2.3.3)."""
        role = snake_role(char)
        if self.root_phase == _ROOT_AWAIT_ID:
            if role != "H":
                raise ProtocolViolation("root expected an ID head")
            # "the root will set predecessor in-port #1 and successor
            # out-port #2 appropriately"
            self.loop.pred1 = in_port
            self.loop.succ2 = char.out_port
            self.root_id_promote = True
            self.root_phase = _ROOT_ID_STREAM
            return  # head eaten (converted into loop marks)
        if self.root_phase == _ROOT_ID_STREAM and in_port == self.loop.pred1:
            succ = self.loop.succ2
            assert succ is not None
            if role == "B":
                out_kind = "ODH" if self.root_id_promote else "ODB"
                self.root_id_promote = False
                self.send(succ, intern_char(out_kind, char.out_port, char.in_port))
            elif role == "T":
                self.send(succ, make_tail("OD"))
                self.root_phase = _ROOT_LOOP
            else:
                raise ProtocolViolation("second ID head at root")
            return
        raise ProtocolViolation(f"unexpected ID character {char} at root")

    # ------------------------------------------------------------------
    # BD: the BCA's dying snake, including message delivery
    # ------------------------------------------------------------------
    def _handle_bd(self, in_port: int, char: Char) -> None:
        role = snake_role(char)
        if (
            self.bca_phase == _BCA_WAIT_TAIL
            and role == "T"
            and in_port == self.bca_slot.pred
        ):
            # The tail returned to B: the loop is marked and the message was
            # delivered one hop ago.  Clean up (mirrors RCA step 4).
            self._release_kill(SCOPE_BCA)
            succ = self.bca_slot.succ
            assert succ is not None
            self.send(succ, intern_char("BDONE"))
            self.bca_phase = _BCA_WAIT_DONE
            return
        relay = self.relay["BD"]
        if role == "H":
            if relay.active:
                raise ProtocolViolation("BD head while already relaying")
            self.bca_slot.set(pred=in_port, succ=char.out_port)
            relay.start(pred=in_port, succ=char.out_port)
            return
        if relay.active and in_port == relay.pred:
            succ = relay.succ
            assert succ is not None
            if role == "B":
                out_kind = "BDH" if relay.promote_next else "BDB"
                relay.promote_next = False
                self.send(succ, intern_char(out_kind, char.out_port, char.in_port))
            else:  # tail
                if relay.promote_next:
                    # Head immediately followed by tail: this processor is
                    # the penultimate loop node — the message recipient.
                    self.bca_slot.is_target = True
                    if char.payload is None:
                        raise ProtocolViolation("BD tail carried no message")
                    self._on_bca_message(char.payload)
                self.send(succ, char)
                relay.finish()
            return
        raise ProtocolViolation(
            f"unexpected {char} at node {self._node()} via in-port {in_port}"
        )

    # ==================================================================
    # loop tokens (§2.4): FORWARD / BACK, BDONE
    # ==================================================================
    def _handle_loop_token(self, in_port: int, char: Char) -> None:
        assert self.ctx is not None
        if self.rca_phase == _RCA_WAIT_LOOP and in_port == self.loop.pred1:
            # The initiator absorbs its token and starts UNMARK (step 5).
            succ = self.loop.succ1
            assert succ is not None
            self.send(succ, intern_char("UNMARK", payload=SCOPE_RCA))
            self.rca_phase = _RCA_WAIT_UNMARK
            return
        if self.ctx.is_root and self.root_phase == _ROOT_LOOP:
            # Root exception: accept through pred #1, pass through succ #2.
            if in_port != self.loop.pred1:
                raise ProtocolViolation("loop token at root via wrong in-port")
            succ = self.loop.succ2
            assert succ is not None
            self.send(succ, char)
            return
        succ = self.loop.route(in_port)
        if succ is None:
            raise ProtocolViolation(
                f"loop token {char} at node {self._node()} via "
                f"inappropriate in-port {in_port}"
            )
        self.send(succ, char)

    def _handle_bdone(self, in_port: int, char: Char) -> None:
        if self.bca_phase == _BCA_WAIT_DONE and in_port == self.bca_slot.pred:
            # B absorbs its BDONE: growing debris is dead; start UNMARK.
            succ = self.bca_slot.succ
            assert succ is not None
            self.send(succ, intern_char("UNMARK", payload=SCOPE_BCA))
            self.bca_phase = _BCA_WAIT_UNMARK
            return
        if self.bca_slot.active() and in_port == self.bca_slot.pred:
            assert self.bca_slot.succ is not None
            self.send(self.bca_slot.succ, char)
            return
        raise ProtocolViolation(f"BDONE at node {self._node()} off the loop")

    # ==================================================================
    # cleanup: KILL and UNMARK
    # ==================================================================
    def _handle_kill(self, char: Char) -> None:
        scope = char.payload or SCOPE_RCA
        families = growing_family_of(scope)
        purged = self.purge_outbox(
            _purge_rca_growing if scope == SCOPE_RCA else _purge_bca_growing
        )
        marked = any(self.growing[f].visited for f in families)
        if marked or purged:
            for family in families:
                self.growing[family].clear()
            self.broadcast(char)
        # else: no growing traces here — absorb silently.

    def _handle_unmark_rca(self, in_port: int, char: Char) -> None:
        assert self.ctx is not None
        if self.rca_phase == _RCA_WAIT_UNMARK and in_port == self.loop.pred1:
            # UNMARK made it all the way around: terminate (step 5).
            self.loop.clear()
            self._reset_rca_registers()
            self.rca_completed += 1
            self._on_rca_complete()
            return
        if self.ctx.is_root and self.root_phase == _ROOT_LOOP:
            if in_port != self.loop.pred1:
                raise ProtocolViolation("UNMARK at root via wrong in-port")
            succ = self.loop.succ2
            assert succ is not None
            self.send(succ, char)
            self.loop.clear()
            self.root_phase = _ROOT_OPEN  # reopen to IG-snakes
            return
        succ = self.loop.unmark(in_port)
        if succ is None:
            raise ProtocolViolation(
                f"UNMARK at node {self._node()} via inappropriate in-port {in_port}"
            )
        self.send(succ, char)

    def _handle_unmark_bca(self, in_port: int, char: Char) -> None:
        if self.bca_phase == _BCA_WAIT_UNMARK and in_port == self.bca_slot.pred:
            was_target = self.bca_slot.is_target
            self.bca_slot.clear()
            self._reset_bca_registers()
            self.bca_completed += 1
            self._on_bca_initiator_done()
            if was_target:
                # Self-loop bounce: B was its own recipient.
                self._on_bca_target_resume()
            return
        if self.bca_slot.active() and in_port == self.bca_slot.pred:
            assert self.bca_slot.succ is not None
            was_target = self.bca_slot.is_target
            self.send(self.bca_slot.succ, char)
            self.bca_slot.clear()
            if was_target:
                self._on_bca_target_resume()
            return
        raise ProtocolViolation(f"BCA UNMARK at node {self._node()} off the loop")

    # ==================================================================
    # initiator entry points
    # ==================================================================
    def start_rca(self, token: Char) -> None:
        """Begin the Root Communication Algorithm as processor A.

        ``token`` is the FORWARD or BACK loop token to circulate in step 4.
        """
        assert self.ctx is not None
        if self.rca_phase != _RCA_IDLE:
            raise ProtocolViolation("RCA already in progress at this processor")
        if self.ctx.is_root:
            raise ProtocolViolation(
                "the root does not run the RCA with itself (deviation D2)"
            )
        self.rca_token = token
        self.rca_phase = _RCA_WAIT_OG
        # Step 1: release IG-snakes; mark self so they never re-enter.
        self.growing["IG"].mark(None)
        for port in self.ctx.out_ports:
            self.send(port, make_head("IG", port))
        self.broadcast(make_tail("IG"), extra_delay=1)

    def start_bca(self, in_port: int, message: str = MSG_DFS_RETURN) -> None:
        """Send ``message`` backwards through ``in_port`` (the BCA, as B)."""
        assert self.ctx is not None
        if self.bca_phase != _BCA_IDLE:
            raise ProtocolViolation("BCA already in progress at this processor")
        if in_port not in self.ctx.in_ports:
            raise ProtocolViolation(f"in-port {in_port} is not connected")
        self.bca_in_port = in_port
        self.bca_msg = message
        self.bca_phase = _BCA_SEARCH
        self.growing["BG"].mark(None)
        for port in self.ctx.out_ports:
            self.send(port, make_head("BG", port))
        self.broadcast(make_tail("BG"), extra_delay=1)

    # ------------------------------------------------------------------
    def _rca_release_kill_and_token(self) -> None:
        """RCA step 4: speed-3 KILL plus the speed-1 FORWARD/BACK token."""
        assert self.rca_token is not None
        self._release_kill(SCOPE_RCA)
        succ = self.loop.succ1
        assert succ is not None
        self.send(succ, self.rca_token)
        self.rca_phase = _RCA_WAIT_LOOP

    def _release_kill(self, scope: str) -> None:
        """Broadcast a KILL and erase this processor's own growing traces."""
        families = growing_family_of(scope)
        for family in families:
            self.growing[family].clear()
        self.purge_outbox(
            _purge_rca_growing if scope == SCOPE_RCA else _purge_bca_growing
        )
        self.broadcast(intern_char("KILL", payload=scope))

    def _reset_rca_registers(self) -> None:
        self.rca_phase = _RCA_IDLE
        self.rca_token = None
        self.rca_accept_port = None
        self.rca_promote = False

    def _reset_bca_registers(self) -> None:
        self.bca_phase = _BCA_IDLE
        self.bca_in_port = None
        self.bca_msg = None
        self.bca_promote = False

    # ==================================================================
    # subclass hooks
    # ==================================================================
    def _on_dfs_char(self, in_port: int, char: Char) -> None:
        raise ProtocolViolation(
            f"DFS token reached a processor with no DFS layer (node {self._node()})"
        )

    def _on_rca_complete(self) -> None:
        """Called when this processor's own RCA terminates (step 5)."""

    def _on_bca_message(self, payload: str) -> None:
        """Called when a BCA delivers ``payload`` to this processor."""

    def _on_bca_target_resume(self) -> None:
        """Called when the delivering BCA has finished cleanup."""

    def _on_bca_initiator_done(self) -> None:
        """Called when this processor's own BCA terminates."""

    # ==================================================================
    # checkpoint support
    # ==================================================================
    def save_state(self) -> tuple:
        """The base registers, then every protocol register (checkpoints).

        The register bundles are restored in place by :meth:`load_state`,
        so the flat aliases (``_marks_ig`` and friends) stay valid.
        """
        ig, og, bg = self._marks_ig, self._marks_og, self._marks_bg
        rid, rod, rbd = self._relay_id, self._relay_od, self._relay_bd
        loop, slot = self.loop, self.bca_slot
        return (
            super().save_state(),
            ig.visited, ig.parent_in, og.visited, og.parent_in,
            bg.visited, bg.parent_in,
            rid.active, rid.promote_next, rid.pred, rid.succ,
            rod.active, rod.promote_next, rod.pred, rod.succ,
            rbd.active, rbd.promote_next, rbd.pred, rbd.succ,
            loop.pred1, loop.succ1, loop.pred2, loop.succ2, loop.expect,
            slot.pred, slot.succ, slot.is_target,
            self.rca_phase, self.rca_token, self.rca_accept_port, self.rca_promote,
            self.root_phase, self.root_ig_src, self.root_id_promote,
            self.bca_phase, self.bca_in_port, self.bca_msg, self.bca_promote,
            self.rca_completed, self.bca_completed,
        )

    def load_state(self, state: tuple) -> None:
        super().load_state(state[0])
        ig, og, bg = self._marks_ig, self._marks_og, self._marks_bg
        rid, rod, rbd = self._relay_id, self._relay_od, self._relay_bd
        loop, slot = self.loop, self.bca_slot
        (
            _,
            ig.visited, ig.parent_in, og.visited, og.parent_in,
            bg.visited, bg.parent_in,
            rid.active, rid.promote_next, rid.pred, rid.succ,
            rod.active, rod.promote_next, rod.pred, rod.succ,
            rbd.active, rbd.promote_next, rbd.pred, rbd.succ,
            loop.pred1, loop.succ1, loop.pred2, loop.succ2, loop.expect,
            slot.pred, slot.succ, slot.is_target,
            self.rca_phase, self.rca_token, self.rca_accept_port, self.rca_promote,
            self.root_phase, self.root_ig_src, self.root_id_promote,
            self.bca_phase, self.bca_in_port, self.bca_msg, self.bca_promote,
            self.rca_completed, self.bca_completed,
        ) = state

    # ==================================================================
    # audit support
    # ==================================================================
    def state_snapshot(self) -> dict[str, Any]:
        return {
            "growing": {f: m.snapshot() for f, m in self.growing.items()},
            "relay": {f: r.snapshot() for f, r in self.relay.items()},
            "loop": self.loop.snapshot(),
            "bca_slot": self.bca_slot.snapshot(),
            "rca": {
                "phase": self.rca_phase.name.lower(),
                "token": self.rca_token.kind if self.rca_token else None,
                "accept_port": self.rca_accept_port,
                "promote": self.rca_promote,
            },
            "root": {
                "phase": self.root_phase.name.lower(),
                "ig_src": self.root_ig_src,
                "id_promote": self.root_id_promote,
            },
            "bca": {
                "phase": self.bca_phase.name.lower(),
                "in_port": self.bca_in_port,
                "msg": self.bca_msg,
                "promote": self.bca_promote,
            },
        }

    def is_protocol_idle(self) -> bool:
        """No protocol activity of any kind at this processor.

        Used by the Lemma 4.2 cleanup invariant: after an RCA/BCA finishes
        (and at protocol end), every register must be back to quiescent.
        """
        return (
            not any(m.visited for m in self.growing.values())
            and not any(r.active for r in self.relay.values())
            and not self.loop.any_set()
            and not self.bca_slot.active()
            and self.rca_phase == _RCA_IDLE
            and self.bca_phase == _BCA_IDLE
            and self.root_phase in (_ROOT_OPEN,)
            and not self.has_pending_output()
        )

    def _node(self) -> int:
        return self.ctx.node if self.ctx else -1
