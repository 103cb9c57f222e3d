"""The compile-time character kernel (:class:`repro.sim.characters.CharKernel`).

Exhaustive parity between the code-space lists the flat engine reads and
the object-path character functions they replace: every code of the
Lemma 5.2 census (plus the filled-tail closure), every in-port of the fill
rows, every role, growing flag, packed priority and handler slot — checked
against ``is_snake``/``is_growing``/``snake_family``/``snake_role``/
``fill_in_port`` and the scheduler's priorities directly — and every row of
the ``char_trans`` transition program, executed against the object-path
automaton.  Also pins the externally visible automaton phase labels
(IntEnum-backed).  The kernel is a per-process function of ``delta``; the
artifact-library migration of the retired kernel-carrying formats lives
in ``tests/test_artifacts.py``.
"""

from __future__ import annotations

import pytest

from repro.protocol.automaton import ProtocolProcessor, _BcaPhase, _RcaPhase, _RootPhase
from repro.sim.engine import NodeContext
from repro.sim.characters import (
    GROWING_FAMILIES,
    PRIO_SHIFT,
    SCOPE_RCA,
    SNAKE_FAMILIES,
    STAR,
    TRANS_CODE_SHIFT,
    TRANS_OP_BCAST,
    TRANS_OP_MARK,
    TRANS_OP_MASK,
    TRANS_OP_SEND,
    TRANS_OP_TAIL,
    TRANS_PHASE_MASK,
    TRANS_PHASE_SHIFT,
    TRANS_PORT_MASK,
    TRANS_PORT_SHIFT,
    CharKernel,
    alphabet_size,
    dying_phase,
    enumerate_alphabet,
    fill_in_port,
    growing_esc_phase,
    is_growing,
    is_snake,
    kernel_alphabet,
    kernel_for,
    kernel_size,
    n_phases,
    snake_family,
    snake_role,
)
from repro.sim.scheduler import KIND_PRIORITY

DELTAS = (2, 3)


# ----------------------------------------------------------------------
# satellite: external phase labels survive the IntEnum migration
# ----------------------------------------------------------------------
class TestPhaseLabels:
    """The string labels ``state_snapshot`` reports are an external API."""

    def test_rca_phase_labels_pinned(self):
        assert {p.name.lower(): int(p) for p in _RcaPhase} == {
            "idle": 0,
            "wait_og": 1,
            "convert": 2,
            "wait_odt": 3,
            "wait_loop": 4,
            "wait_unmark": 5,
        }

    def test_root_phase_labels_pinned(self):
        assert {p.name.lower(): int(p) for p in _RootPhase} == {
            "open": 0,
            "ig_stream": 1,
            "await_id": 2,
            "id_stream": 3,
            "loop": 4,
        }

    def test_bca_phase_labels_pinned(self):
        assert {p.name.lower(): int(p) for p in _BcaPhase} == {
            "idle": 0,
            "search": 1,
            "convert": 2,
            "wait_tail": 3,
            "wait_done": 4,
            "wait_unmark": 5,
        }

    def test_quiescent_members_are_falsy(self):
        # the hot loop relies on plain truthiness for the idle checks
        assert not _RcaPhase.IDLE and not _RootPhase.OPEN and not _BcaPhase.IDLE

    def test_snapshot_reports_lowercase_names(self):
        proc = ProtocolProcessor()
        snap = proc.state_snapshot()
        assert snap["rca"]["phase"] == "idle"
        assert snap["root"]["phase"] == "open"
        assert snap["bca"]["phase"] == "idle"


# ----------------------------------------------------------------------
# satellite: exhaustive kernel ↔ object-path parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delta", DELTAS)
class TestKernelParity:
    """Each test builds its own kernel: the shared one may hold strays."""

    def test_census_prefix_and_closure(self, delta):
        kernel = CharKernel(delta)
        census = enumerate_alphabet(delta)
        assert kernel.n_codes == kernel_size(delta)
        assert kernel.n_codes == len(kernel.chars)
        # census codes come first, unchanged
        assert list(kernel.chars[: len(census)]) == census
        # the closure adds exactly the filled growing tails
        extra = kernel.chars[len(census):]
        assert len(extra) == 3 * delta
        for char in extra:
            assert snake_role(char) == "T"
            assert snake_family(char) in GROWING_FAMILIES
            assert char.in_port != STAR
        # every fill entry is a valid code (the closure property)
        assert len(kernel.fill_rows) == kernel.n_codes
        for row in kernel.fill_rows:
            assert len(row) == delta + 1
            assert all(0 <= value < kernel.n_codes for value in row)

    def test_predicate_flags_match_object_predicates(self, delta):
        # the per-code predicates the engine reads: the purge hook's
        # growing flag and the code handlers' role list
        kernel = CharKernel(delta)
        for code, char in enumerate(kernel.chars):
            assert kernel.growing_code[code] == is_growing(char), char
            expected = "HBT".index(snake_role(char)) if is_snake(char) else -1
            assert kernel.role_list[code] == expected, char

    def test_priority_bits_match_scheduler(self, delta):
        kernel = CharKernel(delta)
        for code, char in enumerate(kernel.chars):
            base = kernel.code_base[code]
            assert base >> PRIO_SHIFT == KIND_PRIORITY[char.kind], char
            assert base & ((1 << PRIO_SHIFT) - 1) == code
            assert kernel.base_of[char] == base
            assert kernel.id_base[id(char)] == base

    def test_family_role_and_port_tables(self, delta):
        # snakes: the handler slot is the family index, the role list the
        # role; ports ride in the codes themselves (see the fill rows)
        kernel = CharKernel(delta)
        for code, char in enumerate(kernel.chars):
            if is_snake(char):
                assert (
                    SNAKE_FAMILIES[kernel.handler_plan[code]]
                    == snake_family(char)
                ), char
                assert (
                    "HBT"[kernel.role_list[code]] == snake_role(char)
                ), char
            else:
                assert kernel.handler_plan[code] not in range(6), char
                assert kernel.role_list[code] == -1, char

    def test_fill_table_every_code_every_in_port(self, delta):
        """``(code, in_port) -> code`` fill-in vs §2.3.2 engine semantics.

        The engine fills growing snakes and DFS tokens whose second entry
        is ``*``; everything else — including ``*``-ported *dying* codes,
        which both backends deliver verbatim — maps to itself.
        """
        kernel = CharKernel(delta)
        for code, char in enumerate(kernel.chars):
            engine_fills = char.in_port == STAR and (
                is_growing(char) or char.kind == "DFS"
            )
            row = kernel.fill_rows[code]
            assert row[STAR] == code  # row 0 is always the identity
            for j in range(1, delta + 1):
                if engine_fills:
                    expected = kernel.codes[fill_in_port(char, j)]
                else:
                    expected = code
                assert row[j] == expected, (char, j)

    def test_handler_plan_classification(self, delta):
        kernel = CharKernel(delta)
        for code, char in enumerate(kernel.chars):
            slot = kernel.handler_plan[code]
            if is_snake(char):
                assert slot == SNAKE_FAMILIES.index(snake_family(char))
            elif char.kind in ("FWD", "BACK"):
                assert slot == 6
            elif char.kind == "KILL":
                scope = char.payload or SCOPE_RCA
                assert slot == (7 if scope == SCOPE_RCA else 8)
            elif char.kind == "UNMARK" and char.payload == SCOPE_RCA:
                assert slot == 9
            else:
                assert slot == -1, char

    def test_body_codes(self, delta):
        kernel = CharKernel(delta)
        for fi, family in enumerate(SNAKE_FAMILIES):
            row = kernel.body_codes[fi]
            assert row[0] == -1
            for port in range(1, delta + 1):
                body = kernel.chars[row[port]]
                assert snake_family(body) == family
                assert snake_role(body) == "B"
                assert body.out_port == port
                assert body.in_port == STAR

    def test_tables_roundtrip_to_kernel_alphabet(self, delta):
        # the fixed tables are sized by the closed code space
        kernel = CharKernel(delta)
        tables = (
            kernel.role_list,
            kernel.fill_rows,
            kernel.handler_plan,
            kernel.char_trans,
        )
        assert [len(t) for t in tables] == [
            kernel.n_codes,
            kernel.n_codes,
            kernel.n_codes,
            kernel.n_codes * (delta + 1) * n_phases(delta),
        ]
        assert kernel_alphabet(delta) == list(kernel.chars)
        assert alphabet_size(delta) - 1 + 3 * delta == kernel.n_codes


# ----------------------------------------------------------------------
# tentpole: transition-table rows vs the object-path automaton
# ----------------------------------------------------------------------
#: code -> (growing-marks attr, dying-relay attr) per family bank index
_BANK_MARKS = {0: "_marks_ig", 1: "_marks_og", 4: "_marks_bg"}
_BANK_RELAY = {2: "_relay_id", 3: "_relay_od", 5: "_relay_bd"}

_TICK = 100


def _fresh_processor(delta: int) -> ProtocolProcessor:
    """A non-root processor on a fully-wired node, mid-simulation."""
    ports = tuple(range(1, delta + 1))
    proc = ProtocolProcessor()
    proc.attach(NodeContext(1, False, ports, ports, lambda label, data: None))
    proc.begin_tick(_TICK)
    return proc


def _family_index(char) -> int:
    """The snake family bank of ``char``, or -1 for a token."""
    return SNAKE_FAMILIES.index(snake_family(char)) if is_snake(char) else -1


def _stored_rows(kernel, code: int, in_port: int) -> list[int]:
    """The ``n_phases(delta)`` rows of ``kernel.char_trans`` for
    ``(code, in_port)``, read straight from the stored tensor at
    ``(code * stride + in_port) * P + phase``."""
    P = n_phases(kernel.delta)
    base = (code * (kernel.delta + 1) + in_port) * P
    return list(kernel.char_trans[base : base + P])


def _load_phase(proc: ProtocolProcessor, bank: int, phase: int, delta: int) -> None:
    """Put ``proc``'s bank registers into the state ``phase`` encodes."""
    if bank in _BANK_MARKS:
        marks = getattr(proc, _BANK_MARKS[bank])
        if phase == 0:
            return  # unvisited: the power-on state
        assert phase <= delta + 1, "only register-backed phases are drivable"
        marks.mark(None if phase == 1 else phase - 1)
        return
    relay = getattr(proc, _BANK_RELAY[bank])
    if phase == 0:
        return  # inactive relay: the power-on state
    pair, promote = divmod(phase - 1, 2)
    pred, succ = divmod(pair, delta)
    relay.start(pred + 1, succ + 1)
    relay.promote_next = bool(promote)


def _read_phase(proc: ProtocolProcessor, bank: int, delta: int) -> int:
    """The phase ``proc``'s registers encode, per the module-level phase
    encoding in :mod:`repro.sim.characters` — derived here from first
    principles so the test does not trust the code under test.
    """
    if bank in _BANK_MARKS:
        if bank == 1 and proc.rca_phase:
            return growing_esc_phase(delta)
        if bank == 4 and proc.bca_phase:
            return growing_esc_phase(delta)
        marks = getattr(proc, _BANK_MARKS[bank])
        if not marks.visited:
            return 0
        return 1 + (marks.parent_in or 0)
    relay = getattr(proc, _BANK_RELAY[bank])
    if not (relay.active and relay.pred is not None and relay.succ is not None):
        return 0
    return dying_phase(delta, relay.pred, relay.succ, int(relay.promote_next))


@pytest.mark.parametrize("delta", DELTAS)
class TestTransitionTableParity:
    """Every non-escape transition row, checked against the object path.

    For each ``(code, in_port, phase)`` the row is *executed twice*: once
    by decoding its op / phase / port / code fields, once by loading a
    fresh :class:`ProtocolProcessor`'s registers with the state the phase
    encodes and delivering the character through the object-path
    ``handle``.  Emissions (ports, characters, departure ticks) and the
    resulting register state must agree exactly.  Escape rows are pinned
    to carry the fused fill-in, and the escape lane's coverage — every
    configuration the tables do not lower — is asserted structurally.
    """

    def test_every_nonescape_row_matches_the_object_path(self, delta):
        kernel = kernel_for(delta)
        driven = {TRANS_OP_BCAST: 0, TRANS_OP_MARK: 0, TRANS_OP_TAIL: 0,
                  TRANS_OP_SEND: 0, 0: 0}
        out_ports = tuple(range(1, delta + 1))
        for code in range(kernel.n_codes):
            # non-snake codes (family -1) have all-escape planes, so their
            # bank is never read
            bank = _family_index(kernel.chars[code])
            for in_port in range(1, delta + 1):
                fc = kernel.fill_rows[code][in_port]
                for phase, row in enumerate(_stored_rows(kernel, code, in_port)):
                    if row < 0:
                        # escape rows carry the fused fill-in so the cold
                        # path never consults the fill table again
                        assert -row - 1 == fc, (code, in_port, phase)
                        continue
                    proc = _fresh_processor(delta)
                    _load_phase(proc, bank, phase, delta)
                    assert _read_phase(proc, bank, delta) == phase
                    proc.handle(in_port, kernel.chars[code])
                    outbox = sorted(
                        (e.due_tick, e.out_port, e.char) for e in proc._outbox
                    )
                    if row == 0:
                        # DROP: the object path emitted and changed nothing
                        assert outbox == [], (code, in_port, phase)
                        assert _read_phase(proc, bank, delta) == phase
                        driven[0] += 1
                        continue
                    op = row & TRANS_OP_MASK
                    next_phase = (row >> TRANS_PHASE_SHIFT) & TRANS_PHASE_MASK
                    emit_code = row >> TRANS_CODE_SHIFT
                    assert emit_code == fc, (code, in_port, phase)
                    assert _read_phase(proc, bank, delta) == next_phase
                    emit = kernel.chars[emit_code]
                    # outbox due ticks are arrival - 1 (the wire's tick)
                    if op == TRANS_OP_SEND:
                        port = (row >> TRANS_PORT_SHIFT) & TRANS_PORT_MASK
                        expected = [(_TICK + 2, port, emit)]
                    elif op == TRANS_OP_TAIL:
                        expected = sorted(
                            [
                                (_TICK + 2, p, kernel.chars[kernel.body_codes[bank][p]])
                                for p in out_ports
                            ]
                            + [(_TICK + 3, p, emit) for p in out_ports]
                        )
                    else:  # MARK and BCAST both flood the filled character
                        expected = [(_TICK + 2, p, emit) for p in out_ports]
                    assert outbox == expected, (code, in_port, phase)
                    driven[op] += 1
        # the lowering is not vacuous: every op fired, for every delta
        assert min(driven.values()) > 0, driven

    def test_escape_lane_coverage(self, delta):
        """Exactly the configurations the rows cannot express escape."""
        kernel = kernel_for(delta)
        P = n_phases(delta)
        esc = growing_esc_phase(delta)
        escapes = 0
        for code in range(kernel.n_codes):
            fam = _family_index(kernel.chars[code])
            for in_port in range(delta + 1):
                rows = _stored_rows(kernel, code, in_port)
                assert len(rows) == P
                escapes += sum(1 for r in rows if r < 0)
                if fam < 0:
                    # tokens (KILL, UNMARK, DFS, FWD/BACK, BDONE) always
                    # take the cold path: purges, loop slots and subclass
                    # hooks live outside the phase encoding
                    assert all(r < 0 for r in rows), code
                    continue
                if in_port == STAR:
                    # in-port 0 never occurs as a delivery port
                    assert all(r < 0 for r in rows), code
                    continue
                filled_role = kernel.role_list[kernel.fill_rows[code][in_port]]
                if fam in _BANK_MARKS:
                    # interception (root / active RCA / active BCA) escapes,
                    # as does everything past the growing phase range
                    assert all(r < 0 for r in rows[esc:]), code
                else:
                    # dying banks lower only the promotion-free body
                    # stream through the relay's predecessor port; heads,
                    # tails, pending promotions and off-pred arrivals escape
                    assert rows[0] < 0, code
                    for phase in range(1, 2 * delta * delta + 1):
                        pair, promote = divmod(phase - 1, 2)
                        pred = pair // delta + 1
                        lowered = (
                            filled_role == 1
                            and promote == 0
                            and pred == in_port
                        )
                        assert (rows[phase] >= 0) == lowered, (code, phase)
        assert escapes > 0
