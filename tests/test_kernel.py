"""The compile-time character kernel (:class:`repro.sim.characters.CharKernel`).

Exhaustive parity between the code-space lists the flat engine reads and
the object-path character functions they replace: every code of the
Lemma 5.2 census (plus the filled-tail closure), every in-port of the fill
rows, every role, growing flag, packed priority and handler slot — checked
against ``is_snake``/``is_growing``/``snake_family``/``snake_role``/
``fill_in_port`` and the scheduler's priorities directly.  Also pins the
externally visible automaton phase labels (IntEnum-backed).  The kernel is
a per-process function of ``delta``; the artifact-library migration of the
retired kernel-carrying formats lives in ``tests/test_artifacts.py``.
"""

from __future__ import annotations

import pytest

from repro.protocol.automaton import ProtocolProcessor, _BcaPhase, _RcaPhase, _RootPhase
from repro.sim.characters import (
    GROWING_FAMILIES,
    PRIO_SHIFT,
    SCOPE_RCA,
    SNAKE_FAMILIES,
    STAR,
    CharKernel,
    alphabet_size,
    enumerate_alphabet,
    fill_in_port,
    is_growing,
    is_snake,
    kernel_alphabet,
    kernel_size,
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
        tables = (kernel.role_list, kernel.fill_rows, kernel.handler_plan)
        assert [len(t) for t in tables] == [kernel.n_codes] * 3
        assert kernel_alphabet(delta) == list(kernel.chars)
        assert alphabet_size(delta) - 1 + 3 * delta == kernel.n_codes
