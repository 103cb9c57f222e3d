"""The constant character alphabet flowing through the network.

Everything a wire ever carries is a :class:`Char`.  The taxonomy follows the
paper §2 exactly, plus the BCA-internal characters of deviation D1:

Snake characters (all speed-1), three roles per family:
    ``IG`` in-growing   — RCA step 1, processor A searches for the root
    ``OG`` out-growing  — RCA step 2, root re-broadcast reaching back to A
    ``ID`` in-dying     — RCA step 3, marks the path A -> root
    ``OD`` out-dying    — RCA step 3, marks the path root -> A
    ``BG`` BCA-growing  — BCA search for the upstream neighbour
    ``BD`` BCA-dying    — BCA loop marking + message delivery

Head and body characters carry ``(out_port, in_port)``; a freshly created
character has ``in_port = STAR`` and the first receiving processor fills in
the in-port it arrived through (paper §2.3.2).  Tails carry an optional
constant-size ``payload`` (the BCA message rides on the BD tail).

Tokens:
    ``DFS``     speed-1, snake-character structure: two port entries
    ``FWD``     speed-1 loop token FORWARD(o, i) — delta^2 variants
    ``BACK``    speed-1 loop token
    ``BDONE``   speed-1 BCA loop token (delivery-complete round)
    ``KILL``    speed-3, payload = scope ("RCA" or "BCA")
    ``UNMARK``  speed-3, payload = scope ("RCA" or "BCA")

:func:`alphabet_size` computes the exact size of this input/output set
``I`` as a function of ``delta`` — the quantity the paper's Lemma 5.2
transcript-counting argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "STAR",
    "SNAKE_FAMILIES",
    "GROWING_FAMILIES",
    "DYING_FAMILIES",
    "Char",
    "speed_of",
    "residence",
    "is_snake",
    "is_growing",
    "is_dying",
    "snake_family",
    "snake_role",
    "growing_family_of",
    "dying_family_of",
    "make_head",
    "make_body",
    "make_tail",
    "fill_in_port",
    "convert",
    "alphabet_size",
    "enumerate_alphabet",
    "intern_char",
    "PRIORITY_CONTROL",
    "PRIORITY_DYING",
    "PRIORITY_GROWING",
    "PRIORITY_TOKEN",
    "priority_of",
    "CharKernel",
    "kernel_alphabet",
    "kernel_size",
    "kernel_for",
    "clear_kernel_cache",
    "TOKEN_KINDS",
    "MSG_DFS_RETURN",
    "SCOPE_RCA",
    "SCOPE_BCA",
]

#: Sentinel for an in-port that the next receiver has not yet filled in.
#: Real ports are 1-based, so 0 is safely out of band.
STAR = 0

SNAKE_FAMILIES = ("IG", "OG", "ID", "OD", "BG", "BD")
GROWING_FAMILIES = ("IG", "OG", "BG")
DYING_FAMILIES = ("ID", "OD", "BD")

_ROLE_HEAD = "H"
_ROLE_BODY = "B"
_ROLE_TAIL = "T"

TOKEN_KINDS = ("DFS", "FWD", "BACK", "BDONE", "KILL", "UNMARK")

#: The constant-size messages that may ride on a BD tail (deviation D1).
MSG_DFS_RETURN = "DFS_RET"

SCOPE_RCA = "RCA"
SCOPE_BCA = "BCA"

#: speed-3 characters rest 1 tick per processor; everything else is speed-1
#: and rests 3 (paper §2.1).
SPEED3_KINDS = frozenset({"KILL", "UNMARK"})
_SPEED3_KINDS = SPEED3_KINDS  # historical alias

#: Every growing-snake kind — the only characters a KILL can erase from a
#: processor mid-residence (the :attr:`~repro.sim.processor.Processor.\
#: PURGES_ONLY_GROWING` contract the flat-core backend's send-time
#: scheduling relies on).
GROWING_KINDS = frozenset(
    family + role for family in GROWING_FAMILIES for role in "HBT"
)


@dataclass(frozen=True, slots=True)
class Char:
    """One constant-size character.

    ``kind`` is either a token kind (``DFS``, ``FWD``, ...) or a snake kind:
    family + role, e.g. ``IGH`` (in-growing head), ``ODT`` (out-dying tail).
    ``out_port``/``in_port`` are the two port entries of snake-structured
    characters (0 when unused, ``STAR`` when awaiting fill-in).
    """

    kind: str
    out_port: int = 0
    in_port: int = 0
    payload: str | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        fields = []
        if self.out_port or self.in_port:
            star = "*" if self.in_port == STAR else str(self.in_port)
            fields.append(f"{self.out_port},{star}")
        if self.payload is not None:
            fields.append(self.payload)
        inner = "(" + "; ".join(fields) + ")" if fields else ""
        return f"{self.kind}{inner}"


# ----------------------------------------------------------------------
# predicates and accessors
# ----------------------------------------------------------------------
def is_snake(char: Char) -> bool:
    """Whether ``char`` belongs to one of the six snake families."""
    return len(char.kind) == 3 and char.kind[:2] in SNAKE_FAMILIES


def snake_family(char: Char) -> str:
    """The two-letter family of a snake character (``IG``/``OG``/...)."""
    return char.kind[:2]


def snake_role(char: Char) -> str:
    """``"H"``, ``"B"`` or ``"T"`` for a snake character."""
    return char.kind[2]


def is_growing(char: Char) -> bool:
    """Whether ``char`` is a growing-snake character (IG/OG/BG)."""
    return len(char.kind) == 3 and char.kind[:2] in GROWING_FAMILIES


def is_dying(char: Char) -> bool:
    """Whether ``char`` is a dying-snake character (ID/OD/BD)."""
    return len(char.kind) == 3 and char.kind[:2] in DYING_FAMILIES


def growing_family_of(scope: str) -> tuple[str, ...]:
    """The growing families a KILL of ``scope`` erases.

    RCA KILL erases both IG and OG characters and markings (step 4);
    a BCA KILL erases only BG.
    """
    return ("IG", "OG") if scope == SCOPE_RCA else ("BG",)


def dying_family_of(growing: str) -> str:
    """The dying family a terminator converts the growing family into.

    IG becomes OG at the root (growing->growing conversion is special-cased
    in the protocol); OG becomes ID at processor A; ID becomes OD at the
    root; BG becomes BD at the BCA initiator.  This mapping covers the two
    growing->dying conversions the machinery needs.
    """
    return {"OG": "ID", "BG": "BD"}[growing]


def speed_of(char: Char) -> int:
    """The paper-speed of a character: 3 for KILL/UNMARK, else 1."""
    return 3 if char.kind in _SPEED3_KINDS else 1


def residence(char: Char) -> int:
    """Ticks a character rests in a processor before moving on (§2.1).

    Speed-1 constructs rest 3 ticks; speed-3 constructs rest 1 tick, so a
    speed-3 token covers 3 hops in the time a snake covers 1.
    """
    return 1 if char.kind in _SPEED3_KINDS else 3


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
#: Process-wide canonical instances, keyed by field tuple.  The alphabet
#: is constant, so the cache is bounded; handing out one shared instance
#: per value lets identity-keyed fast paths (the flat-core backend's
#: encode) skip hashing the character entirely.
_INTERNED: dict[tuple, Char] = {}


def intern_char(
    kind: str, out_port: int = 0, in_port: int = 0, payload: str | None = None
) -> Char:
    """The process-wide canonical :class:`Char` with these fields."""
    key = (kind, out_port, in_port, payload)
    char = _INTERNED.get(key)
    if char is None:
        char = _INTERNED[key] = Char(kind, out_port, in_port, payload)
    return char


def make_head(family: str, out_port: int, in_port: int = STAR) -> Char:
    """A head character ``<family>H(out_port, in_port)``."""
    _check_family(family)
    return intern_char(family + _ROLE_HEAD, out_port, in_port)


def make_body(family: str, out_port: int, in_port: int = STAR) -> Char:
    """A body character ``<family>B(out_port, in_port)``."""
    _check_family(family)
    return intern_char(family + _ROLE_BODY, out_port, in_port)


def make_tail(family: str, payload: str | None = None) -> Char:
    """A tail character ``<family>T`` with optional constant-size payload."""
    _check_family(family)
    return intern_char(family + _ROLE_TAIL, payload=payload)


def fill_in_port(char: Char, in_port: int) -> Char:
    """Replace a STAR second entry with the actual arrival in-port.

    Mirrors §2.3.2: "when a processor receives any growing snake character
    with * as its second parameter, the processor notes the in-port j
    through which the character arrived and changes the * to j".  Characters
    whose in-port is already concrete are returned unchanged.
    """
    if char.in_port == STAR and (is_snake(char) or char.kind == "DFS"):
        return intern_char(char.kind, char.out_port, in_port, char.payload)
    return char


def convert(char: Char, family: str) -> Char:
    """Re-brand a snake character into another family, same role and fields.

    Used by the root (IG->OG, ID->OD), by processor A (OG->ID) and by the
    BCA initiator (BG->BD).
    """
    _check_family(family)
    if not is_snake(char):
        raise ValueError(f"cannot convert non-snake character {char}")
    return intern_char(
        family + snake_role(char), char.out_port, char.in_port, char.payload
    )


def _check_family(family: str) -> None:
    if family not in SNAKE_FAMILIES:
        raise ValueError(f"unknown snake family {family!r}")


# ----------------------------------------------------------------------
# alphabet counting (Lemma 5.2 input)
# ----------------------------------------------------------------------
def alphabet_size(delta: int) -> int:
    """Exact size of the processor I/O set ``I`` for degree bound ``delta``.

    Per snake family (paper §2.3): ``delta**2 + delta`` head characters
    (out-port in ``1..delta``, second entry in ``{*} U 1..delta``), the same
    number of body characters, and one tail — ``2*(delta**2 + delta) + 1``.
    The BD tail additionally exists in one payload variant per BCA message.

    Tokens: DFS has the snake-character structure (``delta**2 + delta``
    variants), FORWARD has ``delta**2`` (paper §3.1), BACK/BDONE one each,
    KILL and UNMARK one per scope.  Plus the blank character the paper
    counts as part of the I/O set.
    """
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    per_family = 2 * (delta**2 + delta) + 1
    snakes = per_family * len(SNAKE_FAMILIES)
    bd_payload_variants = 1  # MSG_DFS_RETURN rides on an extra BD tail char
    dfs = delta**2 + delta
    fwd = delta**2
    back = 1
    bdone = 1
    kill = 2
    unmark = 2
    blank = 1
    return snakes + bd_payload_variants + dfs + fwd + back + bdone + kill + unmark + blank


# ----------------------------------------------------------------------
# the interned alphabet (flat-core backend support)
# ----------------------------------------------------------------------
def enumerate_alphabet(delta: int) -> list[Char]:
    """Every character the protocol can put on a wire, for degree bound ``delta``.

    The enumeration order is deterministic (a pure function of ``delta``),
    so a character's index is stable across processes — the flat-core
    backend uses the index as the character's packed integer code.  The
    list realizes exactly the :func:`alphabet_size` census minus the blank
    character (the blank is the *absence* of a character; the simulator
    never materializes it):

    * per snake family: heads and bodies over ``out_port in 1..delta`` ×
      ``in_port in {*} ∪ 1..delta``, plus the bare tail;
    * the BD tail in its one payload variant (:data:`MSG_DFS_RETURN`);
    * DFS with snake-character structure, FORWARD over ``delta**2`` port
      pairs, BACK and BDONE;
    * KILL and UNMARK, one per scope.
    """
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    in_ports = (STAR, *range(1, delta + 1))
    chars: list[Char] = []
    for family in SNAKE_FAMILIES:
        for role in (_ROLE_HEAD, _ROLE_BODY):
            for out_port in range(1, delta + 1):
                for in_port in in_ports:
                    chars.append(intern_char(family + role, out_port, in_port))
        chars.append(intern_char(family + _ROLE_TAIL))
    chars.append(intern_char("BD" + _ROLE_TAIL, payload=MSG_DFS_RETURN))
    for out_port in range(1, delta + 1):
        for in_port in in_ports:
            chars.append(intern_char("DFS", out_port, in_port))
    for out_port in range(1, delta + 1):
        for in_port in range(1, delta + 1):
            chars.append(intern_char("FWD", out_port, in_port))
    chars.append(intern_char("BACK"))
    chars.append(intern_char("BDONE"))
    for scope in (SCOPE_RCA, SCOPE_BCA):
        chars.append(intern_char("KILL", payload=scope))
    for scope in (SCOPE_RCA, SCOPE_BCA):
        chars.append(intern_char("UNMARK", payload=scope))
    return chars


# ----------------------------------------------------------------------
# the compile-time character kernel (code-space hot loop support)
# ----------------------------------------------------------------------
# Every per-hop character operation — fill-in, role, priority, handler
# choice — is a pure function on the closed finite alphabet of Lemma 5.2,
# so it can be lowered once into lists indexed by character code.  The
# flat-core backend then answers every character question with one indexed
# load instead of inspecting a :class:`Char` object.  The code space
# depends on ``delta`` alone, never on the wiring, so it is built once per
# process per degree bound (:func:`kernel_for`) and is not part of any
# topology artifact.

#: Packed event-wheel entry layout (re-exported by :mod:`repro.sim.flatcore`,
#: whose wheel packs them).  20 code bits cover the constant alphabet for
#: any realistic degree bound (delta ≈ 280 before overflow); 20 sequence
#: bits bound one tick at ~1M arrivals — far above the N * delta wire limit.
CODE_BITS = 20
CODE_MASK = (1 << CODE_BITS) - 1
SEQ_SHIFT = CODE_BITS
SEQ_BITS = 20
PORT_SHIFT = SEQ_SHIFT + SEQ_BITS
PORT_MASK = (1 << 16) - 1
PRIO_SHIFT = PORT_SHIFT + 16

#: KILL/UNMARK must be seen before growing characters arriving the same
#: tick so the speed-3 catch-up argument (Lemma 4.2) is exact.
PRIORITY_CONTROL = 0
#: Dying characters outrank growing ones so loop marking is never raced by
#: the flood it is about to clean up.
PRIORITY_DYING = 1
PRIORITY_GROWING = 2
#: DFS / FWD / BACK / BDONE and anything a test double invents.
PRIORITY_TOKEN = 3


def priority_of(kind: str) -> int:
    """In-tick handling priority of a character kind; lower handles first."""
    if kind in ("KILL", "UNMARK"):
        return PRIORITY_CONTROL
    if len(kind) == 3:
        family = kind[:2]
        if family in DYING_FAMILIES:
            return PRIORITY_DYING
        if family in GROWING_FAMILIES:
            return PRIORITY_GROWING
    return PRIORITY_TOKEN


def _engine_fills(char: Char) -> bool:
    """Whether the engine-side §2.3.2 fill-in rewrites ``char`` on delivery.

    Only growing snakes and the DFS token whose second entry is still
    ``*`` are filled; dying snakes are delivered verbatim by both backends
    (unlike :func:`fill_in_port`, which fills any snake).
    """
    return char.in_port == STAR and (is_growing(char) or char.kind == "DFS")


def kernel_alphabet(delta: int) -> list[Char]:
    """The closed code space of the character kernel.

    This is :func:`enumerate_alphabet` (the Lemma 5.2 census minus the
    blank) extended with the 3·delta *filled growing tails* —
    ``IGT/OGT/BGT`` with a concrete in-port — which the engine-side
    fill-in of §2.3.2 produces on delivery but the census does not list
    (the census tail is the bare ``<family>T``).  Closing the set under
    the fill rows keeps every fill entry a valid code.  The order is
    deterministic: census first (so census codes are unchanged), then the
    filled tails family-major.
    """
    chars = enumerate_alphabet(delta)
    for family in GROWING_FAMILIES:
        for in_port in range(1, delta + 1):
            chars.append(intern_char(family + _ROLE_TAIL, 0, in_port))
    return chars


def kernel_size(delta: int) -> int:
    """Number of codes in :func:`kernel_alphabet` (a pure function of delta)."""
    return alphabet_size(delta) - 1 + 3 * delta


class CharKernel:
    """The character code space for one ``delta``: codes and their tables.

    Built once per ``delta`` and shared process-wide (:func:`kernel_for`);
    nothing about it depends on the wiring, so it is never stored with a
    topology.  It is the flat engine's only ``Char`` ↔ code mapping: codes
    ``0 .. n_codes - 1`` are :func:`kernel_alphabet` (the Lemma 5.2 census
    plus its fill-in closure), and :meth:`encode` appends any character
    outside it — a *stray*, such as a BCA tail carrying a caller's message,
    or a kind a test double invents — at the next free code on first sight.
    Codes are an internal address: nothing output-relevant compares them,
    and strays only ever append, so every engine at this ``delta`` shares
    one kernel.

    Tables covering the first ``n_codes`` codes (``K = n_codes``):

    ``fill_rows``     ``K`` rows of ``delta+1``  ``[code][in_port] -> code``
                      engine-side fill-in (row entry 0 is the identity)
    ``role_list``     ``K``    0=head / 1=body / 2=tail, -1 for tokens
    ``handler_plan``  ``K``    which code-space handler serves the code
    ``body_codes``    6 rows of ``delta+1``  ``<family>B(port, *)`` codes

    Tables covering every code, strays included, extended by
    :meth:`encode`:

    ``chars`` / ``codes``   code -> canonical :class:`Char` / its inverse
    ``code_base``     code -> ``priority << PRIO_SHIFT | code``, the
                      packed wheel entry before port and sequence bits
    ``growing_code``  code -> whether KILL may purge it (growing kinds)
    ``base_of`` / ``id_base``   value / ``id`` of the canonical instance
                      -> ``code_base`` entry: the packed wheel's encode maps

    The fill rows mirror the *engine's* fill semantics (growing snakes and
    DFS only — dying characters are delivered verbatim, matching
    ``FlatEngine`` and the object backend's §2.3.2 reading); :meth:`fill`
    applies the same rule to strays.
    """

    __slots__ = (
        "delta",
        "n_codes",
        "chars",
        "codes",
        "role_list",
        "fill_rows",
        "body_codes",
        "handler_plan",
        "code_base",
        "growing_code",
        "base_of",
        "id_base",
    )

    def __init__(self, delta: int) -> None:
        self.delta = delta
        #: code -> canonical instance (also keeps every canonical alive,
        #: which is what makes the identity-keyed ``id_base`` safe)
        self.chars: list[Char] = kernel_alphabet(delta)
        chars = self.chars
        self.n_codes = n = len(chars)
        self.codes: dict[Char, int] = {c: i for i, c in enumerate(chars)}
        self.code_base = [
            (priority_of(c.kind) << PRIO_SHIFT) | code for code, c in enumerate(chars)
        ]
        self.growing_code = [c.kind in GROWING_KINDS for c in chars]
        #: value -> packed base: folding the priority in makes a schedule a
        #: single dict hit
        self.base_of: dict[Char, int] = dict(zip(chars, self.code_base))
        #: id(canonical instance) -> base.  Identity fast path: most
        #: traffic is canonical instances flowing back out of the wheel
        #: (flood relays re-broadcast the delivered character).
        self.id_base: dict[int, int] = {
            id(c): base for c, base in self.base_of.items()
        }
        fam_index = {family: i for i, family in enumerate(SNAKE_FAMILIES)}
        role_index = {_ROLE_HEAD: 0, _ROLE_BODY: 1, _ROLE_TAIL: 2}
        stride = delta + 1

        family = [-1] * n
        role = [-1] * n
        fill_rows = []
        for code, char in enumerate(chars):
            if is_snake(char):
                family[code] = fam_index[snake_family(char)]
                role[code] = role_index[snake_role(char)]
            row = [code] * stride
            if _engine_fills(char):
                for j in range(1, stride):
                    row[j] = self.codes[
                        intern_char(char.kind, char.out_port, j, char.payload)
                    ]
            fill_rows.append(row)
        self.role_list = role
        self.fill_rows = fill_rows
        #: family index -> out_port-indexed ``<family>B(port, *)`` codes
        #: (slot 0 unused) — the tail relay's per-port body sends in one load.
        self.body_codes = [
            [-1]
            + [
                self.codes[intern_char(fam + _ROLE_BODY, p)]
                for p in range(1, delta + 1)
            ]
            for fam in SNAKE_FAMILIES
        ]
        #: code -> which code-space handler serves it: the family index for
        #: snakes, then 6 = loop token, 7 = RCA KILL, 8 = BCA KILL,
        #: 9 = RCA UNMARK, -1 = none (object path).  Classified once here so
        #: a processor's per-node handler table is a single list indexing
        #: pass over this plan instead of per-character kind inspection.
        plan = []
        for code, char in enumerate(chars):
            fam = family[code]
            if fam >= 0:
                plan.append(fam)
            elif char.kind in ("FWD", "BACK"):
                plan.append(6)
            elif char.kind == "KILL":
                plan.append(7 if (char.payload or SCOPE_RCA) == SCOPE_RCA else 8)
            elif char.kind == "UNMARK" and char.payload == SCOPE_RCA:
                plan.append(9)
            else:
                plan.append(-1)
        self.handler_plan = plan

    def encode(self, char: Char) -> int:
        """The integer code of ``char``; a stray is interned on first sight.

        A stray's code is the next free one, and every per-code list that
        covers strays (``chars``, ``code_base``, ``growing_code`` and the
        two encode maps) grows with it, so the code stays stable for the
        kernel's lifetime.
        """
        code = self.codes.get(char)
        if code is None:
            code = len(self.chars)
            base = (priority_of(char.kind) << PRIO_SHIFT) | code
            self.chars.append(char)
            self.codes[char] = code
            self.code_base.append(base)
            self.growing_code.append(char.kind in GROWING_KINDS)
            self.base_of[char] = base
            self.id_base[id(char)] = base
        return code

    def decode(self, code: int) -> Char:
        """The canonical :class:`Char` for ``code``.

        Round-trips with :meth:`encode`: ``decode(encode(c)) == c`` for any
        character, and ``decode(encode(c)) is decode(encode(c))`` — the
        canonical instance is stable, so transcripts and tests can compare
        by value or identity.
        """
        return self.chars[code]

    def fill(self, code: int, in_port: int) -> int:
        """``code`` after the engine-side fill-in at arrival ``in_port``.

        The rule :attr:`fill_rows` tabulates for kernel codes — only a
        growing snake or a DFS token whose second entry is ``*`` is
        filled — applied to any code; the engine calls it for strays, whose
        filled variant is interned on first sight.
        """
        char = self.chars[code]
        if in_port == STAR or not _engine_fills(char):
            return code
        return self.encode(Char(char.kind, char.out_port, in_port, char.payload))


#: delta -> the process-wide shared kernel (see :func:`kernel_for`).
_KERNELS: dict[int, CharKernel] = {}


def kernel_for(delta: int) -> CharKernel:
    """The process-wide shared :class:`CharKernel` for ``delta``.

    The kernel is a pure function of ``delta``; building it is the
    O(delta^2) part of engine construction, so every engine at the same
    degree bound shares one instance.
    """
    kernel = _KERNELS.get(delta)
    if kernel is None:
        kernel = _KERNELS[delta] = CharKernel(delta)
    return kernel


def clear_kernel_cache() -> None:
    """Drop the shared kernels (tests, cold-cache baselines)."""
    _KERNELS.clear()
