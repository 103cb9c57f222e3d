"""Campaign declarations: the scenario matrix and its vocabulary.

A :class:`Scenario` is one fully-specified run — a named network family at
an approximate size, a fault model, and a seed.  Scenarios are plain frozen
dataclasses of primitives, so they pickle cheaply across worker-process
boundaries and compare by value (the parallel-equals-serial determinism
test relies on this).

The family registry maps CLI-friendly names to builders with a uniform
``(size, seed) -> PortGraph`` signature.  Families whose natural parameter
is not a node count (de Bruijn word length, torus sides, tree depth) are
wrapped so the builder returns the smallest instance with at least ``size``
nodes — the same convention the ``map`` subcommand has always used.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from repro.dynamics.timeline import PerturbationTimeline, parse_timeline
from repro.errors import ReproError
from repro.sim.run import DEFAULT_BACKEND, check_backend
from repro.topology import generators
from repro.topology.portgraph import PortGraph

__all__ = [
    "FAMILY_BUILDERS",
    "SEEDED_FAMILIES",
    "build_family",
    "FaultModel",
    "parse_fault",
    "Scenario",
    "CampaignSpec",
    "SupervisionPolicy",
    "SPEC_HASH_FORMAT",
]

#: Version tag folded into every spec hash.  Bump it if the canonical form
#: of a scenario ever changes meaning — old store entries then simply stop
#: matching instead of silently aliasing different experiments.
#:
#: The ``backend`` axis joins the canonical form *only* when it is not the
#: default, so every pre-backend hash (and stored result) stays valid: an
#: ``object``-backend cell hashes exactly as it always has, while a
#: ``flat``-backend cell gets its own address — the store keeps the two
#: apart without a format bump.
SPEC_HASH_FORMAT = "repro.scenario/v1"


# ----------------------------------------------------------------------
# family registry
# ----------------------------------------------------------------------
def _directed_ring(size: int, seed: int) -> PortGraph:
    return generators.directed_ring(size)


def _bidirectional_ring(size: int, seed: int) -> PortGraph:
    return generators.bidirectional_ring(size)


def _bidirectional_line(size: int, seed: int) -> PortGraph:
    return generators.bidirectional_line(size)


def _de_bruijn(size: int, seed: int) -> PortGraph:
    length = 1
    while 2**length < size:
        length += 1
    return generators.de_bruijn(2, length)


def _hypercube(size: int, seed: int) -> PortGraph:
    dimension = 1
    while 2**dimension < size:
        dimension += 1
    return generators.hypercube(dimension)


def _torus(size: int, seed: int) -> PortGraph:
    side = 2
    while side * side < size:
        side += 1
    return generators.directed_torus(side, side)


def _directed_torus(size: int, seed: int) -> PortGraph:
    """The most nearly-square ``rows x cols`` torus with ``>= size`` nodes."""
    rows = max(2, math.isqrt(size))
    cols = max(2, -(-size // rows))
    return generators.directed_torus(rows, cols)


def _random(size: int, seed: int) -> PortGraph:
    return generators.random_strongly_connected(size, extra_edges=size, seed=seed)


def _tree_with_loop(size: int, seed: int) -> PortGraph:
    depth = 1
    while (1 << (depth + 1)) - 1 < size:
        depth += 1
    return generators.tree_with_loop(depth, seed=seed)


def _manhattan(size: int, seed: int) -> PortGraph:
    side = 2
    while side * side < size:
        side += 2
    return generators.manhattan_grid(side, side)


def _ring_of_rings(size: int, seed: int) -> PortGraph:
    outer = 2
    while outer * 3 < size:
        outer += 1
    return generators.ring_of_rings(outer, 3)


def _spare_ring(size: int, seed: int) -> PortGraph:
    """A bidirectional ring built at delta=3 so port 3 is free everywhere.

    The spare ports make this the canonical testbed for ``add`` fault
    models: a wire can appear mid-run without colliding with existing
    wiring (the E11 dynamics sweep runs on it).
    """
    graph = PortGraph(size, 3)
    for u in range(size):
        graph.add_wire(u, 1, (u + 1) % size, 1)
        graph.add_wire(u, 2, (u - 1) % size, 2)
    return graph.freeze()


#: name -> builder(size, seed).  Sizes are "at least" for families whose
#: natural parameter is not a node count.
FAMILY_BUILDERS: dict[str, Callable[[int, int], PortGraph]] = {
    "directed-ring": _directed_ring,
    "bidirectional-ring": _bidirectional_ring,
    "bidirectional-line": _bidirectional_line,
    "de-bruijn": _de_bruijn,
    "hypercube": _hypercube,
    "torus": _torus,
    "directed-torus": _directed_torus,
    "random": _random,
    "tree-with-loop": _tree_with_loop,
    "manhattan": _manhattan,
    "ring-of-rings": _ring_of_rings,
    "spare-ring": _spare_ring,
}

#: The families whose builder reads the seed.  Every other family builds
#: one wiring per size whatever the seed, so per-wiring memos may key it
#: on ``(family, size)`` alone.
SEEDED_FAMILIES = frozenset({"random", "tree-with-loop"})


def _check_size(size: int) -> None:
    """Reject a network size below one node."""
    if int(size) < 1:
        raise ReproError(f"network size must be >= 1, got {size}")


def build_family(family: str, size: int, seed: int = 0) -> PortGraph:
    """Build the ``family`` network of (at least) ``size`` nodes.

    A size the family cannot be built at (below one node, or below the
    family's own minimum) raises :class:`~repro.errors.ReproError` naming
    the family and the size.
    """
    try:
        builder = FAMILY_BUILDERS[family]
    except KeyError:
        raise ReproError(
            f"unknown network family {family!r}; known: {sorted(FAMILY_BUILDERS)}"
        ) from None
    _check_size(size)
    try:
        return builder(size, seed)
    except ValueError as exc:
        raise ReproError(f"cannot build {family}({size}): {exc}") from None


# ----------------------------------------------------------------------
# fault models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultModel:
    """A parsed fault specification.

    ``kind`` is one of:

    * ``"none"`` — the healthy network;
    * ``"shutdown"`` — pre-run port-shutdown failures: each wire dies
      independently with probability ``param`` (§1.2.2; the degraded
      network is the ground truth the recovered map is compared against);
    * ``"cut"`` — one wire is cut mid-run, at ``param`` × the undisturbed
      protocol runtime (the paper's introductory caveat);
    * ``"add"`` — one wire appears mid-run, at ``param`` × the undisturbed
      runtime (requires a family with free ports, e.g. ``spare-ring``);
    * ``"timeline"`` — a full perturbation program
      (:class:`~repro.dynamics.timeline.PerturbationTimeline`): churn,
      storms, flaps, frontier cuts and cut/heal/add waves, composable with
      ``+``.  ``param`` is unused; :attr:`timeline` holds the parsed
      program and the canonical spelling is its grammar string.

    The legacy kinds keep their exact historical canonical form (and hence
    their spec hashes); a timeline fault's canonical form is the timeline
    grammar's canonical string.
    """

    kind: str
    param: float = 0.0
    timeline: PerturbationTimeline | None = None

    def __str__(self) -> str:
        if self.kind == "none":
            return self.kind
        if self.kind == "timeline":
            assert self.timeline is not None
            return self.timeline.canonical()
        return f"{self.kind}:{self.param:g}"


_FAULT_KINDS = ("none", "shutdown", "cut", "add")


def _is_float(raw: str) -> bool:
    try:
        float(raw)
    except ValueError:
        return False
    return True


def parse_fault(spec: str) -> FaultModel:
    """Parse a fault spec: a legacy kind or a perturbation timeline.

    Legacy forms — ``"none"``, ``"shutdown:0.1"``, ``"cut:0.5"``,
    ``"add:0.5"`` — parse exactly as they always have.  Anything carrying
    timeline syntax (a ``+`` composition, an ``@time``, or ``key=value``
    parameters — every timeline event has at least one of these) parses
    through :func:`repro.dynamics.timeline.parse_timeline`.
    """
    kind, _, raw = spec.partition(":")
    is_timeline = "+" in spec or "@" in spec or "=" in spec
    if is_timeline and kind in _FAULT_KINDS and _is_float(raw):
        # a legacy param in exponent spelling ("cut:1e+0"): the '+' is the
        # exponent sign, not a timeline composition
        is_timeline = False
    if is_timeline:
        try:
            return FaultModel("timeline", timeline=parse_timeline(spec))
        except ReproError as exc:
            raise ReproError(f"bad fault model {spec!r}: {exc}") from None
    if kind not in _FAULT_KINDS:
        raise ReproError(
            f"unknown fault model {spec!r}; known kinds: {_FAULT_KINDS}, "
            f"or a perturbation timeline (e.g. 'storm:p=0.1@0.5')"
        )
    if kind == "none":
        if raw:
            raise ReproError(f"fault model 'none' takes no parameter, got {spec!r}")
        return FaultModel("none")
    if not raw:
        raise ReproError(f"fault model {kind!r} needs a parameter, e.g. '{kind}:0.1'")
    param = float(raw)
    if kind == "shutdown" and not 0.0 <= param < 1.0:
        raise ReproError(f"shutdown rate must be in [0, 1), got {param}")
    if kind in ("cut", "add") and param < 0.0:
        raise ReproError(f"{kind} time fraction must be >= 0, got {param}")
    return FaultModel(kind, param)


@lru_cache(maxsize=1024)
def _canonical_fault(spelling: str) -> str:
    """The canonical string of a fault spelling, parsed once per spelling."""
    if not isinstance(spelling, str):
        raise ReproError(f"a fault model is a string, got {spelling!r}")
    return str(parse_fault(spelling))


#: :meth:`Scenario.fault_model`, parsed once per canonical fault string (a
#: :class:`FaultModel` is frozen, so cells of one fault share it)
_fault_model = lru_cache(maxsize=1024)(parse_fault)


@lru_cache(maxsize=1024)
def _text_head(family: str, fault: str, backend: str) -> str:
    """A scenario's canonical JSON text up to its seed.

    ``seed`` and ``size`` sort after every other key, so the text of any
    scenario is this head, its seed, ``,"size":``, its size and ``}``.
    """
    doc = {"family": family, "fault": fault}
    if backend != DEFAULT_BACKEND:
        doc["backend"] = backend
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))[:-1] + ',"seed":'


# ----------------------------------------------------------------------
# supervision policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisionPolicy:
    """How the executor supervises a parallel campaign's failure modes.

    Like :class:`CampaignSpec`, this is a campaign-level *declaration* —
    but deliberately **not** part of any scenario's identity: supervision
    changes how failures are handled, never the value of a healthy cell,
    so two campaigns differing only in policy share every store key.

    * ``cell_timeout`` — wall-clock budget per cell, in seconds.  A
      dispatched chunk's deadline is ``cell_timeout * len(chunk) +
      chunk_grace``; a chunk that outlives it is presumed wedged, the pool
      is recycled, and the chunk is retried.  ``None`` disables deadlines
      (worker-death detection stays on).
    * ``max_retries`` — failed attempts a chunk may accrue before it is
      **bisected** (multi-cell) or **quarantined** (single cell, recorded
      as ``outcome="error"``).
    * ``on_error`` — ``"quarantine"`` records failing cells and completes
      the campaign; ``"raise"`` restores the historical strict abort via
      :class:`~repro.errors.ScenarioExecutionError`.
    * ``backoff_base``/``backoff_cap`` — exponential backoff slept before
      each pool rebuild (``base * 2**(rebuilds-1)``, capped).
    * ``max_pool_rebuilds`` — after this many pool breakages in one
      ``run_campaign`` call, the executor degrades to serial in-process
      execution of the remaining chunks (no isolation, but progress).
    * ``liveness_interval`` — how often the supervisor polls worker
      liveness while waiting for results (parent-side only; the worker
      hot loop never sees it).
    """

    cell_timeout: float | None = 120.0
    chunk_grace: float = 5.0
    max_retries: int = 1
    on_error: str = "quarantine"
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    max_pool_rebuilds: int = 5
    liveness_interval: float = 0.2

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ReproError(
                f"cell_timeout must be > 0 or None, got {self.cell_timeout}"
            )
        if self.chunk_grace < 0:
            raise ReproError(f"chunk_grace must be >= 0, got {self.chunk_grace}")
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.on_error not in ("quarantine", "raise"):
            raise ReproError(
                f"on_error must be 'quarantine' or 'raise', got {self.on_error!r}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ReproError("backoff_base/backoff_cap must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ReproError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )
        if self.liveness_interval <= 0:
            raise ReproError(
                f"liveness_interval must be > 0, got {self.liveness_interval}"
            )

    def chunk_deadline_seconds(self, cells: int) -> float | None:
        """The wall-clock budget for a chunk of ``cells`` cells, or None."""
        if self.cell_timeout is None:
            return None
        return self.cell_timeout * max(1, cells) + self.chunk_grace

    def rebuild_backoff(self, rebuilds: int) -> float:
        """Seconds to sleep before pool rebuild number ``rebuilds`` (1-based)."""
        if self.backoff_base == 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2 ** max(0, rebuilds - 1))


# ----------------------------------------------------------------------
# scenarios and the matrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One fully-specified campaign run.

    The fault string is canonicalized at construction (``"shutdown:0.10"``
    becomes ``"shutdown:0.1"``), so equivalent spellings produce equal
    scenarios — same ``==``, same label, same spec hash — and a result
    read back from a store compares equal to the one that was written.

    ``backend`` selects the engine implementation (``"object"`` or
    ``"flat"``).  The two backends produce identical results — the parity
    suite enforces it — but the axis still participates in the spec hash
    (when non-default) so stores keep per-backend cells distinct: a
    benchmark matrix must never silently satisfy a flat-backend run with a
    stored object-backend record, or the wall-clock comparison is void.
    """

    family: str
    size: int
    fault: str = "none"
    seed: int = 0
    backend: str = DEFAULT_BACKEND

    # A memo, not a field (no annotation): an instance sets its own on
    # first use, so ``==``, ``hash()``, ``repr()`` and pickles never see it.
    _spec_hash = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fault", _canonical_fault(self.fault))
        check_backend(self.backend)
        _check_size(self.size)

    @property
    def label(self) -> str:
        base = f"{self.family}({self.size})/{self.fault}/s{self.seed}"
        if self.backend != DEFAULT_BACKEND:
            return f"{base}/{self.backend}"
        return base

    def canonical(self) -> dict:
        """The scenario as a normalized, JSON-ready mapping.

        ``fault`` is already canonical (normalized in ``__post_init__``),
        so this is a plain field dump — spellings that denote the same
        model hash identically because they *are* identical by the time a
        Scenario exists.  The default backend is omitted so that every
        scenario hashed before the backend axis existed keeps its address.
        """
        doc = {
            "family": self.family,
            "size": int(self.size),
            "fault": self.fault,
            "seed": int(self.seed),
        }
        if self.backend != DEFAULT_BACKEND:
            doc["backend"] = self.backend
        return doc

    def canonical_text(self) -> str:
        """:meth:`canonical` as canonical JSON (sorted keys, minimal separators).

        It is the spec hash's input and the ``scenario`` of the result
        store's record line.  The integers are spliced into a head shared
        by every scenario of one family, fault and backend.  The text is
        not kept: a second memo per instance would cost more memory than
        re-splicing two integers costs time.
        """
        head = _text_head(self.family, self.fault, self.backend)
        return f'{head}{int(self.seed)},"size":{int(self.size)}}}'

    def spec_hash(self) -> str:
        """The content address of this scenario: a hex SHA-256 digest.

        Computed over :data:`SPEC_HASH_FORMAT` plus :meth:`canonical_text`,
        so it is stable across processes, interpreter invocations and
        ``PYTHONHASHSEED`` — unlike ``hash()``.  The result store indexes
        by this key.  It is computed once per instance and kept in a
        private attribute, not a field, so ``==``, ``hash()`` and
        ``repr()`` do not see it.
        """
        if self._spec_hash is None:
            payload = f"{SPEC_HASH_FORMAT}\n{self.canonical_text()}"
            digest = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_spec_hash", digest)
        return self._spec_hash

    def __reduce__(self):
        # A pickle carries the fields alone and rebuilds through the
        # constructor: the hash memo stays behind, and the receiver
        # re-derives it from the fields.
        return type(self), (self.family, self.size, self.fault, self.seed, self.backend)

    def build_graph(self) -> PortGraph:
        """The healthy (pre-fault) network for this scenario."""
        return build_family(self.family, self.size, self.seed)

    def fault_model(self) -> FaultModel:
        return _fault_model(self.fault)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative scenario matrix: backend × family × size × fault × seed.

    Expansion order is row-major over the declaration order (backends
    outermost, then families, seeds innermost) and is part of the
    contract: the executor reports results in exactly this order
    regardless of worker count.  The default single-``object`` backend
    axis expands to exactly the pre-backend matrix, so existing specs,
    hashes and stores are unaffected.
    """

    families: tuple[str, ...]
    sizes: tuple[int, ...]
    faults: tuple[str, ...] = ("none",)
    seeds: tuple[int, ...] = (0,)
    backends: tuple[str, ...] = (DEFAULT_BACKEND,)

    def __post_init__(self) -> None:
        for family in self.families:
            if family not in FAMILY_BUILDERS:
                raise ReproError(
                    f"unknown network family {family!r}; "
                    f"known: {sorted(FAMILY_BUILDERS)}"
                )
        for size in self.sizes:
            _check_size(size)
        for fault in self.faults:
            parse_fault(fault)  # validates eagerly, at declaration time
        for backend in self.backends:
            check_backend(backend)
        if not (
            self.families and self.sizes and self.faults and self.seeds
            and self.backends
        ):
            raise ReproError("campaign matrix must have at least one of each axis")

    def scenarios(self) -> list[Scenario]:
        """Expand the matrix into its scenario list."""
        return list(self._iter_scenarios())

    def _iter_scenarios(self) -> Iterator[Scenario]:
        for backend in self.backends:
            for family in self.families:
                for size in self.sizes:
                    for fault in self.faults:
                        for seed in self.seeds:
                            yield Scenario(
                                family=family,
                                size=size,
                                fault=fault,
                                seed=seed,
                                backend=backend,
                            )

    def __len__(self) -> int:
        return (
            len(self.families)
            * len(self.sizes)
            * len(self.faults)
            * len(self.seeds)
            * len(self.backends)
        )

    def spec_hash(self) -> str:
        """A content address for the whole matrix (order-sensitive).

        Hashes the ordered scenario hashes, so two specs that expand to the
        same scenarios in the same order — however they were declared —
        share a hash.  Stores stamp it into run manifests for provenance.
        """
        digest = hashlib.sha256(f"{SPEC_HASH_FORMAT}:matrix\n".encode())
        for scenario in self._iter_scenarios():
            digest.update(scenario.spec_hash().encode())
            digest.update(b"\n")
        return digest.hexdigest()
