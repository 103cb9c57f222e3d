"""The workloads: inputs from the seed, the timed op, and its checks.

Each workload has the same shape:

* ``setup()`` makes the inputs and warms what a user would have warm (the
  artifact library).  It is repeated a few times per run and its median is
  ``setup_s``.
* ``op()`` is the timed unit of work and returns an :class:`OpOutput`.
* ``check(output, tally)`` runs outside the timed region and records one
  tally entry per campaign cell.
* ``oracle(tally)`` re-runs a seeded sample of cells on the ``object``
  backend, the reference implementation, and compares value for value.  It
  runs once, after measurement, outside every timed region.

Every call into the program goes through a module attribute
(``executor.run_campaign``) so that the traced run's probes see it.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.campaigns import executor
from repro.campaigns.spec import CampaignSpec, build_family
from repro.store.artifacts import ArtifactLibrary

#: the production fast path; ``object`` is the oracle
BACKEND = "flat"

#: sampled cells re-run on the oracle per run
ORACLE_SAMPLES = 3


@dataclass
class OpOutput:
    #: campaign cells completed by the op
    cells: int
    #: what ``check`` inspects
    payload: object
    #: timed sub-phases of the op (e.g. a resume pass): name -> (cells, seconds)
    phases: dict[str, tuple[int, float]] = field(default_factory=dict)


def derived_seeds(label: str, seed: int, count: int, accept=None) -> tuple[int, ...]:
    """``count`` distinct matrix seeds drawn from the workload seed.

    ``accept``, when given, filters the draws: only seeds it returns true
    for are kept.
    """
    rng = random.Random(f"{label}/{seed}")
    seeds: set[int] = set()
    while len(seeds) < count:
        candidate = rng.randrange(1_000_000)
        if accept is None or accept(candidate):
            seeds.add(candidate)
    return tuple(sorted(seeds))


def _static(scenario) -> bool:
    return scenario.fault == "none" or scenario.fault.startswith("shutdown:")


def _check_cell(result, tally) -> None:
    label = result.scenario.label
    if result.outcome == "error":
        tally.record(False, f"{label}: error {result.error}")
    elif _static(result.scenario):
        tally.record(result.outcome == "exact", f"{label}: {result.outcome}")
    else:
        tally.record(True)


def _fingerprint(results) -> str:
    rows = [
        (r.scenario.label, r.outcome, r.ticks, r.drained_ticks, r.hops, r.phase)
        for r in results
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class _Sweep:
    """A campaign workload: a spec, a prewarmed artifact library, a store."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.store = work / "store"
        self._libraries = 0
        self._fingerprint: str | None = None

    def build_spec(self) -> CampaignSpec:
        raise NotImplementedError

    def setup(self) -> None:
        executor.clear_scenario_caches()
        self.spec = self.build_spec()
        self._libraries += 1
        self.library = ArtifactLibrary(self.work / f"artifacts-{self._libraries}")
        keys = {(s.family, s.size, s.seed) for s in self.spec.scenarios()}
        for graph in {build_family(*key) for key in keys}:
            self.library.ensure(graph)

    def run_pass(self):
        """One ``campaign`` invocation as the CLI makes it, summary included."""
        campaign = executor.run_campaign(
            self.spec, jobs=1, store=self.store, artifacts=self.library
        )
        campaign.summary()
        campaign.stats()
        return campaign

    def check(self, output: OpOutput, tally) -> None:
        """Check the op's cells, then drop its store (outside the timed op)."""
        results = self.check_cells(output, tally)
        for result in results:
            _check_cell(result, tally)
        digest = _fingerprint(results)
        if self._fingerprint is None:
            self._fingerprint = digest
        else:
            tally.record(digest == self._fingerprint, f"{self.name}: op output changed")
        self.last = results
        shutil.rmtree(self.store, ignore_errors=True)

    def check_cells(self, output: OpOutput, tally) -> list:
        """Workload-specific checks; returns the results every op must repeat."""
        return output.payload.results

    def oracle(self, tally) -> None:
        rng = random.Random(f"{self.name}/oracle/{self.seed}")
        for flat in rng.sample(self.last, ORACLE_SAMPLES):
            ref = executor.run_scenario(
                replace(flat.scenario, backend="object"), fresh=True
            )
            tally.record(
                replace(ref, scenario=flat.scenario) == flat,
                f"{flat.scenario.label}: flat and object results differ",
            )


class SweepFaults(_Sweep):
    """The research sweep: four families, two sizes, seven faults, three seeds."""

    name = "sweep-faults"
    FAMILIES = ("spare-ring", "de-bruijn", "torus", "random")
    SIZES = (10, 16)
    FAULTS = (
        "none",
        "shutdown:0.15",
        "cut:0.4",
        "cut:1.5",
        "frontier:k=2@0.3",
        "storm:p=0.3@0.25",
        "churn:rate=0.08,period=0.25,heal=0.9,until=0.7",
    )
    SEEDS = 3
    #: The degree bound every ``random`` network of the matrix must have.
    #: The engine's code tables grow steeply with the bound and a random
    #: network's bound depends on its seed, so without this rule the seed
    #: would set the run's memory and per-hop cost.  4 is the commonest
    #: bound at sizes 10 and 16.
    RANDOM_DELTA = 4

    def build_spec(self) -> CampaignSpec:
        def accept(seed: int) -> bool:
            return all(
                build_family("random", size, seed).delta == self.RANDOM_DELTA
                for size in self.SIZES
            )

        return CampaignSpec(
            families=self.FAMILIES,
            sizes=self.SIZES,
            faults=self.FAULTS,
            seeds=derived_seeds(self.name, self.seed, self.SEEDS, accept),
            backends=(BACKEND,),
        )

    def op(self) -> OpOutput:
        executor.clear_scenario_caches()
        campaign = self.run_pass()
        return OpOutput(cells=len(campaign), payload=campaign)


class SweepSeeds(_Sweep):
    """Per-cell overhead: six deterministic families over 600 seeds, then resume."""

    name = "sweep-seeds"
    FAMILIES = (
        "directed-ring",
        "bidirectional-ring",
        "bidirectional-line",
        "de-bruijn",
        "hypercube",
        "torus",
    )
    SIZES = (4, 8)
    SEEDS = 600

    def build_spec(self) -> CampaignSpec:
        base = derived_seeds(self.name, self.seed, 1)[0]
        return CampaignSpec(
            families=self.FAMILIES,
            sizes=self.SIZES,
            faults=("none",),
            seeds=tuple(range(base, base + self.SEEDS)),
            backends=(BACKEND,),
        )

    def op(self) -> OpOutput:
        executor.clear_scenario_caches()
        start = time.perf_counter()
        written = self.run_pass()
        mid = time.perf_counter()
        resumed = self.run_pass()  # reopens the store from disk: every cell hits
        end = time.perf_counter()
        return OpOutput(
            cells=len(written) + len(resumed),
            payload=(written, resumed),
            phases={
                "write": (len(written), mid - start),
                "resume": (len(resumed), end - mid),
            },
        )

    def check_cells(self, output: OpOutput, tally) -> list:
        written, resumed = output.payload
        tally.record(
            len(written) == len(resumed), "resume pass returned a different cell count"
        )
        for before, after in zip(written.results, resumed.results):
            tally.record(before == after, f"{before.scenario.label}: resume differs")
        return written.results


WORKLOADS = {w.name: w for w in (SweepFaults, SweepSeeds)}
