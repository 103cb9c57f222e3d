"""Persistent, content-addressed storage: campaign results and compiled artifacts.

Two stores live here, both content-addressed and crash-tolerant:

* :mod:`repro.store.result_store` — campaign *results*: every completed
  scenario is appended to a JSONL commit log under a key derived from the
  scenario's canonical spec (family, size, fault, seed), so crashed
  sweeps resume where they stopped and overlapping matrices reuse every
  cell they share with past runs.  Each distinct result body is stored
  once, under the digest of its content, and cells name it.
* :mod:`repro.store.artifacts` — compiled *topologies*: the on-disk tier
  below the process-wide ``compiled_topology()`` cache, serving
  ``mmap``-shared CSR tables keyed by graph-spec hash × compiler version
  so a cold process reaches the hot loop without compiling anything it
  has ever seen.

See ``docs/FORMATS.md`` for both on-disk layouts, and the ``--store`` /
``--resume`` / ``--artifacts`` options of ``repro-topology campaign``
(plus ``repro-topology store DIR --artifacts``) for the shell front door.
"""

from repro.store.artifacts import (
    ARTIFACT_FORMAT,
    ArtifactError,
    ArtifactLibrary,
    active_artifact_library,
    artifact_key,
    configure_artifact_library,
    dump_artifact,
    load_artifact,
)
from repro.store.result_store import (
    STORE_FORMAT,
    ResultStore,
    StoreVerifyReport,
    result_from_doc,
    result_to_doc,
    verify_result_store,
)

__all__ = [
    "STORE_FORMAT",
    "ResultStore",
    "StoreVerifyReport",
    "result_from_doc",
    "result_to_doc",
    "verify_result_store",
    "ARTIFACT_FORMAT",
    "ArtifactError",
    "ArtifactLibrary",
    "active_artifact_library",
    "artifact_key",
    "configure_artifact_library",
    "dump_artifact",
    "load_artifact",
]
