#!/usr/bin/env python3
"""Documentation checker: links, anchors, and perf-number freshness.

Run from anywhere (``python tools/check_docs.py``); CI runs it in the
``docs`` job.  Three classes of check, all stdlib-only:

1. **Relative links** in ``README.md`` and ``docs/*.md`` must point at
   files that exist (anchors resolved against the target's headings,
   GitHub-style slugs).  External ``http(s)`` links are *not* fetched —
   CI must not flake on someone else's outage — but their syntax is
   validated.
2. **Baseline references**: every ``BENCH_*.json`` name mentioned in the
   docs must exist under ``benchmarks/baselines/``.
3. **Perf-number citations**: the README's headline tables must quote
   the *committed* baseline numbers.  Each claim below renders a metric
   from a committed ``BENCH_*.json`` the way the README prints it and
   requires that exact string to appear — re-record a baseline without
   updating the README and this fails, which is the point (stale perf
   tables read as false claims).

Exit code 0 on success, 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
BASELINE_DIR = ROOT / "benchmarks" / "baselines"

#: [text](target) — excluding images; fenced code blocks are stripped first.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_BENCH_REF = re.compile(r"BENCH_[A-Za-z0-9_]+\.json")


def _slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, punctuation out, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    return re.sub(r"\s+", "-", text.strip())


def _anchors(path: Path) -> set[str]:
    slugs: dict[str, int] = {}
    out = set()
    for match in _HEADING.finditer(_FENCE.sub("", path.read_text())):
        slug = _slug(match.group(1))
        n = slugs.get(slug, 0)
        slugs[slug] = n + 1
        out.add(slug if n == 0 else f"{slug}-{n}")
    return out


def check_links(problems: list[str]) -> None:
    for doc in DOC_FILES:
        body = _FENCE.sub("", doc.read_text())
        rel = doc.relative_to(ROOT)
        for match in _LINK.finditer(body):
            target = match.group(1)
            if target.startswith(("http://", "https://")):
                if " " in target:
                    problems.append(f"{rel}: malformed external URL {target!r}")
                continue
            if target.startswith("mailto:"):
                continue
            path_part, _, anchor = target.partition("#")
            dest = doc if not path_part else (doc.parent / path_part).resolve()
            if not dest.exists():
                problems.append(f"{rel}: broken link {target!r} (no {path_part})")
                continue
            if anchor and dest.suffix == ".md" and anchor not in _anchors(dest):
                problems.append(
                    f"{rel}: broken anchor {target!r} (no heading "
                    f"#{anchor} in {path_part or rel})"
                )


def check_baseline_refs(problems: list[str]) -> None:
    for doc in DOC_FILES:
        rel = doc.relative_to(ROOT)
        for name in sorted(set(_BENCH_REF.findall(doc.read_text()))):
            if not (BASELINE_DIR / name).exists():
                problems.append(
                    f"{rel}: references {name}, which is not a committed "
                    f"baseline under benchmarks/baselines/"
                )


#: (baseline file, metric, how the README renders it).  Each rendered
#: string must appear verbatim in README.md.
_CLAIMS = [
    ("BENCH_e13.json", "full_protocol_hops_per_second", lambda v: f"{v / 1e3:.0f}k"),
    ("BENCH_e13.json", "large_debruijn_hops_per_second", lambda v: f"{v / 1e3:.0f}k"),
    ("BENCH_e13.json", "single_rca_hops_per_second", lambda v: f"{v / 1e3:.0f}k"),
    (
        "BENCH_e13_flat.json",
        "full_protocol_hops_per_second",
        lambda v: f"{v / 1e3:.0f}k",
    ),
    (
        "BENCH_e13_flat.json",
        "large_debruijn_hops_per_second",
        lambda v: f"{v / 1e3:.0f}k",
    ),
    ("BENCH_e13_flat.json", "single_rca_hops_per_second", lambda v: f"{v / 1e3:.0f}k"),
    ("BENCH_dyn.json", "small_object_hops_per_second", lambda v: f"{v / 1e3:.0f}k"),
    ("BENCH_dyn.json", "small_flat_hops_per_second", lambda v: f"{v / 1e3:.0f}k"),
    ("BENCH_dyn.json", "large_flat_speedup", lambda v: f"{v:.2f}×"),
    ("BENCH_camp.json", "full_fresh_scenarios_per_second", lambda v: f"{v:.1f}"),
    ("BENCH_camp.json", "full_scenarios_per_second", lambda v: f"{v:.1f}"),
    ("BENCH_camp.json", "full_cached_speedup", lambda v: f"{v:.2f}×"),
    ("BENCH_kernel.json", "code_space_hops_per_second", lambda v: f"{v / 1e3:.0f}k"),
    ("BENCH_kernel.json", "object_path_hops_per_second", lambda v: f"{v / 1e3:.0f}k"),
    ("BENCH_kernel.json", "code_space_speedup", lambda v: f"{v:.2f}×"),
    ("BENCH_artifacts.json", "full_cold_start_ms", lambda v: f"{v:.1f} ms"),
    ("BENCH_artifacts.json", "full_warm_start_ms", lambda v: f"{v:.1f} ms"),
    ("BENCH_artifacts.json", "full_cold_start_speedup", lambda v: f"{v:.1f}×"),
]


def check_perf_citations(problems: list[str]) -> None:
    readme = (ROOT / "README.md").read_text()
    for name, metric, render in _CLAIMS:
        path = BASELINE_DIR / name
        if not path.exists():
            problems.append(f"perf claim source missing: benchmarks/baselines/{name}")
            continue
        doc = json.loads(path.read_text())
        entry = doc.get("metrics", {}).get(metric)
        if entry is None:
            problems.append(f"{name} no longer records metric {metric!r}")
            continue
        expected = render(entry["value"])
        if expected not in readme:
            problems.append(
                f"README.md does not cite {expected!r} — the committed value "
                f"of {metric} in {name} ({entry['value']:.4g} "
                f"{entry.get('unit', '')}).  Re-recorded the baseline?  "
                f"Update the README perf tables to match."
            )


def main() -> int:
    problems: list[str] = []
    missing = [str(p.relative_to(ROOT)) for p in DOC_FILES if not p.exists()]
    if missing:
        print(f"missing doc files: {missing}", file=sys.stderr)
        return 1
    check_links(problems)
    check_baseline_refs(problems)
    check_perf_citations(problems)
    if problems:
        print(f"{len(problems)} documentation problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    checked = ", ".join(str(p.relative_to(ROOT)) for p in DOC_FILES)
    print(f"docs ok: {checked} ({len(_CLAIMS)} perf citations verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
