"""ASCII table rendering for benchmark and example output.

The benchmark harness prints paper-style result tables; this module renders
them without any third-party dependency so examples run on a bare install.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table"]


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def _numeric(value: Any) -> bool:
    """Whether a cell right-aligns: an int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width ASCII table.

    Numeric cells are right-aligned; everything else is left-aligned.  The
    return value ends without a trailing newline so callers can ``print`` it
    directly.

    Each distinct row *tail* (every cell but the first) is formatted and
    padded once, so a table that repeats a few tails under many labels (a
    campaign's cells sharing a few result bodies) costs one pass over the
    labels.  Tails are told apart by the identity of their cells, so values
    that compare equal but render differently (``1`` and ``True``) never
    share a rendering.
    """
    for i, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    labels = [_cell(row[0]) for row in rows]
    tails = [row[1:] for row in rows]
    keys = [tuple(map(id, tail)) for tail in tails]
    distinct = dict(zip(keys, tails))
    cells = {key: [_cell(v) for v in tail] for key, tail in distinct.items()}
    widths = [max([len(headers[0]), *map(len, labels)])] + [
        max([len(header), *(len(row[c]) for row in cells.values())])
        for c, header in enumerate(headers[1:])
    ]
    numeric = [bool(rows) and all(_numeric(row[0]) for row in rows)] + [
        bool(rows) and all(_numeric(tail[c]) for tail in distinct.values())
        for c in range(len(headers) - 1)
    ]

    def pad(cell: str, c: int) -> str:
        return cell.rjust(widths[c]) if numeric[c] else cell.ljust(widths[c])

    rendered = {
        key: "".join(f" | {pad(cell, c)}" for c, cell in enumerate(row, 1)) + " |"
        for key, row in cells.items()
    }
    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    header = "| " + " | ".join(pad(h, c) for c, h in enumerate(headers)) + " |"
    lines = [title] if title else []
    lines += [sep, header, sep]
    lines += ["| " + pad(label, 0) + rendered[key] for label, key in zip(labels, keys)]
    lines.append(sep)
    return "\n".join(lines)
