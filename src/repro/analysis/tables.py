"""Plain-text table rendering for experiment reports.

All experiment harnesses print their results through this module so the
regenerated tables look like the paper's (and diff cleanly in CI logs).
"""

from __future__ import annotations

from typing import Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    align_right: Optional[Sequence[bool]] = None,
) -> str:
    """Render a monospace table.

    Args:
        headers: column names.
        rows: cell values; anything with a sensible ``str()`` works.
        title: optional caption printed above the table.
        align_right: per-column right-alignment flags (default: left for
            the first column, right for the rest — the usual shape for a
            label + numbers table).
    """
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("row width does not match header count")
    if align_right is None:
        align_right = [False] + [True] * (len(headers) - 1)
    if len(align_right) != len(headers):
        raise ValueError("align_right width does not match header count")

    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def format_row(row: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(row):
            parts.append(cell.rjust(widths[i]) if align_right[i] else cell.ljust(widths[i]))
        return "| " + " | ".join(parts) + " |"

    separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(separator)
    lines.append(format_row(cells[0]))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(format_row(row))
    lines.append(separator)
    return "\n".join(lines)


def render_comparison(
    title: str,
    rows: Sequence[tuple[str, float, Optional[float]]],
    unit: str = "",
) -> str:
    """Render a measured-vs-reference table with relative errors.

    Rows are ``(label, measured, reference_or_None)``; a missing
    reference renders as "—".
    """
    body: list[list[object]] = []
    for label, measured, reference in rows:
        if reference is None:
            body.append([label, f"{measured:.4f}{unit}", "—", "—"])
        else:
            error = abs(measured - reference) / abs(reference) if reference else float("inf")
            body.append(
                [label, f"{measured:.4f}{unit}", f"{reference:.4f}{unit}", f"{error * 100:.1f}%"]
            )
    return render_table(["case", "measured", "paper", "rel.err"], body, title=title)
