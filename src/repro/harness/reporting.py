"""Paper-style ASCII reporting for benchmark output."""

from __future__ import annotations

from collections.abc import Sequence


def format_table(
    rows: Sequence[dict],
    columns: Sequence[tuple[str, str]],
    title: str | None = None,
) -> str:
    """Render dict rows as an aligned ASCII table.

    ``columns`` is a list of (key, header); values are formatted with
    ``_fmt`` (floats get 4 significant digits, large ints thousands
    separators).
    """
    headers = [h for _, h in columns]
    body = [
        [_fmt(row.get(key)) for key, _ in columns] for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body
        else len(headers[i])
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in body:
        lines.append(" | ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def format_series(
    rows: Sequence[dict],
    x_key: str,
    y_key: str,
    title: str | None = None,
) -> str:
    """Render (x, y) series, one line per ``impl`` — the textual
    equivalent of a Figure 6 plot."""
    groups: dict[str, list[tuple]] = {}
    for row in rows:
        groups.setdefault(str(row["impl"]), []).append(
            (row[x_key], row[y_key])
        )
    lines = []
    if title:
        lines.append(title)
    for name in sorted(groups):
        pts = sorted(groups[name])
        series = "  ".join(f"({x}, {_fmt(y)})" for x, y in pts)
        lines.append(f"{name:>14}: {series}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)
