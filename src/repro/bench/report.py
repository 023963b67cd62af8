"""Plain-text report formatting."""

from __future__ import annotations

from collections.abc import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render a simple fixed-width text table."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(format_row(list(headers)))
    lines.append(format_row(["-" * width for width in widths]))
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)

