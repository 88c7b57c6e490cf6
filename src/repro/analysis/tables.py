"""Plain-text tables with aligned columns.

Every experiment prints its results through :class:`Table`, so the
console output of ``repro evaluate`` reads like the rows of the paper's
evaluation and EXPERIMENTS.md can embed the same rendering.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.errors import ConfigError


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


class Table:
    """A titled, column-aligned text table."""

    def __init__(self, columns: Sequence[str], title: str = ""):
        if not columns:
            raise ConfigError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        """Append a row; must match the column count."""
        if len(values) != len(self.columns):
            raise ConfigError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append([_fmt(v) for v in values])

    def add_dict_row(self, row: dict) -> None:
        """Append a row from a dict keyed by column name."""
        self.add_row(*[row[c] for c in self.columns])

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The table as an aligned multi-line string."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(c.ljust(widths[i])
                           for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.rjust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """The table as GitHub-flavored markdown (for EXPERIMENTS.md)."""
        lines: List[str] = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def column(self, name: str) -> List[str]:
        """All cells of one column (rendered strings)."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ConfigError(f"no column named {name!r}") from None
        return [row[idx] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return self.render()
