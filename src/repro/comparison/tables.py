"""A small comparison-table model with rendering and diffing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

Cell = Union[bool, str]


def render_cell(cell: Cell) -> str:
    if cell is True:
        return "Yes"
    if cell is False:
        return "No"
    return str(cell)


@dataclass
class ComparisonTable:
    """Rows of labelled cells under named columns."""

    title: str
    columns: list[str]
    rows: list[tuple[str, list[Cell]]] = field(default_factory=list)

    def add_row(self, label: str, *cells: Cell) -> "ComparisonTable":
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row {label!r} has {len(cells)} cells for {len(self.columns)} columns"
            )
        self.rows.append((label, list(cells)))
        return self

    def cell(self, row_label: str, column: str) -> Cell:
        column_index = self.columns.index(column)
        for label, cells in self.rows:
            if label == row_label:
                return cells[column_index]
        raise KeyError(row_label)

    def render(self, *, label_width: int = 46, cell_width: int = 22) -> str:
        lines = [self.title, "=" * len(self.title)]
        header = " " * label_width + "".join(
            column.ljust(cell_width)[:cell_width] for column in self.columns
        )
        lines.append(header)
        lines.append("-" * (label_width + cell_width * len(self.columns)))
        for label, cells in self.rows:
            line = label.ljust(label_width)[:label_width] + "".join(
                render_cell(cell).ljust(cell_width)[:cell_width] for cell in cells
            )
            lines.append(line)
        return "\n".join(lines)

    def diff(self, other: "ComparisonTable") -> "TableDiff":
        """Cell-by-cell comparison against an expected table (same shape); a
        row only one of the two tables has is a mismatch."""
        mismatches: list[str] = []
        if self.columns != other.columns:
            mismatches.append(f"columns differ: {self.columns} vs {other.columns}")
            return TableDiff(mismatches, 0)
        expected_rows = {label: cells for label, cells in other.rows}
        matched = 0
        for label, cells in self.rows:
            expected = expected_rows.get(label)
            if expected is None:
                mismatches.append(f"row {label!r} missing from expected table")
                continue
            for column, got, want in zip(self.columns, cells, expected):
                if got == want:
                    matched += 1
                else:
                    mismatches.append(
                        f"{label!r} / {column}: measured {render_cell(got)!r}, "
                        f"paper says {render_cell(want)!r}"
                    )
        measured = {label for label, _ in self.rows}
        mismatches.extend(
            f"row {label!r} missing from measured table"
            for label in expected_rows
            if label not in measured
        )
        return TableDiff(mismatches, matched)


@dataclass
class TableDiff:
    mismatches: list[str]
    matched_cells: int

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.clean:
            return f"all {self.matched_cells} cells match the paper"
        return (
            f"{self.matched_cells} cells match; {len(self.mismatches)} mismatches:\n  "
            + "\n  ".join(self.mismatches)
        )
