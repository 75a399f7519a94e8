"""Shared experiment result containers and table formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class ExperimentPoint:
    """One point of a parameter sweep: its parameters and measured metrics."""

    parameters: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, Any]:
        """Flatten parameters and metrics into one row dictionary."""
        row: Dict[str, Any] = {}
        row.update(self.parameters)
        row.update(self.metrics)
        return row


@dataclass
class ExperimentResult:
    """The regenerated data of one table or figure."""

    name: str
    description: str = ""
    points: List[ExperimentPoint] = field(default_factory=list)

    def add_point(self, parameters: Dict[str, Any], metrics: Dict[str, float]) -> ExperimentPoint:
        """Append one sweep point."""
        point = ExperimentPoint(parameters=dict(parameters), metrics=dict(metrics))
        self.points.append(point)
        return point

    def rows(self) -> List[Dict[str, Any]]:
        """All points flattened into row dictionaries."""
        return [point.as_row() for point in self.points]

    def columns(self) -> List[str]:
        """Union of the column names across all rows, in first-seen order."""
        seen: List[str] = []
        for row in self.rows():
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def metric_series(self, metric: str) -> List[float]:
        """The values of one metric across the sweep, in point order."""
        return [point.metrics[metric] for point in self.points if metric in point.metrics]

    def format_table(self, float_format: str = "{:.3f}") -> str:
        """Render the result as a fixed-width text table (for bench output)."""
        columns = self.columns()
        if not columns:
            return f"{self.name}: (no data)"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                if 0 < abs(value) < 1e-3:  # a rate: "0.000" would hide it
                    return f"{value:.3g}"
                return float_format.format(value)
            return str(value)

        rows = [[fmt(row.get(col, "")) for col in columns] for row in self.rows()]
        widths = [
            max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
            for i, col in enumerate(columns)
        ]
        header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        separator = "-+-".join("-" * w for w in widths)
        body = "\n".join(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
        )
        title = f"== {self.name} =="
        if self.description:
            title += f"  ({self.description})"
        return "\n".join([title, header, separator, body])

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format_table()
