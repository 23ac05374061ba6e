"""Textual rendering of experiment results.

The paper's figures plot mean maximum task lateness against system size,
one panel per execution-time scenario, one curve per method. The renderers
here print the same data as aligned text: one *panel* (table) per scenario
with system sizes as rows and methods as columns — the rows/series a reader
would extract from the paper's plots.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.feast.aggregate import (
    mean_end_to_end_lateness,
    mean_max_lateness,
)
from repro.feast.runner import ExperimentResult


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Align a list of rows under headers; floats get one decimal."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.1f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def lateness_panel(
    result: ExperimentResult,
    scenario: str,
    methods: Optional[Sequence[str]] = None,
) -> str:
    """One scenario panel: mean max lateness, sizes × methods."""
    config = result.config
    labels = list(methods) if methods else [m.label for m in config.methods]
    means = mean_max_lateness(result.filter(scenario=scenario))
    rows: List[List[object]] = []
    for size in config.system_sizes:
        row: List[object] = [size]
        for label in labels:
            row.append(means.get((scenario, label, size), float("nan")))
        rows.append(row)
    return render_table(
        headers=["procs"] + labels,
        rows=rows,
        title=f"[{config.name}] scenario {scenario}: mean max task lateness",
    )


def end_to_end_panel(
    result: ExperimentResult,
    scenario: str,
    methods: Optional[Sequence[str]] = None,
) -> str:
    """One scenario panel of mean max *end-to-end* lateness — the
    strategy-independent measure, for cross-strategy comparisons."""
    config = result.config
    labels = list(methods) if methods else [m.label for m in config.methods]
    means = mean_end_to_end_lateness(result.filter(scenario=scenario))
    rows: List[List[object]] = []
    for size in config.system_sizes:
        row: List[object] = [size]
        for label in labels:
            row.append(means.get((scenario, label, size), float("nan")))
        rows.append(row)
    return render_table(
        headers=["procs"] + labels,
        rows=rows,
        title=(
            f"[{config.name}] scenario {scenario}: "
            "mean max end-to-end lateness"
        ),
    )


def lateness_report(result: ExperimentResult) -> str:
    """All scenario panels of one experiment, ready to print."""
    panels = [
        lateness_panel(result, scenario) for scenario in result.config.scenarios
    ]
    footer = (
        f"({result.config.n_graphs} graphs/combination, "
        f"topology={result.config.topology}, policy={result.config.policy}, "
        f"{len(result)} trials in {result.elapsed_seconds:.1f}s)"
    )
    return "\n\n".join(panels + [footer])


def series(
    result: ExperimentResult, scenario: str, method: str
) -> List[Tuple[int, float]]:
    """The (system size, mean max lateness) curve of one method — the
    machine-readable form of one line in a paper figure."""
    means = mean_max_lateness(result.filter(scenario=scenario, method=method))
    return [
        (size, means[(scenario, method, size)])
        for size in result.config.system_sizes
        if (scenario, method, size) in means
    ]


def to_csv(result: ExperimentResult) -> str:
    """All trial records as CSV (one row per trial)."""
    fields = [
        "experiment", "scenario", "n_processors", "method", "graph_index",
        "max_lateness", "mean_lateness", "n_late", "makespan",
        "mean_utilization", "min_laxity", "max_end_to_end_lateness",
    ]
    lines = [",".join(fields)]
    for record in result.records:
        data = record.as_dict()
        lines.append(",".join(str(data[f]) for f in fields))
    return "\n".join(lines)
