"""Run summaries, convergence detection, comparison, and CSV output."""

from __future__ import annotations

import operator
from math import fsum
from dataclasses import dataclass
from pathlib import Path

from .domain import ALL_NETWORKS, CYCLE_S, NetworkKind
from .engine import CycleRecord

#: The convergence rule `summarize` applies: at most 1 handoff/cycle sustained for 20 cycles.
DEFAULT_THRESHOLD = 1
DEFAULT_WINDOW = 20


def _network_columns(prefix: str) -> list[str]:
    return [f"{prefix}_{net.value}" for net in ALL_NETWORKS]


CSV_COLUMNS = ("cycle", "time_s", *_network_columns("count"), "handoffs", "avg_score",
               *(col for prefix in ("score", "delay", "plr", "jit")
                 for col in _network_columns(prefix)))


@dataclass(frozen=True)
class RunSummary:
    """Aggregate view of one run.

    pingpong_index is the mean handoffs per cycle after convergence, or
    over the whole run when convergence never happened; per-network mean
    counts follow the same region.
    """

    converged_at_cycle: int | None
    pingpong_index: float
    total_handoffs: int
    mean_avg_score: float
    mean_counts: dict[NetworkKind, float]


def detect_convergence(handoffs_series: list[int], threshold: int = DEFAULT_THRESHOLD,
                       window: int = DEFAULT_WINDOW) -> int | None:
    """First cycle from which handoffs stay <= threshold for `window` cycles."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    run = 0
    for idx, value in enumerate(handoffs_series):
        run = run + 1 if value <= threshold else 0
        if run >= window:
            return idx - window + 1
    return None


def summarize(records: list[CycleRecord]) -> RunSummary:
    """Collapse a record list into a RunSummary under the fixed convergence rule."""
    if not records:
        raise ValueError("cannot summarize an empty run")
    handoffs = [r.handoffs for r in records]
    converged_at = detect_convergence(handoffs)
    region = records[converged_at:] if converged_at is not None else records
    return RunSummary(
        converged_at_cycle=converged_at,
        pingpong_index=sum(r.handoffs for r in region) / len(region),
        total_handoffs=sum(handoffs),
        mean_avg_score=fsum(r.avg_score for r in records) / len(records),
        mean_counts={net: sum(r.counts[net] for r in region) / len(region)
                     for net in ALL_NETWORKS},
    )


_by_network = operator.itemgetter(*ALL_NETWORKS)
# One template for a whole row, cell for cell with CSV_COLUMNS: the cycle,
# the counts and the handoffs as integers, every other cell to 6 decimals.
_ROW = ",".join("%d" if col in ("cycle", "handoffs") or col.startswith("count_") else "%.6f"
                for col in CSV_COLUMNS)


def _row(record: CycleRecord) -> str:
    dsrc, lte, wifi = _by_network(record.net_perf)  # each (delay, plr, jitter)
    return _ROW % (record.cycle, record.cycle * CYCLE_S, *_by_network(record.counts),
                   record.handoffs, record.avg_score, *_by_network(record.net_score),
                   dsrc[0], lte[0], wifi[0], dsrc[1], lte[1], wifi[1],
                   dsrc[2], lte[2], wifi[2])


def render_csv(records: list[CycleRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(_row(r) for r in records)
    return "\n".join(lines) + "\n"


def write_csv(records: list[CycleRecord], destination: str | Path) -> None:
    """Write one row per cycle; floats rendered with 6 decimal digits."""
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(records))


def _converged(cycle: int | None) -> str:
    return "never" if cycle is None else f"cycle {cycle}"


def format_summary(summary: RunSummary) -> str:
    counts = ", ".join(f"{net.value}={summary.mean_counts[net]:.2f}"
                       for net in ALL_NETWORKS)
    return "\n".join([
        f"converged:        {_converged(summary.converged_at_cycle)}",
        f"pingpong index:   {summary.pingpong_index:.4f} handoffs/cycle",
        f"total handoffs:   {summary.total_handoffs}",
        f"mean avg score:   {summary.mean_avg_score:.4f}",
        f"mean counts:      {counts}",
    ])


def format_comparison(game: RunSummary, baseline: RunSummary) -> str:
    """The game run against the baseline run of the same scenario: their handoff
    rate ratio (1 when neither hands off, inf when only the game does), then per
    run its handoffs per cycle, also per terminal."""
    if baseline.pingpong_index > 0:
        ratio = game.pingpong_index / baseline.pingpong_index
    else:
        ratio = 1.0 if game.pingpong_index == 0 else float("inf")
    total = sum(game.mean_counts.values())
    lines = [f"handoff rate ratio (game/baseline): {ratio:.4f}"]
    for label, run in (("game:    ", game), ("baseline:", baseline)):
        lines.append(f"{label} {run.pingpong_index:.4f} handoffs/cycle "
                     f"({run.pingpong_index / total:.4f} per terminal), total "
                     f"{run.total_handoffs}, converged {_converged(run.converged_at_cycle)}")
    return "\n".join(lines)
