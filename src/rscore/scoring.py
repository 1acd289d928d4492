"""Scoring and ranking of programs against a solved reputation model.

A program's raw score is its venue-weighted publication total: its nonzero
per-venue counts times the venue reputations, added venue by venue.
Normalizing by the best raw score in the scored set gives the final score
in [0, 1]; dividing by roster size first gives the per-faculty variant.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .counts import CountsTable
from .errors import ScoringError
from .reputation import ReputationModel


@dataclass(frozen=True)
class ScoreRow:
    program_id: str
    faculty_count: int
    raw_score: float
    r_score: float
    r_score_per_faculty: float
    rank_total: int
    rank_per_faculty: int


@dataclass(frozen=True)
class ScoreReport:
    """Scored programs, ordered by descending score (ties lexicographic).

    ``zero_scores`` flags the degenerate case where every program scored
    zero; all normalized scores are then zero instead of dividing by zero.
    """

    rows: tuple[ScoreRow, ...]
    zero_scores: bool = False


def _nonzero_cells(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A count block's nonzero cells in row-major order: rows, columns, counts."""
    row, column = np.nonzero(block)
    return row, column, block[row, column]


def _raw_scores(cells: tuple[np.ndarray, ...], nu: np.ndarray, rows: int) -> np.ndarray:
    """Each of ``rows`` rows' total of ``count * nu[column]`` over its cells.

    The cells come from :func:`_nonzero_cells`, so each row's products come
    left to right by venue, and ``np.bincount`` adds its weights in input
    order, as a per-row loop would; a matrix product or ``sum`` may reorder
    the sum and change the last bits. Every product is >= 0 and every total
    starts at +0.0, so the zero cells left out would add nothing.
    """
    row, column, count = cells
    return np.bincount(row, weights=count * nu[column], minlength=rows)


def _by_value(ids: Sequence[str], values: Iterable[float]) -> list[tuple[str, float]]:
    """(id, value) pairs by descending value, then id: the order of every printed ranking."""
    return sorted(zip(ids, values), key=lambda item: (-item[1], item[0]))


def _competition_ranks(values: list[float]) -> list[int]:
    # 1-based; ties share the smaller rank and the next rank skips: one plus
    # the number of strictly larger values.
    ascending = sorted(values)
    return [1 + len(values) - bisect_right(ascending, value) for value in values]


def score_programs(
    model: ReputationModel, counts: CountsTable, program_ids: list[str]
) -> ScoreReport:
    """Score and rank the given programs against the model.

    Normalization maxima are taken over exactly the programs passed in, so
    reference programs only influence the scale when explicitly included.
    """
    if not program_ids:
        raise ScoringError("no programs to score")
    if len(set(program_ids)) != len(program_ids):
        raise ScoringError("duplicate program id in scoring request")

    table_rows = [counts.row(pid) for pid in program_ids]
    nu = np.zeros(len(counts.venue_index))
    nu[[counts.column(venue) for venue in model.venue_index]] = model.nu
    totals = _raw_scores(_nonzero_cells(counts.matrix), nu, len(counts.programs))[table_rows]
    raws = dict(zip(program_ids, totals.tolist()))
    sizes = {pid: counts.roster_sizes[pid] for pid in program_ids}
    per_faculty = {pid: raws[pid] / sizes[pid] for pid in program_ids}

    max_raw = max(raws.values())
    max_pf = max(per_faculty.values())
    zero_scores = max_raw == 0.0

    ordered = [pid for pid, _ in _by_value(program_ids, raws.values())]
    rank_total = dict(zip(ordered, _competition_ranks([raws[p] for p in ordered])))
    rank_pf = dict(zip(ordered, _competition_ranks([per_faculty[p] for p in ordered])))

    rows = tuple(
        ScoreRow(
            program_id=pid,
            faculty_count=sizes[pid],
            raw_score=raws[pid],
            r_score=0.0 if zero_scores else raws[pid] / max_raw,
            r_score_per_faculty=0.0 if zero_scores else per_faculty[pid] / max_pf,
            rank_total=rank_total[pid],
            rank_per_faculty=rank_pf[pid],
        )
        for pid in ordered
    )
    return ScoreReport(rows=rows, zero_scores=zero_scores)
