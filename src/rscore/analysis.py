"""Rank correlation and reference-set stability analysis.

The stability sweep re-solves the model for growing prefixes of the reference
set and measures how much the candidate ranking moves, using Spearman's rank
correlation between consecutive prefix sizes and between the smallest and
largest. The corpus is counted once. The reputation layer solves each
prefix from a slice of the reference rows of that count, over the prefix's
own venues, and the sweep scores the candidates from the nonzero cells of
their rows, taken up front; no prefix builds a table of its own.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from numbers import Integral, Real
from collections.abc import Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .counts import build_counts
from .errors import AnalysisError, DegenerateRankingError, RScoreError
from .reputation import _prefix_reputations
from .scoring import ScoreReport, _by_value, _nonzero_cells, _raw_scores

Ranking = Sequence[str] | Sequence[tuple[str, float]]


def _rank_map(ranking: Ranking) -> dict[str, float]:
    """Rank positions keyed by id; score-annotated entries get average ranks.

    A plain id sequence is already a strict ranking, so positions are the
    ranks. With (id, score) pairs, entries are ranked by descending score and
    equal scores share the average of their positions.
    """
    if len(ranking) == 0:
        return {}
    if isinstance(ranking[0], str):
        ids = list(ranking)
        if any(not isinstance(entry, str) for entry in ids):
            raise AnalysisError("mixed ranking entries")
        if len(set(ids)) != len(ids):
            raise AnalysisError("ranking contains duplicate ids")
        return {pid: float(position) for position, pid in enumerate(ids, start=1)}

    if any(not isinstance(entry, tuple) or len(entry) != 2 for entry in ranking):
        raise AnalysisError("mixed ranking entries")
    try:  # around the loop, not in it: the sweep ranks every prefix here
        for pid, score in ranking:
            # float and int first: a check against the Real ABC alone takes about 1 µs
            if isinstance(score, bool) or not isinstance(score, (float, int, Real)):
                raise AnalysisError(f"ranking score of {pid!r} is not a number: {score!r}")
            if not math.isfinite(score):
                raise AnalysisError(f"ranking score of {pid!r} is not finite: {score}")
    except OverflowError:  # an int or a rational too large for a float
        raise AnalysisError(f"ranking score of {pid!r} is too large for a float") from None
    pairs = [(str(pid), float(score)) for pid, score in ranking]
    if len({pid for pid, _ in pairs}) != len(pairs):
        raise AnalysisError("ranking contains duplicate ids")
    # Ties hold descending positions n - right + 1 through n - left, where
    # left and right bound the score's run in ascending order.
    n = len(pairs)
    ascending = sorted(score for _, score in pairs)
    return {
        pid: (2 * n + 1 - bisect_left(ascending, s) - bisect_right(ascending, s)) / 2.0
        for pid, s in pairs
    }


def spearman(rank_a: Ranking, rank_b: Ranking) -> float:
    """Spearman's rank correlation between two rankings of the same set.

    Accepts either plain orderings of ids or (id, score) pairs with finite
    real scores, not bools; tied scores receive average ranks. Computed as
    the Pearson correlation of the two rank vectors, which reduces to
    1 - 6*sum(d^2)/(n(n^2-1)) when tie-free.
    """
    return _correlate_ranks(_rank_map(rank_a), _rank_map(rank_b))


def _correlate_ranks(ranks_a: dict[str, float], ranks_b: dict[str, float]) -> float:
    """Pearson correlation of two rank maps over the same ids."""
    if set(ranks_a) != set(ranks_b):
        raise AnalysisError("rankings do not cover the same program set")
    n = len(ranks_a)
    if n < 2:
        raise AnalysisError(f"need at least 2 ranked programs, got {n}")

    ids = sorted(ranks_a)
    a = [ranks_a[pid] for pid in ids]
    b = [ranks_b[pid] for pid in ids]
    mean_a = sum(a) / n
    mean_b = sum(b) / n
    covariance = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
    variance = math.sqrt(
        sum((x - mean_a) ** 2 for x in a) * sum((y - mean_b) ** 2 for y in b)
    )
    if variance == 0.0:
        raise DegenerateRankingError("a rank vector has zero variance")
    return max(-1.0, min(1.0, covariance / variance))


@dataclass(frozen=True)
class StabilityReport:
    """Rankings and their pairwise correlations across nested prefix sizes."""

    sizes: tuple[int, ...]
    adjacent: tuple[tuple[int, int, float], ...]
    first_vs_last: tuple[int, int, float]
    rankings: Mapping[int, tuple[str, ...]]


def stability_sweep(corpus: Corpus, k: int) -> StabilityReport:
    """Score the candidates against every reference-set prefix of size 1..k.

    Each prefix keeps its own venue set: the venues its reference programs
    publish in. Any failure is reported with the offending prefix size.
    """
    if isinstance(k, bool) or not isinstance(k, Integral):
        raise AnalysisError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise AnalysisError(f"k must be >= 1, got {k}")
    available = len(corpus.reference_programs)
    if available < k:
        raise AnalysisError(f"need {k} reference programs, found {available}")
    candidates = [r.program_id for r in corpus.candidate_programs]
    if not candidates:
        raise AnalysisError("no candidate programs to rank")

    ranks: dict[int, dict[str, float]] = {}
    rankings: dict[int, tuple[str, ...]] = {}
    try:
        counts = build_counts(corpus)
        t = len(counts.reference_programs)
        nonzeros = _nonzero_cells(counts.matrix[t:])
        # A prefix's columns hold every earlier prefix's, so it leaves no stale entry.
        nu = np.zeros(len(counts.venue_index))
        prefixes = _prefix_reputations(counts.matrix[:t], counts.reference_programs, k)
        for size, (columns, prefix_nu) in enumerate(prefixes, start=1):
            nu[columns] = prefix_nu
            scored = _by_value(candidates, _raw_scores(nonzeros, nu, len(candidates)).tolist())
            ranks[size] = _rank_map(scored)
            rankings[size] = tuple(pid for pid, _ in scored)
    except RScoreError as exc:
        raise AnalysisError(f"reference-set size {len(ranks) + 1}: {exc}") from exc

    def correlate(i: int, j: int) -> float:
        try:
            return _correlate_ranks(ranks[i], ranks[j])
        except DegenerateRankingError as exc:
            raise AnalysisError(
                f"comparison of sizes {i} and {j}: {exc}"
            ) from exc

    adjacent = tuple(
        (size, size + 1, correlate(size, size + 1)) for size in range(1, k)
    )
    # A self-comparison is 1 by definition; do not route it through the
    # correlation, which would reject an all-tied ranking instead.
    first_vs_last = (1, k, 1.0 if k == 1 else correlate(1, k))
    return StabilityReport(
        sizes=tuple(range(1, k + 1)),
        adjacent=adjacent,
        first_vs_last=first_vs_last,
        rankings=rankings,
    )


@dataclass(frozen=True)
class ComparisonRow:
    program_id: str
    r_score: float
    grade: float


@dataclass(frozen=True)
class ComparisonReport:
    """Score-ordered rows with external grades, plus their rank correlation.

    ``rho`` is None when the correlation is undefined (for example when all
    external grades are equal); ``degenerate`` marks that case. ``unmatched``
    holds the graded ids that name no scored program, in grades order.
    """

    rows: tuple[ComparisonRow, ...]
    rho: float | None
    degenerate: bool
    unmatched: tuple[str, ...] = ()


def compare_rankings(
    report: ScoreReport, external: Sequence[tuple[str, float]]
) -> ComparisonReport:
    """Pair a score report with an externally graded ranking.

    Only programs present on both sides are compared. Higher grades rank
    better, mirroring the score direction; equal grades are tie-grouped with
    average ranks. Each entry must be an (id, grade) tuple with a string id
    and a finite real grade, not a bool; anything else raises
    :class:`AnalysisError`.
    """
    grades = {}
    for entry in external:
        if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str)):
            raise AnalysisError(f"external grade entry {entry!r} is not an (id, grade) pair")
        pid, grade = entry
        try:
            finite = isinstance(grade, Real) and math.isfinite(grade)
        except OverflowError:  # an int or a rational too large for a float
            raise AnalysisError(f"grade of {pid!r} is too large for a float") from None
        if isinstance(grade, bool) or not finite:
            raise AnalysisError(f"grade of {pid!r} is not a finite number: {grade!r}")
        if pid in grades:
            raise AnalysisError(f"duplicate program id {pid!r} in external grades")
        grades[pid] = float(grade)

    common = [row for row in report.rows if row.program_id in grades]
    if not common:
        raise AnalysisError("no overlap between scored programs and external grades")
    matched = {row.program_id for row in common}
    unmatched = tuple(pid for pid in grades if pid not in matched)

    rows = tuple(
        ComparisonRow(
            program_id=row.program_id,
            r_score=row.r_score,
            grade=grades[row.program_id],
        )
        for row in common
    )
    rho: float | None
    if len(common) < 2:
        # a single shared program cannot be correlated
        rho, degenerate = None, True
    else:
        scored_pairs = [(row.program_id, row.raw_score) for row in common]
        grade_pairs = [(row.program_id, grades[row.program_id]) for row in common]
        try:
            rho, degenerate = spearman(scored_pairs, grade_pairs), False
        except DegenerateRankingError:
            rho, degenerate = None, True
    return ComparisonReport(rows=rows, rho=rho, degenerate=degenerate, unmatched=unmatched)
