"""Publication counting with same-program co-author weighting.

A paper with ``a`` authors from one program's roster counts ``1/a`` toward
each of those authors, so per-program per-venue totals are whole numbers of
distinct papers. Co-authors from outside the roster never dilute the weight.

The model needs only those whole numbers, so they are kept in one integer
matrix of programs x reference venues. Exact rationals appear only in the
per-faculty rows, made from integer tallies. Both are numpy passes over the
corpus's columns, with each roster member's authorships mapped once.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from math import gcd

import numpy as np

from .corpus import AuthorId, Corpus, VenueId
from .errors import CountsError

_KEY_LIMIT = 2**63  # a tally key below it fits in an int64


class VenueMode(str, Enum):
    """How reported per-venue totals treat papers shared by several reference
    programs.

    PER_PROGRAM (the default) counts a shared paper once per contributing
    program; DISTINCT_PAPER counts it once overall. The reputation model
    does not depend on the mode.
    """

    PER_PROGRAM = "per-program"
    DISTINCT_PAPER = "distinct-paper"


@dataclass(frozen=True, eq=False)
class CountsTable:
    """All publication counts for one corpus.

    ``matrix[r, j]`` is the number of distinct papers in venue
    ``venue_index[j]`` with at least one author on the roster of program
    ``programs[r]`` (reference programs first, then candidates), as int64.
    Everything else is read from ``corpus``: the programs, roster sizes,
    the reference venue set and, in DISTINCT_PAPER mode, the venue totals,
    which the corpus counted when it found that set.

    The accessors return exact numbers: ``int`` for program and venue
    counts, :class:`~fractions.Fraction` for per-faculty weights.
    """

    corpus: Corpus = field(repr=False)
    matrix: np.ndarray
    venue_mode: VenueMode = VenueMode.PER_PROGRAM

    def __post_init__(self) -> None:
        # The cached views below must not go stale under the frozen table.
        self.matrix.setflags(write=False)

    @cached_property
    def venue_index(self) -> tuple[VenueId, ...]:
        return tuple(self.corpus._reference_venues)

    @cached_property
    def reference_programs(self) -> tuple[str, ...]:
        return tuple(r.program_id for r in self.corpus.reference_programs)

    @cached_property
    def candidate_programs(self) -> tuple[str, ...]:
        return tuple(r.program_id for r in self.corpus.candidate_programs)

    @cached_property
    def roster_sizes(self) -> Mapping[str, int]:
        return {r.program_id: len(r.faculty) for r in self.corpus.programs}

    @property
    def programs(self) -> tuple[str, ...]:
        return self.reference_programs + self.candidate_programs

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {pid: row for row, pid in enumerate(self.programs)}

    @cached_property
    def venue_totals(self) -> np.ndarray:
        """Per-venue totals over the reference programs, per ``venue_mode``."""
        if self.venue_mode is VenueMode.PER_PROGRAM:
            return self.matrix[: len(self.reference_programs)].sum(axis=0)
        papers = self.corpus._reference_venues.values()
        return np.fromiter(papers, np.int64, len(papers))

    def row(self, program_id: str) -> int:
        """Matrix row of a program; raises :class:`CountsError` if unknown."""
        try:
            return self._rows[program_id]
        except KeyError:
            raise CountsError(f"unknown program id {program_id!r}") from None

    def column(self, venue: VenueId) -> int:
        """Matrix column of a venue; raises :class:`CountsError` if not in the set."""
        try:
            return self.corpus._columns[venue]
        except KeyError:
            raise CountsError(
                f"venue {venue!r} is not in the reference venue set"
            ) from None

    def faculty_venue(self, program_id: str, faculty: AuthorId, venue: VenueId) -> Fraction:
        """Co-author-weighted paper count for one faculty member in one venue."""
        if faculty not in self.corpus.programs[self.row(program_id)].faculty:
            raise CountsError(f"faculty member {faculty!r} is not in the roster of {program_id!r}")
        self.column(venue)
        return self.per_faculty_venue.get((program_id, faculty, venue), Fraction(0))

    def program_venue(self, program_id: str, venue: VenueId) -> int:
        """Distinct papers by the program's roster in one venue."""
        return int(self.matrix[self.row(program_id), self.column(venue)])

    def venue_total(self, venue: VenueId) -> int:
        """Total papers in one venue, per the table's counting mode."""
        return int(self.venue_totals[self.column(venue)])

    def program_total(self, program_id: str) -> int:
        """Total papers by one program across the reference venue set."""
        return int(self.matrix[self.row(program_id)].sum())

    @cached_property
    def per_program_venue(self) -> Mapping[tuple[str, VenueId], int]:
        """Nonzero ``program_venue`` counts keyed by (program, venue)."""
        # np.nonzero walks the matrix in row-major order: programs, then venues.
        rows, columns = np.nonzero(self.matrix)
        programs, venues = self.programs, self.venue_index
        cells = zip(rows.tolist(), columns.tolist(), self.matrix[rows, columns].tolist())
        return {(programs[r], venues[j]): count for r, j, count in cells}

    @cached_property
    def per_venue(self) -> Mapping[VenueId, int]:
        return dict(zip(self.venue_index, self.venue_totals.tolist()))

    @cached_property
    def per_program(self) -> Mapping[str, int]:
        return dict(zip(self.programs, self.matrix.sum(axis=1).tolist()))

    @cached_property
    def per_faculty_venue(self) -> Mapping[tuple[str, AuthorId, VenueId], Fraction]:
        """Nonzero ``faculty_venue`` weights as Fractions, in ``_faculty_rows``' key order."""
        fraction = cache(Fraction)
        return {(p, f, v): fraction(exact) for p, f, v, _, exact in self._faculty_rows()}

    def _faculty_rows(self) -> Iterator[tuple[str, AuthorId, VenueId, float, str]]:
        """(program, member, venue, weight, "n/d") for every nonzero weight, in key order.

        Members are numbered in (program, member) order and columns follow
        venue id order, so the tallies come in key order. A cell's tallies are
        summed exactly in Python integers, and each distinct sum is reduced,
        and its float and text made, once: cells share few of them.
        """
        member, column, same_roster, papers = self._faculty_tallies()
        closes = np.append((member[1:] != member[:-1]) | (column[1:] != column[:-1]), True)
        cells = zip(map(self.corpus._members.__getitem__, member[closes].tolist()),
                    map(self.venue_index.__getitem__, column[closes].tolist()))

        @cache
        def weight(numerator: int, denominator: int) -> tuple[float, str]:
            # int / int is correctly rounded: the unreduced pair gives n / d's float.
            g = gcd(numerator, denominator)
            return numerator / denominator, f"{numerator // g}/{denominator // g}"

        numerator, denominator = 0, 1
        for d, n, close in zip(same_roster.tolist(), papers.tolist(), closes.tolist()):
            numerator, denominator = numerator * d + n * denominator, denominator * d
            if close:
                (program, faculty), venue = next(cells)
                yield program, faculty, venue, *weight(numerator, denominator)
                numerator, denominator = 0, 1

    def _faculty_tallies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Papers per (member number, column, d), in that order, as four arrays;
        ``d`` is the number of the paper's authors on the member's roster."""
        paper, member, home = self.corpus._member_papers
        column = self.corpus._paper_columns[paper]
        keep = column >= 0
        paper, member, column = paper[keep], member[keep], column[keep]
        # Authorships come in paper order, so a stable sort by (paper, program)
        # is quick; it lines up each paper's authors from one roster, and d is
        # the length of their run.
        group = paper * len(self.programs) + home[member]
        order = np.argsort(group, kind="stable")
        runs = np.diff(np.flatnonzero(np.append(np.diff(group[order]), 1)), prepend=-1)
        same_roster = np.empty_like(order)
        same_roster[order] = np.repeat(runs, runs)

        # One sort of one key orders the tallies by (member, column, d). The cell
        # member * v + column is below members * v, far under 2**63 for any corpus
        # that fits in memory; times the largest d + 1, a corpus built to that end
        # can pass 2**63. Such a corpus has its cells numbered densely first, which
        # keeps the key below authorships * (authorships + 1).
        v, top = len(self.venue_index), int(same_roster.max(initial=0)) + 1
        cell, cells = member * v + column, None
        if len(self.corpus._members) * v * top > _KEY_LIMIT:
            cells, cell = np.unique(cell, return_inverse=True)
        key = np.sort(cell * top + same_roster)
        ends = np.flatnonzero(np.append(key[1:] != key[:-1], True))
        cell, same_roster = np.divmod(key[ends], top)
        member, column = np.divmod(cell if cells is None else cells[cell], v)
        return member, column, same_roster, np.diff(ends, prepend=-1)


def build_counts(
    corpus: Corpus, venue_mode: VenueMode = VenueMode.PER_PROGRAM
) -> CountsTable:
    """Count every program's distinct papers per reference venue in one pass.

    Per-venue totals cover reference programs only; candidate papers in
    venues outside the reference venue set contribute nothing anywhere.
    """
    p, v = len(corpus.programs), len(corpus._columns)
    column = corpus._paper_columns
    paper, member, home = corpus._member_papers
    row = home[member]
    # One cell per distinct (paper, program) in a reference venue: co-authors
    # from one roster count once. The keys come in paper order, so a stable
    # sort is quick (np.unique would load a hash table of about 1.7 MB).
    pairs = np.sort(paper * p + row, kind="stable")
    pairs = pairs[(column[pairs // p] >= 0) & np.append(True, pairs[1:] != pairs[:-1])]
    matrix = np.bincount(pairs % p * v + column[pairs // p], minlength=p * v)
    return CountsTable(corpus, matrix.reshape(p, v), venue_mode)
