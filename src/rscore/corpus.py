"""Domain model and input parsing for publication corpora.

A corpus bundles publications with program rosters and optionally restricts
them to a closed year window. It holds the publications as columns (ids,
venues, years, author tuples) that the parser fills in one pass over the
lines; the venue set and the counts read them with numpy, and
:class:`PublicationRecord` objects are built only when
``Corpus.publications`` is read. A roster is a reference or a candidate
program because of the corpus list that holds it. All values are immutable
after construction and safe to share between threads.

Identifiers are opaque strings compared by exact equality. Resolving author
names to stable identifiers and merging renamed venues is the data
preparer's job, not this module's.
"""

from __future__ import annotations

import json
import json.scanner
import math
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

from .errors import CorpusError, EmptyVenueSetError

AuthorId = str
VenueId = str

_PUBLICATION_KEYS = frozenset({"id", "venue", "year", "authors"})
_ROSTER_REQUIRED_KEYS = frozenset({"id", "role", "faculty"})
_ROSTER_ALLOWED_KEYS = _ROSTER_REQUIRED_KEYS | {"rank_hint"}
EMPTY_VENUE_SET = "no publication by reference-program faculty; the venue set is empty"


@dataclass(frozen=True)
class PublicationRecord:
    """One paper: where it appeared, when, and who wrote it."""

    id: str
    venue: VenueId
    year: int
    authors: tuple[AuthorId, ...]


@dataclass(frozen=True)
class ProgramRoster:
    """A program and the set of faculty whose publications count for it.

    Whether it is a reference or a candidate program is fixed by the
    :class:`Corpus` list that holds it.
    """

    program_id: str
    faculty: frozenset[AuthorId]


@dataclass(frozen=True, init=False)
class Corpus:
    """Validated, immutable bundle of publications and program rosters.

    Built from :class:`PublicationRecord` objects, it keeps their fields as
    columns; ``publications`` builds the records again on first read. Its
    fields are those columns, so ``dataclasses.replace`` raises ``TypeError``.
    ``reference_programs`` is ordered: its order is the priority used when
    stability sweeps take reference-set prefixes.

    Records and rosters pass the rules of :func:`parse_corpus`, located as
    ``publication #N``, ``reference program #N`` or ``candidate program #N``.
    So a corpus built here equals the parse of its own JSON text, or both
    raise the same first error, with the same text apart from its location.
    """

    _ids: tuple[str, ...] = field(repr=False)
    _venues: tuple[VenueId, ...] = field(repr=False)
    _years: tuple[int, ...] = field(repr=False)
    _authors: tuple[tuple[AuthorId, ...], ...] = field(repr=False)
    reference_programs: tuple[ProgramRoster, ...]
    candidate_programs: tuple[ProgramRoster, ...]
    year_window: tuple[int, int] | None = None
    dropped_outside_window: int = field(default=0, compare=False)

    def __init__(self, publications: Iterable[PublicationRecord],
                 reference_programs: Iterable[ProgramRoster],
                 candidate_programs: Iterable[ProgramRoster],
                 year_window: tuple[int, int] | None = None) -> None:
        _check_window(year_window)
        seen: set[str] = set()
        # A record's fields are named as the keys of its JSON object.
        rows = [_check_record(vars(pub), f"publication #{n}", seen)
                for n, pub in enumerate(publications, start=1)]
        reference, candidates = (
            [_check_roster(r.program_id, role, r.faculty, f"{role} program #{n}")
             for n, r in enumerate(programs, start=1)]
            for role, programs in (("reference", reference_programs),
                                   ("candidate", candidate_programs))
        )
        self._finish(list(zip(*rows)) or [()] * 4, reference, candidates, year_window)

    def _finish(self, columns: list, reference: list[ProgramRoster],
                candidates: list[ProgramRoster], year_window: tuple[int, int] | None) -> None:
        """Every corpus ends here: drop the checked records outside the window,
        set every field, and check the rosters together and the venue set."""
        dropped = 0
        if year_window is not None:
            lo, hi = year_window
            inside = [lo <= year <= hi for year in columns[2]]
            dropped = inside.count(False)
            columns = [compress(column, inside) for column in columns]
        ids, venues, years, authors = map(tuple, columns)
        vars(self).update(_ids=ids, _venues=venues, _years=years, _authors=authors,
                          reference_programs=tuple(reference), candidate_programs=tuple(candidates),
                          year_window=year_window, dropped_outside_window=dropped)
        programs: set[str] = set()
        home: dict[AuthorId, str] = {}
        for roster in self.programs:
            if roster.program_id in programs:
                raise CorpusError(f"duplicate program id {roster.program_id!r}")
            programs.add(roster.program_id)
            for member in sorted(roster.faculty):
                if member in home:
                    raise CorpusError(f"faculty member {member!r} appears in both "
                                      f"{home[member]!r} and {roster.program_id!r}")
                home[member] = roster.program_id
        reference_venue_set(self)

    @property
    def publication_count(self) -> int:
        """Number of publications, counted without building their records."""
        return len(self._ids)

    @cached_property
    def publications(self) -> tuple[PublicationRecord, ...]:
        return tuple(map(PublicationRecord, self._ids, self._venues, self._years, self._authors))

    @property
    def programs(self) -> tuple[ProgramRoster, ...]:
        return self.reference_programs + self.candidate_programs

    @cached_property
    def _members(self) -> list[tuple[str, AuthorId]]:
        """Roster members as (program id, member), sorted; a member's number is its position."""
        by_id = sorted(self.programs, key=lambda roster: roster.program_id)
        return [(roster.program_id, m) for roster in by_id for m in sorted(roster.faculty)]

    @cached_property
    def _member_papers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(paper, member number) of every authorship by a roster member, in
        paper order, and the program row of every member number."""
        number = {member: m for m, (_, member) in enumerate(self._members)}
        authors = self._authors
        member = np.fromiter(map(number.get, chain.from_iterable(authors), repeat(-1)), np.int64)
        paper = np.repeat(np.arange(len(authors)), list(map(len, authors)))
        row = {roster.program_id: r for r, roster in enumerate(self.programs)}
        home = np.array([row[program] for program, _ in self._members], dtype=np.int64)
        return paper[member >= 0], member[member >= 0], home

    def _paper_columns(self, columns: Mapping[VenueId, int]) -> np.ndarray:
        """Each paper's venue column, -1 for a venue outside the reference set."""
        return np.fromiter(map(columns.get, self._venues, repeat(-1)), np.int64, len(self._venues))

    @cached_property
    def _reference_venues(self) -> dict[VenueId, int]:
        """Papers with a reference-roster author, per venue in venue id order.

        Its keys are what :func:`reference_venue_set` returns, computed
        once; it may be empty. Its values are the distinct-paper venue totals.
        """
        paper, member, home = self._member_papers
        shared = np.zeros(len(self._ids), dtype=bool)
        shared[paper[home[member] < len(self.reference_programs)]] = True
        return dict(sorted(Counter(compress(self._venues, shared.tolist())).items()))


def reference_venue_set(corpus: Corpus) -> list[VenueId]:
    """Venues with at least one publication by reference-program faculty.

    Returns the venue ids in lexicographic order; this ordering fixes matrix
    indices everywhere downstream. Raises :class:`EmptyVenueSetError` when no
    reference faculty member published anything, which makes the corpus
    unusable for reputation propagation; both constructors call it, so no
    :class:`Corpus` has an empty venue set.
    """
    venues = corpus._reference_venues
    if not venues:
        raise EmptyVenueSetError(EMPTY_VENUE_SET)
    return list(venues)


def parse_corpus(
    publications: str,
    rosters: str,
    year_window: tuple[int, int] | None = None,
) -> Corpus:
    """Parse and validate the two input documents into a :class:`Corpus`.

    ``publications`` is JSON Lines: one JSON object per line, a line ending
    at LF (CRLF accepted), with exactly the keys ``id``, ``venue``, ``year``,
    ``authors``, each once. ``rosters`` is a single JSON document with a
    ``programs`` array; no object in it may repeat a key. Every id must be
    valid Unicode, so one holding a lone surrogate is rejected, and ids are
    trimmed. Records outside ``year_window`` (inclusive on both ends) are
    dropped and counted in ``dropped_outside_window``; the caller decides
    whether to warn. ``Corpus(...)`` applies the same rules to records and
    rosters built in code.

    Raises :class:`CorpusError` on any malformed or inconsistent input; line
    numbers are included for per-record problems.
    """
    _check_window(year_window)
    columns = _parse_publications(publications)
    reference, candidates = _parse_rosters(rosters)
    corpus = object.__new__(Corpus)
    corpus._finish(columns, reference, candidates, year_window)
    return corpus


def _check_window(year_window: tuple[int, int] | None) -> None:
    if year_window is not None and year_window[0] > year_window[1]:
        raise CorpusError(f"empty year window [{year_window[0]}, {year_window[1]}]")


def _clean_id(value: object, what: str, where: str) -> str:
    if not isinstance(value, str):
        raise CorpusError(f"{where}: {what} must be a string, got {value!r}")
    cleaned = value.strip()
    if not cleaned:
        raise CorpusError(f"{where}: empty {what}")
    if not cleaned.isascii() and not _encodes(cleaned):
        raise CorpusError(f"{where}: {what} is not valid Unicode")
    return cleaned


def _encodes(text: str) -> bool:
    """Whether ``text`` is valid Unicode: UTF-8 has no form for a lone surrogate."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


# A JSON escape of a UTF-16 surrogate, \uD800 to \uDFFF.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _may_hold_surrogate(text: str) -> bool:
    """Whether a string decoded from the JSON ``text`` may hold a lone surrogate.

    C-level scans only: a surrogate can only come from a surrogate escape
    or, when the text is not ASCII, from the text itself, and a text with
    no backslash (a single-character search) holds no escape. A valid
    escaped pair also answers True; its ids are then checked one by one.
    """
    if "\\" in text and _SURROGATE_ESCAPE.search(text) is not None:
        return True
    return not text.isascii() and not _encodes(text)


class _DuplicateKeyError(Exception):
    """A JSON object names one key twice; ``args[0]`` is the key."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """``object_pairs_hook`` that refuses an object naming one key twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKeyError(key)
            seen.add(key)
    return obj


def _decode(text: str, where: str, what: str) -> object:
    """``json.loads`` without duplicate keys; every failure is a CorpusError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except _DuplicateKeyError as exc:
        raise CorpusError(f"{where}: duplicate key {exc.args[0]!r}") from None
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{where}: {what}: {exc.msg}") from exc
    except RecursionError:
        raise CorpusError(f"{where}: {what}: nested too deeply") from None
    except ValueError as exc:  # an integer literal past int's digit limit
        raise CorpusError(f"{where}: {what}: {exc}") from None


# One C call decodes the JSON value that starts at an index and returns it
# with the index where it ends.
_scan_value = json.scanner.make_scanner(json.JSONDecoder())


def _parse_publications(text: str) -> list[list]:
    """Parse JSON Lines, a line ending at LF or CRLF, into id, venue, year
    and authors columns.

    A line that is exactly one well-formed record, with nothing around it,
    is decoded and checked with C-level operations only. It must hold just
    four colons: each key needs its own, so a line whose four keys are found
    holds no other key and repeats none (decoding keeps a repeated key's last
    value). Any other line (blank, padded, malformed, rejected, holding a
    colon in a string, or one that may hold a lone surrogate) goes to
    :func:`_parse_line`, the reference checks, which accept it or raise.
    """
    columns: list[list] = [[], [], [], []]
    add_id, add_venue, add_year, add_authors = (column.append for column in columns)
    seen: set[str] = set()
    strip = str.strip
    # Venue and author ids repeat from paper to paper; the columns keep one
    # string object per distinct id.
    share = {}.setdefault
    suspect = _may_hold_surrogate(text)
    lines = chain.from_iterable(_line_blocks(text.replace("\r\n", "\n")))
    for lineno, line in enumerate(lines, start=1):
        try:
            raw, end = _scan_value(line, 0)
            pub_id = strip(raw["id"])
            venue = strip(raw["venue"])
            year = raw["year"]
            raw_authors = raw["authors"]
            if (
                end == len(line)
                and line.count(":") == 4
                and pub_id
                and venue
                and type(year) is int
                and type(raw_authors) is list
                and pub_id not in seen
                and not (suspect and _may_hold_surrogate(line))
            ):
                authors = tuple(map(strip, raw_authors))
                if authors and all(authors) and len(set(authors)) == len(authors):
                    seen.add(pub_id)
                    add_id(pub_id)
                    add_venue(share(venue, venue))
                    add_year(year)
                    add_authors(tuple(map(share, authors, authors)))
                    continue
        except (ValueError, TypeError, KeyError, StopIteration, RecursionError):
            pass
        row = _parse_line(line, lineno, seen)
        for column, value in zip(columns, row or ()):
            column.append(value)
    return columns


def _line_blocks(text: str) -> Iterator[list[str]]:
    """``text.split("\\n")`` in consecutive parts of about 64k characters,
    so that only one part's lines are held at once."""
    start = 0
    while start <= len(text):
        end = text.find("\n", start + (1 << 16))
        end = len(text) if end < 0 else end
        yield text[start:end].split("\n")
        start = end + 1


def _parse_line(line: str, lineno: int, seen: set[str]) -> tuple | None:
    """Check one line rule by rule: its (id, venue, year, authors), ``None`` if
    blank, or its error."""
    if not line.strip():
        return None
    where = f"publications line {lineno}"
    raw = _decode(line, where, "malformed record")
    if not isinstance(raw, dict):
        raise CorpusError(f"{where}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - _PUBLICATION_KEYS
    if unknown:
        raise CorpusError(f"{where}: unknown keys {sorted(unknown)}")
    missing = _PUBLICATION_KEYS - set(raw)
    if missing:
        raise CorpusError(f"{where}: missing keys {sorted(missing)}")
    return _check_record(raw, where, seen)


def _check_record(raw: Mapping[str, object], where: str,
                  seen: set[str]) -> tuple[str, VenueId, int, tuple[AuthorId, ...]]:
    """A record's cleaned (id, venue, year, authors), or its error; ``seen``
    holds the ids of the records before, and the record's id is added."""
    pub_id = _clean_id(raw["id"], "publication id", where)
    if pub_id in seen:
        raise CorpusError(f"{where}: duplicate publication id {pub_id!r}")
    seen.add(pub_id)
    venue = _clean_id(raw["venue"], "venue id", where)
    year = raw["year"]
    if isinstance(year, bool) or not isinstance(year, int):
        raise CorpusError(f"{where}: year must be an integer, got {year!r}")
    raw_authors = raw["authors"]
    if not isinstance(raw_authors, (list, tuple)):
        raise CorpusError(f"{where}: authors must be an array")
    if not raw_authors:
        raise CorpusError(f"empty author list in record {pub_id!r} ({where})")
    authors = tuple(_clean_id(a, "author id", where) for a in raw_authors)
    if len(set(authors)) != len(authors):
        raise CorpusError(f"duplicate author within record {pub_id!r} ({where})")
    return pub_id, venue, year, authors


def _check_roster(raw_id: object, role: object, raw_faculty: object,
                  where: str) -> ProgramRoster:
    """One roster, cleaned, or its error; ``_finish`` checks rosters together."""
    program_id = _clean_id(raw_id, "program id", where)
    if role not in ("reference", "candidate"):
        raise CorpusError(f"{where}: role must be 'reference' or 'candidate', got {role!r}")
    if not isinstance(raw_faculty, (list, tuple, set, frozenset)):
        raise CorpusError(f"{where}: faculty must be an array")
    if not raw_faculty:
        raise CorpusError(f"empty roster for program {program_id!r} ({where})")
    if isinstance(raw_faculty, (set, frozenset)):  # sorted, so the first error is fixed
        raw_faculty = sorted(raw_faculty, key=repr)
    faculty = [_clean_id(a, "author id", where) for a in raw_faculty]
    if len(set(faculty)) != len(faculty):
        raise CorpusError(f"{where}: duplicate faculty member in {program_id!r}")
    return ProgramRoster(program_id, frozenset(faculty))


def _parse_rosters(text: str) -> tuple[list[ProgramRoster], list[ProgramRoster]]:
    document = _decode(text, "rosters document", "malformed JSON")
    if not isinstance(document, dict) or set(document) != {"programs"}:
        raise CorpusError("rosters document must be an object with a 'programs' array")
    entries = document["programs"]
    if not isinstance(entries, list):
        raise CorpusError("rosters 'programs' must be an array")

    # Reference programs go by rank_hint, unhinted ones after every hinted
    # one; the sort is stable, so file order breaks ties.
    reference: list[tuple[float, ProgramRoster]] = []
    candidates: list[ProgramRoster] = []
    for position, entry in enumerate(entries):
        where = f"rosters program #{position + 1}"
        if not isinstance(entry, dict):
            raise CorpusError(f"{where}: expected an object")
        unknown = set(entry) - _ROSTER_ALLOWED_KEYS
        if unknown:
            raise CorpusError(f"{where}: unknown keys {sorted(unknown)}")
        missing = _ROSTER_REQUIRED_KEYS - set(entry)
        if missing:
            raise CorpusError(f"{where}: missing keys {sorted(missing)}")

        roster = _check_roster(entry["id"], entry["role"], entry["faculty"], where)
        rank_hint = entry.get("rank_hint")
        if rank_hint is not None:
            if isinstance(rank_hint, bool) or not isinstance(rank_hint, int):
                raise CorpusError(f"{where}: rank_hint must be an integer")
            if rank_hint < 1:
                raise CorpusError(f"{where}: rank_hint must be >= 1, got {rank_hint}")

        if entry["role"] == "candidate":
            candidates.append(roster)
        else:
            reference.append((math.inf if rank_hint is None else rank_hint, roster))

    reference.sort(key=itemgetter(0))
    return [roster for _, roster in reference], candidates


def serialize_publications(corpus: Corpus) -> str:
    """Render the publications back to the line-oriented input form."""
    lines = [
        json.dumps(
            {"id": pub_id, "venue": venue, "year": year, "authors": list(authors)},
            ensure_ascii=False,
        )
        for pub_id, venue, year, authors in zip(
            corpus._ids, corpus._venues, corpus._years, corpus._authors
        )
    ]
    return "\n".join(lines) + "\n"


def serialize_rosters(corpus: Corpus) -> str:
    """Render the rosters back to the document input form.

    Reference programs get explicit rank hints so that the priority order
    survives a round trip regardless of how it was originally expressed.
    """
    programs = []
    for hint, roster in enumerate(corpus.reference_programs, start=1):
        programs.append(
            {
                "id": roster.program_id,
                "role": "reference",
                "rank_hint": hint,
                "faculty": sorted(roster.faculty),
            }
        )
    for roster in corpus.candidate_programs:
        programs.append(
            {
                "id": roster.program_id,
                "role": "candidate",
                "faculty": sorted(roster.faculty),
            }
        )
    return json.dumps({"programs": programs}, indent=2, ensure_ascii=False) + "\n"
