"""Domain model and input parsing for publication corpora.

A corpus bundles publication records with program rosters and optionally
restricts records to a closed year window. A roster is a reference or a
candidate program because of the corpus list that holds it; the roster
itself records no role. All values are immutable after construction and
safe to share between threads.

Identifiers are opaque strings compared by exact equality. Resolving author
names to stable identifiers and merging renamed venues is the data
preparer's job, not this module's.
"""

from __future__ import annotations

import json
import json.scanner
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import CorpusError, EmptyVenueSetError

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class Corpus:
    """Validated, immutable bundle of publications and program rosters.

    ``reference_programs`` is ordered: its order is the priority used when
    stability sweeps take reference-set prefixes.
    """

    publications: tuple[PublicationRecord, ...]
    reference_programs: tuple[ProgramRoster, ...]
    candidate_programs: tuple[ProgramRoster, ...]
    year_window: tuple[int, int] | None = None
    dropped_outside_window: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        _check_structure(self)

    @property
    def programs(self) -> tuple[ProgramRoster, ...]:
        return self.reference_programs + self.candidate_programs

    @cached_property
    def _reference_venues(self) -> dict[VenueId, int]:
        """Papers with a reference-roster author, per venue in venue id order.

        Its keys are what :func:`reference_venue_set` returns, computed
        once; it may be empty. Its values are the distinct-paper venue totals.
        """
        members: set[str] = set()
        for roster in self.reference_programs:
            members |= roster.faculty
        papers = Counter(
            pub.venue for pub in self.publications if not members.isdisjoint(pub.authors)
        )
        return dict(sorted(papers.items()))


def _check_structure(corpus: Corpus) -> None:
    """Enforce the structural invariants that hold for every corpus."""
    seen_programs: set[str] = set()
    author_home: dict[str, str] = {}
    for roster in corpus.programs:
        if not roster.program_id:
            raise CorpusError("empty program id")
        if roster.program_id in seen_programs:
            raise CorpusError(f"duplicate program id {roster.program_id!r}")
        seen_programs.add(roster.program_id)
        if not roster.faculty:
            raise CorpusError(f"empty roster for program {roster.program_id!r}")
        for author in roster.faculty:
            if author in author_home:
                raise CorpusError(
                    f"faculty member {author!r} appears in both "
                    f"{author_home[author]!r} and {roster.program_id!r}"
                )
            author_home[author] = roster.program_id

    seen_pubs: set[str] = set()
    for pub in corpus.publications:
        if not pub.id:
            raise CorpusError("publication with empty id")
        if pub.id in seen_pubs:
            raise CorpusError(f"duplicate publication id {pub.id!r}")
        seen_pubs.add(pub.id)
        if not pub.authors:
            raise CorpusError(f"empty author list in record {pub.id!r}")
        if len(set(pub.authors)) != len(pub.authors):
            raise CorpusError(f"duplicate author within record {pub.id!r}")
        if corpus.year_window is not None:
            lo, hi = corpus.year_window
            if not lo <= pub.year <= hi:
                raise CorpusError(
                    f"record {pub.id!r} year {pub.year} outside window [{lo}, {hi}]"
                )


def reference_venue_set(corpus: Corpus) -> list[VenueId]:
    """Venues with at least one publication by reference-program faculty.

    Returns the venue ids in lexicographic order; this ordering fixes matrix
    indices everywhere downstream. Raises :class:`EmptyVenueSetError` when no
    reference faculty member published anything, which makes the corpus
    unusable for reputation propagation.
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
    valid Unicode, so one holding a lone surrogate is rejected. Records outside
    ``year_window`` (inclusive on both ends) are dropped and counted, with a
    logged warning.

    Raises :class:`CorpusError` on any malformed or inconsistent input; line
    numbers are included for per-record problems.
    """
    if year_window is not None:
        lo, hi = year_window
        if lo > hi:
            raise CorpusError(f"empty year window [{lo}, {hi}]")

    records = _parse_publications(publications)
    reference, candidates = _parse_rosters(rosters)

    kept: list[PublicationRecord] = []
    dropped = 0
    if year_window is None:
        kept = records
    else:
        lo, hi = year_window
        for record in records:
            if lo <= record.year <= hi:
                kept.append(record)
            else:
                dropped += 1
        if dropped:
            logger.warning(
                "dropped %d publication record(s) outside year window [%d, %d]",
                dropped,
                lo,
                hi,
            )

    corpus = Corpus(
        publications=tuple(kept),
        reference_programs=tuple(reference),
        candidate_programs=tuple(candidates),
        year_window=year_window,
        dropped_outside_window=dropped,
    )
    reference_venue_set(corpus)  # reject corpora with an empty venue set
    return corpus


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
# with the index where it ends. Objects come back as tuples of (key, value)
# pairs, so a repeated key is still visible and an array (a list) is not
# mistaken for an object.
_scan_value = json.scanner.make_scanner(json.JSONDecoder(object_pairs_hook=tuple))


def _parse_publications(text: str) -> list[PublicationRecord]:
    """Parse JSON Lines: one record per line, a line ending at LF or CRLF.

    A line that is exactly one well-formed record, with nothing around it,
    is decoded and checked with C-level operations only. Any other line
    (blank, padded, malformed, rejected, or one that may hold a lone
    surrogate) goes to :func:`_parse_line`, the reference checks, which
    accept it or raise the line's error.
    """
    records: list[PublicationRecord] = []
    seen: set[str] = set()
    strip = str.strip
    suspect = _may_hold_surrogate(text)
    lines = text.replace("\r\n", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        try:
            pairs, end = _scan_value(line, 0)
            raw = dict(pairs)
            pub_id = strip(raw["id"])
            venue = strip(raw["venue"])
            year = raw["year"]
            raw_authors = raw["authors"]
            if (
                type(pairs) is tuple
                and len(pairs) == 4
                and raw.keys() == _PUBLICATION_KEYS
                and end == len(line)
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
                    records.append(PublicationRecord(pub_id, venue, year, authors))
                    continue
        except (ValueError, TypeError, KeyError, StopIteration, RecursionError):
            pass
        record = _parse_line(line, lineno, seen)
        if record is not None:
            records.append(record)
    return records


def _parse_line(line: str, lineno: int, seen: set[str]) -> PublicationRecord | None:
    """Check one line rule by rule: its record, ``None`` if blank, or its error.

    ``seen`` holds the publication ids of the lines before; the line's id is
    added to it.
    """
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

    pub_id = _clean_id(raw["id"], "publication id", where)
    if pub_id in seen:
        raise CorpusError(f"{where}: duplicate publication id {pub_id!r}")
    seen.add(pub_id)
    venue = _clean_id(raw["venue"], "venue id", where)
    year = raw["year"]
    if isinstance(year, bool) or not isinstance(year, int):
        raise CorpusError(f"{where}: year must be an integer, got {year!r}")
    raw_authors = raw["authors"]
    if not isinstance(raw_authors, list):
        raise CorpusError(f"{where}: authors must be an array")
    if not raw_authors:
        raise CorpusError(f"empty author list in record {pub_id!r} ({where})")
    authors = tuple(_clean_id(a, "author id", where) for a in raw_authors)
    if len(set(authors)) != len(authors):
        raise CorpusError(f"duplicate author within record {pub_id!r} ({where})")
    return PublicationRecord(id=pub_id, venue=venue, year=year, authors=authors)


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

        program_id = _clean_id(entry["id"], "program id", where)
        role = entry["role"]
        if role not in ("reference", "candidate"):
            raise CorpusError(
                f"{where}: role must be 'reference' or 'candidate', got {role!r}"
            )

        raw_faculty = entry["faculty"]
        if not isinstance(raw_faculty, list):
            raise CorpusError(f"{where}: faculty must be an array")
        if not raw_faculty:
            raise CorpusError(f"empty roster for program {program_id!r} ({where})")
        faculty = [_clean_id(a, "author id", where) for a in raw_faculty]
        if len(set(faculty)) != len(faculty):
            raise CorpusError(f"{where}: duplicate faculty member in {program_id!r}")

        rank_hint = entry.get("rank_hint")
        if rank_hint is not None:
            if isinstance(rank_hint, bool) or not isinstance(rank_hint, int):
                raise CorpusError(f"{where}: rank_hint must be an integer")
            if rank_hint < 1:
                raise CorpusError(f"{where}: rank_hint must be >= 1, got {rank_hint}")

        roster = ProgramRoster(program_id, frozenset(faculty))
        if role == "candidate":
            candidates.append(roster)
        else:
            reference.append((math.inf if rank_hint is None else rank_hint, roster))

    reference.sort(key=itemgetter(0))
    return [roster for _, roster in reference], candidates


def serialize_publications(corpus: Corpus) -> str:
    """Render the publication records back to the line-oriented input form."""
    lines = []
    for pub in corpus.publications:
        lines.append(
            json.dumps(
                {
                    "id": pub.id,
                    "venue": pub.venue,
                    "year": pub.year,
                    "authors": list(pub.authors),
                },
                ensure_ascii=False,
            )
        )
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
