from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rscore
from rscore import (
    Corpus,
    CorpusError,
    EmptyVenueSetError,
    VenueMode,
    build_counts,
    parse_corpus,
    reference_venue_set,
    serialize_publications,
    serialize_rosters,
)
from rscore.corpus import _line_blocks

from helpers import OracleReject, make_corpus, oracle_publications, random_corpus


def _pub_line(pid, venue="v1", year=2010, authors=("a1",), **extra):
    record = {"id": pid, "venue": venue, "year": year, "authors": list(authors)}
    record.update(extra)
    return json.dumps(record)


def _rosters(programs):
    return json.dumps({"programs": programs})


SIMPLE_ROSTERS = _rosters(
    [
        {"id": "r1", "role": "reference", "rank_hint": 1, "faculty": ["a1", "a2"]},
        {"id": "r2", "role": "reference", "rank_hint": 2, "faculty": ["b1"]},
    ]
)


def test_parse_valid_passthrough():
    lines = "\n".join(_pub_line(f"p{i}") for i in range(8))
    corpus = parse_corpus(lines, SIMPLE_ROSTERS)
    assert len(corpus.publications) == 8
    assert len(corpus.reference_programs) == 2
    assert len(corpus.candidate_programs) == 0


def test_parse_empty_author_list_names_record():
    lines = _pub_line("p1") + "\n" + _pub_line("bad-one", authors=())
    with pytest.raises(CorpusError, match="empty author list.*bad-one"):
        parse_corpus(lines, SIMPLE_ROSTERS)


def test_parse_roster_overlap_rejected():
    rosters = _rosters(
        [
            {"id": "r1", "role": "reference", "faculty": ["a1"]},
            {"id": "r1", "role": "candidate", "faculty": ["c1"]},
        ]
    )
    with pytest.raises(CorpusError, match="duplicate program id 'r1'"):
        parse_corpus(_pub_line("p1"), rosters)


def test_shared_faculty_between_reference_and_candidate_rejected():
    rosters = _rosters(
        [
            {"id": "r1", "role": "reference", "faculty": ["a1"]},
            {"id": "c1", "role": "candidate", "faculty": ["a1"]},
        ]
    )
    with pytest.raises(CorpusError, match="a1.*appears in both"):
        parse_corpus(_pub_line("p1"), rosters)


def test_shared_faculty_between_two_reference_rosters_rejected():
    rosters = _rosters(
        [
            {"id": "r1", "role": "reference", "faculty": ["a1"]},
            {"id": "r2", "role": "reference", "faculty": ["a1"]},
        ]
    )
    with pytest.raises(CorpusError, match="appears in both"):
        parse_corpus(_pub_line("p1"), rosters)


def test_parse_malformed_line_reports_line_number():
    lines = _pub_line("p1") + "\nnot json at all\n"
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus(lines, SIMPLE_ROSTERS)


@pytest.mark.parametrize("text", [
    "", "\n", "a", "a\n", "\n\n", "a\r\nb", "x" * 70_000 + "\n" + "y",
    "\n" * 70_000, ("z" * 65_535 + "\n") * 3, "a\n" * 40_000,
])
def test_line_blocks_split_like_one_split(text):
    # the parser splits its text a block at a time; the lines must not change
    assert [line for block in _line_blocks(text) for line in block] == text.split("\n")


def test_parse_of_many_blocks_reads_every_line_with_its_number():
    good = "".join(_pub_line(f"p{i}") + ("\r\n" if i % 2 else "\n") for i in range(4_000))
    assert len(good) > 3 * (1 << 16)
    assert parse_corpus(good, SIMPLE_ROSTERS).publication_count == 4_000
    with pytest.raises(CorpusError, match="publications line 2500: "):
        parse_corpus(good.replace(_pub_line("p2499"), "{"), SIMPLE_ROSTERS)


def test_parse_unknown_key_rejected():
    with pytest.raises(CorpusError, match="unknown keys.*citations"):
        parse_corpus(_pub_line("p1", citations=10), SIMPLE_ROSTERS)


def test_parse_missing_key_rejected():
    line = json.dumps({"id": "p1", "venue": "v1", "year": 2010})
    with pytest.raises(CorpusError, match="missing keys.*authors"):
        parse_corpus(line, SIMPLE_ROSTERS)


def test_parse_duplicate_publication_id():
    lines = _pub_line("p1") + "\n" + _pub_line("p1")
    with pytest.raises(CorpusError, match="duplicate publication id"):
        parse_corpus(lines, SIMPLE_ROSTERS)


def test_parse_duplicate_author_within_record():
    with pytest.raises(CorpusError, match="duplicate author within record 'p1'"):
        parse_corpus(_pub_line("p1", authors=("a1", "a1")), SIMPLE_ROSTERS)


def test_parse_duplicate_key_rejected():
    line = '{"id": "p1", "venue": "v1", "id": "p2", "year": 2010, "authors": ["a1"]}'
    with pytest.raises(CorpusError) as info:
        parse_corpus(_pub_line("p0") + "\n" + line, SIMPLE_ROSTERS)
    assert str(info.value) == "publications line 2: duplicate key 'id'"


def test_rosters_duplicate_key_rejected():
    rosters = (
        '{"programs": [{"id": "r1", "role": "reference", "faculty": ["a1"], "role": "candidate"}]}'
    )
    with pytest.raises(CorpusError) as info:
        parse_corpus(_pub_line("p1"), rosters)
    assert str(info.value) == "rosters document: duplicate key 'role'"


def test_ids_must_be_valid_unicode():
    # An escaped surrogate pair is one character; a lone surrogate, escaped or
    # raw, cannot be written as UTF-8 and is rejected with its line.
    pair = '{"id": "p1", "venue": "v\\ud83d\\ude00", "year": 2010, "authors": ["a1"]}'
    assert parse_corpus(pair, SIMPLE_ROSTERS).publications[0].venue == "v\U0001f600"
    escaped_lone = _pub_line("p1", venue="v\ud800")
    escaped_reversed_pair = _pub_line("p1", venue="v\ude00\ud83d")
    raw_lone = '{"id": "p1", "venue": "v\ud800", "year": 2010, "authors": ["a1"]}'
    for line in (escaped_lone, escaped_reversed_pair, raw_lone):
        with pytest.raises(CorpusError) as info:
            parse_corpus(_pub_line("p0") + "\n" + line, SIMPLE_ROSTERS)
        assert str(info.value) == "publications line 2: venue id is not valid Unicode"
    rosters = '{"programs": [{"id": "r1", "role": "reference", "faculty": ["a1", "a\udbff"]}]}'
    with pytest.raises(CorpusError) as info:
        parse_corpus(_pub_line("p1"), rosters)
    assert str(info.value) == "rosters program #1: author id is not valid Unicode"


def test_records_end_at_line_feed_only():
    # CRLF ends a record too; padding around a record is allowed.
    lines = [_pub_line("p1"), "  " + _pub_line("p2") + "\t", "", _pub_line("p3")]
    corpus = parse_corpus("\r\n".join(lines) + "\r\n", SIMPLE_ROSTERS)
    assert [pub.id for pub in corpus.publications] == ["p1", "p2", "p3"]
    assert parse_corpus("\n".join(lines), SIMPLE_ROSTERS) == corpus
    # A separator other than LF inside a string does not end the line, so the
    # next line keeps its number.
    text = '{"id": "p1", "venue": "v\u2028w", "year": 2010, "authors": ["a1"]}\n' + _pub_line("p1")
    with pytest.raises(CorpusError, match="^publications line 2: duplicate publication id"):
        parse_corpus(text, SIMPLE_ROSTERS)


def test_well_formed_lines_skip_the_reference_path(monkeypatch):
    import rscore.corpus

    checked = []
    original = rscore.corpus._parse_line
    monkeypatch.setattr(
        rscore.corpus, "_parse_line",
        lambda line, *rest: checked.append(line) or original(line, *rest),
    )
    lines = [_pub_line(f"p{i}", authors=("a1", "b1")) for i in range(3)] + [" " + _pub_line("p3")]
    for end in ("\n", "\r\n"):
        checked.clear()
        parse_corpus(end.join(lines) + end, SIMPLE_ROSTERS)
        assert checked == [" " + _pub_line("p3"), ""]


def test_repeated_key_spaced_before_its_colon_is_rejected():
    # A fifth key needs a fifth colon, wherever the spaces are.
    line = '{"id": "p1", "venue": "v1", "id" : "p2", "year": 2010, "authors": ["a1"]}'
    with pytest.raises(CorpusError) as info:
        parse_corpus(_pub_line("p0") + "\n" + line, SIMPLE_ROSTERS)
    assert str(info.value) == "publications line 2: duplicate key 'id'"


def test_corpus_fields_are_set_by_name():
    # Both constructors end in one method that sets every dataclass field on
    # the instance, with or without a year window.
    lines = "\n".join([_pub_line("p1", year=2007), _pub_line("p2", year=2009)])
    pubs = [("p1", "v1", 2007, ["a1"]), ("p2", "v1", 2009, ["a1"])]
    corpora = [
        parse_corpus(lines, SIMPLE_ROSTERS),
        parse_corpus(lines, SIMPLE_ROSTERS, (2008, 2010)),
        make_corpus(pubs, [("r1", ["a1"])]),
        make_corpus(pubs, [("r1", ["a1"])], window=(2008, 2010)),
    ]
    for corpus in corpora:
        assert {f.name for f in fields(Corpus)} <= vars(corpus).keys()


def test_colons_inside_ids_take_the_reference_path(monkeypatch):
    import rscore.corpus

    checked = []
    original = rscore.corpus._parse_line
    monkeypatch.setattr(
        rscore.corpus, "_parse_line",
        lambda line, *rest: checked.append(line) or original(line, *rest),
    )
    colons = _pub_line("doi:10.1/x", venue="conf:a", authors=("a1", "orcid:0000"))
    text = "\n".join([_pub_line("p0"), colons, _pub_line("p2")])
    corpus = parse_corpus(text, SIMPLE_ROSTERS)
    assert checked == [colons]
    assert [
        (pub.id, pub.venue, pub.year, pub.authors) for pub in corpus.publications
    ] == oracle_publications(text)
    assert corpus.publications[1].authors == ("a1", "orcid:0000")
    assert reference_venue_set(corpus) == ["conf:a", "v1"]


def test_round_trip_keeps_line_separator_characters():
    odd = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"
    corpus = make_corpus(
        pubs=[(f"p{c}{i}", f"v{c}w", 2010, [f"a1{c}x", "a1"]) for i, c in enumerate(odd)],
        refs=[("r1", ["a1"])],
    )
    reparsed = parse_corpus(serialize_publications(corpus), serialize_rosters(corpus))
    assert reparsed == corpus


def test_parse_non_integer_year_rejected():
    line = json.dumps({"id": "p1", "venue": "v1", "year": "2010", "authors": ["a1"]})
    with pytest.raises(CorpusError, match="year must be an integer"):
        parse_corpus(line, SIMPLE_ROSTERS)


def test_parse_empty_roster_rejected():
    rosters = _rosters([{"id": "r1", "role": "reference", "faculty": []}])
    with pytest.raises(CorpusError, match="empty roster.*r1"):
        parse_corpus(_pub_line("p1"), rosters)


def test_parse_bad_role_rejected():
    rosters = _rosters([{"id": "r1", "role": "observer", "faculty": ["a1"]}])
    with pytest.raises(CorpusError, match="role must be"):
        parse_corpus(_pub_line("p1"), rosters)


def test_parse_bad_rank_hint_rejected():
    rosters = _rosters(
        [{"id": "r1", "role": "reference", "rank_hint": 0, "faculty": ["a1"]}]
    )
    with pytest.raises(CorpusError, match="rank_hint must be >= 1"):
        parse_corpus(_pub_line("p1"), rosters)


def test_identifiers_are_trimmed():
    line = json.dumps(
        {"id": " p1 ", "venue": " v1 ", "year": 2010, "authors": [" a1 "]}
    )
    corpus = parse_corpus(line, SIMPLE_ROSTERS)
    pub = corpus.publications[0]
    assert (pub.id, pub.venue, pub.authors) == ("p1", "v1", ("a1",))


def test_rank_hint_orders_reference_programs():
    rosters = _rosters(
        [
            {"id": "late", "role": "reference", "faculty": ["x1"]},
            {"id": "second", "role": "reference", "rank_hint": 2, "faculty": ["x2"]},
            {"id": "first", "role": "reference", "rank_hint": 1, "faculty": ["a1"]},
            {"id": "unhinted", "role": "reference", "faculty": ["x3"]},
        ]
    )
    corpus = parse_corpus(_pub_line("p1"), rosters)
    order = [r.program_id for r in corpus.reference_programs]
    assert order == ["first", "second", "late", "unhinted"]


def test_year_window_is_inclusive_and_counts_drops():
    lines = "\n".join(
        [
            _pub_line("p1", year=2005),
            _pub_line("p2", year=2006),
            _pub_line("p3", year=2008),
            _pub_line("p4", year=2009),
        ]
    )
    corpus = parse_corpus(lines, SIMPLE_ROSTERS, year_window=(2006, 2008))
    assert [p.id for p in corpus.publications] == ["p2", "p3"]
    assert corpus.dropped_outside_window == 2


def test_empty_year_window_rejected():
    with pytest.raises(CorpusError, match="empty year window"):
        parse_corpus(_pub_line("p1"), SIMPLE_ROSTERS, year_window=(2010, 2005))
    # Built in code too, before any record is read.
    with pytest.raises(CorpusError, match="^empty year window"):
        make_corpus([("", "v1", 2010, ["a1"])], [("r1", ["a1"])], window=(2010, 2005))


def test_round_trip_identity(walkthrough_corpus):
    reparsed = parse_corpus(
        serialize_publications(walkthrough_corpus),
        serialize_rosters(walkthrough_corpus),
        walkthrough_corpus.year_window,
    )
    assert reparsed == walkthrough_corpus


def test_round_trip_identity_with_window():
    lines = "\n".join([_pub_line("p1", year=2007), _pub_line("p2", year=2009)])
    corpus = parse_corpus(lines, SIMPLE_ROSTERS, year_window=(2008, 2010))
    reparsed = parse_corpus(
        serialize_publications(corpus), serialize_rosters(corpus), (2008, 2010)
    )
    assert reparsed == corpus


def test_reference_venue_set_walkthrough(walkthrough_corpus):
    assert reference_venue_set(walkthrough_corpus) == ["alpha", "beta", "gamma"]


def test_reference_venue_set_empty_is_error():
    # No corpus has an empty venue set: construction raises, as parsing does.
    with pytest.raises(EmptyVenueSetError):
        make_corpus(
            pubs=[("p1", "v9", 2010, ["outsider"])],
            refs=[("r1", ["a1"])],
        )


def test_parse_rejects_corpus_with_empty_venue_set():
    with pytest.raises(EmptyVenueSetError):
        parse_corpus(_pub_line("p1", authors=("stranger",)), SIMPLE_ROSTERS)


def test_candidate_only_venue_excluded():
    corpus = make_corpus(
        pubs=[("p1", "v1", 2010, ["a1"]), ("p2", "v9", 2010, ["c1"])],
        refs=[("r1", ["a1"])],
        cands=[("cand", ["c1"])],
    )
    assert reference_venue_set(corpus) == ["v1"]


def test_reference_venue_set_order_is_input_independent(walkthrough_corpus):
    rng = np.random.default_rng(7)
    base = reference_venue_set(walkthrough_corpus)
    for _ in range(5):
        shuffled = list(walkthrough_corpus.publications)
        rng.shuffle(shuffled)
        permuted = Corpus(
            publications=tuple(shuffled),
            reference_programs=walkthrough_corpus.reference_programs,
            candidate_programs=walkthrough_corpus.candidate_programs,
            year_window=walkthrough_corpus.year_window,
        )
        assert reference_venue_set(permuted) == base


def test_every_returned_venue_has_a_qualifying_publication(walkthrough_corpus):
    members = set()
    for roster in walkthrough_corpus.reference_programs:
        members |= roster.faculty
    for venue in reference_venue_set(walkthrough_corpus):
        assert any(
            pub.venue == venue and any(a in members for a in pub.authors)
            for pub in walkthrough_corpus.publications
        )


# (id, records, first error): the ids are stable case names; the errors are
# the parser's texts, located as hand-built records are.
_FIRST_BAD_RECORD = [
    ("publication with empty id",
     [("p1", "v1", 2010, ["a1"]), ("", "v1", 2010, ["a1"])],
     "publication #2: empty publication id"),
    ("duplicate publication id 'p1'",
     [("p1", "v1", 2010, ["a1"]), ("p1", "v1", 2010, ["a2"])],
     "publication #2: duplicate publication id 'p1'"),
    ("empty author list in record 'p2'",
     [("p1", "v1", 2010, ["a1"]), ("p2", "v1", 2010, [])],
     "empty author list in record 'p2' (publication #2)"),
    ("duplicate author within record 'p2'",
     [("p1", "v1", 2010, ["a1"]), ("p2", "v1", 2010, ["a1", "a1"])],
     "duplicate author within record 'p2' (publication #2)"),
    # A record outside the window is checked before it is dropped: its id
    # still counts, and its fields must still be valid.
    ("record 'p2' year 2011 outside window [2005, 2010]",
     [("p1", "v1", 2010, ["a1"]), ("p2", "v1", 2011, ["a1"]), ("p2", "v1", 2010, ["a1"])],
     "publication #3: duplicate publication id 'p2'"),
    ("record 'p1' year 2004 outside window [2005, 2010]",
     [("p1", "v1", 2004, ["a1", 7]), ("p2", "v1", 2010, ["a1"])],
     "publication #1: author id must be a string, got 7"),
    # Being outside the window is not an error, so the next record is the first bad one.
    ("record 'p1' year 2011 outside window [2005, 2010]",
     [("p1", "v1", 2011, ["a1"]), ("", "v1", 2010, ["a1"])],
     "publication #2: empty publication id"),
    # Within one record, the rules go in order.
    ("duplicate author within record 'p1'",
     [("p1", "v1", 2010, ["a1", "a1"]), ("p1", "v1", 2010, ["a1"])],
     "duplicate author within record 'p1' (publication #1)"),
    ("empty author list in record 'p1'",
     [("p1", "v1", 2011, []), ("p2", "v1", 2010, ["a1", "a1"])],
     "empty author list in record 'p1' (publication #1)"),
    ("duplicate publication id 'p1'",
     [("p1", "v1", 2010, ["a1"]), ("p1", "v1", 2011, [])],
     "publication #2: duplicate publication id 'p1'"),
]


@pytest.mark.parametrize(
    ("pubs", "message"),
    [pytest.param(pubs, message, id=f"pubs{n}-{name}")
     for n, (name, pubs, message) in enumerate(_FIRST_BAD_RECORD)],
)
def test_direct_construction_names_first_bad_record(pubs, message):
    with pytest.raises(CorpusError) as info:
        _built_and_parsed(pubs, [("r1", ["a1"])], window=(2005, 2010))
    assert str(info.value) == message


def test_direct_construction_checks_window_containment():
    # Records outside the window are dropped and counted, as the parser does;
    # no constructor argument sets the count.
    pubs = [("p1", "v1", 1999, ["a1"]), ("p2", "v1", 2005, ["a1"]), ("p3", "v1", 2011, ["a1"])]
    corpus, _ = _built_and_parsed(pubs, [("r1", ["a1"])], window=(2005, 2010))
    assert [pub.id for pub in corpus.publications] == ["p2"]
    assert corpus.dropped_outside_window == 2
    with pytest.raises(TypeError):
        Corpus(corpus.publications, corpus.reference_programs, (), dropped_outside_window=99)


def _json_inputs(pubs, refs, cands=()):
    """The publications and rosters documents that hold these plain tuples."""
    text = "".join(
        json.dumps({"id": p, "venue": v, "year": y, "authors": list(a)}) + "\n"
        for p, v, y, a in pubs
    )
    rosters = _rosters(
        [{"id": pid, "role": "reference", "rank_hint": n, "faculty": list(faculty)}
         for n, (pid, faculty) in enumerate(refs, start=1)]
        + [{"id": pid, "role": "candidate", "faculty": list(faculty)} for pid, faculty in cands]
    )
    return text, rosters


def _as_parsed(message, n_refs):
    """A hand-built corpus's error text, located as the parser locates it."""
    message = re.sub(r"publication #(\d+)", r"publications line \1", message)
    message = re.sub(r"reference program #(\d+)", r"rosters program #\1", message)
    return re.sub(r"candidate program #(\d+)",
                  lambda match: f"rosters program #{n_refs + int(match[1])}", message)


def _built_and_parsed(pubs, refs, cands=(), window=None):
    """``make_corpus`` of the tuples and ``parse_corpus`` of their JSON text,
    checked equal; or the hand-built error, checked to be the parser's error
    with the same text apart from its location."""
    text, rosters = _json_inputs(pubs, refs, cands)
    outcomes = []
    for build in (lambda: make_corpus(pubs, refs, cands, window),
                  lambda: parse_corpus(text, rosters, window)):
        try:
            outcomes.append(build())
        except CorpusError as exc:
            outcomes.append(exc)
    built, parsed = outcomes
    if isinstance(built, CorpusError):
        assert type(parsed) is type(built)
        assert str(parsed) == _as_parsed(str(built), len(refs))
        raise built
    assert parsed == built
    assert parsed.dropped_outside_window == built.dropped_outside_window
    return built, parsed


_R1 = [("r1", ["a1"])]


@pytest.mark.parametrize(
    ("pubs", "refs", "cands", "expected"),
    [
        pytest.param([("p1", "", 2010, ["a1"])], _R1, [],
                     "publication #1: empty venue id", id="empty venue"),
        pytest.param([("p1", " v1 ", 2010, ["a1"])], _R1, [],
                     [("p1", "v1", 2010, ("a1",))], id="padded venue"),
        pytest.param([("p1", "v1", True, ["a1"])], _R1, [],
                     "publication #1: year must be an integer, got True", id="bool year"),
        pytest.param([("p1", "v1", 2010.0, ["a1"])], _R1, [],
                     "publication #1: year must be an integer, got 2010.0", id="float year"),
        pytest.param([(" p1", "v1", 2010, [" a1", "a2\t"])], _R1, [],
                     [("p1", "v1", 2010, ("a1", "a2"))], id="padded id and authors"),
        pytest.param([("p1", "v1", 2010, ["a1", 3])], _R1, [],
                     "publication #1: author id must be a string, got 3", id="author 3"),
        pytest.param([("p\ud800", "v1", 2010, ["a1"])], _R1, [],
                     "publication #1: publication id is not valid Unicode", id="lone surrogate id"),
        pytest.param([("p1", "v1", 2010, ["a1", "b\udfff"])], _R1, [],
                     "publication #1: author id is not valid Unicode",
                     id="lone surrogate author"),
        pytest.param([("p1", "v1", 2010, ["a1", "c1"])], [(" r1 ", [" a1"])], [("c1\t", ["c1 "])],
                     [("p1", "v1", 2010, ("a1", "c1"))], id="padded roster ids"),
        pytest.param([("p1", "v1", 2010, ["a1"])], [("r1", ["a1", "a\udbff"])], [],
                     "reference program #1: author id is not valid Unicode",
                     id="lone surrogate member"),
        pytest.param([("p1", "v1", 2010, ["a1"])], _R1, [("c\ud800", ["c1"])],
                     "candidate program #1: program id is not valid Unicode",
                     id="lone surrogate program"),
        pytest.param([("p1", "v1", 2010, ["a1"])], _R1, [("c1", ["c1", " c1"])],
                     "candidate program #1: duplicate faculty member in 'c1'",
                     id="member repeated after trimming"),
        pytest.param([], [], [], "no publication by reference-program faculty; the venue set is empty",
                     id="no records or rosters"),
    ],
)
def test_hand_built_corpus_follows_the_parser_rules(pubs, refs, cands, expected):
    # Each input was accepted as given by Corpus(...) while the parser
    # rejected or trimmed it; now both apply one rule set.
    if isinstance(expected, str):
        with pytest.raises(CorpusError) as info:
            _built_and_parsed(pubs, refs, cands)
        assert str(info.value) == expected
    else:
        built, _ = _built_and_parsed(pubs, refs, cands)
        assert [(p.id, p.venue, p.year, p.authors) for p in built.publications] == expected
        assert [(r.program_id, r.faculty) for r in built.programs] == [
            (pid.strip(), frozenset(m.strip() for m in faculty)) for pid, faculty in refs + cands
        ]


_ORACLE_ROSTERS = _rosters([{"id": "r1", "role": "reference", "faculty": ["r.a"]}])
_ANCHOR = _pub_line("anchor", authors=("r.a",))
# Ids come from a small pool, so they collide, also after trimming. The odd
# characters are string content at which other line-splitting rules than
# JSON Lines' would break a line.
_IDS = st.sampled_from(["a", "b", " b ", "c\u2028d", "\x85e", "e", "f\u2029g", "h\x1ci"])
_ODD_IDS = st.text(
    st.sampled_from(
        "ab \t\"\\\u00e9\u00a0\u2028\u2029\x85\x0b\x0c\x1c\x1e\ud83d\ude00\udbff"
    ),
    max_size=3,
)
_BAD_VALUES = st.sampled_from(
    [None, True, False, 2010.0, "2010", 5, -1, [], ["a", "a"], ["a", " a"], ["a", 7], "a", {"k": 1}]
)
_PADDING = st.sampled_from(["", " ", "\t", "\r", "\x0c", "\u2028", "\ufeff", " \t "])
_MUTATIONS = ["none"] * 12 + ["value"] * 4 + [
    "odd id", "flat", "drop", "extra", "repeat", "array", "scalar", "garbage", "nested", "pad",
    "blank",
]


@st.composite
def _publication_lines(draw):
    """One line: a valid record, or one with a single mutation."""
    keys = ["id", "venue", "year", "authors"]
    record = {
        "id": draw(_IDS),
        "venue": draw(_IDS),
        "year": draw(st.integers(1990, 2030)),
        "authors": draw(st.lists(_IDS, min_size=1, max_size=3, unique=True)),
    }
    mutation = draw(st.sampled_from(_MUTATIONS))
    if mutation == "odd id":
        key = draw(st.sampled_from(["id", "venue", "authors"]))
        odd = draw(_ODD_IDS)
        record[key] = [odd, *record[key]] if key == "authors" else odd
    elif mutation == "value":
        record[draw(st.sampled_from(keys))] = draw(_BAD_VALUES)
    elif mutation == "flat":
        record["authors"] = "".join(record["authors"])
    elif mutation == "drop":
        del record[draw(st.sampled_from(keys))]
    elif mutation == "extra":
        record["citations"] = 3
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if mutation == "repeat":
        key = draw(st.sampled_from(keys))
        line = line[:-1] + f", {json.dumps(key)}: {json.dumps(record[key])}}}"
    elif mutation == "array":
        line = json.dumps(list(record.items()))
    elif mutation == "scalar":
        line = draw(st.sampled_from(['"p1"', "5", "null", "true", "{}"]))
    elif mutation == "garbage":
        line += draw(st.sampled_from([" x", "}", ",", " {}"]))
    elif mutation == "nested":
        depth = draw(st.sampled_from([3, 5000]))
        line = line.replace('"authors": ', '"authors": ' + "[" * depth, 1)
        line = line[:-1] + "]" * depth + "}"
    elif mutation == "pad":
        line = draw(_PADDING) + line + draw(_PADDING)
    elif mutation == "blank":
        line = draw(_PADDING)
    return line


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    lines=st.lists(st.tuples(_publication_lines(), st.sampled_from(["\n", "\r\n"])),
                   min_size=1, max_size=5),
)
def test_parse_matches_line_oracle(lines):
    text = _ANCHOR + "\n" + "".join(line + end for line, end in lines)
    try:
        expected = oracle_publications(text)
    except OracleReject as exc:
        with pytest.raises(CorpusError) as info:
            parse_corpus(text, _ORACLE_ROSTERS)
        assert str(info.value) == str(exc)
    else:
        corpus = parse_corpus(text, _ORACLE_ROSTERS)
        assert [
            (pub.id, pub.venue, pub.year, pub.authors) for pub in corpus.publications
        ] == expected


# Pieces of both input formats, escapes and surrogates included, so that
# arbitrary text also gets past the first checks of the parser.
_PIECES = st.sampled_from(
    ['{', '}', '[', ']', ': ', ', ', '"', '"id"', '"venue"', '"year"', '"authors"',
     '"programs"', '"role"', '"faculty"', '"rank_hint"', '"reference"', '"candidate"',
     '"r.a"', '"v1"', '2010', '-1', '1e999', 'NaN', 'true', 'null', '\\', '\\u', '\\ud800',
     '\\udc00', '\\ud83d\\ude00', '\ud800', '﻿', ' ', '\t', '\n', '\r\n', '\r', ' ']
)
_TEXT = st.one_of(
    st.text(), st.lists(st.one_of(_PIECES, st.text(max_size=3)), max_size=40).map("".join)
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    publications=st.one_of(
        _TEXT,
        _TEXT.map(lambda text: _ANCHOR + "\n" + text),
        _TEXT.map(
            lambda text: '{"id": "p1", "venue": "v' + text + '", "year": 2010, "authors": ["r.a"]}'
        ),
    ),
    rosters=st.one_of(st.just(_ORACLE_ROSTERS), _TEXT),
    window=st.sampled_from([None, (2000, 2020)]),
)
def test_parse_arbitrary_text_gives_corpus_or_corpus_error(publications, rosters, window):
    try:
        corpus = parse_corpus(publications, rosters, window)
    except CorpusError:
        return
    ids = [program.program_id for program in corpus.programs]
    for program in corpus.programs:
        ids += program.faculty
    for pub in corpus.publications:
        ids += [pub.id, pub.venue, *pub.authors]
    for value in ids:
        value.encode()  # valid Unicode: every id can be printed as UTF-8


# Any valid Unicode text: quotes, escapes, controls and line separators too.
_ID_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    marks=st.lists(_ID_TEXT, min_size=4, max_size=4),
    window=st.sampled_from([None, (2005, 2011)]),
)
def test_serialize_then_parse_is_identity(seed, marks, window):
    # Each kind of id gets its own text, wrapped in non-ASCII letters that
    # trimming leaves alone; the suffix keeps distinct ids distinct.
    pub, venue, author, program = (f"\u00e9{mark}\u4e2d" for mark in marks)
    base = random_corpus(np.random.default_rng(seed), n_papers=30)
    corpus = make_corpus(
        pubs=[
            (p.id + pub, p.venue + venue, p.year, [a + author for a in p.authors])
            for p in base.publications
        ],
        refs=[
            (r.program_id + program, [a + author for a in sorted(r.faculty)])
            for r in base.reference_programs
        ],
        cands=[
            (r.program_id + program, [a + author for a in sorted(r.faculty)])
            for r in base.candidate_programs
        ],
        window=window,
    )
    reparsed = parse_corpus(
        serialize_publications(corpus), serialize_rosters(corpus), window
    )
    assert reparsed == corpus


_DEFECTS = st.lists(
    st.tuples(
        st.sampled_from([
            "duplicate id", "empty authors", "duplicate author", "outside window", "empty venue",
            "padded venue", "bool year", "float year", "padded author", "non-string author",
        ]),
        st.integers(1, 29),
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    mark=st.sampled_from(["", ":", "\u00e9", " : "]),
    defects=_DEFECTS,
    window=st.sampled_from([None, (2006, 2010)]),
)
def test_parsed_columns_agree_with_record_constructor(seed, mark, defects, window):
    # Corpus(...) of records equals the parse of their JSON text, with the
    # same counts, or both raise the same first error apart from its
    # location; a mark of ":" sends lines to the reference path, among lines
    # that take the fast one. Both paths drop the records outside the window.
    base = random_corpus(np.random.default_rng(seed), n_papers=26)
    pubs = [
        (p.id + mark + "x" if i % 3 else p.id, p.venue + mark + "w", p.year, list(p.authors))
        for i, p in enumerate(base.publications)
    ]
    refs = [(r.program_id, sorted(r.faculty)) for r in base.reference_programs]
    cands = [(r.program_id, sorted(r.faculty)) for r in base.candidate_programs]
    for defect, position in defects:
        pub_id, venue, year, authors = pubs[position]
        if defect == "duplicate id":
            pub_id = pubs[position - 1][0]
        elif defect == "empty authors":
            authors = []
        elif defect == "duplicate author":
            authors = [*authors, authors[0]] if authors else authors
        elif defect == "outside window":
            year = 2020
        elif defect == "empty venue":
            venue = " "
        elif defect == "padded venue":
            venue = f" {venue}\t"
        elif defect == "bool year":
            year = True
        elif defect == "float year":
            year = float(year)
        elif defect == "padded author":
            authors = [f"{authors[0]} ", *authors[1:]] if authors else authors
        else:
            authors = [*authors, 7]
        pubs[position] = (pub_id, venue, year, authors)

    try:
        built, parsed = _built_and_parsed(pubs, refs, cands, window)
    except CorpusError:
        return  # both raised the same error
    kept = [p for p in pubs if window is None or window[0] <= p[2] <= window[1]]
    assert built.dropped_outside_window == len(pubs) - len(kept)
    for mode in VenueMode:
        from_text, from_records = build_counts(parsed, mode), build_counts(built, mode)
        assert from_text.venue_index == from_records.venue_index
        assert from_text.matrix.dtype == from_records.matrix.dtype == np.int64
        assert np.array_equal(from_text.matrix, from_records.matrix)
        assert np.array_equal(from_text.venue_totals, from_records.venue_totals)
    assert list(from_text.per_faculty_venue.items()) == list(from_records.per_faculty_venue.items())


_FIRST_ROSTER_ERRORS = r"""
from rscore import Corpus, ProgramRoster, PublicationRecord, RScoreError, parse_corpus

def first_error(build):
    try:
        build()
    except RScoreError as exc:
        print(exc)

# three bad members of one hand-built roster
first_error(lambda: Corpus(
    [PublicationRecord("p1", "v1", 2010, ("a1",))], [ProgramRoster("r1", frozenset({"a1"}))],
    [ProgramRoster("c1", frozenset({" ", "x\ud800", 3}))],
))
# three members shared by two parsed rosters
first_error(lambda: parse_corpus(
    '{"id": "p1", "venue": "v1", "year": 2010, "authors": ["x"]}',
    '{"programs": [{"id": "a", "role": "reference", "faculty": ["x", "y", "z"]},'
    ' {"id": "b", "role": "candidate", "faculty": ["z", "y", "x"]}]}',
))
"""


def test_first_roster_error_does_not_depend_on_the_hash_seed():
    # rosters are frozensets, whose order changes with the hash seed
    source = str(Path(rscore.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _FIRST_ROSTER_ERRORS],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert outputs == {
        "candidate program #1: empty author id\n"
        "faculty member 'x' appears in both 'a' and 'b'\n"
    }
