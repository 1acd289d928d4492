from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscore import (
    Corpus,
    CountsError,
    VenueMode,
    build_counts,
    serialize_publications,
    serialize_rosters,
)
from rscore import counts as counts_module
from rscore.cli import run

from helpers import make_corpus, oracle_counts, random_corpus


def test_walkthrough_faculty_weights(walkthrough_counts):
    # three papers in 'alpha', the last shared with one same-program co-author
    assert walkthrough_counts.faculty_venue("north", "n.adams", "alpha") == Fraction(5, 2)
    assert walkthrough_counts.faculty_venue("north", "n.clark", "beta") == Fraction(3, 2)
    assert walkthrough_counts.faculty_venue("north", "n.adams", "beta") == Fraction(0)


def test_walkthrough_program_venue_counts(walkthrough_counts):
    assert walkthrough_counts.program_venue("north", "alpha") == 3
    assert walkthrough_counts.program_venue("north", "beta") == 2
    assert walkthrough_counts.program_venue("south", "beta") == 4
    assert walkthrough_counts.program_venue("south", "gamma") == 2
    # programs never publishing in a venue count zero there
    assert walkthrough_counts.program_venue("west", "alpha") == 0


def test_program_without_reference_venue_papers_totals_zero():
    corpus = make_corpus(
        pubs=[("p1", "v1", 2010, ["a1"]), ("p2", "v9", 2010, ["c1"])],
        refs=[("r1", ["a1"])],
        cands=[("cand", ["c1"])],
    )
    counts = build_counts(corpus)
    assert counts.program_total("cand") == 0
    assert counts.program_total("r1") == 1


def test_walkthrough_venue_totals_per_program_mode(walkthrough_counts):
    totals = [walkthrough_counts.venue_total(v) for v in ("alpha", "beta", "gamma")]
    assert totals == [5, 6, 3]


def test_walkthrough_venue_totals_distinct_mode(walkthrough_corpus):
    counts = build_counts(walkthrough_corpus, VenueMode.DISTINCT_PAPER)
    # the two cross-program papers in 'beta' each count once
    totals = [counts.venue_total(v) for v in ("alpha", "beta", "gamma")]
    assert totals == [5, 4, 3]


def test_walkthrough_program_totals(walkthrough_counts):
    assert walkthrough_counts.program_total("north") == 6
    assert walkthrough_counts.program_total("south") == 8


def test_single_paper_corpus_all_counts_one():
    corpus = make_corpus(pubs=[("p1", "v1", 2010, ["a1"])], refs=[("r1", ["a1"])])
    counts = build_counts(corpus)
    assert counts.faculty_venue("r1", "a1", "v1") == 1
    assert counts.program_venue("r1", "v1") == 1
    assert counts.venue_total("v1") == 1
    assert counts.program_total("r1") == 1


def test_single_reference_paper_venue_total_one_in_both_modes():
    corpus = make_corpus(pubs=[("p1", "v1", 2010, ["a1"])], refs=[("r1", ["a1"])])
    for mode in VenueMode:
        assert build_counts(corpus, mode).venue_total("v1") == 1


def test_external_coauthors_do_not_dilute():
    corpus = make_corpus(
        pubs=[("p1", "v1", 2010, ["a1", "ext.x", "ext.y"])], refs=[("r1", ["a1"])]
    )
    assert build_counts(corpus).faculty_venue("r1", "a1", "v1") == 1


def test_program_total_is_sum_over_venues(walkthrough_counts):
    for program in ("north", "south", "east", "west"):
        summed = sum(
            walkthrough_counts.program_venue(program, venue)
            for venue in walkthrough_counts.venue_index
        )
        assert summed == walkthrough_counts.program_total(program)


def test_lookup_errors(walkthrough_counts):
    with pytest.raises(CountsError, match="not in the roster"):
        walkthrough_counts.faculty_venue("north", "s.diaz", "alpha")
    with pytest.raises(CountsError, match="not in the reference venue set"):
        walkthrough_counts.faculty_venue("north", "n.adams", "nowhere")
    with pytest.raises(CountsError, match="unknown program"):
        walkthrough_counts.program_total("nowhere")
    with pytest.raises(CountsError, match="not in the reference venue set"):
        walkthrough_counts.venue_total("nowhere")


def test_program_venue_counts_are_integers_despite_fractional_shares():
    for seed in range(5):
        corpus = random_corpus(np.random.default_rng(seed), n_papers=60)
        counts = build_counts(corpus)
        for program in counts.reference_programs + counts.candidate_programs:
            for venue in counts.venue_index:
                value = counts.program_venue(program, venue)
                assert value.denominator == 1


def test_per_program_mode_dominates_distinct_mode():
    for seed in range(5):
        corpus = random_corpus(np.random.default_rng(100 + seed), n_papers=80)
        per_program = build_counts(corpus, VenueMode.PER_PROGRAM)
        distinct = build_counts(corpus, VenueMode.DISTINCT_PAPER)
        ref_rosters = {
            r.program_id: r.faculty for r in corpus.reference_programs
        }
        for venue in per_program.venue_index:
            a = per_program.venue_total(venue)
            b = distinct.venue_total(venue)
            assert a >= b
            shared = any(
                sum(
                    1
                    for fac in ref_rosters.values()
                    if not fac.isdisjoint(pub.authors)
                )
                > 1
                for pub in corpus.publications
                if pub.venue == venue
            )
            assert (a == b) == (not shared)


def test_counts_invariant_under_author_order():
    base = [
        ("p1", "v1", 2010, ["a1", "a2", "b1"]),
        ("p2", "v1", 2010, ["b1", "a1"]),
        ("p3", "v2", 2010, ["a2", "a1"]),
    ]
    flipped = [(p, v, y, list(reversed(a))) for p, v, y, a in base]
    refs = [("r1", ["a1", "a2"]), ("r2", ["b1"])]
    counts_a = build_counts(make_corpus(base, refs))
    counts_b = build_counts(make_corpus(flipped, refs))
    assert counts_a.per_faculty_venue == counts_b.per_faculty_venue
    assert counts_a.per_program_venue == counts_b.per_program_venue
    assert counts_a.per_venue == counts_b.per_venue


def test_removing_a_publication_subtracts_its_contribution():
    rng = np.random.default_rng(42)
    corpus = random_corpus(rng, n_papers=50)
    counts = build_counts(corpus)
    # drop one paper that actually counts somewhere
    target = next(
        pub
        for pub in corpus.publications
        if pub.venue in counts.venue_index
        and any(
            not roster.faculty.isdisjoint(pub.authors)
            for roster in corpus.reference_programs
        )
    )
    remaining = tuple(p for p in corpus.publications if p.id != target.id)
    smaller = Corpus(
        publications=remaining,
        reference_programs=corpus.reference_programs,
        candidate_programs=corpus.candidate_programs,
    )
    smaller_counts = build_counts(smaller)
    for roster in corpus.programs:
        members = {a for a in target.authors if a in roster.faculty}
        expected_delta = Fraction(1) if members else Fraction(0)
        before = counts.program_venue(roster.program_id, target.venue)
        after = (
            smaller_counts.program_venue(roster.program_id, target.venue)
            if target.venue in smaller_counts.venue_index
            else Fraction(0)
        )
        assert before - after == expected_delta
        share = Fraction(1, len(members)) if members else None
        for member in members:
            prev = counts.faculty_venue(roster.program_id, member, target.venue)
            now = (
                smaller_counts.faculty_venue(roster.program_id, member, target.venue)
                if target.venue in smaller_counts.venue_index
                else Fraction(0)
            )
            assert prev - now == share


def test_build_counts_matches_bruteforce_oracle():
    for seed in range(8):
        corpus = random_corpus(np.random.default_rng(1000 + seed), n_papers=90)
        for mode in VenueMode:
            counts = build_counts(corpus, mode)
            venue_set, per_faculty, per_program_venue, per_venue, per_program = (
                oracle_counts(corpus, distinct=mode is VenueMode.DISTINCT_PAPER)
            )
            assert list(counts.venue_index) == venue_set
            assert dict(counts.per_faculty_venue) == per_faculty
            assert dict(counts.per_program_venue) == per_program_venue
            assert dict(counts.per_venue) == per_venue
            assert dict(counts.per_program) == per_program


def test_per_program_venue_equals_sum_of_faculty_weights(walkthrough_counts):
    for (program, venue), total in walkthrough_counts.per_program_venue.items():
        summed = sum(
            weight
            for (p, _, v), weight in walkthrough_counts.per_faculty_venue.items()
            if p == program and v == venue
        )
        assert summed == total


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ref=st.integers(1, 5),
    n_cand=st.integers(0, 3),
    n_venues=st.integers(1, 8),
    n_papers=st.integers(0, 120),
    hub=st.booleans(),
    mode=st.sampled_from(VenueMode),
)
def test_build_counts_matches_oracle_on_random_corpora(
    seed, n_ref, n_cand, n_venues, n_papers, hub, mode
):
    corpus = random_corpus(
        np.random.default_rng(seed), n_ref=n_ref, n_cand=n_cand, n_venues=n_venues,
        n_papers=n_papers, hub=hub,
    )
    counts = build_counts(corpus, mode)
    venue_set, per_faculty, per_program_venue, per_venue, per_program = oracle_counts(
        corpus, distinct=mode is VenueMode.DISTINCT_PAPER
    )
    assert list(counts.venue_index) == venue_set
    assert dict(counts.per_program_venue) == per_program_venue
    assert dict(counts.per_venue) == per_venue
    assert dict(counts.per_program) == per_program
    assert "per_faculty_venue" not in vars(counts)  # built only when read
    assert dict(counts.per_faculty_venue) == per_faculty
    assert list(counts.per_faculty_venue) == sorted(per_faculty)
    for (program, member, venue), weight in per_faculty.items():
        assert counts.faculty_venue(program, member, venue) == weight


def test_counts_are_one_integer_matrix(walkthrough_counts):
    # rows: reference programs, then candidates; columns: the venue index
    assert walkthrough_counts.matrix.dtype == np.int64
    assert walkthrough_counts.matrix.tolist() == [
        [3, 2, 1],  # north
        [2, 4, 2],  # south
        [2, 1, 3],  # east
        [0, 2, 0],  # west
    ]
    assert walkthrough_counts.venue_totals.tolist() == [5, 6, 3]


def test_roster_members_are_numbered_in_key_order():
    # numbers follow (program id, member id), not the program order of the
    # file or a roster's frozenset order, which moves with the hash seed
    corpus = make_corpus(
        pubs=[("p1", "v1", 2010, ["z.b", "a.c"]), ("p2", "v1", 2010, ["z.a", "a.a"])],
        refs=[("z", ["z.b", "z.a", "z.c"])], cands=[("a", ["a.c", "a.a", "a.b"])],
    )
    members = [("a", "a.a"), ("a", "a.b"), ("a", "a.c"), ("z", "z.a"), ("z", "z.b"), ("z", "z.c")]
    assert corpus._members == members
    paper, member, home = corpus._member_papers
    assert [members[m][1] for m in member] == ["z.b", "a.c", "z.a", "a.a"]
    assert home.tolist() == [1, 1, 1, 0, 0, 0]


def test_count_arrays_are_read_only(walkthrough_corpus):
    counts = build_counts(walkthrough_corpus)
    with pytest.raises(ValueError):
        counts.matrix[0, 0] = 7


def test_faculty_weight_stays_exact_past_int64(tmp_path, capsys):
    # m00 writes one paper with d authors from its roster for each prime d;
    # the weight's denominator, the lcm of the d, does not fit in int64.
    primes = [61, 59, 53, 47, 43, 41, 37, 31, 29, 23, 19, 17, 13]
    assert math.lcm(*primes) > 2**63
    faculty = [f"m{i:02d}" for i in range(max(primes))]
    corpus = make_corpus(
        pubs=[(f"p{d}", "v1", 2010, faculty[:d] + ["outsider"]) for d in primes],
        refs=[("r1", faculty)],
    )
    expected = sum(Fraction(1, d) for d in primes)
    assert build_counts(corpus).faculty_venue("r1", "m00", "v1") == expected

    (tmp_path / "pubs.jsonl").write_text(serialize_publications(corpus), encoding="utf-8")
    (tmp_path / "rosters.json").write_text(serialize_rosters(corpus), encoding="utf-8")
    assert run(["counts", "--pubs", str(tmp_path / "pubs.jsonl"),
                "--rosters", str(tmp_path / "rosters.json")]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("r1\tm00\t")]
    assert rows == [
        f"r1\tm00\tv1\t{float(expected):.6f}\t{expected.numerator}/{expected.denominator}"
    ]


def _crowded_corpus(rng: np.random.Generator):
    """Papers with 1-8 authors drawn from one roster, plus outsiders and, on
    some, one more member of any roster; in venue vq, r1.m0 has one paper each
    with 2, 3 and 7 authors from its roster."""
    refs = [(f"r{i}", [f"r{i}.m{j}" for j in range(9)]) for i in (1, 2)]
    cands = [("c1", [f"c1.m{j}" for j in range(8)])]
    rosters = refs + cands
    pubs = [(f"q{d}", "vq", 2010, [f"r1.m{j}" for j in range(d)]) for d in (2, 3, 7)]
    for i in range(int(rng.integers(20, 60))):
        _, faculty = rosters[int(rng.integers(len(rosters)))]
        authors = list(rng.choice(faculty, size=int(rng.integers(1, 9)), replace=False))
        if rng.random() < 0.3:
            _, other = rosters[int(rng.integers(len(rosters)))]
            authors.append(str(rng.choice(other)))
        authors += [f"x{k}" for k in range(int(rng.integers(0, 3)))]
        pubs.append((f"p{i}", f"v{int(rng.integers(4))}", 2010, list(dict.fromkeys(authors))))
    return make_corpus(pubs, refs, cands)


def test_faculty_rows_match_oracle_with_up_to_eight_roster_authors(tmp_path, capsys):
    denominators = set()
    for seed in range(12):
        corpus = _crowded_corpus(np.random.default_rng(7000 + seed))
        for mode in VenueMode:
            expected = oracle_counts(corpus, distinct=mode is VenueMode.DISTINCT_PAPER)[1]
            counts = build_counts(corpus, mode)
            assert dict(counts.per_faculty_venue) == expected
            assert list(counts.per_faculty_venue) == sorted(expected)
        assert expected[("r1", "r1.m0", "vq")] == Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 7)
        denominators |= {weight.denominator for weight in expected.values()}

        pubs, rosters = tmp_path / "pubs.jsonl", tmp_path / "rosters.json"
        pubs.write_text(serialize_publications(corpus), encoding="utf-8")
        rosters.write_text(serialize_rosters(corpus), encoding="utf-8")
        argv = ["counts", "--pubs", str(pubs), "--rosters", str(rosters)]
        rows = [(*key, float(w), f"{w.numerator}/{w.denominator}")
                for key, w in sorted(expected.items())]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("# faculty_venue")
        assert lines[header + 1] == "program\tfaculty\tvenue\tcount\texact"
        assert lines[header + 2:] == ["%s\t%s\t%s\t%.6f\t%s" % row for row in rows]
        assert run([*argv, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        columns = ("program", "faculty", "venue", "count", "exact")
        assert document["faculty_venue"] == [dict(zip(columns, row)) for row in rows]
    assert {5, 7, 8} <= denominators


def test_faculty_tallies_number_cells_densely_when_the_key_could_overflow(monkeypatch):
    corpus = _crowded_corpus(np.random.default_rng(7100))
    expected = oracle_counts(corpus)[1]
    monkeypatch.setattr(counts_module, "_KEY_LIMIT", 0)
    assert list(build_counts(corpus).per_faculty_venue.items()) == sorted(expected.items())
