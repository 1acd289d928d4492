from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rscore import (
    Corpus,
    CountsError,
    PublicationRecord,
    ScoringError,
    build_counts,
    build_reputation_model,
    score_programs,
)
from rscore.scoring import _competition_ranks, _nonzero_cells, _raw_scores

from helpers import left_to_right_scores, make_corpus, random_corpus


def _model_and_counts(corpus, mode=None):
    counts = build_counts(corpus) if mode is None else build_counts(corpus, mode)
    return build_reputation_model(counts), counts


def _raw_score(model, counts, program_id):
    (row,) = score_programs(model, counts, [program_id]).rows
    return row.raw_score


def test_single_paper_in_top_venue_scores_one(walkthrough_corpus):
    # 'beta' carries reputation 1.0; one solo paper there is worth exactly 1
    pubs = [(p.id, p.venue, p.year, list(p.authors)) for p in walkthrough_corpus.publications]
    pubs.append(("extra", "beta", 2010, ["solo.author"]))
    refs = [(r.program_id, sorted(r.faculty)) for r in walkthrough_corpus.reference_programs]
    corpus = make_corpus(pubs, refs, cands=[("solo", ["solo.author"])])
    model, counts = _model_and_counts(corpus)
    assert _raw_score(model, counts, "solo") == 1.0


def test_candidate_without_publications_scores_zero(walkthrough_corpus):
    pubs = [(p.id, p.venue, p.year, list(p.authors)) for p in walkthrough_corpus.publications]
    refs = [(r.program_id, sorted(r.faculty)) for r in walkthrough_corpus.reference_programs]
    corpus = make_corpus(pubs, refs, cands=[("idle", ["idle.author"])])
    model, counts = _model_and_counts(corpus)
    assert _raw_score(model, counts, "idle") == 0.0


def test_walkthrough_candidate_dot_product(walkthrough_model, walkthrough_counts):
    # counts (2, 1, 3) against reputations (5/6, 1, 1/2)
    value = _raw_score(walkthrough_model, walkthrough_counts, "east")
    assert value == pytest.approx(25 / 6, abs=1e-12)


def test_walkthrough_normalized_scores(walkthrough_model, walkthrough_counts):
    report = score_programs(walkthrough_model, walkthrough_counts, ["east", "west"])
    by_id = {row.program_id: row for row in report.rows}
    assert by_id["east"].r_score == 1.0
    assert by_id["west"].r_score == pytest.approx(0.48, abs=1e-12)
    assert [row.program_id for row in report.rows] == ["east", "west"]
    assert (by_id["east"].rank_total, by_id["west"].rank_total) == (1, 2)
    assert not report.zero_scores


def test_all_zero_candidates_flagged(walkthrough_corpus):
    pubs = [(p.id, p.venue, p.year, list(p.authors)) for p in walkthrough_corpus.publications
            if not p.id.startswith(("p13", "p14", "p15", "p16", "p17", "p18", "p19", "p20"))]
    refs = [(r.program_id, sorted(r.faculty)) for r in walkthrough_corpus.reference_programs]
    corpus = make_corpus(
        pubs, refs, cands=[("idle1", ["i.one"]), ("idle2", ["i.two"])]
    )
    model, counts = _model_and_counts(corpus)
    report = score_programs(model, counts, ["idle1", "idle2"])
    assert report.zero_scores
    assert all(row.r_score == 0.0 for row in report.rows)
    assert all(row.r_score_per_faculty == 0.0 for row in report.rows)
    assert [row.rank_total for row in report.rows] == [1, 1]


def test_single_candidate_normalizes_to_one(walkthrough_model, walkthrough_counts):
    report = score_programs(walkthrough_model, walkthrough_counts, ["west"])
    assert report.rows[0].r_score == 1.0
    assert report.rows[0].r_score_per_faculty == 1.0


def test_reference_program_scorable_on_request(walkthrough_model, walkthrough_counts):
    report = score_programs(
        walkthrough_model, walkthrough_counts, ["east", "west", "north"]
    )
    north = next(row for row in report.rows if row.program_id == "north")
    # 3*(5/6) + 2*1 + 1*(1/2) = 5
    assert north.raw_score == pytest.approx(5.0, abs=1e-12)


def test_empty_and_duplicate_requests_rejected(walkthrough_model, walkthrough_counts):
    with pytest.raises(ScoringError, match="no programs"):
        score_programs(walkthrough_model, walkthrough_counts, [])
    with pytest.raises(ScoringError, match="duplicate"):
        score_programs(walkthrough_model, walkthrough_counts, ["east", "east"])
    with pytest.raises(CountsError, match="unknown program"):
        score_programs(walkthrough_model, walkthrough_counts, ["nowhere"])


def _one_venue_scores(candidates):
    """Score candidates, given as (id, faculty, papers), on a corpus with one
    venue: its reputation is 1, so each raw score is the paper count."""
    pubs = [("r.paper", "v1", 2010, ["r.m"])]
    cands = []
    for pid, faculty, papers in candidates:
        members = [f"{pid}.m{i}" for i in range(faculty)]
        cands.append((pid, members))
        pubs += [(f"{pid}.p{i}", "v1", 2010, [members[0]]) for i in range(papers)]
    corpus = make_corpus(pubs, refs=[("r", ["r.m"])], cands=cands)
    model, counts = _model_and_counts(corpus)
    return score_programs(model, counts, [pid for pid, _, _ in candidates])


def test_per_faculty_scores_and_ranks_divide_by_roster_size():
    report = _one_venue_scores([("big", 10, 10), ("small", 3, 6)])
    by_id = {row.program_id: row for row in report.rows}
    assert by_id["big"].r_score_per_faculty == pytest.approx(0.5, abs=1e-12)
    assert by_id["small"].r_score_per_faculty == 1.0
    assert (by_id["big"].rank_per_faculty, by_id["small"].rank_per_faculty) == (2, 1)
    # total scores still order the rows and give the total ranks
    assert [row.program_id for row in report.rows] == ["big", "small"]
    assert [row.r_score for row in report.rows] == [1.0, 0.6]
    assert [row.rank_total for row in report.rows] == [1, 2]


def test_per_faculty_equal_sizes_match_total_ranking(walkthrough_model, walkthrough_counts):
    report = score_programs(walkthrough_model, walkthrough_counts, ["east", "west"])
    for row in report.rows:  # both rosters have one member
        assert row.rank_per_faculty == row.rank_total
        assert row.r_score_per_faculty == pytest.approx(row.r_score, abs=1e-15)


def test_per_faculty_single_program():
    report = _one_venue_scores([("only", 4, 8)])
    assert report.rows[0].r_score_per_faculty == 1.0


def test_adding_a_publication_raises_score_and_never_rank():
    corpus = random_corpus(np.random.default_rng(900), n_cand=4, n_papers=80)
    model, counts = _model_and_counts(corpus)
    candidates = [r.program_id for r in corpus.candidate_programs]
    before = score_programs(model, counts, candidates)
    target = candidates[0]
    member = sorted(corpus.candidate_programs[0].faculty)[0]
    venue = counts.venue_index[0]
    assert model.nu[0] > 0
    grown = Corpus(
        publications=corpus.publications
        + (PublicationRecord("boost", venue, 2010, (member,)),),
        reference_programs=corpus.reference_programs,
        candidate_programs=corpus.candidate_programs,
    )
    grown_counts = build_counts(grown)
    after = score_programs(model, grown_counts, candidates)
    raw_before = {r.program_id: r.raw_score for r in before.rows}
    raw_after = {r.program_id: r.raw_score for r in after.rows}
    assert raw_after[target] > raw_before[target]
    rank_before = {r.program_id: r.rank_total for r in before.rows}
    rank_after = {r.program_id: r.rank_total for r in after.rows}
    assert rank_after[target] <= rank_before[target]


def test_scoring_is_bitwise_idempotent(walkthrough_model, walkthrough_counts):
    first = score_programs(walkthrough_model, walkthrough_counts, ["east", "west"])
    second = score_programs(walkthrough_model, walkthrough_counts, ["east", "west"])
    assert first == second


def test_doubling_counts_doubles_raw_and_keeps_scores():
    corpus = random_corpus(np.random.default_rng(901), n_cand=3, n_papers=60)
    model, counts = _model_and_counts(corpus)
    candidates = [r.program_id for r in corpus.candidate_programs]
    base = score_programs(model, counts, candidates)
    cand_rosters = {r.program_id: r.faculty for r in corpus.candidate_programs}
    doubled_pubs = list(corpus.publications)
    for pub in corpus.publications:
        if any(not fac.isdisjoint(pub.authors) for fac in cand_rosters.values()):
            doubled_pubs.append(
                PublicationRecord(f"{pub.id}.again", pub.venue, pub.year, pub.authors)
            )
    doubled = Corpus(
        publications=tuple(doubled_pubs),
        reference_programs=corpus.reference_programs,
        candidate_programs=corpus.candidate_programs,
    )
    scaled = score_programs(model, build_counts(doubled), candidates)
    for before, after in zip(base.rows, scaled.rows):
        assert after.program_id == before.program_id
        assert after.raw_score == pytest.approx(2 * before.raw_score, rel=1e-15)
        assert after.r_score == before.r_score
        assert after.rank_total == before.rank_total


def test_zero_scoring_candidate_ranks_last(walkthrough_corpus):
    pubs = [(p.id, p.venue, p.year, list(p.authors)) for p in walkthrough_corpus.publications]
    refs = [(r.program_id, sorted(r.faculty)) for r in walkthrough_corpus.reference_programs]
    corpus = make_corpus(
        pubs,
        refs,
        cands=[("east", ["e.hall"]), ("west", ["w.young"]), ("idle", ["i.one"])],
    )
    model, counts = _model_and_counts(corpus)
    report = score_programs(model, counts, ["east", "west", "idle"])
    idle = next(row for row in report.rows if row.program_id == "idle")
    assert idle.rank_total == 3
    assert report.rows[-1].program_id == "idle"


def test_tied_candidates_share_rank_and_next_skips(walkthrough_corpus):
    pubs = [(p.id, p.venue, p.year, list(p.authors)) for p in walkthrough_corpus.publications]
    pubs += [
        ("t1", "beta", 2010, ["twin.one"]),
        ("t2", "beta", 2010, ["twin.two"]),
        ("t3", "gamma", 2010, ["trail"]),
    ]
    refs = [(r.program_id, sorted(r.faculty)) for r in walkthrough_corpus.reference_programs]
    corpus = make_corpus(
        pubs,
        refs,
        cands=[("tw1", ["twin.one"]), ("tw2", ["twin.two"]), ("tr", ["trail"])],
    )
    model, counts = _model_and_counts(corpus)
    report = score_programs(model, counts, ["tw1", "tw2", "tr"])
    ranks = {row.program_id: row.rank_total for row in report.rows}
    assert ranks == {"tw1": 1, "tw2": 1, "tr": 3}
    # deterministic tie order: lexicographic by program id
    assert [row.program_id for row in report.rows] == ["tw1", "tw2", "tr"]


def test_r_score_order_matches_raw_order():
    corpus = random_corpus(np.random.default_rng(902), n_cand=5, n_papers=100)
    model, counts = _model_and_counts(corpus)
    report = score_programs(
        model, counts, [r.program_id for r in corpus.candidate_programs]
    )
    raws = [row.raw_score for row in report.rows]
    rs = [row.r_score for row in report.rows]
    assert raws == sorted(raws, reverse=True)
    assert rs == sorted(rs, reverse=True)
    assert max(rs) == 1.0


def test_scores_add_venues_left_to_right():
    # One reference program and one candidate over 320 venues: nu is the
    # reference's counts over its largest, and the candidate's products sum
    # to other last bits when added pairwise, as a reduction or a matrix
    # product may add them.
    rng = np.random.default_rng(1)
    pubs = []
    for j in range(320):
        venue = f"v{j:03d}"
        pubs += [(f"r{j}.{i}", venue, 2010, ["r.a"]) for i in range(rng.integers(1, 12))]
        pubs += [(f"c{j}.{i}", venue, 2010, ["c.a"]) for i in range(rng.integers(1, 12))]
    corpus = make_corpus(pubs, refs=[("ref", ["r.a"])], cands=[("cand", ["c.a"])])
    model, counts = _model_and_counts(corpus)
    products = [
        counts.program_venue("cand", venue) * weight
        for venue, weight in zip(model.venue_index, model.nu.tolist())
    ]
    expected = 0.0
    for product in products:
        expected += product
    assert float(np.sum(np.array(products))) != expected

    assert _raw_score(model, counts, "cand") == expected
    # the kernel on the candidate rows' nonzero cells alone
    assert _raw_scores(_nonzero_cells(counts.matrix[1:]), model.nu, 1).tolist() == [expected]


@st.composite
def _blocks_and_weights(draw):
    rows, venues = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    count = st.one_of(st.just(0), st.integers(1, 1000))
    flat = draw(st.lists(count, min_size=rows * venues, max_size=rows * venues))
    weight = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0))
    block = [flat[i : i + venues] for i in range(0, len(flat), venues)]
    return block, draw(st.lists(weight, min_size=venues, max_size=venues))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_blocks_and_weights())
@example(([[0, 3, 0, 0, 7, 0, 1]], [0.5, 0.1, 1.0, 0.0, 0.3, 5e-324, 0.7]))
@example(([[2, 0, 5], [0, 0, 0], [0, 9, 0], [4, 4, 4]], [5e-324, 0.0, 0.2]))
def test_kernel_equals_a_left_to_right_loop(case):
    block, nu = case
    totals = _raw_scores(_nonzero_cells(np.array(block, dtype=np.int64)), np.array(nu), len(block))
    assert totals.tobytes() == np.array(left_to_right_scores(block, nu)).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e-300, 7.0]), max_size=30))
def test_competition_ranks_match_definition(values):
    expected = [1 + sum(1 for other in values if other > value) for value in values]
    assert _competition_ranks(values) == expected
