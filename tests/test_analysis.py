from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rscore import (
    AnalysisError,
    DegenerateRankingError,
    EmptyVenueSetError,
    ModelError,
    RScoreError,
    ScoreReport,
    ScoreRow,
    VenueMode,
    build_counts,
    build_reputation_model,
    compare_rankings,
    score_programs,
    spearman,
    stability_sweep,
    stationary_gth,
)

from helpers import (
    make_corpus,
    oracle_counts,
    oracle_ranking,
    power_iteration,
    prefix_corpus,
    random_corpus,
)


def _report(rows):
    return ScoreReport(
        rows=tuple(
            ScoreRow(pid, 1, raw, r, r, rank, rank)
            for pid, raw, r, rank in rows
        ),
    )


def test_spearman_identical_is_one():
    order = ["a", "b", "c", "d", "e"]
    assert spearman(order, order) == pytest.approx(1.0, abs=1e-12)


def test_spearman_reversed_is_minus_one():
    order = ["a", "b", "c", "d", "e"]
    assert spearman(order, list(reversed(order))) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_single_transposition():
    assert spearman(
        ["A", "B", "C", "D"], ["A", "C", "B", "D"]
    ) == pytest.approx(0.8, abs=1e-12)


def test_spearman_is_symmetric():
    rng = np.random.default_rng(5)
    ids = [f"p{i}" for i in range(9)]
    for _ in range(20):
        a = list(rng.permutation(ids))
        b = list(rng.permutation(ids))
        assert spearman(a, b) == pytest.approx(spearman(b, a), abs=1e-12)


def test_spearman_matches_scipy_on_permutations():
    rng = np.random.default_rng(6)
    ids = [f"p{i}" for i in range(12)]
    for _ in range(25):
        a = list(rng.permutation(ids))
        b = list(rng.permutation(ids))
        mine = spearman(a, b)
        rank_a = {pid: i for i, pid in enumerate(a)}
        rank_b = {pid: i for i, pid in enumerate(b)}
        expected = stats.spearmanr(
            [rank_a[p] for p in ids], [rank_b[p] for p in ids]
        ).statistic
        assert mine == pytest.approx(expected, abs=1e-12)


def test_spearman_with_tied_scores_matches_scipy():
    rng = np.random.default_rng(7)
    ids = [f"p{i}" for i in range(10)]
    for _ in range(25):
        scores_a = rng.integers(0, 4, size=10).astype(float)
        scores_b = rng.integers(0, 4, size=10).astype(float)
        if len(set(scores_a)) < 2 or len(set(scores_b)) < 2:
            continue
        mine = spearman(list(zip(ids, scores_a)), list(zip(ids, scores_b)))
        expected = stats.spearmanr(scores_a, scores_b).statistic
        # scipy ranks ascending, this package descending; rho is identical
        assert mine == pytest.approx(expected, abs=1e-12)


def test_spearman_tied_scores_hand_value():
    a = [("x", 2.0), ("y", 2.0), ("z", 1.0)]
    b = [("x", 3.0), ("y", 2.0), ("z", 1.0)]
    # ranks (1.5, 1.5, 3) vs (1, 2, 3)
    assert spearman(a, b) == pytest.approx(1.5 / np.sqrt(3.0), abs=1e-12)


def test_spearman_rejects_bad_inputs():
    with pytest.raises(AnalysisError, match="same program set"):
        spearman(["a", "b"], ["a", "c"])
    with pytest.raises(AnalysisError, match="at least 2"):
        spearman(["a"], ["a"])
    with pytest.raises(AnalysisError, match="duplicate"):
        spearman(["a", "a", "b"], ["a", "b", "b"])
    with pytest.raises(DegenerateRankingError):
        spearman([("a", 1.0), ("b", 1.0)], [("a", 2.0), ("b", 1.0)])


@pytest.mark.parametrize("mixed", [[("a", 1.0), "bc"], [("a", 1.0), "b"]])
def test_spearman_rejects_plain_entries_among_pairs(mixed):
    pairs = [("a", 1.0), ("b", 2.0)]
    for args in ((mixed, pairs), (pairs, mixed)):
        with pytest.raises(AnalysisError, match="^mixed ranking entries$"):
            spearman(*args)


def test_spearman_values_stay_in_range():
    rng = np.random.default_rng(8)
    ids = [f"p{i}" for i in range(6)]
    for _ in range(50):
        a = list(zip(ids, rng.integers(0, 3, size=6).astype(float)))
        b = list(zip(ids, rng.integers(0, 3, size=6).astype(float)))
        try:
            rho = spearman(a, b)
        except DegenerateRankingError:
            continue
        assert -1.0 <= rho <= 1.0


def test_sweep_k1(walkthrough_corpus):
    report = stability_sweep(walkthrough_corpus, 1)
    assert report.sizes == (1,)
    assert report.adjacent == ()
    assert report.first_vs_last == (1, 1, 1.0)
    assert set(report.rankings[1]) == {"east", "west"}


def test_sweep_identical_reference_distributions_always_agree():
    # every reference program has the same venue distribution, so every
    # prefix produces the same venue reputations and the same ranking
    pubs = []
    refs = []
    for i in range(4):
        member = f"r{i}.m"
        refs.append((f"ref{i}", [member]))
        pubs.append((f"a{i}", "v1", 2010, [member]))
        pubs.append((f"b{i}", "v1", 2010, [member]))
        pubs.append((f"c{i}", "v2", 2010, [member]))
    cands = [("c.big", ["cb"]), ("c.small", ["cs"])]
    pubs.append(("x1", "v1", 2010, ["cb"]))
    pubs.append(("x2", "v2", 2010, ["cb"]))
    pubs.append(("x3", "v2", 2010, ["cs"]))
    corpus = make_corpus(pubs, refs, cands)
    report = stability_sweep(corpus, 4)
    for _, _, rho in list(report.adjacent) + [report.first_vs_last]:
        assert rho == pytest.approx(1.0, abs=1e-12)
    assert len({report.rankings[size] for size in report.sizes}) == 1


def test_sweep_prefix_determinism():
    corpus = random_corpus(np.random.default_rng(1234), n_ref=6, hub=True)
    full = stability_sweep(corpus, 6)
    shorter = stability_sweep(corpus, 5)
    for size in shorter.sizes:
        assert full.rankings[size] == shorter.rankings[size]
    assert full.adjacent[:4] == shorter.adjacent[:4]


def test_sweep_requires_enough_reference_programs(walkthrough_corpus):
    with pytest.raises(AnalysisError, match="need 10 reference programs, found 2"):
        stability_sweep(walkthrough_corpus, 10)


@pytest.mark.parametrize("k", [2.0, "3", True, None])
def test_sweep_rejects_a_non_integer_k(walkthrough_corpus, k):
    with pytest.raises(AnalysisError, match=f"^k must be an integer, got {k!r}$"):
        stability_sweep(walkthrough_corpus, k)


def test_sweep_takes_a_numpy_integer_k(walkthrough_corpus):
    assert stability_sweep(walkthrough_corpus, np.int64(2)) == stability_sweep(walkthrough_corpus, 2)


def test_sweep_requires_candidates():
    corpus = make_corpus(
        pubs=[("p1", "v1", 2010, ["a1"])], refs=[("r1", ["a1"])]
    )
    with pytest.raises(AnalysisError, match="no candidate programs"):
        stability_sweep(corpus, 1)


def test_sweep_error_names_offending_size():
    # the second reference program never publishes, so size 2 must fail
    pubs = [
        ("p1", "v1", 2010, ["a1"]),
        ("p2", "v2", 2010, ["c1"]),
    ]
    corpus = make_corpus(
        pubs, refs=[("r1", ["a1"]), ("silent", ["z1"])], cands=[("cand", ["c1"])]
    )
    with pytest.raises(AnalysisError, match="reference-set size 2.*silent"):
        stability_sweep(corpus, 2)


def test_sweep_matches_independent_recomputation():
    corpus = random_corpus(
        np.random.default_rng(555), n_ref=10, n_cand=5, n_venues=7, n_papers=160,
        hub=True,
    )
    k = 10
    report = stability_sweep(corpus, k)

    candidate_ids = sorted(r.program_id for r in corpus.candidate_programs)
    oracle_scores = {}
    for size in range(1, k + 1):
        prefix = prefix_corpus(corpus, size)
        venue_set, _, per_program_venue, per_venue, per_program = oracle_counts(prefix)
        t = size
        beta = np.zeros((t, len(venue_set)))
        alpha = np.zeros((len(venue_set), t))
        for w, (pid, _) in enumerate(
            [(r.program_id, None) for r in corpus.reference_programs[:size]]
        ):
            for j, venue in enumerate(venue_set):
                count = per_program_venue.get((pid, venue), 0)
                beta[w, j] = float(count) / float(per_program[pid])
                alpha[j, w] = float(count) / float(per_venue[venue])
        gamma = power_iteration(beta @ alpha) if t > 1 else np.array([1.0])
        nu = gamma @ beta
        nu = nu / nu.max()
        oracle_scores[size] = {
            pid: sum(
                float(per_program_venue.get((pid, venue), 0)) * nu[j]
                for j, venue in enumerate(venue_set)
            )
            for pid in candidate_ids
        }
        expected_order = sorted(
            candidate_ids, key=lambda pid: (-oracle_scores[size][pid], pid)
        )
        assert list(report.rankings[size]) == expected_order

    for i, j, rho in list(report.adjacent) + [report.first_vs_last]:
        expected = stats.spearmanr(
            [oracle_scores[i][pid] for pid in candidate_ids],
            [oracle_scores[j][pid] for pid in candidate_ids],
        ).statistic
        assert rho == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("whole", [False, True], ids=["k=1", "k=n_ref"])
def test_sweep_counts_once_and_builds_one_table(whole, monkeypatch):
    # prefixes are views of the one count: no recount and no table per
    # prefix; and each prefix is ranked once, not once per comparison
    import rscore.analysis
    import rscore.reputation
    from rscore import CountsTable

    corpus = random_corpus(np.random.default_rng(557), n_ref=5, hub=True)
    counted, tables, ranked = [], [], []
    build = rscore.analysis.build_counts
    monkeypatch.setattr(
        rscore.analysis, "build_counts",
        lambda *args, **kwargs: counted.append(1) or build(*args, **kwargs),
    )
    post_init = CountsTable.__post_init__
    monkeypatch.setattr(
        CountsTable, "__post_init__", lambda table: tables.append(1) or post_init(table)
    )
    rank_map = rscore.analysis._rank_map
    monkeypatch.setattr(
        rscore.analysis, "_rank_map", lambda ranking: ranked.append(1) or rank_map(ranking)
    )
    # and no prefix is solved: no transition blocks and no GTH
    def unsolved(*args):
        raise AssertionError("a sweep prefix was solved")

    monkeypatch.setattr(rscore.reputation, "_transition_blocks", unsolved)
    monkeypatch.setattr(rscore.reputation, "stationary_gth", unsolved)
    k = len(corpus.reference_programs) if whole else 1
    stability_sweep(corpus, k)
    assert counted == [1]
    assert tables == [1]
    assert len(ranked) == k


def test_sweep_report_does_not_depend_on_the_product_dtype(monkeypatch):
    # past 2**53 the prefix scores come from an exact int64 product instead of
    # float64 BLAS; both give every prefix the same exact integers
    import rscore.analysis

    corpus = random_corpus(np.random.default_rng(558), n_ref=9, n_cand=5, hub=True)
    counts = build_counts(corpus)
    floats = rscore.analysis._prefix_scores(counts.matrix[9:], counts.matrix[:9])
    whole = stability_sweep(corpus, 9)
    monkeypatch.setattr(rscore.analysis, "_EXACT_FLOAT", 0)
    integers = rscore.analysis._prefix_scores(counts.matrix[9:], counts.matrix[:9])
    assert (floats.dtype, integers.dtype) == (np.float64, np.int64)
    assert floats.tolist() == integers.tolist()
    assert stability_sweep(corpus, 9) == whole


@pytest.mark.parametrize("exact_float", [1, 1 << 20])
def test_sweep_names_the_smallest_failing_size_first(exact_float, monkeypatch):
    # size 2 is reducible (its two programs share no venue), and size 3 has
    # a reference program with no paper; the sweep must name size 2, as a
    # prefix-by-prefix solve does, whether the prefix scores are an int64
    # (cap 1) or a float64 (cap 2**20) product
    import rscore.analysis

    monkeypatch.setattr(rscore.analysis, "_EXACT_FLOAT", exact_float)
    pubs = [
        ("p1", "v1", 2010, ["a1"]),
        ("p2", "v2", 2010, ["b1"]),
        ("p3", "v1", 2010, ["c1"]),
    ]
    corpus = make_corpus(
        pubs, refs=[("r1", ["a1"]), ("r2", ["b1"]), ("silent", ["z1"])], cands=[("cand", ["c1"])]
    )
    with pytest.raises(AnalysisError) as excinfo:
        stability_sweep(corpus, 3)
    assert str(excinfo.value) == (
        "reference-set size 2: transition matrix is reducible; "
        "2 strongly connected components: {0}; {1}"
    )


def test_sweep_orders_exactly_tied_candidates_by_id():
    # v32 and v34 of the golden random corpus have equal reference totals, so
    # ta and tb, one paper each there, tie exactly at every prefix holding
    # both venues, though the solved nu of v34 is one ulp above v32's
    from test_golden import _random_corpus

    corpus = _random_corpus()
    corpus = make_corpus(
        pubs=[(p.id, p.venue, p.year, list(p.authors)) for p in corpus.publications]
        + [("ta.1", "v32", 2010, ["ta.m"]), ("tb.1", "v34", 2010, ["tb.m"])],
        refs=[(r.program_id, sorted(r.faculty)) for r in corpus.reference_programs],
        cands=[(r.program_id, sorted(r.faculty)) for r in corpus.candidate_programs]
        + [("ta", ["ta.m"]), ("tb", ["tb.m"])],
    )
    report = stability_sweep(corpus, 8)
    last = report.rankings[8]
    assert last.index("tb") == last.index("ta") + 1
    exact = oracle_ranking(corpus)
    assert dict(exact)["ta"] == dict(exact)["tb"]
    assert last == tuple(pid for pid, _ in exact)
    # the tie shares its average rank
    first = oracle_ranking(prefix_corpus(corpus, 1))
    assert report.first_vs_last == (1, 8, spearman(first, exact))
    assert report.first_vs_last[2] == 0.9700772721497398


def test_sweep_venue_mode_passthrough():
    # the sweep takes no venue mode: every prefix ranks alike in both modes
    corpus = random_corpus(np.random.default_rng(556), n_ref=3, hub=True)
    report = stability_sweep(corpus, 3)
    candidates = [r.program_id for r in corpus.candidate_programs]
    for mode in VenueMode:
        for size in report.sizes:
            prefix = build_counts(prefix_corpus(corpus, size), mode)
            ranked = score_programs(build_reputation_model(prefix), prefix, candidates)
            assert report.rankings[size] == tuple(row.program_id for row in ranked.rows)


def test_compare_exact_agreement():
    report = _report(
        [("a", 3.0, 1.0, 1), ("b", 2.0, 0.66, 2), ("c", 1.0, 0.33, 3)]
    )
    comparison = compare_rankings(report, [("a", 7), ("b", 6), ("c", 5)])
    assert comparison.rho == pytest.approx(1.0, abs=1e-12)
    assert not comparison.degenerate
    assert [row.program_id for row in comparison.rows] == ["a", "b", "c"]


def test_compare_equal_grades_degenerate():
    report = _report([("a", 3.0, 1.0, 1), ("b", 2.0, 0.66, 2)])
    comparison = compare_rankings(report, [("a", 5), ("b", 5)])
    assert comparison.degenerate
    assert comparison.rho is None


def test_compare_single_transposition_six_programs():
    rows = [(pid, float(6 - i), (6 - i) / 6.0, i + 1) for i, pid in enumerate("abcdef")]
    report = _report(rows)
    grades = [("a", 9), ("b", 8), ("c", 6), ("d", 7), ("e", 5), ("f", 4)]
    comparison = compare_rankings(report, grades)
    assert comparison.rho == pytest.approx(1 - 6 * 2 / (6 * 35), abs=1e-12)


def test_compare_restricts_to_overlap_and_rejects_empty():
    report = _report([("a", 3.0, 1.0, 1), ("b", 2.0, 0.66, 2)])
    comparison = compare_rankings(report, [("a", 7), ("z", 6), ("b", 5)])
    assert [row.program_id for row in comparison.rows] == ["a", "b"]
    with pytest.raises(AnalysisError, match="no overlap"):
        compare_rankings(report, [("x", 7), ("y", 6)])


def test_compare_names_unmatched_grades_in_grades_order():
    report = _report([("a", 3.0, 1.0, 1), ("b", 2.0, 0.66, 2)])
    assert compare_rankings(report, [("y", 1), ("a", 7), ("z", 6), ("b", 5)]).unmatched == ("y", "z")
    assert compare_rankings(report, [("a", 7), ("b", 5)]).unmatched == ()


def test_compare_duplicate_grades_entry_rejected():
    report = _report([("a", 3.0, 1.0, 1), ("b", 2.0, 0.66, 2)])
    with pytest.raises(AnalysisError, match="duplicate program id"):
        compare_rankings(report, [("a", 7), ("a", 6)])


@pytest.mark.parametrize(
    "grades, message",
    [
        ([("a", 1.0), "bc"], "not an \\(id, grade\\) pair"),
        ([("a", 1.0), "b"], "not an \\(id, grade\\) pair"),
        ([("a", 1.0), ("b", "x")], "grade of 'b' is not a finite number: 'x'"),
        ([("a", 1.0), ("b", None)], "grade of 'b' is not a finite number: None"),
        ([("a", 1.0), (["b"], 2.0)], "not an \\(id, grade\\) pair"),
    ],
    ids=["two-letter-string", "one-letter-string", "string-grade", "none-grade", "list-id"],
)
def test_compare_malformed_grade_entries_rejected(grades, message):
    report = _report([("a", 3.0, 1.0, 1), ("b", 2.0, 0.66, 2)])
    with pytest.raises(AnalysisError, match=message):
        compare_rankings(report, grades)


def test_compare_grade_too_large_for_a_float_is_an_analysis_error():
    report = _report([("a", 3.0, 1.0, 1), ("b", 2.0, 0.66, 2)])
    with pytest.raises(AnalysisError, match="grade of 'a' is too large for a float"):
        compare_rankings(report, [("a", 10**400)])
    with pytest.raises(AnalysisError, match="grade of 'b' is too large for a float"):
        compare_rankings(report, [("a", 1.0), ("b", Fraction(-(10**400)))])


def test_bool_grades_and_string_scores_are_rejected():
    # float() takes both, so True and False used to grade as 1.0 and 0.0 and
    # "1.5" to score as 1.5; numpy numbers are still numbers
    report = _report([("a", 3.0, 1.0, 1), ("b", 2.0, 0.66, 2), ("c", 1.0, 0.33, 3)])
    with pytest.raises(AnalysisError, match="^grade of 'a' is not a finite number: True$"):
        compare_rankings(report, [("a", True), ("b", False), ("c", 0.5)])
    with pytest.raises(AnalysisError, match="^ranking score of 'a' is not a number: '1.5'$"):
        spearman([("a", "1.5"), ("b", "0")], [("a", 1.0), ("b", 0.0)])
    with pytest.raises(AnalysisError, match="^ranking score of 'b' is not a number: False$"):
        spearman([("a", 1.0), ("b", False)], [("a", 1.0), ("b", 0.0)])
    assert spearman([("a", np.float64(1.5)), ("b", np.int64(0))], [("a", 1.0), ("b", 0.0)]) == 1.0
    grades = [("a", np.float32(3.0)), ("b", np.int64(2)), ("c", 1)]
    assert compare_rankings(report, grades).rho == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_compare_rejects_non_finite_grade_of_single_shared_program(bad):
    # one shared program is never correlated, so the grade is checked on entry
    report = _report([("a", 3.0, 1.0, 1)])
    with pytest.raises(AnalysisError, match="grade of 'a' is not a finite number"):
        compare_rankings(report, [("a", bad)])


def test_compare_end_to_end(walkthrough_corpus):
    counts = build_counts(walkthrough_corpus)
    model = build_reputation_model(counts)
    report = score_programs(model, counts, ["east", "west"])
    comparison = compare_rankings(report, [("east", 7.0), ("west", 6.0)])
    assert comparison.rho == pytest.approx(1.0, abs=1e-12)


def _rebuilt_prefix(corpus, size, mode):
    """Oracle counts, transition blocks and raw candidate scores of the
    prefix corpus, rebuilt from scratch.

    Counts come from the brute-force oracle and the blocks from its exact
    fractions. The aggregate ``beta @ alpha`` and the venue step
    ``(gamma @ beta) / max`` are taken here, with the package's tolerances;
    only the GTH solve is the package's own. alpha divides by the
    per-program venue totals in either mode; the mode changes only the
    reported totals. Raises RScoreError where the prefix has no usable model.
    """
    prefix = prefix_corpus(corpus, size)
    oracle = oracle_counts(prefix, mode is VenueMode.DISTINCT_PAPER)
    venue_set, _, per_program_venue, _, per_program = oracle
    if not venue_set:
        raise EmptyVenueSetError("empty")
    references = [r.program_id for r in prefix.reference_programs]
    column_totals = {
        venue: sum(per_program_venue.get((pid, venue), Fraction(0)) for pid in references)
        for venue in venue_set
    }
    beta = np.zeros((size, len(venue_set)))
    alpha = np.zeros((len(venue_set), size))
    for w, pid in enumerate(references):
        if per_program[pid] == 0:
            raise ModelError(pid)
        for j, venue in enumerate(venue_set):
            count = per_program_venue.get((pid, venue), Fraction(0))
            beta[w, j] = float(count / per_program[pid])
            alpha[j, w] = float(count / column_totals[venue])
    p_prime = beta @ alpha
    if np.max(np.abs(p_prime.sum(axis=1) - 1.0)) > 1e-10:
        raise ModelError("aggregate")
    gamma = stationary_gth(p_prime)
    if np.max(np.abs(gamma @ p_prime - gamma)) > 1e-10:
        raise ModelError("residual")
    nu = gamma @ beta
    if nu.max() <= 0.0:
        raise ModelError("all zero")
    nu = nu / nu.max()
    scores = {}
    for roster in prefix.candidate_programs:
        total = 0.0
        for j, venue in enumerate(venue_set):
            count = per_program_venue.get((roster.program_id, venue), 0)
            if count:
                total += float(nu[j]) * float(count)
        scores[roster.program_id] = total
    return oracle, (alpha, beta), scores


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ref=st.integers(1, 5),
    n_cand=st.integers(2, 4),
    n_venues=st.integers(1, 7),
    n_papers=st.integers(0, 80),
    hub=st.booleans(),
    mode=st.sampled_from(VenueMode),
)
def test_sweep_equals_prefix_rebuilds_from_oracle_counts(
    seed, n_ref, n_cand, n_venues, n_papers, hub, mode
):
    corpus = random_corpus(
        np.random.default_rng(seed), n_ref=n_ref, n_cand=n_cand, n_venues=n_venues,
        n_papers=n_papers, hub=hub,
    )
    candidates = [r.program_id for r in corpus.candidate_programs]
    scored = {}
    for size in range(1, n_ref + 1):
        try:
            oracle, (alpha, beta), scores = _rebuilt_prefix(corpus, size, mode)
        except RScoreError:
            with pytest.raises(AnalysisError, match=f"^reference-set size {size}: "):
                stability_sweep(corpus, n_ref)
            return
        # the prefix corpus counted on its own, then the model
        prefix = build_counts(prefix_corpus(corpus, size), mode)
        venue_set, _, per_program_venue, per_venue, per_program = oracle
        assert list(prefix.venue_index) == venue_set
        assert dict(prefix.per_program_venue) == per_program_venue
        assert dict(prefix.per_venue) == per_venue
        assert dict(prefix.per_program) == per_program
        model = build_reputation_model(prefix)
        assert model.alpha.tobytes() == alpha.tobytes()
        assert model.beta.tobytes() == beta.tobytes()
        report = score_programs(model, prefix, candidates)
        assert {row.program_id: row.raw_score for row in report.rows} == scores
        # the sweep ranks by exact scores, so exact ties are ordered by id
        scored[size] = oracle_ranking(prefix_corpus(corpus, size))

    try:
        report = stability_sweep(corpus, n_ref)
    except AnalysisError as exc:
        # only an all-tied prefix ranking may fail after every model solved
        assert "comparison of sizes" in str(exc)
        return
    for size in report.sizes:
        assert report.rankings[size] == tuple(pid for pid, _ in scored[size])
    for i, j, rho in report.adjacent:
        assert rho == spearman(scored[i], scored[j])
    if n_ref > 1:
        assert report.first_vs_last[2] == spearman(scored[1], scored[n_ref])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_spearman_rejects_non_finite_scores(bad):
    with pytest.raises(AnalysisError, match="not finite"):
        spearman([("a", 1.0), ("b", bad), ("c", 0.0)], [("a", 1.0), ("b", 2.0), ("c", 0.0)])


def test_spearman_score_too_large_for_a_float_is_an_analysis_error():
    with pytest.raises(AnalysisError, match="score of 'a' is too large for a float"):
        spearman([("a", 10**400), ("b", 0)], [("a", 1.0), ("b", 0.0)])
    with pytest.raises(AnalysisError, match="score of 'b' is too large for a float"):
        spearman([("a", 1.0), ("b", 0.0)], [("a", 1), ("b", Fraction(10**400, 3))])


_IDS = st.sampled_from("abcdef")
# Ties come from the small pool; st.floats() also draws nan and infinities.
_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats()


@st.composite
def _ranking_pair(draw, scored):
    """Two rankings of mostly the same ids, which may repeat; plain orders or,
    always when ``scored``, (id, score) pairs. Unless ``scored``, a ranking
    may mix the two kinds of entry."""
    unique = st.lists(_IDS, min_size=2, max_size=7, unique=True)
    ids = draw(st.one_of(unique, unique, unique, st.lists(_IDS, max_size=7)))

    def one():
        order = draw(st.permutations(ids))
        if draw(st.integers(0, 4)) == 0:
            order.append(draw(_IDS))
        plain = not scored and draw(st.booleans())
        entries = order if plain else [(pid, draw(_FLOATS)) for pid in order]
        if not scored and entries and draw(st.integers(0, 4)) == 0:
            # one entry of the other kind: a pair among ids, or an id or a
            # two-letter string among pairs
            if plain:
                other = (draw(_IDS), draw(_FLOATS))
            else:
                other = draw(_IDS | _IDS.map(lambda pid: pid * 2))
            entries[draw(st.integers(0, len(entries) - 1))] = other
        return entries

    return one(), one()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rankings=_ranking_pair(scored=False), graded=_ranking_pair(scored=True))
def test_rank_correlations_end_in_range_or_analysis_error(rankings, graded):
    # ids repeat and floats tie or are not finite; nothing may hang or escape
    try:
        rho = spearman(*rankings)
    except AnalysisError:
        pass
    else:
        assert -1.0 <= rho <= 1.0
    scores, grades = graded
    report = _report([(pid, raw, raw, 1) for pid, raw in scores])
    try:
        comparison = compare_rankings(report, grades)
    except AnalysisError:
        return
    assert comparison.rho is None or -1.0 <= comparison.rho <= 1.0
