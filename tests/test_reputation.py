from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscore import (
    EmptyVenueSetError,
    ModelError,
    RScoreError,
    ReducibleChainError,
    VenueMode,
    build_counts,
    build_reputation_model,
    stability_sweep,
    stationary_gth,
)
from rscore.analysis import _prefix_scores
from rscore.reputation import (
    _modelled_prefixes,
    _strongly_connected_components,
    _transition_blocks,
)

from helpers import (
    exact_gth,
    gth_one_matrix,
    make_corpus,
    naive_matmul,
    oracle_counts,
    oracle_model,
    oracle_ranking,
    power_iteration,
    prefix_corpus,
    random_corpus,
    random_stochastic,
    sparse_irreducible_stochastic,
)


def test_walkthrough_transition_blocks(walkthrough_counts):
    model = build_reputation_model(walkthrough_counts)
    assert model.program_index == ("north", "south")
    assert model.venue_index == ("alpha", "beta", "gamma")
    np.testing.assert_allclose(model.beta[0], [3 / 6, 2 / 6, 1 / 6], atol=1e-15)
    np.testing.assert_allclose(model.beta[1], [2 / 8, 4 / 8, 2 / 8], atol=1e-15)
    np.testing.assert_allclose(model.alpha[0], [3 / 5, 2 / 5], atol=1e-15)
    np.testing.assert_allclose(model.alpha[1], [2 / 6, 4 / 6], atol=1e-15)
    np.testing.assert_allclose(model.alpha[2], [1 / 3, 2 / 3], atol=1e-15)


def test_single_program_single_venue_blocks_are_identity():
    corpus = make_corpus(pubs=[("p1", "v1", 2010, ["a1"])], refs=[("r1", ["a1"])])
    model = build_reputation_model(build_counts(corpus))
    assert model.alpha.tolist() == [[1.0]]
    assert model.beta.tolist() == [[1.0]]


def test_random_structures_are_stochastic():
    for seed in range(6):
        corpus = random_corpus(np.random.default_rng(200 + seed))
        for mode in VenueMode:
            model = build_reputation_model(build_counts(corpus, mode))
            np.testing.assert_allclose(model.beta.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(model.alpha.sum(axis=1), 1.0, atol=1e-12)
            for block in (model.alpha, model.beta):
                assert block.min() >= 0.0 and block.max() <= 1.0


def test_zero_publication_reference_program_is_rejected():
    corpus = make_corpus(
        pubs=[("p1", "v1", 2010, ["a1"])],
        refs=[("r1", ["a1"]), ("idle", ["z1"])],
    )
    with pytest.raises(ModelError, match="idle"):
        build_reputation_model(build_counts(corpus))


def test_aggregate_walkthrough(walkthrough_model):
    p_prime = walkthrough_model.p_prime
    exact = np.array([[Fraction(7, 15), Fraction(8, 15)], [Fraction(2, 5), Fraction(3, 5)]],
                     dtype=float)
    np.testing.assert_allclose(p_prime, exact, atol=1e-14)
    displayed = np.array([[0.467, 0.533], [0.400, 0.600]])
    assert np.max(np.abs(p_prime - displayed)) < 5e-4


def test_aggregate_private_venues_gives_identity():
    corpus = make_corpus(
        pubs=[("p1", "v1", 2010, ["a1"]), ("p2", "v2", 2010, ["b1"])],
        refs=[("r1", ["a1"]), ("r2", ["b1"])],
    )
    counts = build_counts(corpus)
    _, _, p_prime = _transition_blocks(counts.matrix, counts.reference_programs)
    np.testing.assert_allclose(p_prime, np.eye(2), atol=1e-15)
    # the identity chain is reducible, so the model names both programs apart
    with pytest.raises(ReducibleChainError) as excinfo:
        build_reputation_model(counts)
    assert excinfo.value.components == ((0,), (1,))


def test_aggregate_matches_naive_matmul():
    for seed in range(4):
        corpus = random_corpus(np.random.default_rng(300 + seed))
        model = build_reputation_model(build_counts(corpus))
        expected = naive_matmul(model.beta, model.alpha)
        np.testing.assert_allclose(model.p_prime, expected, atol=1e-12)


def test_gth_walkthrough(walkthrough_model):
    gamma = stationary_gth(walkthrough_model.p_prime)
    np.testing.assert_allclose(gamma, [3 / 7, 4 / 7], atol=1e-14)


def test_gth_two_cycle():
    gamma = stationary_gth(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(gamma, [0.5, 0.5], atol=1e-15)


def test_gth_single_state():
    np.testing.assert_allclose(stationary_gth(np.array([[1.0]])), [1.0])


def test_gth_agrees_with_power_iteration():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        p = random_stochastic(rng, 8)
        gamma = stationary_gth(p)
        oracle = power_iteration(p)
        assert np.max(np.abs(gamma - oracle)) < 1e-9
        assert np.max(np.abs(gamma @ p - gamma)) <= 1e-10


def test_gth_rejects_reducible_matrix_with_components():
    p = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    with pytest.raises(ReducibleChainError) as excinfo:
        stationary_gth(p)
    components = {frozenset(c) for c in excinfo.value.components}
    assert components == {frozenset({0, 1}), frozenset({2, 3})}


def test_gth_rejects_empty_and_non_stochastic():
    with pytest.raises(ModelError, match="empty"):
        stationary_gth(np.zeros((0, 0)))
    with pytest.raises(ModelError, match="not row-stochastic"):
        stationary_gth(np.array([[0.5, 0.4], [0.5, 0.5]]))


@pytest.mark.parametrize(
    "p",
    [[[np.nan, 1.0], [0.5, 0.5]], [[np.nan, np.nan], [0.5, 0.5]]],
    ids=["nan entry", "nan row"],
)
def test_gth_rejects_nan(p):
    # a NaN row sum must fail the row-sum check, not slip past it
    with pytest.raises(ModelError, match="not row-stochastic"):
        stationary_gth(np.array(p))


def test_venue_reputation_walkthrough(walkthrough_model):
    np.testing.assert_allclose(walkthrough_model.nu, [5 / 6, 1.0, 1 / 2], atol=1e-12)
    displayed = np.array([0.83, 1.0, 0.5])
    assert np.max(np.abs(walkthrough_model.nu - displayed)) < 5e-3
    assert walkthrough_model.nu.max() == 1.0


def test_single_venue_reputation_is_one():
    corpus = make_corpus(
        pubs=[("p1", "v1", 2010, ["a1"]), ("p2", "v1", 2010, ["b1"])],
        refs=[("r1", ["a1"]), ("r2", ["b1"])],
    )
    model = build_reputation_model(build_counts(corpus))
    assert model.nu.tolist() == [1.0]


def test_unnormalized_venue_reputation_sums_to_one():
    for seed in range(4):
        corpus = random_corpus(np.random.default_rng(500 + seed))
        model = build_reputation_model(build_counts(corpus))
        raw = model.gamma @ model.beta
        assert abs(raw.sum() - 1.0) < 1e-12


def test_one_program_model_reputation_follows_its_shares():
    corpus = make_corpus(
        pubs=[
            ("p1", "v1", 2010, ["a1"]),
            ("p2", "v1", 2010, ["a1"]),
            ("p3", "v2", 2010, ["a2"]),
        ],
        refs=[("r1", ["a1", "a2"])],
    )
    model = build_reputation_model(build_counts(corpus))
    np.testing.assert_allclose(model.gamma, [1.0])
    # beta row (2/3, 1/3) scaled so the max is 1
    np.testing.assert_allclose(model.nu, [1.0, 0.5], atol=1e-15)


def test_model_rows_and_residuals_on_random_corpora():
    for seed in range(6):
        corpus = random_corpus(np.random.default_rng(600 + seed))
        model = build_reputation_model(build_counts(corpus))
        np.testing.assert_allclose(model.p_prime.sum(axis=1), 1.0, atol=1e-10)
        assert np.max(np.abs(model.gamma @ model.p_prime - model.gamma)) <= 1e-10
        assert model.gamma.min() >= 0
        assert abs(model.gamma.sum() - 1.0) < 1e-10
        assert model.nu.max() == 1.0
        assert model.nu.min() > 0


def test_program_permutation_permutes_gamma():
    corpus = random_corpus(np.random.default_rng(77), n_ref=5)
    model = build_reputation_model(build_counts(corpus))
    reversed_corpus = make_corpus(
        pubs=[(p.id, p.venue, p.year, list(p.authors)) for p in corpus.publications],
        refs=[
            (r.program_id, sorted(r.faculty))
            for r in reversed(corpus.reference_programs)
        ],
        cands=[
            (r.program_id, sorted(r.faculty)) for r in corpus.candidate_programs
        ],
    )
    permuted = build_reputation_model(build_counts(reversed_corpus))
    assert permuted.program_index == tuple(reversed(model.program_index))
    np.testing.assert_allclose(permuted.gamma, model.gamma[::-1], atol=1e-12)
    np.testing.assert_allclose(permuted.nu, model.nu, atol=1e-12)


def test_venue_relabeling_permutes_nu():
    corpus = random_corpus(np.random.default_rng(78))
    counts = build_counts(corpus)
    model = build_reputation_model(counts)
    # reverse the lexicographic venue order via relabeling
    n = len(counts.venue_index)
    relabel = {
        venue: f"w{n - 1 - i:02d}" for i, venue in enumerate(counts.venue_index)
    }
    renamed = make_corpus(
        pubs=[
            (p.id, relabel.get(p.venue, p.venue), p.year, list(p.authors))
            for p in corpus.publications
        ],
        refs=[(r.program_id, sorted(r.faculty)) for r in corpus.reference_programs],
        cands=[(r.program_id, sorted(r.faculty)) for r in corpus.candidate_programs],
    )
    permuted = build_reputation_model(build_counts(renamed))
    np.testing.assert_allclose(permuted.nu, model.nu[::-1], atol=1e-12)
    np.testing.assert_allclose(permuted.gamma, model.gamma, atol=1e-12)


def test_beta_rows_invariant_under_program_count_scaling():
    corpus = random_corpus(np.random.default_rng(79), n_ref=3)
    model = build_reputation_model(build_counts(corpus))
    target = corpus.reference_programs[0]
    # duplicate every publication involving the first program's faculty, twice
    extra = []
    for copy in range(2):
        for pub in corpus.publications:
            if not target.faculty.isdisjoint(pub.authors):
                extra.append((f"{pub.id}.dup{copy}", pub.venue, pub.year, list(pub.authors)))
    scaled_corpus = make_corpus(
        pubs=[(p.id, p.venue, p.year, list(p.authors)) for p in corpus.publications]
        + extra,
        refs=[(r.program_id, sorted(r.faculty)) for r in corpus.reference_programs],
        cands=[(r.program_id, sorted(r.faculty)) for r in corpus.candidate_programs],
    )
    scaled = build_reputation_model(build_counts(scaled_corpus))
    w = model.program_index.index(target.program_id)
    np.testing.assert_allclose(scaled.beta[w], model.beta[w], atol=0)


def test_distinct_mode_renormalization_reproduces_share_matrix():
    # the venue mode changes only the reported venue totals; the model is
    # built from the per-program share matrix in both modes, to the last bit
    corpus = random_corpus(np.random.default_rng(80))
    per_program = build_reputation_model(build_counts(corpus, VenueMode.PER_PROGRAM))
    distinct = build_reputation_model(build_counts(corpus, VenueMode.DISTINCT_PAPER))
    for name in ("alpha", "beta"):
        assert getattr(distinct, name).tobytes() == getattr(per_program, name).tobytes()
    assert distinct.nu.tobytes() == per_program.nu.tobytes()


def test_model_bits_do_not_depend_on_matrix_layout():
    counts = build_counts(
        random_corpus(
            np.random.default_rng(0), n_ref=12, n_cand=3, n_venues=60, n_papers=600,
            hub=True,
        )
    )
    fortran = dataclasses.replace(counts, matrix=np.asfortranarray(counts.matrix))
    assert not fortran.matrix.flags.c_contiguous
    expected = build_reputation_model(counts)
    model = build_reputation_model(fortran)
    assert model.nu.tobytes() == expected.nu.tobytes()
    assert model.digest == expected.digest


def test_transitions_require_reference_programs():
    # No corpus has zero reference programs, so the guard is reached only
    # by a direct call on an empty block.
    with pytest.raises(ModelError, match="no reference programs"):
        _transition_blocks(np.zeros((0, 0), dtype=np.int64), [])


def test_transitions_reject_a_block_with_no_venue():
    # a sweep prefix whose programs never publish has no venue columns
    with pytest.raises(EmptyVenueSetError, match="the venue set is empty"):
        _transition_blocks(np.zeros((1, 0), dtype=np.int64), ["silent"])


def test_gth_reducible_components_are_ordered_by_smallest_state():
    # 1 -> 3 -> 1 and 0 <-> 2, plus a one-way edge 2 -> 1
    p = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    with pytest.raises(ReducibleChainError) as excinfo:
        stationary_gth(p)
    assert excinfo.value.components == ((0, 2), (1, 3))


def test_strong_components_match_scipy_on_random_digraphs():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(20261)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        adjacency = rng.random((n, n)) < rng.uniform(0.0, 0.4)
        count, labels = csgraph.connected_components(
            adjacency, directed=True, connection="strong"
        )
        expected = sorted(np.flatnonzero(labels == label).tolist() for label in range(count))
        assert _strongly_connected_components(adjacency) == expected


# Sizes on both sides of numpy's 8-way unrolled sum and its 128-element
# pairwise block.
GTH_SIZES = (1, 2, 8, 9, 16, 17, 128, 129, 200)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.one_of(
        st.integers(1, 40).map(lambda k: list(range(1, k + 1))),
        st.lists(st.sampled_from(GTH_SIZES), min_size=1, max_size=4).map(sorted),
    ),
)
def test_gth_equals_the_one_matrix_loop(seed, sizes):
    rng = np.random.default_rng(seed)
    for n in sizes:
        p = sparse_irreducible_stochastic(rng, n)
        assert stationary_gth(p).tobytes() == gth_one_matrix(p).tobytes()


def _prefix_model_error(reference, programs, size):
    """The error that the model of the first ``size`` rows alone, over the
    venues they publish in, raises, or None."""
    columns = np.flatnonzero(reference[:size].any(axis=0))
    try:
        _, _, p_prime = _transition_blocks(reference[:size, columns], programs[:size])
        stationary_gth(p_prime)
    except RScoreError as exc:
        return exc
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    venues=st.integers(1, 8),
    density=st.floats(0.0, 0.6),
)
def test_prefixes_are_modelled_up_to_the_first_failing_one(seed, rows, venues, density):
    # the prefixes yielded are exactly those whose own model solves, and the
    # first that does not raises the same error, with the same text
    rng = np.random.default_rng(seed)
    reference = rng.integers(1, 4, size=(rows, venues)) * (rng.random((rows, venues)) < density)
    programs = [f"r{w}" for w in range(rows)]
    errors = [_prefix_model_error(reference, programs, size) for size in range(1, rows + 1)]
    failing = next((size for size, error in enumerate(errors, start=1) if error), rows + 1)
    sizes, raised = [], None
    try:
        for size in _modelled_prefixes(reference, programs):
            sizes.append(size)
    except RScoreError as exc:
        raised = exc
    assert sizes == list(range(1, failing))
    expected = errors[failing - 1] if failing <= rows else None
    assert (type(raised), str(raised)) == (type(expected), str(expected))


def test_gth_zero_pivot_guard_names_the_state_in_its_own_matrix(monkeypatch):
    # the irreducibility check keeps the guard unreachable, so let the chain
    # pass it: it stalls at state 1
    import rscore.reputation

    monkeypatch.setattr(rscore.reputation, "_strongly_connected_components",
                        lambda adjacency: [list(range(len(adjacency)))])
    stalled = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ModelError, match="^zero pivot while eliminating state 1$"):
        stationary_gth(stalled)


def test_exact_gth_solves_a_chain_exactly():
    # two states that swap with probability 1/3 and 1/2 spend 3/5 and 2/5 of the time
    p = [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 2)]]
    assert exact_gth(p) == [Fraction(3, 5), Fraction(2, 5)]


def test_model_is_within_a_few_ulps_of_the_exact_model():
    # GTH never subtracts, so it is accurate entry by entry (O'Cinneide 1993,
    # Numer. Math. 65): every gamma and nu entry is within 32 units in the last
    # place of the exact rational one, and an exact zero comes out as 0.0. The
    # exact model has a closed form: the walk's stationary law is proportional
    # to weighted degree, so gamma_w = d_w / D and nu_j = N_j / max N, with d the
    # reference programs' paper totals, D their sum and N the venue totals.
    from test_golden import _random_corpus

    corpora = [_random_corpus()] + [
        random_corpus(np.random.default_rng(71000 + i), n_ref=6, n_venues=20, n_papers=300,
                      hub=True)
        for i in range(40)
    ]
    bound = Fraction(32, 2**53)
    for corpus in corpora:
        model = build_reputation_model(build_counts(corpus))
        *_, gamma, nu = oracle_model(corpus)
        _, _, _, totals, per_program = oracle_counts(corpus)
        degree = [per_program[roster.program_id] for roster in corpus.reference_programs]
        assert gamma == [d / sum(degree) for d in degree]
        assert nu == [n / max(totals.values()) for n in totals.values()]
        for floats, exact in ((model.gamma, gamma), (model.nu, nu)):
            assert len(floats) == len(exact)
            for value, truth in zip(floats.tolist(), exact):
                assert abs(Fraction(value) - truth) <= bound * truth


def test_prefix_reputations_equal_the_model_of_each_prefix():
    # each prefix's exact model, built from that prefix's own corpus, has nu
    # in proportion to the prefix's reference venue totals, so the sweep's
    # exact integer scores rank as the exact model does, ties by id
    corpus = random_corpus(np.random.default_rng(559), n_ref=6, hub=True)
    counts = build_counts(corpus)
    t = len(counts.reference_programs)
    totals = np.cumsum(counts.matrix[:t], axis=0).tolist()
    scores = _prefix_scores(counts.matrix[t:], counts.matrix[:t]).T.tolist()
    report = stability_sweep(corpus, t)
    for size in range(1, t + 1):
        prefix = prefix_corpus(corpus, size)
        *_, nu = oracle_model(prefix)
        # the prefix's venues are those with a paper in its rows, in table order
        prefix_totals = [n for n in totals[size - 1] if n]
        top = max(prefix_totals)
        assert nu == [Fraction(n, top) for n in prefix_totals]
        exact = oracle_ranking(prefix)
        assert [Fraction(int(score), top) for score in scores[size - 1]] == [
            dict(exact)[pid] for pid in counts.candidate_programs
        ]
        assert report.rankings[size] == tuple(pid for pid, _ in exact)
